import numpy as np
import pytest

from ral.nn import Adam


def test_first_step_hand_computed():
    # theta=0, g=1, defaults: m=0.1, v=0.001, mhat=1, vhat=1,
    # theta' = -lr / (1 + eps)
    p = np.zeros(1, dtype=np.float64)
    opt = Adam(lr=1e-4)
    opt.step(p, np.ones(1))
    assert opt.t == 1
    assert opt.m[0] == pytest.approx(0.1, abs=1e-15)
    assert opt.v[0] == pytest.approx(0.001, abs=1e-15)
    assert p[0] == pytest.approx(-1e-4 / (1 + 1e-8), abs=1e-15)
    assert p[0] == pytest.approx(-9.99999990e-5, abs=1e-12)


def test_zero_gradient_is_identity_on_fresh_state():
    p = np.array([1.5, -2.0])
    opt = Adam(lr=0.01)
    opt.step(p, np.zeros(2))
    np.testing.assert_array_equal(p, [1.5, -2.0])


def test_parameters_update_independently():
    # the update is elementwise, so one Adam over the concatenation of two
    # arrays (the training loop's flat parameter vector) equals one Adam each
    rng = np.random.default_rng(0)
    a_solo, b_solo = rng.random(3), rng.random((2, 2))
    joint = np.concatenate([a_solo, b_solo.reshape(-1)])
    opt, opt_a, opt_b = Adam(lr=0.05), Adam(lr=0.05), Adam(lr=0.05)
    for _ in range(3):
        ga, gb = rng.standard_normal(3), rng.standard_normal((2, 2))
        opt.step(joint, np.concatenate([ga, gb.reshape(-1)]))
        opt_a.step(a_solo, ga)
        opt_b.step(b_solo, gb)

    np.testing.assert_array_equal(joint, np.concatenate([a_solo, b_solo.reshape(-1)]))
    np.testing.assert_array_equal(opt.m, np.concatenate([opt_a.m, opt_b.m.reshape(-1)]))
    np.testing.assert_array_equal(opt.v, np.concatenate([opt_a.v, opt_b.v.reshape(-1)]))


def test_second_moment_stays_nonnegative():
    p = np.zeros(4)
    opt = Adam(lr=1e-3)
    rng = np.random.default_rng(1)
    for _ in range(5):
        opt.step(p, rng.standard_normal(4))
    assert (opt.v >= 0).all()


def test_shape_mismatch_rejected():
    opt = Adam(lr=1e-3)
    with pytest.raises(ValueError, match=r"param shape \(2,\) vs grad shape \(3,\)"):
        opt.step(np.zeros(2), np.zeros(3))


def test_state_of_another_shape_rejected():
    opt = Adam(lr=1e-3)
    opt.step(np.zeros(2), np.ones(2))
    p = np.zeros(3)
    with pytest.raises(ValueError,
                       match=r"optimizer state shape \(2,\) vs param shape \(3,\)"):
        opt.step(p, np.ones(3))
    # the rejected step changed nothing
    assert opt.t == 1
    np.testing.assert_array_equal(p, np.zeros(3))
