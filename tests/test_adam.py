import numpy as np
import pytest

from ral.nn import Adam


def test_first_step_hand_computed():
    # theta=0, g=1, defaults: m=0.1, v=0.001, mhat=1, vhat=1,
    # theta' = -lr / (1 + eps)
    p = np.zeros(1, dtype=np.float64)
    opt = Adam(lr=1e-4)
    opt.step([p], [np.ones(1)])
    assert opt.t == 1
    assert opt.m[0][0] == pytest.approx(0.1, abs=1e-15)
    assert opt.v[0][0] == pytest.approx(0.001, abs=1e-15)
    assert p[0] == pytest.approx(-1e-4 / (1 + 1e-8), abs=1e-15)
    assert p[0] == pytest.approx(-9.99999990e-5, abs=1e-12)


def test_zero_gradient_is_identity_on_fresh_state():
    p = np.array([1.5, -2.0])
    opt = Adam(lr=0.01)
    opt.step([p], [np.zeros(2)])
    np.testing.assert_array_equal(p, [1.5, -2.0])


def test_parameters_update_independently():
    rng = np.random.default_rng(0)
    a0, b0 = rng.random(3), rng.random((2, 2))
    ga, gb = rng.random(3), rng.random((2, 2))

    a_joint, b_joint = a0.copy(), b0.copy()
    joint = Adam(lr=0.05)
    joint.step([a_joint, b_joint], [ga, gb])

    a_solo, b_solo = a0.copy(), b0.copy()
    Adam(lr=0.05).step([a_solo], [ga])
    Adam(lr=0.05).step([b_solo], [gb])

    np.testing.assert_array_equal(a_joint, a_solo)
    np.testing.assert_array_equal(b_joint, b_solo)


def test_second_moment_stays_nonnegative():
    p = np.zeros(4)
    opt = Adam()
    rng = np.random.default_rng(1)
    for _ in range(5):
        opt.step([p], [rng.standard_normal(4)])
    assert (opt.v[0] >= 0).all()


def test_shape_mismatch_rejected():
    opt = Adam()
    with pytest.raises(ValueError):
        opt.step([np.zeros(2)], [np.zeros(3)])
