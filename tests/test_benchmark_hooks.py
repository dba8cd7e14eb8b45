"""The names `perfbench/` patches in `ral` from outside must keep existing.

The benchmark wraps these functions and methods by name to time them
(`perfbench/spans.py::_targets`), and wraps `loop`'s training and pruning
steps by module-global name to time the refinement. A rename or an inlined
call silently drops a span or a timer, so these tests pin the names.
"""

import sys
from pathlib import Path

import numpy as np

from ral import experiment, loop
from ral.nn import LayerSpec, Network, NetworkSpec
from ral.patches import SlideImage, TilingSpec, build_training_set

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import spans  # noqa: E402


def test_traced_targets_resolve_to_callables():
    targets = spans._targets()
    assert targets
    for owner, attr, _, _ in targets:
        assert callable(owner.__dict__.get(attr)), (owner, attr)
    assert callable(experiment.__dict__.get("make_evaluator"))


def test_run_ral_calls_its_steps_by_module_global_name(monkeypatch):
    names = ("initial_train", "finetune", "score_training_set",
             "prune_by_confidence", "prune_by_group")
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(loop, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(loop, name, counted)
    rng = np.random.default_rng(0)
    slides = [SlideImage(f"s{i}", c, rng.random((8, 8, 3), dtype=np.float32))
              for i, c in enumerate(("a", "b"))]
    ts = build_training_set(slides, TilingSpec(8, 8))
    net = Network(NetworkSpec((8, 8, 3), (LayerSpec("dense", channels=2),), 2))
    loop.run_ral(net, ts, loop.RalConfig(tau=0.0, iterations=1, max_epochs=1,
                                         finetune_epochs=1, batch_size=8))
    assert all(calls.values()), calls
