"""In-memory span tracing of the `ral` modules, installed from outside.

`Tracer.install()` replaces the public functions and methods listed in
`_targets()` with thin wrappers that append one span per call: name, start,
end, parent span and the id of the operation (a refinement run or a slide)
it belongs to. Nothing under `src/` changes; `uninstall()` puts every
original back. `layer_metrics()` turns the spans into the per-layer metrics
named in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from time import perf_counter

import numpy as np

MODULES = ("nn", "loop", "patches", "experiment", "slices", "dataset", "imageio")
LAYERS = 15  # build_classifier's layout: stem, pool, 3 trunk blocks, avgpool, dense
KINDS = {"Conv2d": "conv", "MaxPool2x2": "pool", "GlobalAvgPool": "avgpool",
         "Dense": "dense"}
LAYER_SPANS = {f"nn.{kind}.{d}": d == "bwd" for kind in KINDS.values()
               for d in ("fwd", "bwd")}  # span name -> is backward

PER_RUN = ("_gflops", "_ms_p50", "_ms_p95", "reconcile_ratio")  # not divided by ops

_LAYER_TAG = "_perfbench_layer"


def _batch(args, kwargs, result):
    return {"records": len(args[1])}


def _epochs(args, kwargs, result):
    return {"epochs": len(result)}


def _removed(args, kwargs, result):
    return {"removed": len(result)}


def _records(args, kwargs, result):
    return {"records": len(result)}


def _bytes_read(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _bytes_written(args, kwargs, result):
    return {"bytes": os.path.getsize(result)}


def _layer(args, kwargs, result):
    return {"layer": getattr(args[0], _LAYER_TAG, -1)}


def _conv_fwd(args, kwargs, result):
    conv, x = args[0], args[1]
    b, h, w, cin = x.shape
    flop = 2 * b * h * w * conv.kernel ** 2 * cin * conv.out_channels
    return {"layer": getattr(conv, _LAYER_TAG, -1), "gflop": flop / 1e9}


def _conv_bwd(args, kwargs, result):
    conv, dy = args[0], args[1]
    b, h, w, _ = dy.shape
    flop = 4 * b * h * w * conv.kernel ** 2 * conv.in_channels * conv.out_channels
    return {"layer": getattr(conv, _LAYER_TAG, -1), "gflop": flop / 1e9}


def _targets():
    """(owner, attribute, span name, attrs(args, kwargs, result) or None)."""
    from ral import dataset, experiment, imageio, loop, patches, slices
    from ral.nn import adam, checkpoint, layers, network

    out = []
    for cls in (layers.Conv2d, layers.MaxPool2x2, layers.GlobalAvgPool, layers.Dense):
        kind = KINDS[cls.__name__]
        conv = kind == "conv"
        out.append((cls, "forward", f"nn.{kind}.fwd", _conv_fwd if conv else _layer))
        out.append((cls, "backward", f"nn.{kind}.bwd", _conv_bwd if conv else _layer))
    out += [
        (network.Network, "loss_and_grads", "nn.loss_and_grads", _batch),
        (network.Network, "forward", "nn.forward", _batch),
        (adam.Adam, "step", "nn.adam.step", None),
        (checkpoint, "save_checkpoint", "nn.checkpoint.save", None),
        (checkpoint, "load_checkpoint", "nn.checkpoint.load", None),
        (loop, "initial_train", "loop.initial_fit", _epochs),
        (loop, "finetune", "loop.finetune", _epochs),
        (loop, "score_training_set", "loop.score", None),
        (loop, "prune_by_confidence", "loop.prune", _removed),
        (loop, "prune_by_group", "loop.prune", _removed),
        (patches, "build_training_set", "patches.build", _records),
        (patches.TrainingSet, "active_indices", "patches.active_indices", None),
        (patches, "tile", "patches.tile", None),
        (experiment, "write_report", "experiment.write", None),
        (experiment, "write_tables", "experiment.write", None),
        (experiment, "write_audit", "experiment.write", None),
        (slices, "predict_slide", "slices.predict", None),
        (slices, "majority_vote", "slices.vote", None),
        (slices, "render_class_map", "slices.render", None),
        (dataset, "load_dataset", "dataset.load", None),
        (imageio, "load_image", "imageio.load", _bytes_read),
        (imageio, "save_image", "imageio.save", _bytes_written),
    ]
    return out


class Patcher:
    """Replaces attributes of `ral` classes and modules, and puts them back."""

    def __init__(self):
        self._undo = []

    def patch(self, owner, attr, replacement):
        original = owner.__dict__[attr]
        if isinstance(owner, type):
            setattr(owner, attr, replacement)
            self._undo.append((owner, attr, original))
            return
        # a module-level function is also bound by name in every module
        # that imported it (`from .nn import save_checkpoint`)
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").partition(".")[0] == "ral"
                    and mod.__dict__.get(attr) is original):
                setattr(mod, attr, replacement)
                self._undo.append((mod, attr, original))

    def undo(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class Tracer:
    """Spans of one benchmark run, kept in memory until `write()`.

    A span is [name, start, end, parent index or -1, operation id, attrs].
    The program is single-threaded, so one stack gives every span its parent.
    """

    def __init__(self):
        self.spans = []
        self.op_id = 0
        self._stack = []
        self._patches = Patcher()

    def _wrap(self, name, fn, attrs):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if attrs is not None:
                rec[5] = attrs(args, kwargs, result)
            return result

        return traced

    def install(self):
        from ral import experiment
        from ral.nn import network

        for owner, attr, name, attrs in _targets():
            self._patches.patch(owner, attr, self._wrap(name, owner.__dict__[attr], attrs))

        logits = network.Network.logits

        @functools.wraps(logits)
        def tagging_logits(net, *args, **kwargs):
            # layer index for the per-layer spans; networks built before
            # install() (or by load_checkpoint) get it on first use
            if not hasattr(net.layers[0], _LAYER_TAG):
                for i, layer in enumerate(net.layers):
                    setattr(layer, _LAYER_TAG, i)
            return logits(net, *args, **kwargs)

        self._patches.patch(network.Network, "logits", tagging_logits)

        make_evaluator = experiment.make_evaluator

        @functools.wraps(make_evaluator)
        def traced_make_evaluator(*args, **kwargs):
            return self._wrap("experiment.evaluate", make_evaluator(*args, **kwargs), None)

        self._patches.patch(experiment, "make_evaluator", traced_make_evaluator)

    def uninstall(self):
        self._patches.undo()

    def write(self, path):
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "attrs"],
                       "spans": self.spans}, f, separators=(",", ":"))


def layer_metrics(spans, ops):
    """Per-layer metrics from the spans of `ops` traced operations.

    Times (seconds) and counts are per operation, so that runs which fit
    different numbers of operations into their time compare; rates,
    percentiles and ratios are over all spans.
    """
    dur = np.array([s[2] - s[1] for s in spans])
    child = np.zeros(len(spans))
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    names = [s[0] for s in spans]

    def total(name):
        return float(sum(d for n, d in zip(names, dur) if n == name))

    def attr_sum(name, key):
        return sum(s[5][key] for s in spans if s[0] == name)

    def count(name):
        return sum(1 for n in names if n == name)

    def under(i, ancestor):
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] == ancestor:
                return True
            p = spans[p][3]
        return False

    m = {}
    for kind in KINDS.values():
        for d in ("fwd", "bwd"):
            m[f"nn.{kind}.{d}_s"] = total(f"nn.{kind}.{d}")
    m["nn.conv.fwd_calls"] = count("nn.conv.fwd")
    m["nn.conv.bwd_calls"] = count("nn.conv.bwd")
    for d in ("fwd", "bwd"):
        gflop = attr_sum(f"nn.conv.{d}", "gflop")
        m[f"nn.conv.{d}_gflop"] = gflop
        t = m[f"nn.conv.{d}_s"]
        m[f"nn.conv.{d}_gflops"] = gflop / t if t else 0.0
    per_layer = np.zeros((LAYERS, 2))
    for i, s in enumerate(spans):
        if s[0] in LAYER_SPANS and 0 <= s[5]["layer"] < LAYERS:
            per_layer[s[5]["layer"], int(LAYER_SPANS[s[0]])] += dur[i]
    for layer in range(LAYERS):
        m[f"nn.layer{layer:02d}.fwd_s"] = float(per_layer[layer, 0])
        m[f"nn.layer{layer:02d}.bwd_s"] = float(per_layer[layer, 1])
    m["nn.adam.step_s"] = total("nn.adam.step")
    m["nn.loss_and_grads_s"] = total("nn.loss_and_grads")
    steps = _train_steps_ms(spans)
    m["nn.train_step_ms_p50"] = float(np.percentile(steps, 50)) if steps else 0.0
    m["nn.train_step_ms_p95"] = float(np.percentile(steps, 95)) if steps else 0.0
    m["nn.forward_s"] = total("nn.forward")
    m["nn.forward_records"] = attr_sum("nn.forward", "records")
    m["nn.checkpoint.save_s"] = total("nn.checkpoint.save")
    m["nn.checkpoint.load_s"] = total("nn.checkpoint.load")

    m["loop.initial_fit_s"] = total("loop.initial_fit")
    m["loop.finetune_s"] = total("loop.finetune")
    m["loop.epochs"] = attr_sum("loop.initial_fit", "epochs") + attr_sum("loop.finetune", "epochs")
    m["loop.train_steps"] = count("nn.loss_and_grads")
    m["loop.score_s"] = total("loop.score")
    m["loop.prune_s"] = total("loop.prune")
    m["loop.removed"] = attr_sum("loop.prune", "removed")

    m["patches.build_s"] = total("patches.build")
    m["patches.records"] = attr_sum("patches.build", "records")
    m["patches.active_indices_s"] = total("patches.active_indices")
    m["patches.tile_s"] = total("patches.tile")

    m["experiment.evaluate_s"] = total("experiment.evaluate")
    m["experiment.eval_forward_records"] = sum(
        s[5]["records"] for i, s in enumerate(spans)
        if s[0] == "nn.forward" and under(i, "experiment.evaluate"))
    m["experiment.write_s"] = total("experiment.write")

    m["slices.predict_s"] = total("slices.predict")
    m["slices.vote_s"] = total("slices.vote")
    m["slices.render_s"] = total("slices.render")

    m["dataset.load_s"] = total("dataset.load")
    m["imageio.load_s"] = total("imageio.load")
    m["imageio.save_s"] = total("imageio.save")
    m["imageio.bytes_read"] = attr_sum("imageio.load", "bytes")
    m["imageio.bytes_written"] = attr_sum("imageio.save", "bytes")

    self_time = dur - child
    for module in MODULES:
        m[f"{module}.self_s"] = float(sum(
            t for n, t in zip(names, self_time) if n.split(".", 1)[0] == module))
    layers_total = float(per_layer.sum())
    parents = m["nn.loss_and_grads_s"] + m["nn.forward_s"]
    m["trace.layer_total_s"] = layers_total
    m["trace.reconcile_ratio"] = layers_total / parents if parents else 0.0
    m["trace.spans"] = len(spans)
    for name in m:
        if not name.endswith(PER_RUN):
            m[name] /= ops
    return m


def _train_steps_ms(spans):
    """One training step: a loss_and_grads call through the Adam step after it."""
    steps, start = [], None
    for s in spans:
        if s[0] == "nn.loss_and_grads":
            start = s[1]
        elif s[0] == "nn.adam.step" and start is not None:
            steps.append((s[2] - start) * 1e3)
            start = None
    return steps
