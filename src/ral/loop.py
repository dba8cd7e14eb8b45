"""The reversed-active-learning refinement loop.

Classic active learning grows a training set by querying labels; this loop
runs the other direction. Train on everything, then let the model prosecute
its own training data: patches whose label the model assigns low confidence
are deactivated, whole augmentation groups in which more than
``group_threshold`` of the 8 variants fell this round lose their remaining
members too, and the model is fine-tuned on the survivors. Repeated K
times, with full bookkeeping so every removal can be audited.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .nn import Adam
from .patches import TrainingSet, VARIANTS


@dataclass
class RalConfig:
    tau: float = 0.5                    # records with label confidence < tau go
    group_threshold: int = 4            # strictly more than this many removals kills a group
    iterations: int = 3                 # K refinement rounds
    max_epochs: int = 18
    target_train_accuracy: float = 0.98  # early stop for the initial fit; >1 disables
    finetune_epochs: int = 5
    batch_size: int = 64
    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    confidence_mode: str = "label"      # "label" (own-label probability) or "max"
    fresh_optimizer: bool = False       # reset Adam state at each refinement round
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.tau < 1.0:
            raise ValueError(f"tau must be in [0, 1), got {self.tau}")
        if not 0 <= self.group_threshold <= VARIANTS:
            raise ValueError(f"group_threshold must be in [0, {VARIANTS}]")
        if self.iterations < 0 or self.max_epochs < 0 or self.finetune_epochs < 0:
            raise ValueError("iterations and epoch counts must be non-negative")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.confidence_mode not in ("label", "max"):
            raise ValueError(f"unknown confidence_mode {self.confidence_mode!r}")

    def make_optimizer(self):
        return Adam(self.learning_rate, self.beta1, self.beta2, self.epsilon)


@dataclass
class EpochStats:
    epoch: int
    loss: float
    accuracy: float  # running accuracy over the epoch's mini-batches


@dataclass
class IterationReport:
    k: int
    active_before: int
    removed_by_confidence: int
    removed_by_group: int
    active_after: int
    train_patch_acc: float | None = None
    val_patch_acc: float | None = None
    train_slice_acc: float | None = None
    val_slice_acc: float | None = None

    def reconciles(self):
        return (self.active_after ==
                self.active_before - self.removed_by_confidence - self.removed_by_group)

    def to_dict(self):
        return {"k": self.k, "active_before": self.active_before,
                "removed_by_confidence": self.removed_by_confidence,
                "removed_by_group": self.removed_by_group,
                "active_after": self.active_after,
                "train_patch_acc": self.train_patch_acc,
                "val_patch_acc": self.val_patch_acc,
                "train_slice_acc": self.train_slice_acc,
                "val_slice_acc": self.val_slice_acc}


@dataclass
class RalResult:
    reports: list
    audit: list = field(default_factory=list)  # (iteration, patch_id, reason)
    status: str = "completed"                  # or "empty_refined_set"
    total_epochs: int = 0
    epoch_logs: list = field(default_factory=list)


def _train_epochs(net, ts: TrainingSet, config: RalConfig, adam, rng,
                  max_epochs, target_accuracy=None, epoch_offset=0):
    """Seeded mini-batch training on the active records. Returns EpochStats."""
    log = []
    labels = ts.labels()
    for e in range(max_epochs):
        idx = ts.active_indices()
        if len(idx) == 0:
            raise ValueError("cannot train on an empty active set")
        order = idx[rng.permutation(len(idx))]
        total_loss = 0.0
        total_hits = 0
        for start in range(0, len(order), config.batch_size):
            take = order[start:start + config.batch_size]
            x = ts.pixels[take]
            y = labels[take]
            loss, grads, logits = net.loss_and_grads(x, y, with_logits=True)
            adam.step(net.parameters(), grads)
            total_loss += loss * len(take)
            total_hits += int((logits.argmax(axis=1) == y).sum())
        stats = EpochStats(epoch_offset + e, total_loss / len(order),
                           total_hits / len(order))
        log.append(stats)
        if target_accuracy is not None and stats.accuracy >= target_accuracy:
            break
    return log


def initial_train(net, ts: TrainingSet, config: RalConfig, adam=None, rng=None):
    """Fit until the running train accuracy reaches the preset target
    or the epoch cap, whichever comes first."""
    if ts.n_active == 0:
        raise ValueError("cannot train on an empty training set")
    adam = adam if adam is not None else config.make_optimizer()
    rng = rng if rng is not None else np.random.default_rng(config.seed)
    return _train_epochs(net, ts, config, adam, rng,
                         config.max_epochs, config.target_train_accuracy)


def finetune(net, ts: TrainingSet, config: RalConfig, adam, rng=None, epoch_offset=0):
    """Continue training on the current active records for finetune_epochs.

    The optimizer is passed in, not rebuilt: refinement continues the same
    optimization trajectory unless the caller resets it.
    """
    if ts.n_active == 0:
        raise ValueError("cannot finetune on an empty training set")
    rng = rng if rng is not None else np.random.default_rng(config.seed)
    return _train_epochs(net, ts, config, adam, rng,
                         config.finetune_epochs, None, epoch_offset)


def score_training_set(net, ts: TrainingSet, mode="label"):
    """Model confidence for every active record, keyed by patch id.

    In "label" mode the confidence is the probability the model assigns to
    the record's own label (low = the model disputes the label); in "max"
    mode it is the probability of the model's favorite class.
    """
    idx = ts.active_indices()
    probs = net.predict_proba(ts.pixels, idx)
    if mode == "label":
        conf = probs[np.arange(len(idx)), ts.labels()[idx]]
    elif mode == "max":
        conf = probs.max(axis=1)
    else:
        raise ValueError(f"unknown confidence mode {mode!r}")
    return {ts.records[pos].patch_id: float(c) for pos, c in zip(idx, conf)}


def prune_by_confidence(ts: TrainingSet, scores, tau):
    """Deactivate active records scoring strictly below tau.

    Returns the removed patch ids sorted. Every active record must have a
    score; a gap means the scoring pass and the set went out of sync.
    """
    removed = []
    for r in ts.records:
        if not r.active:
            continue
        if r.patch_id not in scores:
            raise ValueError(f"no confidence score for active record {r.patch_id}")
        if scores[r.patch_id] < tau:
            removed.append(r.patch_id)
    ts.deactivate(removed)
    return sorted(removed)


def prune_by_group(ts: TrainingSet, removed_this_round, group_threshold=4):
    """Apply the group-majority rule to one round's removals.

    For each augmentation group, if strictly more than ``group_threshold``
    of its 8 variants were removed this round, the group's surviving
    members are deactivated too. Returns those extra patch ids sorted.
    """
    round_counts = {}
    for pid in removed_this_round:
        gid = ts.record(pid).group_id
        round_counts[gid] = round_counts.get(gid, 0) + 1
    extra = []
    for r in ts.records:
        if r.active and round_counts.get(r.group_id, 0) > group_threshold:
            extra.append(r.patch_id)
    ts.deactivate(extra)
    return sorted(extra)


def run_ral(net, ts: TrainingSet, config: RalConfig, evaluator=None):
    """Initial fit, then K rounds of score -> prune -> group-prune -> finetune.

    ``evaluator(net, ts)`` may supply the four accuracy fields of each
    IterationReport (patch/slice x train/val); without one they stay None.
    Returns a RalResult with K+1 reports (row 0 is the unpruned baseline),
    the removal audit trail, and the epochs actually spent.
    """
    adam = config.make_optimizer()
    rng = np.random.default_rng(config.seed)

    def measure():
        return evaluator(net, ts) if evaluator is not None else {}

    log0 = initial_train(net, ts, config, adam, rng)
    n0 = ts.n_active
    reports = [IterationReport(0, n0, 0, 0, n0, **measure())]
    result = RalResult(reports, total_epochs=len(log0), epoch_logs=[log0])

    for k in range(1, config.iterations + 1):
        before = ts.n_active
        scores = score_training_set(net, ts, config.confidence_mode)
        removed_conf = prune_by_confidence(ts, scores, config.tau)
        removed_group = prune_by_group(ts, removed_conf, config.group_threshold)
        result.audit.extend((k, pid, "confidence") for pid in removed_conf)
        result.audit.extend((k, pid, "group") for pid in removed_group)
        after = ts.n_active
        report = IterationReport(k, before, len(removed_conf), len(removed_group), after)
        if not report.reconciles():
            raise AssertionError(f"iteration {k} bookkeeping does not reconcile: {report}")
        if after == 0:
            for key, value in measure().items():
                setattr(report, key, value)
            reports.append(report)
            result.status = "empty_refined_set"
            return result
        if config.fresh_optimizer:
            adam.reset()
        log_k = finetune(net, ts, config, adam, rng, epoch_offset=result.total_epochs)
        result.total_epochs += len(log_k)
        result.epoch_logs.append(log_k)
        for key, value in measure().items():
            setattr(report, key, value)
        reports.append(report)
    return result
