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

from dataclasses import InitVar, asdict, dataclass, field

import numpy as np

from .metrics import macro_accuracy
from .nn import Adam
from .patches import TrainingSet, VARIANTS, check_types, require_count


@dataclass
class RalConfig:
    """The refinement settings: the config file's ``ral`` section.

    ``seed`` (batch shuffling) is an argument, not a setting: a run takes
    it from the config's top-level seed, so it is no field, no config key
    and no part of the resolved config in ``report.json``. The optimizer
    is ``nn.Adam``, whose constants are fixed there; only its learning
    rate is a setting.
    """
    tau: float = 0.5                    # records with label confidence < tau go
    group_threshold: int = 4            # strictly more than this many removals kills a group
    iterations: int = 3                 # K refinement rounds
    max_epochs: int = 6
    target_train_accuracy: float = 1.01  # early stop for the initial fit; >1 disables
    finetune_epochs: int = 2
    batch_size: int = 64
    learning_rate: float = 1e-3
    seed: InitVar[int] = 0

    def __post_init__(self, seed):
        check_types(self, "ral")
        self.seed = seed  # kept, so that dataclasses.replace keeps it too
        if not 0.0 <= self.tau < 1.0:
            raise ValueError(f"tau must be in [0, 1), got {self.tau}")
        for name in ("group_threshold", "iterations", "max_epochs", "finetune_epochs"):
            require_count(getattr(self, name), name, 0)
        if self.group_threshold > VARIANTS:
            raise ValueError(f"group_threshold must be at most {VARIANTS}, "
                             f"got {self.group_threshold}")
        require_count(self.batch_size, "batch_size")
        # learning_rate 0 is allowed: it freezes the weights
        if not self.learning_rate >= 0.0:
            raise ValueError(f"learning_rate must be non-negative, got {self.learning_rate}")


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
        return asdict(self)


@dataclass
class RalResult:
    reports: list
    audit: list = field(default_factory=list)  # (iteration, patch_id, reason)
    status: str = "completed"                  # or "empty_refined_set"
    epoch_logs: list = field(default_factory=list)  # one list of EpochStats per phase

    @property
    def total_epochs(self):
        return sum(map(len, self.epoch_logs))


def _train_epochs(net, ts: TrainingSet, config: RalConfig, adam, rng,
                  max_epochs, target_accuracy=None, epoch_offset=0):
    """Seeded mini-batch training on the active records. Returns EpochStats.

    Raises FloatingPointError, naming the epoch and the batch, as soon as
    a batch's loss or any of its gradients is not finite.
    """
    log = []
    idx = ts.active_indices()  # callers reject an empty set; no epoch changes it
    for e in range(max_epochs):
        order = idx[rng.permutation(len(idx))]
        total_loss = 0.0
        total_hits = 0
        for start in range(0, len(order), config.batch_size):
            take = order[start:start + config.batch_size]
            x = ts.images[take]
            y = ts.label[take]
            loss, grads, logits = net.loss_and_grads(x, y, with_logits=True)
            # one vector laid out like net.theta, so the check and the
            # step each cover every parameter in a few numpy calls
            grad = np.concatenate([g.reshape(-1) for g in grads])
            if not (np.isfinite(loss) and np.isfinite(grad).all()):
                raise FloatingPointError(
                    f"training diverged: non-finite loss or gradient at epoch "
                    f"{epoch_offset + e}, batch {start // config.batch_size}")
            adam.step(net.theta, grad)
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
    adam = adam if adam is not None else Adam(config.learning_rate)
    rng = rng if rng is not None else np.random.default_rng(config.seed)
    return _train_epochs(net, ts, config, adam, rng,
                         config.max_epochs, config.target_train_accuracy)


def finetune(net, ts: TrainingSet, config: RalConfig, adam, rng=None, epoch_offset=0):
    """Continue training on the current active records for finetune_epochs.

    The optimizer is passed in, not rebuilt: refinement continues the same
    optimization trajectory.
    """
    if ts.n_active == 0:
        raise ValueError("cannot finetune on an empty training set")
    rng = rng if rng is not None else np.random.default_rng(config.seed)
    return _train_epochs(net, ts, config, adam, rng,
                         config.finetune_epochs, None, epoch_offset)


def score_training_set(net, ts: TrainingSet):
    """One read-only pass over the active records.

    Returns (conf, pred), two len(ts) arrays set on active rows only: the
    probability the model assigns to the record's own label (float64, NaN
    elsewhere; low = the model disputes the label) and its argmax class
    (-1 elsewhere).
    """
    idx = ts.active_indices()
    probs = net.predict_proba(ts.images, idx)
    conf = np.full(len(ts), np.nan)
    pred = np.full(len(ts), -1, dtype=np.intp)
    conf[idx] = probs[np.arange(len(idx)), ts.label[idx]]
    pred[idx] = probs.argmax(axis=1)
    return conf, pred


def prune_by_confidence(ts: TrainingSet, conf, tau):
    """Deactivate active records whose confidence is strictly below tau.

    ``conf`` holds one score per record. Returns the removed record
    indices, ascending. Every active record must have a score; a NaN means
    the scoring pass and the set went out of sync.
    """
    if np.isnan(conf[ts.active]).any():
        raise ValueError("no confidence score for an active record")
    removed = np.flatnonzero(ts.active & (conf < tau))
    ts.active[removed] = False
    return removed


def prune_by_group(ts: TrainingSet, removed_this_round, group_threshold):
    """Apply the group-majority rule to one round's removals.

    For each augmentation group, if strictly more than ``group_threshold``
    of its 8 variants were removed this round, the group's surviving
    members are deactivated too. Returns their record indices, ascending.
    """
    groups = np.asarray(removed_this_round, dtype=np.intp) // VARIANTS
    counts = np.bincount(groups, minlength=len(ts) // VARIANTS)
    extra = np.flatnonzero(ts.active & (counts > group_threshold).repeat(VARIANTS))
    ts.active[extra] = False
    return extra


def run_ral(net, ts: TrainingSet, config: RalConfig, evaluator=None):
    """Initial fit, then K rounds of prune -> group-prune -> finetune.

    After each training phase one read-only pass over the active records
    gives the round's ``train_patch_acc`` and the next round's confidences.
    ``evaluator(net)`` may supply the other three accuracy fields of each
    IterationReport (patch/val, slice/train, slice/val); without one they
    stay None. Returns a RalResult with K+1 reports (row 0 is the unpruned
    baseline), the removal audit trail, and the epochs actually spent.
    """
    adam = Adam(config.learning_rate)
    rng = np.random.default_rng(config.seed)

    def measure(report):
        if evaluator is not None:
            for key, value in evaluator(net).items():
                setattr(report, key, value)
        result.reports.append(report)

    def score_and_measure(report):
        conf, pred = score_training_set(net, ts)
        idx = ts.active_indices()
        report.train_patch_acc = macro_accuracy(ts.label[idx], pred[idx], len(ts.class_names))
        measure(report)
        return conf

    log0 = initial_train(net, ts, config, adam, rng)
    result = RalResult([], epoch_logs=[log0])
    n0 = ts.n_active
    conf = score_and_measure(IterationReport(0, n0, 0, 0, n0))

    for k in range(1, config.iterations + 1):
        before = ts.n_active
        removed_conf = prune_by_confidence(ts, conf, config.tau)
        removed_group = prune_by_group(ts, removed_conf, config.group_threshold)
        # audit rows within a round and reason run in patch id order
        result.audit.extend((k, pid, "confidence") for pid in sorted(ts.patch_ids(removed_conf)))
        result.audit.extend((k, pid, "group") for pid in sorted(ts.patch_ids(removed_group)))
        after = ts.n_active
        report = IterationReport(k, before, len(removed_conf), len(removed_group), after)
        if not report.reconciles():
            raise AssertionError(f"iteration {k} bookkeeping does not reconcile: {report}")
        if after == 0:
            measure(report)
            result.status = "empty_refined_set"
            return result
        result.epoch_logs.append(
            finetune(net, ts, config, adam, rng, epoch_offset=result.total_epochs))
        conf = score_and_measure(report)
    return result
