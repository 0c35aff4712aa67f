"""Optimization loop: Adam, the staircase learning-rate schedule, batching,
k-fold cross-validation, evaluation metrics, and the gradient-check harness.
"""

from __future__ import annotations

import itertools
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable, ClassVar, Iterable, Optional, Sequence

import numpy as np

from .dataio import Dataset, FeatureSequence
from .historical import ALPHA_POLICIES, WINDOW_MODES, HistoricalConfig
from .network import (
    StackedNetwork,
    backward_sequence,
    build_network,
    check_options,
    eval_final_probs,
    forward_sequence,
    total_loss,
)
from .numerics import ShapeError, check_fields, finite_diff


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings plus the network/historical settings they feed."""

    lr0: float = 0.001
    decay_base: float = 0.96
    decay_every: int = 100000
    l2: float = 0.004
    batch_size: int = 32
    dropout_p: float = 0.5
    epochs: int = 20
    seed: int = 0
    lambda_aux: float = 0.5
    layer_units: tuple = (30, 30, 30, 30, 30)
    tau: int = HistoricalConfig.tau
    window_mode: str = HistoricalConfig.window_mode
    alpha_policy: str = HistoricalConfig.alpha_policy
    inference_policy: str = HistoricalConfig.inference_policy
    hist_placement: str = "top"
    peephole: str = "diag"
    use_historical: bool = True

    def __post_init__(self):
        # The network's checks first, so a network option is refused with
        # the network's message (a NaN dropout_p is out of [0, 1)).
        object.__setattr__(self, "layer_units", tuple(int(u) for u in self.layer_units))
        check_options(self.layer_units, self.dropout_p, self.hist_placement, self.peephole)
        for name in ("lr0", "decay_base"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        check_fields(self, {"decay_every": 1, "batch_size": 1, "epochs": 0,
                            "seed": 0, "l2": 0, "lambda_aux": 0})
        if self.decay_base > 1:  # a staircase decay factor
            raise ValueError(f"decay_base must be <= 1, got {self.decay_base}")
        self.hist_cfg()  # validates tau, window_mode, alpha_policy, inference_policy

    def hist_cfg(self) -> HistoricalConfig:
        return HistoricalConfig(
            tau=self.tau,
            window_mode=self.window_mode,
            alpha_policy=self.alpha_policy,
            inference_policy=self.inference_policy,
        )

    def build(self, rng: np.random.Generator, input_dim: int, n_classes: int) -> StackedNetwork:
        return build_network(
            rng,
            input_dim,
            self.layer_units,
            n_classes,
            dropout_p=self.dropout_p,
            hist_cfg=self.hist_cfg(),
            hist_placement=self.hist_placement,
            peephole=self.peephole,
            use_historical=self.use_historical,
        )


def lr_schedule(step: int, cfg: TrainConfig) -> float:
    """Staircase decay: lr0 * base^floor(step / decay_every)."""
    if step < 0:
        raise ValueError(f"step must be >= 0, got {step}")
    return cfg.lr0 * cfg.decay_base ** (step // cfg.decay_every)


@dataclass
class AdamState:
    """Per-block first/second moment accumulators and the step counter.
    A network's parameter vector is one block, "theta"."""

    m: dict
    v: dict
    step: int = 0
    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.999
    eps: ClassVar[float] = 1e-8

    @classmethod
    def for_network(cls, net: StackedNetwork) -> "AdamState":
        return cls(m={"theta": np.zeros_like(net.theta)}, v={"theta": np.zeros_like(net.theta)})


def adam_step(params: list, grads: dict, state: AdamState, lr: float) -> tuple:
    """One bias-corrected Adam update, applied to the arrays in place.

    params is a list of (name, array) blocks; the returned pair is the same
    objects after mutation, matching the functional contract.
    """
    t = state.step + 1
    b1, b2 = state.beta1, state.beta2
    for name, arr in params:
        g = grads[name]
        if g.shape != arr.shape:
            raise ShapeError(
                f"gradient for {name} has shape {g.shape}, parameter has {arr.shape}"
            )
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        arr -= lr * m_hat / (np.sqrt(v_hat) + state.eps)
    state.step = t
    return params, state


@dataclass
class Metrics:
    """accuracy = trace(confusion) / total; confusion rows are true classes."""

    accuracy: float
    confusion: np.ndarray
    fold_accuracies: Optional[list] = None
    loss_curve: list = field(default_factory=list)  # (step, lr, loss, batch accuracy)


def curve_csv(metrics: Metrics) -> str:
    lines = ["step,lr,loss,accuracy"]
    for step, lr, loss, acc in metrics.loss_curve:
        lines.append(f"{step},{lr!r},{loss!r},{acc!r}")
    return "\n".join(lines) + "\n"


def confusion_table(metrics: Metrics) -> str:
    """Plain-text accuracy + confusion matrix (rows true, columns predicted)."""
    C = metrics.confusion.shape[0]
    width = max(5, len(str(int(metrics.confusion.max(initial=0)))) + 1)
    out = [f"accuracy {metrics.accuracy:.4f}"]
    if metrics.fold_accuracies is not None:
        folds = " ".join(f"{a:.4f}" for a in metrics.fold_accuracies)
        out.append(f"per-fold {folds}")
    header = "true\\pred " + "".join(f"{c:>{width}}" for c in range(C))
    out.append(header)
    for r in range(C):
        row = "".join(f"{int(n):>{width}}" for n in metrics.confusion[r])
        out.append(f"{r:>9} " + row)
    return "\n".join(out) + "\n"


@contextmanager
def _naming(seq: FeatureSequence, index: int):
    """Prefix a sequence's ValueError with its id, or its index if the id is empty."""
    try:
        yield
    except ValueError as exc:
        raise type(exc)(f"{seq.id or f'sequence {index}'}: {exc}") from exc


EVAL_STEP_BUDGET = 3840  # evaluate's batches: max(1, min(EVAL_ROWS, EVAL_STEP_BUDGET // T))
EVAL_ROWS = 32  # at most, so that short sequences' batches stay small in memory
TRAIN_STEP_BUDGET = 960  # training pieces: max(1, min(TRAIN_ROWS, TRAIN_STEP_BUDGET // T))
TRAIN_ROWS = 16  # at most; a piece keeps every row's gates and cells for its backward


def evaluate(net: StackedNetwork, dataset: Dataset) -> Metrics:
    """Evaluation-mode prediction per sequence, the argmax with ties broken
    toward the lowest class index. Sequences of one length run as row
    batches (eval_final_probs), bit for bit the per-sequence forward; if a
    batch raises ValueError, the per-sequence loop reruns in dataset order
    and raises the first error, named by its sequence."""
    if dataset.n_classes > net.n_classes:
        raise ValueError(f"dataset declares {dataset.n_classes} classes, model has {net.n_classes}")
    C = net.n_classes
    confusion = np.zeros((C, C), dtype=np.int64)
    by_length, labels = {}, dataset.labels()
    for index, seq in enumerate(dataset):
        by_length.setdefault(len(seq.frames), []).append(index)
    try:
        for T, group in by_length.items():
            rows = max(1, min(EVAL_ROWS, EVAL_STEP_BUDGET // T))
            for idx in (group[lo:lo + rows] for lo in range(0, len(group), rows)):
                probs = eval_final_probs(net, np.stack([dataset.sequences[i].frames for i in idx]))
                np.add.at(confusion, (labels[idx], np.argmax(probs, axis=1)), 1)
    except ValueError:
        confusion[...] = 0
        for index, seq in enumerate(dataset):
            with _naming(seq, index):
                trace = forward_sequence(net, seq.frames, training=False)
            confusion[seq.label, int(np.argmax(trace.final_probs))] += 1
    total = int(confusion.sum())
    accuracy = float(np.trace(confusion) / total) if total else 0.0
    return Metrics(accuracy=accuracy, confusion=confusion)


def _equal_length_runs(dataset: Dataset, batch_idx: Sequence[int]) -> Iterable[list]:
    """batch_idx in order, cut into runs of consecutive rows of one length T
    and each run into pieces of at most max(1, min(TRAIN_ROWS, TRAIN_STEP_BUDGET // T)) rows."""
    for T, run in itertools.groupby(batch_idx, key=lambda i: dataset.sequences[i].T):
        run, rows = list(run), max(1, min(TRAIN_ROWS, TRAIN_STEP_BUDGET // T))
        yield from (run[lo:lo + rows] for lo in range(0, len(run), rows))


def _batch_gradients(
    net: StackedNetwork,
    dataset: Dataset,
    batch_idx: Sequence[int],
    cfg: TrainConfig,
    rng: np.random.Generator,
) -> tuple:
    """Mean gradient over the batch (fixed summation order), mean loss, and
    the fraction of training-mode argmax hits.

    Each piece from _equal_length_runs runs as one training forward, every
    row bit for bit its own sequence's pass; total_loss and backward_sequence
    then take the rows one by one. If that forward raises ValueError, the
    generator goes back to its state before it and the piece's rows run one
    sequence at a time, so an error names the same sequence and step."""
    grad_sum = np.zeros_like(net.theta)
    loss_sum = 0.0
    hits = 0
    for piece in _equal_length_runs(dataset, batch_idx):
        seqs = [dataset.sequences[idx] for idx in piece]
        state = rng.bit_generator.state
        try:
            batch = forward_sequence(net, np.stack([seq.frames for seq in seqs]),
                                     label=np.array([seq.label for seq in seqs]),
                                     training=True, rng=rng)
        except ValueError:
            rng.bit_generator.state = state
            traces = [None] * len(seqs)
        else:
            traces = [batch.row(b) for b in range(len(seqs))]
        for idx, seq, trace in zip(piece, seqs, traces):
            with _naming(seq, idx):
                if trace is None:
                    trace = forward_sequence(net, seq.frames, label=seq.label, training=True,
                                             rng=rng)
                loss_sum += total_loss(net, trace, seq.label, cfg.lambda_aux, cfg.l2)
                grad_sum += backward_sequence(net, trace, seq.label, cfg.lambda_aux, cfg.l2)
            hits += int(np.argmax(trace.final_probs)) == seq.label
        batch = traces = trace = None  # the piece's arrays go before the next piece's forward
    n = len(batch_idx)
    grad_sum /= n
    return grad_sum, loss_sum / n, hits / n


def train(
    dataset: Dataset,
    cfg: TrainConfig,
    log: Optional[Callable[[str], None]] = None,
) -> tuple:
    """Epochs of shuffled mini-batches on a network cfg builds for the data;
    each step applies Adam at the scheduled rate to the mean per-sequence
    gradient. Returns the model and training metrics (final training-set
    accuracy plus the loss curve), a deterministic function of (dataset, cfg).
    """
    if len(dataset) == 0:
        raise ValueError("cannot train on an empty dataset")
    rng = np.random.default_rng(cfg.seed)
    net = cfg.build(rng, dataset.dim, dataset.n_classes)
    state = AdamState.for_network(net)
    curve = []
    step = 0
    n = len(dataset)
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for lo in range(0, n, cfg.batch_size):
            batch = order[lo:lo + cfg.batch_size]
            grad, loss, acc = _batch_gradients(net, dataset, batch, cfg, rng)
            if not np.isfinite(loss):
                finite = np.isfinite(grad)
                bad = "loss only" if finite.all() else net.block_of(int(np.argmin(finite)))
                raise RuntimeError(
                    f"training aborted at step {step}: non-finite loss "
                    f"(first bad parameter block: {bad})"
                )
            lr = lr_schedule(step, cfg)
            adam_step([("theta", net.theta)], {"theta": grad}, state, lr)
            curve.append((step, lr, loss, acc))
            step += 1
        if log is not None:
            recent = curve[-max(1, (n + cfg.batch_size - 1) // cfg.batch_size):]
            mean_loss = float(np.mean([r[2] for r in recent]))
            log(f"epoch {epoch + 1}/{cfg.epochs} steps {step} loss {mean_loss:.4f}")
    metrics = evaluate(net, dataset)
    metrics.loss_curve = curve
    return net, metrics


def kfold_split(dataset: Dataset, k: int, seed: int) -> np.ndarray:
    """Stratified-by-class fold assignment (values 0..k-1), deterministic
    given the seed. Falls back to an unstratified split with a warning when
    some class has fewer than k samples."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    n = len(dataset)
    if n < k:
        raise ValueError(f"need at least k={k} samples, have {n}")
    labels = dataset.labels()
    rng = np.random.default_rng(seed)
    counts = np.bincount(labels, minlength=dataset.n_classes)
    groups = [np.flatnonzero(labels == c) for c in np.flatnonzero(counts)]
    if counts[counts > 0].min() < k:
        warnings.warn(
            f"some class has fewer than {k} samples; using an unstratified split",
            stacklevel=2,
        )
        groups = [np.arange(n)]
    folds = np.empty(n, dtype=np.int64)
    for members in groups:
        order = rng.permutation(members)
        folds[order] = np.arange(len(order)) % k
    return folds


def _subset(dataset: Dataset, idx: np.ndarray) -> Dataset:
    return Dataset(
        sequences=[dataset.sequences[i] for i in idx], n_classes=dataset.n_classes
    )


def cross_validate(
    dataset: Dataset,
    cfg: TrainConfig,
    k: int = 5,
    log: Optional[Callable[[str], None]] = None,
) -> Metrics:
    """Train/evaluate once per fold; manifest-declared folds win over a
    fresh stratified split. Reports per-fold accuracies, their mean, and the
    summed confusion matrix."""
    if dataset.folds is not None:
        folds = np.asarray(dataset.folds, dtype=np.int64)
        fold_ids = sorted(set(folds.tolist()))
        if len(fold_ids) < 2:
            raise ValueError("manifest folds define fewer than 2 folds")
    else:
        folds = kfold_split(dataset, k, cfg.seed)
        fold_ids = list(range(k))
    accs = []
    confusion = None
    for f in fold_ids:
        test_idx = np.flatnonzero(folds == f)
        train_idx = np.flatnonzero(folds != f)
        fold_cfg = replace(cfg, seed=cfg.seed + 7919 * (int(f) + 1))
        net, _ = train(_subset(dataset, train_idx), fold_cfg)
        m = evaluate(net, _subset(dataset, test_idx))
        accs.append(m.accuracy)
        confusion = m.confusion if confusion is None else confusion + m.confusion
        if log is not None:
            log(f"fold {f}: accuracy {m.accuracy:.4f}")
    return Metrics(
        accuracy=float(np.mean(accs)),
        confusion=confusion,
        fold_accuracies=accs,
    )


@dataclass
class GradCheckCase:
    seed: int
    T: int
    alpha_policy: str
    window_mode: str
    intended_branch: str
    realized_branches: tuple
    max_rel_err: float
    worst_block: str


@dataclass
class GradCheckReport:
    max_rel_err: float
    worst_block: str
    cases: list
    elapsed_s: float
    missing_coverage: list  # (policy, mode, branch) triples never realized

    @property
    def ok(self) -> bool:
        return self.max_rel_err < 1e-4 and not self.missing_coverage


# grad_check's fixed settings: TrainConfig's default loss weights, the tiny
# nets' input width, class count and tau, and the central-difference step.
GRAD_CHECK_LAMBDA_AUX = TrainConfig.lambda_aux
GRAD_CHECK_L2 = TrainConfig.l2
GRAD_CHECK_INPUT_DIM = 2
GRAD_CHECK_CLASSES = 3
GRAD_CHECK_TAU = 2
GRAD_CHECK_H = 1e-5
# grad_check's cases per seed, in order: every (alpha policy, window mode,
# branch the head biases force).
GRAD_CHECK_CASES = tuple((policy, mode, branch) for policy in ALPHA_POLICIES
                         for mode in WINDOW_MODES for branch in ("blend", "trunc"))


def _forced_cases(seeds, layer_units, lengths, hist_placement, peephole) -> Iterable[tuple]:
    """grad_check's cases: per seed, for every GRAD_CHECK_CASES entry, a tiny
    random net, sequence and label with head biases forcing the intended
    branch, and the net's training trace on them. Yields
    (seed, T, policy, mode, branch, net, X, label, trace)."""
    base = TrainConfig(layer_units=layer_units, dropout_p=0.0, tau=GRAD_CHECK_TAU,
                       hist_placement=hist_placement, peephole=peephole)
    case_id = 0
    for seed in range(seeds):
        for policy, mode, branch in GRAD_CHECK_CASES:
            T = int(lengths[(case_id + seed) % len(lengths)])
            case_id += 1
            rng = np.random.default_rng([seed, case_id])
            net = replace(base, window_mode=mode, alpha_policy=policy).build(
                rng, GRAD_CHECK_INPUT_DIM, GRAD_CHECK_CLASSES)
            X = rng.standard_normal((T, GRAD_CHECK_INPUT_DIM))
            label = int(rng.integers(GRAD_CHECK_CLASSES))
            # The literal alpha amplifies the state in the blend branch, so
            # its forcing stays mild to keep logits in floating-point range
            # over T steps.
            bias = 1.5 if (branch == "blend" and policy == "literal") else 6.0
            if branch == "blend":
                net.per_step_head.c[label] -= bias
                net.final_head.c[label] += bias
            else:
                net.per_step_head.c[label] += bias
                net.final_head.c[label] -= bias
            trace = forward_sequence(net, X, label=label, training=True)
            yield seed, T, policy, mode, branch, net, X, label, trace


def _central_differences(net, X, label: int, trace, lambda_aux: float, l2: float,
                         h: float) -> np.ndarray:
    """(f(theta + h e_i) - f(theta - h e_i)) / 2h for every coordinate i of
    the network's parameters theta, where f is total_loss of the forward pass
    replayed from trace: all 2P probes run as one stacked replay."""
    P = net.theta.size
    probes = np.tile(net.theta, (2 * P, 1))
    i = np.arange(P)
    probes[i, i] += h
    probes[P + i, i] -= h
    stack = net.with_params(probes)
    replayed = forward_sequence(stack, X, label=label, training=True, replay_from=trace)
    f = total_loss(stack, replayed, label, lambda_aux, l2)
    return (f[:P] - f[P:]) / (2.0 * h)


def _check(forced: Iterable[tuple]) -> GradCheckReport:
    """The report on the cases in forced, tuples as _forced_cases yields them."""
    t_start = time.perf_counter()
    cases = []
    realized_cover = set()
    for seed, T, policy, mode, branch, net, X, label, trace0 in forced:
        realized = tuple(
            sorted({r.branch for r in trace0.hists[-1].records if r.branch != "init"})
        )
        for b in realized:
            realized_cover.add((policy, mode, b))
        analytic = backward_sequence(net, trace0, label, GRAD_CHECK_LAMBDA_AUX, GRAD_CHECK_L2)
        fd = _central_differences(net, X, label, trace0, GRAD_CHECK_LAMBDA_AUX, GRAD_CHECK_L2,
                                  GRAD_CHECK_H)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-4)
        rel = np.abs(analytic - fd) / denom
        worst = int(np.argmax(rel))

        probe = net.clone()

        def along_worst(v):
            probe.theta[worst] = v[0]
            tr = forward_sequence(probe, X, label=label, training=True, replay_from=trace0)
            return total_loss(probe, tr, label, GRAD_CHECK_LAMBDA_AUX, GRAD_CHECK_L2)

        scalar = finite_diff(along_worst, net.theta[worst:worst + 1], GRAD_CHECK_H)[0]
        if abs(scalar - fd[worst]) > 1e-9 * max(1.0, abs(fd[worst])):
            raise RuntimeError(
                f"grad_check case seed={seed} T={T} {policy}/{mode}/{branch}: the stacked "
                f"central difference {fd[worst]!r} at {net.block_of(worst)} differs from "
                f"finite_diff's {scalar!r}"
            )
        cases.append(
            GradCheckCase(
                seed=seed,
                T=T,
                alpha_policy=policy,
                window_mode=mode,
                intended_branch=branch,
                realized_branches=realized,
                max_rel_err=float(rel[worst]),
                worst_block=net.block_of(worst),
            )
        )
    missing = [case for case in GRAD_CHECK_CASES if case not in realized_cover]
    worst_case = max(cases, key=lambda c: c.max_rel_err)
    return GradCheckReport(
        max_rel_err=worst_case.max_rel_err,
        worst_block=worst_case.worst_block,
        cases=cases,
        elapsed_s=time.perf_counter() - t_start,
        missing_coverage=missing,
    )


def grad_check(
    seeds: int = 20,
    layer_units: Sequence[int] = (3, 3),
    lengths: Sequence[int] = (1, 3, 6),
) -> GradCheckReport:
    """Finite-difference verification of the analytic gradients.

    Per seed, every (alpha policy, window mode, branch) combination runs on
    a tiny random net (TrainConfig's placement and peephole mode) and
    sequence, with head biases forcing the intended branch; the compared
    function is the replayed forward pass (branch schedule pinned), matching
    the frozen-coefficient gradient convention. Relative error per
    coordinate is |a - f| / max(|a|, |f|, 1e-4), so agreement below the
    finite-difference noise floor counts as exact.

    The central differences of a case run as one stacked replay. Its worst
    coordinate is recomputed with finite_diff through one replay per call,
    and a difference beyond 1e-9 * max(1, |fd|) raises RuntimeError.
    """
    if seeds < 1:
        raise ValueError(f"seeds must be >= 1, got {seeds}")
    if not lengths or min(lengths) < 1:
        raise ValueError(f"lengths must hold >= 1 length of >= 1 step, got {list(lengths)}")
    return _check(_forced_cases(seeds, layer_units, lengths, TrainConfig.hist_placement,
                                TrainConfig.peephole))
