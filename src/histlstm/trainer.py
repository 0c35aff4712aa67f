"""Optimization loop: Adam, the staircase learning-rate schedule, batching,
k-fold cross-validation, evaluation metrics, and the gradient-check harness.
"""

from __future__ import annotations

import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .cells import PEEPHOLE_MODES
from .dataio import Dataset, FeatureSequence
from .historical import ALPHA_POLICIES, WINDOW_MODES, HistoricalConfig
from .network import (
    HIST_PLACEMENTS,
    StackedNetwork,
    backward_sequence,
    build_network,
    forward_sequence,
    total_loss,
    zero_grads,
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
        for name in ("lr0", "decay_base"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        check_fields(self, {"decay_every": 1, "batch_size": 1, "epochs": 0,
                            "seed": 0, "l2": 0, "lambda_aux": 0})
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError(f"dropout_p must be in [0, 1), got {self.dropout_p}")
        object.__setattr__(self, "layer_units", tuple(int(u) for u in self.layer_units))
        if not self.layer_units or min(self.layer_units) < 1:
            raise ValueError(f"need >= 1 layer of >= 1 unit, got layer_units={self.layer_units}")
        self.hist_cfg()  # validates tau, window_mode, alpha_policy, inference_policy
        if self.hist_placement not in HIST_PLACEMENTS:
            raise ValueError(f"unknown hist_placement {self.hist_placement!r}")
        if self.peephole not in PEEPHOLE_MODES:
            raise ValueError(f"unknown peephole {self.peephole!r}")

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
    """Per-block first/second moment accumulators and the step counter."""

    m: dict
    v: dict
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_network(cls, net: StackedNetwork) -> "AdamState":
        return cls(
            m={name: np.zeros_like(arr) for name, arr in net.param_blocks()},
            v={name: np.zeros_like(arr) for name, arr in net.param_blocks()},
        )


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


def evaluate(net: StackedNetwork, dataset: Dataset) -> Metrics:
    """Evaluation-mode forward per sequence; argmax prediction with ties
    broken toward the lowest class index."""
    C = net.n_classes
    if dataset.n_classes > C:
        raise ValueError(
            f"dataset declares {dataset.n_classes} classes, model has {C}"
        )
    confusion = np.zeros((C, C), dtype=np.int64)
    for index, seq in enumerate(dataset):
        with _naming(seq, index):
            trace = forward_sequence(net, seq.frames, training=False)
        pred = int(np.argmax(trace.final_probs))
        confusion[seq.label, pred] += 1
    total = int(confusion.sum())
    accuracy = float(np.trace(confusion) / total) if total else 0.0
    return Metrics(accuracy=accuracy, confusion=confusion)


def _batch_gradients(
    net: StackedNetwork,
    dataset: Dataset,
    batch_idx: Sequence[int],
    cfg: TrainConfig,
    rng: np.random.Generator,
) -> tuple:
    """Mean gradient over the batch (fixed summation order), mean loss, and
    the fraction of training-mode argmax hits."""
    grads_sum = zero_grads(net)
    loss_sum = 0.0
    hits = 0
    for idx in batch_idx:
        seq = dataset.sequences[idx]
        with _naming(seq, idx):
            trace = forward_sequence(net, seq.frames, label=seq.label, training=True, rng=rng)
            loss_sum += total_loss(net, trace, seq.label, cfg.lambda_aux, cfg.l2)
            g = backward_sequence(net, trace, seq.label, cfg.lambda_aux, cfg.l2)
        hits += int(np.argmax(trace.final_probs)) == seq.label
        for name in grads_sum:
            grads_sum[name] += g[name]
    n = len(batch_idx)
    for name in grads_sum:
        grads_sum[name] /= n
    return grads_sum, loss_sum / n, hits / n


def train(
    dataset: Dataset,
    cfg: TrainConfig,
    net: Optional[StackedNetwork] = None,
    log: Optional[Callable[[str], None]] = None,
) -> tuple:
    """Epochs of shuffled mini-batches; each step applies Adam at the
    scheduled rate to the mean per-sequence gradient. Returns the model and
    training metrics (final training-set accuracy plus the loss curve).
    The whole run is a deterministic function of (dataset, cfg, net seed).
    """
    if len(dataset) == 0:
        raise ValueError("cannot train on an empty dataset")
    rng = np.random.default_rng(cfg.seed)
    if net is None:
        net = cfg.build(rng, dataset.dim, dataset.n_classes)
    if dataset.dim != net.input_dim:
        raise ShapeError(
            f"dataset feature dim {dataset.dim} != network input dim {net.input_dim}"
        )
    params = net.param_blocks()
    state = AdamState.for_network(net)
    curve = []
    step = 0
    n = len(dataset)
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for lo in range(0, n, cfg.batch_size):
            batch = order[lo:lo + cfg.batch_size]
            grads, loss, acc = _batch_gradients(net, dataset, batch, cfg, rng)
            if not np.isfinite(loss):
                bad = next(
                    (nm for nm, g in grads.items() if not np.all(np.isfinite(g))),
                    "loss only",
                )
                raise RuntimeError(
                    f"training aborted at step {step}: non-finite loss "
                    f"(first bad parameter block: {bad})"
                )
            lr = lr_schedule(step, cfg)
            adam_step(params, grads, state, lr)
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
    folds = np.empty(n, dtype=np.int64)
    counts = np.bincount(labels, minlength=dataset.n_classes)
    present = [c for c in range(dataset.n_classes) if counts[c] > 0]
    if min(counts[c] for c in present) < k:
        warnings.warn(
            f"some class has fewer than {k} samples; using an unstratified split",
            stacklevel=2,
        )
        order = rng.permutation(n)
        for pos, idx in enumerate(order):
            folds[idx] = pos % k
        return folds
    for c in present:
        members = np.flatnonzero(labels == c)
        order = rng.permutation(members)
        for pos, idx in enumerate(order):
            folds[idx] = pos % k
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


def _block_of(net: StackedNetwork, flat_index: int) -> str:
    pos = 0
    for name, arr in net.param_blocks():
        if flat_index < pos + arr.size:
            return name
        pos += arr.size
    return "?"


def _forced_cases(seeds, layer_units, input_dim, n_classes, lengths, tau,
                  hist_placement, peephole) -> Iterable[tuple]:
    """grad_check's cases: per seed, for every (alpha policy, window mode,
    branch), a tiny random net, sequence and label with head biases forcing
    the intended branch, and the net's training trace on them. Yields
    (seed, T, policy, mode, branch, net, X, label, trace)."""
    case_id = 0
    for seed in range(seeds):
        for policy in ALPHA_POLICIES:
            for mode in WINDOW_MODES:
                for branch in ("blend", "trunc"):
                    T = int(lengths[(case_id + seed) % len(lengths)])
                    case_id += 1
                    rng = np.random.default_rng([seed, case_id])
                    net = build_network(
                        rng,
                        input_dim,
                        layer_units,
                        n_classes,
                        dropout_p=0.0,
                        hist_cfg=HistoricalConfig(
                            tau=tau, window_mode=mode, alpha_policy=policy
                        ),
                        hist_placement=hist_placement,
                        peephole=peephole,
                        use_historical=True,
                    )
                    X = rng.standard_normal((T, input_dim))
                    label = int(rng.integers(n_classes))
                    # The literal alpha amplifies the state in the blend
                    # branch, so its forcing stays mild to keep logits in
                    # floating-point range over T steps.
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
    theta = net.flatten_params()
    P = theta.size
    probes = np.tile(theta, (2 * P, 1))
    i = np.arange(P)
    probes[i, i] += h
    probes[P + i, i] -= h
    stack = net.with_params(probes)
    replayed = forward_sequence(stack, X, label=label, training=True, replay_from=trace)
    f = total_loss(stack, replayed, label, lambda_aux, l2)
    return (f[:P] - f[P:]) / (2.0 * h)


def grad_check(
    seeds: int = 20,
    layer_units: Sequence[int] = (3, 3),
    input_dim: int = 2,
    n_classes: int = 3,
    lengths: Sequence[int] = (1, 3, 6),
    tau: int = 2,
    lambda_aux: float = 0.5,
    l2: float = 0.004,
    h: float = 1e-5,
    hist_placement: str = "top",
    peephole: str = "diag",
    tamper: Optional[dict] = None,
) -> GradCheckReport:
    """Finite-difference verification of the analytic gradients.

    Per seed, every (alpha policy, window mode, branch) combination runs on
    a tiny random net and sequence, with head biases forcing the intended
    branch; the compared function is the replayed forward pass (branch
    schedule pinned), matching the frozen-coefficient gradient convention.
    Relative error per coordinate is |a - f| / max(|a|, |f|, 1e-4), so
    agreement below the finite-difference noise floor counts as exact.

    The central differences of a case run as one stacked replay. Its worst
    coordinate is recomputed with finite_diff through one replay per call,
    and a difference beyond 1e-9 * max(1, |fd|) raises RuntimeError.

    tamper maps block-name suffixes to multipliers applied to the analytic
    gradient, a self-test hook proving the harness flags wrong gradients.
    """
    if seeds < 1:
        raise ValueError(f"seeds must be >= 1, got {seeds}")
    t_start = time.perf_counter()
    cases = []
    realized_cover = set()
    for seed, T, policy, mode, branch, net, X, label, trace0 in _forced_cases(
        seeds, layer_units, input_dim, n_classes, lengths, tau, hist_placement, peephole
    ):
        realized = tuple(
            sorted({r.branch for r in trace0.hists[-1].records if r.branch != "init"})
        )
        for b in realized:
            realized_cover.add((policy, mode, b))
        grads = backward_sequence(net, trace0, label, lambda_aux, l2)
        if tamper:
            for suffix, factor in tamper.items():
                for name in grads:
                    if name.endswith(suffix):
                        grads[name] = grads[name] * factor
        analytic = np.concatenate([grads[name].ravel() for name, _ in net.param_blocks()])
        fd = _central_differences(net, X, label, trace0, lambda_aux, l2, h)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-4)
        rel = np.abs(analytic - fd) / denom
        worst = int(np.argmax(rel))

        theta0 = net.flatten_params()

        def loss_at(theta):
            net.set_flat(theta)
            tr = forward_sequence(net, X, label=label, training=True, replay_from=trace0)
            return total_loss(net, tr, label, lambda_aux, l2)

        def along_worst(v):
            theta = theta0.copy()
            theta[worst] = v[0]
            return loss_at(theta)

        scalar = finite_diff(along_worst, theta0[worst:worst + 1], h)[0]
        net.set_flat(theta0)
        if abs(scalar - fd[worst]) > 1e-9 * max(1.0, abs(fd[worst])):
            raise RuntimeError(
                f"grad_check case seed={seed} T={T} {policy}/{mode}/{branch}: the stacked "
                f"central difference {fd[worst]!r} at {_block_of(net, worst)} differs from "
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
                worst_block=_block_of(net, worst),
            )
        )
    missing = [
        (policy, mode, branch)
        for policy in ALPHA_POLICIES
        for mode in WINDOW_MODES
        for branch in ("blend", "trunc")
        if (policy, mode, branch) not in realized_cover
    ]
    worst_case = max(cases, key=lambda c: c.max_rel_err)
    return GradCheckReport(
        max_rel_err=worst_case.max_rel_err,
        worst_block=worst_case.worst_block,
        cases=cases,
        elapsed_s=time.perf_counter() - t_start,
        missing_coverage=missing,
    )
