"""The historical state layer: loss-weighted blending and error truncation.

A running "historical" summary vector l_t rides on top of the per-step
response states h_1..h_t. At each step the layer compares the
classification loss of the incoming response (eps_h) against the loss of
the current historical state (eps_l):

* response no better (eps_h >= eps_l): blend, l_t = a*h_t + (1-a)*l_{t-1},
  with the weight a derived from the loss ratio;
* response strictly better (eps_h < eps_l): the accumulated state is
  considered stale, so l_t is re-initialized from a truncation window of
  recent responses.

The layer is a value type: every update returns a fresh trace, so
independent sequence evaluations never share mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .cells import HeadParams, head_predict
from .numerics import EPS_LOSS_FLOOR, ShapeError, check_fields, cross_entropy

ALPHA_POLICIES = ("literal", "clamped", "inverse_loss")
WINDOW_MODES = ("sliding", "literal")
INFERENCE_POLICIES = ("pseudo_label", "fixed_blend")
TAU_MAX = 2**32 - 1  # a checkpoint stores tau as an unsigned 32-bit field

# Scores a candidate historical state against the episode's label.
LossFn = Callable[[np.ndarray], float]


@dataclass(frozen=True)
class HistoricalConfig:
    tau: int = 3
    window_mode: str = "sliding"
    alpha_policy: str = "clamped"
    inference_policy: str = "pseudo_label"

    def __post_init__(self):
        check_fields(self, {"tau": 1})
        if self.tau > TAU_MAX:
            raise ValueError(f"tau must be <= {TAU_MAX}, got {self.tau}")
        if self.window_mode not in WINDOW_MODES:
            raise ValueError(f"unknown window_mode {self.window_mode!r}")
        if self.alpha_policy not in ALPHA_POLICIES:
            raise ValueError(f"unknown alpha_policy {self.alpha_policy!r}")
        if self.inference_policy not in INFERENCE_POLICIES:
            raise ValueError(f"unknown inference_policy {self.inference_policy!r}")


@dataclass(frozen=True)
class StepRecord:
    """What happened at one update: branch taken and the frozen coefficients.

    The coefficients (alpha, or the truncation_weights of the window) are
    treated as constants by backpropagation, so recording them replays the
    step: a truncation state is the mean of the last len(weights) responses,
    and init records l_1 = h_1 as the window of one.
    """

    branch: str  # "init" | "blend" | "trunc"
    eps_h: float
    eps_l_prev: float
    eps_l_new: float
    alpha: Optional[float] = None
    weights: Optional[np.ndarray] = None


@dataclass
class HistoricalTrace:
    l: np.ndarray
    h_buffer: list  # responses h_1..h_t
    eps_l: float
    records: list = field(default_factory=list)  # one StepRecord per step
    l_history: list = field(default_factory=list)  # l_1..l_t

    @property
    def t(self) -> int:
        return len(self.h_buffer)


BRANCHES = ("init", "blend", "trunc")  # a Schedule's branch codes


@dataclass(frozen=True)
class Schedule:
    """A batch's recursion as (B, T) arrays: branch codes (into BRANCHES), alpha (0 off a
    blend), window length n (0 on a blend), eps_h, eps_l_prev, eps_l_new; states L (B, T, U).
    Row schedule[b] reads as a HistoricalTrace, whose records it builds when read."""

    branch: np.ndarray
    alpha: np.ndarray
    n: np.ndarray
    eps_h: np.ndarray
    eps_l_prev: np.ndarray
    eps_l_new: np.ndarray
    L: np.ndarray

    def __getitem__(self, b) -> "Schedule":
        return Schedule(*(getattr(self, f.name)[b] for f in fields(self)))

    l = property(lambda self: self.L[..., -1, :])
    eps_l = property(lambda self: self.eps_l_new[..., -1])
    l_history = property(lambda self: list(np.moveaxis(self.L, -2, 0)))  # l_t (..., U) by t

    @property
    def records(self) -> list:
        steps = zip(self.branch.tolist(), self.eps_h.tolist(), self.eps_l_prev.tolist(),
                    self.eps_l_new.tolist(), self.alpha.tolist(), self.n.tolist())
        return [StepRecord(BRANCHES[code], eps_h, prev, new, alpha if code == 1 else None,
                           _uniform(n) if n else None)
                for code, eps_h, prev, new, alpha, n in steps]


def compute_alpha(eps_l_prev, eps_h, policy: str):
    """Blend weight put on the incoming response.

    literal:      0.5 * ln(eps_l_prev / eps_h), which is <= 0 whenever the
                  historical state is the better scorer;
    clamped:      the literal value clipped into [0, 1];
    inverse_loss: eps_l_prev / (eps_l_prev + eps_h), a bounded monotone
                  variant that favors whichever state has the lower loss.

    Both losses must be finite and above 0 (cross_entropy floors them at
    EPS_LOSS_FLOOR); 0, inf or nan raises ValueError naming both. Arrays
    give each pair's alpha, with the bits of one call per pair.
    """
    ok = (0 < eps_l_prev) & (eps_l_prev < math.inf) & (0 < eps_h) & (eps_h < math.inf)
    if not (ok if isinstance(ok, bool) else ok.all()):  # a bool only for two floats
        raise ValueError(
            f"losses must be finite and >= {EPS_LOSS_FLOOR} (floored), got "
            f"eps_l_prev={eps_l_prev} eps_h={eps_h}"
        )
    if policy == "inverse_loss":
        return eps_l_prev / (eps_l_prev + eps_h)
    alpha = 0.5 * np.log(eps_l_prev / eps_h)
    if policy == "clamped":
        alpha = np.minimum(np.maximum(alpha, 0.0), 1.0)
    elif policy != "literal":
        raise ValueError(f"unknown alpha policy {policy!r}")
    return alpha


def truncation_weights(t: int, tau: int, mode: str) -> np.ndarray:
    """Weights of the last n responses h_{t-n+1}..h_t, which re-initialize
    the historical state at step t; earlier responses have weight zero and
    are neither stored nor read.

    literal: n = t - tau. sliding: n = min(tau, t), which a literal window
    also takes while it is degenerate (t <= tau). Both modes return n
    uniform weights 1/n, one read-only array per n that every caller shares.
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    if tau < 1:
        raise ValueError(f"tau must be >= 1, got {tau}")
    if mode not in WINDOW_MODES:
        raise ValueError(f"unknown window mode {mode!r}")
    return _uniform(t - tau if mode == "literal" and t > tau else min(tau, t))


@lru_cache(maxsize=16)  # sliding windows take n <= tau; a literal one's n grows with t
def _uniform(n: int) -> np.ndarray:
    w = np.full(n, 1.0 / n)
    w.flags.writeable = False
    return w


def window_mean(window: np.ndarray) -> np.ndarray:
    """The mean of a window (n, ...) of responses: (1/n) * h added from +0 in
    ascending order, as np.add.accumulate does, so it has the bits of the
    full-buffer sum whose earlier terms are 0 * h."""
    terms = (1.0 / len(window)) * window
    terms[0] += 0.0
    return np.add.accumulate(terms)[-1]


def truncation_states(H: np.ndarray, tau: int) -> np.ndarray:
    """Every step's sliding-window truncation state from the responses H
    (T, U), or a stack (K, T, U): row t-1 has the bits of window_mean over the
    last min(tau, t) responses, since one pass per window offset adds w * h
    to every row whose window is longer, from +0 in ascending order."""
    T = H.shape[-2]
    m = min(tau, T)
    S = np.zeros(H.shape)
    w = 1.0 / np.arange(1.0, m + 1.0)[:, None]
    for j in range(m):
        S[..., j:m, :] += w[j:] * H[..., j, None, :]
    if T > tau:
        for j in range(tau):
            S[..., tau:, :] += (1.0 / tau) * H[..., j + 1:T - tau + j + 1, :]
    return S


def step_loss(head: HeadParams, state: np.ndarray, label: int) -> float:
    """Floored cross-entropy of the head's prediction from a state vector."""
    return cross_entropy(head_predict(head, state), label)


def initial_trace(h1: np.ndarray, loss_fn: LossFn) -> HistoricalTrace:
    """First step: the historical state is the first response, l_1 = h_1,
    recorded as the one-response window it is."""
    eps_l = loss_fn(h1)
    rec = StepRecord(branch="init", eps_h=eps_l, eps_l_prev=eps_l, eps_l_new=eps_l,
                     weights=_uniform(1))
    return HistoricalTrace(
        l=h1, h_buffer=[h1], eps_l=eps_l, records=[rec], l_history=[h1]
    )


def _next_state(trace: HistoricalTrace, h_t: np.ndarray, alpha: Optional[float],
                n: Optional[int]) -> np.ndarray:
    """l_t: h_t blended into l_{t-1} with weight alpha, or (alpha None) the
    window_mean of the last n responses."""
    if alpha is not None:
        return alpha * h_t + (1.0 - alpha) * trace.l
    return window_mean(np.array(trace.h_buffer[len(trace.h_buffer) + 1 - n:] + [h_t]))


def _step(trace: HistoricalTrace, h_t: np.ndarray, l_new: np.ndarray,
          rec: StepRecord) -> HistoricalTrace:
    """The bookkeeping shared by live and replayed updates: append h_t, l_t, rec."""
    return HistoricalTrace(l=l_new, h_buffer=trace.h_buffer + [h_t], eps_l=rec.eps_l_new,
                           records=trace.records + [rec], l_history=trace.l_history + [l_new])


def historical_update(
    trace: HistoricalTrace,
    h_t: np.ndarray,
    eps_h: float,
    cfg: HistoricalConfig,
    loss_fn: LossFn,
    trunc: Optional[tuple] = None,
) -> HistoricalTrace:
    """Advance the historical state by one response.

    Appends h_t to the buffer, takes the blend or truncation branch on the
    loss comparison, re-scores the new state through loss_fn, and returns a
    new trace. The truncation branch takes its (state, loss) from trunc if
    given. An eps_h that is not a finite number > 0, or a new state that is
    not finite (the literal alpha can amplify l without bound), raises
    ValueError naming the step.
    """
    if h_t.shape != trace.l.shape:
        raise ShapeError(f"response {h_t.shape} does not match state {trace.l.shape}")
    t = trace.t + 1
    if not 0 < eps_h < math.inf:
        raise ValueError(f"eps_h must be finite and positive (floored), got {eps_h} "
                         f"at step t={t}")
    if eps_h >= trace.eps_l:
        branch, w, trunc = "blend", None, None
        alpha = compute_alpha(trace.eps_l, eps_h, cfg.alpha_policy)
        l_new = _next_state(trace, h_t, alpha, None)
    else:
        branch, alpha = "trunc", None
        w = truncation_weights(t, cfg.tau, cfg.window_mode)
        # a given state is copied, so the array it is a row of can be freed
        l_new = _next_state(trace, h_t, None, len(w)) if trunc is None else trunc[0].copy()
    if not np.isfinite(l_new).all():
        raise ValueError(f"historical state is not finite at step t={t} "
                         f"({branch} branch, alpha={alpha})")
    rec = StepRecord(
        branch=branch,
        eps_h=eps_h,
        eps_l_prev=trace.eps_l,
        eps_l_new=loss_fn(l_new) if trunc is None else trunc[1],
        alpha=alpha,
        weights=w,
    )
    return _step(trace, h_t, l_new, rec)


def replay_update(trace: HistoricalTrace, h_t: np.ndarray, record: StepRecord) -> HistoricalTrace:
    """Advance the state reusing a recorded branch and its frozen coefficients
    (a truncation step re-sums its recorded window).

    Used to evaluate the loss with the branch schedule pinned, which is the
    function the stop-gradient backward pass actually differentiates.
    """
    if record.branch not in ("blend", "trunc"):
        raise ValueError(f"cannot replay branch {record.branch!r} mid-sequence")
    n = None if record.weights is None else len(record.weights)
    return _step(trace, h_t, _next_state(trace, h_t, record.alpha, n), record)


def inference_losses(step_probs: np.ndarray, policy: str) -> tuple:
    """Label-free stand-ins at evaluation time: per-step targets y_t and
    response losses eps_h, read off the per-step probabilities (T, C), or a
    batch of them (B, T, C), as arrays over the leading axes.

    pseudo_label takes y_t = argmax(step_probs[t]); fixed_blend has no
    targets (None) and unit losses, so the blend branch always fires.
    """
    if policy == "fixed_blend":
        return None, np.ones(step_probs.shape[:-1])
    if policy != "pseudo_label":
        raise ValueError(f"unknown inference policy {policy!r}")
    targets = np.argmax(step_probs, axis=-1)
    return targets, cross_entropy(step_probs, targets)
