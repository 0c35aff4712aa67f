"""Stateless recurrent step functions: the peephole LSTM and its heads.

Parameters are plain float64 numpy arrays held in dataclasses. Step
functions are pure: they never mutate their inputs, so one parameter set
can serve many concurrent sequence evaluations. Every block may carry one
leading axis K, a stack of K parameter sets; shapes are then read from the
trailing axes, and the functions here apply set k to row k of a stacked
state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import ShapeError, sigmoid, softmax

PEEPHOLE_MODES = ("diag", "full")


@dataclass
class HeadParams:
    """Linear-softmax classification head: probs = softmax(c + V h)."""

    V: np.ndarray  # hidden -> classes
    c: np.ndarray  # class bias

    def __post_init__(self):
        if self.V.ndim < 2 or self.V.shape[:-1] != self.c.shape:
            raise ShapeError(f"head shapes disagree: V={self.V.shape} c={self.c.shape}")

    @property
    def n_classes(self) -> int:
        return self.c.shape[-1]


@dataclass
class LstmParams:
    """Peephole LSTM gate parameters.

    Peepholes P_i/P_f/P_o are 1-D vectors in "diag" mode (elementwise link
    from the cell state into the gate pre-activations) or 2-D matrices in
    "full" mode.
    """

    U_i: np.ndarray
    U_f: np.ndarray
    U_c: np.ndarray
    U_o: np.ndarray
    W_i: np.ndarray
    W_f: np.ndarray
    W_c: np.ndarray
    W_o: np.ndarray
    P_i: np.ndarray
    P_f: np.ndarray
    P_o: np.ndarray
    b_i: np.ndarray
    b_f: np.ndarray
    b_c: np.ndarray
    b_o: np.ndarray

    def __post_init__(self):
        *lead, u, d = self.U_i.shape
        lead = tuple(lead)
        pshape = self.P_i.shape
        if pshape not in (lead + (u,), lead + (u, u)):
            raise ShapeError(
                f"peephole shape {pshape} is neither diag {lead + (u,)} nor full {lead + (u, u)}"
            )
        for names, shape in (
            (("U_i", "U_f", "U_c", "U_o"), lead + (u, d)),
            (("W_i", "W_f", "W_c", "W_o"), lead + (u, u)),
            (("P_i", "P_f", "P_o"), pshape),
            (("b_i", "b_f", "b_c", "b_o"), lead + (u,)),
        ):
            for name in names:
                if getattr(self, name).shape != shape:
                    raise ShapeError(
                        f"{name} has shape {getattr(self, name).shape}, expected {shape}"
                    )

    @property
    def units(self) -> int:
        return self.U_i.shape[-2]

    @property
    def input_dim(self) -> int:
        return self.U_i.shape[-1]

    @property
    def peephole(self) -> str:
        return "diag" if self.P_i.ndim < self.U_i.ndim else "full"


@dataclass
class LstmState:
    """Per-timestep (output response, memory cell) pair."""

    h: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        if self.h.shape != self.c.shape:
            raise ShapeError(f"state shapes disagree: h={self.h.shape} c={self.c.shape}")

    @classmethod
    def zero(cls, units: int) -> "LstmState":
        return cls(h=np.zeros(units), c=np.zeros(units))


def matvec(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M v for one matrix (U, U) and vector (U,), or M[k] v[k] for each k of
    a stack (K, U, U) and (K, U); either way one BLAS matrix-vector product
    per parameter set."""
    return M @ v if v.ndim == 1 else (M @ v[..., None])[..., 0]


def peep_apply(P: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Cell-state peephole contribution: elementwise for diag, matvec for full."""
    return P * c if P.ndim == c.ndim else matvec(P, c)


def head_predict(head: HeadParams, S: np.ndarray) -> np.ndarray:
    """softmax(c + V s) for one state s (U,), or for each row of a stack (n, U).

    A stacked head (V (K, C, U), c (K, C)) scores S (K, U), one state per
    parameter set, or S (K, n, U), a stack of states per parameter set.
    """
    if head.V.ndim == 2:
        return softmax(S @ head.V.T + head.c)
    VT = np.swapaxes(head.V, -1, -2)
    if S.ndim == 2:
        return softmax((S[:, None, :] @ VT)[:, 0, :] + head.c)
    return softmax(S @ VT + head.c[:, None, :])


def lstm_step(p: LstmParams, s_prev: LstmState, x: np.ndarray) -> LstmState:
    """One peephole LSTM transition.

    The input and forget gates peek at the previous cell state; the output
    gate peeks at the freshly computed one. The candidate carries no
    peephole.
    """
    if x.shape != (p.input_dim,):
        raise ShapeError(f"input has shape {x.shape}, cell expects {(p.input_dim,)}")
    if s_prev.h.shape != (p.units,):
        raise ShapeError(f"state has shape {s_prev.h.shape}, cell expects {(p.units,)}")
    i = sigmoid(p.U_i @ x + p.W_i @ s_prev.h + peep_apply(p.P_i, s_prev.c) + p.b_i)
    f = sigmoid(p.U_f @ x + p.W_f @ s_prev.h + peep_apply(p.P_f, s_prev.c) + p.b_f)
    g = np.tanh(p.U_c @ x + p.W_c @ s_prev.h + p.b_c)
    c = f * s_prev.c + i * g
    o = sigmoid(p.U_o @ x + p.W_o @ s_prev.h + peep_apply(p.P_o, c) + p.b_o)
    h = o * np.tanh(c)
    return LstmState(h=h, c=c)


def _uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    k = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-k, k, size=shape)


def init_lstm_params(
    rng: np.random.Generator,
    input_dim: int,
    units: int,
    peephole: str = "diag",
    forget_bias: float = 1.0,
) -> LstmParams:
    """Seeded uniform(-1/sqrt(fan_in)) init; forget bias starts at 1.0 to keep
    the memory path open early in training."""
    if peephole not in PEEPHOLE_MODES:
        raise ValueError(f"unknown peephole mode {peephole!r}")
    pshape = (units,) if peephole == "diag" else (units, units)
    return LstmParams(
        U_i=_uniform(rng, (units, input_dim), input_dim),
        U_f=_uniform(rng, (units, input_dim), input_dim),
        U_c=_uniform(rng, (units, input_dim), input_dim),
        U_o=_uniform(rng, (units, input_dim), input_dim),
        W_i=_uniform(rng, (units, units), units),
        W_f=_uniform(rng, (units, units), units),
        W_c=_uniform(rng, (units, units), units),
        W_o=_uniform(rng, (units, units), units),
        P_i=_uniform(rng, pshape, units),
        P_f=_uniform(rng, pshape, units),
        P_o=_uniform(rng, pshape, units),
        b_i=np.zeros(units),
        b_f=np.full(units, forget_bias),
        b_c=np.zeros(units),
        b_o=np.zeros(units),
    )


def init_head(rng: np.random.Generator, hidden: int, classes: int) -> HeadParams:
    return HeadParams(V=_uniform(rng, (classes, hidden), hidden), c=np.zeros(classes))
