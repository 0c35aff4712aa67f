"""Stateless recurrent step functions: the peephole LSTM and its heads.

Parameters are plain float64 numpy arrays held in dataclasses. Step
functions are pure: they never mutate their inputs, so one parameter set
can serve many concurrent sequence evaluations. A head and the arrays that
matvec and peep_apply take may carry one leading axis K, a stack of K
parameter sets; shapes are then read from the trailing axes, and set k
applies to row k of a stacked state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

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
    """Peephole LSTM gate parameters of one layer, gate by gate: the form
    lstm_step reads (the network keeps its layers fused, as GateBlocks).

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
        if self.U_i.ndim != 2:
            raise ShapeError(f"U_i has shape {self.U_i.shape}, expected (units, input_dim)")
        u, d = self.U_i.shape
        pshape = self.P_i.shape
        if pshape not in ((u,), (u, u)):
            raise ShapeError(f"peephole shape {pshape} is neither diag {(u,)} nor full {(u, u)}")
        for name, shape in lstm_shapes(d, u, self.peephole):
            if getattr(self, name).shape != shape:
                raise ShapeError(f"{name} has shape {getattr(self, name).shape}, expected {shape}")

    @property
    def units(self) -> int:
        return self.U_i.shape[0]

    @property
    def input_dim(self) -> int:
        return self.U_i.shape[1]

    @property
    def peephole(self) -> str:
        return "diag" if self.P_i.ndim == 1 else "full"


LSTM_FIELDS = tuple(f.name for f in fields(LstmParams))


def lstm_shapes(input_dim: int, units: int, peephole: str) -> list:
    """(field, shape) of each of one layer's blocks, in LSTM_FIELDS order:
    U_* (units, input_dim), W_* (units, units), b_* (units,) and P_* (units,)
    in "diag" mode or (units, units) in "full" mode."""
    if peephole not in PEEPHOLE_MODES:
        raise ValueError(f"unknown peephole mode {peephole!r}")
    shapes = {"U": (units, input_dim), "W": (units, units), "b": (units,),
              "P": (units,) if peephole == "diag" else (units, units)}
    return [(name, shapes[name[0]]) for name in LSTM_FIELDS]


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
    """M v for one matrix (U, U) and vector (U,), M[k] v[k] for each k of a
    stack (K, U, U) and (K, U), or M v[b] for each row of a batch (B, U);
    any way one BLAS matrix-vector product per row, with the bits of M v."""
    return M @ v if v.ndim == 1 else (M @ v[..., None])[..., 0]


def peep_apply(P: np.ndarray, c: np.ndarray, diag: bool) -> np.ndarray:
    """Cell-state peephole contribution: elementwise for diag, matvec for full.
    Shapes cannot tell a diagonal P over a batch from a full P, so diag says."""
    return P * c if diag else matvec(P, c)


def head_predict(head: HeadParams, S: np.ndarray) -> np.ndarray:
    """softmax(c + V s) for one state s (U,), or for each row of a stack (n, U)
    or of a batch of them (B, n, U), each (n, U) with the bits of its own call.

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
    diag = p.peephole == "diag"
    i = sigmoid(p.U_i @ x + p.W_i @ s_prev.h + peep_apply(p.P_i, s_prev.c, diag) + p.b_i)
    f = sigmoid(p.U_f @ x + p.W_f @ s_prev.h + peep_apply(p.P_f, s_prev.c, diag) + p.b_f)
    g = np.tanh(p.U_c @ x + p.W_c @ s_prev.h + p.b_c)
    c = f * s_prev.c + i * g
    o = sigmoid(p.U_o @ x + p.W_o @ s_prev.h + peep_apply(p.P_o, c, diag) + p.b_o)
    h = o * np.tanh(c)
    return LstmState(h=h, c=c)


FORGET_BIAS = 1.0  # keeps the memory path open early in training


def init_block(rng: np.random.Generator, leaf: str, shape: tuple) -> np.ndarray:
    """Seeded init of one parameter block, chosen by its field name:
    uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) for U_*, W_*, P_* and V, with
    fan_in the last axis; FORGET_BIAS for b_f; zeros for the other biases."""
    if leaf[0] in "UWPV":
        k = 1.0 / math.sqrt(shape[-1])
        return rng.uniform(-k, k, size=shape)
    return np.full(shape, FORGET_BIAS) if leaf == "b_f" else np.zeros(shape)


def init_lstm_params(
    rng: np.random.Generator,
    input_dim: int,
    units: int,
    peephole: str = "diag",
) -> LstmParams:
    """init_block of every field, drawn in LSTM_FIELDS order."""
    return LstmParams(**{name: init_block(rng, name, shape)
                         for name, shape in lstm_shapes(input_dim, units, peephole)})


def init_head(rng: np.random.Generator, hidden: int, classes: int) -> HeadParams:
    return HeadParams(V=init_block(rng, "V", (classes, hidden)), c=init_block(rng, "c", (classes,)))
