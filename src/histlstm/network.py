"""Stacked peephole-LSTM network with a historical state layer on top.

Forward passes record everything needed for the hand-derived
backpropagation-through-time pass. The gradient convention: the blend
weight alpha, the truncation weights, and the branch decisions are frozen
constants, so gradients flow only through the linear combinations of
state vectors, never through the loss ratios that picked them.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .cells import (
    HeadParams,
    PEEPHOLE_MODES,
    head_predict,
    init_block,
    lstm_shapes,
    matvec,
    peep_apply,
)
from .dataio import BinaryReader, write_binary
from .historical import (
    ALPHA_POLICIES,
    INFERENCE_POLICIES,
    WINDOW_MODES,
    HistoricalConfig,
    HistoricalTrace,
    compute_alpha,
    historical_update,
    inference_losses,
    initial_trace,
    replay_update,
    step_loss,
    truncation_states,
    truncation_weights,
    window_mean,
)
from .numerics import EPS_LOSS_FLOOR, ShapeError, cross_entropy, sigmoid

HIST_PLACEMENTS = ("top", "all")

CHECKPOINT_MAGIC = b"HLSTM1"
CHECKPOINT_VERSION = 1
# The checkpoint's six tag bytes in file order: what an error calls the
# byte, the values it indexes, and the attribute of the network that holds
# the value.
CHECKPOINT_TAGS = (
    ("peephole mode tag", PEEPHOLE_MODES, "peephole"),
    ("placement tag", HIST_PLACEMENTS, "hist_placement"),
    ("use_historical flag", (False, True), "use_historical"),
    ("alpha policy tag", ALPHA_POLICIES, "hist_cfg.alpha_policy"),
    ("window mode tag", WINDOW_MODES, "hist_cfg.window_mode"),
    ("inference policy tag", INFERENCE_POLICIES, "hist_cfg.inference_policy"),
)


def _check_units(layer_units: Sequence[int]) -> None:
    if not layer_units or min(layer_units) < 1:
        raise ValueError(f"layer_units must hold >= 1 layer of >= 1 unit, got {list(layer_units)}")


def check_options(layer_units: Sequence[int], dropout_p: float, hist_placement: str,
                  peephole: str) -> None:
    """The checks of the network options TrainConfig and StackedNetwork
    share, each a ValueError naming its option."""
    _check_units(layer_units)
    if not 0.0 <= dropout_p < 1.0:
        raise ValueError(f"dropout_p must be in [0, 1), got {dropout_p}")
    if hist_placement not in HIST_PLACEMENTS:
        raise ValueError(f"unknown hist_placement {hist_placement!r}")
    if peephole not in PEEPHOLE_MODES:
        raise ValueError(f"unknown peephole mode {peephole!r}")


def param_layout(input_dim: int, layer_units: Sequence[int], n_classes: int,
                 hist_placement: str, peephole: str) -> list:
    """Every parameter block as (name, shape), in the one canonical order of
    the parameter vector, its gradient, Adam's moments and the checkpoint:
    each layer's lstm_shapes (LstmParams' field order), then each head's V
    and c: aux heads ("all" placement), per-step, final. A size below 1 is a
    ValueError naming its field."""
    _check_units(layer_units)
    for name, size in (("input_dim", input_dim), ("n_classes", n_classes)):
        if size < 1:
            raise ValueError(f"{name} must be >= 1, got {size}")
    layout = []
    d = input_dim
    for k, u in enumerate(layer_units):
        layout += [(f"layer{k}.{f}", shape) for f, shape in lstm_shapes(d, u, peephole)]
        d = u
    heads = [(f"aux{k}", u) for k, u in enumerate(layer_units[:-1]) if hist_placement == "all"]
    for name, u in heads + [("per_step", d), ("final", d)]:
        layout += [(name + ".V", (n_classes, u)), (name + ".c", (n_classes,))]
    return layout


def param_count(input_dim: int, layer_units: Sequence[int], n_classes: int,
                hist_placement: str, peephole: str) -> int:
    """Length of the parameter vector of a network of this shape."""
    layout = param_layout(input_dim, layer_units, n_classes, hist_placement, peephole)
    return sum(math.prod(shape) for _, shape in layout)


@lru_cache(maxsize=64)
def _cuts(input_dim: int, layer_units: tuple, n_classes: int, hist_placement: str,
          peephole: str) -> tuple:
    """(name, start, stop, shape, under L2) of every param_layout block in the
    parameter vector, worked out once per network shape."""
    cuts, pos = [], 0
    for name, shape in param_layout(input_dim, layer_units, n_classes, hist_placement, peephole):
        cuts.append((name, pos, pos + math.prod(shape), shape, is_weight_matrix(name)))
        pos += math.prod(shape)
    return tuple(cuts)


class GateBlocks(NamedTuple):
    """One layer's LSTM blocks with the gates fused: U (4U, D), W (4U, U),
    P (3, U) or (3, U, U) and b (4U,), rows in i, f, c, o order (P: i, f,
    o). A stack gives each a leading K."""

    U: np.ndarray
    W: np.ndarray
    P: np.ndarray
    b: np.ndarray


@lru_cache(maxsize=64)
def _gate_cuts(*shape_key) -> tuple:
    """Per layer, (start, stop, fused shape) of its U, W, P and b groups:
    each group of lstm_shapes lies side by side in the parameter vector."""
    at = {name: (a, b, shape) for name, a, b, shape, _ in _cuts(*shape_key)}
    layers = []
    for k in range(len(shape_key[1])):
        group = []
        for first, last in (("U_i", "U_o"), ("W_i", "W_o"), ("P_i", "P_o"), ("b_i", "b_o")):
            start, _, shape = at[f"layer{k}.{first}"]
            fused = (3,) + shape if first == "P_i" else (4 * shape[0],) + shape[1:]
            group.append((start, at[f"layer{k}.{last}"][1], fused))
        layers.append(tuple(group))
    return tuple(layers)


@dataclass
class StackedNetwork:
    """One parameter vector theta, (P,) or a stack (K, P), cut by
    param_layout into the named blocks that layers and heads view."""

    theta: np.ndarray
    input_dim: int
    layer_units: list
    n_classes: int
    peephole: str
    dropout_p: float
    hist_cfg: HistoricalConfig
    hist_placement: str
    use_historical: bool
    # Views of theta, cut once at construction.
    gates: list = field(init=False, repr=False)  # of GateBlocks, input side first
    per_step_head: HeadParams = field(init=False, repr=False)  # scores top-layer responses
    final_head: HeadParams = field(init=False, repr=False)  # scores historical states
    # The scoring table: the layers with a historical unit, and per layer
    # (response head, state head, the response head's block prefix), or
    # None where no head scores that layer's steps.
    scored: tuple = field(init=False, repr=False)
    scorers: list = field(init=False, repr=False)
    # (start, stop) in theta of each block the L2 penalty covers, in layout order.
    l2_spans: list = field(init=False, repr=False)

    def __post_init__(self):
        check_options(self.layer_units, self.dropout_p, self.hist_placement, self.peephole)
        self.layer_units = list(self.layer_units)
        shape_key = (self.input_dim, tuple(self.layer_units), self.n_classes,
                     self.hist_placement, self.peephole)
        self._cuts = _cuts(*shape_key)
        self._gate_cuts = _gate_cuts(*shape_key)
        need = self._cuts[-1][2]
        self.theta = np.asarray(self.theta, dtype=np.float64)
        if self.theta.ndim not in (1, 2) or self.theta.shape[-1] != need:
            raise ShapeError(
                f"parameter stack has shape {self.theta.shape}, network needs ({need},) or (K, {need})"
            )
        views = self.views(self.theta)
        self._blocks = list(views.items())
        self.l2_spans = [(a, b) for _, a, b, _, l2 in self._cuts if l2]
        self.gates = self.gate_blocks(self.theta)
        names = [name[:-2] for name in views if name.endswith(".c")]  # aux..., per-step, final
        heads = [HeadParams(views[name + ".V"], views[name + ".c"]) for name in names]
        self.per_step_head, self.final_head = heads[-2:]
        top = len(self.layer_units) - 1
        hist_layers = range(top + 1) if self.hist_placement == "all" else [top]
        self.scored = tuple(hist_layers) if self.use_historical else ()
        # A lower layer is scored only where it has a historical unit, by aux
        # head k (heads[k]); the per-step head always scores the top layer.
        self.scorers = [(heads[k], heads[k], names[k]) if k in self.scored else None
                        for k in range(top)] + [(self.per_step_head, self.final_head, names[-2])]

    @property
    def stack_shape(self) -> tuple:
        """() for one parameter set, (K,) for a stack of K (see with_params)."""
        return self.theta.shape[:-1]

    def views(self, vec: np.ndarray) -> dict:
        """Block name -> view of vec (P,) or (K, P), shaped like the block
        (with the leading K of a stack), in layout order."""
        lead = vec.shape[:-1]
        return {name: vec[..., a:b].reshape(lead + shape) for name, a, b, shape, _ in self._cuts}

    def gate_blocks(self, vec: np.ndarray) -> list:
        """Per layer, the GateBlocks views of vec (P,) or (K, P)."""
        lead = vec.shape[:-1]
        return [GateBlocks(*(vec[..., a:b].reshape(lead + shape) for a, b, shape in cuts))
                for cuts in self._gate_cuts]

    def param_blocks(self) -> list:
        """All parameters as (name, view of theta) pairs in layout order."""
        return self._blocks

    def block_of(self, index: int) -> str:
        """Name of the parameter block holding theta[..., index]."""
        return next(name for name, _, stop, *_ in self._cuts if index < stop)

    def flatten_params(self) -> np.ndarray:
        return self.theta.copy()

    def clone(self) -> "StackedNetwork":
        return self.with_params(self.theta.copy())

    def with_params(self, thetas: np.ndarray) -> "StackedNetwork":
        """This network's shape and settings around thetas, without a copy:
        one vector (P,) in layout order, or a stack (K, P), which gives every
        block a leading axis K. A stacked network runs replayed forward
        passes and total_loss for all K parameter sets at once."""
        if self.stack_shape:
            raise ShapeError(f"network is already a stack of {self.stack_shape[0]} parameter sets")
        return replace(self, theta=thetas)


def is_weight_matrix(name: str) -> bool:
    """Blocks the L2 penalty covers: gate/input matrices and head matrices.

    Biases and peephole weights are exempt.
    """
    leaf = name.split(".", 1)[1]
    return leaf.startswith(("U_", "W_")) or leaf == "V"


def build_network(
    rng: np.random.Generator,
    input_dim: int,
    layer_units: Sequence[int],
    n_classes: int,
    dropout_p: float = 0.5,
    hist_cfg: Optional[HistoricalConfig] = None,
    hist_placement: str = "top",
    peephole: str = "diag",
    use_historical: bool = True,
) -> StackedNetwork:
    """Seeded construction: init_block draws the parameters block by block
    in layout order, so layers first, then heads."""
    layout = param_layout(input_dim, layer_units, n_classes, hist_placement, peephole)
    return StackedNetwork(
        theta=np.concatenate([init_block(rng, name.split(".")[1], shape).ravel()
                              for name, shape in layout]),
        input_dim=input_dim,
        layer_units=layer_units,
        n_classes=n_classes,
        peephole=peephole,
        dropout_p=dropout_p,
        hist_cfg=hist_cfg if hist_cfg is not None else HistoricalConfig(),
        hist_placement=hist_placement,
        use_historical=use_historical,
    )


@dataclass
class LayerTrace:
    """Everything one LSTM layer's forward pass must remember for BPTT."""

    x: np.ndarray  # (T, in_dim) inputs actually fed (post-dropout of the layer below)
    h: np.ndarray  # (T, U)
    # The rest only BPTT reads, so a stacked pass and an eval batch leave them None.
    c: Optional[np.ndarray]  # (T, U)
    tc: Optional[np.ndarray]  # tanh(c), cached
    gates: Optional[np.ndarray]  # (T, 4, U): the i, f, g, o activations


@dataclass
class ForwardTrace:
    """One pass's trace; a training batch's has a leading B on every array,
    and its hists[k] holds one HistoricalTrace per row (see row)."""

    layers: list  # of LayerTrace
    masks: list  # per layer boundary: (T, U) 0/1 mask, or None
    hists: list  # per layer: HistoricalTrace or None
    probs: list  # per layer: (T, C) per-step predictions where scorers has a head, else None
    final_src: np.ndarray  # the vector the final head saw (l_T or h_T)
    final_probs: np.ndarray  # (C,)

    @property
    def T(self) -> int:
        return self.layers[0].h.shape[-2]

    def row(self, b: int) -> "ForwardTrace":
        """Row b of a batch's trace as its own sequence's trace, of views."""
        def pick(a):
            return None if a is None else a[b]

        return ForwardTrace(
            layers=[LayerTrace(*map(pick, (lt.x, lt.h, lt.c, lt.tc, lt.gates)))
                    for lt in self.layers],
            masks=list(map(pick, self.masks)),
            hists=list(map(pick, self.hists)),
            probs=list(map(pick, self.probs)),
            final_src=self.final_src[b],
            final_probs=self.final_probs[b],
        )


def _layer_forward(p: GateBlocks, X: np.ndarray, keep: bool = False) -> LayerTrace:
    """One layer over X (T, D), each step's four gates as one (4, U) block. A
    batch X (B, T, D), or stacked parameters (leading K; X (T, D) or (K, T,
    D)), gives every array a leading B or K, each row with its own bits. keep
    also stores c, tanh c and the gates, which only BPTT reads."""
    if X.ndim == 3 and len(X) == 1 and p.U.ndim == 2:  # a batch of one runs as the sequence
        lt = _layer_forward(p, X[0], keep)
        return LayerTrace(X, *(a if a is None else a[None] for a in (lt.h, lt.c, lt.tc, lt.gates)))
    T = X.shape[-2]
    stacked = p.U.ndim == 3
    diag = p.P.ndim == p.U.ndim  # (…, 3, U) against (…, 3, U, U)
    # Input contributions of every gate and timestep in one call, read as
    # (T, …, 4, U); the recurrent part stays in the loop. It makes one
    # (T, D) @ (D, U) product per gate: at U = 1 a fused (D, 4U) product is
    # a GEMM where those are matrix-vector products, which sum in another order.
    UT = np.swapaxes(p.U.reshape(p.U.shape[:-2] + (4, -1, X.shape[-1])), -1, -2)
    ZX = X[..., None, :, :] @ UT
    ZX += p.b.reshape(p.b.shape[:-1] + (4, 1, -1))
    ZX = np.moveaxis(ZX, -2, 0)
    gate_shape = ZX.shape[1:]
    state_shape = gate_shape[:-2] + gate_shape[-1:]
    rows = state_shape[:-1]  # (B,) or (K,) for a batch or a stack
    # A kept batch's rows lie apart, each as its row's own pass has it; a
    # stack or an eval batch keeps each step's states together, for the
    # recursions that walk their steps.
    H = np.empty(rows + (T,) + state_shape[-1:]) if keep else np.moveaxis(
        np.empty((T,) + state_shape), 0, -2)
    if keep:
        C, TC, G = np.empty(H.shape), np.empty(H.shape), np.empty(rows + (T,) + gate_shape[-2:])
    P_if, P_o = (p.P[:, :2], p.P[:, 2]) if stacked else (p.P[:2], p.P[2])
    h = np.zeros(state_shape)
    c = np.zeros(state_shape)
    mv = matvec if rows else operator.matmul  # W @ h, without matvec's call
    for t in range(T):
        z = ZX[t] + mv(p.W, h).reshape(gate_shape)
        i_f = sigmoid(z[..., :2, :] + peep_apply(P_if, c[..., None, :], diag))
        i, f = i_f[..., 0, :], i_f[..., 1, :]
        g = np.tanh(z[..., 2, :])
        c = f * c + i * g
        o = sigmoid(z[..., 3, :] + peep_apply(P_o, c, diag))
        tc = np.tanh(c)
        h = o * tc
        H[..., t, :] = h
        if keep:
            G[..., t, :2, :] = i_f
            G[..., t, 2, :] = g
            G[..., t, 3, :] = o
            C[..., t, :] = c
            TC[..., t, :] = tc
    return LayerTrace(X, H, *((C, TC, G) if keep else (None,) * 3))


def _run_historical(
    net: StackedNetwork,
    k: int,
    H: np.ndarray,
    step_probs: np.ndarray,
    label: Optional[int],
    replay_records: Optional[list],
) -> HistoricalTrace:
    """Drive the historical recursion over one layer's responses.

    With replay_records the recorded branch schedule is applied verbatim and
    neither losses nor policies are consulted; a stacked network's H is
    (K, T, U) and every state is (K, U). A live pass scores step t's states
    against y_t: the label if given (training), else the inference policy's
    stand-in (None scores 1). l_{t-1} is rescored when y_t changes. A live
    sliding pass with targets forms and scores every step's truncation state
    before its first step; a literal batch would cost O(T^2), so each literal
    truncation, like each replayed one, sums its own window.
    """
    l_head = net.scorers[k][1]
    cfg = net.hist_cfg
    if replay_records is not None:
        steps = np.moveaxis(H, -2, 0)
        hist = initial_trace(steps[0], lambda s: replay_records[0].eps_l_new)
        for t in range(1, len(steps)):
            hist = replay_update(hist, steps[t], replay_records[t])
        return hist
    if label is not None:
        ys, eps_h = label, cross_entropy(step_probs, label)
        targets = [label] * len(H)
    else:
        ys, eps_h = inference_losses(step_probs, cfg.inference_policy)
        targets = [None] * len(H) if ys is None else ys.tolist()
    eps_h = eps_h.tolist()
    scorer_of = {y: (lambda s: 1.0) if y is None else partial(step_loss, l_head, label=y)
                 for y in set(targets)}
    scorers = [scorer_of[y] for y in targets]
    S = None
    if cfg.window_mode == "sliding" and ys is not None:  # fixed_blend never truncates
        S = truncation_states(H, cfg.tau)
        # (T, 1, U): one matrix-vector product per row, the bits of
        # step_loss; a (T, U) @ (U, C) product sums in another order.
        S_loss = cross_entropy(head_predict(l_head, S[:, None, :])[:, 0], ys).tolist()
    hist = initial_trace(H[0], scorers[0])
    for t in range(1, len(H)):
        if targets[t] != targets[t - 1]:
            hist = replace(hist, eps_l=scorers[t](hist.l))
        trunc = None if S is None else (S[t], S_loss[t])
        hist = historical_update(hist, H[t], eps_h[t], cfg, scorers[t], trunc)
    return hist


def _eval_historical(net: StackedNetwork, k: int, H: np.ndarray, step_probs: np.ndarray):
    """_run_historical's evaluation-mode pass over each row of H (B, T, U),
    scored by step_probs (B, T, C): L (B, T, U) holds l_1..l_T, each row bit
    for bit, and no records. Each step updates every row and keeps its branch
    by mask; a rescoring and a new state's loss are one (B, 1, U) head call
    each (a (B, U) @ (U, C) product sums in another order), and a literal
    window, one length in every row, is one window_mean over a slice of H."""
    l_head = net.scorers[k][1]
    cfg = net.hist_cfg
    ys, eps_h = inference_losses(step_probs, cfg.inference_policy)

    def loss(S, t):  # each row's step_loss against its y_t
        return cross_entropy(head_predict(l_head, S[:, None, :])[:, 0], ys[:, t])

    def mix(alpha, t):  # each row's blend of h_t into l_{t-1}
        return alpha[:, None] * H[:, t] + (1.0 - alpha)[:, None] * L[:, t - 1]

    S = None
    if cfg.window_mode == "sliding" and ys is not None:  # fixed_blend never truncates
        S = truncation_states(H, cfg.tau)
        S_loss = cross_entropy(head_predict(l_head, S[:, :, None, :])[:, :, 0], ys)
    L = H.copy()  # l_1 = h_1
    eps_l = np.ones(len(H)) if ys is None else loss(H[:, 0], 0)
    changed = None if ys is None else ys[:, 1:] != ys[:, :-1]
    for t in range(1, H.shape[1]):
        if changed is not None and changed[:, t - 1].any():
            eps_l = np.where(changed[:, t - 1], loss(L[:, t - 1], t), eps_l)
        blend = eps_h[:, t] >= eps_l  # an infinite eps_h blends: compute_alpha rejects it
        if blend.all():
            l = mix(compute_alpha(eps_l, eps_h[:, t], cfg.alpha_policy), t)
        else:
            if S is not None:
                l = S[:, t]
            else:  # a literal window
                n = len(truncation_weights(t + 1, cfg.tau, cfg.window_mode))
                l = window_mean(np.swapaxes(H[:, t + 1 - n:t + 1], 0, 1))
            if blend.any():
                alpha = np.zeros(len(H))
                alpha[blend] = compute_alpha(eps_l[blend], eps_h[blend, t], cfg.alpha_policy)
                l = np.where(blend[:, None], mix(alpha, t), l)
        if not np.isfinite(l).all():
            raise ValueError(f"historical state is not finite at step t={t + 1}")
        L[:, t] = l
        if S is not None:  # a sliding truncation state comes scored
            eps_l = np.where(blend, loss(l, t), S_loss[:, t]) if blend.any() else S_loss[:, t]
        elif ys is not None:
            eps_l = loss(l, t)
    return L


def forward_sequence(
    net: StackedNetwork,
    x,
    label: Optional[int] = None,
    training: bool = False,
    rng: Optional[np.random.Generator] = None,
    replay_from: Optional[ForwardTrace] = None,
) -> ForwardTrace:
    """Full forward pass over one sequence, or over a training batch.

    In training mode the true label drives the branch comparisons and
    dropout masks are drawn from rng; in evaluation mode the configured
    inference policy stands in for the label and dropout is the identity.

    A live training pass also takes a batch x (B, T, D) with labels (B,).
    Its layers and per-step heads run once over the batch, each row's
    historical recursion runs on its own, and every mask of row b is drawn
    before row b+1's, so trace.row(b) is bit for bit row b's own pass. A
    live pass over one sequence is the batch of one.

    Passing replay_from pins the stochastic and branching choices (dropout
    masks, branch decisions, alpha, window weights) to the given trace, so
    the pass becomes a deterministic function of the parameters alone. That
    pinned function is the one the backward pass differentiates. A stacked
    network (see StackedNetwork.with_params) runs only replayed passes: all
    K parameter sets at once, with the leading axis K on every array of the
    returned trace.
    """
    X = np.asarray(x, dtype=np.float64)
    live = replay_from is None
    batch = training and live and np.ndim(label) == 1
    if batch:
        if X.ndim != 3 or min(X.shape[:2]) < 1 or np.shape(label) != X.shape[:1]:
            raise ShapeError(f"a training batch must be a (B, T, D) array with B, T >= 1 and "
                             f"labels (B,), got {X.shape} and labels {np.shape(label)}")
    elif X.ndim != 2 or X.shape[0] < 1:
        raise ShapeError(f"a sequence must be a (T, D) array with T >= 1, got {X.shape}")
    if net.stack_shape and live:
        raise ValueError("a stacked network runs only replayed passes")
    if X.shape[-1] != net.input_dim:
        raise ShapeError(
            f"sequence has feature dim {X.shape[-1]}, network expects {net.input_dim}"
        )
    if not np.all(np.isfinite(X)):
        raise ValueError("sequence contains non-finite features")
    if training and label is None:
        raise ValueError("training-mode forward needs a label")
    fresh_masks = training and net.dropout_p > 0.0 and live
    if fresh_masks and rng is None:
        raise ValueError("training-mode forward with dropout needs a generator")

    L = len(net.layer_units)
    if live and not batch:  # one sequence is the batch of one
        X = X[None]
    T = X.shape[-2]
    targets = np.asarray(label).tolist() if batch else [label if training else None]  # per row
    if not live:
        masks = list(replay_from.masks)
    elif fresh_masks:
        masks = [np.empty((len(X), T, u), dtype=bool) for u in net.layer_units[:-1]]
        for b in range(len(X)):
            for mask in masks:
                mask[b] = rng.random(mask.shape[1:]) >= net.dropout_p
    else:
        masks = [None] * (L - 1)
    layer_traces: list = []
    hists: list = [None] * L
    probs: list = [None] * L

    cur = X
    for k in range(L):
        lt = _layer_forward(net.gates[k], cur, keep=not net.stack_shape)
        layer_traces.append(lt)
        if net.scorers[k] is not None:
            probs[k] = head_predict(net.scorers[k][0], lt.h)
        if k in net.scored and live:
            hists[k] = [_run_historical(net, k, h, p, y, None)
                        for h, p, y in zip(lt.h, probs[k], targets)]
        elif k in net.scored:
            hists[k] = _run_historical(net, k, lt.h, probs[k], None, replay_from.hists[k].records)
        if k < L - 1:
            upward = lt.h
            if hists[k] is not None:
                upward = (np.array([hist.l_history for hist in hists[k]]) if live
                          else np.stack(hists[k].l_history, axis=-2))
            cur = upward if masks[k] is None else upward * masks[k] / (1.0 - net.dropout_p)

    if not net.use_historical:
        final_src = layer_traces[-1].h[..., T - 1, :]
    else:
        final_src = np.array([hist.l for hist in hists[-1]]) if live else hists[-1].l
    # one (1, U) @ (U, C) product per row: a (B, U) @ (U, C) product sums in another order
    final_probs = head_predict(net.final_head, final_src[..., None, :])[..., 0, :]
    trace = ForwardTrace(layers=layer_traces, masks=masks, hists=hists, probs=probs,
                         final_src=final_src, final_probs=final_probs)
    return trace if batch or not live else trace.row(0)


def eval_final_probs(net: StackedNetwork, X) -> np.ndarray:
    """final_probs (B, C) of the evaluation-mode forward_sequence over each
    row of X (B, T, D), bit for bit: the layers run as one batch and the
    historical recursion as _eval_historical. Whatever would stop one row's
    forward_sequence raises a ValueError here too, though not that call's."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 3 or min(X.shape[:2]) < 1 or X.shape[2] != net.input_dim or net.stack_shape:
        raise ShapeError(f"a batch runs one parameter set over (B, T, {net.input_dim}) "
                         f"features with B, T >= 1, got {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError("batch contains non-finite features")
    for k, gates in enumerate(net.gates):  # X becomes each layer's output
        X = _layer_forward(gates, X).h
        if k in net.scored:  # only the recursion reads the per-step scores
            X = _eval_historical(net, k, X, head_predict(net.scorers[k][0], X))
    return head_predict(net.final_head, X[:, -1:])[:, 0]


def _ce_logit_grad(probs: np.ndarray, label: int) -> np.ndarray:
    """Gradient of the floored cross-entropy w.r.t. softmax logits, for one
    prediction (C,) or each row of a stack (T, C).

    Zero inside the floored region (the prediction is already essentially
    perfect there), probs - onehot otherwise.
    """
    g = probs.copy()
    g[..., label] -= 1.0
    g[-np.log(probs[..., label]) <= EPS_LOSS_FLOOR] = 0.0
    return g


def _aux_streams(trace: ForwardTrace) -> list:
    """(layer index, per-step probs) pairs entering the auxiliary loss: the
    top layer first, then the scored lower layers in ascending order."""
    top = len(trace.probs) - 1
    return [(k, trace.probs[k]) for k in (top, *range(top)) if trace.probs[k] is not None]


def total_loss(
    net: StackedNetwork,
    trace: ForwardTrace,
    label: int,
    lambda_aux: float,
    l2: float,
):
    """Final cross-entropy + lambda_aux * mean per-step cross-entropy
    + l2 * sum of squared weight-matrix entries (biases, peepholes exempt).

    A float for one parameter set; for a stacked network and its trace, a
    (K,) array of one loss per set. Per-step losses are added in ascending t.
    """
    loss = cross_entropy(trace.final_probs, label)
    if lambda_aux != 0.0:
        streams = _aux_streams(trace)
        aux = 0.0
        for _, probs in streams:
            per_step = np.moveaxis(cross_entropy(probs, label), -1, 0)
            aux += sum(per_step) / len(per_step)
        loss += lambda_aux * aux / len(streams)
    if l2 != 0.0:
        loss += l2 * sum(_sum_of_squares(net.theta[..., a:b]) for a, b in net.l2_spans)
    return loss if net.stack_shape else float(loss)


def _sum_of_squares(v: np.ndarray):
    """Sum of v's squares for one span (n,), or of each row's for a stack
    (K, n): one BLAS dot product per parameter set either way."""
    if v.ndim == 1:
        return float(np.dot(v, v))
    v = v[:, None, :]
    return (v @ np.swapaxes(v, 1, 2))[:, 0, 0]


def _historical_backward(records: list, dl_in: np.ndarray) -> np.ndarray:
    """Push gradients through the recorded blend/truncation combinations.

    dl_in[t] is the gradient arriving at l_t from outside the recursion;
    the return value is the gradient landing on each response h_t.
    """
    T, U = dl_in.shape
    dH = np.zeros((T, U))
    dl = np.zeros(U)
    for t in reversed(range(T)):
        dl = dl + dl_in[t]
        rec = records[t]
        if rec.branch == "blend":
            dH[t] += rec.alpha * dl
            dl = (1.0 - rec.alpha) * dl
        else:  # a window (trunc, or init's l_1 = h_1): rows t+1-len(w)..t
            w = rec.weights
            dH[t + 1 - len(w): t + 1] += w[:, None] * dl[None, :]
            dl = np.zeros(U)
    return dH


def _layer_backward(
    p: GateBlocks, lt: LayerTrace, dH_in: np.ndarray, grad: GateBlocks, want_dX: bool
) -> Optional[np.ndarray]:
    """BPTT through one LSTM layer; accumulates into grad, returns dX if
    want_dX. dz_t, the gradient at the four gate pre-activations, is
    written as one (4, U) block per step.

    The output gate peeks at the fresh cell, so its peephole contribution
    joins dc before the input/forget/candidate gates are handled.
    """
    T, U = lt.h.shape
    G = lt.gates
    # Every step's derivative factors at once: 1 - a of the sigmoid gates and
    # 1 - g^2 of the candidate fill DZ (gate-major, so each gate's (T, U)
    # block is contiguous), and step t replaces its column with dz_t.
    DZ = np.empty((4, T, U))
    np.subtract(1.0, np.swapaxes(G, 0, 1), out=DZ)
    DZ[2] = 1.0 - G[:, 2] * G[:, 2]
    # F[t] = (g_t, c_{t-1}, 1 - tanh^2 c_t): what dc meets on the i and f
    # paths, then on the way in from h.
    F = np.empty((T, 3, U))
    F[:, 0] = G[:, 2]
    F[0, 1] = 0.0
    F[1:, 1] = lt.c[:-1]
    np.multiply(lt.tc, lt.tc, out=F[:, 2])
    np.subtract(1.0, F[:, 2], out=F[:, 2])
    WT = np.swapaxes(p.W.reshape(4, U, U), -1, -2)
    diag = p.P.ndim == p.U.ndim
    PT = p.P if diag else np.swapaxes(p.P, -1, -2)
    PT_if, PT_o = PT[:2], PT[2]
    dh_carry = np.zeros(U)
    dc_carry = np.zeros(U)
    for t in reversed(range(T)):
        dh = dH_in[t] + dh_carry
        dz = DZ[:, t]
        o = G[t, 3]
        dzo = dh * lt.tc[t] * o * dz[3]
        dc = dc_carry + dh * o * F[t, 2]
        dc = dc + peep_apply(PT_o, dzo, diag)
        dz[:2] = dc * F[t, :2] * G[t, :2] * dz[:2]
        dz[2] = dc * G[t, 0] * dz[2]
        dz[3] = dzo
        q = matvec(WT, dz)
        dh_carry = q[0] + q[1] + q[2] + q[3]
        q = peep_apply(PT_if, dz[:2], diag)
        dc_carry = dc * G[t, 1] + (q[0] + q[1])
    # Peephole gradients, each step's term added in descending t. The loop
    # no longer reads F, so the diagonal terms overwrite it.
    C_prev = F[:, 1]
    if diag:
        np.multiply(DZ[0], C_prev, out=F[:, 0])
        np.multiply(DZ[1], C_prev, out=F[:, 1])
        np.multiply(DZ[3], lt.c, out=F[:, 2])
        grad.P[...] += F[::-1].sum(axis=0)
    else:  # outer products, without a (T, 3, U, U) array of them
        for t in reversed(range(T)):
            grad.P[:2] += DZ[:2, t, :, None] * C_prev[t]
            grad.P[2] += DZ[3, t, :, None] * lt.c[t]
    del F, C_prev
    # One product per gate: a fused (4U, T) @ (T, D) product sums in another order.
    H_prev = np.vstack([np.zeros((1, U)), lt.h[:-1]])
    gU, gW, gb = grad.U.reshape(4, U, -1), grad.W.reshape(4, U, U), grad.b.reshape(4, U)
    for k in range(4):
        gU[k] += DZ[k].T @ lt.x
        gW[k] += DZ[k].T @ H_prev
        gb[k] += DZ[k].sum(axis=0)
    del H_prev
    if not want_dX:
        return None
    U4 = p.U.reshape(4, U, -1)
    dX = DZ[0] @ U4[0]
    for k in range(1, 4):
        dX += DZ[k] @ U4[k]
    return dX


def backward_sequence(
    net: StackedNetwork,
    trace: ForwardTrace,
    label: int,
    lambda_aux: float,
    l2: float,
) -> np.ndarray:
    """Gradient of total_loss w.r.t. the parameter vector.

    Differentiates the pinned forward pass (the trace's masks and branch
    schedule are constants), which is exactly the function a replayed
    forward evaluates. The result is one vector in layout order; grads holds
    its named views.
    """
    grad = np.zeros(net.theta.shape)
    grads = net.views(grad)
    gate_grads = net.gate_blocks(grad)
    T = trace.T

    # Final head. d_out is the gradient on the sequence layer k passes on:
    # l_1..l_T if it is scored, else h_1..h_T. The final head seeds the top
    # layer's at step T.
    dz_final = _ce_logit_grad(trace.final_probs, label)
    grads["final.V"] += np.outer(dz_final, trace.final_src)
    grads["final.c"] += dz_final
    d_out = np.zeros_like(trace.layers[-1].h)
    d_out[T - 1] = net.final_head.V.T @ dz_final

    # Each scored stream carries equal weight in the auxiliary mean.
    streams = dict(_aux_streams(trace))
    coef = lambda_aux / (len(streams) * T)

    # Layers, top down.
    for k in reversed(range(len(net.layer_units))):
        lt = trace.layers[k]
        dH = _historical_backward(trace.hists[k].records, d_out) if k in net.scored else d_out
        if coef != 0.0 and k in streams:
            head, _, name = net.scorers[k]
            # The bits of a loop over t: V and c terms added in ascending t,
            # and one (C,) @ (C, U) product per row; a DZ.T @ H product
            # sums in another order.
            DZ = coef * _ce_logit_grad(streams[k], label)
            grads[name + ".V"] += np.add.reduce(DZ[:, :, None] * lt.h[:, None, :], axis=0)
            grads[name + ".c"] += np.add.reduce(DZ, axis=0)
            dH = dH + (DZ[:, None, :] @ head.V)[:, 0]
        dX = _layer_backward(net.gates[k], lt, dH, gate_grads[k], k > 0)
        if k > 0:
            mask = trace.masks[k - 1]
            d_out = dX if mask is None else dX * mask / (1.0 - net.dropout_p)

    if l2 != 0.0:
        for a, b in net.l2_spans:
            grad[..., a:b] += 2.0 * l2 * net.theta[..., a:b]
    return grad


def save_checkpoint(net: StackedNetwork, path: str) -> None:
    """Binary snapshot: versioned header, then the parameter vector as raw
    64-bit little-endian floats (its blocks in layout order). A header value
    its field cannot hold is a ValueError, raised before the file opens."""
    if net.stack_shape:
        raise ValueError(f"cannot save a stack of parameter sets (theta {net.theta.shape}): "
                         "a checkpoint holds one")
    fields = [("version", "I", CHECKPOINT_VERSION), ("class count", "I", net.n_classes),
              ("input_dim", "I", net.input_dim), ("layer count", "I", len(net.layer_units))]
    fields += [(f"layer {k} units", "I", u) for k, u in enumerate(net.layer_units)]
    fields += [(what, "B", options.index(operator.attrgetter(attr)(net)))
               for what, options, attr in CHECKPOINT_TAGS]
    fields += [("tau", "I", net.hist_cfg.tau), ("dropout_p", "d", net.dropout_p)]
    write_binary(path, CHECKPOINT_MAGIC, fields, np.ascontiguousarray(net.theta, dtype="<f8"))


def load_checkpoint(path: str) -> StackedNetwork:
    """Inverse of save_checkpoint. A file it cannot load is a ValueError
    naming the file and the byte (see BinaryReader)."""
    reader = BinaryReader(path, CHECKPOINT_MAGIC)
    version = reader.take("I", "version")
    if version != CHECKPOINT_VERSION:
        reader.fail(f"unsupported checkpoint version {version}")
    n_classes, input_dim = reader.count("class count"), reader.count("input_dim")
    units = [reader.count(f"layer {k} units") for k in range(reader.count("layer count"))]
    net_tags, cfg_tags = {}, {}  # by the attribute that holds them
    for what, options, attr in CHECKPOINT_TAGS:
        index = reader.take("B", what)
        if index >= len(options):
            reader.fail(f"bad {what} {index}")
        owner, _, name = attr.rpartition(".")
        (cfg_tags if owner else net_tags)[name] = options[index]
    tau = reader.take("I", "tau")
    try:
        hist_cfg = HistoricalConfig(tau=tau, **cfg_tags)
    except ValueError as exc:
        reader.fail(str(exc))
    dropout_p = reader.take("d", "dropout_p")
    dropout_at = reader.at
    n_params = param_count(input_dim, units, n_classes, net_tags["hist_placement"],
                           net_tags["peephole"])
    theta = reader.floats("<f8", n_params, "parameters")
    # The tags and sizes are checked above, so dropout_p is the one field the
    # network can reject.
    try:
        return StackedNetwork(theta=theta, input_dim=input_dim, layer_units=units,
                              n_classes=n_classes, dropout_p=dropout_p, hist_cfg=hist_cfg,
                              **net_tags)
    except ValueError as exc:
        reader.fail(str(exc), dropout_at)


def predict(net: StackedNetwork, x) -> int:
    """Evaluation-mode class prediction for one sequence."""
    trace = forward_sequence(net, x, training=False)
    return int(np.argmax(trace.final_probs))
