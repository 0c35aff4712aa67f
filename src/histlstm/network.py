"""Stacked peephole-LSTM network with a historical state layer on top.

Forward passes record everything needed for the hand-derived
backpropagation-through-time pass. The gradient convention: the blend
weight alpha, the truncation weights, and the branch decisions are frozen
constants, so gradients flow only through the linear combinations of
state vectors, never through the loss ratios that picked them.
"""

from __future__ import annotations

import copy
import operator
import struct
from dataclasses import dataclass, replace
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .cells import (
    HeadParams,
    LstmParams,
    PEEPHOLE_MODES,
    head_predict,
    init_head,
    init_lstm_params,
    matvec,
    peep_apply,
)
from .historical import (
    ALPHA_POLICIES,
    INFERENCE_POLICIES,
    WINDOW_MODES,
    HistoricalConfig,
    HistoricalTrace,
    historical_update,
    inference_losses,
    initial_trace,
    replay_update,
    step_loss,
)
from .numerics import EPS_LOSS_FLOOR, ShapeError, cross_entropy, sigmoid

HIST_PLACEMENTS = ("top", "all")

LSTM_FIELDS = (
    "U_i", "U_f", "U_c", "U_o",
    "W_i", "W_f", "W_c", "W_o",
    "P_i", "P_f", "P_o",
    "b_i", "b_f", "b_c", "b_o",
)

CHECKPOINT_MAGIC = b"HLSTM1"
CHECKPOINT_VERSION = 1


@dataclass
class StackedNetwork:
    layers: list  # of LstmParams, input side first
    per_step_head: HeadParams  # scores top-layer responses
    final_head: HeadParams  # scores historical states; emits the final prediction
    aux_heads: list  # per lower layer, "all" placement only
    dropout_p: float
    hist_cfg: HistoricalConfig
    hist_placement: str
    use_historical: bool

    def __post_init__(self):
        if self.hist_placement not in HIST_PLACEMENTS:
            raise ValueError(f"unknown hist_placement {self.hist_placement!r}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError(f"dropout_p must be in [0, 1), got {self.dropout_p}")
        for lo, hi in zip(self.layers, self.layers[1:]):
            if hi.input_dim != lo.units:
                raise ShapeError(
                    f"layer outputs {lo.units} units but next layer expects {hi.input_dim}"
                )
        if self.per_step_head.n_classes != self.final_head.n_classes:
            raise ShapeError("per-step and final heads disagree on class count")
        if self.per_step_head.V.shape[-1] != self.layers[-1].units:
            raise ShapeError("per-step head width does not match the top layer")
        if self.final_head.V.shape[-1] != self.layers[-1].units:
            raise ShapeError("final head width does not match the top layer")
        n_aux = len(self.layers) - 1 if self.hist_placement == "all" else 0
        if len(self.aux_heads) != n_aux:
            raise ShapeError(
                f"{self.hist_placement!r} placement needs {n_aux} aux heads, "
                f"got {len(self.aux_heads)}"
            )
        for k, head in enumerate(self.aux_heads):
            if head.V.shape[-1] != self.layers[k].units:
                raise ShapeError(f"aux head {k} width does not match layer {k}")
            if head.n_classes != self.n_classes:
                raise ShapeError(f"aux head {k} disagrees on class count")

    @property
    def n_classes(self) -> int:
        return self.final_head.n_classes

    @property
    def stack_shape(self) -> tuple:
        """() for one parameter set, (K,) for a stack of K (see with_params)."""
        return self.final_head.c.shape[:-1]

    @property
    def input_dim(self) -> int:
        return self.layers[0].input_dim

    @property
    def layer_units(self) -> list:
        return [p.units for p in self.layers]

    def param_blocks(self) -> list:
        """All parameters as (name, array) pairs in the canonical order.

        The list is cached: block names and array objects are fixed at
        construction and every update path writes through arr[...], so the
        cache can never go stale. deepcopy maps the cached references onto
        the copied arrays, keeping the aliasing intact.
        """
        cached = self.__dict__.get("_cache_blocks")
        if cached is not None:
            return cached
        blocks = []
        for k, p in enumerate(self.layers):
            for f_name in LSTM_FIELDS:
                blocks.append((f"layer{k}.{f_name}", getattr(p, f_name)))
        for j, head in enumerate(self.aux_heads):
            blocks.append((f"aux{j}.V", head.V))
            blocks.append((f"aux{j}.c", head.c))
        blocks.append(("per_step.V", self.per_step_head.V))
        blocks.append(("per_step.c", self.per_step_head.c))
        blocks.append(("final.V", self.final_head.V))
        blocks.append(("final.c", self.final_head.c))
        self._cache_blocks = blocks
        return blocks

    def l2_arrays(self) -> list:
        """The arrays the L2 penalty covers, cached like param_blocks."""
        cached = self.__dict__.get("_cache_l2")
        if cached is not None:
            return cached
        arrays = [arr for name, arr in self.param_blocks() if is_weight_matrix(name)]
        self._cache_l2 = arrays
        return arrays

    def flatten_params(self) -> np.ndarray:
        return np.concatenate([arr.ravel() for _, arr in self.param_blocks()])

    def set_flat(self, theta: np.ndarray) -> None:
        """Overwrite all parameters in place from a flat vector (canonical order)."""
        for (_, arr), view in zip(self.param_blocks(), self._block_views(np.ravel(theta))):
            arr[...] = view

    def clone(self) -> "StackedNetwork":
        return copy.deepcopy(self)

    def with_params(self, thetas: np.ndarray) -> "StackedNetwork":
        """This network's shape and settings with its blocks viewing thetas:
        one flat vector (P,) in param_blocks() order, or a stack (K, P), which
        gives every block a leading axis K. A stacked network runs replayed
        forward passes and total_loss for all K parameter sets at once."""
        # param_blocks order: each layer's LSTM_FIELDS (LstmParams' field
        # order), then each head's V and c: aux heads, per-step, final.
        views = iter(self._block_views(thetas))
        layers = [LstmParams(*(next(views) for _ in LSTM_FIELDS)) for _ in self.layers]
        heads = [HeadParams(next(views), next(views)) for _ in range(len(self.aux_heads) + 2)]
        return replace(self, layers=layers, aux_heads=heads[:-2],
                       per_step_head=heads[-2], final_head=heads[-1])

    def _block_views(self, thetas) -> list:
        """Views of thetas (P,) or (K, P), shaped like each parameter block in
        param_blocks() order, with the leading K of a stack."""
        thetas = np.asarray(thetas, dtype=np.float64)
        blocks = self.param_blocks()
        need = sum(arr.size for _, arr in blocks)
        if self.stack_shape or thetas.ndim not in (1, 2) or thetas.shape[-1] != need:
            raise ShapeError(
                f"parameter stack has shape {thetas.shape}, network needs ({need},) or (K, {need})"
            )
        views = []
        pos = 0
        for _, arr in blocks:
            views.append(thetas[..., pos:pos + arr.size].reshape(thetas.shape[:-1] + arr.shape))
            pos += arr.size
        return views


def is_weight_matrix(name: str) -> bool:
    """Blocks the L2 penalty covers: gate/input matrices and head matrices.

    Biases and peephole weights are exempt.
    """
    leaf = name.split(".", 1)[1]
    return leaf.startswith(("U_", "W_")) or leaf == "V"


def zero_grads(net: StackedNetwork) -> dict:
    return {name: np.zeros_like(arr) for name, arr in net.param_blocks()}


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
    """Seeded construction; parameters are drawn layers-first, then heads."""
    if not layer_units:
        raise ValueError("need at least one layer")
    hist_cfg = hist_cfg if hist_cfg is not None else HistoricalConfig()
    layers = []
    d = input_dim
    for u in layer_units:
        layers.append(init_lstm_params(rng, d, u, peephole=peephole))
        d = u
    aux_heads = []
    if hist_placement == "all":
        aux_heads = [init_head(rng, u, n_classes) for u in layer_units[:-1]]
    per_step_head = init_head(rng, layer_units[-1], n_classes)
    final_head = init_head(rng, layer_units[-1], n_classes)
    return StackedNetwork(
        layers=layers,
        per_step_head=per_step_head,
        final_head=final_head,
        aux_heads=aux_heads,
        dropout_p=dropout_p,
        hist_cfg=hist_cfg,
        hist_placement=hist_placement,
        use_historical=use_historical,
    )


@dataclass
class LayerTrace:
    """Everything one LSTM layer's forward pass must remember for BPTT."""

    x: np.ndarray  # (T, in_dim) inputs actually fed (post-dropout of the layer below)
    h: np.ndarray  # (T, U)
    # The rest only BPTT reads, so a stacked pass leaves them None.
    c: Optional[np.ndarray]
    tc: Optional[np.ndarray]  # tanh(c), cached
    i: Optional[np.ndarray]
    f: Optional[np.ndarray]
    g: Optional[np.ndarray]
    o: Optional[np.ndarray]


@dataclass
class ForwardTrace:
    layers: list  # of LayerTrace
    masks: list  # per layer boundary: (T, U) 0/1 mask, or None
    hists: list  # per layer: HistoricalTrace or None
    step_probs: np.ndarray  # (T, C) top-layer per-step predictions
    aux_probs: list  # per layer: (T, C) for scored lower layers, else None
    final_src: np.ndarray  # the vector the final head saw (l_T or h_T)
    final_probs: np.ndarray  # (C,)

    @property
    def T(self) -> int:
        return self.layers[0].h.shape[-2]


def _frames_of(x) -> np.ndarray:
    frames = getattr(x, "frames", x)
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[0] < 1:
        raise ShapeError(f"a sequence must be a (T, D) array with T >= 1, got {frames.shape}")
    return frames


def _layer_forward(p: LstmParams, X: np.ndarray) -> LayerTrace:
    """One layer over X (T, D); with stacked parameters (leading axis K), X
    is (T, D) shared by every set or (K, T, D), h is (K, T, U), and the gates
    and cell states are not kept."""
    T = X.shape[-2]
    if X.shape[-1] != p.input_dim:
        raise ShapeError(f"layer expects input dim {p.input_dim}, got {X.shape[-1]}")
    stacked = p.U_i.ndim == 3
    # Input contributions for all timesteps at once (a stack's with the time
    # axis first); the recurrent parts stay in the step loop.
    zx_i = X @ np.swapaxes(p.U_i, -1, -2) + p.b_i[..., None, :]
    zx_f = X @ np.swapaxes(p.U_f, -1, -2) + p.b_f[..., None, :]
    zx_c = X @ np.swapaxes(p.U_c, -1, -2) + p.b_c[..., None, :]
    zx_o = X @ np.swapaxes(p.U_o, -1, -2) + p.b_o[..., None, :]
    if stacked:
        zx_i, zx_f, zx_c, zx_o = (np.moveaxis(z, 1, 0) for z in (zx_i, zx_f, zx_c, zx_o))
    shape = zx_i.shape
    H = np.empty(shape)
    if stacked:
        C = TC = I = F = G = O = None
    else:
        C, TC, I, F, G, O = (np.empty(shape) for _ in range(6))
    h = np.zeros(shape[1:])
    c = np.zeros(shape[1:])
    mv = matvec if stacked else operator.matmul  # W @ h, without matvec's call
    for t in range(T):
        i = sigmoid(zx_i[t] + mv(p.W_i, h) + peep_apply(p.P_i, c))
        f = sigmoid(zx_f[t] + mv(p.W_f, h) + peep_apply(p.P_f, c))
        g = np.tanh(zx_c[t] + mv(p.W_c, h))
        c = f * c + i * g
        o = sigmoid(zx_o[t] + mv(p.W_o, h) + peep_apply(p.P_o, c))
        tc = np.tanh(c)
        h = o * tc
        H[t] = h
        if not stacked:
            I[t] = i
            F[t] = f
            G[t] = g
            O[t] = o
            C[t] = c
            TC[t] = tc
    if stacked:  # the stack axis goes first again
        H = np.moveaxis(H, 0, 1)
    return LayerTrace(x=X, h=H, c=C, tc=TC, i=I, f=F, g=G, o=O)


def _scored_layers(net: StackedNetwork) -> list:
    """Indices of layers that maintain a historical state."""
    if not net.use_historical:
        return []
    top = len(net.layers) - 1
    return list(range(len(net.layers))) if net.hist_placement == "all" else [top]


def _scoring_heads(net: StackedNetwork, k: int) -> tuple:
    """(response scorer, historical-state scorer) for layer k."""
    if k == len(net.layers) - 1:
        return net.per_step_head, net.final_head
    return net.aux_heads[k], net.aux_heads[k]


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
    stand-in (None scores 1). l_{t-1} is rescored when y_t changes.
    """
    _, l_head = _scoring_heads(net, k)
    cfg = net.hist_cfg
    if replay_records is not None:
        steps = np.moveaxis(H, -2, 0)
        hist = initial_trace(steps[0], lambda s: replay_records[0].eps_l_new)
        for t in range(1, len(steps)):
            hist = replay_update(hist, steps[t], replay_records[t], cfg)
        return hist
    if label is not None:
        targets = [label] * len(H)
        eps_h = cross_entropy(step_probs, label).tolist()
    else:
        targets, eps_h = inference_losses(step_probs, cfg.inference_policy)
    scorers = [(lambda s: 1.0) if y is None else partial(step_loss, l_head, label=y)
               for y in targets]
    hist = initial_trace(H[0], scorers[0])
    for t in range(1, len(H)):
        if targets[t] != targets[t - 1]:
            hist = replace(hist, eps_l=scorers[t](hist.l))
        hist = historical_update(hist, H[t], eps_h[t], cfg, scorers[t])
    return hist


def forward_sequence(
    net: StackedNetwork,
    x,
    label: Optional[int] = None,
    training: bool = False,
    rng: Optional[np.random.Generator] = None,
    replay_from: Optional[ForwardTrace] = None,
) -> ForwardTrace:
    """Full forward pass over one sequence.

    In training mode the true label drives the branch comparisons and
    dropout masks are drawn from rng; in evaluation mode the configured
    inference policy stands in for the label and dropout is the identity.

    Passing replay_from pins the stochastic and branching choices (dropout
    masks, branch decisions, alpha, window weights) to the given trace, so
    the pass becomes a deterministic function of the parameters alone. That
    pinned function is the one the backward pass differentiates. A stacked
    network (see StackedNetwork.with_params) runs only replayed passes: all
    K parameter sets at once, with the leading axis K on every array of the
    returned trace.
    """
    X = _frames_of(x)
    if net.stack_shape and replay_from is None:
        raise ValueError("a stacked network runs only replayed passes")
    if label is None:
        label = getattr(x, "label", None)
    if X.shape[1] != net.input_dim:
        raise ShapeError(
            f"sequence has feature dim {X.shape[1]}, network expects {net.input_dim}"
        )
    if not np.all(np.isfinite(X)):
        raise ValueError("sequence contains non-finite features")
    if training and label is None:
        raise ValueError("training-mode forward needs a label")
    fresh_masks = training and net.dropout_p > 0.0 and replay_from is None
    if fresh_masks and rng is None:
        raise ValueError("training-mode forward with dropout needs a generator")

    L = len(net.layers)
    T = X.shape[0]
    scored = set(_scored_layers(net))
    layer_traces: list = []
    masks: list = []
    hists: list = [None] * L
    aux_probs: list = [None] * L
    step_probs = None

    cur = X
    for k in range(L):
        lt = _layer_forward(net.layers[k], cur)
        layer_traces.append(lt)
        top = k == L - 1
        if top or k in scored:
            h_head, _ = _scoring_heads(net, k)
            probs_k = head_predict(h_head, lt.h)
            if top:
                step_probs = probs_k
            else:
                aux_probs[k] = probs_k
        if k in scored:
            records = replay_from.hists[k].records if replay_from is not None else None
            hists[k] = _run_historical(
                net, k, lt.h, probs_k, label if training else None, records
            )
        if not top:
            upward = np.stack(hists[k].l_history, axis=-2) if k in scored else lt.h
            if replay_from is not None:
                mask = replay_from.masks[k]
            elif fresh_masks:
                mask = rng.random(upward.shape) >= net.dropout_p
            else:
                mask = None
            masks.append(mask)
            if mask is None:
                cur = upward
            else:
                cur = upward * mask / (1.0 - net.dropout_p)

    if net.use_historical:
        final_src = hists[L - 1].l
    else:
        final_src = layer_traces[-1].h[..., T - 1, :]
    final_probs = head_predict(net.final_head, final_src)
    return ForwardTrace(
        layers=layer_traces,
        masks=masks,
        hists=hists,
        step_probs=step_probs,
        aux_probs=aux_probs,
        final_src=final_src,
        final_probs=final_probs,
    )


def _ce_logit_grad(probs: np.ndarray, label: int) -> np.ndarray:
    """Gradient of the floored cross-entropy w.r.t. softmax logits.

    Zero inside the floored region (the prediction is already essentially
    perfect there), probs - onehot otherwise.
    """
    if -float(np.log(probs[label])) <= EPS_LOSS_FLOOR:
        return np.zeros_like(probs)
    g = probs.copy()
    g[label] -= 1.0
    return g


def _aux_streams(trace: ForwardTrace) -> list:
    """(layer index, per-step probs) pairs entering the auxiliary loss."""
    streams = [(len(trace.layers) - 1, trace.step_probs)]
    for k, ap in enumerate(trace.aux_probs):
        if ap is not None:
            streams.append((k, ap))
    return streams


def total_loss(
    net: StackedNetwork,
    trace: ForwardTrace,
    label: int,
    lambda_aux: float = 0.5,
    l2: float = 0.0,
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
        loss += l2 * sum(_sum_of_squares(a, bool(net.stack_shape)) for a in net.l2_arrays())
    return loss if net.stack_shape else float(loss)


def _sum_of_squares(a: np.ndarray, stacked: bool):
    """Sum of a's squared entries, or of each a[k]'s for a stack: one BLAS
    dot product per parameter set either way."""
    if not stacked:
        return float(np.dot(a.ravel(), a.ravel()))
    v = a.reshape(len(a), 1, -1)
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
        elif rec.branch == "trunc":
            w = rec.weights  # the window: rows t+1-len(w)..t
            dH[t + 1 - len(w): t + 1] += w[:, None] * dl[None, :]
            dl = np.zeros(U)
        else:  # init at t == 0: l_1 = h_1
            dH[0] += dl
            dl = np.zeros(U)
    return dH


def _layer_backward(
    p: LstmParams, lt: LayerTrace, dH_in: np.ndarray, grads: dict, prefix: str
) -> np.ndarray:
    """BPTT through one LSTM layer; accumulates into grads, returns dX.

    The output gate peeks at the fresh cell, so its peephole contribution
    joins dc before the input/forget/candidate gates are handled.
    """
    T, U = lt.h.shape
    diag = p.P_i.ndim == 1
    DZi = np.empty((T, U))
    DZf = np.empty((T, U))
    DZc = np.empty((T, U))
    DZo = np.empty((T, U))
    dP_i = np.zeros_like(p.P_i)
    dP_f = np.zeros_like(p.P_f)
    dP_o = np.zeros_like(p.P_o)
    dh_carry = np.zeros(U)
    dc_carry = np.zeros(U)
    zero = np.zeros(U)
    for t in reversed(range(T)):
        dh = dH_in[t] + dh_carry
        c_prev = lt.c[t - 1] if t > 0 else zero
        i, f, g, o, tc = lt.i[t], lt.f[t], lt.g[t], lt.o[t], lt.tc[t]
        do = dh * tc
        dzo = do * o * (1.0 - o)
        dc = dc_carry + dh * o * (1.0 - tc * tc)
        dc = dc + (p.P_o * dzo if diag else p.P_o.T @ dzo)
        di = dc * g
        df = dc * c_prev
        dg = dc * i
        dzi = di * i * (1.0 - i)
        dzf = df * f * (1.0 - f)
        dzc = dg * (1.0 - g * g)
        if diag:
            dP_i += dzi * c_prev
            dP_f += dzf * c_prev
            dP_o += dzo * lt.c[t]
        else:
            dP_i += np.outer(dzi, c_prev)
            dP_f += np.outer(dzf, c_prev)
            dP_o += np.outer(dzo, lt.c[t])
        dh_carry = p.W_i.T @ dzi + p.W_f.T @ dzf + p.W_c.T @ dzc + p.W_o.T @ dzo
        dc_carry = dc * f
        dc_carry = dc_carry + (
            p.P_i * dzi + p.P_f * dzf if diag else p.P_i.T @ dzi + p.P_f.T @ dzf
        )
        DZi[t] = dzi
        DZf[t] = dzf
        DZc[t] = dzc
        DZo[t] = dzo
    X = lt.x
    H_prev = np.vstack([np.zeros((1, U)), lt.h[:-1]])
    grads[prefix + "U_i"] += DZi.T @ X
    grads[prefix + "U_f"] += DZf.T @ X
    grads[prefix + "U_c"] += DZc.T @ X
    grads[prefix + "U_o"] += DZo.T @ X
    grads[prefix + "W_i"] += DZi.T @ H_prev
    grads[prefix + "W_f"] += DZf.T @ H_prev
    grads[prefix + "W_c"] += DZc.T @ H_prev
    grads[prefix + "W_o"] += DZo.T @ H_prev
    grads[prefix + "b_i"] += DZi.sum(axis=0)
    grads[prefix + "b_f"] += DZf.sum(axis=0)
    grads[prefix + "b_c"] += DZc.sum(axis=0)
    grads[prefix + "b_o"] += DZo.sum(axis=0)
    grads[prefix + "P_i"] += dP_i
    grads[prefix + "P_f"] += dP_f
    grads[prefix + "P_o"] += dP_o
    return DZi @ p.U_i + DZf @ p.U_f + DZc @ p.U_c + DZo @ p.U_o


def backward_sequence(
    net: StackedNetwork,
    trace: ForwardTrace,
    label: int,
    lambda_aux: float = 0.5,
    l2: float = 0.0,
) -> dict:
    """Gradient of total_loss w.r.t. every parameter block.

    Differentiates the pinned forward pass (the trace's masks and branch
    schedule are constants), which is exactly the function a replayed
    forward evaluates.
    """
    grads = zero_grads(net)
    L = len(net.layers)
    T = trace.T
    scored = set(_scored_layers(net))

    # Final head.
    dz_final = _ce_logit_grad(trace.final_probs, label)
    grads["final.V"] += np.outer(dz_final, trace.final_src)
    grads["final.c"] += dz_final
    d_final_src = net.final_head.V.T @ dz_final

    # Per-step scoring heads; each scored stream carries equal weight in the
    # auxiliary mean.
    streams = _aux_streams(trace)
    coef = lambda_aux / (len(streams) * T) if lambda_aux != 0.0 else 0.0
    dH_heads = {k: np.zeros_like(trace.layers[k].h) for k, _ in streams}
    if coef != 0.0:
        for k, probs in streams:
            head, _ = _scoring_heads(net, k)
            name = "per_step" if k == L - 1 else f"aux{k}"
            for t in range(T):
                dz = coef * _ce_logit_grad(probs[t], label)
                grads[name + ".V"] += np.outer(dz, trace.layers[k].h[t])
                grads[name + ".c"] += dz
                dH_heads[k][t] += head.V.T @ dz

    # Layers, top down. d_from_above is the gradient w.r.t. the value layer
    # k passed upward (dropout already unwound).
    d_from_above: Optional[np.ndarray] = None
    for k in reversed(range(L)):
        top = k == L - 1
        dH = dH_heads.get(k)
        dH = dH.copy() if dH is not None else np.zeros_like(trace.layers[k].h)
        if k in scored:
            dl_in = np.zeros_like(trace.layers[k].h)
            if top:
                dl_in[T - 1] += d_final_src
            else:
                dl_in += d_from_above
            dH += _historical_backward(trace.hists[k].records, dl_in)
        else:
            if top:
                dH[T - 1] += d_final_src
            else:
                dH += d_from_above
        dX = _layer_backward(net.layers[k], trace.layers[k], dH, grads, f"layer{k}.")
        if k > 0:
            mask = trace.masks[k - 1]
            if mask is None:
                d_from_above = dX
            else:
                d_from_above = dX * mask / (1.0 - net.dropout_p)

    if l2 != 0.0:
        for name, arr in net.param_blocks():
            if is_weight_matrix(name):
                grads[name] += 2.0 * l2 * arr
    return grads


def _index_of(value: str, options: tuple, what: str) -> int:
    try:
        return options.index(value)
    except ValueError:
        raise ValueError(f"unknown {what} {value!r}") from None


def param_count(input_dim: int, layer_units: Sequence[int], n_classes: int,
                hist_placement: str, peephole: str) -> int:
    """Size of flatten_params() for a network of this shape, worked out
    without allocating it, so a checkpoint's header can be checked first."""
    count = 0
    d = input_dim
    for u in layer_units:
        peep = u if peephole == "diag" else u * u
        count += 4 * (u * d + u * u + u) + 3 * peep
        d = u
    head_widths = list(layer_units[:-1]) if hist_placement == "all" else []
    head_widths += [layer_units[-1]] * 2  # per-step and final heads
    return count + sum(n_classes * (u + 1) for u in head_widths)


def save_checkpoint(net: StackedNetwork, path: str) -> None:
    """Binary snapshot: versioned header, then every parameter block as raw
    64-bit little-endian floats in the canonical block order."""
    L = len(net.layers)
    head = [
        CHECKPOINT_MAGIC,
        struct.pack("<III", CHECKPOINT_VERSION, net.n_classes, net.input_dim),
        struct.pack("<I", L),
        struct.pack(f"<{L}I", *net.layer_units),
        struct.pack(
            "<6B",
            _index_of(net.layers[0].peephole, PEEPHOLE_MODES, "peephole mode"),
            _index_of(net.hist_placement, HIST_PLACEMENTS, "placement"),
            int(net.use_historical),
            _index_of(net.hist_cfg.alpha_policy, ALPHA_POLICIES, "alpha policy"),
            _index_of(net.hist_cfg.window_mode, WINDOW_MODES, "window mode"),
            _index_of(net.hist_cfg.inference_policy, INFERENCE_POLICIES,
                      "inference policy"),
        ),
        struct.pack("<I", net.hist_cfg.tau),
        struct.pack("<d", net.dropout_p),
    ]
    with open(path, "wb") as fh:
        for chunk in head:
            fh.write(chunk)
        for _, arr in net.param_blocks():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path: str) -> StackedNetwork:
    """Inverse of save_checkpoint; rejects wrong magic and truncated files."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:6] != CHECKPOINT_MAGIC:
        raise ValueError(
            f"{path}: not a checkpoint (magic {raw[:6]!r}, expected {CHECKPOINT_MAGIC!r})"
        )
    pos = 6

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(raw):
            raise ValueError(f"{path}: truncated checkpoint at byte {pos}")
        chunk = raw[pos:pos + n]
        pos += n
        return chunk

    version, n_classes, input_dim = struct.unpack("<III", take(12))
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    (n_layers,) = struct.unpack("<I", take(4))
    units = list(struct.unpack(f"<{n_layers}I", take(4 * n_layers)))
    sizes = [("layer count", n_layers), ("input_dim", input_dim),
             ("class count", n_classes)]
    for what, value in sizes + [(f"layer {k} units", u) for k, u in enumerate(units)]:
        if value < 1:
            raise ValueError(f"{path}: checkpoint declares {what} {value}")
    use_hist_at = pos + 2
    peep_i, place_i, use_hist, alpha_i, window_i, infer_i = struct.unpack(
        "<6B", take(6)
    )
    if use_hist not in (0, 1):
        raise ValueError(f"{path}: byte {use_hist_at}: bad use_historical flag {use_hist}")
    tau_at = pos
    (tau,) = struct.unpack("<I", take(4))
    dropout_at = pos
    (dropout_p,) = struct.unpack("<d", take(8))
    for idx, options, what in (
        (peep_i, PEEPHOLE_MODES, "peephole mode"),
        (place_i, HIST_PLACEMENTS, "placement"),
        (alpha_i, ALPHA_POLICIES, "alpha policy"),
        (window_i, WINDOW_MODES, "window mode"),
        (infer_i, INFERENCE_POLICIES, "inference policy"),
    ):
        if idx >= len(options):
            raise ValueError(f"{path}: bad {what} tag {idx}")
    try:
        hist_cfg = HistoricalConfig(
            tau=tau,
            window_mode=WINDOW_MODES[window_i],
            alpha_policy=ALPHA_POLICIES[alpha_i],
            inference_policy=INFERENCE_POLICIES[infer_i],
        )
    except ValueError as exc:
        raise ValueError(f"{path}: byte {tau_at}: {exc}") from None
    placement, peephole = HIST_PLACEMENTS[place_i], PEEPHOLE_MODES[peep_i]
    n_params = param_count(input_dim, units, n_classes, placement, peephole)
    end = pos + 8 * n_params
    if end > len(raw):
        raise ValueError(
            f"{path}: truncated checkpoint at byte {len(raw)}: the header declares "
            f"{n_params} parameters, ending at byte {end}"
        )
    if end < len(raw):
        raise ValueError(f"{path}: {len(raw) - end} trailing bytes after parameters")

    # Build a throwaway network with the right shapes, then fill it. The tags
    # and sizes are checked above, so dropout_p is the one field it can reject.
    try:
        net = build_network(
            rng=np.random.default_rng(0),
            input_dim=input_dim,
            layer_units=units,
            n_classes=n_classes,
            dropout_p=dropout_p,
            hist_cfg=hist_cfg,
            hist_placement=placement,
            peephole=peephole,
            use_historical=bool(use_hist),
        )
    except ValueError as exc:
        raise ValueError(f"{path}: byte {dropout_at}: {exc}") from None
    net.set_flat(np.frombuffer(raw, dtype="<f8", count=n_params, offset=pos))
    return net


def predict(net: StackedNetwork, x) -> int:
    """Evaluation-mode class prediction for one sequence."""
    trace = forward_sequence(net, x, training=False)
    return int(np.argmax(trace.final_probs))
