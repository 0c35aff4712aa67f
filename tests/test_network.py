import hashlib
import inspect
import math
import os
import re
import struct

import numpy as np
import pytest

from histlstm.cells import (
    LSTM_FIELDS,
    PEEPHOLE_MODES,
    LstmParams,
    LstmState,
    head_predict,
    lstm_step,
    peep_apply,
)
from dataclasses import replace

from histlstm import network
from histlstm.historical import (
    ALPHA_POLICIES,
    INFERENCE_POLICIES,
    WINDOW_MODES,
    HistoricalConfig,
    historical_update,
    initial_trace,
    step_loss,
)
from histlstm.network import (
    HIST_PLACEMENTS,
    _aux_streams,
    _ce_logit_grad,
    _historical_backward,
    _layer_backward,
    _layer_forward,
    backward_sequence,
    build_network,
    forward_sequence,
    is_weight_matrix,
    load_checkpoint,
    param_count,
    param_layout,
    predict,
    save_checkpoint,
    total_loss,
)
from histlstm.numerics import EPS_LOSS_FLOOR, ShapeError, cross_entropy, finite_diff, sigmoid


def tiny_net(seed=0, units=(3, 3), input_dim=2, n_classes=3, dropout=0.0,
             use_historical=True, placement="top", peephole="diag",
             cfg=None):
    return build_network(
        rng=np.random.default_rng(seed),
        input_dim=input_dim,
        layer_units=units,
        n_classes=n_classes,
        dropout_p=dropout,
        hist_cfg=cfg if cfg is not None else HistoricalConfig(tau=2),
        hist_placement=placement,
        peephole=peephole,
        use_historical=use_historical,
    )


def lstm_params(net, k, theta=None):
    """Layer k's per-gate LstmParams, the lstm_step oracle's form: views of
    theta (P,), by default the network's own."""
    views = net.views(net.theta if theta is None else theta)
    return LstmParams(*(views[f"layer{k}.{f}"] for f in LSTM_FIELDS))


def straight_line_training(net, X, label):
    """Independent composition of the primitive steps, no batching tricks."""
    T = X.shape[0]
    cur = X
    layer_h, layer_c = [], []
    for k in range(len(net.layer_units)):
        p = lstm_params(net, k)
        state = LstmState.zero(p.units)
        hs, cs = [], []
        for t in range(T):
            state = lstm_step(p, state, cur[t])
            hs.append(state.h)
            cs.append(state.c)
        layer_h.append(np.stack(hs))
        layer_c.append(np.stack(cs))
        cur = layer_h[-1]
    H = layer_h[-1]
    probs = np.stack([head_predict(net.per_step_head, H[t]) for t in range(T)])
    loss_fn = lambda s: step_loss(net.final_head, s, label)  # noqa: E731
    hist = initial_trace(H[0], loss_fn)
    for t in range(1, T):
        hist = historical_update(hist, H[t], cross_entropy(probs[t], label),
                                 net.hist_cfg, loss_fn)
    final = head_predict(net.final_head, hist.l)
    return layer_h, layer_c, probs, hist, final


class TestForwardSequence:
    def test_t1_historical_is_first_response(self):
        net = tiny_net(seed=1)
        x = np.random.default_rng(2).standard_normal((1, 2))
        trace = forward_sequence(net, x, label=0, training=True)
        h1 = trace.layers[-1].h[0]
        assert np.array_equal(trace.final_src, h1)
        expected = head_predict(net.final_head, h1)
        assert np.array_equal(trace.final_probs, expected)

    def test_zero_heads_uniform_prediction(self):
        net = tiny_net(seed=3, n_classes=4)
        net.final_head.V[:] = 0.0
        net.final_head.c[:] = 0.0
        x = np.random.default_rng(4).standard_normal((5, 2))
        trace = forward_sequence(net, x)
        assert np.allclose(trace.final_probs, 0.25, atol=1e-15)

    @pytest.mark.parametrize("policy", ["literal", "clamped", "inverse_loss"])
    def test_training_forward_matches_straight_line(self, policy):
        net = tiny_net(seed=5, cfg=HistoricalConfig(tau=2, alpha_policy=policy))
        X = np.random.default_rng(6).standard_normal((4, 2))
        trace = forward_sequence(net, X, label=1, training=True)
        layer_h, layer_c, probs, hist, final = \
            straight_line_training(net, X, 1)
        for k in range(2):
            assert np.allclose(trace.layers[k].h, layer_h[k], atol=1e-12)
            assert np.allclose(trace.layers[k].c, layer_c[k], atol=1e-12)
        assert np.allclose(trace.probs[-1], probs, atol=1e-12)
        assert [r.branch for r in trace.hists[-1].records] == \
            [r.branch for r in hist.records]
        assert np.allclose(trace.hists[-1].l, hist.l, atol=1e-12)
        assert np.allclose(trace.final_probs, final, atol=1e-12)

    def test_eval_forward_matches_straight_line(self):
        # one loop over the inference policies keeps this test's id stable
        for policy in INFERENCE_POLICIES:
            cfg = HistoricalConfig(tau=2, inference_policy=policy)
            net = tiny_net(seed=7, units=(3,), cfg=cfg)
            X = np.random.default_rng(8).standard_normal((4, 2))
            trace = forward_sequence(net, X, training=False)
            p = lstm_params(net, 0)
            state = LstmState.zero(3)
            H = []
            for t in range(4):
                state = lstm_step(p, state, X[t])
                H.append(state.h)
            H = np.stack(H)
            psh, fh = net.per_step_head, net.final_head
            probs = [head_predict(psh, H[t]) for t in range(4)]

            def loss_fn(t):
                if policy == "fixed_blend":
                    return lambda s: 1.0
                pseudo = int(np.argmax(probs[t]))
                return lambda s: step_loss(fh, s, pseudo)

            def eps_h(t):
                if policy == "fixed_blend":
                    return 1.0
                return cross_entropy(probs[t], int(np.argmax(probs[t])))

            hist = initial_trace(H[0], loss_fn(0))
            for t in range(1, 4):
                # both losses of step t score against step t's pseudo-label
                hist = historical_update(replace(hist, eps_l=loss_fn(t)(hist.l)), H[t],
                                         eps_h(t), net.hist_cfg, loss_fn(t))
            assert [r.branch for r in trace.hists[-1].records] == \
                [r.branch for r in hist.records], policy
            assert np.allclose(trace.hists[-1].l, hist.l, atol=1e-12), policy

    @pytest.mark.parametrize("placement", HIST_PLACEMENTS)
    def test_eval_steps_share_one_pseudo_label(self, placement):
        # eps_h and the rescored eps_l of step t both score against
        # y_t = argmax(probs[k][t]), bit for bit, on every scored layer k
        net = tiny_net(seed=20, units=(16, 16), n_classes=4, placement=placement)
        for trial in range(8):
            X = np.random.default_rng([21, trial]).standard_normal((12, 2)) * 2
            trace = forward_sequence(net, X)
            for k, hist in enumerate(trace.hists):
                if hist is None:
                    continue
                probs, l_head = trace.probs[k], net.scorers[k][1]
                ys = [int(np.argmax(p)) for p in probs]
                assert hist.records[0].eps_l_new == step_loss(l_head, hist.l_history[0], ys[0])
                for t in range(1, 12):
                    rec = hist.records[t]
                    assert rec.eps_h == cross_entropy(probs[t], ys[t]), (k, t)
                    assert rec.eps_l_prev == \
                        step_loss(l_head, hist.l_history[t - 1], ys[t]), (k, t)
                    assert rec.eps_l_new == step_loss(l_head, hist.l_history[t], ys[t])

    @pytest.mark.parametrize("placement", HIST_PLACEMENTS)
    def test_eval_head_evaluations_per_scored_layer(self, placement, monkeypatch):
        # per scored layer one call for the per-step scores and one for the
        # truncation states, one score per new state, plus one rescoring of
        # l_{t-1} per pseudo-label change; then the final head's one call
        calls = []
        monkeypatch.setattr(network, "head_predict",
                            lambda head, s: calls.append(1) or head_predict(head, s))
        net = tiny_net(seed=22, placement=placement)
        X = np.random.default_rng(23).standard_normal((15, 2)) * 2
        trace = forward_sequence(net, X)
        budget = 1
        for k, hist in enumerate(trace.hists):
            if hist is not None:
                ys = np.argmax(trace.probs[k], axis=1)
                budget += 2 + 15 + int(np.count_nonzero(ys[1:] != ys[:-1]))
        assert 0 < len(calls) <= budget

    def test_forward_determinism_bitwise(self):
        net = tiny_net(seed=9, dropout=0.5)
        X = np.random.default_rng(10).standard_normal((5, 2))
        a = forward_sequence(net, X, label=2, training=True,
                             rng=np.random.default_rng(42))
        b = forward_sequence(net, X, label=2, training=True,
                             rng=np.random.default_rng(42))
        assert np.array_equal(a.final_probs, b.final_probs)
        assert np.array_equal(a.probs[-1], b.probs[-1])
        for ma, mb in zip(a.masks, b.masks):
            assert np.array_equal(ma, mb)
        # inverted dropout: the next layer sees upward * mask / (1 - p)
        assert np.array_equal(a.layers[1].x, a.layers[0].h * a.masks[0] / (1 - 0.5))

    def test_eval_is_dropout_free_label_free_and_pure(self):
        net = tiny_net(seed=11, dropout=0.7)
        before = net.flatten_params().copy()
        X = np.random.default_rng(12).standard_normal((6, 2))
        a = forward_sequence(net, X)
        b = forward_sequence(net, X)
        assert np.array_equal(a.final_probs, b.final_probs)
        assert a.masks == [None]
        assert np.array_equal(net.flatten_params(), before)

    def test_baseline_reads_last_response(self):
        net = tiny_net(seed=13, use_historical=False)
        X = np.random.default_rng(14).standard_normal((5, 2))
        trace = forward_sequence(net, X)
        assert trace.hists == [None, None]
        assert np.array_equal(trace.final_src, trace.layers[-1].h[4])

    def test_replay_reproduces_pass_bitwise(self):
        # one loop over the placements keeps this test's id stable
        for placement in HIST_PLACEMENTS:
            net = tiny_net(seed=15, dropout=0.4, placement=placement)
            X = np.random.default_rng(16).standard_normal((5, 2))
            ref = forward_sequence(net, X, label=1, training=True,
                                   rng=np.random.default_rng(7))
            again = forward_sequence(net, X, label=1, training=True,
                                     replay_from=ref)
            assert np.array_equal(again.final_probs, ref.final_probs)
            for ma, mb in zip(again.masks, ref.masks):
                assert np.array_equal(ma, mb)
            scored = [k for k, h in enumerate(ref.hists) if h is not None]
            assert scored == ([0, 1] if placement == "all" else [1])
            for k in scored:
                mine, theirs = again.hists[k], ref.hists[k]
                assert len(mine.records) == len(theirs.records) == 5
                for a, b in zip(mine.records, theirs.records):
                    assert (a.branch, a.eps_h, a.eps_l_prev, a.eps_l_new, a.alpha) == \
                        (b.branch, b.eps_h, b.eps_l_prev, b.eps_l_new, b.alpha)
                    assert (a.weights is None and b.weights is None) or \
                        np.array_equal(a.weights, b.weights)
                for la, lb in zip(mine.l_history, theirs.l_history, strict=True):
                    assert np.array_equal(la, lb)

    @pytest.mark.parametrize("placement", HIST_PLACEMENTS)
    def test_replay_of_sliding_passes_with_and_without_truncation(self, placement):
        # a live sliding pass takes its truncation states from the batch it
        # forms up front, a replay re-sums each recorded window; with every
        # head matrix zero, all states score alike and every step blends
        cfg = HistoricalConfig(tau=3, alpha_policy="inverse_loss")
        truncating = tiny_net(seed=25, dropout=0.3, placement=placement, cfg=cfg)
        blending = truncating.clone()
        for name, block in blending.views(blending.theta).items():
            if name.endswith(".V"):
                block[...] = 0.0
        X = np.random.default_rng(26).standard_normal((12, 2)) * 2
        for net, truncates in ((truncating, True), (blending, False)):
            ref = forward_sequence(net, X, label=2, training=True, rng=np.random.default_rng(27))
            again = forward_sequence(net, X, label=2, training=True, replay_from=ref)
            branches = {r.branch for h in ref.hists if h is not None for r in h.records}
            assert ("trunc" in branches) == truncates
            assert np.array_equal(again.final_probs, ref.final_probs)
            for mine, theirs in zip(again.hists, ref.hists, strict=True):
                if theirs is None:
                    continue
                for a, b in zip(mine.records, theirs.records, strict=True):
                    assert (a.branch, a.eps_h, a.eps_l_prev, a.eps_l_new, a.alpha) == \
                        (b.branch, b.eps_h, b.eps_l_prev, b.eps_l_new, b.alpha)
                    assert (a.weights is None) == (b.weights is None)
                    assert a.weights is None or np.array_equal(a.weights, b.weights)
                for la, lb in zip(mine.l_history, theirs.l_history, strict=True):
                    assert np.array_equal(la, lb)

    def test_errors(self):
        net = tiny_net(seed=17)
        with pytest.raises(ShapeError):
            forward_sequence(net, np.zeros((3, 5)))
        for X in (np.zeros(2), np.zeros((0, 2))):
            with pytest.raises(ShapeError, match=r"^a sequence must be a \(T, D\) array with "
                                                 rf"T >= 1, got {re.escape(str(X.shape))}$"):
                forward_sequence(net, X)
        assert forward_sequence(net, np.zeros((1, 3, 2))).final_probs.shape == (1, 3)
        with pytest.raises(ValueError):
            forward_sequence(net, np.zeros((3, 2)), training=True)  # no label
        with pytest.raises(ValueError):
            forward_sequence(net, np.full((3, 2), np.nan))
        with pytest.raises(ValueError, match="generator"):  # dropout, no rng
            forward_sequence(tiny_net(seed=17, dropout=0.5), np.zeros((3, 2)),
                             label=0, training=True)
        with pytest.raises(ValueError, match="dropout_p"):
            tiny_net(seed=17, dropout=1.0)

    def test_parameter_names_and_order(self):
        # perfbench/tracer.py reads x, training and replay_from by position
        # (1, 3 and 5) when a caller passes them positionally, so a renamed
        # or reordered parameter would miscount the traced steps and modes.
        assert list(inspect.signature(forward_sequence).parameters) == [
            "net", "x", "label", "training", "rng", "replay_from"]

    def test_fixed_blend_clamped_holds_first_response_exactly(self):
        cfg = HistoricalConfig(tau=3, alpha_policy="clamped",
                               inference_policy="fixed_blend")
        net = tiny_net(seed=18, cfg=cfg)
        for trial in range(5):
            X = np.random.default_rng([19, trial]).standard_normal((12, 2)) * 3
            trace = forward_sequence(net, X)
            assert np.array_equal(trace.final_src, trace.layers[-1].h[0])
            assert all(r.branch in ("init", "blend")
                       for r in trace.hists[-1].records)


def assert_same_trace(a, b):
    """Two traces of one sequence, bit for bit: every layer array, mask,
    per-step prediction, step record and historical state."""
    for la, lb in zip(a.layers, b.layers, strict=True):
        for name in ("x", "h", "c", "tc", "gates"):
            assert np.array_equal(getattr(la, name), getattr(lb, name)), name
    for ma, mb in zip(a.masks, b.masks, strict=True):
        assert (ma is None and mb is None) or np.array_equal(ma, mb)
    for pa, pb in zip(a.probs, b.probs, strict=True):
        assert (pa is None and pb is None) or np.array_equal(pa, pb)
    for ha, hb in zip(a.hists, b.hists, strict=True):
        assert (ha is None) == (hb is None)
        if ha is not None:
            assert_same_hist(ha, hb)
    assert np.array_equal(a.final_src, b.final_src)
    assert np.array_equal(a.final_probs, b.final_probs)


def assert_same_hist(ha, hb):
    """Two recursions of one sequence, bit for bit: every step record, every
    state and the last loss."""
    assert ha.eps_l == hb.eps_l and np.array_equal(ha.l, hb.l)
    for ra, rb in zip(ha.records, hb.records, strict=True):
        assert (ra.branch, ra.eps_h, ra.eps_l_prev, ra.eps_l_new, ra.alpha) == \
            (rb.branch, rb.eps_h, rb.eps_l_prev, rb.eps_l_new, rb.alpha)
        assert (ra.weights is None) == (rb.weights is None)
        assert ra.weights is None or np.array_equal(ra.weights, rb.weights)
    for la, lb in zip(ha.l_history, hb.l_history, strict=True):
        assert np.array_equal(la, lb)


class TestTrainingBatch:
    """A live training pass over a batch (B, T, D): row b is bit for bit the
    pass over sequence b alone, masks drawn in the same generator order."""

    B, T = 5, 9

    def net(self, seed, placement, peephole, use_historical=True, **hist):
        # random heads without biases make the recursion blend and truncate
        rng = np.random.default_rng(seed)
        net = build_network(rng, 2, (4, 3, 3), 3, dropout_p=0.3,
                            hist_cfg=HistoricalConfig(tau=2, **hist), hist_placement=placement,
                            peephole=peephole, use_historical=use_historical)
        net.theta[...] = 0.8 * rng.standard_normal(net.theta.size)
        for scorer in filter(None, net.scorers):
            scorer[0].c[...] = 0.0
            scorer[1].c[...] = 0.0
        return net

    def check(self, net, seed):
        data = np.random.default_rng([seed, 1])
        X = 1.5 * data.standard_normal((self.B, self.T, 2))
        labels = data.integers(3, size=self.B)
        rng, alone = np.random.default_rng([seed, 2]), np.random.default_rng([seed, 2])
        with np.errstate(over="ignore", divide="ignore"):
            batch = forward_sequence(net, X, label=labels, training=True, rng=rng)
            rows = [forward_sequence(net, X[b], label=int(labels[b]), training=True, rng=alone)
                    for b in range(self.B)]
        assert rng.bit_generator.state == alone.bit_generator.state
        for lt, u in zip(batch.layers, net.layer_units, strict=True):
            assert lt.h.shape == lt.c.shape == (self.B, self.T, u)
            assert lt.gates.shape == (self.B, self.T, 4, u)
        assert [m.shape for m in batch.masks] == [(self.B, self.T, 4), (self.B, self.T, 3)]
        branches = set()
        for b, single in enumerate(rows):
            mine = batch.row(b)
            assert_same_trace(mine, single)
            y = int(labels[b])
            assert np.array_equal(backward_sequence(net, mine, y, 0.5, 0.004),
                                  backward_sequence(net, single, y, 0.5, 0.004))
            branches |= {r.branch for h in single.hists if h is not None for r in h.records}
        return branches

    @pytest.mark.parametrize("peephole", PEEPHOLE_MODES)
    @pytest.mark.parametrize("placement", HIST_PLACEMENTS)
    @pytest.mark.parametrize("window", WINDOW_MODES)
    @pytest.mark.parametrize("alpha", ALPHA_POLICIES)
    def test_rows_are_their_own_passes(self, alpha, window, placement, peephole):
        seed = 3 * ALPHA_POLICIES.index(alpha) + WINDOW_MODES.index(window)
        net = self.net(seed, placement, peephole, alpha_policy=alpha, window_mode=window)
        assert {"blend", "trunc"} <= self.check(net, seed)

    @pytest.mark.parametrize("placement", HIST_PLACEMENTS)
    def test_without_historical_layer(self, placement):
        assert self.check(self.net(7, placement, "diag", use_historical=False), 7) == set()

    def test_errors(self):
        net = self.net(8, "top", "diag")
        X, rng = np.zeros((3, 4, 2)), np.random.default_rng(0)
        with pytest.raises(ShapeError, match=r"^a training batch must be a \(B, T, D\) array with "
                                             r"B, T >= 1 and labels \(B,\), got \(3, 4, 2\) and "
                                             r"labels \(2,\)$"):
            forward_sequence(net, X, label=np.zeros(2, dtype=int), training=True, rng=rng)
        for label in (0, np.zeros((3, 1), dtype=int)):  # only labels (B,) make a batch
            with pytest.raises(ShapeError, match="^a sequence must be a"):
                forward_sequence(net, X, label=label, training=True, rng=rng)
        for bad in (np.zeros((0, 4, 2)), np.zeros((3, 0, 2)), np.zeros((4, 2))):
            with pytest.raises(ShapeError, match="^a training batch must be"):
                forward_sequence(net, bad, label=np.zeros(len(bad), dtype=int), training=True,
                                 rng=rng)
        with pytest.raises(ShapeError, match=r"^sequence has feature dim 3, network expects 2$"):
            forward_sequence(net, np.zeros((3, 4, 3)), label=np.zeros(3, dtype=int),
                             training=True, rng=rng)
        X[1, 2, 0] = np.nan
        with pytest.raises(ValueError, match="^sequence contains non-finite features$"):
            forward_sequence(net, X, label=np.zeros(3, dtype=int), training=True, rng=rng)
        with pytest.raises(ValueError, match="generator"):
            forward_sequence(net, np.zeros((3, 4, 2)), label=np.zeros(3, dtype=int),
                             training=True)


def drive_eval(net, k, H, probs):
    """Layer k's evaluation-mode recursion over one row's responses H (T, U)
    and per-step scores probs (T, C), through initial_trace and
    historical_update: both losses of step t score against step t's
    pseudo-label, so l_{t-1} is rescored at every step."""
    l_head, policy = net.scorers[k][1], net.hist_cfg.inference_policy
    ys = [int(np.argmax(p)) for p in probs]

    def loss_fn(t):
        if policy == "fixed_blend":
            return lambda s: 1.0
        return lambda s: step_loss(l_head, s, ys[t])

    hist = initial_trace(H[0], loss_fn(0))
    for t in range(1, len(H)):
        eps_h = 1.0 if policy == "fixed_blend" else cross_entropy(probs[t], ys[t])
        hist = historical_update(replace(hist, eps_l=loss_fn(t)(hist.l)), H[t], eps_h,
                                 net.hist_cfg, loss_fn(t))
    return hist


class TestEvalSchedule:
    """An evaluation batch's Schedule: each row, read as records and states,
    is bit for bit historical_update's recursion and the row's own pass."""

    def net(self, seed, placement, peephole, **hist):
        # random heads without biases make the recursion blend, truncate and
        # change its pseudo-labels
        rng = np.random.default_rng(seed)
        net = build_network(rng, 3, (4, 3), 3, hist_cfg=HistoricalConfig(tau=2, **hist),
                            hist_placement=placement, peephole=peephole)
        net.theta[...] = rng.standard_normal(net.theta.size)
        for scorer in filter(None, net.scorers):
            scorer[0].c[...] = 0.0
            scorer[0].V[...] *= 3.0
        return net

    @pytest.mark.parametrize("peephole", PEEPHOLE_MODES)
    @pytest.mark.parametrize("placement", HIST_PLACEMENTS)
    @pytest.mark.parametrize("inference", INFERENCE_POLICIES)
    @pytest.mark.parametrize("window", WINDOW_MODES)
    @pytest.mark.parametrize("alpha", ALPHA_POLICIES)
    def test_rows_are_the_reference_recursion(self, alpha, window, inference, placement,
                                              peephole):
        # seeds under which every case blends, and truncates under pseudo_label
        seed = 48 + len(alpha) + 10 * len(window) + 100 * len(placement + peephole)
        net = self.net(seed, placement, peephole, alpha_policy=alpha, window_mode=window,
                       inference_policy=inference)
        data = np.random.default_rng([seed, 1])
        branches = set()
        for B, T in ((3, 1), (1, 2), (4, 7), (3, 17)):
            X = 2.0 * data.standard_normal((B, T, 3))
            with np.errstate(divide="ignore"):  # the literal alpha drives some p to 0
                trace = forward_sequence(net, X)
                rows = [forward_sequence(net, x) for x in X]
                refs = [{k: drive_eval(net, k, trace.layers[k].h[b], trace.probs[k][b])
                         for k in net.scored} for b in range(B)]
            for k in net.scored:
                sched = trace.hists[k]
                assert sched.branch.dtype == np.int8 and sched.L.shape == (B, T, net.layer_units[k])
                for name in ("branch", "alpha", "n", "eps_h", "eps_l_prev", "eps_l_new"):
                    assert getattr(sched, name).shape == (B, T), name
            for b, (single, ref) in enumerate(zip(rows, refs)):
                mine = trace.row(b)
                assert_same_trace(mine, single)
                for k in net.scored:
                    assert_same_hist(mine.hists[k], ref[k])
                    branches |= {r.branch for r in ref[k].records}
        assert "blend" in branches and ("trunc" in branches) == (inference == "pseudo_label")


class TestScoringTable:
    @pytest.mark.parametrize("use_historical", [True, False])
    @pytest.mark.parametrize("placement", HIST_PLACEMENTS)
    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_which_heads_score_which_layers_in_loss_order(self, L, placement, use_historical):
        net = tiny_net(seed=24, units=(3, 4, 2)[:L], placement=placement,
                       use_historical=use_historical)
        top = L - 1
        scored = (() if not use_historical
                  else tuple(range(L)) if placement == "all" else (top,))
        assert net.scored == scored
        views = net.views(net.theta)
        for k, entry in enumerate(net.scorers):
            if k == top:
                head, state_head, name = entry
                assert head is net.per_step_head and state_head is net.final_head
                assert name == "per_step"
            elif k in scored:  # aux head k scores the responses and the states
                head, state_head, name = entry
                assert head is state_head and name == f"aux{k}"
                assert np.shares_memory(head.V, views[name + ".V"])
                assert np.shares_memory(head.c, views[name + ".c"])
            else:
                assert entry is None
        X = np.random.default_rng(25).standard_normal((5, 2))
        trace = forward_sequence(net, X, label=1, training=True)
        for k, probs in enumerate(trace.probs):
            assert (probs is None) == (net.scorers[k] is None)
            assert (trace.hists[k] is None) == (k not in scored)
            if probs is not None:
                assert np.array_equal(probs, head_predict(net.scorers[k][0], trace.layers[k].h))
        # the auxiliary loss sums the top layer first, then the lower ones upward
        assert [k for k, _ in _aux_streams(trace)] == [top] + [k for k in scored if k < top]
        grads = net.views(backward_sequence(net, trace, 1, lambda_aux=0.5, l2=0.004))
        for k in range(top):
            if f"aux{k}.V" in views and net.scorers[k] is None:  # "all" without history
                assert np.array_equal(grads[f"aux{k}.V"], 2.0 * 0.004 * views[f"aux{k}.V"])
                assert not grads[f"aux{k}.c"].any()

    @pytest.mark.parametrize("use_historical", [True, False])
    @pytest.mark.parametrize("placement", HIST_PLACEMENTS)
    def test_batched_eval_scores_steps_only_for_the_recursion(self, placement, use_historical,
                                                                monkeypatch):
        # a layer's per-step scores feed only its historical unit, so a plain
        # net's batch calls no head but the final one
        net = tiny_net(seed=26, placement=placement, use_historical=use_historical)
        called = []

        def spy(head, S):
            called.append(id(head))
            return head_predict(head, S)

        monkeypatch.setattr(network, "head_predict", spy)
        forward_sequence(net, np.random.default_rng(27).standard_normal((4, 5, 2)))
        want = {id(net.final_head)} | {id(net.scorers[k][0]) for k in net.scored}
        assert set(called) == want


class TestTotalLoss:
    def test_no_aux_no_l2_is_final_ce(self):
        net = tiny_net(seed=20)
        X = np.random.default_rng(21).standard_normal((4, 2))
        trace = forward_sequence(net, X, label=2, training=True)
        loss = total_loss(net, trace, 2, lambda_aux=0.0, l2=0.0)
        assert loss == cross_entropy(trace.final_probs, 2)

    def test_zero_network_double_ln4(self):
        net = tiny_net(seed=22, n_classes=4)
        net.theta[...] = 0.0
        X = np.random.default_rng(23).standard_normal((6, 2))
        trace = forward_sequence(net, X, label=1, training=True)
        loss = total_loss(net, trace, 1, lambda_aux=1.0, l2=0.0)
        assert abs(loss - 2.0 * math.log(4.0)) < 1e-12

    def test_l2_term_decomposition(self):
        net = tiny_net(seed=24)
        X = np.random.default_rng(25).standard_normal((3, 2))
        trace = forward_sequence(net, X, label=0, training=True)
        bare = total_loss(net, trace, 0, lambda_aux=0.3, l2=0.0)
        full = total_loss(net, trace, 0, lambda_aux=0.3, l2=0.01)
        w2 = sum(float(np.sum(a * a)) for n, a in net.param_blocks()
                 if is_weight_matrix(n))
        assert abs(full - bare - 0.01 * w2) < 1e-12
        assert w2 > 0.0

    def test_weight_matrix_classification(self):
        assert is_weight_matrix("layer0.U_i")
        assert is_weight_matrix("layer1.W_o")
        assert is_weight_matrix("final.V")
        assert is_weight_matrix("aux0.V")
        assert not is_weight_matrix("layer0.P_i")
        assert not is_weight_matrix("layer0.b_f")
        assert not is_weight_matrix("final.c")


def ce_logit_grad_one(probs, label):
    """The floored cross-entropy's logit gradient for one prediction (C,)."""
    if -float(np.log(probs[label])) <= EPS_LOSS_FLOOR:
        return np.zeros_like(probs)
    g = probs.copy()
    g[label] -= 1.0
    return g


def per_step_backward(net, trace, label, lambda_aux, l2):
    """Reference backward: each scoring head's gradient taken one step at a
    time, in ascending t, and every layer's outside gradient built from a
    zero array."""
    grad = np.zeros(net.theta.shape)
    grads = net.views(grad)
    gate_grads = net.gate_blocks(grad)
    L, T = len(net.layer_units), trace.T
    dz_final = ce_logit_grad_one(trace.final_probs, label)
    grads["final.V"] += np.outer(dz_final, trace.final_src)
    grads["final.c"] += dz_final
    d_final_src = net.final_head.V.T @ dz_final
    streams = _aux_streams(trace)
    coef = lambda_aux / (len(streams) * T) if lambda_aux != 0.0 else 0.0
    dH_heads = {k: np.zeros_like(trace.layers[k].h) for k, _ in streams}
    if coef != 0.0:
        for k, probs in streams:
            head, _, name = net.scorers[k]
            for t in range(T):
                dz = coef * ce_logit_grad_one(probs[t], label)
                grads[name + ".V"] += np.outer(dz, trace.layers[k].h[t])
                grads[name + ".c"] += dz
                dH_heads[k][t] += head.V.T @ dz
    d_from_above = None
    for k in reversed(range(L)):
        top = k == L - 1
        dH = dH_heads[k].copy() if k in dH_heads else np.zeros_like(trace.layers[k].h)
        d_in = np.zeros_like(trace.layers[k].h)
        if top:
            d_in[T - 1] += d_final_src
        else:
            d_in += d_from_above
        dH += _historical_backward(trace.hists[k].records, d_in) if k in net.scored else d_in
        dX = _layer_backward(net.gates[k], trace.layers[k], dH, gate_grads[k], k > 0)
        if k > 0:
            mask = trace.masks[k - 1]
            d_from_above = dX if mask is None else dX * mask / (1.0 - net.dropout_p)
    for name, arr in net.param_blocks():
        if is_weight_matrix(name):
            grads[name] += 2.0 * l2 * arr
    return grad


class TestBackwardSequence:
    @pytest.mark.parametrize("placement", HIST_PLACEMENTS)
    @pytest.mark.parametrize("peephole", PEEPHOLE_MODES)
    @pytest.mark.parametrize("window_mode", WINDOW_MODES)
    @pytest.mark.parametrize("alpha_policy", ALPHA_POLICIES)
    def test_bits_equal_the_per_step_head_loop(self, placement, peephole, window_mode,
                                               alpha_policy):
        cfg = HistoricalConfig(tau=3, window_mode=window_mode, alpha_policy=alpha_policy)
        X = np.random.default_rng(41).standard_normal((12, 2))
        # A head bias of 14.5 on the label puts some steps in the floored region.
        for boost, lambda_aux in [(0.0, 0.0), (0.0, 1.0), (14.5, 1.0)]:
            net = tiny_net(seed=40, units=(3, 4, 3), dropout=0.3, placement=placement,
                           peephole=peephole, cfg=cfg)
            for name, arr in net.param_blocks():
                if name.endswith(".c") and name != "final.c":
                    arr[1] += boost
            trace = forward_sequence(net, X, label=1, training=True,
                                     rng=np.random.default_rng(42))
            assert any(m is not None and not m.all() for m in trace.masks)
            got = backward_sequence(net, trace, 1, lambda_aux, l2=0.004)
            want = per_step_backward(net, trace, 1, lambda_aux, l2=0.004)
            assert got.tobytes() == want.tobytes()

    def test_logit_grad_of_a_stack_is_its_rows(self):
        probs = np.array([
            [0.2, 0.5, 0.3],
            [1e-8, 1.0 - 2e-8, 1e-8],  # -ln p[1] = 2e-8: inside the floor
            [0.7, 0.1, 0.2],
            [0.0, 1.0, 0.0],  # -ln p[1] = 0
        ])
        assert -np.log(probs[1, 1]) <= EPS_LOSS_FLOOR
        G = _ce_logit_grad(probs, 1)
        onehot = np.array([0.0, 1.0, 0.0])
        for t in (0, 2):
            assert np.array_equal(G[t], probs[t] - onehot)
        for t in (1, 3):
            assert np.array_equal(G[t], np.zeros(3)) and not np.signbit(G[t]).any()
        rows = np.stack([_ce_logit_grad(p, 1) for p in probs])
        assert G.tobytes() == rows.tobytes()
        assert G.tobytes() == np.stack([ce_logit_grad_one(p, 1) for p in probs]).tobytes()

    def test_l2_only_gradient(self):
        net = tiny_net(seed=26)
        X = np.random.default_rng(27).standard_normal((3, 2))
        # park the forward at the loss floor so only the l2 term is active
        net.final_head.c[1] += 200.0
        trace = forward_sequence(net, X, label=1, training=True)
        assert cross_entropy(trace.final_probs, 1) == EPS_LOSS_FLOOR
        grads = net.views(backward_sequence(net, trace, 1, lambda_aux=0.0, l2=0.004))
        for name, arr in net.param_blocks():
            if is_weight_matrix(name):
                assert np.allclose(grads[name], 2.0 * 0.004 * arr, atol=1e-15)
            else:
                assert np.array_equal(grads[name], np.zeros_like(arr))

    @pytest.mark.parametrize("use_historical", [False, True])
    def test_an_evaluation_trace_is_refused(self, use_historical):
        # an evaluation trace keeps no gates, and a plain network's scores
        # no step: each refusal asks for a training-mode trace
        net = tiny_net(seed=31, units=(3,), use_historical=use_historical)
        X = np.random.default_rng(32).standard_normal((5, 2))
        trace = forward_sequence(net, X)
        with pytest.raises(ValueError, match="^backward_sequence needs a training-mode trace"):
            backward_sequence(net, trace, 1, lambda_aux=0.5, l2=0.004)
        assert np.isfinite(total_loss(net, trace, 1, lambda_aux=0.0, l2=0.004))
        if use_historical:  # its layer's steps are scored for the recursion
            assert np.isfinite(total_loss(net, trace, 1, lambda_aux=0.5, l2=0.004))
        else:
            with pytest.raises(ValueError, match="^lambda_aux != 0 needs a training-mode trace"):
                total_loss(net, trace, 1, lambda_aux=0.5, l2=0.004)

    def test_gradients_vanish_at_confident_optimum(self):
        net = tiny_net(seed=28)
        net.final_head.c[0] += 200.0
        X = np.random.default_rng(29).standard_normal((4, 2))
        trace = forward_sequence(net, X, label=0, training=True)
        grads = backward_sequence(net, trace, 0, lambda_aux=0.0, l2=0.0)
        assert np.array_equal(grads, np.zeros_like(net.theta))

    @pytest.mark.parametrize("placement,peephole,units", [
        ("top", "diag", (3, 3)),
        ("top", "full", (3, 3)),
        ("all", "diag", (3, 3, 3)),
    ])
    def test_matches_finite_difference(self, placement, peephole, units):
        net = tiny_net(seed=30, units=units, placement=placement,
                       peephole=peephole,
                       cfg=HistoricalConfig(tau=2, alpha_policy="inverse_loss"))
        X = np.random.default_rng(31).standard_normal((4, 2))
        ref = forward_sequence(net, X, label=1, training=True)
        analytic = backward_sequence(net, ref, 1, lambda_aux=0.5, l2=0.003)
        theta0 = net.flatten_params().copy()

        def loss_at(theta):
            probe = net.clone()
            probe.theta[...] = theta
            trace = forward_sequence(probe, X, label=1, training=True,
                                     replay_from=ref)
            return total_loss(probe, trace, 1, lambda_aux=0.5, l2=0.003)

        numeric = finite_diff(loss_at, theta0, 1e-5)
        rel = np.abs(analytic - numeric) / np.maximum(
            np.maximum(np.abs(analytic), np.abs(numeric)), 1e-4)
        assert rel.max() < 1e-4

    def test_dropout_gradient_uses_stored_masks(self):
        net = tiny_net(seed=32, dropout=0.5)
        X = np.random.default_rng(33).standard_normal((3, 2))
        ref = forward_sequence(net, X, label=2, training=True,
                               rng=np.random.default_rng(5))
        analytic = backward_sequence(net, ref, 2, lambda_aux=0.5, l2=0.0)
        theta0 = net.flatten_params().copy()

        def loss_at(theta):
            probe = net.clone()
            probe.theta[...] = theta
            trace = forward_sequence(probe, X, label=2, training=True,
                                     replay_from=ref)
            return total_loss(probe, trace, 2, lambda_aux=0.5, l2=0.0)

        numeric = finite_diff(loss_at, theta0, 1e-5)
        rel = np.abs(analytic - numeric) / np.maximum(
            np.maximum(np.abs(analytic), np.abs(numeric)), 1e-4)
        assert rel.max() < 1e-4


class TestCheckpoint:
    def test_stack_is_refused_before_the_file_opens(self, tmp_path):
        net = tiny_net(seed=33)
        stack = net.with_params(np.tile(net.flatten_params(), (3, 1)))
        path = tmp_path / "stack.ckpt"
        with pytest.raises(ValueError, match=re.escape(f"(3, {net.theta.size})")):
            save_checkpoint(stack, str(path))
        assert not path.exists()

    @pytest.mark.parametrize("kwargs", [
        dict(),
        dict(use_historical=False),
        dict(placement="all", units=(3, 4, 3)),
        dict(peephole="full"),
        dict(cfg=HistoricalConfig(tau=5, window_mode="literal",
                                  alpha_policy="literal",
                                  inference_policy="fixed_blend")),
    ])
    def test_round_trip_bitwise(self, tmp_path, kwargs):
        units = kwargs.pop("units", (3, 3))
        net = tiny_net(seed=34, units=units, dropout=0.25, **kwargs)
        path = os.path.join(tmp_path, "net.ckpt")
        save_checkpoint(net, path)
        back = load_checkpoint(path)
        assert back.layer_units == list(units)
        assert back.hist_cfg == net.hist_cfg
        assert back.hist_placement == net.hist_placement
        assert back.use_historical == net.use_historical
        assert back.dropout_p == net.dropout_p
        assert back.peephole == net.peephole
        for (na, a), (nb, b) in zip(net.param_blocks(), back.param_blocks()):
            assert na == nb
            assert np.array_equal(a, b)

    def test_load_draws_no_random_network(self, tmp_path, monkeypatch):
        net = tiny_net(seed=34, units=(3, 2), placement="all")
        path = os.path.join(tmp_path, "net.ckpt")
        save_checkpoint(net, path)

        def no_rng(*args, **kwargs):
            raise AssertionError("load_checkpoint created a random generator")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        back = load_checkpoint(path)
        assert np.array_equal(back.theta, net.theta) and back.theta.flags.writeable

    def test_round_trip_preserves_predictions(self, tmp_path):
        net = tiny_net(seed=35)
        path = os.path.join(tmp_path, "net.ckpt")
        save_checkpoint(net, path)
        back = load_checkpoint(path)
        X = np.random.default_rng(36).standard_normal((7, 2))
        assert np.array_equal(forward_sequence(net, X).final_probs,
                              forward_sequence(back, X).final_probs)

    def test_bad_magic(self, tmp_path):
        path = os.path.join(tmp_path, "junk.ckpt")
        with open(path, "wb") as fh:
            fh.write(b"NOTME1" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_bad_version(self, tmp_path):
        net = tiny_net(seed=37)
        path = os.path.join(tmp_path, "net.ckpt")
        save_checkpoint(net, path)
        blob = bytearray(open(path, "rb").read())
        blob[6] = 99
        open(path, "wb").write(bytes(blob))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    def test_truncated(self, tmp_path):
        net = tiny_net(seed=38)
        path = os.path.join(tmp_path, "net.ckpt")
        save_checkpoint(net, path)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-9])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        net = tiny_net(seed=39)
        path = os.path.join(tmp_path, "net.ckpt")
        save_checkpoint(net, path)
        with open(path, "ab") as fh:
            fh.write(b"\x00" * 8)
        with pytest.raises(ValueError, match="trailing"):
            load_checkpoint(path)

    def test_bad_tag_byte(self, tmp_path):
        net = tiny_net(seed=40, units=(3,))
        path = os.path.join(tmp_path, "net.ckpt")
        save_checkpoint(net, path)
        blob = bytearray(open(path, "rb").read())
        # 6 magic + 12 header + 4 layer count + 4 units + 1 peephole tag
        blob[27] = 7  # placement tag out of range
        open(path, "wb").write(bytes(blob))
        with pytest.raises(ValueError, match="placement"):
            load_checkpoint(path)

    @pytest.mark.parametrize("offset, field", [
        (10, "class count 0"),      # 6 magic + version
        (14, "input_dim 0"),        # 6 magic + version + n_classes
        (18, "layer count 0"),
        (22, "layer 0 units 0"),
    ])
    def test_zero_width_header_field_named(self, tmp_path, offset, field):
        net = tiny_net(seed=40, units=(3,))
        path = os.path.join(tmp_path, "net.ckpt")
        save_checkpoint(net, path)
        blob = bytearray(open(path, "rb").read())
        blob[offset:offset + 4] = bytes(4)
        open(path, "wb").write(bytes(blob))
        name = field.removesuffix(" 0")
        with pytest.raises(ValueError,
                           match=f"^{re.escape(path)}: byte {offset}: {name} must be >= 1, got 0$"):
            load_checkpoint(path)

    # a 1-layer header: 26 bytes up to the units, 6 tag bytes, then tau, dropout_p
    @pytest.mark.parametrize("offset, value, message", [
        (32, bytes(4), r"tau must be >= 1, got 0"),
        (36, struct.pack("<d", math.nan), r"dropout_p must be in \[0, 1\), got nan"),
    ], ids=["tau", "dropout_p"])
    def test_out_of_range_header_field_names_file_and_offset(self, tmp_path, offset,
                                                             value, message):
        net = tiny_net(seed=40, units=(3,))
        path = os.path.join(tmp_path, "net.ckpt")
        save_checkpoint(net, path)
        blob = bytearray(open(path, "rb").read())
        blob[offset:offset + len(value)] = value
        open(path, "wb").write(bytes(blob))
        with pytest.raises(ValueError, match=f"net.ckpt: byte {offset}: {message}$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("units", [(3,), (3, 2)], ids=["1-layer", "2-layer"])
    @pytest.mark.parametrize("flag", [2, 7, 255])
    def test_use_historical_flag_other_than_0_or_1_is_rejected(self, tmp_path, units, flag):
        # the third tag byte, after 22 bytes of magic and sizes and 4 per layer
        offset = 22 + 4 * len(units) + 2
        path = os.path.join(tmp_path, "net.ckpt")
        save_checkpoint(tiny_net(seed=41, units=units, use_historical=False), path)
        blob = bytearray(open(path, "rb").read())
        assert blob[offset] == 0
        blob[offset] = flag
        open(path, "wb").write(bytes(blob))
        with pytest.raises(
            ValueError, match=f"^{re.escape(path)}: byte {offset}: bad use_historical flag {flag}$"
        ):
            load_checkpoint(path)

    # tiny_net(units=(3, 2)) saved: the units at 22 and 26, the six tags at
    # 30-35, tau at 36, dropout_p at 40, then 153 parameters, bytes 48-1271
    @pytest.mark.parametrize("edit, offset, message", [
        ((0, b"X"), 0, r"bad magic b'XLSTM1', expected b'HLSTM1'"),
        ((6, b"\x02"), 6, "unsupported checkpoint version 2"),
        ((10, bytes(4)), 10, "class count must be >= 1, got 0"),
        ((14, bytes(4)), 14, "input_dim must be >= 1, got 0"),
        ((18, bytes(4)), 18, "layer count must be >= 1, got 0"),
        ((22, bytes(4)), 22, "layer 0 units must be >= 1, got 0"),
        ((26, bytes(4)), 26, "layer 1 units must be >= 1, got 0"),
        ((30, b"\x02"), 30, "bad peephole mode tag 2"),
        ((31, b"\x02"), 31, "bad placement tag 2"),
        ((32, b"\x02"), 32, "bad use_historical flag 2"),
        ((33, b"\x03"), 33, "bad alpha policy tag 3"),
        ((34, b"\x02"), 34, "bad window mode tag 2"),
        ((35, b"\x02"), 35, "bad inference policy tag 2"),
        ((36, bytes(4)), 36, "tau must be >= 1, got 0"),
        ((40, struct.pack("<d", 1.0)), 40, r"dropout_p must be in \[0, 1\), got 1.0"),
        (38, 38, "truncated: tau would end at byte 40"),
        (1267, 1267, "truncated: the 153 parameters the header declares would end at byte 1272"),
        (1275, 1272, "3 trailing bytes"),
    ], ids=["magic", "version", "class count", "input_dim", "layer count", "layer 0 units",
            "layer 1 units", "peephole tag", "placement tag", "use_historical flag",
            "alpha tag", "window tag", "inference tag", "tau", "dropout_p",
            "cut in the header", "cut in the parameters", "trailing bytes"])
    def test_every_field_error_names_its_byte(self, tmp_path, edit, offset, message):
        # edit: (offset, bytes) written over the file, or the length it is cut
        # or zero-padded to
        path = os.path.join(tmp_path, "net.ckpt")
        save_checkpoint(tiny_net(seed=40, units=(3, 2)), path)
        blob = open(path, "rb").read()
        assert len(blob) == 1272
        if isinstance(edit, int):
            blob = blob[:edit] + bytes(max(0, edit - len(blob)))
        else:
            at, value = edit
            blob = blob[:at] + value + blob[at + len(value):]
        open(path, "wb").write(blob)
        with pytest.raises(ValueError, match=f"^{re.escape(path)}: byte {offset}: {message}$"):
            load_checkpoint(path)

    def test_header_value_beyond_its_field_is_refused_before_the_file_opens(self, tmp_path):
        net = tiny_net(seed=40, units=(3,))
        object.__setattr__(net.hist_cfg, "tau", 2**32)  # past HistoricalConfig's own check
        path = tmp_path / "net.ckpt"
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: tau 4294967296 does not "
                                             "fit its 'I' field$"):
            save_checkpoint(net, str(path))
        assert not path.exists()

    def test_huge_class_count_is_rejected_before_allocating(self, tmp_path):
        # 2**32 - 1 classes would need a 96 GiB head: the header is checked
        # against the file's size before any parameter array exists
        net = tiny_net(seed=40, units=(3,), n_classes=2)
        path = os.path.join(tmp_path, "net.ckpt")
        save_checkpoint(net, path)
        blob = bytearray(open(path, "rb").read())
        blob[10:14] = b"\xff" * 4
        open(path, "wb").write(bytes(blob))
        with pytest.raises(ValueError) as exc:
            load_checkpoint(path)
        assert str(exc.value).startswith(f"{path}: byte {len(blob)}: truncated: the ")

    def test_param_count_matches_flatten(self):
        for placement in HIST_PLACEMENTS:
            for peephole in PEEPHOLE_MODES:
                for units in ((3,), (3, 4), (2, 5, 3)):
                    net = tiny_net(seed=45, units=units, input_dim=4, n_classes=5,
                                   placement=placement, peephole=peephole)
                    count = param_count(4, units, 5, placement, peephole)
                    assert count == net.flatten_params().size


class TestGoldenLayout:
    """Pinned across versions: the block order and shapes, the draw order at
    init and the checkpoint format. A change to any of them fails here."""

    LSTM_BLOCKS = ["U_i", "U_f", "U_c", "U_o", "W_i", "W_f", "W_c", "W_o",
                   "P_i", "P_f", "P_o", "b_i", "b_f", "b_c", "b_o"]

    def test_one_layer_top_diag(self):
        layout = param_layout(4, (3,), 3, "top", "diag")
        want = [(f"layer0.{f}", s) for f, s in zip(
            self.LSTM_BLOCKS, [(3, 4)] * 4 + [(3, 3)] * 4 + [(3,)] * 7)]
        want += [("per_step.V", (3, 3)), ("per_step.c", (3,)),
                 ("final.V", (3, 3)), ("final.c", (3,))]
        assert layout == want

    def test_two_layers_all_full(self):
        layout = param_layout(4, (3, 2), 3, "all", "full")
        want = [(f"layer0.{f}", s) for f, s in zip(
            self.LSTM_BLOCKS, [(3, 4)] * 4 + [(3, 3)] * 7 + [(3,)] * 4)]
        want += [(f"layer1.{f}", s) for f, s in zip(
            self.LSTM_BLOCKS, [(2, 3)] * 4 + [(2, 2)] * 7 + [(2,)] * 4)]
        want += [("aux0.V", (3, 3)), ("aux0.c", (3,)), ("per_step.V", (3, 2)),
                 ("per_step.c", (3,)), ("final.V", (3, 2)), ("final.c", (3,))]
        assert layout == want

    @pytest.mark.parametrize("units, placement, peephole, digest", [
        ((3,), "top", "diag", "ddef22ca82bf27d8f8e1c10e3e5c0136a21fd01d0dba8972208df18e93aa6a32"),
        ((3, 2), "all", "full", "d033f88220465bc405abcf9da4b5a98ed7e4a87c37a0018a6c833ebf6f48cb2f"),
    ])
    def test_checkpoint_digest(self, tmp_path, units, placement, peephole, digest):
        net = build_network(np.random.default_rng(2024), 4, units, 3, dropout_p=0.25,
                            hist_cfg=HistoricalConfig(tau=2), hist_placement=placement,
                            peephole=peephole)
        assert [(n, a.shape) for n, a in net.param_blocks()] == param_layout(
            4, units, 3, placement, peephole)
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestNetworkShape:
    def test_param_blocks_cover_flatten(self):
        net = tiny_net(seed=41, units=(3, 4), placement="all")
        total = sum(arr.size for _, arr in net.param_blocks())
        assert net.flatten_params().size == total
        theta = np.arange(total, dtype=np.float64)
        net.theta[...] = theta
        assert np.array_equal(net.flatten_params(), theta)

    def test_blocks_are_views_of_one_vector(self):
        net = tiny_net(seed=41, units=(3, 4), placement="all")
        blocks = [g.U for g in net.gates] + [head.V for head, _, _ in net.scorers]
        blocks += [arr for _, arr in net.param_blocks()]
        assert all(np.shares_memory(arr, net.theta) for arr in blocks)
        probes = np.tile(net.theta, (4, 1))
        stack = net.with_params(probes)
        assert stack.theta is probes and np.shares_memory(stack.final_head.V, probes)
        grad = np.arange(net.theta.size, dtype=np.float64)
        views = net.views(grad)
        assert list(views) == [name for name, _ in net.param_blocks()]
        assert np.array_equal(np.concatenate([v.ravel() for v in views.values()]), grad)

    def test_clone_is_deep(self):
        net = tiny_net(seed=42)
        twin = net.clone()
        twin.gates[0].U[:] += 1.0
        assert not np.array_equal(net.gates[0].U, twin.gates[0].U)

    def test_validation(self):
        # blocks cut from one vector by the layout cannot disagree on shapes;
        # what a network can still be given wrong is the vector's length
        net = tiny_net(seed=43)
        with pytest.raises(ShapeError, match="parameter stack has shape"):
            replace(net, theta=net.theta[:-1])
        with pytest.raises(ValueError, match="unknown peephole mode"):
            replace(net, peephole="none")
        with pytest.raises(ValueError):
            build_network(np.random.default_rng(0), 2, [], 3)

    @pytest.mark.parametrize("input_dim, units, n_classes, message", [
        (0, (3,), 2, r"input_dim must be >= 1, got 0"),
        (3, (0,), 2, r"layer_units must hold >= 1 layer of >= 1 unit, got \[0\]"),
        (3, (3, 0), 2, r"layer_units must hold >= 1 layer of >= 1 unit, got \[3, 0\]"),
        (3, (), 2, r"layer_units must hold >= 1 layer of >= 1 unit, got \[\]"),
        (3, (3,), 0, r"n_classes must be >= 1, got 0"),
    ], ids=["input_dim", "units", "upper_units", "no_layers", "n_classes"])
    def test_sizes_below_1_are_refused_naming_the_field(self, input_dim, units, n_classes,
                                                         message):
        # the layout every constructor and the checkpoint reader go through
        with pytest.raises(ValueError, match=f"^{message}$"):
            build_network(np.random.default_rng(0), input_dim, units, n_classes)
        with pytest.raises(ValueError, match=f"^{message}$"):
            param_count(input_dim, units, n_classes, "top", "diag")
        with pytest.raises(ValueError, match=f"^{message}$"):
            replace(tiny_net(seed=43), input_dim=input_dim, layer_units=units,
                    n_classes=n_classes)

    def test_predict_argmax(self):
        net = tiny_net(seed=44)
        X = np.random.default_rng(45).standard_normal((5, 2))
        assert predict(net, X) == int(np.argmax(forward_sequence(net, X).final_probs))

    def test_predict_refuses_a_batch(self):
        # a batch's final_probs are (B, C), whose flat argmax names no class
        net = tiny_net(seed=44)
        with pytest.raises(ShapeError, match=r"^predict takes one \(T, D\) sequence, "
                                             r"got shape \(2, 5, 2\)$"):
            predict(net, np.zeros((2, 5, 2)))


class TestStackedNetwork:
    @pytest.mark.parametrize("peephole", PEEPHOLE_MODES)
    @pytest.mark.parametrize("placement", HIST_PLACEMENTS)
    def test_each_row_replays_like_its_own_network(self, placement, peephole):
        # K random parameter sets around a net: the stacked replay gives each
        # row what one replay of that set gives, with and without dropout
        rng = np.random.default_rng(50)
        X = rng.standard_normal((7, 2))
        for dropout, use_historical in ((0.5, True), (0.0, True), (0.5, False)):
            net = tiny_net(seed=51, units=(3, 4), dropout=dropout, placement=placement,
                           peephole=peephole, use_historical=use_historical)
            trace = forward_sequence(net, X, label=1, training=True, rng=rng)
            theta0 = net.flatten_params()
            thetas = theta0 + 0.3 * rng.standard_normal((5, theta0.size))
            stack = net.with_params(thetas)
            replayed = forward_sequence(stack, X, label=1, training=True, replay_from=trace)
            losses = total_loss(stack, replayed, 1, lambda_aux=0.5, l2=0.004)
            assert losses.shape == (5,)
            for lt in replayed.layers:  # only BPTT reads the gates, and it takes no stack
                assert lt.h.shape[0] == 5
                assert (lt.c, lt.tc, lt.gates) == (None,) * 3
            for k, theta in enumerate(thetas):
                one = net.clone()
                one.theta[...] = theta
                ref = forward_sequence(one, X, label=1, training=True, replay_from=trace)
                assert abs(losses[k] - total_loss(one, ref, 1, 0.5, 0.004)) < 1e-12
                assert np.allclose(replayed.final_probs[k], ref.final_probs, rtol=0, atol=1e-12)
                for probs, want in zip(replayed.probs, ref.probs):
                    assert (probs is None) == (want is None)
                    if want is not None:
                        assert np.allclose(probs[k], want, rtol=0, atol=1e-12)
            # with_params of one vector (P,) scores like the clone theta was written into
            assert total_loss(one.with_params(theta), ref, 1, 0.5, 0.004) == total_loss(
                one, ref, 1, 0.5, 0.004)

    def test_shapes_and_live_passes_are_rejected(self):
        net = tiny_net(seed=52)
        P = net.flatten_params().size
        for shape in ((P - 1,), (2, P + 1), (2, 3, P)):
            with pytest.raises(ShapeError, match="parameter stack has shape"):
                net.with_params(np.zeros(shape))
        stack = net.with_params(np.tile(net.flatten_params(), (3, 1)))
        assert stack.stack_shape == (3,) and net.stack_shape == ()
        with pytest.raises(ShapeError):
            stack.with_params(np.zeros(P))
        with pytest.raises(ValueError, match="a stacked network runs only replayed passes"):
            forward_sequence(stack, np.zeros((4, 2)), label=0, training=True)


def per_gate_forward(p, X):
    """The layer loop before the gates were fused, one matvec, peephole and
    sigmoid per gate: the bitwise reference for _layer_forward."""
    zx_i = X @ p.U_i.T + p.b_i
    zx_f = X @ p.U_f.T + p.b_f
    zx_c = X @ p.U_c.T + p.b_c
    zx_o = X @ p.U_o.T + p.b_o
    H, C, TC, I, F, G, O = (np.empty(zx_i.shape) for _ in range(7))
    h = np.zeros(p.units)
    c = np.zeros(p.units)
    diag = p.peephole == "diag"
    for t in range(len(X)):
        i = sigmoid(zx_i[t] + p.W_i @ h + peep_apply(p.P_i, c, diag))
        f = sigmoid(zx_f[t] + p.W_f @ h + peep_apply(p.P_f, c, diag))
        g = np.tanh(zx_c[t] + p.W_c @ h)
        c = f * c + i * g
        o = sigmoid(zx_o[t] + p.W_o @ h + peep_apply(p.P_o, c, diag))
        tc = np.tanh(c)
        h = o * tc
        H[t], I[t], F[t], G[t], O[t], C[t], TC[t] = h, i, f, g, o, c, tc
    return H, C, TC, I, F, G, O


def per_gate_backward(p, X, H, C, TC, I, F, G, O, dH_in):
    """BPTT before the gates were fused: (gradient per LSTM field, dX)."""
    T, U = H.shape
    diag = p.P_i.ndim == 1
    DZi, DZf, DZc, DZo = (np.empty((T, U)) for _ in range(4))
    dP_i, dP_f, dP_o = (np.zeros_like(p.P_i) for _ in range(3))
    dh_carry = np.zeros(U)
    dc_carry = np.zeros(U)
    zero = np.zeros(U)
    for t in reversed(range(T)):
        dh = dH_in[t] + dh_carry
        c_prev = C[t - 1] if t > 0 else zero
        i, f, g, o, tc = I[t], F[t], G[t], O[t], TC[t]
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
            dP_o += dzo * C[t]
        else:
            dP_i += np.outer(dzi, c_prev)
            dP_f += np.outer(dzf, c_prev)
            dP_o += np.outer(dzo, C[t])
        dh_carry = p.W_i.T @ dzi + p.W_f.T @ dzf + p.W_c.T @ dzc + p.W_o.T @ dzo
        dc_carry = dc * f
        dc_carry = dc_carry + (
            p.P_i * dzi + p.P_f * dzf if diag else p.P_i.T @ dzi + p.P_f.T @ dzf
        )
        DZi[t], DZf[t], DZc[t], DZo[t] = dzi, dzf, dzc, dzo
    H_prev = np.vstack([np.zeros((1, U)), H[:-1]])
    grads = {"P_i": dP_i, "P_f": dP_f, "P_o": dP_o}
    for gate, DZ in zip("ifco", (DZi, DZf, DZc, DZo)):
        grads["U_" + gate] = DZ.T @ X
        grads["W_" + gate] = DZ.T @ H_prev
        grads["b_" + gate] = DZ.sum(axis=0)
    dX = DZi @ p.U_i + DZf @ p.U_f + DZc @ p.U_c + DZo @ p.U_o
    return grads, dX


class TestFusedGates:
    """The fused-gate layer loops give the per-gate loops' bits."""

    D = 5

    def layer(self, units, peephole, seed):
        net = build_network(np.random.default_rng(seed), self.D, (units,), 3,
                            peephole=peephole)
        rng = np.random.default_rng(seed + 1)
        net.theta[...] = 0.6 * rng.standard_normal(net.theta.size)
        return net, rng

    @pytest.mark.parametrize("peephole", PEEPHOLE_MODES)
    @pytest.mark.parametrize("units", [1, 3, 24])
    def test_forward_and_backward_match_the_per_gate_loops(self, units, peephole):
        net, rng = self.layer(units, peephole, seed=60 + units)
        for T in (1, 6, 30, 480, 1920):
            X = rng.standard_normal((T, self.D))
            lt = _layer_forward(net.gates[0], X, keep=True)
            p = lstm_params(net, 0)
            H, C, TC, I, F, G, O = per_gate_forward(p, X)
            assert np.array_equal(lt.h, H) and np.array_equal(lt.c, C)
            assert np.array_equal(lt.tc, TC)
            assert np.array_equal(lt.gates, np.stack([I, F, G, O], axis=1))
            dH = rng.standard_normal((T, units))
            grad = np.zeros(net.theta.size)
            dX = _layer_backward(net.gates[0], lt, dH, net.gate_blocks(grad)[0], True)
            want, want_dX = per_gate_backward(p, X, H, C, TC, I, F, G, O, dH)
            views = net.views(grad)
            for name in LSTM_FIELDS:
                assert np.array_equal(views["layer0." + name], want[name]), (T, name)
            assert np.array_equal(dX, want_dX), T
            again = np.zeros(net.theta.size)
            assert _layer_backward(net.gates[0], lt, dH, net.gate_blocks(again)[0],
                                   False) is None
            assert np.array_equal(again, grad)

    @pytest.mark.parametrize("peephole", PEEPHOLE_MODES)
    @pytest.mark.parametrize("units", [1, 3, 24])
    def test_stacked_forward_matches_the_per_gate_loop(self, units, peephole):
        net, rng = self.layer(units, peephole, seed=70 + units)
        stack = net.with_params(net.theta + 0.3 * rng.standard_normal((4, net.theta.size)))
        for T in (1, 6, 30, 480, 1920):
            for X in (rng.standard_normal((T, self.D)), rng.standard_normal((4, T, self.D))):
                lt = _layer_forward(stack.gates[0], X)
                assert (lt.c, lt.tc, lt.gates) == (None,) * 3
                for k, theta in enumerate(stack.theta):  # row k: set k's own per-gate loop
                    want, *_ = per_gate_forward(lstm_params(net, 0, theta), X[k] if X.ndim == 3 else X)
                    assert np.array_equal(lt.h[k], want), (T, k)

    @pytest.mark.parametrize("peephole", PEEPHOLE_MODES)
    @pytest.mark.parametrize("units", [1, 2, 3, 24])
    def test_row_batch_matches_the_per_gate_loop(self, units, peephole):
        # one parameter set over a batch (B, T, D): row b has the bits of its
        # own per-gate loop, and no BPTT arrays are kept; units=2 puts a
        # diagonal P (2, U) next to a square full one
        net, rng = self.layer(units, peephole, seed=90 + units)
        p = lstm_params(net, 0)
        for T, B in ((1, 5), (6, 3), (30, 32), (480, 2)):
            X = rng.standard_normal((B, T, self.D))
            lt = _layer_forward(net.gates[0], X)
            assert lt.h.shape == (B, T, units) and (lt.c, lt.tc, lt.gates) == (None,) * 3
            kept = _layer_forward(net.gates[0], X, keep=True)  # a training batch's
            for b in range(B):
                H, C, TC, I, F, G, O = per_gate_forward(p, X[b])
                assert np.array_equal(lt.h[b], H), (T, b)
                assert np.array_equal(kept.h[b], H) and np.array_equal(kept.c[b], C)
                assert np.array_equal(kept.tc[b], TC)
                assert np.array_equal(kept.gates[b], np.stack([I, F, G, O], axis=1)), (T, b)

    def test_gate_blocks_are_the_named_blocks_side_by_side(self):
        for peephole in PEEPHOLE_MODES:
            net = tiny_net(seed=80, units=(3, 4), placement="all", peephole=peephole)
            for k, g in enumerate(net.gates):
                p = lstm_params(net, k)
                assert all(np.shares_memory(a, net.theta) for a in g)
                assert np.array_equal(g.U, np.concatenate([p.U_i, p.U_f, p.U_c, p.U_o]))
                assert np.array_equal(g.W, np.concatenate([p.W_i, p.W_f, p.W_c, p.W_o]))
                assert np.array_equal(g.P, np.stack([p.P_i, p.P_f, p.P_o]))
                assert np.array_equal(g.b, np.concatenate([p.b_i, p.b_f, p.b_c, p.b_o]))
