import math
import os
import re
import struct

import numpy as np
import pytest

from histlstm.cells import PEEPHOLE_MODES, HeadParams, LstmState, head_predict, lstm_step
from dataclasses import replace

from histlstm import historical
from histlstm.historical import (
    INFERENCE_POLICIES,
    HistoricalConfig,
    historical_update,
    initial_trace,
    step_loss,
)
from histlstm.network import (
    HIST_PLACEMENTS,
    StackedNetwork,
    backward_sequence,
    build_network,
    forward_sequence,
    is_weight_matrix,
    load_checkpoint,
    param_count,
    predict,
    save_checkpoint,
    total_loss,
)
from histlstm.numerics import EPS_LOSS_FLOOR, ShapeError, cross_entropy, finite_diff


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


def straight_line_training(net, X, label):
    """Independent composition of the primitive steps, no batching tricks."""
    T = X.shape[0]
    cur = X
    layer_h, layer_c = [], []
    for p in net.layers:
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
        assert np.allclose(trace.step_probs, probs, atol=1e-12)
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
            p = net.layers[0]
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
        # y_t = argmax(step_probs[t]), bit for bit, on every scored layer
        net = tiny_net(seed=20, units=(16, 16), n_classes=4, placement=placement)
        for trial in range(8):
            X = np.random.default_rng([21, trial]).standard_normal((12, 2)) * 2
            trace = forward_sequence(net, X)
            for k, hist in enumerate(trace.hists):
                if hist is None:
                    continue
                top = k == len(net.layers) - 1
                probs = trace.step_probs if top else trace.aux_probs[k]
                l_head = net.final_head if top else net.aux_heads[k]
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
        # one score per new state, plus one rescoring of l_{t-1} per
        # pseudo-label change; the per-step probabilities are not recomputed
        calls = []
        monkeypatch.setattr(historical, "head_predict",
                            lambda head, s: calls.append(1) or head_predict(head, s))
        net = tiny_net(seed=22, placement=placement)
        X = np.random.default_rng(23).standard_normal((15, 2)) * 2
        trace = forward_sequence(net, X)
        budget = 0
        for k, hist in enumerate(trace.hists):
            if hist is not None:
                probs = trace.step_probs if k == len(net.layers) - 1 else trace.aux_probs[k]
                ys = np.argmax(probs, axis=1)
                budget += 15 + int(np.count_nonzero(ys[1:] != ys[:-1]))
        assert 0 < len(calls) <= budget

    def test_forward_determinism_bitwise(self):
        net = tiny_net(seed=9, dropout=0.5)
        X = np.random.default_rng(10).standard_normal((5, 2))
        a = forward_sequence(net, X, label=2, training=True,
                             rng=np.random.default_rng(42))
        b = forward_sequence(net, X, label=2, training=True,
                             rng=np.random.default_rng(42))
        assert np.array_equal(a.final_probs, b.final_probs)
        assert np.array_equal(a.step_probs, b.step_probs)
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

    def test_errors(self):
        net = tiny_net(seed=17)
        with pytest.raises(ShapeError):
            forward_sequence(net, np.zeros((3, 5)))
        with pytest.raises(ValueError):
            forward_sequence(net, np.zeros((3, 2)), training=True)  # no label
        with pytest.raises(ValueError):
            forward_sequence(net, np.full((3, 2), np.nan))
        with pytest.raises(ValueError, match="generator"):  # dropout, no rng
            forward_sequence(tiny_net(seed=17, dropout=0.5), np.zeros((3, 2)),
                             label=0, training=True)
        with pytest.raises(ValueError, match="dropout_p"):
            tiny_net(seed=17, dropout=1.0)

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


class TestTotalLoss:
    def test_no_aux_no_l2_is_final_ce(self):
        net = tiny_net(seed=20)
        X = np.random.default_rng(21).standard_normal((4, 2))
        trace = forward_sequence(net, X, label=2, training=True)
        loss = total_loss(net, trace, 2, lambda_aux=0.0, l2=0.0)
        assert loss == cross_entropy(trace.final_probs, 2)

    def test_zero_network_double_ln4(self):
        net = tiny_net(seed=22, n_classes=4)
        net.set_flat(np.zeros_like(net.flatten_params()))
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


class TestBackwardSequence:
    def test_l2_only_gradient(self):
        net = tiny_net(seed=26)
        X = np.random.default_rng(27).standard_normal((3, 2))
        # park the forward at the loss floor so only the l2 term is active
        net.final_head.c[1] += 200.0
        trace = forward_sequence(net, X, label=1, training=True)
        assert cross_entropy(trace.final_probs, 1) == EPS_LOSS_FLOOR
        grads = backward_sequence(net, trace, 1, lambda_aux=0.0, l2=0.004)
        for name, arr in net.param_blocks():
            if is_weight_matrix(name):
                assert np.allclose(grads[name], 2.0 * 0.004 * arr, atol=1e-15)
            else:
                assert np.array_equal(grads[name], np.zeros_like(arr))

    def test_gradients_vanish_at_confident_optimum(self):
        net = tiny_net(seed=28)
        net.final_head.c[0] += 200.0
        X = np.random.default_rng(29).standard_normal((4, 2))
        trace = forward_sequence(net, X, label=0, training=True)
        grads = backward_sequence(net, trace, 0, lambda_aux=0.0, l2=0.0)
        assert all(np.array_equal(g, np.zeros_like(g)) for g in grads.values())

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
        grads = backward_sequence(net, ref, 1, lambda_aux=0.5, l2=0.003)
        theta0 = net.flatten_params().copy()

        def loss_at(theta):
            probe = net.clone()
            probe.set_flat(theta)
            trace = forward_sequence(probe, X, label=1, training=True,
                                     replay_from=ref)
            return total_loss(probe, trace, 1, lambda_aux=0.5, l2=0.003)

        numeric = finite_diff(loss_at, theta0, 1e-5)
        analytic = np.concatenate([grads[n].ravel() for n, _ in net.param_blocks()])
        rel = np.abs(analytic - numeric) / np.maximum(
            np.maximum(np.abs(analytic), np.abs(numeric)), 1e-4)
        assert rel.max() < 1e-4

    def test_dropout_gradient_uses_stored_masks(self):
        net = tiny_net(seed=32, dropout=0.5)
        X = np.random.default_rng(33).standard_normal((3, 2))
        ref = forward_sequence(net, X, label=2, training=True,
                               rng=np.random.default_rng(5))
        grads = backward_sequence(net, ref, 2, lambda_aux=0.5, l2=0.0)
        theta0 = net.flatten_params().copy()

        def loss_at(theta):
            probe = net.clone()
            probe.set_flat(theta)
            trace = forward_sequence(probe, X, label=2, training=True,
                                     replay_from=ref)
            return total_loss(probe, trace, 2, lambda_aux=0.5, l2=0.0)

        numeric = finite_diff(loss_at, theta0, 1e-5)
        analytic = np.concatenate([grads[n].ravel() for n, _ in net.param_blocks()])
        rel = np.abs(analytic - numeric) / np.maximum(
            np.maximum(np.abs(analytic), np.abs(numeric)), 1e-4)
        assert rel.max() < 1e-4


class TestCheckpoint:
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
        assert back.layers[0].peephole == net.layers[0].peephole
        for (na, a), (nb, b) in zip(net.param_blocks(), back.param_blocks()):
            assert na == nb
            assert np.array_equal(a, b)

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
        with pytest.raises(ValueError, match=f"net.ckpt: checkpoint declares {field}"):
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
        assert str(exc.value).startswith(f"{path}: truncated checkpoint at byte {len(blob)}")

    def test_param_count_matches_flatten(self):
        for placement in HIST_PLACEMENTS:
            for peephole in PEEPHOLE_MODES:
                for units in ((3,), (3, 4), (2, 5, 3)):
                    net = tiny_net(seed=45, units=units, input_dim=4, n_classes=5,
                                   placement=placement, peephole=peephole)
                    count = param_count(4, units, 5, placement, peephole)
                    assert count == net.flatten_params().size


class TestNetworkShape:
    def test_param_blocks_cover_flatten(self):
        net = tiny_net(seed=41, units=(3, 4), placement="all")
        total = sum(arr.size for _, arr in net.param_blocks())
        assert net.flatten_params().size == total
        theta = np.arange(total, dtype=np.float64)
        net.set_flat(theta)
        assert np.array_equal(net.flatten_params(), theta)
        with pytest.raises(ShapeError):
            net.set_flat(theta[:-1])

    def test_clone_is_deep(self):
        net = tiny_net(seed=42)
        twin = net.clone()
        twin.layers[0].U_i[:] += 1.0
        assert not np.array_equal(net.layers[0].U_i, twin.layers[0].U_i)

    def test_validation(self):
        net = tiny_net(seed=43)
        with pytest.raises(ShapeError):
            StackedNetwork(
                layers=net.layers,
                per_step_head=net.per_step_head,
                final_head=HeadParams(V=np.zeros((3, 9)), c=np.zeros(3)),
                aux_heads=[],
                dropout_p=0.0,
                hist_cfg=HistoricalConfig(),
                hist_placement="top",
                use_historical=True,
            )
        with pytest.raises(ValueError):
            build_network(np.random.default_rng(0), 2, [], 3)

    def test_predict_argmax(self):
        net = tiny_net(seed=44)
        X = np.random.default_rng(45).standard_normal((5, 2))
        assert predict(net, X) == int(np.argmax(forward_sequence(net, X).final_probs))


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
                assert (lt.c, lt.tc, lt.i, lt.f, lt.g, lt.o) == (None,) * 6
            for k, theta in enumerate(thetas):
                one = net.clone()
                one.set_flat(theta)
                ref = forward_sequence(one, X, label=1, training=True, replay_from=trace)
                assert abs(losses[k] - total_loss(one, ref, 1, 0.5, 0.004)) < 1e-12
                assert np.allclose(replayed.final_probs[k], ref.final_probs, rtol=0, atol=1e-12)
                assert np.allclose(replayed.step_probs[k], ref.step_probs, rtol=0, atol=1e-12)
            # one vector (P,) views the same parameters as set_flat writes
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
