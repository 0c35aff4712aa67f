import math

import numpy as np
import pytest

from histlstm.cells import HeadParams, head_predict, init_head
from histlstm.historical import (
    ALPHA_POLICIES,
    WINDOW_MODES,
    HistoricalConfig,
    HistoricalTrace,
    StepRecord,
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
from histlstm.network import _historical_backward, _run_historical, build_network
from histlstm.numerics import EPS_LOSS_FLOOR, ShapeError, cross_entropy


def oracle_truncation(h_buffer, t, cfg):
    """Step t's truncation state from its definition: every response
    h_1..h_t with its window weight (zero before the window), summed from +0
    in index order."""
    if cfg.window_mode == "literal" and t > cfg.tau:
        w = [0.0] * cfg.tau + [1.0 / (t - cfg.tau)] * (t - cfg.tau)
    else:
        n = min(cfg.tau, t)
        w = [0.0] * (t - n) + [1.0 / n] * n
    acc = np.zeros_like(h_buffer[0])
    for k in range(t):
        acc += w[k] * h_buffer[k]
    return acc


def oracle_run(h_buffer, cfg, loss_h, loss_l):
    """From-scratch re-evaluation of the whole recursion over the buffer.

    Rebuilds the branch decisions, blend weights, and truncation windows
    from their definitions (only the log primitive is shared, because
    different libm implementations differ in the last ulp). Accumulates the
    truncation sum in the same index order so the comparison can be bitwise.
    """
    l = h_buffer[0]
    eps_l = loss_l(h_buffer[0])
    branches = ["init"]
    history = [l]
    for t in range(2, len(h_buffer) + 1):
        h = h_buffer[t - 1]
        eps_h = loss_h(h)
        if eps_h >= eps_l:
            ratio = eps_l / eps_h
            if cfg.alpha_policy == "inverse_loss":
                a = eps_l / (eps_l + eps_h)
            else:
                a = 0.5 * float(np.log(ratio))
                if cfg.alpha_policy == "clamped":
                    a = min(max(a, 0.0), 1.0)
            l = a * h + (1.0 - a) * l
            branches.append("blend")
        else:
            l = oracle_truncation(h_buffer, t, cfg)
            branches.append("trunc")
        eps_l = loss_l(l)
        history.append(l)
    return l, eps_l, branches, history


def drive(h_list, cfg, loss_h, loss_l):
    trace = initial_trace(h_list[0], loss_l)
    for h in h_list[1:]:
        trace = historical_update(trace, h, loss_h(h), cfg, loss_l)
    return trace


class TestComputeAlpha:
    def test_equal_losses(self):
        assert compute_alpha(0.7, 0.7, "literal") == 0.0
        assert compute_alpha(0.7, 0.7, "clamped") == 0.0
        assert compute_alpha(0.7, 0.7, "inverse_loss") == 0.5

    def test_quarter_ratio(self):
        a = compute_alpha(0.25, 1.0, "literal")
        assert abs(a - 0.5 * math.log(0.25)) < 1e-15
        assert abs(a + math.log(2.0)) < 1e-15  # half of ln(1/4) is -ln 2
        assert compute_alpha(0.25, 1.0, "clamped") == 0.0

    def test_e_squared_gives_one(self):
        # exact up to one ulp of the platform log
        assert abs(compute_alpha(math.exp(2.0), 1.0, "literal") - 1.0) < 1e-15

    def test_clamp_upper(self):
        assert compute_alpha(math.exp(10.0), 1.0, "clamped") == 1.0

    def test_inverse_loss_range(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            el, eh = rng.uniform(1e-6, 10.0, 2)
            a = compute_alpha(el, eh, "inverse_loss")
            assert 0.0 < a < 1.0
            assert abs(a - el / (el + eh)) == 0.0

    @pytest.mark.parametrize("policy", ALPHA_POLICIES)
    def test_arrays_give_each_pair_bitwise(self, policy):
        rng = np.random.default_rng(1)
        el = np.exp(rng.uniform(-14.0, 3.0, 500))
        eh = np.exp(rng.uniform(-14.0, 3.0, 500))
        el[:5] = eh[:5]  # equal losses: alpha 0 or 0.5
        alphas = compute_alpha(el, eh, policy)
        assert alphas.shape == (500,)
        for a, l, h in zip(alphas.tolist(), el.tolist(), eh.tolist()):
            assert a == compute_alpha(l, h, policy)
            assert a == ({"literal": 0.5 * float(np.log(l / h)),
                          "clamped": min(max(0.5 * float(np.log(l / h)), 0.0), 1.0),
                          "inverse_loss": l / (l + h)}[policy])
        el[7] = np.inf
        with pytest.raises(ValueError, match="^losses must be finite"):
            compute_alpha(el, eh, policy)

    def test_nonpositive_loss_fatal(self):
        with pytest.raises(ValueError):
            compute_alpha(0.0, 1.0, "literal")
        with pytest.raises(ValueError):
            compute_alpha(1.0, -0.5, "clamped")

    @pytest.mark.parametrize("policy", ALPHA_POLICIES)
    @pytest.mark.parametrize("eps_l_prev, eps_h",
                             [(math.inf, math.inf), (1.0, math.inf), (math.nan, 1.0)])
    def test_non_finite_loss_fatal_naming_both(self, policy, eps_l_prev, eps_h):
        with pytest.raises(ValueError, match=f"^losses must be finite .* got "
                                             f"eps_l_prev={eps_l_prev} eps_h={eps_h}$"):
            compute_alpha(eps_l_prev, eps_h, policy)

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            compute_alpha(1.0, 1.0, "softmax")


class TestTruncationWeights:
    def test_literal_t5_tau2(self):
        w = truncation_weights(5, 2, "literal")
        assert np.array_equal(w, [1.0 / 3, 1.0 / 3, 1.0 / 3])

    def test_sliding_t5_tau2(self):
        w = truncation_weights(5, 2, "sliding")
        assert np.array_equal(w, [0.5, 0.5])

    def test_sliding_t1(self):
        for tau in (1, 2, 7):
            assert np.array_equal(truncation_weights(1, tau, "sliding"), [1.0])

    def test_literal_degenerate_is_the_sliding_window(self):
        for tau in range(1, 8):
            for t in range(1, tau + 1):
                w = truncation_weights(t, tau, "literal")
                assert np.array_equal(w, truncation_weights(t, tau, "sliding")), (t, tau)
                assert w.shape == (t,)

    def test_nonnegative_sum_to_one(self):
        for mode in ("sliding", "literal"):
            for tau in range(1, 7):
                for t in range(1, 15):
                    w = truncation_weights(t, tau, mode)
                    n = t - tau if mode == "literal" and t > tau else min(tau, t)
                    assert w.shape == (n,)
                    assert np.all(w > 0.0)
                    assert abs(w.sum() - 1.0) < 1e-12

    def test_one_shared_read_only_array_per_length(self):
        for n in (1, 2, 3, 7, 100):
            w = truncation_weights(n + 1, 1, "literal")
            assert w.tobytes() == np.full(n, 1.0 / n).tobytes() and w.dtype == np.float64
            assert truncation_weights(n + 1, 1, "literal") is w
            with pytest.raises(ValueError, match="read-only"):
                w[0] = 0.5
        assert truncation_weights(9, 3, "sliding") is truncation_weights(5, 2, "literal")

    def test_bad_args(self):
        with pytest.raises(ValueError):
            truncation_weights(0, 2, "sliding")
        with pytest.raises(ValueError):
            truncation_weights(3, 0, "sliding")
        with pytest.raises(ValueError):
            truncation_weights(3, 2, "boxcar")


class TestStepLoss:
    def test_zero_head_uniform(self):
        head = HeadParams(V=np.zeros((4, 3)), c=np.zeros(4))
        assert abs(step_loss(head, np.ones(3), 2) - math.log(4.0)) < 1e-12

    def test_confident_head_floors(self):
        head = HeadParams(V=np.zeros((2, 1)), c=np.array([60.0, -60.0]))
        assert step_loss(head, np.zeros(1), 0) == EPS_LOSS_FLOOR

    def test_identity_head_closed_form(self):
        head = HeadParams(V=np.eye(3), c=np.zeros(3))
        state = np.array([2.0, 0.0, 0.0])
        z = np.exp([2.0, 0.0, 0.0])
        expected = -math.log(z[0] / z.sum())
        assert abs(step_loss(head, state, 0) - expected) < 1e-12


class TestHistoricalUpdate:
    def test_equal_losses_hold_state(self):
        # literal and clamped give alpha 0 here, so l passes through bitwise
        rng = np.random.default_rng(1)
        for policy in ("literal", "clamped"):
            cfg = HistoricalConfig(tau=2, alpha_policy=policy)
            l0 = rng.standard_normal(4)
            trace = HistoricalTrace(l=l0, h_buffer=[l0], eps_l=0.9,
                                    records=[], l_history=[l0])
            out = historical_update(trace, rng.standard_normal(4), 0.9, cfg,
                                    lambda v: 0.9)
            assert np.array_equal(out.l, l0)
            assert out.records[-1].branch == "blend"
            assert out.records[-1].alpha == 0.0

    def test_equal_losses_inverse_loss_midpoint(self):
        cfg = HistoricalConfig(tau=2, alpha_policy="inverse_loss")
        l0 = np.array([1.0, -1.0])
        h = np.array([3.0, 1.0])
        trace = HistoricalTrace(l=l0, h_buffer=[l0], eps_l=0.9,
                                records=[], l_history=[l0])
        out = historical_update(trace, h, 0.9, cfg, lambda v: 0.9)
        assert np.array_equal(out.l, [2.0, 0.0])

    def test_truncation_sliding_tau2(self):
        rng = np.random.default_rng(2)
        hs = [rng.standard_normal(3) for _ in range(5)]
        cfg = HistoricalConfig(tau=2, window_mode="sliding")
        trace = HistoricalTrace(l=hs[0], h_buffer=hs[:4], eps_l=2.0,
                                records=[], l_history=[hs[0]])
        out = historical_update(trace, hs[4], 0.5, cfg, lambda v: 1.0)
        assert np.array_equal(out.l, 0.5 * hs[3] + 0.5 * hs[4])
        assert out.records[-1].branch == "trunc"
        assert np.array_equal(out.records[-1].weights, [0.5, 0.5])

    def test_literal_degenerate_falls_back_to_sliding(self):
        rng = np.random.default_rng(3)
        h1, h2 = rng.standard_normal(3), rng.standard_normal(3)
        cfg = HistoricalConfig(tau=5, window_mode="literal")
        trace = HistoricalTrace(l=h1, h_buffer=[h1], eps_l=4.0,
                                records=[], l_history=[h1])
        out = historical_update(trace, h2, 0.1, cfg, lambda v: 1.0)  # t=2 <= tau
        assert np.array_equal(out.records[-1].weights, [0.5, 0.5])
        assert np.array_equal(out.l, 0.5 * h1 + 0.5 * h2)

    def test_truncation_reads_only_its_window(self):
        # responses before the window are NaN: 0 * NaN would poison l_t
        rng = np.random.default_rng(15)
        for mode in ("sliding", "literal"):
            for tau in (1, 2, 4):
                for t in range(2, 10):
                    if mode == "literal" and t <= tau:
                        continue
                    n = t - tau if mode == "literal" else min(tau, t)
                    hs = [rng.standard_normal(3) for _ in range(t)]
                    buffer = [np.full(3, np.nan)] * (t - n) + hs[t - n:t - 1]
                    trace = HistoricalTrace(l=np.zeros(3), h_buffer=buffer, eps_l=2.0,
                                            records=[], l_history=[np.zeros(3)])
                    cfg = HistoricalConfig(tau=tau, window_mode=mode)
                    out = historical_update(trace, hs[-1], 0.5, cfg, lambda v: 1.0)
                    rec = out.records[-1]
                    assert rec.branch == "trunc" and len(rec.weights) == n
                    expected = sum((1.0 / n) * h for h in hs[t - n:])
                    assert np.array_equal(out.l, expected)
                    replayed = replay_update(trace, hs[-1], rec)
                    assert np.array_equal(replayed.l, expected)

    def test_non_finite_state_names_step_branch_and_alpha(self):
        # literal alpha < 0 amplifies l: (1 - alpha) * 1e308 overflows
        big = np.full(3, 1e308)
        trace = HistoricalTrace(l=big, h_buffer=[big], eps_l=0.1,
                                records=[], l_history=[big])
        cfg = HistoricalConfig(tau=2, alpha_policy="literal")

        def never_called(v):
            raise AssertionError("a non-finite state must not be rescored")

        with np.errstate(over="ignore"), \
                pytest.raises(ValueError, match=r"t=2 \(blend branch, alpha=-1\.49"):
            historical_update(trace, np.ones(3), 2.0, cfg, never_called)

    def test_non_finite_truncation_state_names_step_and_branch(self):
        rng = np.random.default_rng(16)
        h1, h2 = rng.standard_normal(3), rng.standard_normal(3)
        trace = initial_trace(h1, lambda v: 2.0)
        cfg = HistoricalConfig(tau=2)

        def never_called(v):
            raise AssertionError("a non-finite state must not be rescored")

        # a state formed up front, and one formed from the window here
        for h, trunc in ((h2, (np.full(3, np.nan), 1.0)), (np.full(3, np.inf), None)):
            with pytest.raises(ValueError, match=r"t=2 \(trunc branch, alpha=None"):
                historical_update(trace, h, 0.5, cfg, never_called, trunc)

    def test_shape_and_loss_errors(self):
        trace = initial_trace(np.zeros(3), lambda v: 1.0)
        cfg = HistoricalConfig()
        with pytest.raises(ShapeError):
            historical_update(trace, np.zeros(4), 1.0, cfg, lambda v: 1.0)
        with pytest.raises(ValueError):
            historical_update(trace, np.zeros(3), 0.0, cfg, lambda v: 1.0)

    @pytest.mark.parametrize("eps_h", [math.inf, math.nan])
    def test_non_finite_eps_h_names_the_step(self, eps_h):
        # unchecked, inf would blend with alpha 0 (clamped) and nan truncate
        trace = initial_trace(np.zeros(3), lambda v: 1.0)
        trace = historical_update(trace, np.ones(3), 2.0, HistoricalConfig(), lambda v: 1.0)
        with pytest.raises(ValueError, match=f"^eps_h must be finite and positive "
                                             rf"\(floored\), got {eps_h} at step t=3$"):
            historical_update(trace, np.ones(3), eps_h, HistoricalConfig(), lambda v: 1.0)

    def test_trace_bookkeeping(self):
        rng = np.random.default_rng(4)
        head = init_head(rng, 3, 4)
        loss = lambda v: step_loss(head, v, 1)  # noqa: E731
        hs = [rng.standard_normal(3) for _ in range(6)]
        trace = drive(hs, HistoricalConfig(tau=2), loss, loss)
        assert trace.t == 6
        assert len(trace.records) == 6 and len(trace.l_history) == 6
        assert trace.records[0].branch == "init"
        assert all(r.eps_l_new >= EPS_LOSS_FLOOR for r in trace.records)
        assert np.array_equal(trace.l_history[-1], trace.l)
        for k, h in enumerate(hs):
            assert np.array_equal(trace.h_buffer[k], h)

    def test_initial_trace_records_a_one_response_window(self):
        trace = initial_trace(np.random.default_rng(6).standard_normal(3), lambda v: 1.5)
        rec = trace.records[0]
        assert (rec.branch, rec.alpha) == ("init", None)
        assert rec.weights.dtype == np.float64 and rec.weights.tolist() == [1.0]

    def test_backward_of_one_step_returns_its_gradient_bitwise(self):
        # the init record's window of one carries dl_1 to h_1 unchanged
        rng = np.random.default_rng(7)
        trace = initial_trace(rng.standard_normal(4), lambda v: 1.5)
        dl_in = rng.standard_normal((1, 4)) * np.exp2(rng.integers(-30, 30, size=(1, 4)))
        assert np.array_equal(_historical_backward(trace.records, dl_in), dl_in)

    def test_updates_do_not_mutate_previous_trace(self):
        rng = np.random.default_rng(5)
        h1 = rng.standard_normal(3)
        trace = initial_trace(h1, lambda v: 1.0)
        snapshot = (trace.l.copy(), len(trace.h_buffer), trace.eps_l,
                    len(trace.records))
        historical_update(trace, rng.standard_normal(3), 2.0,
                          HistoricalConfig(), lambda v: 1.0)
        assert np.array_equal(trace.l, snapshot[0])
        assert (len(trace.h_buffer), trace.eps_l, len(trace.records)) == \
            (snapshot[1], snapshot[2], snapshot[3])


class TestOracleEquivalence:
    def test_hundred_episodes_bitwise(self):
        # full recursion vs from-scratch re-evaluation, every step, bitwise
        policies = ("literal", "clamped", "inverse_loss")
        modes = ("sliding", "literal")
        for ep in range(100):
            rng = np.random.default_rng([7, ep])
            T = int(rng.integers(1, 13))
            dim = int(rng.integers(2, 6))
            n_classes = int(rng.integers(2, 5))
            label = int(rng.integers(n_classes))
            psh = init_head(rng, dim, n_classes)
            fh = init_head(rng, dim, n_classes)
            cfg = HistoricalConfig(
                tau=int(rng.integers(1, 5)),
                window_mode=modes[ep % 2],
                alpha_policy=policies[ep % 3],
            )
            loss_h = lambda v: step_loss(psh, v, label)  # noqa: E731
            loss_l = lambda v: step_loss(fh, v, label)  # noqa: E731
            hs = [rng.standard_normal(dim) * 3 for _ in range(T)]
            trace = drive(hs, cfg, loss_h, loss_l)
            l, eps_l, branches, history = oracle_run(hs, cfg, loss_h, loss_l)
            assert [r.branch for r in trace.records] == branches
            assert np.array_equal(trace.l, l)
            assert trace.eps_l == eps_l
            for mine, theirs in zip(trace.l_history, history):
                assert np.array_equal(mine, theirs)

    def test_both_branches_exercised(self):
        seen = set()
        for ep in range(100):
            rng = np.random.default_rng([7, ep])
            T = int(rng.integers(1, 13))
            dim = int(rng.integers(2, 6))
            n_classes = int(rng.integers(2, 5))
            label = int(rng.integers(n_classes))
            psh = init_head(rng, dim, n_classes)
            fh = init_head(rng, dim, n_classes)
            cfg = HistoricalConfig(tau=int(rng.integers(1, 5)))
            hs = [rng.standard_normal(dim) * 3 for _ in range(T)]
            trace = drive(hs, cfg, lambda v: step_loss(psh, v, label),
                          lambda v: step_loss(fh, v, label))
            seen |= {r.branch for r in trace.records}
        assert {"blend", "trunc"} <= seen


def long_run(T, mode, policy):
    """A T-step run whose losses lie in [1, 2), so the literal alpha stays
    >= 0.5 * ln(1/2) and l_t finite at these horizons; returns the responses,
    the config, the two loss functions and the driven trace."""
    rng = np.random.default_rng([31, T])
    a, b = rng.standard_normal((2, 3))
    loss_h = lambda v: 1.0 + float(a @ v) ** 2 / (float(a @ v) ** 2 + 9.0)  # noqa: E731
    loss_l = lambda v: 1.0 + float(b @ v) ** 2 / (float(b @ v) ** 2 + 9.0)  # noqa: E731
    cfg = HistoricalConfig(tau=5, window_mode=mode, alpha_policy=policy)
    hs = [rng.standard_normal(3) * 3 for _ in range(T)]
    return hs, cfg, loss_h, loss_l, drive(hs, cfg, loss_h, loss_l)


class TestLongHorizon:
    @pytest.mark.parametrize("T", [200, 480])
    def test_oracle_and_replay_bitwise(self, T):
        for mode in ("sliding", "literal"):
            for policy in ("literal", "clamped", "inverse_loss"):
                hs, cfg, loss_h, loss_l, trace = long_run(T, mode, policy)
                l, eps_l, branches, history = oracle_run(hs, cfg, loss_h, loss_l)
                assert [r.branch for r in trace.records] == branches
                assert {"blend", "trunc"} <= set(branches)
                assert trace.eps_l == eps_l
                for mine, theirs in zip(trace.l_history, history):
                    assert np.array_equal(mine, theirs)
                for t, rec in enumerate(trace.records, start=1):
                    if rec.branch == "trunc":
                        n = t - cfg.tau if mode == "literal" and t > cfg.tau \
                            else min(cfg.tau, t)
                        assert len(rec.weights) == n
                replay = initial_trace(hs[0], loss_l)
                for h, rec in zip(hs[1:], trace.records[1:]):
                    replay = replay_update(replay, h, rec)
                for mine, theirs in zip(replay.l_history, trace.l_history):
                    assert np.array_equal(mine, theirs)

    @pytest.mark.parametrize("T", [200, 480])
    def test_final_state_is_a_convex_combination(self, T):
        # the backward seeded with ones at T gives each frame's weight a_t
        # in l_T = sum_t a_t h_t; clamped and inverse_loss keep it convex
        for mode in ("sliding", "literal"):
            for policy in ("clamped", "inverse_loss"):
                hs, _, _, _, trace = long_run(T, mode, policy)
                dl_in = np.zeros((T, 3))
                dl_in[-1] = 1.0
                dH = _historical_backward(trace.records, dl_in)
                a = dH[:, 0]
                assert np.array_equal(dH, a[:, None] * np.ones(3))
                assert np.all(a >= 0.0)
                assert abs(a.sum() - 1.0) < 1e-12
                assert np.max(np.abs(a @ np.stack(hs) - trace.l)) < 1e-12


def window_sum(hs, t, cfg):
    """Step t's truncation state summed over its own window: +0, then each
    weight of truncation_weights times its response, in ascending order."""
    w = truncation_weights(t, cfg.tau, cfg.window_mode)
    acc = np.zeros_like(hs[0])
    for wk, h in zip(w.tolist(), hs[t - len(w):t]):
        acc += wk * h
    return acc


class TestTruncationStates:
    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("mode", WINDOW_MODES)
    def test_rows_equal_window_and_oracle_sums_bitwise(self, mode, stacked):
        # window_mean over each step's window in both modes, and each row of
        # the sliding truncation_states, against the per-step loop and the
        # oracle's full-buffer sum; exponents spread over ~16 binades, so a
        # reordered sum would show
        for tau in range(1, 8):
            cfg = HistoricalConfig(tau=tau, window_mode=mode)
            for T in sorted({1, 2, tau, tau + 1, 30, 480, 1920}):
                rng = np.random.default_rng([51, tau, T, stacked])
                shape = (3, T, 4) if stacked else (T, 4)
                H = rng.standard_normal(shape) * np.exp2(rng.integers(-8, 8, size=shape))
                S = truncation_states(H, tau)
                assert S.shape == H.shape
                hs = list(np.moveaxis(H, -2, 0))
                rows = range(1, T + 1) if T <= 30 else sorted(
                    set(range(1, tau + 3)) | {T // 2, T - 1, T}
                    | set(rng.integers(1, T + 1, size=4).tolist()))
                for t in rows:
                    expected = oracle_truncation(hs, t, cfg)
                    assert np.array_equal(window_sum(hs, t, cfg), expected), (tau, T, t)
                    n = len(truncation_weights(t, tau, mode))
                    assert np.array_equal(window_mean(np.array(hs[t - n:t])), expected)
                    if mode == "sliding":
                        assert np.array_equal(S[..., t - 1, :], expected), (tau, T, t)

    def test_window_mean_starts_from_positive_zero(self):
        # +0 + -0 is +0, so a window of negative zeros sums to +0
        l = window_mean(np.full((3, 2), -0.0))
        assert np.array_equal(np.signbit(l), [False, False])
        assert np.array_equal(np.signbit(truncation_states(np.full((4, 2), -0.0), 2)),
                              np.zeros((4, 2), dtype=bool))


class TestBatchedScoring:
    def test_per_row_scores_equal_step_loss_bitwise(self):
        # one head call over a (n, 1, U) stack, then cross_entropy with one
        # label (training) or per-row labels (pseudo-labels), against a
        # step_loss call per row
        rows = 0
        for case in range(1000):
            rng = np.random.default_rng([53, case])
            C, U = int(rng.integers(2, 6)), int(rng.integers(1, 33))
            head = init_head(rng, U, C)
            head = HeadParams(V=head.V * rng.exponential(2.0), c=rng.standard_normal(C))
            S = rng.standard_normal((20, U)) * rng.exponential(2.0)
            ys = rng.integers(C, size=20)
            probs = head_predict(head, S[:, None, :])[:, 0]
            for s, p in zip(S, probs):
                assert np.array_equal(p, head_predict(head, s))
            assert cross_entropy(probs, ys).tolist() == \
                [step_loss(head, s, y) for s, y in zip(S, ys.tolist())]
            y = int(ys[0])
            assert cross_entropy(probs, y).tolist() == [step_loss(head, s, y) for s in S]
            rows += len(S)
        assert rows >= 20000


def forward_against_drive(H, cfg, psh, fh, label):
    """The live forward's recursion (_run_historical of a one-layer network
    whose per-step and final heads are psh and fh) and drive's, over the
    responses H (T, U); drive's loss_h reads the forward's eps_h."""
    net = build_network(np.random.default_rng(0), 1, (H.shape[1],), psh.n_classes,
                        hist_cfg=cfg)
    for mine, theirs in ((net.per_step_head, psh), (net.final_head, fh)):
        mine.V[...], mine.c[...] = theirs.V, theirs.c
    probs = head_predict(psh, H)
    forward = _run_historical(net, 0, H, probs, label, None)
    eps_h = iter(cross_entropy(probs, label).tolist()[1:])
    driven = drive(list(H), cfg, lambda v: next(eps_h), lambda v: step_loss(fh, v, label))
    return forward, driven


def assert_same_recursion(forward, driven):
    assert len(forward.records) == len(driven.records)
    for a, b in zip(forward.records, driven.records):
        assert (a.branch, a.eps_h, a.eps_l_prev, a.eps_l_new, a.alpha) == \
            (b.branch, b.eps_h, b.eps_l_prev, b.eps_l_new, b.alpha)
        assert (a.weights is None) == (b.weights is None)
        assert a.weights is None or np.array_equal(a.weights, b.weights)
    assert len(forward.l_history) == len(driven.l_history)
    for a, b in zip(forward.l_history, driven.l_history):
        assert np.array_equal(a, b)


class TestForwardMatchesDrive:
    def test_criterion_3_episodes(self):
        # the 100 episodes of the criterion-3 acceptance test
        policies = ("literal", "clamped", "inverse_loss")
        modes = ("sliding", "literal")
        for ep in range(100):
            rng = np.random.default_rng([31, ep])
            T = int(rng.integers(1, 13))
            dim = int(rng.integers(2, 6))
            n_classes = int(rng.integers(2, 5))
            label = int(rng.integers(n_classes))
            psh = init_head(rng, dim, n_classes)
            fh = init_head(rng, dim, n_classes)
            cfg = HistoricalConfig(tau=int(rng.integers(1, 5)),
                                   window_mode=modes[ep % 2],
                                   alpha_policy=policies[ep % 3])
            H = np.stack([rng.standard_normal(dim) * 3 for _ in range(T)])
            assert_same_recursion(*forward_against_drive(H, cfg, psh, fh, label))

    @pytest.mark.parametrize("T", [200, 480])
    def test_long_horizon_cases(self, T):
        # TestLongHorizon's responses and configs, scored by small heads so
        # the literal alpha keeps l_t finite
        for mode in WINDOW_MODES:
            for policy in ("literal", "clamped", "inverse_loss"):
                hs, cfg, _, _, _ = long_run(T, mode, policy)
                rng = np.random.default_rng([32, T])
                psh, fh = (HeadParams(V=0.05 * h.V, c=0.05 * h.c)
                           for h in (init_head(rng, 3, 3), init_head(rng, 3, 3)))
                forward, driven = forward_against_drive(np.stack(hs), cfg, psh, fh, 1)
                assert {"blend", "trunc"} <= {r.branch for r in forward.records}
                assert_same_recursion(forward, driven)


class TestReplay:
    def test_replay_reproduces_run_bitwise(self):
        rng = np.random.default_rng(8)
        head = init_head(rng, 4, 3)
        loss = lambda v: step_loss(head, v, 0)  # noqa: E731
        cfg = HistoricalConfig(tau=2, alpha_policy="inverse_loss")
        hs = [rng.standard_normal(4) for _ in range(7)]
        trace = drive(hs, cfg, loss, loss)
        replay = initial_trace(hs[0], loss)
        for h, rec in zip(hs[1:], trace.records[1:]):
            replay = replay_update(replay, h, rec)
        assert np.array_equal(replay.l, trace.l)
        for mine, theirs in zip(replay.l_history, trace.l_history):
            assert np.array_equal(mine, theirs)

    def test_replay_rejects_init_record(self):
        trace = initial_trace(np.zeros(2), lambda v: 1.0)
        rec = StepRecord(branch="init", eps_h=1.0, eps_l_prev=1.0, eps_l_new=1.0)
        with pytest.raises(ValueError):
            replay_update(trace, np.zeros(2), rec)


class TestInferenceLosses:
    def test_confident_response_floors(self):
        psh = HeadParams(V=np.eye(2) * 40.0, c=np.zeros(2))
        fh = HeadParams(V=np.zeros((2, 2)), c=np.zeros(2))
        probs = head_predict(psh, np.array([1.0, -1.0]))
        targets, eps_h = inference_losses(probs[None, :], "pseudo_label")
        assert targets == [0] and eps_h == [EPS_LOSS_FLOOR]
        assert abs(step_loss(fh, np.zeros(2), targets[0]) - math.log(2.0)) < 1e-12

    def test_pseudo_labels_are_row_argmaxes(self):
        rng = np.random.default_rng(14)
        probs = rng.dirichlet(np.ones(3), size=6)
        probs[5] = [0.4, 0.4, 0.2]  # a tie goes to the lowest class
        targets, eps_h = inference_losses(probs, "pseudo_label")
        assert targets.tolist() == [int(np.argmax(p)) for p in probs]
        assert targets[5] == 0
        assert eps_h.tolist() == [cross_entropy(p, y) for p, y in zip(probs, targets.tolist())]
        # a batch (B, T, C): each row's targets and losses, bit for bit
        batch = rng.dirichlet(np.ones(3), size=(4, 6))
        batch[2, 1] = [0.3, 0.3, 0.4]
        targets, eps_h = inference_losses(batch, "pseudo_label")
        for b, probs in enumerate(batch):
            row_targets, row_eps_h = inference_losses(probs, "pseudo_label")
            assert np.array_equal(targets[b], row_targets)
            assert np.array_equal(eps_h[b], row_eps_h)

    def test_fixed_blend_unit_losses(self):
        probs = np.random.default_rng(9).dirichlet(np.ones(2), size=(5, 3))
        for p in (probs[0], probs):
            targets, eps_h = inference_losses(p, "fixed_blend")
            assert targets is None and np.array_equal(eps_h, np.ones(p.shape[:-1]))

    def test_historical_predicting_pseudo_label_better_blends(self):
        # per-step head mildly prefers class 0; final head strongly does
        psh = HeadParams(V=np.zeros((2, 2)), c=np.array([0.2, 0.0]))
        fh = HeadParams(V=np.eye(2) * 10.0, c=np.zeros(2))
        probs = head_predict(psh, np.zeros(2))
        (pseudo,), (eps_h,) = inference_losses(probs[None, :], "pseudo_label")
        eps_l = step_loss(fh, np.array([1.0, -1.0]), pseudo)
        assert eps_l < eps_h  # blend branch fires on this comparison

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            inference_losses(np.full((1, 2), 0.5), "oracle")


class TestInvariantsAndDegenerate:
    def test_clamped_stays_in_coordinate_envelope(self):
        rng = np.random.default_rng(11)
        head = init_head(rng, 3, 3)
        cfg = HistoricalConfig(tau=3, alpha_policy="clamped")
        for trial in range(30):
            label = int(rng.integers(3))
            loss = lambda v: step_loss(head, v, label)  # noqa: E731
            hs = [rng.standard_normal(3) * 2 for _ in range(8)]
            trace = drive(hs, cfg, loss, loss)
            stacked = np.stack(hs)
            lo = stacked.min(axis=0) - 1e-12
            hi = stacked.max(axis=0) + 1e-12
            for l in trace.l_history:
                assert np.all(l >= lo) and np.all(l <= hi)

    def test_fixed_blend_clamped_holds_first_response(self):
        # unit losses keep the blend branch firing with alpha 0 forever
        rng = np.random.default_rng(12)
        psh = init_head(rng, 4, 3)
        cfg = HistoricalConfig(tau=3, alpha_policy="clamped",
                               inference_policy="fixed_blend")
        hs = [rng.standard_normal(4) for _ in range(9)]
        probs = np.stack([head_predict(psh, h) for h in hs])
        targets, eps_h = inference_losses(probs, "fixed_blend")
        assert targets is None and eps_h.tolist() == [1.0] * 9
        trace = initial_trace(hs[0], lambda v: 1.0)
        for t in range(1, 9):
            trace = historical_update(trace, hs[t], eps_h[t], cfg, lambda v: 1.0)
        assert np.array_equal(trace.l, hs[0])
        assert all(r.branch == "blend" for r in trace.records[1:])

    def test_permutation_equivariance_bitwise(self):
        # an order-insensitive loss makes the permuted run bit-identical
        rng = np.random.default_rng(13)
        dim = 5
        perm = rng.permutation(dim)
        loss = lambda v: 0.5 + float(np.sum(np.sort(np.abs(v))))  # noqa: E731
        cfg = HistoricalConfig(tau=2, alpha_policy="inverse_loss")
        hs = [rng.standard_normal(dim) for _ in range(7)]
        base = drive(hs, cfg, loss, loss)
        permuted = drive([h[perm] for h in hs], cfg, loss, loss)
        assert [r.branch for r in base.records] == \
            [r.branch for r in permuted.records]
        for mine, theirs in zip(base.l_history, permuted.l_history):
            assert np.array_equal(mine[perm], theirs)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            HistoricalConfig(tau=0)
        with pytest.raises(ValueError):
            HistoricalConfig(window_mode="boxcar")
        with pytest.raises(ValueError):
            HistoricalConfig(alpha_policy="softmax")
        with pytest.raises(ValueError):
            HistoricalConfig(inference_policy="oracle")

    def test_tau_must_fit_the_checkpoint_field(self):
        # a checkpoint stores tau as an unsigned 32-bit field
        assert HistoricalConfig(tau=2**32 - 1).tau == 2**32 - 1
        with pytest.raises(ValueError, match=r"^tau must be <= 4294967295, got 4294967296$"):
            HistoricalConfig(tau=2**32)
