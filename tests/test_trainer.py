"""Tests for the optimization loop: schedule, Adam, batching, k-fold,
training determinism, and the finite-difference harness."""

import hashlib
import itertools
import warnings

import numpy as np
import pytest

from histlstm import trainer
from histlstm.dataio import Dataset, FeatureSequence, SynthConfig, synth_keyframe_dataset
from histlstm.historical import (ALPHA_POLICIES, INFERENCE_POLICIES, WINDOW_MODES,
                                 HistoricalConfig)
from histlstm.network import backward_sequence, build_network, forward_sequence, total_loss
from histlstm.numerics import ShapeError, finite_diff
from histlstm.trainer import (
    AdamState,
    GradCheckReport,
    Metrics,
    TrainConfig,
    _batch_gradients,
    adam_step,
    confusion_table,
    cross_validate,
    curve_csv,
    evaluate,
    grad_check,
    kfold_split,
    lr_schedule,
    train,
)


def tiny_cfg(**kw):
    base = dict(layer_units=(4,), epochs=2, batch_size=8, dropout_p=0.0,
                l2=0.0001, lr0=0.01, seed=0, lambda_aux=0.5, tau=2,
                use_historical=False)
    base.update(kw)
    return TrainConfig(**base)


def separable_dataset(n_per_class=20, seed=11):
    # class direction on every frame, low noise: linearly separable
    cfg = SynthConfig(classes=2, dim=6, length=5, signal_window=(0, 5),
                      noise_sigma=0.25, distractor=False, seed=seed,
                      n_per_class=n_per_class)
    return synth_keyframe_dataset(cfg)


class TestTrainConfig:
    @pytest.mark.parametrize("option, value, message", [
        ("peephole", "x", "unknown peephole mode 'x'"),
        ("hist_placement", "middle", "unknown hist_placement 'middle'"),
        ("dropout_p", 1.0, r"dropout_p must be in \[0, 1\), got 1.0"),
        ("dropout_p", -0.1, r"dropout_p must be in \[0, 1\), got -0.1"),
        ("dropout_p", float("nan"), r"dropout_p must be in \[0, 1\), got nan"),
        ("dropout_p", float("inf"), r"dropout_p must be in \[0, 1\), got inf"),
        ("layer_units", (3, 0), r"layer_units must hold >= 1 layer of >= 1 unit, got \[3, 0\]"),
        ("layer_units", (), r"layer_units must hold >= 1 layer of >= 1 unit, got \[\]"),
    ])
    def test_network_options_are_refused_as_the_network_refuses_them(self, option, value,
                                                                     message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            TrainConfig(**{option: value})
        options = dict(layer_units=(3,), dropout_p=0.0, hist_placement="top", peephole="diag")
        options[option] = value
        with pytest.raises(ValueError, match=f"^{message}$"):
            build_network(np.random.default_rng(0), 2, n_classes=3, **options)


class TestLrSchedule:
    def test_staircase_spot_values(self):
        cfg = TrainConfig()
        assert lr_schedule(0, cfg) == 0.001
        assert lr_schedule(99999, cfg) == 0.001
        assert lr_schedule(100000, cfg) == pytest.approx(0.00096, rel=1e-15)
        assert lr_schedule(200000, cfg) == pytest.approx(0.001 * 0.96 ** 2,
                                                         rel=1e-15)

    def test_custom_period(self):
        cfg = tiny_cfg(lr0=0.1, decay_base=0.5, decay_every=3)
        got = [lr_schedule(s, cfg) for s in range(7)]
        want = [0.1, 0.1, 0.1, 0.05, 0.05, 0.05, 0.025]
        assert got == pytest.approx(want, rel=1e-15)

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError, match="step"):
            lr_schedule(-1, TrainConfig())


class TestAdam:
    def net_and_state(self, seed=0):
        rng = np.random.default_rng(seed)
        net = tiny_cfg().build(rng, 3, 2)
        return net, AdamState.for_network(net)

    def test_moments_are_one_flat_block(self):
        net, state = self.net_and_state()
        assert list(state.m) == list(state.v) == ["theta"]
        assert state.m["theta"].shape == state.v["theta"].shape == net.theta.shape

    def test_first_step_closed_form(self):
        # t=1: m_hat = g and v_hat = g*g exactly, so the update is
        # -lr * g / (|g| + eps) regardless of beta values
        net, state = self.net_and_state()
        params = [("theta", net.theta)]
        rng = np.random.default_rng(5)
        grads = {name: rng.standard_normal(arr.shape) for name, arr in params}
        before = {name: arr.copy() for name, arr in params}
        adam_step(params, grads, state, lr=0.25)
        for name, arr in params:
            g = grads[name]
            want = before[name] - 0.25 * g / (np.abs(g) + state.eps)
            assert np.allclose(arr, want, rtol=0, atol=1e-15)
        assert state.step == 1

    def test_zero_gradient_is_noop(self):
        net, state = self.net_and_state()
        params = [("theta", net.theta)]
        before = {name: arr.copy() for name, arr in params}
        grads = {name: np.zeros_like(arr) for name, arr in params}
        adam_step(params, grads, state, lr=1.0)
        for name, arr in params:
            assert np.array_equal(arr, before[name])

    def test_constant_gradient_moves_by_lr_each_step(self):
        # with a constant gradient the bias corrections cancel at every t,
        # so each step is exactly -lr * g / (|g| + eps)
        net, state = self.net_and_state()
        params = [("theta", net.theta)]
        rng = np.random.default_rng(6)
        grads = {name: rng.standard_normal(arr.shape) for name, arr in params}
        for t in range(5):
            before = {name: arr.copy() for name, arr in params}
            adam_step(params, grads, state, lr=0.1)
            for name, arr in params:
                g = grads[name]
                want = before[name] - 0.1 * g / (np.abs(g) + state.eps)
                assert np.allclose(arr, want, rtol=0, atol=1e-12)
        assert state.step == 5

    def test_updates_apply_in_place(self):
        net, state = self.net_and_state()
        params = [("theta", net.theta)]
        handle = params[0][1]
        grads = {name: np.ones_like(arr) for name, arr in params}
        out_params, out_state = adam_step(params, grads, state, lr=0.1)
        assert out_params is params and out_state is state
        assert out_params[0][1] is handle

    def test_shape_mismatch_rejected(self):
        net, state = self.net_and_state()
        params = [("theta", net.theta)]
        grads = {name: np.zeros_like(arr) for name, arr in params}
        grads[params[0][0]] = np.zeros(999)
        with pytest.raises(ShapeError, match="shape"):
            adam_step(params, grads, state, lr=0.1)


class TestMetricsFormat:
    def sample_metrics(self):
        return Metrics(accuracy=0.75,
                       confusion=np.array([[3, 1], [1, 3]], dtype=np.int64),
                       loss_curve=[(0, 0.001, 1.25, 0.5), (1, 0.001, 0.75, 1.0)])

    def test_curve_csv_round_trips_floats(self):
        text = curve_csv(self.sample_metrics())
        lines = text.strip().split("\n")
        assert lines[0] == "step,lr,loss,accuracy"
        step, lr, loss, acc = lines[1].split(",")
        assert int(step) == 0 and float(lr) == 0.001 and float(loss) == 1.25

    def test_confusion_table_layout(self):
        m = self.sample_metrics()
        text = confusion_table(m)
        assert "accuracy 0.7500" in text
        assert "true\\pred" in text
        assert "per-fold" not in text
        m.fold_accuracies = [0.7, 0.8]
        assert "per-fold 0.7000 0.8000" in confusion_table(m)


class TestEvaluate:
    def test_zero_network_ties_break_low(self):
        # uniform probabilities everywhere: argmax picks class 0, so
        # accuracy equals the share of label-0 sequences
        ds = separable_dataset(n_per_class=5)
        cfg = tiny_cfg()
        net = cfg.build(np.random.default_rng(0), ds.dim, ds.n_classes)
        net.theta[...] = 0.0
        m = evaluate(net, ds)
        assert m.accuracy == 0.5
        assert np.array_equal(m.confusion, [[5, 0], [5, 0]])

    def test_confusion_counts_every_sequence(self):
        ds = separable_dataset(n_per_class=7)
        net = tiny_cfg().build(np.random.default_rng(1), ds.dim, ds.n_classes)
        m = evaluate(net, ds)
        assert int(m.confusion.sum()) == len(ds)

    def test_class_count_mismatch_rejected(self):
        ds = separable_dataset(n_per_class=3)
        net = tiny_cfg().build(np.random.default_rng(0), ds.dim, 1)
        with pytest.raises(ValueError, match="classes"):
            evaluate(net, ds)
        ds = synth_keyframe_dataset(SynthConfig(classes=4, dim=3, length=4,
                                                signal_window=(0, 4), n_per_class=2))
        net = tiny_cfg().build(np.random.default_rng(0), ds.dim, 2)
        with pytest.raises(ValueError, match="^dataset declares 4 classes, model has 2$"):
            evaluate(net, ds)


    def test_error_names_the_sequence(self):
        ds = separable_dataset(n_per_class=2)
        ds.sequences[1].frames[3, 0] = np.nan
        net = tiny_cfg().build(np.random.default_rng(0), ds.dim, ds.n_classes)
        with pytest.raises(ValueError, match=f"^{ds.sequences[1].id}: sequence contains non-finite"):
            evaluate(net, ds)
        ds.sequences[1].id = ""
        with pytest.raises(ValueError, match="^sequence 1: sequence contains non-finite"):
            evaluate(net, ds)


def per_sequence_confusion(net, ds):
    confusion = np.zeros((net.n_classes,) * 2, dtype=np.int64)
    for seq in ds:
        confusion[seq.label, int(np.argmax(forward_sequence(net, seq.frames).final_probs))] += 1
    return confusion


def mixed_length_dataset(seed, n_classes=3, dim=3):
    """7 sequences at each of T = 1, 2, 5, 9 and 17, in shuffled order."""
    rng = np.random.default_rng(seed)
    lengths = rng.permutation(np.repeat([1, 2, 5, 9, 17], 7))
    return Dataset([FeatureSequence(frames=2.0 * rng.standard_normal((T, dim)),
                                    label=int(rng.integers(n_classes)), id=f"s{i}")
                    for i, T in enumerate(lengths)], n_classes=n_classes)


class TestBatchedEvaluate:
    """evaluate's row batches against the per-sequence forward, bit for bit."""

    BUDGET = 12  # T=2 splits 7 rows into 6 + 1; T=17 still runs one row

    def net(self, seed, placement="all", peephole="diag", use_historical=True, **hist):
        # random heads without biases make the recursion blend, truncate and
        # change its pseudo-labels
        rng = np.random.default_rng(seed)
        net = build_network(rng, 3, (4, 3), 3, hist_cfg=HistoricalConfig(tau=2, **hist),
                            hist_placement=placement, peephole=peephole,
                            use_historical=use_historical)
        net.theta[...] = rng.standard_normal(net.theta.size)
        for scorer in filter(None, net.scorers):
            scorer[0].c[...] = 0.0
            scorer[0].V[...] *= 3.0
        return net

    def check(self, net, monkeypatch):
        ds = mixed_length_dataset(seed=len(net.theta))
        by_length = {}
        for seq in ds:
            by_length.setdefault(seq.T, []).append(seq)
        for T, group in by_length.items():
            probs = forward_sequence(net, np.stack([seq.frames for seq in group])).final_probs
            for p, seq in zip(probs, group):
                assert np.array_equal(p, forward_sequence(net, seq.frames).final_probs), T
        chunks = []

        def spy(net, X, training=False):
            if X.ndim != 3:
                raise AssertionError("evaluate fell back to the per-sequence loop")
            chunks.append(X.shape[:2])
            return forward_sequence(net, X, training=training)

        with monkeypatch.context() as m:
            m.setattr(trainer, "EVAL_STEP_BUDGET", self.BUDGET)
            m.setattr(trainer, "forward_sequence", spy)
            metrics = evaluate(net, ds)
        assert np.array_equal(metrics.confusion, per_sequence_confusion(net, ds))
        assert sorted(chunks) == sorted([(7, 1), (6, 2), (1, 2), (2, 5), (2, 5), (2, 5), (1, 5)]
                                        + [(1, 9)] * 7 + [(1, 17)] * 7)
        # what the reference did: its branches, and its pseudo-label changes
        branches, changes = set(), 0
        for seq in ds:
            trace = forward_sequence(net, seq.frames)
            for k in net.scored:
                branches |= {r.branch for r in trace.hists[k].records}
                y = np.argmax(trace.probs[k], axis=1)
                changes += int(np.count_nonzero(y[1:] != y[:-1]))
        return branches, changes

    @pytest.mark.parametrize("inference", INFERENCE_POLICIES)
    @pytest.mark.parametrize("window", WINDOW_MODES)
    @pytest.mark.parametrize("alpha", ALPHA_POLICIES)
    def test_policies(self, alpha, window, inference, monkeypatch):
        net = self.net(seed=len(alpha) + 10 * len(window), alpha_policy=alpha,
                       window_mode=window, inference_policy=inference)
        with np.errstate(divide="ignore"):  # the literal alpha drives some p to 0
            branches, changes = self.check(net, monkeypatch)
        assert "blend" in branches and changes > 0
        assert ("trunc" in branches) == (inference == "pseudo_label")

    @pytest.mark.parametrize("peephole", ["diag", "full"])
    @pytest.mark.parametrize("placement", ["top", "all"])
    def test_placements_and_peepholes(self, placement, peephole, monkeypatch):
        net = self.net(seed=1, placement=placement, peephole=peephole,
                       alpha_policy="inverse_loss")
        branches, changes = self.check(net, monkeypatch)
        assert {"blend", "trunc"} <= branches and changes > 0

    def test_without_historical_layer(self, monkeypatch):
        assert self.check(self.net(seed=4, use_historical=False), monkeypatch) == (set(), 0)

    @pytest.mark.parametrize("inference", INFERENCE_POLICIES)
    def test_default_batch_rule(self, inference, monkeypatch):
        """The real constants: 8 rows at T=480, 32 at T=30, and a sequence
        longer than the budget alone, each row its own forward's bits."""
        rng = np.random.default_rng(7)
        lengths = rng.permutation([480] * 16 + [30] * 70 + [4000])
        ds = Dataset([FeatureSequence(frames=2.0 * rng.standard_normal((T, 3)),
                                      label=int(rng.integers(3)), id=f"s{i}")
                      for i, T in enumerate(lengths)], n_classes=3)
        net = self.net(seed=6, alpha_policy="inverse_loss", inference_policy=inference)
        batches = []

        def spy(net, X, training=False):
            if X.ndim != 3:
                raise AssertionError("evaluate fell back to the per-sequence loop")
            batches.append((X, forward_sequence(net, X, training=training)))
            return batches[-1][1]

        with monkeypatch.context() as m:
            m.setattr(trainer, "forward_sequence", spy)
            metrics = evaluate(net, ds)
        assert sorted(X.shape[:2] for X, _ in batches) == [(1, 4000), (6, 30), (8, 480), (8, 480),
                                                           (32, 30), (32, 30)]
        assert np.array_equal(metrics.confusion, per_sequence_confusion(net, ds))
        branches = set()
        for X, out in (batch for batch in batches if batch[0].shape[1] == 480):
            for x, p in zip(X, out.final_probs):
                trace = forward_sequence(net, x)
                assert np.array_equal(p, trace.final_probs)
                branches |= {r.branch for k in net.scored for r in trace.hists[k].records}
        assert ("trunc" in branches) == (inference == "pseudo_label") and "blend" in branches

    def test_empty_dataset_reads_zero(self):
        m = evaluate(self.net(seed=5), Dataset([], n_classes=3))
        assert m.accuracy == 0.0 and not m.confusion.any()

    def overflow_dataset(self):
        """Four T=400 sequences in one batch: the constant frames of rows 0,
        2 and 3 make the per-step head predict class 1, so the historical
        state truncates; row 1's predict class 0, which the final head
        favors, so the literal alpha (about -7.5) blends until l overflows."""
        net = build_network(np.random.default_rng(0), 1, (1,), 20, dropout_p=0.0,
                            hist_cfg=HistoricalConfig(alpha_policy="literal"))
        net.theta[...] = 0.0
        net.gates[0].U[...] = 1.0
        net.per_step_head.V[1] = 5.0
        net.final_head.c[0] = 50.0
        frames = [np.full((400, 1), v) for v in (1.0, -1.0, 1.0, 1.0)]
        return net, Dataset([FeatureSequence(frames=f, label=0, id=f"row{i}")
                             for i, f in enumerate(frames)], n_classes=20)

    def test_overflow_names_its_branch_and_alpha(self):
        # the batch's and row 1's own pass raise the text historical_update
        # gives a sequence driven step by step
        net, ds = self.overflow_dataset()
        message = ("historical state is not finite at step t=336 "
                   "(blend branch, alpha=-7.453758323092085)")
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError) as caught:
                evaluate(net, ds)
            assert str(caught.value) == "row1: " + message
            with pytest.raises(ValueError) as caught:
                forward_sequence(net, ds.sequences[1].frames)
            assert str(caught.value) == message
            with pytest.raises(ValueError) as caught:
                forward_sequence(net, np.stack([seq.frames for seq in ds]))
            assert str(caught.value) == message

    def test_first_error_in_dataset_order_is_raised(self):
        net, ds = self.overflow_dataset()
        for nan_row in (False, True):
            if nan_row:
                ds.sequences[3].frames[7, 0] = np.nan
            expected = None
            with np.errstate(over="ignore", invalid="ignore"):
                for seq in ds:
                    try:
                        forward_sequence(net, seq.frames)
                    except ValueError as exc:
                        expected = f"{seq.id}: {exc}"
                        break
                assert expected.startswith("row1: historical state is not finite at step t=")
                with pytest.raises(ValueError) as caught:
                    evaluate(net, ds)
            assert str(caught.value) == expected


class TestBatchGradients:
    def test_mean_over_batch_is_mean_of_singles(self):
        # dropout off: per-sequence gradients are independent of batch
        # composition, so the batch mean must equal the elementwise mean
        ds = separable_dataset(n_per_class=2)
        cfg = tiny_cfg(use_historical=True)
        net = cfg.build(np.random.default_rng(3), ds.dim, ds.n_classes)
        rng = np.random.default_rng(0)
        g01, loss01, _ = _batch_gradients(net, ds, [0, 1], cfg, rng)
        g0, loss0, _ = _batch_gradients(net, ds, [0], cfg, rng)
        g1, loss1, _ = _batch_gradients(net, ds, [1], cfg, rng)
        assert loss01 == pytest.approx((loss0 + loss1) / 2, rel=1e-15)
        assert g01.shape == net.theta.shape
        assert np.allclose(g01, (g0 + g1) / 2, rtol=0, atol=1e-15)

    def test_batch_accuracy_fraction(self):
        ds = separable_dataset(n_per_class=2)
        cfg = tiny_cfg()
        net = cfg.build(np.random.default_rng(3), ds.dim, ds.n_classes)
        _, _, acc = _batch_gradients(net, ds, [0, 1, 2, 3], cfg,
                                     np.random.default_rng(0))
        assert acc in (0.0, 0.25, 0.5, 0.75, 1.0)


    def test_error_keeps_its_type_and_names_the_sequence(self):
        ds = separable_dataset(n_per_class=2)
        cfg = tiny_cfg()
        net = cfg.build(np.random.default_rng(3), ds.dim + 1, ds.n_classes)
        with pytest.raises(ShapeError, match=f"^{ds.sequences[2].id}: sequence has feature dim"):
            _batch_gradients(net, ds, [2, 0], cfg, np.random.default_rng(0))


class TestTrainingBatches:
    """_batch_gradients' training forwards over runs of equal-length rows."""

    def test_pieces_are_runs_of_one_length_within_the_budget(self):
        # training's order, shuffled, and evaluate's, stably sorted by length;
        # budget 10 caps T = 1, 2, 5, 9 and 17 at 10, 5, 2, 1 and 1 rows,
        # budget 40 with 3 rows at 3, 3, 3, 3 and 2
        ds = mixed_length_dataset(seed=3)
        shuffled = np.random.default_rng(4).permutation(len(ds)).tolist()
        by_length = sorted(range(len(ds)), key=lambda i: ds.sequences[i].T)
        for (rows, budget), order in itertools.product([(16, 10), (3, 40)], [shuffled, by_length]):
            pieces = list(trainer._pieces(ds, order, rows, budget))
            assert [i for piece in pieces for i in piece] == order
            for piece, after in zip(pieces, pieces[1:] + [None]):
                T = ds.sequences[piece[0]].T
                assert {ds.sequences[i].T for i in piece} == {T}
                cap = max(1, min(rows, budget // T))
                assert len(piece) <= cap
                if after is not None and ds.sequences[after[0]].T == T:
                    assert len(piece) == cap  # a run is cut only at the cap
            if order is by_length:  # one run per length
                caps = [max(1, min(rows, budget // T)) for T in (1, 2, 5, 9, 17)]
                assert len(pieces) == sum(-(-7 // cap) for cap in caps)

    def test_default_piece_rule(self, monkeypatch):
        """The real constants: 16 rows at T=30, 2 at T=480 and 1 at T=1000,
        each piece's gradient and every trained bit those of one-row pieces."""
        rng = np.random.default_rng(8)
        lengths = rng.permutation([480] * 5 + [30] * 35 + [1000] * 2)
        ds = Dataset([FeatureSequence(frames=2.0 * rng.standard_normal((T, 3)),
                                      label=int(rng.integers(3)), id=f"s{i}")
                      for i, T in enumerate(lengths)], n_classes=3)
        cfg = tiny_cfg(layer_units=(4, 3), hist_placement="all", dropout_p=0.2,
                       use_historical=True, batch_size=4)
        net = cfg.build(np.random.default_rng(3), ds.dim, ds.n_classes)
        real, shapes, branches = trainer.forward_sequence, [], set()

        def spy(net, x, label=None, training=False, rng=None, replay_from=None):
            trace = real(net, x, label, training, rng, replay_from)
            if training:  # train() ends with an evaluation
                shapes.append(np.shape(x))
                branches.update(r.branch for k in net.scored for hist in trace.hists[k]
                                for r in hist.records)
            return trace

        def run(budget, fn, *args):
            with monkeypatch.context() as m:
                m.setattr(trainer, "forward_sequence", spy)
                if budget is not None:
                    m.setattr(trainer, "TRAIN_STEP_BUDGET", budget)
                return fn(*args)

        by_length = np.argsort(lengths, kind="stable")  # runs of 35, 5 and 2 rows
        got = run(None, _batch_gradients, net, ds, by_length, cfg, np.random.default_rng(6))
        assert shapes == ([(16, 30, 3)] * 2 + [(3, 30, 3)] + [(2, 480, 3)] * 2
                          + [(1, 480, 3)] + [(1, 1000, 3)] * 2)
        want = run(1, _batch_gradients, net, ds, by_length, cfg, np.random.default_rng(6))
        assert got[0].tobytes() == want[0].tobytes() and got[1:] == want[1:]

        # 10 rows of T=480 in mini-batches of 4, 4 and 2: five 2-row pieces an epoch
        long_rows = Dataset([ds.sequences[i] for i in np.flatnonzero(lengths == 480)] * 2, 3)
        shapes.clear()
        runs = []
        for budget in (None, 1):
            net, metrics = run(budget, train, long_rows, cfg)
            runs.append((net.theta.tobytes(), repr(metrics.loss_curve)))
            if budget is None:
                assert shapes == [(2, 480, 3)] * 10
        assert runs[0] == runs[1] and {"blend", "trunc"} <= branches

    def test_a_refused_batch_restores_the_generator_and_runs_its_rows_alone(self, monkeypatch):
        # the batch forward draws from the generator, then raises: the rows
        # rerun one sequence at a time from the state before it, none fails,
        # and the batch's own error is raised
        ds = separable_dataset(n_per_class=3)
        cfg = tiny_cfg(layer_units=(4, 3), dropout_p=0.3, use_historical=True)
        net = cfg.build(np.random.default_rng(3), ds.dim, ds.n_classes)
        batch = [4, 0, 5, 2, 1]
        ref_rng = np.random.default_rng(6)
        for idx in batch:
            seq = ds.sequences[idx]
            forward_sequence(net, seq.frames, label=seq.label, training=True, rng=ref_rng)
        real, shapes = trainer.forward_sequence, []

        def refuse_batches(net, x, label=None, training=False, rng=None, replay_from=None):
            shapes.append(np.shape(x))
            if np.ndim(x) == 3:
                rng.random(7)
                raise ValueError("batch refused")
            return real(net, x, label, training, rng, replay_from)

        monkeypatch.setattr(trainer, "forward_sequence", refuse_batches)
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError, match="^batch refused$"):
            _batch_gradients(net, ds, batch, cfg, rng)
        assert shapes == [(5, 5, 6)] + [(5, 6)] * 5
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_nan_in_a_later_row_names_it(self):
        ds = separable_dataset(n_per_class=3)
        ds.sequences[5].frames[3, 1] = np.nan
        cfg = tiny_cfg(use_historical=True)
        net = cfg.build(np.random.default_rng(3), ds.dim, ds.n_classes)
        with pytest.raises(ValueError, match=rf"^{ds.sequences[5].id}: sequence contains "
                                             r"non-finite features$"):
            _batch_gradients(net, ds, [1, 0, 5, 2], cfg, np.random.default_rng(0))

    def test_literal_overflow_in_a_later_row_names_it_and_its_step(self, monkeypatch):
        # one piece of four T=400 rows (the budget raised for it), in batch
        # order row1, row0, row3, row2: the constant frames of row3 and row2
        # blend with the literal alpha until l overflows, row3 first
        real = trainer.build_network

        def crafted(*args, **kwargs):
            net = real(*args, **kwargs)
            net.theta[...] = 0.0
            net.gates[0].U[...] = 1.0
            net.per_step_head.V[1] = 5.0
            net.final_head.c[0] = 50.0
            return net

        monkeypatch.setattr(trainer, "build_network", crafted)
        monkeypatch.setattr(trainer, "TRAIN_STEP_BUDGET", 1600, raising=False)
        frames = [np.zeros((400, 1)), np.zeros((400, 1)), np.full((400, 1), 1.0),
                  np.full((400, 1), -1.0)]
        ds = Dataset([FeatureSequence(frames=f, label=0, id=f"row{i}")
                      for i, f in enumerate(frames)], n_classes=20)
        cfg = TrainConfig(layer_units=(1,), alpha_policy="literal", dropout_p=0.0,
                          batch_size=4, epochs=1, seed=1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError) as caught:
                train(ds, cfg)
        assert type(caught.value) is ValueError
        assert str(caught.value) == ("row3: historical state is not finite at step t=336 "
                                     "(blend branch, alpha=-7.453758323092085)")


class TestTrain:
    def test_deterministic_given_seed(self):
        ds = separable_dataset(n_per_class=4)
        cfg = tiny_cfg(epochs=2, dropout_p=0.2, use_historical=True)
        net_a, m_a = train(ds, cfg)
        net_b, m_b = train(ds, cfg)
        assert np.array_equal(net_a.flatten_params(), net_b.flatten_params())
        assert m_a.loss_curve == m_b.loss_curve

    def test_curve_length_and_lr_column(self):
        ds = separable_dataset(n_per_class=4)  # 8 sequences
        cfg = tiny_cfg(epochs=3, batch_size=3, lr0=0.1, decay_base=0.5,
                       decay_every=2)
        _, m = train(ds, cfg)
        assert len(m.loss_curve) == 3 * 3  # ceil(8/3) batches per epoch
        for step, lr, loss, acc in m.loss_curve:
            assert lr == pytest.approx(0.1 * 0.5 ** (step // 2), rel=1e-15)
            assert np.isfinite(loss) and 0.0 <= acc <= 1.0

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            train(Dataset(sequences=[], n_classes=2), tiny_cfg())

    def test_overflow_abort_names_step(self, monkeypatch):
        # a 1e200 weight keeps the forward pass finite (gates saturate) but
        # overflows the l2 penalty, tripping the non-finite-loss abort
        def with_huge_weight(*args, **kwargs):
            net = build_network(*args, **kwargs)
            net.param_blocks()[0][1][0, 0] = 1e200
            return net

        monkeypatch.setattr(trainer, "build_network", with_huge_weight)
        ds = separable_dataset(n_per_class=2)
        with np.errstate(over="ignore"):
            with pytest.raises(RuntimeError, match="step 0.*non-finite"):
                train(ds, tiny_cfg())

    def test_log_callback_reports_epochs(self):
        ds = separable_dataset(n_per_class=2)
        lines = []
        train(ds, tiny_cfg(epochs=2), log=lines.append)
        assert len(lines) == 2 and lines[0].startswith("epoch 1/2")

    def test_separable_task_reaches_95_percent(self):
        ds = separable_dataset(n_per_class=20)
        cfg = tiny_cfg(layer_units=(8,), epochs=8, batch_size=10, lr0=0.01)
        _, m = train(ds, cfg)
        assert m.accuracy >= 0.95

    def test_historical_stack_trains(self):
        ds = separable_dataset(n_per_class=6)
        cfg = tiny_cfg(epochs=2, use_historical=True, window_mode="sliding",
                       alpha_policy="inverse_loss", tau=3)
        net, m = train(ds, cfg)
        assert np.all(np.isfinite(net.flatten_params()))
        assert m.accuracy > 0.4


def golden_dataset():
    """24 sequences of lengths 5 and 8 in D=3, 3 classes, in shuffled order,
    so a shuffled mini-batch holds runs of equal-length rows."""
    rng = np.random.default_rng(2026)
    seqs = []
    for i, T in enumerate(rng.permutation([5] * 16 + [8] * 8)):
        frames = rng.standard_normal((T, 3))
        frames[:, i % 3] += 1.0
        seqs.append(FeatureSequence(frames=frames, label=i % 3, id=f"g{i}"))
    return Dataset(seqs, n_classes=3)


class TestGoldenTraining:
    """sha256 of theta's bytes and the loss curve's repr after train(),
    pinned before the training forward ran mini-batches as row batches."""

    @pytest.mark.parametrize("options, digest", [
        (dict(layer_units=(4, 3, 3), hist_placement="all", dropout_p=0.2),  # mask order
         "7f5f0678d0bd4d1f161b78c13869c48b6bd2c8abc429ed60c3c90bd0dd69e73d"),
        (dict(layer_units=(4,), window_mode="literal", alpha_policy="literal"),
         "9de7a993eebf29f8d50c9e6fcc56ced071a2029f637399e44f51e144d7f69335"),
        (dict(layer_units=(4, 3), peephole="full", dropout_p=0.2),
         "49197eb126f9678109f310b12160c22f5213f8e38e0495cceeedbb93ac25a48f"),
        (dict(layer_units=(4, 3), use_historical=False, dropout_p=0.2),
         "6cac10d7a3c98ee863ffb639ea78dfae5a5aafb43f0fedfb58282b3ca97b766d"),
    ], ids=["all-3-layers-dropout", "literal-window-literal-alpha", "full-peepholes", "plain"])
    def test_digest(self, options, digest, monkeypatch):
        cfg = TrainConfig(epochs=2, batch_size=8, lr0=0.01, l2=0.001, seed=5, tau=2,
                          lambda_aux=0.5, **{"dropout_p": 0.0, **options})
        runs = []
        for budget in (None, 6):  # 6: one row at a time at T=5 and T=8
            with monkeypatch.context() as m:
                if budget is not None:
                    m.setattr(trainer, "TRAIN_STEP_BUDGET", budget, raising=False)
                net, metrics = train(golden_dataset(), cfg)
            runs.append(hashlib.sha256(net.theta.tobytes()
                                       + repr(metrics.loss_curve).encode()).hexdigest())
        assert runs == [digest, digest]


class TestKfold:
    def labeled_dataset(self, counts, dim=3, T=2):
        rng = np.random.default_rng(42)
        seqs = []
        for label, n in enumerate(counts):
            for _ in range(n):
                seqs.append(FeatureSequence(
                    frames=rng.standard_normal((T, dim)), label=label))
        return Dataset(sequences=seqs, n_classes=len(counts))

    def test_stratified_exact_when_divisible(self):
        ds = self.labeled_dataset([9, 9, 9])
        folds = kfold_split(ds, 3, seed=0)
        labels = ds.labels()
        for f in range(3):
            for c in range(3):
                assert np.sum((folds == f) & (labels == c)) == 3

    def test_deterministic_and_partition(self):
        ds = self.labeled_dataset([10, 7])
        a = kfold_split(ds, 4, seed=5)
        b = kfold_split(ds, 4, seed=5)
        assert np.array_equal(a, b)
        assert set(a.tolist()) == {0, 1, 2, 3}
        sizes = np.bincount(a, minlength=4)
        assert sizes.max() - sizes.min() <= 2  # near-even within each class

    def test_sparse_class_falls_back_with_warning(self):
        ds = self.labeled_dataset([8, 2])
        with pytest.warns(UserWarning, match="fewer than"):
            folds = kfold_split(ds, 4, seed=1)
        sizes = np.bincount(folds, minlength=4)
        assert sizes.max() - sizes.min() <= 1  # unstratified but even

    # Folds pinned as digits, one per sample in dataset order: the stratified
    # path (class 1 absent) and the unstratified fallback (class 1 below k).
    @pytest.mark.parametrize("counts, seed, want", [
        ([4, 0, 4, 4], 0, "120002102001"),
        ([4, 0, 4, 4], 1, "012010201200"),
        ([4, 0, 4, 4], 7, "021001200201"),
        ([4, 0, 4, 4], 123, "001210201002"),
        ([5, 2], 0, "2002110"),
        ([5, 2], 1, "1210002"),
        ([5, 2], 7, "0200112"),
        ([5, 2], 123, "1221000"),
    ])
    def test_folds_are_pinned(self, counts, seed, want):
        ds = self.labeled_dataset(counts)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the fallback's warning
            folds = kfold_split(ds, 3, seed=seed)
        assert "".join(map(str, folds.tolist())) == want

    def test_bad_arguments(self):
        ds = self.labeled_dataset([3, 3])
        with pytest.raises(ValueError, match="k must be >= 2"):
            kfold_split(ds, 1, seed=0)
        with pytest.raises(ValueError, match="at least"):
            kfold_split(ds, 7, seed=0)


class TestCrossValidate:
    def test_manifest_folds_take_precedence(self):
        ds = separable_dataset(n_per_class=4)  # 8 sequences, labels 0^4 1^4
        folds = [0, 0, 1, 1, 0, 0, 1, 1]
        with_folds = Dataset(sequences=ds.sequences, n_classes=2, folds=folds)
        m = cross_validate(with_folds, tiny_cfg(epochs=1), k=5)
        assert len(m.fold_accuracies) == 2  # k=5 ignored
        assert int(m.confusion.sum()) == len(ds)  # each sequence tested once
        assert m.accuracy == pytest.approx(np.mean(m.fold_accuracies))

    def test_single_fold_manifest_rejected(self):
        ds = separable_dataset(n_per_class=2)
        one_fold = Dataset(sequences=ds.sequences, n_classes=2,
                           folds=[0, 0, 0, 0])
        with pytest.raises(ValueError, match="fewer than 2"):
            cross_validate(one_fold, tiny_cfg())

    def test_kfold_path_deterministic(self):
        ds = separable_dataset(n_per_class=4)
        m1 = cross_validate(ds, tiny_cfg(epochs=1), k=2)
        m2 = cross_validate(ds, tiny_cfg(epochs=1), k=2)
        assert m1.fold_accuracies == m2.fold_accuracies
        assert int(m1.confusion.sum()) == len(ds)


class TestGradCheck:
    def small_report(self, **kw):
        args = dict(seeds=2, layer_units=(3,), lengths=(1, 3, 5))
        args.update(kw)
        return grad_check(**args)

    def test_analytic_matches_finite_difference(self):
        report = self.small_report()
        assert isinstance(report, GradCheckReport)
        assert report.max_rel_err < 1e-4
        assert report.missing_coverage == []
        assert report.ok
        # 2 seeds x 3 policies x 2 modes x 2 intended branches
        assert len(report.cases) == 24
        assert report.elapsed_s > 0

    def test_every_case_names_its_worst_block(self):
        report = self.small_report(seeds=1, lengths=(3,))
        for case in report.cases:
            assert "." in case.worst_block
            assert case.realized_branches  # forcing produced real steps

    def test_tampered_gradient_is_flagged(self, monkeypatch):
        # scaling one analytic block must blow the error far past the gate,
        # proving the harness can actually fail
        def tampered(net, trace, label, lambda_aux, l2):
            grad = backward_sequence(net, trace, label, lambda_aux, l2)
            net.views(grad)["final.V"] *= 1.5
            return grad

        monkeypatch.setattr(trainer, "backward_sequence", tampered)
        report = self.small_report(seeds=1, lengths=(3,))
        assert report.max_rel_err > 1e-2
        assert not report.ok

    def test_no_seeds_is_rejected(self):
        for seeds in (0, -3):
            with pytest.raises(ValueError, match=f"^seeds must be >= 1, got {seeds}$"):
                grad_check(seeds=seeds)

    def test_no_lengths_is_rejected(self):
        # an empty tuple used to raise ZeroDivisionError, a 0 a ShapeError
        for lengths, shown in (((), r"\[\]"), ((3, 0), r"\[3, 0\]")):
            with pytest.raises(ValueError,
                               match=f"^lengths must hold >= 1 length of >= 1 step, got {shown}$"):
                grad_check(seeds=1, lengths=lengths)

    def test_cases_follow_the_case_table_per_seed(self):
        table = trainer.GRAD_CHECK_CASES
        assert sorted(table) == sorted(itertools.product(ALPHA_POLICIES, WINDOW_MODES,
                                                         ("blend", "trunc")))
        cases = trainer._forced_cases(2, (3,), (1, 3), "top", "diag")
        got = [(seed, policy, mode, branch) for seed, _, policy, mode, branch, *_ in cases]
        assert got == [(seed, *case) for seed in range(2) for case in table]

    @pytest.mark.parametrize("peephole", ["diag", "full"])
    @pytest.mark.parametrize("placement", ["top", "all"])
    def test_stacked_differences_equal_finite_diff(self, placement, peephole):
        # every (policy, window mode, intended branch) case of one seed: the
        # one stacked replay gives finite_diff's central differences
        cases = trainer._forced_cases(1, (3, 3), (3, 6), placement, peephole)
        for seed, T, policy, mode, branch, net, X, label, trace in cases:
            stacked = trainer._central_differences(net, X, label, trace, 0.5, 0.004, 1e-5)

            def loss_at(theta):
                net.theta[...] = theta
                replayed = forward_sequence(net, X, label=label, training=True,
                                            replay_from=trace)
                return total_loss(net, replayed, label, 0.5, 0.004)

            scalar = finite_diff(loss_at, net.flatten_params(), 1e-5)
            tol = 1e-9 * np.maximum(1.0, np.abs(scalar))
            assert np.all(np.abs(stacked - scalar) <= tol), (policy, mode, branch)

    def test_guard_raises_when_stacked_losses_are_perturbed(self, monkeypatch):
        def skewed_loss(net, trace, label, lambda_aux=0.5, l2=0.0):
            loss = total_loss(net, trace, label, lambda_aux, l2)
            if isinstance(loss, np.ndarray):  # the stacked replay: lift f+ only
                loss[: len(loss) // 2] += 1e-7
            return loss

        monkeypatch.setattr(trainer, "total_loss", skewed_loss)
        with pytest.raises(RuntimeError, match=r"^grad_check case seed=0 T=3 literal/sliding/"
                                               r"blend: the stacked central difference"):
            self.small_report(seeds=1, lengths=(3,))

    @pytest.mark.parametrize("peephole", ["diag", "full"])
    @pytest.mark.parametrize("placement", ["top", "all"])
    def test_placement_all_also_checks(self, placement, peephole):
        # grad_check runs TrainConfig's placement and peephole mode; the
        # others go through the same harness
        report = trainer._check(trainer._forced_cases(2, (3, 3), (1, 3, 6), placement, peephole))
        assert report.max_rel_err < 1e-4
        assert report.missing_coverage == []
