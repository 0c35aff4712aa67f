"""Tests for the optimization loop: schedule, Adam, batching, k-fold,
training determinism, and the finite-difference harness."""

import numpy as np
import pytest

from histlstm import trainer
from histlstm.dataio import Dataset, FeatureSequence, SynthConfig, synth_keyframe_dataset
from histlstm.network import forward_sequence, total_loss
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

    def test_first_step_closed_form(self):
        # t=1: m_hat = g and v_hat = g*g exactly, so the update is
        # -lr * g / (|g| + eps) regardless of beta values
        net, state = self.net_and_state()
        params = net.param_blocks()
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
        params = net.param_blocks()
        before = {name: arr.copy() for name, arr in params}
        grads = {name: np.zeros_like(arr) for name, arr in params}
        adam_step(params, grads, state, lr=1.0)
        for name, arr in params:
            assert np.array_equal(arr, before[name])

    def test_constant_gradient_moves_by_lr_each_step(self):
        # with a constant gradient the bias corrections cancel at every t,
        # so each step is exactly -lr * g / (|g| + eps)
        net, state = self.net_and_state()
        params = net.param_blocks()
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
        params = net.param_blocks()
        handle = params[0][1]
        grads = {name: np.ones_like(arr) for name, arr in params}
        out_params, out_state = adam_step(params, grads, state, lr=0.1)
        assert out_params is params and out_state is state
        assert out_params[0][1] is handle

    def test_shape_mismatch_rejected(self):
        net, state = self.net_and_state()
        params = net.param_blocks()
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
        net.set_flat(np.zeros(net.flatten_params().size))
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


    def test_error_names_the_sequence(self):
        ds = separable_dataset(n_per_class=2)
        ds.sequences[1].frames[3, 0] = np.nan
        net = tiny_cfg().build(np.random.default_rng(0), ds.dim, ds.n_classes)
        with pytest.raises(ValueError, match=f"^{ds.sequences[1].id}: sequence contains non-finite"):
            evaluate(net, ds)
        ds.sequences[1].id = ""
        with pytest.raises(ValueError, match="^sequence 1: sequence contains non-finite"):
            evaluate(net, ds)


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
        for name in g01:
            assert np.allclose(g01[name], (g0[name] + g1[name]) / 2,
                               rtol=0, atol=1e-15)

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

    def test_dim_mismatch_rejected(self):
        ds = separable_dataset(n_per_class=2)
        net = tiny_cfg().build(np.random.default_rng(0), ds.dim + 1,
                               ds.n_classes)
        with pytest.raises(ShapeError, match="dim"):
            train(ds, tiny_cfg(), net=net)

    def test_overflow_abort_names_step(self):
        # a 1e200 weight keeps the forward pass finite (gates saturate) but
        # overflows the l2 penalty, tripping the non-finite-loss abort
        ds = separable_dataset(n_per_class=2)
        cfg = tiny_cfg()
        net = cfg.build(np.random.default_rng(0), ds.dim, ds.n_classes)
        net.param_blocks()[0][1][0, 0] = 1e200
        with np.errstate(over="ignore"):
            with pytest.raises(RuntimeError, match="step 0.*non-finite"):
                train(ds, cfg, net=net)

    def test_provided_net_is_trained_in_place(self):
        ds = separable_dataset(n_per_class=2)
        cfg = tiny_cfg(epochs=1)
        net = cfg.build(np.random.default_rng(9), ds.dim, ds.n_classes)
        before = net.flatten_params().copy()
        out, _ = train(ds, cfg, net=net)
        assert out is net
        assert not np.array_equal(net.flatten_params(), before)

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
        args = dict(seeds=2, layer_units=(3,), input_dim=2, n_classes=3,
                    lengths=(1, 3, 5), tau=2)
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

    def test_tampered_gradient_is_flagged(self):
        # scaling one analytic block must blow the error far past the gate,
        # proving the harness can actually fail
        report = self.small_report(seeds=1, lengths=(3,),
                                   tamper={"final.V": 1.5})
        assert report.max_rel_err > 1e-2
        assert not report.ok

    def test_no_seeds_is_rejected(self):
        for seeds in (0, -3):
            with pytest.raises(ValueError, match=f"^seeds must be >= 1, got {seeds}$"):
                grad_check(seeds=seeds)

    @pytest.mark.parametrize("peephole", ["diag", "full"])
    @pytest.mark.parametrize("placement", ["top", "all"])
    def test_stacked_differences_equal_finite_diff(self, placement, peephole):
        # every (policy, window mode, intended branch) case of one seed: the
        # one stacked replay gives finite_diff's central differences
        cases = trainer._forced_cases(1, (3, 3), 2, 3, (3, 6), 2, placement, peephole)
        for seed, T, policy, mode, branch, net, X, label, trace in cases:
            stacked = trainer._central_differences(net, X, label, trace, 0.5, 0.004, 1e-5)

            def loss_at(theta):
                net.set_flat(theta)
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

    def test_placement_all_also_checks(self):
        report = self.small_report(seeds=1, layer_units=(3, 3),
                                   lengths=(4,), hist_placement="all")
        assert report.max_rel_err < 1e-4
