"""The benchmark workloads: inputs made from the seed, set-up, one measured
round, and the output checks that decide which operations failed.

An operation is one training sequence, one evaluation sequence or one
gradient-check case. The library is driven through its public API only,
always through the module attribute (``trainer.train``, not a name bound at
import), so the tracer's wrappers see every call.

Each round repeats the same inputs, and every run is a deterministic
function of its seed, so all rounds of a run must produce the same digest.
A round's time is the sum of its segments (calibrate.Timeline), in wall
seconds and in reference seconds.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import traceback
from dataclasses import dataclass, field

import numpy as np
from histlstm import dataio, historical, trainer

from calibrate import Sampler, Timeline

WORKLOADS = ("keyframe", "long-seq", "gradcheck")

# The key-frame generator as the criterion-5 benchmark pins it
# (tests/test_acceptance.py): 4 classes, D=16, T=30, signal frames 10-14,
# distractor tail, sigma 1.1.
KEYFRAME_DATA = dict(classes=4, dim=16, length=30, signal_window=(10, 15),
                     noise_sigma=1.1, distractor=True)
# The criterion-5 training settings (BENCH_TRAIN there), one epoch a round.
KEYFRAME_TRAIN = dict(layer_units=(24,), epochs=1, batch_size=32,
                      dropout_p=0.1, l2=0.0001, lr0=0.002,
                      tau=5, window_mode="sliding", alpha_policy="inverse_loss",
                      inference_policy="pseudo_label")
# The criterion-5 pair: the historical arm, and the same stack without the
# historical layer, trained on the final loss alone.
KEYFRAME_ARMS = ((True, 1.0), (False, 0.0))
KEYFRAME_TRAIN_PER_CLASS = 250  # 1000 train sequences
KEYFRAME_TEST_PER_CLASS = 125  # 500 test sequences

# 16 sequences at T=480 from the same generator, trained with a historical
# unit on both layers of a 2x24 stack.
LONG_SEQ_LENGTH = 480
LONG_SEQ_PER_CLASS = 4
LONG_SEQ_TRAIN = dict(KEYFRAME_TRAIN, layer_units=(24, 24), batch_size=8,
                      hist_placement="all", lambda_aux=1.0)

# Criterion-2 gradient check (2x3-unit nets, T in {1,3,6}, every policy x
# window mode x branch). Two grad_check seeds a call: the fewest that realize
# every branch under every ordering of the lengths.
GRADCHECK_UNITS = (3, 3)
GRADCHECK_LENGTHS = (1, 3, 6)
GRADCHECK_SEEDS_PER_CALL = 2
GRADCHECK_MAX_REL_ERR = 1e-4


def make_inputs(workload: str, seed: int, workdir: str) -> dict:
    """The workload's inputs as plain values, a pure function of the seed.

    keyframe and long-seq draw a data seed and a training seed. grad_check
    takes no seed of its own (its cases are seeded 0..n-1), so for gradcheck
    the seed picks the order of the lengths, which decides the T of each case.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "gradcheck":
        return {"workload": workload, "seed": seed,
                "lengths": [int(v) for v in rng.permutation(GRADCHECK_LENGTHS)]}
    data_seed, train_seed = (int(v) for v in rng.integers(0, 2**31 - 1, size=2))
    if workload == "keyframe":
        synth = dict(KEYFRAME_DATA, seed=data_seed, n_per_class=KEYFRAME_TRAIN_PER_CLASS)
        return {"workload": workload, "seed": seed, "synth": synth,
                "test_per_class": KEYFRAME_TEST_PER_CLASS, "train_seed": train_seed}
    synth = dict(KEYFRAME_DATA, length=LONG_SEQ_LENGTH, seed=data_seed,
                 n_per_class=LONG_SEQ_PER_CLASS)
    manifest = os.path.join(workdir, f"long-seq-{seed}", "manifest.txt")
    return {"workload": workload, "seed": seed, "synth": synth,
            "manifest": manifest, "train_seed": train_seed}


def write_inputs(inputs: dict) -> None:
    """The untimed part of the generator: long-seq's FSEQ files and manifest."""
    if inputs["workload"] != "long-seq":
        return
    shutil.rmtree(os.path.dirname(inputs["manifest"]), ignore_errors=True)
    corpus = dataio.synth_keyframe_dataset(_synth_config(inputs))
    dataio.write_manifest(inputs["manifest"], corpus)


def _synth_config(inputs):
    synth = dict(inputs["synth"], signal_window=tuple(inputs["synth"]["signal_window"]))
    return dataio.SynthConfig(**synth)


def setup(inputs: dict) -> dict:
    """What the program does before its first training or eval call."""
    if inputs["workload"] == "keyframe":
        train, test = dataio.synth_train_test(_synth_config(inputs), inputs["test_per_class"])
        return {"train": train, "test": test}
    if inputs["workload"] == "long-seq":
        return {"train": dataio.load_manifest(inputs["manifest"]), "test": None}
    return {}


@dataclass
class RoundResult:
    """What one round did, how long it took and what its checks found."""

    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    ref_s: float = 0.0
    train_seqs: int = 0
    train_ref_s: float = 0.0
    eval_seqs: int = 0
    eval_ref_s: float = 0.0
    final_loss: float = math.nan
    problems: list = field(default_factory=list)
    digest: str = ""

    def fail(self, n: int, problem: str) -> None:
        self.failed += n
        self.problems.append(problem)

    def add(self, segment: tuple, kind: str = "") -> None:
        wall, ref = segment
        self.wall_s += wall
        self.ref_s += ref
        if kind == "train":
            self.train_ref_s += ref
        elif kind == "eval":
            self.eval_ref_s += ref


def run_round(inputs: dict, data: dict, sampler: Sampler) -> RoundResult:
    """One round of the workload, timed under a running sampler."""
    res = RoundResult()
    digest = hashlib.sha256()
    timeline = Timeline(sampler)
    if inputs["workload"] == "keyframe":
        for use_hist, lam in KEYFRAME_ARMS:
            cfg = _train_config(KEYFRAME_TRAIN, inputs, use_historical=use_hist, lambda_aux=lam)
            loss = _train_and_eval(cfg, data["train"], data["test"], res, digest, timeline)
            if use_hist:
                res.final_loss = loss
    elif inputs["workload"] == "long-seq":
        cfg = _train_config(LONG_SEQ_TRAIN, inputs)
        res.final_loss = _train_and_eval(cfg, data["train"], None, res, digest, timeline)
    else:
        _grad_check(inputs, res, digest, timeline)
    res.digest = digest.hexdigest()
    return res


def _train_config(base: dict, inputs: dict, **overrides):
    return trainer.TrainConfig(seed=inputs["train_seed"], **dict(base, **overrides))


def _train_and_eval(cfg, train_set, test_set, res: RoundResult, digest,
                    timeline: Timeline) -> float:
    """train() (epoch loop, then its closing evaluate on the training set),
    then evaluate() on the test set. Returns the mean training loss over the
    last epoch. train()'s log callback ends each epoch's segment, so the
    epoch loop ends at its last call."""
    n = len(train_set)
    n_test = len(test_set) if test_set is not None else 0
    res.attempted += n * cfg.epochs + n + n_test
    try:
        net, metrics = trainer.train(
            train_set, cfg, log=lambda _msg: res.add(timeline.point(), "train"))
    except Exception:
        res.add(timeline.point())
        res.fail(n * cfg.epochs + n + n_test, "train raised:\n" + traceback.format_exc())
        return math.nan
    res.add(timeline.point(), "eval")
    res.train_seqs += n * cfg.epochs
    res.eval_seqs += n

    steps_per_epoch = -(-n // cfg.batch_size)
    losses = np.array([row[2] for row in metrics.loss_curve])
    accs = np.array([row[3] for row in metrics.loss_curve])
    params = net.flatten_params()
    if (len(losses) != cfg.epochs * steps_per_epoch
            or not np.all(np.isfinite(losses)) or not np.all(losses > 0)
            or not np.all((accs >= 0) & (accs <= 1))
            or not np.all(np.isfinite(params))):
        res.fail(n * cfg.epochs, "training loss curve or parameters out of range")
    if not _confusion_ok(metrics, net.n_classes, n):
        res.fail(n, "closing evaluate: confusion matrix does not cover the training set")
    digest.update(params.tobytes())
    digest.update(losses.tobytes())
    digest.update(metrics.confusion.tobytes())

    if test_set is not None:
        try:
            test_metrics = trainer.evaluate(net, test_set)
        except Exception:
            res.fail(n_test, "evaluate raised:\n" + traceback.format_exc())
        else:
            if not _confusion_ok(test_metrics, net.n_classes, n_test):
                res.fail(n_test, "test evaluate: confusion matrix does not cover the test set")
            digest.update(test_metrics.confusion.tobytes())
        res.add(timeline.point(), "eval")
        res.eval_seqs += n_test
    return float(np.mean(losses[-steps_per_epoch:]))


def _confusion_ok(metrics, n_classes: int, n: int) -> bool:
    """Every sequence got exactly one prediction, inside the class range."""
    conf = metrics.confusion
    return (conf.shape == (n_classes, n_classes) and bool(np.all(conf >= 0))
            and int(conf.sum()) == n
            and metrics.accuracy == float(np.trace(conf) / n))


def _grad_check(inputs: dict, res: RoundResult, digest, timeline: Timeline) -> None:
    """One grad_check call per rotation of the seed's length order: a case's T
    follows its position, so over the rotations every case type meets every
    length once and the round's work does not depend on the seed."""
    order = inputs["lengths"]
    for r in range(len(order)):
        _grad_check_call(tuple(order[r:] + order[:r]), res, digest, timeline)


def _grad_check_call(lengths, res: RoundResult, digest, timeline: Timeline) -> None:
    triples = [(p, m, b) for p in historical.ALPHA_POLICIES
               for m in historical.WINDOW_MODES for b in ("blend", "trunc")]
    expected = GRADCHECK_SEEDS_PER_CALL * len(triples)
    res.attempted += expected
    try:
        report = trainer.grad_check(seeds=GRADCHECK_SEEDS_PER_CALL,
                                    layer_units=GRADCHECK_UNITS, lengths=lengths)
    except Exception:
        res.add(timeline.point())
        res.fail(expected, "grad_check raised:\n" + traceback.format_exc())
        return
    res.add(timeline.point())
    missing = set(report.missing_coverage)
    bad = [c for c in report.cases
           if not (math.isfinite(c.max_rel_err) and c.max_rel_err < GRADCHECK_MAX_REL_ERR)
           or (c.alpha_policy, c.window_mode, c.intended_branch) in missing]
    if bad:
        res.fail(len(bad), f"{len(bad)} gradient-check cases failed or lack coverage: "
                 f"max_rel_err {report.max_rel_err!r} in {report.worst_block}, "
                 f"missing {sorted(missing)}")
    if len(report.cases) != expected:
        res.fail(abs(expected - len(report.cases)),
                 f"grad_check ran {len(report.cases)} cases, expected {expected}")
    if report.ok != (not bad):
        res.problems.append(f"GradCheckReport.ok is {report.ok} but {len(bad)} cases failed")
    for c in report.cases:
        digest.update(repr((c.seed, c.T, c.alpha_policy, c.window_mode, c.intended_branch,
                            c.realized_branches, c.max_rel_err.hex(), c.worst_block)).encode())
