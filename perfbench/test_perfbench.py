"""Tests of the benchmark itself.

A very short run of every workload, untraced and traced, must emit every
metric BENCHMARK.json names, with its unit, and pass its own output checks
(the traced run also proves its rounds reproduce the untraced round bit for
bit). The inputs must be a deterministic function of the seed, the tracer
must patch every binding and leave results unchanged, the speed sampler must
keep its bursts out of the timed work, and the benchmark must refuse to run
without the library's sources.
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_TIMEOUT_S = 300


def _run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "0", "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_emits_every_metric_with_its_unit(workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(workload, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, proc.stdout
        assert result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == expected
        for name, m in result["metrics"].items():
            assert isinstance(m["value"], (int, float)) and np.isfinite(m["value"]), name
            if section == "end_to_end":
                assert m["value"] > 0, name


def test_workloads_match_the_spec():
    assert tuple(w["name"] for w in SPEC["workloads"]) == workloads.WORKLOADS
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]


def test_predictions_cover_every_metric_and_workload():
    pred = json.loads((HERE / "predictions.json").read_text())
    assert set(pred["workloads"]) == set(workloads.WORKLOADS)
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    for name in (m["name"] for m in SPEC["per_layer"]):
        entry = pred["per_layer"].get(name) or pred["per_layer"].get(name.rsplit(".", 1)[0])
        assert entry is not None, f"no prediction for {name}"
        assert set(entry["moves"]) <= e2e | {"failed"}, name
        assert set(entry["on"]) | set(entry["flat_on"]) <= set(workloads.WORKLOADS), name


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(tmp_path, workload):
    a = workloads.make_inputs(workload, 7, str(tmp_path / "a"))
    b = workloads.make_inputs(workload, 7, str(tmp_path / "b"))
    other = workloads.make_inputs(workload, 8, str(tmp_path / "a"))
    strip = lambda d: {k: v for k, v in d.items() if k not in ("manifest", "seed")}  # noqa: E731
    assert strip(a) == strip(b)
    assert strip(a) != strip(other)
    workloads.write_inputs(a)
    workloads.write_inputs(b)
    if workload == "long-seq":
        files_a = sorted(Path(a["manifest"]).parent.iterdir())
        files_b = sorted(Path(b["manifest"]).parent.iterdir())
        assert [f.name for f in files_a] == [f.name for f in files_b]
        assert len(files_a) == 17
        for fa, fb in zip(files_a, files_b):
            assert fa.read_bytes() == fb.read_bytes()
    data_a, data_b = workloads.setup(a), workloads.setup(b)
    for key in data_a:
        if data_a[key] is not None:
            assert data_a[key].sequences == data_b[key].sequences


def test_tracer_patches_every_binding_and_changes_no_result():
    import histlstm
    from histlstm import network, trainer
    from histlstm.dataio import SynthConfig, synth_keyframe_dataset

    originals = {fn: getattr(network, fn) for fn in ("forward_sequence", "historical_update")}
    data = synth_keyframe_dataset(
        SynthConfig(dim=4, length=8, signal_window=(2, 5), n_per_class=2, seed=3))
    cfg = trainer.TrainConfig(layer_units=(5,), epochs=1, batch_size=4, tau=2, seed=3)

    def outcome():
        net, metrics = trainer.train(data, cfg)
        return net.flatten_params(), metrics.confusion

    params, confusion = outcome()
    t = tracer.Tracer()
    patched = t.install("histlstm")
    try:
        assert network.forward_sequence is not originals["forward_sequence"]
        assert trainer.forward_sequence is network.forward_sequence
        for fn, modules in tracer.REQUIRED_BINDINGS.items():
            assert set(modules) <= set(patched[fn]), fn
        t.begin_round()
        traced_params, traced_confusion = outcome()
    finally:
        t.uninstall()
    assert network.forward_sequence is originals["forward_sequence"]
    assert network.historical_update is originals["historical_update"]
    assert histlstm.forward_sequence is originals["forward_sequence"]
    assert traced_params.tobytes() == params.tobytes()
    assert np.array_equal(traced_confusion, confusion)

    # Spans nest: every parent id is an earlier span, and a training
    # sequence's forward, loss and backward share one operation id.
    ids = np.frombuffer(t.span_id, dtype=np.int64)
    parents = np.frombuffer(t.span_parent, dtype=np.int64)
    assert np.all(parents < ids)
    keys = np.frombuffer(t.span_key, dtype=np.int32)
    ops = np.frombuffer(t.span_op, dtype=np.int64)
    fwd = tracer.KEYS.index("network.forward_sequence")
    bwd = tracer.KEYS.index("network.backward_sequence")
    assert set(ops[keys == bwd]) <= set(ops[keys == fwd])
    metrics = t.per_layer()
    assert metrics["trainer.train.calls"][0] == 1
    assert metrics["network.backward_sequence.calls"][0] == len(data)


def test_sampler_samples_during_work_and_leaves_bursts_out_of_segments():
    before = signal.getsignal(signal.SIGALRM)
    with calibrate.Sampler() as sampler:
        timeline = calibrate.Timeline(sampler)
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 1.2:  # pure-Python work, no calls out
            sum(range(1000))
        wall, ref = timeline.point()
    elapsed = time.perf_counter() - t0
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(sampler.speeds) >= 1 + 3  # one on entry, then every 0.25 s
    assert sampler.paused > 0
    assert abs(wall - (elapsed - sampler.paused)) < 0.05
    inside = sampler.speeds[1:]
    assert ref == pytest.approx(wall * sum(inside) / len(inside))


def test_refuses_to_run_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("gradcheck", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
