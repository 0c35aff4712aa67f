"""histlstm benchmark: one command for every workload, untraced or traced.

    python3 perfbench/run.py --workload keyframe --seed 7 --seconds 20 --trace 0

Run it from the root of a checkout: it imports the library from ./src and
fails (exit 2, no result) when that is missing. Each run is one process and
one caller in a closed loop. It makes its inputs from --seed, measures whole
rounds until --seconds have passed, checks every output, and prints as its
last line one JSON object with the keys correct, attempted, failed and
metrics. With --trace 0 the metrics are the end-to-end ones; with --trace 1
the run first measures one untraced round as the reference, then traces
rounds for --seconds and reports the per-layer metrics. The traced rounds
must reproduce the reference round bit for bit. Times are reported in
reference seconds, scaled by the host's speed sampled during the work (see
calibrate.py); wall-clock figures are in the summary line and the record.

Full records (environment, per-round figures, problems) and the spans of
traced runs are written under .perfbench_run/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench_run"

# One BLAS thread: every matrix here is at most 24x480, far too small to
# gain from more, and 1 is within nproc on any machine.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# setup_s is the median over this many fresh processes.
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60

# Seeds used while the benchmark was being built and tuned; a result on one
# of them is flagged, since its figures may have steered the tuning.
TUNING_SEEDS = frozenset(range(1, 21))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: do the set-up in a fresh process, print 'ready', exit")
    return p.parse_args(argv)


def import_library():
    """Import histlstm from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "histlstm" / "__init__.py").is_file():
        raise ImportError(f"no histlstm package under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import histlstm

    if Path(histlstm.__file__).resolve().parent != (src / "histlstm").resolve():
        raise ImportError(f"imported histlstm from {histlstm.__file__}, not from {src}")


def probe_setup(args) -> tuple:
    """(wall, reference) seconds from starting a fresh process until it has
    done the set-up. The process samples the host's speed right after."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        ready = proc.stdout.readline()
        wall = time.perf_counter() - t0
        speed = proc.stdout.readline()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code}, said {ready!r})")
    return wall, wall * float(speed)


def run_rounds(inputs, data, seconds, sampler, tracer=None):
    """Whole rounds for about `seconds`: another round starts only if it
    would end nearer the deadline than stopping now, by the mean round so far."""
    from workloads import run_round

    results = []
    t0 = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.begin_round()
        results.append(run_round(inputs, data, sampler))
        elapsed = time.perf_counter() - t0
        if elapsed + 0.5 * elapsed / len(results) >= seconds:
            return results


def summarize(results):
    """Pooled figures over rounds, for the record and the report lines."""
    def rate(n, s):
        return n / s if s > 0 else 0.0

    attempted = sum(r.attempted for r in results)
    ref_s = sum(r.ref_s for r in results)
    out = {
        "rounds": len(results),
        "ops_per_ref_s": rate(attempted, ref_s),
        "ops_per_wall_s": rate(attempted, sum(r.wall_s for r in results)),
        "round_wall_s": [r.wall_s for r in results],
        "round_ref_s": [r.ref_s for r in results],
        "final_loss": results[0].final_loss,
    }
    train_seqs = sum(r.train_seqs for r in results)
    if train_seqs:
        out["train_seq_per_ref_s"] = rate(train_seqs, sum(r.train_ref_s for r in results))
        out["eval_seq_per_ref_s"] = rate(sum(r.eval_seqs for r in results),
                                         sum(r.eval_ref_s for r in results))
    else:
        out["gradcheck_cases_per_ref_s"] = rate(attempted, ref_s)
    return out


def measure_untraced(args, inputs, record):
    """End-to-end metrics: set-up probes, then rounds with tracing off."""
    import workloads
    from calibrate import Sampler

    setups = [probe_setup(args) for _ in range(SETUP_PROBES)]
    data = workloads.setup(inputs)
    with Sampler() as sampler:
        results = run_rounds(inputs, data, args.seconds, sampler)
    summary = summarize(results)
    metrics = {
        "setup_s": (statistics.median(ref for _, ref in setups), "s"),
        "ops_per_ref_s": (summary["ops_per_ref_s"], "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    record.update(setup_s=setups, summary=summary)
    digests = {r.digest for r in results}
    problems = [] if len(digests) == 1 else [
        f"rounds disagree: {len(digests)} distinct output digests"]
    return results, metrics, problems


def measure_traced(args, inputs, record):
    """Per-layer metrics: one untraced reference round, then a traced set-up
    and traced rounds, each of which must reproduce the reference."""
    import workloads
    from calibrate import Sampler
    from tracer import Tracer

    data = workloads.setup(inputs)
    with Sampler() as sampler:
        reference = workloads.run_round(inputs, data, sampler)
        tracer = Tracer(clock=sampler.clock)
        record["patched"] = tracer.install("histlstm")
        try:
            data = workloads.setup(inputs)
            traced = run_rounds(inputs, data, args.seconds, sampler, tracer)
        finally:
            tracer.uninstall()
    tracer.write_spans(WORKDIR / f"spans-{args.workload}.npz")
    # Span times are wall seconds; scale them like the rounds they ran in.
    metrics = tracer.per_layer(scale=sum(r.ref_s for r in traced) / sum(r.wall_s for r in traced))
    traced_s = statistics.mean(r.ref_s for r in traced)
    metrics["trace.overhead_share"] = (traced_s / reference.ref_s - 1.0, "ratio")
    metrics["trainer.train.final_loss"] = (
        reference.final_loss if reference.train_seqs else 0.0, "nats")
    record.update(reference=summarize([reference]), summary=summarize(traced))
    mismatched = sum(r.digest != reference.digest for r in traced)
    problems = [] if not mismatched else [
        f"{mismatched} traced rounds differ from the untraced reference"]
    return [reference] + traced, metrics, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    for name in BLAS_ENV:
        os.environ[name] = str(BLAS_THREADS)
    # numpy (and with it BLAS) is imported only after the thread count is set.
    try:
        import_library()
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads
    from calibrate import Sampler

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    inputs = workloads.make_inputs(args.workload, args.seed, str(WORKDIR))
    if args.setup_probe:
        workloads.setup(inputs)
        print("ready", flush=True)
        with Sampler() as sampler:
            pass
        print(sampler.speeds[0], flush=True)
        return 0

    import envinfo

    WORKDIR.mkdir(exist_ok=True)
    workloads.write_inputs(inputs)
    env = envinfo.collect(ROOT, BLAS_THREADS)
    env["seed"] = args.seed
    env["seed_used_while_building"] = args.seed in TUNING_SEEDS
    print("environment " + json.dumps(env, sort_keys=True))
    if env["seed_used_while_building"]:
        print(f"note: seed {args.seed} was used while tuning the benchmark; "
              "measure on another seed")

    record = {"environment": env, "inputs": inputs, "trace": args.trace}
    measure = measure_traced if args.trace else measure_untraced
    results, metrics, problems = measure(args, inputs, record)

    for i, r in enumerate(results):
        problems.extend(f"round {i}: {p}" for p in r.problems)
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record.update(rounds=[vars(r) for r in results], problems=problems, result=result)
    out = WORKDIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print("summary " + json.dumps(record["summary"]))
    for p in problems:
        print("problem: " + p)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
