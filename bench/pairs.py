"""Alternating base/change pairs of the benchmark, written to BENCH_<tag>.json.

    python3 bench/pairs.py --base HEAD~1 --workload gradcheck --seeds 201-210 \\
        --scratch /tmp/pairs --tag my-change-gradcheck

Exports the base commit with `git archive` into a fresh directory under
--scratch, and the change next to it: this checkout's tracked files as they
stand (uncommitted edits included) and its untracked files that are not
ignored. Both sides so run from the same kind of tree. For each seed
it runs `perfbench/run.py --workload W --seed S --seconds N --trace 0` once
in each tree, alternating which side runs first, so slow minutes on a
shared host fall on both sides alike. Seeds 1-20 were used while the
benchmark was built and are refused, and so is a tag whose BENCH_<tag>.json
already exists.

The output holds both commits, the machine, each side's `wc -l
src/histlstm/*.py` total and per-file counts (`src_lines`, `src_file_lines`),
every pair's end-to-end values, failed counts and round digests,
`outputs_identical` (every pair's base and change rounds gave the same
digests), and per metric (as BENCHMARK.json declares it) both sides' medians
and quartiles, the change's win count, and two verdicts:

- the gain rule: the change better in at least 9 of 10 pairs and the
  medians apart by more than the base's interquartile range;
- no regression (`within_bound`): the change's median worse than the base
  median by at most the metric's bound, read as a fraction of the base
  median. The verdict is `unresolved` when the base's interquartile range is
  wider than that bound, so the runs spread too widely to tell.
"""

from __future__ import annotations

import argparse
import io
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TUNING_SEEDS = range(1, 21)
RUN_TIMEOUT_S = 1800


def parse_seeds(text: str) -> list:
    """'201-210' or '201,205,230' (or a mix) as a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                          text=True, check=True).stdout.strip()


def export(rev: str, dest: Path) -> Path:
    """The committed files of rev, unpacked into dest."""
    blob = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                          capture_output=True, check=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest)
    return dest


def export_worktree(dest: Path) -> Path:
    """The working tree's tracked files as they stand and its untracked files
    that are not ignored, copied into dest."""
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0")
    dest.mkdir(parents=True)
    for name in filter(None, names):
        src = ROOT / name
        if src.exists() or src.is_symlink():  # a tracked file deleted in the tree is left out
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name, follow_symlinks=False)
    return dest


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in tree: its result line and round digests."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: {' '.join(cmd[1:])} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record_path = tree / ".perfbench_run" / f"result-{workload}-seed{seed}-trace0.json"
    record = json.loads(record_path.read_text())
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "digests": sorted({r["digest"] for r in record["rounds"]}),
        "environment": record["environment"],
    }


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def src_file_lines(tree: Path) -> dict:
    """`wc -l src/histlstm/*.py` of a tree: each file's newline count, by name."""
    return {p.name: p.read_bytes().count(b"\n")
            for p in sorted((tree / "src" / "histlstm").glob("*.py"))}


def src_lines(tree: Path) -> int:
    """The total of src_file_lines."""
    return sum(src_file_lines(tree).values())


def outputs_identical(pairs: list) -> bool:
    """True when the base and the change gave the same round digests in every pair."""
    return all(p["base"]["digests"] == p["change"]["digests"] for p in pairs)


def summarize(pairs: list, spec: dict) -> dict:
    out = {}
    for metric in spec["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        base = [p["base"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        wins = sum((c > b) if higher else (c < b) for b, c in zip(base, change))
        losses = sum((c < b) if higher else (c > b) for b, c in zip(base, change))
        b, c = quartiles(base), quartiles(change)
        slack = metric["bound"] * abs(b["median"])
        worse_by = b["median"] - c["median"] if higher else c["median"] - b["median"]
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            "base": b,
            "change": c,
            "change_wins": wins,
            "change_losses": losses,
            "median_ratio": c["median"] / b["median"] if b["median"] else None,
            "gain_rule_met": wins >= 0.9 * len(pairs)
            and abs(c["median"] - b["median"]) > b["iqr"],
            "within_bound": worse_by <= slack,
            "unresolved": b["iqr"] > slack,
        }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="the parent commit")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 201-210")
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--scratch", help="where the exports go (default: a new temp dir)")
    p.add_argument("--tag", required=True, help="writes BENCH_<tag>.json in this checkout")
    args = p.parse_args(argv)
    tuning = [s for s in args.seeds if s in TUNING_SEEDS]
    if tuning:
        p.error(f"seeds {tuning} were used while building the benchmark")
    out = ROOT / f"BENCH_{args.tag}.json"
    if out.exists():  # committed evidence is never overwritten
        p.error(f"{out} exists; pick a new --tag")

    scratch = Path(args.scratch or tempfile.mkdtemp(prefix="histlstm-pairs-"))
    base_commit = git("rev-parse", args.base)
    change = {"commit": git("rev-parse", "HEAD"),
              "uncommitted_changes": bool(git("status", "--porcelain"))}
    sides = {"base": export(base_commit, scratch / f"base-{base_commit[:12]}"),
             "change": export_worktree(scratch / f"change-{change['commit'][:12]}")}

    spec = json.loads((sides["base"] / "BENCHMARK.json").read_text())
    pairs = []
    for i, seed in enumerate(args.seeds):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(sides[side], args.workload, seed, args.seconds)
            m = pair[side]["metrics"]
            print(f"seed {seed} {side:6s} " + " ".join(f"{k}={v:.4g}" for k, v in m.items())
                  + f" failed={pair[side]['failed']}", flush=True)
        pairs.append(pair)

    environment = pairs[0]["base"]["environment"]
    for pair in pairs:
        for side in ("base", "change"):
            pair[side]["source_sha256"] = pair[side].pop("environment")["source_sha256"]
    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "seeds": args.seeds,
        "base": {"commit": base_commit},
        "change": change,
        "src_lines": {side: src_lines(tree) for side, tree in sides.items()},
        "src_file_lines": {side: src_file_lines(tree) for side, tree in sides.items()},
        "machine": {
            "platform": platform.platform(),
            **{k: v for k, v in environment.items()
               if k not in ("git_commit", "source_sha256", "seed", "seed_used_while_building")},
        },
        "pairs": pairs,
        "failed": {side: sum(p[side]["failed"] for p in pairs) for side in ("base", "change")},
        "outputs_identical": outputs_identical(pairs),
        "metrics": summarize(pairs, spec),
    }
    out.write_text(json.dumps(report, indent=1) + "\n")
    for name, m in report["metrics"].items():
        print(f"{name}: median {m['base']['median']:.4g} -> {m['change']['median']:.4g} "
              f"(base IQR {m['base']['iqr']:.3g}); change better in {m['change_wins']}/"
              f"{len(pairs)}; gain rule {'met' if m['gain_rule_met'] else 'not met'}; "
              f"within bound {m['within_bound']}{' (unresolved)' if m['unresolved'] else ''}")
    print(f"outputs identical: {report['outputs_identical']}")
    print(f"src/histlstm lines: {report['src_lines']['base']} -> {report['src_lines']['change']}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
