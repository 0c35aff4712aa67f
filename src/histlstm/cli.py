"""Command-line entry point for training, evaluation, cross-validation, the
tau sweep, synthetic data generation, and the gradient checker.

Configuration is a plain-text key=value file overridable by flags; unknown
keys are rejected. Every run writes the fully resolved configuration to
<out>/effective-config.txt, which is itself a valid config file, so any
result can be reproduced from that dump alone.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, replace
from typing import Optional

import numpy as np

from .dataio import (Dataset, SynthConfig, load_manifest, read_lines,
                     synth_keyframe_dataset, write_manifest)
from .network import load_checkpoint, save_checkpoint
from .trainer import (
    TrainConfig,
    confusion_table,
    cross_validate,
    curve_csv,
    evaluate,
    grad_check,
    train,
)


class UsageError(Exception):
    """Bad invocation (unknown key, missing input); exits with status 2."""


# Config class fields with their defaults. The CLI sets layer_units from
# layers/units, signal_window from synth_signal_start/end, and SynthConfig's
# seed from the one `seed` key.
_TRAIN = {f.name: f.default for f in fields(TrainConfig) if f.name != "layer_units"}
_SYNTH = {f.name: f.default for f in fields(SynthConfig)
          if f.name not in ("signal_window", "seed")}

# Every configuration key with its default: the TrainConfig fields, the
# SynthConfig fields with a synth_ prefix, and the keys only the CLI has.
# Booleans are true/false in the file; units may be a single count (repeated
# `layers` times) or a comma-separated list that overrides `layers`.
DEFAULTS = {
    **_TRAIN,
    **{"synth_" + name: default for name, default in _SYNTH.items()},
    "layers": 5,
    "units": "30",
    "kfolds": 5,
    "manifest": "",
    "checkpoint": "",
    "out": "hlstm-out",
    "synth": False,
    "synth_signal_start": SynthConfig.signal_window[0],
    "synth_signal_end": SynthConfig.signal_window[1],
    "gradcheck_seeds": 20,
}

# Keys with a dedicated flag: --alpha-policy sets alpha_policy, and so on.
FLAG_KEYS = ("seed", "tau", "alpha_policy", "window_mode", "inference_policy",
             "hist_placement", "layers", "units", "epochs", "out", "manifest",
             "checkpoint", "kfolds")


def _assign(item: str, where: str) -> tuple:
    """The key and converted value of one key=value item, a config file line
    or a --set item; where (path:line or --set) starts every error."""
    if "=" not in item:
        raise UsageError(f"{where}: expected key=value, got {item!r}")
    key, raw = (s.strip() for s in item.split("=", 1))
    if key not in DEFAULTS:
        raise UsageError(f"{where}: unknown key {key!r}")
    default = DEFAULTS[key]
    try:
        if isinstance(default, bool):
            low = raw.lower()
            if low not in ("true", "false"):
                raise ValueError(f"expected true/false, got {raw!r}")
            return key, low == "true"
        if isinstance(default, int):
            return key, int(raw)
        if isinstance(default, float):
            return key, float(raw)
        if "\x00" in raw:  # no file name or path can hold one
            raise ValueError("contains a NUL byte")
        return key, raw
    except ValueError as exc:
        raise UsageError(f"{where}: bad value for {key}: {exc}") from None


def parse_config_file(path: str) -> dict:
    try:
        lines = read_lines(path)
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from None
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    out = {}
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if text:
            key, value = _assign(text, f"{path}:{lineno}")
            out[key] = value
    return out


def resolve_config(args: argparse.Namespace) -> dict:
    """defaults < config file < individual flags < --set overrides."""
    cfg = dict(DEFAULTS)
    if getattr(args, "config", None):
        cfg.update(parse_config_file(args.config))
    for key in FLAG_KEYS:
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            cfg[key] = flag_val
    cfg.update(_assign(item, "--set") for item in getattr(args, "set", None) or [])
    if not cfg["out"]:
        raise UsageError("out must name a directory, got ''")
    return cfg


def _at_least(cfg: dict, key: str, low: int) -> int:
    if cfg[key] < low:
        raise UsageError(f"{key} must be >= {low}, got {cfg[key]}")
    return cfg[key]


def _layer_units(cfg: dict) -> tuple:
    units = str(cfg["units"])
    try:
        if "," in units:
            return tuple(int(u) for u in units.split(",") if u.strip())
        return (int(units),) * int(cfg["layers"])
    except ValueError as exc:
        raise UsageError(f"bad value for units: {exc}") from None


def train_config(cfg: dict) -> TrainConfig:
    try:
        return TrainConfig(layer_units=_layer_units(cfg), **{k: cfg[k] for k in _TRAIN})
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def synth_config(cfg: dict) -> SynthConfig:
    try:
        return SynthConfig(
            signal_window=(cfg["synth_signal_start"], cfg["synth_signal_end"]),
            seed=cfg["seed"],
            **{name: cfg["synth_" + name] for name in _SYNTH},
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def load_dataset(cfg: dict) -> Dataset:
    if cfg["manifest"]:
        return load_manifest(cfg["manifest"])
    if cfg["synth"]:
        return synth_keyframe_dataset(synth_config(cfg))
    raise UsageError("no data source: set manifest=PATH or synth=true")


def dump_effective_config(cfg: dict, command: str) -> str:
    out_dir = cfg["out"]
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "effective-config.txt")
    lines = [f"# command: {command}\n"]
    for key in sorted(cfg):
        val = cfg[key]
        if isinstance(val, bool):
            val = "true" if val else "false"
        lines.append(f"{key}={val}\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    return path


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def cmd_train(cfg: dict) -> int:
    dataset = load_dataset(cfg)
    tcfg = train_config(cfg)
    net, metrics = train(dataset, tcfg, log=print)
    out = cfg["out"]
    ckpt = os.path.join(out, "model.ckpt")
    save_checkpoint(net, ckpt)
    _write(os.path.join(out, "train_curve.csv"), curve_csv(metrics))
    _write(os.path.join(out, "train_metrics.txt"), confusion_table(metrics))
    print(f"train: {len(dataset)} sequences, final training accuracy "
          f"{metrics.accuracy:.4f}")
    print(f"checkpoint -> {ckpt}")
    return 0


def cmd_eval(cfg: dict) -> int:
    if not cfg["checkpoint"]:
        raise UsageError("eval needs checkpoint=PATH")
    net = load_checkpoint(cfg["checkpoint"])
    dataset = load_dataset(cfg)
    metrics = evaluate(net, dataset)
    table = confusion_table(metrics)
    _write(os.path.join(cfg["out"], "eval_metrics.txt"), table)
    print(table, end="")
    return 0


def _cv_data(cfg: dict) -> tuple:
    """The dataset and fold count of cv and sweep-tau. kfolds must not
    exceed the sequence count, unless the manifest declares its own folds,
    which must then be at least 2."""
    k = _at_least(cfg, "kfolds", 2)
    dataset = load_dataset(cfg)
    if dataset.folds is not None and len(set(dataset.folds)) < 2:
        raise UsageError(f"manifest {cfg['manifest']} declares only fold {dataset.folds[0]}; "
                         "cross-validation needs at least 2 folds")
    if dataset.folds is None and len(dataset) < k:
        source = f"manifest {cfg['manifest']}" if cfg["manifest"] else "the synth=true corpus"
        raise UsageError(f"kfolds must be <= {len(dataset)}, the sequence count of {source}, "
                         f"got {k}")
    return dataset, k


def cmd_cv(cfg: dict) -> int:
    dataset, k = _cv_data(cfg)
    metrics = cross_validate(dataset, train_config(cfg), k=k, log=print)
    table = confusion_table(metrics)
    _write(os.path.join(cfg["out"], "cv_metrics.txt"), table)
    print(table, end="")
    return 0


def cmd_sweep_tau(cfg: dict) -> int:
    dataset, k = _cv_data(cfg)
    base = train_config(cfg)
    rows = []
    for tau in (2, 3, 4, 5):
        m = cross_validate(dataset, replace(base, tau=tau, use_historical=True), k=k)
        rows.append((f"historical tau={tau}", m.accuracy))
        print(f"historical tau={tau}: mean accuracy {m.accuracy:.4f}")
    m = cross_validate(dataset, replace(base, use_historical=False), k=k)
    rows.append(("lstm", m.accuracy))
    print(f"lstm: mean accuracy {m.accuracy:.4f}")
    width = max(len(r[0]) for r in rows)
    table = "method".ljust(width) + "  accuracy\n"
    table += "\n".join(f"{name.ljust(width)}  {acc:.4f}" for name, acc in rows) + "\n"
    csv = "method,accuracy\n" + "".join(f"{n},{a!r}\n" for n, a in rows)
    _write(os.path.join(cfg["out"], "sweep.txt"), table)
    _write(os.path.join(cfg["out"], "sweep.csv"), csv)
    print(table, end="")
    return 0


def cmd_synth(cfg: dict) -> int:
    dataset = synth_keyframe_dataset(synth_config(cfg))
    manifest = os.path.join(cfg["out"], "manifest.txt")
    write_manifest(manifest, dataset)
    print(f"synth: wrote {len(dataset)} sequences "
          f"({dataset.n_classes} classes) -> {manifest}")
    return 0


def cmd_gradcheck(cfg: dict) -> int:
    report = grad_check(seeds=_at_least(cfg, "gradcheck_seeds", 1))
    line = (f"gradcheck: max relative error {report.max_rel_err:.3e} "
            f"(block {report.worst_block}) over {len(report.cases)} cases "
            f"in {report.elapsed_s:.1f}s")
    _write(os.path.join(cfg["out"], "gradcheck.txt"), line + "\n")
    print(line)
    if report.missing_coverage:
        print(f"gradcheck: missing branch coverage: {report.missing_coverage}")
    return 0 if report.ok else 1


COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "cv": cmd_cv,
    "sweep-tau": cmd_sweep_tau,
    "synth": cmd_synth,
    "gradcheck": cmd_gradcheck,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hlstm",
        description="Sequence classification with an LSTM variant that keeps "
                    "a loss-guided running summary of its per-step states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="key=value config file")
        for key in FLAG_KEYS:
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=type(DEFAULTS[key]),
                           help=f"set {key} (default {DEFAULTS[key]!r})")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override any config key (repeatable)")
    return parser


def run(argv: Optional[list] = None) -> int:
    """Parse and execute; returns the exit status instead of raising."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = resolve_config(args)
        dump_effective_config(cfg, args.command)
        # non-finite values end in explicit errors; numpy's warnings would repeat them
        with np.errstate(all="ignore"):
            return COMMANDS[args.command](cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
