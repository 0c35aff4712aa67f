"""Tests for the command-line interface: config resolution, the effective
config dump, exit codes, and one in-process smoke run per subcommand."""

import inspect
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from histlstm.cli import (
    DEFAULTS,
    FLAG_KEYS,
    UsageError,
    build_parser,
    parse_config_file,
    resolve_config,
    run,
    synth_config,
    train_config,
)
import histlstm
from histlstm.dataio import FeatureSequence, SynthConfig, load_manifest, read_fseq, write_fseq
from histlstm.historical import HistoricalConfig
from histlstm.network import build_network, load_checkpoint, save_checkpoint
from histlstm import cli
from histlstm.trainer import GradCheckReport, TrainConfig, grad_check

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def synth_args(tmp_path, *extra):
    # tiny synthetic task so every command finishes in well under a second
    return ["--out", str(tmp_path / "out"),
            "--set", "synth=true",
            "--set", "synth_classes=2",
            "--set", "synth_dim=3",
            "--set", "synth_length=6",
            "--set", "synth_signal_start=1",
            "--set", "synth_signal_end=4",
            "--set", "synth_n_per_class=4",
            "--set", "epochs=1",
            "--set", "batch_size=4",
            "--set", "dropout_p=0.0",
            "--layers", "1",
            "--units", "3",
            "--tau", "2",
            *extra]


class TestConfigFile:
    def test_parses_values_comments_and_blanks(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# a comment\n"
            "\n"
            "seed = 7\n"
            "lr0=0.01  # trailing comment\n"
            "use_historical=false\n"
            "units=8,4\n"
        )
        cfg = parse_config_file(str(path))
        assert cfg == {"seed": 7, "lr0": 0.01, "use_historical": False,
                       "units": "8,4"}

    def test_unknown_key_names_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed=1\nbogus=2\n")
        with pytest.raises(UsageError, match=r"run\.cfg:2: unknown key"):
            parse_config_file(str(path))

    def test_bad_int_value(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("epochs=three\n")
        with pytest.raises(UsageError, match="bad value for epochs"):
            parse_config_file(str(path))

    def test_bad_value_names_file_and_line(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("seed=1\n# no epochs yet\nepochs=three\n")
        with pytest.raises(UsageError, match=f"^{path}:3: bad value for epochs: "):
            parse_config_file(str(path))
        assert run(["train", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:3: bad value for epochs: ")

    def test_nul_byte_in_value_names_file_and_line(self, tmp_path, capsys):
        # a path with a NUL byte used to reach os.makedirs and exit 1 with
        # only "embedded null byte"
        path = tmp_path / "run.cfg"
        path.write_bytes(b"seed=1\nout=ab\x00c\n")
        with pytest.raises(UsageError, match=f"^{path}:2: bad value for out: contains a NUL byte$"):
            parse_config_file(str(path))
        assert run(["synth", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}:2: bad value for out: contains a NUL byte\n"

    def test_bad_bool_value(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("synth=yes\n")
        with pytest.raises(UsageError, match="true/false"):
            parse_config_file(str(path))

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed 1\n")
        with pytest.raises(UsageError, match="key=value"):
            parse_config_file(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(UsageError, match="cannot read"):
            parse_config_file(str(tmp_path / "absent.cfg"))

    def test_non_utf8_file_exits_2_naming_file_and_byte(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"seed=1\n\xff\n")
        assert run(["train", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {path}: not UTF-8 at byte 7\n"


class TestResolution:
    def test_flag_beats_file_and_set_beats_flag(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed=1\ntau=9\n")
        parser_args = ["train", "--config", str(path), "--seed", "2",
                       "--set", "seed=3"]
        from histlstm.cli import build_parser
        args = build_parser().parse_args(parser_args)
        cfg = resolve_config(args)
        assert cfg["seed"] == 3      # --set wins over the flag
        assert cfg["tau"] == 9       # file wins over the default
        assert cfg["epochs"] == DEFAULTS["epochs"]

    def test_set_rejects_unknown_key(self):
        from histlstm.cli import build_parser
        args = build_parser().parse_args(["train", "--set", "nope=1"])
        with pytest.raises(UsageError, match="unknown key"):
            resolve_config(args)

    def test_units_list_overrides_layers(self):
        cfg = dict(DEFAULTS)
        cfg.update(units="8,4,2", layers=99, dropout_p=0.0)
        assert train_config(cfg).layer_units == (8, 4, 2)
        cfg.update(units="6", layers=2)
        assert train_config(cfg).layer_units == (6, 6)

    def test_defaults_agree_everywhere(self):
        # DEFAULTS, the config classes, grad_check, and the README key table
        assert train_config(DEFAULTS) == TrainConfig()
        assert synth_config(DEFAULTS) == SynthConfig()
        seeds = inspect.signature(grad_check).parameters["seeds"].default
        assert DEFAULTS["gradcheck_seeds"] == seeds
        with open(README, encoding="utf-8") as fh:
            rows = [line.split("|") for line in fh if line.startswith("| `")]
        table = {cells[1].strip().strip("`"): cells[2].strip() for cells in rows}
        shown = {key: str(val).lower() if isinstance(val, bool) else str(val)
                 for key, val in DEFAULTS.items()}
        assert table == shown

    FLAGS = {"--seed": "seed", "--tau": "tau", "--alpha-policy": "alpha_policy",
             "--window-mode": "window_mode", "--inference-policy": "inference_policy",
             "--hist-placement": "hist_placement", "--layers": "layers",
             "--units": "units", "--epochs": "epochs", "--out": "out",
             "--manifest": "manifest", "--checkpoint": "checkpoint",
             "--kfolds": "kfolds"}

    @pytest.mark.parametrize("flag", FLAGS)
    def test_flag_resolves_like_set(self, flag):
        key = self.FLAGS[flag]
        assert sorted(self.FLAGS.values()) == sorted(FLAG_KEYS)
        text = "7" if type(DEFAULTS[key]) is int else "8,4"
        by_flag = resolve_config(build_parser().parse_args(["cv", flag, text]))
        by_set = resolve_config(build_parser().parse_args(["cv", "--set", f"{key}={text}"]))
        assert by_flag == by_set
        assert by_flag[key] != DEFAULTS[key]

    def test_bad_train_value_becomes_usage_error(self):
        cfg = dict(DEFAULTS)
        cfg.update(dropout_p=1.5)
        with pytest.raises(UsageError, match="dropout_p"):
            train_config(cfg)


class TestExitCodes:
    def test_unknown_set_key_exits_2(self, tmp_path, capsys):
        code = run(["train", "--out", str(tmp_path), "--set", "nope=1"])
        assert code == 2
        assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("item, message", [
        ("epochs=three", "bad value for epochs: invalid literal for int() with base 10: 'three'"),
        ("epochs", "expected key=value, got 'epochs'"),
    ])
    def test_bad_set_item_exits_2_naming_set(self, tmp_path, capsys, item, message):
        # a --set item is parsed as a config file line is, its source in front
        assert run(["train", *synth_args(tmp_path, "--set", item)]) == 2
        out, err = capsys.readouterr()
        assert err == f"error: --set: {message}\n" and "epoch " not in out

    def test_no_data_source_exits_2(self, tmp_path, capsys):
        code = run(["train", "--out", str(tmp_path)])
        assert code == 2
        assert "no data source" in capsys.readouterr().err

    def test_eval_without_checkpoint_exits_2(self, tmp_path, capsys):
        code = run(["eval", *synth_args(tmp_path)])
        assert code == 2
        assert "checkpoint" in capsys.readouterr().err

    def test_argparse_errors_exit_2(self, capsys):
        assert run([]) == 2                    # missing subcommand
        assert run(["train", "--config"]) == 2  # flag without value
        capsys.readouterr()

    def test_zero_units_exits_2(self, tmp_path, capsys):
        assert run(["train", *synth_args(tmp_path, "--units", "0")]) == 2
        assert "unit" in capsys.readouterr().err

    BAD_VALUES = {
        "tau": ("--tau", "0"),
        "window_mode": ("--set", "window_mode=boxcar"),
        "alpha_policy": ("--set", "alpha_policy=x"),
        "hist_placement": ("--set", "hist_placement=middle"),
        "peephole": ("--set", "peephole=x"),
        "layers": ("--layers", "0"),
        "lr0": ("--set", "lr0=nan"),
        "decay_base": ("--set", "decay_base=nan"),
        "l2": ("--set", "l2=inf"),
        "lambda_aux": ("--set", "lambda_aux=nan"),
        "noise_sigma": ("--set", "synth_noise_sigma=nan"),
        "distractor_gain": ("--set", "synth_distractor_gain=nan"),
        "seed": ("--seed", "-1"),
        "units": ("--units", "abc"),
    }

    @pytest.mark.parametrize("key", BAD_VALUES)
    def test_bad_config_value_exits_2(self, tmp_path, capsys, key):
        # rejected when the config is built, before any network exists
        assert run(["train", *synth_args(tmp_path, *self.BAD_VALUES[key])]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert key.rstrip("s") in err

    def test_tau_beyond_the_checkpoint_field_exits_2_before_training(self, tmp_path, capsys):
        # tau is stored as a u32: 2**32 used to train, then fail to save
        assert run(["train", *synth_args(tmp_path, "--tau", "4294967296")]) == 2
        out, err = capsys.readouterr()
        assert err == "error: tau must be <= 4294967295, got 4294967296\n"
        assert "epoch" not in out and not (tmp_path / "out" / "model.ckpt").exists()

    def test_growing_decay_base_exits_2_before_training(self, tmp_path, capsys):
        # decay_base ** step used to overflow at step 2 with a traceback
        args = ("--set", "lr0=1e-300", "--set", "decay_base=1e200", "--set", "decay_every=1")
        assert run(["train", *synth_args(tmp_path, *args)]) == 2
        out, err = capsys.readouterr()
        assert err == "error: decay_base must be <= 1, got 1e+200\n"
        assert "epoch" not in out and not (tmp_path / "out" / "model.ckpt").exists()

    def test_empty_out_exits_2_naming_the_key(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["train", *synth_args(tmp_path, "--set", "out=")]) == 2
        out, err = capsys.readouterr()
        assert err == "error: out must name a directory, got ''\n" and "epoch" not in out
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command, args, key", [
        ("train", ("--set", "lr0=inf"), "lr0"),
        ("synth", ("--seed", "-1"), "seed"),
        ("cv", ("--seed", "-1"), "seed"),
    ])
    def test_bad_value_exits_2_from_each_command(self, tmp_path, capsys, command, args, key):
        assert run([command, *synth_args(tmp_path, *args)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["cv", "sweep-tau"])
    def test_kfolds_below_2_exits_2(self, tmp_path, capsys, command):
        assert run([command, *synth_args(tmp_path, "--kfolds", "1")]) == 2
        assert capsys.readouterr().err == "error: kfolds must be >= 2, got 1\n"

    @pytest.mark.parametrize("command", ["cv", "sweep-tau"])
    def test_kfolds_beyond_the_data_exits_2_naming_key_and_source(self, tmp_path, capsys,
                                                                  command):
        assert run([command, *synth_args(tmp_path, "--kfolds", "100")]) == 2
        assert capsys.readouterr().err == ("error: kfolds must be <= 8, the sequence count of "
                                           "the synth=true corpus, got 100\n")

    def test_kfolds_is_checked_only_without_declared_folds(self, tmp_path, capsys):
        for i in range(4):
            write_fseq(str(tmp_path / f"seq{i}.fseq"),
                       FeatureSequence(frames=np.zeros((3, 2)), label=i % 2))
        manifest = tmp_path / "manifest.txt"
        args = ["cv", "--out", str(tmp_path / "out"), "--manifest", str(manifest),
                "--kfolds", "100", "--layers", "1", "--units", "3", "--epochs", "1"]
        manifest.write_text("classes 2\n" + "".join(f"seq{i}.fseq {i % 2}\n" for i in range(4)))
        assert run(args) == 2
        assert capsys.readouterr().err == (f"error: kfolds must be <= 4, the sequence count of "
                                           f"manifest {manifest}, got 100\n")
        manifest.write_text("classes 2\n" + "".join(f"seq{i}.fseq {i % 2} {i // 2}\n"
                                                     for i in range(4)))
        assert run(args) == 0
        assert "per-fold" in (tmp_path / "out" / "cv_metrics.txt").read_text()

    @pytest.mark.parametrize("command", ["cv", "sweep-tau"])
    def test_one_declared_fold_exits_2_naming_manifest_and_fold(self, tmp_path, capsys,
                                                                 command):
        for i in range(4):
            write_fseq(str(tmp_path / f"seq{i}.fseq"),
                       FeatureSequence(frames=np.zeros((3, 2)), label=i % 2))
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("classes 2\n" + "".join(f"seq{i}.fseq {i % 2} 3\n" for i in range(4)))
        assert run([command, "--out", str(tmp_path / "out"), "--manifest", str(manifest),
                    "--layers", "1", "--units", "3", "--epochs", "1"]) == 2
        assert capsys.readouterr().err == (f"error: manifest {manifest} declares only fold 3; "
                                           f"cross-validation needs at least 2 folds\n")

    def test_gradcheck_zero_seeds_exits_2(self, tmp_path, capsys):
        code = run(["gradcheck", "--out", str(tmp_path / "out"),
                    "--set", "gradcheck_seeds=0"])
        assert code == 2
        assert capsys.readouterr().err == "error: gradcheck_seeds must be >= 1, got 0\n"

    def test_eval_zero_unit_checkpoint_exits_1(self, tmp_path, capsys):
        assert run(["train", *synth_args(tmp_path)]) == 0
        ckpt = tmp_path / "out" / "model.ckpt"
        blob = bytearray(ckpt.read_bytes())
        blob[22:26] = bytes(4)  # the one layer's unit count
        ckpt.write_bytes(bytes(blob))
        capsys.readouterr()
        code = run(["eval", *synth_args(tmp_path, "--checkpoint", str(ckpt))])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: {ckpt}: byte 22: layer 0 units must be >= 1, got 0\n"

    def test_eval_huge_class_count_checkpoint_exits_1(self, tmp_path, capsys):
        assert run(["train", *synth_args(tmp_path)]) == 0
        ckpt = tmp_path / "out" / "model.ckpt"
        blob = bytearray(ckpt.read_bytes())
        blob[10:14] = b"\xff" * 4  # class count 2**32 - 1
        ckpt.write_bytes(bytes(blob))
        capsys.readouterr()
        code = run(["eval", *synth_args(tmp_path, "--checkpoint", str(ckpt))])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ckpt}: byte {len(blob)}: truncated: the ")
        assert err.count("\n") == 1

    def test_non_utf8_manifest_exits_1_naming_file_and_byte(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.txt"
        manifest.write_bytes(b"classes 2\n\xff.fseq 0\n")
        assert run(["train", "--out", str(tmp_path / "out"), "--manifest", str(manifest)]) == 1
        assert capsys.readouterr().err == f"error: {manifest}: not UTF-8 at byte 10\n"

    def test_cv_negative_manifest_fold_exits_1_naming_file_and_line(self, tmp_path, capsys):
        # a negative fold used to reach cross_validate, whose fold seed then
        # failed with a message naming neither the manifest nor the line
        for i in range(4):
            write_fseq(str(tmp_path / f"seq{i}.fseq"),
                       FeatureSequence(frames=np.zeros((3, 2)), label=i % 2))
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("classes 2\nseq0.fseq 0 0\nseq1.fseq 1 1\n"
                            "seq2.fseq 0 0\nseq3.fseq 1 -3\n")
        assert run(["cv", "--out", str(tmp_path / "out"), "--manifest", str(manifest)]) == 1
        assert capsys.readouterr().err == f"error: {manifest}:5: fold must be >= 0, got -3\n"

    def test_eval_dim_mismatch_exits_1(self, tmp_path, capsys):
        assert run(["train", *synth_args(tmp_path)]) == 0
        ckpt = str(tmp_path / "out" / "model.ckpt")
        code = run(["eval", *synth_args(tmp_path, "--checkpoint", ckpt,
                                        "--set", "synth_dim=5")])
        assert code == 1
        assert "error" in capsys.readouterr().err


    def test_eval_nan_fseq_names_file_exits_1(self, tmp_path, capsys):
        assert run(["synth", *synth_args(tmp_path)]) == 0
        assert run(["train", *synth_args(tmp_path)]) == 0
        out = tmp_path / "out"
        bad = read_fseq(str(out / "seq1.fseq"))
        bad.frames[2, 0] = np.nan
        write_fseq(str(out / "seq1.fseq"), bad)
        capsys.readouterr()
        code = run(["eval", "--out", str(out), "--checkpoint", str(out / "model.ckpt"),
                    "--manifest", str(out / "manifest.txt")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: seq1.fseq: sequence contains non-finite features\n"

    def test_literal_alpha_overflow_prints_one_line(self, tmp_path):
        # constant losses make the literal alpha -6.7 at every step, so l_t
        # grows 7.7-fold per step until it overflows; a fresh interpreter
        # shows what numpy's default warning filter would print
        net = build_network(np.random.default_rng(0), 2, (4,), 2, dropout_p=0.0,
                            hist_cfg=HistoricalConfig(alpha_policy="literal"))
        net.per_step_head.V[:] = 0.0
        net.per_step_head.c[:] = 0.0
        net.final_head.V[:] = 0.0
        net.final_head.c[:] = [50.0, 0.0]
        save_checkpoint(net, str(tmp_path / "model.ckpt"))
        frames = np.random.default_rng(1).standard_normal((400, 2))
        write_fseq(str(tmp_path / "long.fseq"), FeatureSequence(frames=frames, label=0))
        (tmp_path / "manifest.txt").write_text("classes 2\nlong.fseq 0\n")
        src = os.path.dirname(os.path.dirname(histlstm.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "histlstm.cli", "eval", "--out", str(tmp_path / "out"),
             "--checkpoint", str(tmp_path / "model.ckpt"),
             "--manifest", str(tmp_path / "manifest.txt")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1
        assert proc.stderr.count("\n") == 1, proc.stderr
        assert proc.stderr.startswith("error: long.fseq: historical state is not finite at step t=")

    def test_infinite_loss_exits_1_naming_loss_step_and_sequence(self, tmp_path, capsys):
        # one Adam step at lr0=1e300 rounds the label's probability to 0
        assert run(["train", *synth_args(tmp_path, "--set", "lr0=1e300")]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: synth-c\d-\d+: eps_h must be finite and positive "
                            r"\(floored\), got inf at step t=\d+\n", err), err


class TestEffectiveConfig:
    def test_dump_is_reloadable_and_reproduces_run(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["synth", *synth_args(tmp_path, "--seed", "6")]) == 0
        dump = out / "effective-config.txt"
        text = dump.read_text()
        assert text.startswith("# command: synth\n")
        assert "use_historical=true\n" in text
        assert "synth_dim=3\n" in text
        # the dump parses as a config file and pins every key
        parsed = parse_config_file(str(dump))
        assert set(parsed) == set(DEFAULTS)
        # feeding the dump back reproduces the dump (and the manifest)
        first_manifest = (out / "manifest.txt").read_text()
        assert run(["synth", "--config", str(dump)]) == 0
        assert dump.read_text() == text
        assert (out / "manifest.txt").read_text() == first_manifest
        capsys.readouterr()


class TestSubcommands:
    def test_synth_writes_loadable_manifest(self, tmp_path, capsys):
        assert run(["synth", *synth_args(tmp_path)]) == 0
        manifest = tmp_path / "out" / "manifest.txt"
        ds = load_manifest(str(manifest))
        assert len(ds) == 8 and ds.n_classes == 2 and ds.dim == 3
        assert "wrote 8 sequences" in capsys.readouterr().out

    def test_train_writes_checkpoint_and_reports(self, tmp_path, capsys):
        assert run(["train", *synth_args(tmp_path)]) == 0
        out = tmp_path / "out"
        net = load_checkpoint(str(out / "model.ckpt"))
        assert net.input_dim == 3 and net.n_classes == 2
        curve = (out / "train_curve.csv").read_text()
        assert curve.startswith("step,lr,loss,accuracy\n")
        assert len(curve.strip().split("\n")) == 1 + 2  # 8 seqs / batch 4
        assert "accuracy" in (out / "train_metrics.txt").read_text()
        assert "checkpoint ->" in capsys.readouterr().out

    def test_eval_round_trip(self, tmp_path, capsys):
        assert run(["train", *synth_args(tmp_path)]) == 0
        ckpt = str(tmp_path / "out" / "model.ckpt")
        capsys.readouterr()
        assert run(["eval", *synth_args(tmp_path, "--checkpoint", ckpt)]) == 0
        text = (tmp_path / "out" / "eval_metrics.txt").read_text()
        assert text.startswith("accuracy ")
        assert capsys.readouterr().out.startswith("accuracy ")

    def test_eval_from_manifest(self, tmp_path, capsys):
        # synth writes a manifest; eval reads it back through the file path
        assert run(["synth", *synth_args(tmp_path)]) == 0
        assert run(["train", *synth_args(tmp_path)]) == 0
        ckpt = str(tmp_path / "out" / "model.ckpt")
        manifest = str(tmp_path / "out" / "manifest.txt")
        code = run(["eval", "--out", str(tmp_path / "out"),
                    "--checkpoint", ckpt, "--manifest", manifest])
        assert code == 0
        capsys.readouterr()

    def test_cv_reports_per_fold(self, tmp_path, capsys):
        assert run(["cv", *synth_args(tmp_path, "--kfolds", "2")]) == 0
        text = (tmp_path / "out" / "cv_metrics.txt").read_text()
        assert "per-fold" in text and len(text.split("per-fold")[1].split()) >= 2
        capsys.readouterr()

    def test_sweep_tau_lists_all_rows(self, tmp_path, capsys):
        assert run(["sweep-tau", *synth_args(tmp_path, "--kfolds", "2")]) == 0
        table = (tmp_path / "out" / "sweep.txt").read_text()
        for row in ("historical tau=2", "historical tau=3", "historical tau=4",
                    "historical tau=5", "lstm"):
            assert row in table
        csv = (tmp_path / "out" / "sweep.csv").read_text()
        assert csv.startswith("method,accuracy\n")
        assert len(csv.strip().split("\n")) == 6
        capsys.readouterr()

    def test_gradcheck_missing_coverage_exits_1_naming_it(self, tmp_path, capsys, monkeypatch):
        report = GradCheckReport(max_rel_err=0.0, worst_block="final.V", cases=[], elapsed_s=0.0,
                                 missing_coverage=[("literal", "sliding", "trunc")])
        monkeypatch.setattr(cli, "grad_check", lambda seeds: report)
        assert run(["gradcheck", "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == (
            "gradcheck: missing branch coverage: [('literal', 'sliding', 'trunc')]")

    def test_gradcheck_exits_0_and_reports(self, tmp_path, capsys):
        # one seed leaves branch-coverage holes; two is the floor for ok
        code = run(["gradcheck", "--out", str(tmp_path / "out"),
                    "--set", "gradcheck_seeds=2"])
        assert code == 0
        text = (tmp_path / "out" / "gradcheck.txt").read_text()
        assert "max relative error" in text
        assert "max relative error" in capsys.readouterr().out
