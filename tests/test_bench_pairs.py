"""bench/pairs.py's verdicts on synthetic base/change pairs."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("pairs", ROOT / "bench" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

SPEC = {"end_to_end": [
    {"name": "ops", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "rss", "unit": "MB", "better": "lower", "bound": 0.1},
]}


def synthetic(base_ops, change_ops, base_rss, change_rss):
    return [{"base": {"metrics": {"ops": bo, "rss": br}},
             "change": {"metrics": {"ops": co, "rss": cr}}}
            for bo, co, br, cr in zip(base_ops, change_ops, base_rss, change_rss)]


def test_summarize_reports_medians_wins_and_verdicts():
    base_ops = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]
    change_ops = [v * 1.2 for v in base_ops]
    base_rss = [200.0] * 10
    change_rss = [215.0] * 10  # 7.5% worse, inside the 10% bound
    out = pairs.summarize(synthetic(base_ops, change_ops, base_rss, change_rss), SPEC)
    ops, rss = out["ops"], out["rss"]
    assert ops["base"]["median"] == 100.0 and ops["change"]["median"] == pytest.approx(120.0)
    assert ops["change_wins"] == 10 and ops["change_losses"] == 0
    assert ops["gain_rule_met"] and ops["within_bound"] and not ops["unresolved"]
    assert rss["change_wins"] == 0 and rss["change_losses"] == 10
    assert not rss["gain_rule_met"] and rss["within_bound"] and not rss["unresolved"]


def test_regression_beyond_the_bound_is_not_within_it():
    base = [100.0] * 10
    out = pairs.summarize(synthetic(base, [74.0] * 10, [200.0] * 10, [221.0] * 10), SPEC)
    assert not out["ops"]["within_bound"]  # 26% fewer ops, bound 25%
    assert not out["rss"]["within_bound"]  # 10.5% more memory, bound 10%
    out = pairs.summarize(synthetic(base, [76.0] * 10, [200.0] * 10, [219.0] * 10), SPEC)
    assert out["ops"]["within_bound"] and out["rss"]["within_bound"]


def test_base_spread_wider_than_the_bound_is_unresolved():
    base_rss = [150.0, 250.0] * 5  # IQR 100 against a slack of 20
    out = pairs.summarize(synthetic([100.0] * 10, [100.0] * 10, base_rss, base_rss), SPEC)
    assert out["rss"]["unresolved"] and out["rss"]["within_bound"]
    assert not out["ops"]["unresolved"]


def test_src_lines_counts_newlines_of_the_package(tmp_path):
    pkg = tmp_path / "src" / "histlstm"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\ny = 2\n")
    (pkg / "b.py").write_text("z = 3\n")
    (pkg / "notes.txt").write_text("not\ncounted\n")
    assert pairs.src_lines(tmp_path) == 3
    assert pairs.src_file_lines(tmp_path) == {"a.py": 2, "b.py": 1}


def test_outputs_identical_needs_equal_digests_in_every_pair():
    same = [{"base": {"digests": ["a"]}, "change": {"digests": ["a"]}},
            {"base": {"digests": ["b", "c"]}, "change": {"digests": ["b", "c"]}}]
    assert pairs.outputs_identical(same)
    moved = same + [{"base": {"digests": ["d"]}, "change": {"digests": ["e"]}}]
    assert not pairs.outputs_identical(moved)
    extra = same + [{"base": {"digests": ["f"]}, "change": {"digests": ["f", "g"]}}]
    assert not pairs.outputs_identical(extra)


def test_change_side_export_holds_uncommitted_edits_and_untracked_files(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    (repo / "src" / "a.py").write_text("x = 1\n")
    (repo / "gone.py").write_text("y = 2\n")
    (repo / ".gitignore").write_text("ignored.txt\n")
    git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run(git[:3] + ["init", "-q"], check=True)
    subprocess.run(git + ["add", "-A"], check=True)
    subprocess.run(git + ["commit", "-q", "-m", "one"], check=True)
    (repo / "src" / "a.py").write_text("x = 2\n")  # uncommitted edit
    (repo / "src" / "new.py").write_text("z = 3\n")  # untracked, not ignored
    (repo / "ignored.txt").write_text("left out\n")
    (repo / "gone.py").unlink()  # tracked, deleted in the tree
    monkeypatch.setattr(pairs, "ROOT", repo)
    dest = pairs.export_worktree(tmp_path / "out" / "change")
    files = sorted(str(p.relative_to(dest)) for p in dest.rglob("*") if p.is_file())
    assert files == [".gitignore", "src/a.py", "src/new.py"]
    assert (dest / "src" / "a.py").read_text() == "x = 2\n"
    assert (dest / "src" / "new.py").read_text() == "z = 3\n"
    base = pairs.export("HEAD", tmp_path / "out" / "base")
    assert (base / "src" / "a.py").read_text() == "x = 1\n" and (base / "gone.py").exists()


def test_existing_output_file_is_refused_before_any_export(tmp_path, monkeypatch, capsys):
    (tmp_path / "BENCH_kept.json").write_text("{}\n")
    monkeypatch.setattr(pairs, "ROOT", tmp_path)

    def no_export(*args):
        raise AssertionError("nothing is exported or run for a refused tag")

    monkeypatch.setattr(pairs, "export", no_export)
    monkeypatch.setattr(pairs, "export_worktree", no_export)
    with pytest.raises(SystemExit) as exc:
        pairs.main(["--base", "HEAD", "--workload", "gradcheck", "--seeds", "2001-2002",
                    "--tag", "kept"])
    assert exc.value.code == 2
    assert f"{tmp_path / 'BENCH_kept.json'} exists" in capsys.readouterr().err
    assert (tmp_path / "BENCH_kept.json").read_text() == "{}\n"
