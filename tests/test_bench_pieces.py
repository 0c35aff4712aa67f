"""bench/pieces.py at a tiny size: its pieces, its report and its bit check."""

import importlib.util
from pathlib import Path

from histlstm import trainer

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("pieces", ROOT / "bench" / "pieces.py")
pieces = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pieces)


def test_tiny_run_prints_each_row_count_and_equal_bytes(capsys):
    rule = trainer.TRAIN_ROWS, trainer.TRAIN_STEP_BUDGET
    assert pieces.main(["--T", "6", "--units", "3,2", "--rows", "1,2,3", "--batch", "5",
                        "--repeat", "1"]) == 0
    assert (trainer.TRAIN_ROWS, trainer.TRAIN_STEP_BUDGET) == rule  # put back
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("  ")[0] for line in lines[:3]] == [
        "rows 1: pieces [1, 1, 1, 1, 1]", "rows 2: pieces [2, 2, 1]", "rows 3: pieces [3, 2]"]
    assert all(" MiB  best " in line for line in lines[:3])
    assert lines[3:] == ["gradient, loss and accuracy bytes equal across rows: yes"]


def test_bytes_that_differ_across_row_counts_exit_1(monkeypatch, capsys):
    real = trainer._batch_gradients

    def skewed(*args):
        grad, loss, acc = real(*args)
        return grad, loss + trainer.TRAIN_ROWS, acc

    monkeypatch.setattr(trainer, "_batch_gradients", skewed)
    assert pieces.main(["--T", "3", "--units", "2", "--rows", "1,2", "--batch", "2",
                        "--repeat", "1"]) == 1
    assert capsys.readouterr().out.splitlines()[-1].endswith("bytes equal across rows: NO")
