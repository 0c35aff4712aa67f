"""Memory and time of one training mini-batch at several rows per piece.

    python3 bench/pieces.py --T 480 --units 24,24 --rows 1,2,3,4

Builds long-seq's network shape (a historical unit on every layer, sliding
windows of 5, inverse-loss alpha, dropout 0.1) and a mini-batch of --batch
key-frame sequences of length T, then runs `trainer._batch_gradients` on it
once per entry of --rows, with the training-piece rule set so that each
piece holds exactly that many rows. For each it prints the pieces, the
tracemalloc peak of one call (MiB, above what was allocated before it) and
the best wall time of --repeat untraced calls. Every call starts from the
same generator seed, so the gradient, loss and accuracy must have the same
bytes at every row count; the script says whether they do and exits 1 when
they differ.
"""

from __future__ import annotations

import argparse
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def int_list(text: str) -> list:
    """'24,24' as [24, 24]."""
    return [int(part) for part in text.split(",")]


def measure(T: int, units: list, rows_list: list, batch: int, seed: int,
            repeat: int) -> list:
    """Per entry of rows_list: {rows, pieces, peak_mib, best_s, result}, where
    result is (gradient bytes, loss, accuracy) of the mini-batch."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from histlstm import trainer
    from histlstm.dataio import SynthConfig, synth_keyframe_dataset

    # long-seq's key frames where T has room for them
    window = (10, 15) if T >= 15 else (0, T)
    data = synth_keyframe_dataset(SynthConfig(length=T, signal_window=window, seed=seed,
                                              n_per_class=batch))
    cfg = trainer.TrainConfig(layer_units=tuple(units), dropout_p=0.1, tau=5,
                              alpha_policy="inverse_loss", hist_placement="all",
                              lambda_aux=1.0, l2=0.0001, seed=seed)
    rng = np.random.default_rng(seed)
    net = cfg.build(rng, data.dim, data.n_classes)
    idx = rng.permutation(len(data))[:batch].tolist()  # the classes mixed
    saved = trainer.TRAIN_ROWS, trainer.TRAIN_STEP_BUDGET
    out = []
    try:
        for rows in rows_list:
            trainer.TRAIN_ROWS, trainer.TRAIN_STEP_BUDGET = rows, rows * T

            def call():
                return trainer._batch_gradients(net, data, idx, cfg,
                                                np.random.default_rng(seed))

            tracemalloc.start()
            try:
                grad, loss, acc = call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            times = []
            for _ in range(repeat):
                start = time.perf_counter()
                call()
                times.append(time.perf_counter() - start)
            out.append({"rows": rows,
                        "pieces": [len(p) for p in trainer._pieces(data, idx, rows, rows * T)],
                        "peak_mib": peak / 2**20, "best_s": min(times),
                        "result": (grad.tobytes(), loss, acc)})
    finally:
        trainer.TRAIN_ROWS, trainer.TRAIN_STEP_BUDGET = saved
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--T", type=int, default=480, help="sequence length")
    p.add_argument("--units", type=int_list, default=[24, 24], help="e.g. 24,24")
    p.add_argument("--rows", type=int_list, default=[1, 2, 4], help="rows per piece, e.g. 1,2,4")
    p.add_argument("--batch", type=int, default=8, help="sequences in the mini-batch")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repeat", type=int, default=3, help="timed calls per row count")
    args = p.parse_args(argv)
    if min(args.T, args.batch, args.repeat, *args.units, *args.rows) < 1:
        p.error("--T, --units, --rows, --batch and --repeat take values >= 1")
    runs = measure(args.T, args.units, args.rows, args.batch, args.seed, args.repeat)
    for run in runs:
        print(f"rows {run['rows']}: pieces {run['pieces']}  peak {run['peak_mib']:.2f} MiB  "
              f"best {run['best_s'] * 1e3:.1f} ms of {args.repeat}", flush=True)
    equal = all(run["result"] == runs[0]["result"] for run in runs)
    print(f"gradient, loss and accuracy bytes equal across rows: {'yes' if equal else 'NO'}")
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main())
