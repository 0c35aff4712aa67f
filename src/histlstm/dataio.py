"""Feature-sequence files, dataset manifests, and the synthetic key-frame
generator used for desk-scale validation.

On-disk reals are 32-bit to keep corpora small; everything is widened to
64-bit the moment it enters memory.
"""

from __future__ import annotations

import dataclasses
import io
import os
import struct
from dataclasses import dataclass
from typing import NoReturn, Optional, Sequence

import numpy as np

from .numerics import ShapeError, check_fields

FSEQ_MAGIC = b"FSEQ1"
FSEQ_PREFIX = "seq"  # write_manifest names its files seq0.fseq, seq1.fseq, ...


@dataclass(eq=False)
class FeatureSequence:
    """One classified sequence of feature vectors.

    frames is a (T, D) float64 array; id is in-memory metadata (not stored
    in the file format) and is excluded from equality.
    """

    frames: np.ndarray
    label: int
    id: str = ""

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 2 or self.frames.shape[0] < 1 or self.frames.shape[1] < 1:
            raise ShapeError(
                f"frames must be a (T, D) array with T, D >= 1, got {self.frames.shape}"
            )
        self.label = int(self.label)
        if self.label < 0:
            raise ValueError(f"label must be non-negative, got {self.label}")

    @property
    def T(self) -> int:
        return self.frames.shape[0]

    @property
    def dim(self) -> int:
        return self.frames.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, FeatureSequence):
            return NotImplemented
        return (
            self.label == other.label
            and self.frames.shape == other.frames.shape
            and np.array_equal(self.frames, other.frames)
        )


@dataclass
class Dataset:
    """An ordered sequence collection with a declared class count."""

    sequences: list
    n_classes: int
    folds: Optional[list] = None  # parallel to sequences when the manifest declared folds

    def __post_init__(self):
        if self.n_classes < 1:
            raise ValueError(f"n_classes must be >= 1, got {self.n_classes}")
        dims = {s.dim for s in self.sequences}
        if len(dims) > 1:
            raise ShapeError(f"mixed feature dims in dataset: {sorted(dims)}")
        for s in self.sequences:
            if s.label >= self.n_classes:
                raise ValueError(
                    f"sequence {s.id!r} has label {s.label} >= n_classes {self.n_classes}"
                )
        if self.folds is not None and len(self.folds) != len(self.sequences):
            raise ValueError("folds list must parallel the sequence list")

    def __len__(self) -> int:
        return len(self.sequences)

    def __iter__(self):
        return iter(self.sequences)

    @property
    def dim(self) -> int:
        if not self.sequences:
            raise ValueError("empty dataset has no feature dim")
        return self.sequences[0].dim

    def labels(self) -> np.ndarray:
        return np.array([s.label for s in self.sequences], dtype=np.int64)


class BinaryReader:
    """A binary file read whole and taken field by field from the front:
    the one parser of FSEQ files and checkpoints. Every error is one
    ValueError, `<path>: byte N: <what>`, where N is the start of the
    offending field, the end of the file for truncation, or the first
    extra byte."""

    def __init__(self, path: str, magic: bytes):
        self.path = path
        with open(path, "rb") as fh:
            self.raw = fh.read()
        self.at = self.pos = 0  # start of the field last taken; the cursor
        if self.raw[:len(magic)] != magic:
            self.fail(f"bad magic {self.raw[:len(magic)]!r}, expected {magic!r}")
        self.pos = len(magic)

    def fail(self, what: str, at: Optional[int] = None) -> NoReturn:
        raise ValueError(f"{self.path}: byte {self.at if at is None else at}: {what}")

    def _end(self, size: int, what: str) -> int:
        end = self.pos + size
        if end > len(self.raw):
            self.fail(f"truncated: {what} would end at byte {end}", len(self.raw))
        return end

    def take(self, fmt: str, what: str):
        """The one value of the little-endian struct format fmt at the cursor,
        which moves past it; `at` keeps where it starts."""
        self.at, self.pos = self.pos, self._end(struct.calcsize("<" + fmt), what)
        return struct.unpack_from("<" + fmt, self.raw, self.at)[0]

    def count(self, what: str) -> int:
        """A u32 that must be at least 1."""
        value = self.take("I", what)
        if value < 1:
            self.fail(f"{what} must be >= 1, got {value}")
        return value

    def floats(self, dtype: str, n: int, what: str) -> np.ndarray:
        """The rest of the file: n values of dtype, widened to a new float64
        array; the size is checked against the file before it is read."""
        end = self._end(np.dtype(dtype).itemsize * n, f"the {n} {what} the header declares")
        if end < len(self.raw):
            self.fail(f"{len(self.raw) - end} trailing bytes", end)
        return np.frombuffer(self.raw, dtype=dtype, count=n, offset=self.pos).astype(np.float64)


def write_binary(path: str, magic: bytes, fields: Sequence[tuple], payload: np.ndarray) -> None:
    """What BinaryReader reads: magic, each (name, struct format, value) of
    fields little-endian, then payload's bytes. A value its field cannot
    hold is a ValueError naming the field, raised before the file opens."""
    head = [magic]
    for name, fmt, value in fields:
        try:
            head.append(struct.pack("<" + fmt, value))
        except struct.error:
            raise ValueError(f"{path}: {name} {value!r} does not fit its {fmt!r} field") from None
    with open(path, "wb") as fh:
        fh.write(b"".join(head))
        fh.write(payload.tobytes())


def write_fseq(path: str, seq: FeatureSequence) -> None:
    """Layout: magic "FSEQ1"; T, D, label as unsigned 32-bit little-endian;
    then T*D 32-bit little-endian reals, row-major."""
    fields = [("T", "I", seq.T), ("D", "I", seq.dim), ("label", "I", seq.label)]
    write_binary(path, FSEQ_MAGIC, fields, np.ascontiguousarray(seq.frames, dtype="<f4"))


def read_fseq(path: str) -> FeatureSequence:
    """Inverse of write_fseq; values are widened to float64 in memory."""
    reader = BinaryReader(path, FSEQ_MAGIC)
    T, D, label = reader.count("T"), reader.count("D"), reader.take("I", "label")
    frames = reader.floats("<f4", T * D, "frame values").reshape(T, D)
    return FeatureSequence(frames=frames, label=label, id=os.path.basename(path))


def _int_field(text: str, where: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{where}: {what} {text!r} is not an integer") from None


def read_lines(path: str) -> list:
    """A UTF-8 text file's lines, split as text-mode readlines() splits them;
    a byte that is not UTF-8 is a ValueError naming the file and its offset."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return io.StringIO(data.decode("utf-8"), newline=None).readlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 at byte {exc.start}") from None


def load_manifest(path: str) -> Dataset:
    """Text manifest: a `classes N` header line, then one record per line as
    `relative-path label [fold]`. Blank lines and #-comments are skipped.
    Paths are resolved relative to the manifest's directory; loading
    preserves record order.
    """
    base = os.path.dirname(os.path.abspath(path))
    n_classes: Optional[int] = None
    sequences: list = []
    folds: list = []
    record_lines: list = []
    dim_seen: Optional[tuple] = None  # (D, line number that set it)
    for lineno, line in enumerate(read_lines(path), start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        parts = text.split()
        if n_classes is None:
            if len(parts) != 2 or parts[0] != "classes":
                raise ValueError(
                    f"{path}:{lineno}: expected a `classes N` header, got {text!r}"
                )
            n_classes = _int_field(parts[1], f"{path}:{lineno}", "class count")
            if n_classes < 1:
                raise ValueError(f"{path}:{lineno}: class count must be >= 1")
            continue
        if len(parts) not in (2, 3):
            raise ValueError(
                f"{path}:{lineno}: expected `path label [fold]`, got {text!r}"
            )
        rel, label_s = parts[0], parts[1]
        label = _int_field(label_s, f"{path}:{lineno}", "label")
        if not 0 <= label < n_classes:
            raise ValueError(
                f"{path}:{lineno}: label {label} out of range for classes={n_classes}"
            )
        fseq_path = os.path.join(base, rel)
        if not os.path.isfile(fseq_path):
            raise ValueError(f"{path}:{lineno}: missing file {rel!r}")
        seq = read_fseq(fseq_path)
        if seq.label != label:
            raise ValueError(
                f"{path}:{lineno}: manifest label {label} disagrees with the "
                f"label {seq.label} stored in {rel!r}"
            )
        if dim_seen is None:
            dim_seen = (seq.dim, lineno)
        elif seq.dim != dim_seen[0]:
            raise ValueError(
                f"{path}:{lineno}: feature dim {seq.dim} in {rel!r} conflicts "
                f"with dim {dim_seen[0]} first seen on line {dim_seen[1]}"
            )
        seq.id = rel
        sequences.append(seq)
        fold = _int_field(parts[2], f"{path}:{lineno}", "fold") if len(parts) == 3 else None
        if fold is not None and fold < 0:
            raise ValueError(f"{path}:{lineno}: fold must be >= 0, got {fold}")
        folds.append(fold)
        record_lines.append(lineno)
    if n_classes is None:
        raise ValueError(f"{path}: empty manifest (no `classes N` header)")
    have_folds = [f is not None for f in folds]
    if any(have_folds) and not all(have_folds):
        missing = record_lines[have_folds.index(False)]
        declared = record_lines[have_folds.index(True)]
        raise ValueError(
            f"{path}:{missing}: fold declared on some records but not all "
            f"(line {declared} has one, this record none)"
        )
    return Dataset(
        sequences=sequences,
        n_classes=n_classes,
        folds=folds if folds and all(have_folds) else None,
    )


def write_manifest(path: str, dataset: Dataset) -> None:
    """Write every sequence as an FSEQ file next to the manifest and emit the
    manifest itself. Convenience for the synthetic-dataset command."""
    base = os.path.dirname(os.path.abspath(path))
    os.makedirs(base, exist_ok=True)
    lines = [f"classes {dataset.n_classes}\n"]
    width = len(str(max(len(dataset) - 1, 0)))
    for idx, seq in enumerate(dataset.sequences):
        rel = f"{FSEQ_PREFIX}{idx:0{width}d}.fseq"
        write_fseq(os.path.join(base, rel), seq)
        fold = "" if dataset.folds is None else f" {dataset.folds[idx]}"
        lines.append(f"{rel} {seq.label}{fold}\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


@dataclass(frozen=True)
class SynthConfig:
    """Key-frame classification task: the class signal lives only inside
    signal_window; an optional distractor pushes a randomly chosen
    wrong-class direction into the final 3 frames, misleading any
    last-state-only readout."""

    classes: int = 4
    dim: int = 16
    length: int = 30
    signal_window: tuple = (10, 15)
    noise_sigma: float = 1.0
    distractor: bool = True
    distractor_gain: float = 1.0
    seed: int = 0
    n_per_class: int = 50

    def __post_init__(self):
        check_fields(self, {"classes": 2, "dim": 1, "length": 1, "n_per_class": 1,
                            "noise_sigma": 0, "distractor_gain": 0, "seed": 0})
        start, end = self.signal_window
        if not 0 <= start < end <= self.length:
            raise ValueError(
                f"signal_window must satisfy 0 <= start < end <= length, "
                f"got {self.signal_window} with length {self.length}"
            )


def class_directions(cfg: SynthConfig) -> np.ndarray:
    """One unit direction per class, drawn from the seed. When the feature
    dim allows it the directions are orthonormalized (Gram-Schmidt), so task
    difficulty is controlled by noise_sigma alone."""
    rng = np.random.default_rng([cfg.seed, 0])
    dirs = rng.standard_normal((cfg.classes, cfg.dim))
    if cfg.dim >= cfg.classes:
        for k in range(cfg.classes):
            for j in range(k):
                dirs[k] -= np.dot(dirs[k], dirs[j]) * dirs[j]
            dirs[k] /= np.linalg.norm(dirs[k])
    else:
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return dirs


def synth_keyframe_dataset(cfg: SynthConfig) -> Dataset:
    """Deterministic generator; exactly n_per_class sequences per class.

    Frames are Gaussian noise everywhere; the class direction is added on
    [start, end); with the distractor on, a uniformly drawn wrong class's
    direction is added on the final 3 frames. The wrong class must be
    random per sequence: a fixed choice (say, the next class) would make
    the tail a bijective second signal instead of a misleading one.
    Values are rounded through 32-bit reals so a trip through the file
    format is bitwise exact.
    """
    rng = np.random.default_rng([cfg.seed, 1])  # distinct stream from the directions
    dirs = class_directions(cfg)
    start, end = cfg.signal_window
    tail = max(0, cfg.length - 3)
    sequences = []
    for c in range(cfg.classes):
        for j in range(cfg.n_per_class):
            frames = rng.standard_normal((cfg.length, cfg.dim)) * cfg.noise_sigma
            frames[start:end] += dirs[c]
            if cfg.distractor:
                wrong = int(rng.integers(cfg.classes - 1))
                wrong += int(wrong >= c)
                frames[tail:] += cfg.distractor_gain * dirs[wrong]
            frames = frames.astype(np.float32).astype(np.float64)
            sequences.append(
                FeatureSequence(frames=frames, label=c, id=f"synth-c{c}-{j}")
            )
    return Dataset(sequences=sequences, n_classes=cfg.classes)


def synth_train_test(cfg: SynthConfig, test_per_class: int) -> tuple:
    """One corpus split per class into (train, test).

    Both halves come from a single generator run, so they share the class
    directions; separately seeded datasets would have unrelated geometry
    and no classifier could carry over.
    """
    if test_per_class < 1:
        raise ValueError(f"test_per_class must be >= 1, got {test_per_class}")
    total = dataclasses.replace(cfg, n_per_class=cfg.n_per_class + test_per_class)
    corpus = synth_keyframe_dataset(total)
    train_seqs, test_seqs = [], []
    taken = [0] * cfg.classes
    for seq in corpus.sequences:
        if taken[seq.label] < cfg.n_per_class:
            train_seqs.append(seq)
        else:
            test_seqs.append(seq)
        taken[seq.label] += 1
    return (
        Dataset(sequences=train_seqs, n_classes=cfg.classes),
        Dataset(sequences=test_seqs, n_classes=cfg.classes),
    )
