import os
import re

import numpy as np
import pytest

from histlstm.dataio import (
    Dataset,
    FeatureSequence,
    SynthConfig,
    class_directions,
    load_manifest,
    read_fseq,
    synth_keyframe_dataset,
    synth_train_test,
    write_fseq,
    write_manifest,
)
from histlstm.numerics import ShapeError


def f32_grid(arr):
    return np.asarray(arr, dtype=np.float64).astype(np.float32).astype(np.float64)


def rand_seq(rng, T=None, D=None, label=None):
    T = T if T is not None else int(rng.integers(1, 9))
    D = D if D is not None else int(rng.integers(1, 7))
    label = label if label is not None else int(rng.integers(0, 5))
    frames = f32_grid(rng.standard_normal((T, D)) * 10.0 ** rng.integers(-3, 4))
    return FeatureSequence(frames=frames, label=label, id=f"r{T}x{D}")


class TestFeatureSequence:
    def test_validation(self):
        with pytest.raises(ShapeError):
            FeatureSequence(frames=np.zeros(5), label=0)
        with pytest.raises(ShapeError):
            FeatureSequence(frames=np.zeros((0, 3)), label=0)
        with pytest.raises(ValueError):
            FeatureSequence(frames=np.zeros((2, 2)), label=-1)

    def test_equality_ignores_id(self):
        a = FeatureSequence(frames=np.ones((2, 2)), label=1, id="a")
        b = FeatureSequence(frames=np.ones((2, 2)), label=1, id="b")
        c = FeatureSequence(frames=np.ones((2, 2)) + 1e-9, label=1, id="a")
        assert a == b and a != c
        assert a != "a" and a.__eq__(a.frames) is NotImplemented

    def test_dataset_validation(self):
        seqs = [FeatureSequence(frames=np.zeros((2, 3)), label=0),
                FeatureSequence(frames=np.zeros((2, 4)), label=0)]
        with pytest.raises(ShapeError):
            Dataset(sequences=seqs, n_classes=2)
        with pytest.raises(ValueError):
            Dataset(sequences=[seqs[0]], n_classes=0)
        with pytest.raises(ValueError):
            Dataset(sequences=[FeatureSequence(np.zeros((1, 1)), 3)], n_classes=2)
        with pytest.raises(ValueError):
            Dataset(sequences=[seqs[0]], n_classes=1, folds=[0, 1])

    def test_dataset_accessors(self):
        ds = Dataset(sequences=[FeatureSequence(np.zeros((2, 3)), 1),
                                FeatureSequence(np.ones((4, 3)), 0)],
                     n_classes=2)
        assert len(ds) == 2 and ds.dim == 3
        assert np.array_equal(ds.labels(), [1, 0])
        assert [s.label for s in ds] == [1, 0]
        with pytest.raises(ValueError, match="^empty dataset has no feature dim$"):
            Dataset(sequences=[], n_classes=2).dim


class TestFseqFormat:
    def test_round_trip_random(self, tmp_path):
        rng = np.random.default_rng(0)
        for i in range(200):
            seq = rand_seq(rng)
            path = os.path.join(tmp_path, f"s{i}.fseq")
            write_fseq(path, seq)
            back = read_fseq(path)
            assert back == seq
            assert np.array_equal(back.frames, seq.frames)
            assert back.frames.dtype == np.float64

    def test_round_trip_extreme_values(self, tmp_path):
        frames = f32_grid([[1e30, -1e30], [1e-30, -0.0], [3.4e38, -3.4e38]])
        seq = FeatureSequence(frames=frames, label=2)
        path = os.path.join(tmp_path, "x.fseq")
        write_fseq(path, seq)
        assert np.array_equal(read_fseq(path).frames, frames)

    def test_double_trip_idempotent(self, tmp_path):
        # arbitrary 64-bit values lose precision once, then are stable
        rng = np.random.default_rng(1)
        seq = FeatureSequence(frames=rng.standard_normal((3, 3)), label=0)
        p1, p2 = os.path.join(tmp_path, "a.fseq"), os.path.join(tmp_path, "b.fseq")
        write_fseq(p1, seq)
        once = read_fseq(p1)
        write_fseq(p2, once)
        assert np.array_equal(read_fseq(p2).frames, once.frames)

    def test_minimal_file_is_21_bytes(self, tmp_path):
        # 5-byte magic + three u32 header fields + one 32-bit value
        path = os.path.join(tmp_path, "m.fseq")
        write_fseq(path, FeatureSequence(frames=[[0.5]], label=0))
        assert os.path.getsize(path) == 21
        back = read_fseq(path)
        assert back.T == 1 and back.dim == 1 and back.frames[0, 0] == 0.5

    def test_bad_magic_offset_zero(self, tmp_path):
        path = os.path.join(tmp_path, "bad.fseq")
        with open(path, "wb") as fh:
            fh.write(b"XXXX" + b"\x00" * 20)
        with pytest.raises(ValueError, match=f"^{re.escape(path)}: byte 0: bad magic "
                                             r"b'XXXX\\x00', expected b'FSEQ1'$"):
            read_fseq(path)

    def test_truncated_header(self, tmp_path):
        path = os.path.join(tmp_path, "short.fseq")
        with open(path, "wb") as fh:
            fh.write(b"FSEQ1" + (2).to_bytes(4, "little"))  # T, then the file ends
        with pytest.raises(ValueError, match=f"^{re.escape(path)}: byte 9: truncated: "
                                             "D would end at byte 13$"):
            read_fseq(path)

    def test_truncated_body_names_offset(self, tmp_path):
        path = os.path.join(tmp_path, "trunc.fseq")
        write_fseq(path, FeatureSequence(frames=np.ones((2, 3)), label=1))
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-5])
        # 17 header bytes and 24 of frames, cut to 36
        with pytest.raises(ValueError, match=f"^{re.escape(path)}: byte 36: truncated: the 6 "
                                             "frame values the header declares would end at byte 41$"):
            read_fseq(path)

    def test_trailing_bytes(self, tmp_path):
        path = os.path.join(tmp_path, "extra.fseq")
        write_fseq(path, FeatureSequence(frames=np.ones((2, 2)), label=0))
        with open(path, "ab") as fh:
            fh.write(b"\x01\x02")
        with pytest.raises(ValueError, match="trailing"):
            read_fseq(path)

    def test_zero_dims_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "zero.fseq")
        with open(path, "wb") as fh:
            fh.write(b"FSEQ1")
            fh.write((0).to_bytes(4, "little") * 2 + (0).to_bytes(4, "little"))
        with pytest.raises(ValueError, match=f"^{re.escape(path)}: byte 5: T must be >= 1, got 0$"):
            read_fseq(path)

    def test_label_beyond_u32_is_refused_before_the_file_opens(self, tmp_path):
        path = os.path.join(tmp_path, "big.fseq")
        seq = FeatureSequence(frames=np.ones((1, 1)), label=2**32)
        with pytest.raises(ValueError, match=f"^{re.escape(path)}: label 4294967296 does not "
                                             "fit its 'I' field$"):
            write_fseq(path, seq)
        assert not os.path.exists(path)


class TestManifest:
    def write_corpus(self, tmp_path, records, header="classes 3"):
        rng = np.random.default_rng(2)
        lines = [header] if header else []
        for name, label, *fold in records:
            write_fseq(os.path.join(tmp_path, name),
                       rand_seq(rng, T=3, D=4, label=label))
            lines.append(f"{name} {label}" + (f" {fold[0]}" if fold else ""))
        path = os.path.join(tmp_path, "manifest.txt")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        return path

    def test_three_valid_lines(self, tmp_path):
        path = self.write_corpus(tmp_path, [("a.fseq", 0), ("b.fseq", 1),
                                            ("c.fseq", 2)])
        ds = load_manifest(path)
        assert len(ds) == 3 and ds.n_classes == 3
        assert [s.id for s in ds] == ["a.fseq", "b.fseq", "c.fseq"]
        assert ds.folds is None

    def test_order_preserving(self, tmp_path):
        names = [(f"s{i}.fseq", i % 3) for i in (4, 0, 2, 3, 1)]
        path = self.write_corpus(tmp_path, names)
        ds = load_manifest(path)
        assert [s.id for s in ds] == [n for n, _ in names]

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = self.write_corpus(tmp_path, [("a.fseq", 1)])
        with open(path) as fh:
            body = fh.read()
        with open(path, "w") as fh:
            fh.write("# corpus\n\nclasses 3  # three-way\n\n" +
                     body.split("\n", 1)[1] + "# done\n")
        assert len(load_manifest(path)) == 1

    def test_label_equal_to_class_count(self, tmp_path):
        rng = np.random.default_rng(3)
        write_fseq(os.path.join(tmp_path, "a.fseq"),
                   rand_seq(rng, T=2, D=2, label=12))
        path = os.path.join(tmp_path, "manifest.txt")
        with open(path, "w") as fh:
            fh.write("classes 12\na.fseq 12\n")
        with pytest.raises(ValueError, match=r"manifest\.txt:2: label 12 out of range"):
            load_manifest(path)

    def test_non_integer_label(self, tmp_path):
        path = self.write_corpus(tmp_path, [("a.fseq", 0)])
        with open(path, "a") as fh:
            fh.write("a.fseq one\n")
        with pytest.raises(ValueError, match=":3: label 'one'"):
            load_manifest(path)

    def test_non_integer_class_count(self, tmp_path):
        path = self.write_corpus(tmp_path, [("a.fseq", 0)], header="classes abc")
        with pytest.raises(ValueError, match=r"manifest\.txt:1: class count 'abc'"):
            load_manifest(path)

    def test_zero_class_count(self, tmp_path):
        path = self.write_corpus(tmp_path, [("a.fseq", 0)], header="classes 0")
        with pytest.raises(ValueError, match=r"manifest\.txt:1: class count must be >= 1$"):
            load_manifest(path)

    def test_non_integer_fold(self, tmp_path):
        path = self.write_corpus(tmp_path, [("a.fseq", 0, 0), ("b.fseq", 1, "x")])
        with pytest.raises(ValueError, match=r"manifest\.txt:3: fold 'x'"):
            load_manifest(path)

    def test_negative_fold_names_line(self, tmp_path):
        path = self.write_corpus(tmp_path, [("a.fseq", 0, 0), ("b.fseq", 1, -3)])
        with pytest.raises(ValueError, match=r"manifest\.txt:3: fold must be >= 0, got -3$"):
            load_manifest(path)

    def test_missing_file_names_line(self, tmp_path):
        path = self.write_corpus(tmp_path, [("a.fseq", 0)])
        with open(path, "a") as fh:
            fh.write("ghost.fseq 1\n")
        with pytest.raises(ValueError, match=":3: missing file 'ghost.fseq'"):
            load_manifest(path)

    def test_mixed_dims_names_both(self, tmp_path):
        rng = np.random.default_rng(4)
        write_fseq(os.path.join(tmp_path, "a.fseq"), rand_seq(rng, T=2, D=4, label=0))
        write_fseq(os.path.join(tmp_path, "b.fseq"), rand_seq(rng, T=2, D=5, label=1))
        path = os.path.join(tmp_path, "manifest.txt")
        with open(path, "w") as fh:
            fh.write("classes 3\na.fseq 0\nb.fseq 1\n")
        with pytest.raises(ValueError, match=r"dim 5 .* conflicts\s+with dim 4 first seen on line 2"):
            load_manifest(path)

    def test_embedded_label_mismatch(self, tmp_path):
        rng = np.random.default_rng(5)
        write_fseq(os.path.join(tmp_path, "a.fseq"), rand_seq(rng, T=2, D=2, label=2))
        path = os.path.join(tmp_path, "manifest.txt")
        with open(path, "w") as fh:
            fh.write("classes 3\na.fseq 1\n")
        with pytest.raises(ValueError, match="disagrees"):
            load_manifest(path)

    def test_partial_folds_rejected(self, tmp_path):
        path = self.write_corpus(tmp_path, [("a.fseq", 0, 0), ("b.fseq", 1)])
        with pytest.raises(ValueError, match="fold declared on some"):
            load_manifest(path)

    def test_partial_folds_name_the_line(self, tmp_path):
        # a comment line between records: the record number is not the line
        path = self.write_corpus(tmp_path, [("a.fseq", 0, 0), ("b.fseq", 1), ("c.fseq", 2, 1)])
        with open(path) as fh:
            lines = fh.read().split("\n", 2)
        with open(path, "w") as fh:
            fh.write("\n".join(lines[:2] + ["# b has no fold", lines[2]]))
        with pytest.raises(ValueError, match=r"manifest\.txt:4: fold declared on some records "
                                             r"but not all \(line 2 has one, this record none\)$"):
            load_manifest(path)

    def test_folds_loaded(self, tmp_path):
        path = self.write_corpus(tmp_path, [("a.fseq", 0, 1), ("b.fseq", 1, 0)])
        ds = load_manifest(path)
        assert ds.folds == [1, 0]

    def test_missing_header(self, tmp_path):
        path = self.write_corpus(tmp_path, [("a.fseq", 0)], header=None)
        with pytest.raises(ValueError, match="classes N"):
            load_manifest(path)

    def test_empty_manifest(self, tmp_path):
        path = os.path.join(tmp_path, "manifest.txt")
        open(path, "w").write("# nothing here\n")
        with pytest.raises(ValueError, match="empty manifest"):
            load_manifest(path)

    def test_write_manifest_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        seqs = [rand_seq(rng, T=3, D=4, label=i % 2) for i in range(7)]
        ds = Dataset(sequences=seqs, n_classes=2,
                     folds=[i % 3 for i in range(7)])
        path = os.path.join(tmp_path, "manifest.txt")
        write_manifest(path, ds)
        back = load_manifest(path)
        assert len(back) == 7 and back.n_classes == 2
        assert back.folds == ds.folds
        for mine, theirs in zip(ds.sequences, back.sequences):
            assert mine == theirs

    def test_manifest_relative_subdir(self, tmp_path):
        rng = np.random.default_rng(7)
        os.makedirs(os.path.join(tmp_path, "sub"))
        write_fseq(os.path.join(tmp_path, "sub", "a.fseq"),
                   rand_seq(rng, T=2, D=2, label=0))
        path = os.path.join(tmp_path, "manifest.txt")
        with open(path, "w") as fh:
            fh.write("classes 1\nsub/a.fseq 0\n")
        assert load_manifest(path).sequences[0].id == "sub/a.fseq"


class TestSynth:
    def test_deterministic_and_balanced(self):
        cfg = SynthConfig(classes=3, dim=5, length=8, signal_window=(2, 5),
                          noise_sigma=0.7, seed=11, n_per_class=6)
        a = synth_keyframe_dataset(cfg)
        b = synth_keyframe_dataset(cfg)
        assert len(a) == 18
        counts = np.bincount(a.labels(), minlength=3)
        assert np.array_equal(counts, [6, 6, 6])
        for sa, sb in zip(a.sequences, b.sequences):
            assert sa == sb

    def test_zero_noise_signal_identical_within_class(self):
        cfg = SynthConfig(classes=3, dim=6, length=7, signal_window=(2, 5),
                          noise_sigma=0.0, distractor=False, seed=3,
                          n_per_class=4)
        ds = synth_keyframe_dataset(cfg)
        for c in range(3):
            members = [s for s in ds if s.label == c]
            ref = members[0].frames[2:5]
            assert np.any(ref != 0.0)
            for s in members[1:]:
                assert np.array_equal(s.frames[2:5], ref)
            assert np.array_equal(members[0].frames[:2], np.zeros((2, 6)))

    def test_distractor_gain_scales_tail(self):
        cfg = SynthConfig(classes=4, dim=8, length=10, signal_window=(2, 5),
                          noise_sigma=0.0, distractor=True, distractor_gain=2.5,
                          seed=4, n_per_class=12)
        ds = synth_keyframe_dataset(cfg)
        dirs = class_directions(cfg)
        candidates = [f32_grid(2.5 * d) for d in dirs]
        seen = set()
        for s in ds:
            matches = [w for w, tail in enumerate(candidates)
                       if all(np.array_equal(row, tail) for row in s.frames[7:])]
            # all 3 tail rows carry one wrong class, never the true one
            assert len(matches) == 1 and matches[0] != s.label
            seen.add((s.label, matches[0]))
        # the wrong class varies per sequence instead of pairing off labels
        assert len(seen) > 4

    def test_values_on_f32_grid(self):
        cfg = SynthConfig(classes=2, dim=4, length=5, signal_window=(1, 3),
                          seed=5, n_per_class=3)
        for s in synth_keyframe_dataset(cfg):
            assert np.array_equal(s.frames, f32_grid(s.frames))

    def test_directions_orthonormal_when_roomy(self):
        cfg = SynthConfig(classes=4, dim=16, length=5, signal_window=(1, 3), seed=6)
        dirs = class_directions(cfg)
        assert np.allclose(dirs @ dirs.T, np.eye(4), atol=1e-10)

    def test_directions_unit_norm_when_crowded(self):
        cfg = SynthConfig(classes=5, dim=3, length=5, signal_window=(1, 3), seed=7)
        dirs = class_directions(cfg)
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(classes=1)
        with pytest.raises(ValueError):
            SynthConfig(signal_window=(5, 5))
        with pytest.raises(ValueError):
            SynthConfig(signal_window=(2, 40), length=30)
        with pytest.raises(ValueError):
            SynthConfig(noise_sigma=-0.1)
        with pytest.raises(ValueError):
            SynthConfig(distractor_gain=-1.0)
        with pytest.raises(ValueError):
            SynthConfig(n_per_class=0)

    def test_fixed_probe_window_average_beats_last_frame(self):
        # the distractor systematically misleads a last-frame readout while
        # the mean over the signal window separates the classes cleanly
        cfg = SynthConfig(classes=4, dim=16, length=30, signal_window=(10, 15),
                          noise_sigma=0.8, distractor=True, seed=21,
                          n_per_class=50)
        ds = synth_keyframe_dataset(cfg)
        dirs = class_directions(cfg)
        win_hits = last_hits = 0
        for s in ds:
            win = s.frames[10:15].mean(axis=0)
            win_hits += int(np.argmax(dirs @ win)) == s.label
            last_hits += int(np.argmax(dirs @ s.frames[-1])) == s.label
        n = len(ds)
        assert win_hits / n > 0.9
        assert last_hits / n < 0.3  # worse than the 0.25 chance is expected

    def test_train_test_split_shares_geometry(self):
        cfg = SynthConfig(classes=3, dim=9, length=10, signal_window=(3, 7),
                          noise_sigma=0.5, seed=8, n_per_class=20)
        train, test = synth_train_test(cfg, 10)
        assert len(train) == 60 and len(test) == 30
        assert np.array_equal(np.bincount(train.labels()), [20, 20, 20])
        assert np.array_equal(np.bincount(test.labels()), [10, 10, 10])
        ids = {s.id for s in train} | {s.id for s in test}
        assert len(ids) == 90  # disjoint halves of one corpus
        dirs = class_directions(cfg)
        for part in (train, test):
            hits = sum(
                int(np.argmax(dirs @ s.frames[3:7].mean(axis=0))) == s.label
                for s in part)
            assert hits / len(part) > 0.9

    def test_train_test_split_validation(self):
        cfg = SynthConfig(classes=2, dim=4, length=6, signal_window=(1, 4))
        with pytest.raises(ValueError):
            synth_train_test(cfg, 0)
