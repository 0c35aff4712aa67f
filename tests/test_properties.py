"""Property tests of the file parsers: every input either loads or fails
with a one-line error that starts with the file's path (a ValueError, or
the CLI's UsageError for a config file), and through the CLI a bad file
ends in its exit status and one error line, never a traceback."""

import contextlib
import io
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from histlstm.cli import UsageError, parse_config_file, run
from histlstm.dataio import FSEQ_MAGIC, FeatureSequence, load_manifest, read_fseq, write_fseq
from histlstm.network import load_checkpoint, save_checkpoint

from test_network import tiny_net


@pytest.fixture(scope="module")
def fuzz_checkpoints(tmp_path_factory):
    """A path to write mutated checkpoints to, and a saved 1- and 2-layer net."""
    base = tmp_path_factory.mktemp("fuzz")
    blobs = []
    for units in ((3,), (3, 2)):
        path = str(base / "net.ckpt")
        save_checkpoint(tiny_net(seed=46, units=units, dropout=0.25), path)
        blobs.append(open(path, "rb").read())
    return str(base / "mutated.ckpt"), blobs


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_mutated_checkpoint_loads_or_names_file(fuzz_checkpoints, data):
    """Any one header byte (magic through dropout_p) replaced, or the file cut
    at any length: the load succeeds or raises a one-line ValueError that
    starts with the path and the byte."""
    path, blobs = fuzz_checkpoints
    blob = bytearray(data.draw(st.sampled_from(blobs), label="net"))
    # magic, version, classes, input_dim, layer count (22 bytes), the units,
    # 6 tag bytes (the third is use_historical), tau and dropout_p (18 bytes)
    n_layers = struct.unpack_from("<I", blob, 18)[0]
    offset = None
    if data.draw(st.booleans(), label="replace a header byte"):
        offset = data.draw(st.integers(0, 40 + 4 * n_layers - 1), label="offset")
        blob[offset] = data.draw(st.integers(0, 255), label="value")
    else:
        del blob[data.draw(st.integers(0, len(blob)), label="length"):]
    with open(path, "wb") as fh:
        fh.write(blob)
    try:
        load_checkpoint(path)
    except ValueError as exc:
        message = str(exc)
        assert re.match(rf"{re.escape(path)}: byte \d+: ", message) and "\n" not in message
    else:
        if offset == 22 + 4 * n_layers + 2:
            assert blob[offset] in (0, 1)


@pytest.fixture(scope="module")
def fuzz_fseqs(tmp_path_factory):
    """A path to write mutated FSEQ files to, and two saved sequences."""
    base = tmp_path_factory.mktemp("fuzz-fseq")
    rng = np.random.default_rng(47)
    blobs = []
    for T, D, label in ((3, 2, 1), (1, 5, 0)):
        path = str(base / "seq.fseq")
        write_fseq(path, FeatureSequence(frames=rng.standard_normal((T, D)), label=label))
        blobs.append(open(path, "rb").read())
    return str(base / "mutated.fseq"), blobs


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_mutated_fseq_loads_or_names_file(fuzz_fseqs, data):
    """Any one header byte (magic, T, D, label) replaced, or the file cut at
    any length: the read succeeds or raises a one-line ValueError that starts
    with the path and the byte."""
    path, blobs = fuzz_fseqs
    blob = bytearray(data.draw(st.sampled_from(blobs), label="sequence"))
    if data.draw(st.booleans(), label="replace a header byte"):
        offset = data.draw(st.integers(0, len(FSEQ_MAGIC) + 12 - 1), label="offset")
        blob[offset] = data.draw(st.integers(0, 255), label="value")
    else:
        del blob[data.draw(st.integers(0, len(blob)), label="length"):]
    with open(path, "wb") as fh:
        fh.write(blob)
    try:
        read_fseq(path)
    except ValueError as exc:
        message = str(exc)
        assert re.match(rf"{re.escape(path)}: byte \d+: ", message) and "\n" not in message


def _mutate(data, blob: bytes) -> bytes:
    """blob with one byte replaced by any value, or cut at any length."""
    blob = bytearray(blob)
    if blob and data.draw(st.booleans(), label="replace a byte"):
        offset = data.draw(st.integers(0, len(blob) - 1), label="offset")
        blob[offset] = data.draw(st.integers(0, 255), label="value")
    else:
        del blob[data.draw(st.integers(0, len(blob)), label="length"):]
    return bytes(blob)


def _cli(argv: list) -> tuple:
    """Exit status and stderr of one in-process CLI run."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, err.getvalue()


MANIFESTS = (
    b"# three sequences\nclasses 3\n\nseq0.fseq 0\nseq1.fseq 1  # second\nseq2.fseq 2\n",
    b"classes 3\nseq0.fseq 0 1\n# fold 0\nseq1.fseq 1 0\nseq2.fseq 2 0\n",
)


@pytest.fixture(scope="module")
def fuzz_manifests(tmp_path_factory):
    """A directory of three FSEQ files with a 3-class checkpoint that fits
    them, and the path mutated manifests are written to."""
    base = tmp_path_factory.mktemp("fuzz-manifest")
    rng = np.random.default_rng(48)
    for label in range(3):
        write_fseq(str(base / f"seq{label}.fseq"),
                   FeatureSequence(frames=rng.standard_normal((3, 2)), label=label))
    ckpt = str(base / "net.ckpt")
    save_checkpoint(tiny_net(seed=49, units=(2,)), ckpt)
    return str(base / "mutated.txt"), ckpt, str(base / "out")


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_mutated_manifest_loads_or_names_file_and_line(fuzz_manifests, data):
    """Any one byte replaced, or the manifest cut at any length: the load
    succeeds or raises a one-line ValueError that starts with the path and
    names the line (the byte, for text that is not UTF-8)."""
    path, _, _ = fuzz_manifests
    with open(path, "wb") as fh:
        fh.write(_mutate(data, data.draw(st.sampled_from(MANIFESTS), label="manifest")))
    try:
        load_manifest(path)
    except ValueError as exc:
        message = str(exc)
        assert "\n" not in message
        assert re.match(rf"{re.escape(path)}:(\d+: | not UTF-8 at byte \d+$| empty manifest)",
                        message), message


@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_mutated_manifest_through_cli_exits_0_or_1(fuzz_manifests, data):
    """`hlstm eval` on a mutated manifest exits 0, or 1 with one error line."""
    path, ckpt, out = fuzz_manifests
    with open(path, "wb") as fh:
        fh.write(_mutate(data, data.draw(st.sampled_from(MANIFESTS), label="manifest")))
    code, err = _cli(["eval", "--checkpoint", ckpt, "--manifest", path, "--out", out])
    assert (code, err) == (0, "") or (code == 1 and re.fullmatch(r"error: [^\n]*\n", err)), err


# A tiny synthetic run: one replaced digit leaves every run small.
CONFIG = (b"# tiny run\nseed=3\nsynth=true\nsynth_classes=2\nsynth_dim=2\n"
          b"synth_length=4\nsynth_signal_start=1\nsynth_signal_end=3\n"
          b"synth_n_per_class=2\nlayers=1\nunits=2\nepochs=1  # one pass\n"
          b"batch_size=4\ndropout_p=0.0\nlr0=0.01\nalpha_policy=clamped\n")


@pytest.fixture(scope="module")
def fuzz_config(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz-config")
    return str(base / "mutated.cfg"), str(base / "out")


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_mutated_config_parses_or_names_file_and_line(fuzz_config, data):
    """Any one byte replaced, or the config cut at any length: it parses or
    raises a one-line UsageError that starts with the path and names the
    line (the byte, for text that is not UTF-8)."""
    path, _ = fuzz_config
    with open(path, "wb") as fh:
        fh.write(_mutate(data, CONFIG))
    try:
        parse_config_file(path)
    except UsageError as exc:
        message = str(exc)
        assert "\n" not in message
        assert re.match(rf"{re.escape(path)}:(\d+: | not UTF-8 at byte \d+$)", message), message


@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_mutated_config_through_cli_exits_2_without_traceback(fuzz_config, data):
    """`hlstm train` with a mutated config: a config the parser rejects
    exits 2 with one error line; any other run ends in 0, 1 or 2, and a
    failure prints one error line."""
    path, out = fuzz_config
    with open(path, "wb") as fh:
        fh.write(_mutate(data, CONFIG))
    try:
        parse_config_file(path)
        parsed = True
    except UsageError:
        parsed = False
    code, err = _cli(["train", "--config", path, "--out", out])
    assert parsed or code == 2, (code, err)
    assert (code, err) == (0, "") or (code in (1, 2) and re.fullmatch(r"error: [^\n]*\n", err)), err
