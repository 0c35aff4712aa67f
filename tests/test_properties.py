"""Property tests of the file parsers: every input either loads or fails
with a one-line ValueError that starts with the file's path."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from histlstm.dataio import FSEQ_MAGIC, FeatureSequence, read_fseq, write_fseq
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
    starts with the path."""
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
        assert message.startswith(f"{path}: ") and "\n" not in message
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
    with the path."""
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
        assert message.startswith(f"{path}: ") and "\n" not in message
