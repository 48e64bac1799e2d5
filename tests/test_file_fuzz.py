"""Corrupted NISM and NISD files: a reader either loads one or raises a
FileFormatError subclass, never anything else."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nisaclab.channel import ChannelConfig
from nisaclab.dataset import generate_dataset, load_dataset, save_dataset
from nisaclab.errors import FileFormatError
from nisaclab.snn import init_model, load_model, save_model

# (offset, struct format) of the header fields past magic and version
HEADER_FIELDS = {
    "nism": [(8, "<I"), (12, "<I")],  # H, input width
    "nisd": [(8, "<I"), (12, "<I"), (16, "<I"), (20, "<d"), (28, "<Q")],  # n, L, L_b, snr_db, seed
}
LOADERS = {"nism": load_model, "nisd": load_dataset}


def _field_values(fmt: str):
    if fmt == "<d":
        return st.floats(allow_nan=True, allow_infinity=True)
    top = 2 ** (8 * struct.calcsize(fmt)) - 1
    return st.one_of(st.sampled_from([0, 1, 2, 2**31, top]), st.integers(0, top))


@st.composite
def corrupted(draw, raw: bytes, fields):
    """Up to three truncations, byte flips, header-field rewrites or appends."""
    data = bytearray(raw)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["truncate", "flip", "field", "append"]))
        if kind == "truncate":
            del data[draw(st.integers(0, len(data))):]
        elif kind == "flip" and data:
            data[draw(st.integers(0, len(data) - 1))] ^= draw(st.integers(1, 255))
        elif kind == "field":
            offset, fmt = draw(st.sampled_from(fields))
            if offset + struct.calcsize(fmt) <= len(data):
                struct.pack_into(fmt, data, offset, draw(_field_values(fmt)))
        elif kind == "append":
            data += draw(st.binary(min_size=1, max_size=64))
    return bytes(data)


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    model, data = root / "m.nism", root / "d.nisd"
    save_model(init_model(2, 1, np.random.default_rng(0)), model)
    save_dataset(generate_dataset(ChannelConfig(snr_db=10.0), L=3, L_b=1, n=2, master_seed=0), data)
    return {"nism": model.read_bytes(), "nisd": data.read_bytes(), "root": root}


def _load_corrupted(saved, fmt, data):
    path = saved["root"] / f"corrupt.{fmt}"
    path.write_bytes(data.draw(corrupted(saved[fmt], HEADER_FIELDS[fmt])))
    try:
        LOADERS[fmt](path)
    except FileFormatError:
        pass


@pytest.mark.parametrize("fmt", ["nism", "nisd"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_corrupted_file_loads_or_raises_format_error(saved, fmt, data):
    _load_corrupted(saved, fmt, data)


@pytest.mark.parametrize("fmt", ["nism", "nisd"])
@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_fixed_corrupted_files_load_or_raise_format_error(saved, fmt, data):
    """The same check on a fixed sequence of corrupted files, so a reader
    fault among them fails every run in every checkout, not only the runs
    whose random draws reach it."""
    _load_corrupted(saved, fmt, data)


@pytest.mark.parametrize("fmt", ["nism", "nisd"])
def test_untouched_file_loads(saved, fmt):
    path = saved["root"] / f"clean.{fmt}"
    path.write_bytes(saved[fmt])
    LOADERS[fmt](path)
