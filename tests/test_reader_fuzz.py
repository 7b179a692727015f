"""Damaged input files raise DataError and nothing else.

Each reader gets a valid file, perhaps cut short at a random length, with
up to four random bits flipped. The reader may accept what is left; any
failure must be a DataError, which the CLI maps to exit code 2.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calad import reports
from calad.calibration import HeadParams, load_calibrator, save_calibrator
from calad.cli import _read_score_csv, _read_seed_rows
from calad.errors import DataError
from calad.scorer import MlpSpec, init_scorer, load_scorer, save_scorer
from calad.tensorio import load_tensor, read_pgm, save_tensor, write_pgm


def _calt(path):
    save_tensor(path, np.linspace(-1.0, 1.0, 2 * 3 * 4).reshape(2, 3, 4))


def _pgm(path):
    write_pgm(path, np.eye(5, 6))


def _scores(path):
    path.write_text("score,label\n0.25,0\n-1.5,1\n3e2,0\n0.125,1\n")


def _seed_rows(path):
    rows = [{"seed": seed, "class_id": "tiles", "method": method,
             **{column: 0.5 + 0.01 * seed for column in
                reports.CSV_COLUMNS[2:] + reports.CSV_LOCALIZATION}}
            for seed in (0, 1) for method in ("Fully Trained", "Platt OE")]
    reports.write_rows_csv(path, rows)


def _scorer(path):
    # the .json manifest and the .calt vector next to it; `path` names the
    # one the test damages
    save_scorer(path, init_scorer(MlpSpec((3, 4, 2)), 0),
                {"seed": 0, "epoch": 1, "loss": "hsc"})


def _calibrator(path):
    save_calibrator(path, HeadParams(np.array([0.5, -1.25]), 0.125), 0, "d" * 16)


READERS = {
    "calt": (_calt, load_tensor),
    "pgm": (_pgm, read_pgm),
    "score-csv": (_scores, _read_score_csv),
    "per-seed-csv": (_seed_rows, _read_seed_rows),
    "scorer.json": (_scorer, load_scorer),
    "scorer.calt": (_scorer, load_scorer),
    "calibrator": (_calibrator, load_calibrator),
}


@st.composite
def damage(draw, valid: bytes) -> bytes:
    """valid, perhaps cut at a random length, with up to four bits flipped,
    half of them in the first 32 bytes, where the headers are."""
    out = bytearray(valid)
    if draw(st.booleans()):
        del out[draw(st.integers(0, len(valid))):]
    if out:
        position = st.one_of(st.integers(0, min(len(out), 32) - 1),
                             st.integers(0, len(out) - 1))
        for pos, bit in draw(st.lists(st.tuples(position, st.integers(0, 7)),
                                      max_size=4)):
            out[pos] ^= 1 << bit
    return bytes(out)


@pytest.mark.parametrize("kind", READERS)
def test_damaged_file_raises_only_data_error(tmp_path, kind):
    write, read = READERS[kind]
    path = tmp_path / f"input.{kind}"
    write(path)
    read(path)  # the undamaged file reads
    valid = path.read_bytes()

    @given(damage(valid))
    @settings(max_examples=300, deadline=None)
    def check(data):
        path.write_bytes(data)
        try:
            read(path)
        except DataError:
            pass

    check()


@pytest.mark.parametrize("kind", READERS)
@pytest.mark.parametrize("defect", ["missing", "directory"])
def test_unreadable_file_is_a_data_error_naming_it(tmp_path, kind, defect):
    """A missing file, or a directory in its place, is a DataError naming it."""
    write, read = READERS[kind]
    path = tmp_path / f"input.{kind}"
    write(path)
    path.unlink()
    if defect == "directory":
        path.mkdir()
    with pytest.raises(DataError, match=f"cannot read .*{path.name}"):
        read(path)
