"""Property test of the CLI's exit-code table: generated bad flags, bad
config-file values and malformed data files end in exactly the documented
code (1 config error, 2 data error, 3 numerical failure), with an
``error:`` line and no traceback."""

import contextlib
import io
import json
import math
import os
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from calad.cli import main as cli_main
from calad.tensorio import save_tensor

CONFIG, DATA, NUMERICAL = 1, 2, 3

RUN = ["run", "--normal", "builtin:gauss2d", "--seeds", "0", "--epochs", "1"]

negative = st.integers(-10**6, -1)
not_positive = st.integers(-10**6, 0)
bad_real = st.floats(max_value=0, exclude_max=True) | st.sampled_from(
    [math.nan, math.inf, -math.inf])
outside_unit = (st.floats(max_value=0.0) | st.floats(min_value=1.0)
                | st.just(math.nan))
# seed lists that repeat a seed
repeating = st.lists(st.integers(0, 50), min_size=1, max_size=3).flatmap(
    lambda s: st.permutations(s + s[:1]))
# text that argparse cannot read as an integer (",".join of ints excluded)
not_an_int = st.text(alphabet="abcxyz.+-e ", min_size=1, max_size=6).filter(
    lambda t: not t.strip().lstrip("+-").isdigit())


def fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


# -- bad flags -------------------------------------------------------------

bad_run_flags = st.one_of(
    st.tuples(st.just("--bins"), not_positive),
    st.tuples(st.just("--batch-size"), not_positive),
    st.tuples(st.just("--epochs"), negative),
    st.tuples(st.just("--learning-rate"), bad_real),
    st.tuples(st.just("--epsilon"), bad_real),
    st.tuples(st.just("--split-ratio"), outside_unit),
    st.tuples(st.just("--seeds"), st.lists(st.integers(-50, 50), min_size=1, max_size=4)
              .filter(lambda s: min(s) < 0).map(lambda s: ",".join(map(str, s)))),
    st.tuples(st.just("--seeds"), repeating.map(lambda s: ",".join(map(str, s)))),
    st.tuples(st.just("--seeds"), not_an_int),
    st.tuples(st.just("--epochs"), not_an_int),
    st.tuples(st.sampled_from(["--loss", "--calibrator", "--anomaly-source"]),
              st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=8)
              .filter(lambda t: t not in {"svdd", "hsc", "logistic", "ssim", "fcdd",
                                          "none", "platt", "beta", "head", "oe",
                                          "spectral"})),
    # not run options; "--seed" would abbreviate "--seeds"
    st.tuples(st.sampled_from(["--nope", "--kind", "--count"]), st.integers(0, 9)),
)


@st.composite
def bad_flag_cases(draw):
    flag, value = draw(bad_run_flags)
    return {"argv": RUN + [flag, fmt(value)]}, CONFIG


@st.composite
def bad_synth_cases(draw):
    flag, value = draw(st.one_of(st.tuples(st.sampled_from(["--height", "--width"]),
                                           st.integers(-5, 1)),
                                 st.tuples(st.just("--channels"), not_positive),
                                 st.tuples(st.sampled_from(["--count", "--seed"]),
                                           negative)))
    return {"argv": ["synth", flag, str(value)]}, CONFIG


@st.composite
def bad_eval_bins(draw):
    return {"argv": ["eval", "{scores}", "--bins", str(draw(not_positive))],
            "files": {"scores.csv": "score,label\n0.1,0\n0.7,1\n"}}, CONFIG


@st.composite
def bad_calibrate_seed(draw):
    return {"argv": ["calibrate", "{scores}", "--seed", str(draw(negative)),
                     "--out", "{out}"],
            "files": {"scores.csv": "score,label\n0.1,0\n0.7,1\n"}}, CONFIG


# -- bad config-file values --------------------------------------------------

wrong_type = st.one_of(st.none(), st.text(max_size=4), st.booleans(),
                       st.lists(st.integers(0, 3), max_size=2))


@st.composite
def bad_config_cases(draw):
    key, value = draw(st.one_of(
        st.tuples(st.sampled_from(["epochs", "bins", "batch_size"]),
                  wrong_type | st.floats(allow_nan=False, allow_infinity=False)),
        st.tuples(st.sampled_from(["split_ratio", "epsilon", "learning_rate"]),
                  wrong_type),
        st.tuples(st.just("seeds"), st.integers(0, 9) | st.lists(
            st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=3)
            | st.lists(negative, min_size=1, max_size=3) | repeating),
        st.tuples(st.just("milestones"), st.lists(st.integers(0, 20), min_size=2,
                                                  max_size=4, unique=True)
                  .filter(lambda m: m != sorted(m))),
        st.tuples(st.sampled_from(["normal", "out_dir"]),
                  st.integers() | st.none() | st.lists(st.text(max_size=2), max_size=2)),
        # no config key is spelled with these letters alone
        st.tuples(st.text(alphabet="abcdefgh_", min_size=1, max_size=8), st.integers()),
    ))
    return {"argv": ["run", "--config", "{config}"],
            "files": {"config.json": json.dumps({key: value})}}, CONFIG


# -- malformed data files ----------------------------------------------------


@st.composite
def bad_score_csv(draw):
    """A score CSV with one defect: no header, no rows, a label outside
    {0, 1}, a non-finite score or a non-number cell."""
    rows = draw(st.lists(st.tuples(st.floats(-10, 10), st.integers(0, 1)),
                         min_size=1, max_size=6))
    lines = [f"{s!r},{y}" for s, y in rows]
    defect = draw(st.sampled_from(["header", "empty", "label", "score", "cell"]))
    where = draw(st.integers(0, len(lines) - 1))
    if defect == "label":
        label = draw(st.integers(2, 9) | st.integers(-9, -1) | st.sampled_from(["0.5"]))
        lines[where] = f"{rows[where][0]!r},{label}"
    elif defect == "score":
        lines[where] = f"{draw(st.sampled_from(['nan', 'inf', '-inf']))},{rows[where][1]}"
    elif defect == "cell":
        lines[where] = f"{draw(st.sampled_from(['oops', '', '1..2', '0x']))},{rows[where][1]}"
    elif defect == "empty":
        lines = []
    header = draw(st.sampled_from(["x,y", "score", "label,value"])) if defect == "header" \
        else "score,label"
    verb, *opts = draw(st.sampled_from([["eval"], ["eval", "--probabilities"],
                                        ["calibrate", "--kind", "platt"],
                                        ["calibrate", "--kind", "beta"]]))
    out = ["--out", "{out}"] if verb == "calibrate" else []
    return {"argv": [verb, "{scores}", *opts, *out],
            "files": {"scores.csv": "\n".join([header, *lines]) + "\n"}}, DATA


@st.composite
def bad_normal_csv(draw):
    """--normal CSV with a non-finite or non-number cell, or one row."""
    n = draw(st.integers(2, 6))
    d = draw(st.integers(1, 3))
    cells = [[repr(draw(st.floats(-5, 5))) for _ in range(d)] for _ in range(n)]
    defect = draw(st.sampled_from(["non-finite", "text", "one row"]))
    if defect == "one row":
        cells = cells[:1]
    else:
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, d - 1))
        cells[i][j] = draw(st.sampled_from(["nan", "inf", "-inf"])) \
            if defect == "non-finite" else draw(st.sampled_from(["a", "1,2,3", "--"]))
    text = "".join(",".join(row) + "\n" for row in cells)
    return {"argv": ["run", "--normal", "{normal}", "--seeds", "0", "--epochs", "1",
                     "--out", "{out}"], "files": {"normal.csv": text}}, DATA


@st.composite
def bad_seed_rows(draw):
    """per_seed.csv for `report` with a missing column or a non-number cell."""
    columns = ["seed", "class_id", "method", "auroc", "auroc_perturbed", "mce", "ece"]
    values = ["0", "gauss2d", "Fully Trained", "0.9", "0.8", "0.1", "0.05"]
    if draw(st.booleans()):
        drop = draw(st.sampled_from(columns[3:]))
        keep = [i for i, c in enumerate(columns) if c != drop]
        columns = [columns[i] for i in keep]
        values = [values[i] for i in keep]
    else:
        values[draw(st.integers(3, 6))] = draw(st.sampled_from(["", "n/a", "x1"]))
    text = ",".join(columns) + "\n" + ",".join(values) + "\n"
    return {"argv": ["report", "{rows}", "--out", "{out}"],
            "files": {"rows.csv": text}}, DATA


@st.composite
def truncated_oe_pool(draw):
    """An OE directory whose one .calt file is cut short."""
    return {"argv": ["run", "--normal", "builtin:gauss2d", "--anomaly-source", "oe",
                     "--oe-dir", "{oe}", "--seeds", "0", "--epochs", "1",
                     "--out", "{out}"],
            "oe_cut": draw(st.integers(0, 83))}, DATA


# -- numerical failures --------------------------------------------------------


@st.composite
def constant_normal_csv(draw):
    """Normal rows that are all one integer vector: every normalized row is
    exactly zero, so the SVDD hypersphere center is zero."""
    n = draw(st.integers(2, 12))
    row = draw(st.lists(st.integers(-1000, 1000), min_size=1, max_size=3))
    text = (",".join(map(str, row)) + "\n") * n
    return {"argv": ["run", "--normal", "{normal}", "--loss", "svdd",
                     "--calibrator", draw(st.sampled_from(["none", "platt", "beta"])),
                     "--seeds", "0", "--epochs", "1", "--out", "{out}"],
            "files": {"normal.csv": text}}, NUMERICAL


cases = st.one_of(bad_flag_cases(), bad_synth_cases(), bad_eval_bins(),
                  bad_calibrate_seed(), bad_config_cases(), bad_score_csv(), bad_normal_csv(),
                  bad_seed_rows(), truncated_oe_pool(), constant_normal_csv())


def materialize(case, root: Path):
    """Write the case's files under root and fill their paths, by file
    stem, into argv."""
    paths = {"out": str(root / "out")}
    for name, text in case.get("files", {}).items():
        (root / name).write_text(text)
        paths[Path(name).stem] = str(root / name)
    if "oe_cut" in case:
        oe = root / "oe"
        oe.mkdir()
        save_tensor(oe / "pool.calt", np.zeros((10, 2)))
        data = (oe / "pool.calt").read_bytes()
        (oe / "pool.calt").write_bytes(data[:case["oe_cut"]])
        paths["oe"] = str(oe)
    return [arg.format(**paths) for arg in case["argv"]]


@given(cases)
@settings(max_examples=250, deadline=None)
def test_exit_code_matches_documented_table(case_and_code):
    case, code = case_and_code
    with tempfile.TemporaryDirectory() as tmp:
        argv = materialize(case, Path(tmp))
        err = io.StringIO()
        # a verb without --out writes under CALAD_OUT_DIR
        with mock.patch.dict(os.environ, {"CALAD_OUT_DIR": str(Path(tmp) / "out")}), \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli_main(argv)
    assert rc == code, (argv, err.getvalue())
    assert "error:" in err.getvalue()
