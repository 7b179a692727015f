"""The process entry ``calad.cli.console``: it ends the process with
``os._exit`` after flushing the streams, so no atexit hook runs, yet every
line the verb prints, ``--help``'s text included, reaches stdout, whether
stdout is a file or a pipe. Its exit codes match ``main``'s, and a reader
that closes stdout early ends the process with 141 and an empty stderr."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import calad
from calad.cli import main as cli_main

# one help width in and out of process, whatever the terminal; stdout
# buffered as by default, so that only console's flush can write it out
ENV = {**{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
       "PYTHONPATH": str(Path(calad.__file__).resolve().parents[1]), "COLUMNS": "80"}
# registers an atexit hook that would print, then runs the console entry
CHILD = textwrap.dedent("""
    import atexit, os, sys
    atexit.register(os.write, 2, b"atexit hook ran\\n")
    from calad.cli import console
    sys.argv[0] = "calad"
    console()
""")

SCORES = "score,label\n0.3,0\n1.2,1\n-0.5,0\n0.9,1\n0.95,0\n"
SEED_ROWS = ("seed,class_id,method,auroc,auroc_perturbed,mce,ece\n"
             "0,c,Fully Trained,0.9,0.8,0.1,0.05\n")


@pytest.fixture(autouse=True)
def help_width(monkeypatch):
    monkeypatch.setenv("COLUMNS", ENV["COLUMNS"])


@pytest.fixture
def files(tmp_path):
    (tmp_path / "scores.csv").write_text(SCORES)
    (tmp_path / "per_seed.csv").write_text(SEED_ROWS)
    # constant rows normalize to 0, so the svdd center is 0: a numerical failure
    (tmp_path / "constant.csv").write_text("1,2\n" * 6)
    return tmp_path


def verb_argv(verb, root: Path):
    return {
        "run": ["run", "--normal", "builtin:gauss2d", "--loss", "svdd", "--calibrator",
                "platt", "--seeds", "0", "--epochs", "1", "--out", str(root / "run")],
        # more lines than one pipe or stdout buffer holds
        "synth": ["synth", "--count", "300", "--height", "4", "--width", "4",
                  "--out", str(root / "synth")],
        "calibrate": ["calibrate", str(root / "scores.csv"), "--out", str(root / "cal")],
        "eval": ["eval", str(root / "scores.csv")],
        "report": ["report", str(root / "per_seed.csv"), "--out", str(root / "report")],
        "help": ["--help"],
    }[verb]


def console(argv, **kwargs):
    return subprocess.run([sys.executable, "-c", CHILD, *argv], env=ENV, **kwargs)


def in_process(argv, capsys):
    """main(argv)'s exit code and stdout; --help raises SystemExit in process."""
    try:
        code = cli_main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().out


@pytest.mark.parametrize("verb", ["run", "synth", "calibrate", "eval", "report", "help"])
def test_console_skips_atexit_and_writes_all_stdout(files, capsys, verb):
    argv = verb_argv(verb, files)
    code, expected = in_process(argv, capsys)
    assert code == 0 and expected
    piped = console(argv, capture_output=True, text=True)
    assert piped.returncode == 0, piped.stderr
    assert piped.stdout == expected
    assert piped.stderr == ""
    with open(files / "stdout.txt", "w") as out:
        redirected = console(argv, stdout=out, stderr=subprocess.PIPE, text=True)
    assert redirected.returncode == 0, redirected.stderr
    assert (files / "stdout.txt").read_text() == expected
    assert redirected.stderr == ""


@pytest.mark.parametrize("argv, code", [
    (["eval", "{root}/scores.csv"], 0),
    (["run", "--loss", "nope"], 1),
    (["eval", "{root}/missing.csv"], 2),
    (["run", "--normal", "{root}/constant.csv", "--seeds", "0", "--epochs", "1",
      "--out", "{root}/out"], 3)], ids=["ok", "config", "data", "numerical"])
def test_module_entry_exits_as_main_returns(files, capsys, argv, code):
    argv = [arg.format(root=files) for arg in argv]
    assert cli_main(argv) == code
    proc = subprocess.run([sys.executable, "-m", "calad.cli", *argv], env=ENV,
                          capture_output=True, text=True)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("verb", ["eval", "synth"])
def test_closed_stdout_exits_141_quietly(files, verb):
    # eval's three lines fail at the final flush, synth's many inside the verb
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = console(verb_argv(verb, files), stdout=write_end, stderr=subprocess.PIPE,
                       text=True)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == ""
