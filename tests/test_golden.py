"""CLI stdout is byte-identical to the committed golden files.

Each case runs ``mpg`` in-process on one arena of ``tests/data`` and
compares its stdout with ``tests/data/golden/<name>``.  To regenerate the
golden files after an intended change of output, run
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import pathlib
import sys

import pytest

from mpgsolver.cli import main

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = DATA / "golden"

_PER_ARENA = [
    ("solve.txt", ["solve"]),
    ("solve.json", ["solve", "--format", "json"]),
    ("enum.txt", ["enum"]),
    ("enum.json", ["enum", "--format", "json"]),
    ("ttpg.txt", ["ttpg"]),
    ("ttpg-min.txt", ["ttpg", "--variant", "min"]),
    ("ttpg-min-fixpoint.txt", ["ttpg", "--variant", "min", "--fixpoint"]),
]


def cases():
    """(golden file name, argv) for every command checked."""
    found = []
    for path in sorted(DATA.glob("*.mpg")):
        for suffix, (command, *options) in _PER_ARENA:
            found.append(("%s.%s" % (path.stem, suffix),
                          [command, str(path), *options]))
    found.append(("verify-random-6-3-4-0-20.txt",
                  ["verify", "--random", "6", "3", "4", "0", "20"]))
    return found


CASES = cases()


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_stdout_matches_golden(capsys, name, argv):
    code = main(argv)
    out, _ = capsys.readouterr()
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in cases():
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            if main(argv) != 0:
                sys.exit("mpg %s failed" % " ".join(argv))
        (GOLDEN / name).write_bytes(buffer.getvalue().encode("utf-8"))
