import functools
import os
import pathlib
import subprocess
import sys

import pytest

import mpgsolver
from mpgsolver import parse_arena

DATA = pathlib.Path(__file__).parent / "data"

# The directory that holds the mpgsolver package this process imported:
# ``src`` for a checkout or an editable install, site-packages otherwise.
PACKAGE_PARENT = pathlib.Path(mpgsolver.__file__).resolve().parents[1]


def load(name):
    return parse_arena((DATA / name).read_bytes())


@pytest.fixture
def gamma_ex():
    """Two cycles of mean -1; Player 0's only real choice is at E."""
    return load("gamma_ex.mpg")


@pytest.fixture
def gamma_d():
    """Degenerate 11-vertex arena, value 0 everywhere."""
    return load("gamma_d.mpg")


@pytest.fixture
def nonpositional():
    """Arena whose truncated-game optimal moves are history dependent."""
    return load("nonpositional.mpg")


@pytest.fixture
def data_dir():
    return DATA


@pytest.fixture
def run_python_process():
    """Run ``python ARGV`` in a child process that imports this package.

    The child inherits this process's environment, or exactly ``env`` when
    given, with ``PYTHONPATH`` set to ``PACKAGE_PARENT``; so it runs the
    same package as the tests, whatever the working directory.  Other
    keyword arguments go to ``subprocess.run``; stdout and stderr are
    captured unless given.
    """
    def run(*argv, env=None, **kwargs):
        child_env = dict(os.environ if env is None else env,
                         PYTHONPATH=str(PACKAGE_PARENT))
        kwargs.setdefault("stdout", subprocess.PIPE)
        kwargs.setdefault("stderr", subprocess.PIPE)
        return subprocess.run([sys.executable, *argv], env=child_env,
                              **kwargs)
    return run


@pytest.fixture
def run_cli_process(run_python_process):
    """Run ``python -m mpgsolver.cli ARGV`` through ``run_python_process``."""
    return functools.partial(run_python_process, "-m", "mpgsolver.cli")
