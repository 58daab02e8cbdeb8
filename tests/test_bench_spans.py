"""``bench/spans.py`` still fits the package it traces.

``python3 bench/run.py --trace 1`` wraps the functions named in
``spans.LAYERS`` and passes ``lift_counter`` to ``least_sepm``, so a
rename or a deleted function in ``src/`` would only show up as a crash of
a traced benchmark run.  This test loads ``spans.py`` from its source
text (no import path change, no bytecode written) and runs one traced
``mpg solve`` and one traced enumeration in-process.
"""

import inspect
import pathlib
import types
from fractions import Fraction

import mpgsolver
import mpgsolver.cli
from mpgsolver import decompose, enumerate_lattice, energy

SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    module = types.ModuleType("spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"),
         module.__dict__)
    return module


def test_traced_names_exist():
    spans = load_spans()
    for layer, names in spans.LAYERS.items():
        module = getattr(mpgsolver, layer)
        for name in names:
            assert callable(getattr(module, name, None)), (layer, name)
    assert "lift_counter" in inspect.signature(energy.least_sepm).parameters


def test_tracer_counts_lifts_and_block_candidates(capsys, data_dir, gamma_d):
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        code = mpgsolver.cli.main(["solve", str(data_dir / "gamma_ex.mpg")])
        # gamma_d is one class of value 0 (see tests/test_values.py).
        x, _ = enumerate_lattice(gamma_d, Fraction(0))
        decompose(gamma_d, Fraction(0), x, max_listed=16)
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    assert not hasattr(energy.least_sepm, "__wrapped__")
    metrics = tracer.metrics(lambda start, end: 0.0)
    assert metrics["energy.lifts"] > 0
    assert metrics["lattice.block_candidates"] > 0
    assert metrics["cli.least_sepm_calls"] == 0
