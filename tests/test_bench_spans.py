"""``bench/spans.py`` still fits the package it traces.

``python3 bench/run.py --trace 1`` wraps the functions named in
``spans.LAYERS`` and passes ``lift_counter`` to ``least_sepm``, so a
rename or a deleted function in ``src/`` would only show up as a crash of
a traced benchmark run.  This test loads ``spans.py`` from its source
text (no import path change, no bytecode written) and runs one traced
``mpg solve`` and one traced enumeration in-process.
"""

import inspect
import math
import pathlib
import types
from fractions import Fraction

import mpgsolver
import mpgsolver.cli
from mpgsolver import enumerate_lattice, energy, lattice, reweight

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
        # Calls go through the module, where the tracer's wrappers are.
        x, _ = lattice.enumerate_lattice(gamma_d, Fraction(0))
        lattice.decompose(gamma_d, Fraction(0), x, max_listed=16)
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    assert not hasattr(energy.least_sepm, "__wrapped__")
    metrics = tracer.metrics(lambda start, end: 0.0)
    assert metrics["energy.lifts"] > 0
    assert metrics["lattice.children_tried"] > 0
    assert metrics["lattice.block_candidates"] > 0
    assert metrics["cli.least_sepm_calls"] == 0


def test_traced_enumeration_counts(gamma_d, monkeypatch):
    # Lift the children once untraced, through a spy, to know which are
    # pruned; the traced counters must then add up to the same lattice.
    lifted = []
    real_lift = energy.least_sepm

    def spy_lift(arena, **kwargs):
        f = real_lift(arena, **kwargs)
        lifted.append(f)
        return f

    monkeypatch.setattr(energy, "least_sepm", spy_lift)
    enumerate_lattice(gamma_d, Fraction(0))
    monkeypatch.undo()
    pruned = sum(not f.all_finite() for f in lifted[1:])  # [0] is the root

    tracer = load_spans().Tracer()
    tracer.install()
    try:
        x, b = lattice.enumerate_lattice(gamma_d, Fraction(0))
        lattice.decompose(gamma_d, Fraction(0), x, max_listed=16)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(lambda start, end: 0.0)
    assert metrics["lattice.children_tried"] == len(lifted) - 1
    assert metrics["lattice.children_tried"] == (
        metrics["lattice.children_kept"] + pruned)
    assert metrics["lattice.children_kept"] == len(b) - 1
    assert metrics["arena.apply_mask_calls"] == 0
    scaled = reweight(gamma_d, Fraction(0))
    p0 = scaled.vertices_of(0)
    assert metrics["lattice.block_candidates"] == sum(
        math.prod(sum(energy.ominus(f.values[v], w, f.cap) == f.values[u]
                      for v, w in scaled.out[u])
                  for u in p0)
        for f in x.sepms[1:])
