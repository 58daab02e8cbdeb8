import json
import os
import shutil
import subprocess

import pytest

from mpgsolver import energy, lattice as lattice_mod, oracle
from mpgsolver import values as values_mod
from mpgsolver.cli import build_parser, main
from mpgsolver.errors import InternalError


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_solve_gamma_ex_text(capsys, data_dir):
    code, out, _ = run_cli(capsys, "solve", str(data_dir / "gamma_ex.mpg"))
    assert code == 0
    assert "A = -1" in out and "G = -1" in out
    assert "B -> C" in out and "D -> A" in out and "G -> F" in out
    assert "E -> A" in out or "E -> G" in out


def test_solve_gamma_ex_json(capsys, data_dir):
    code, out, _ = run_cli(capsys, "solve", str(data_dir / "gamma_ex.mpg"),
                           "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["values"]["E"] == {"num": -1, "den": 1}
    assert blob["classes"][0]["least_sepm"]["values"]["C"] == 8
    assert blob["strategy"]["B"] == "C"


def test_solve_gamma_d_values_zero(capsys, data_dir):
    code, out, _ = run_cli(capsys, "solve", str(data_dir / "gamma_d.mpg"),
                           "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert all(v == {"num": 0, "den": 1} for v in blob["values"].values())


def test_solve_malformed_exits_1(capsys, tmp_path):
    bad = tmp_path / "bad.mpg"
    bad.write_text("v a 0\ne a zz 1\n")
    code, _, err = run_cli(capsys, "solve", str(bad))
    assert code == 1
    assert "line 2" in err


def test_solve_non_utf8_exits_1_with_one_error_line(capsys, tmp_path):
    bad = tmp_path / "bad.mpg"
    bad.write_bytes(b"v a 0\ne a a 1\n\xff\n")
    code, out, err = run_cli(capsys, "solve", str(bad))
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["error: line 3, col 1: invalid UTF-8 byte 0xff"]


def test_solve_missing_file_exits_1(capsys, tmp_path):
    code, _, err = run_cli(capsys, "solve", str(tmp_path / "nope.mpg"))
    assert code == 1


def test_enum_gamma_ex_counts(capsys, data_dir):
    code, out, _ = run_cli(capsys, "enum", str(data_dir / "gamma_ex.mpg"))
    assert code == 0
    assert "summary: 3 sepms, 3 subgames, 4 optimal strategies" in out
    assert "delta 0: count 2" in out
    assert "delta 1: count 1" in out
    assert "delta 2: count 1" in out
    assert "degenerate" not in out


def test_enum_gamma_d_reports_degeneracy(capsys, data_dir):
    code, out, _ = run_cli(capsys, "enum", str(data_dir / "gamma_d.mpg"))
    assert code == 0
    assert "degenerate: |B*| > |X*|" in out


def test_enum_json_schema(capsys, data_dir):
    code, out, _ = run_cli(capsys, "enum", str(data_dir / "gamma_ex.mpg"),
                           "--format", "json")
    assert code == 0
    blob = json.loads(out)
    cls = blob["classes"][0]
    assert cls["nu"] == {"num": -1, "den": 1}
    assert len(cls["extremal_sepms"]) == 3
    assert [g["id"] for g in cls["basic_subgames"]] == [0, 1, 2]
    assert cls["basic_subgames"][0]["parent_ids"] == []
    assert cls["basic_subgames"][1]["removed_arcs"] == [["E", "A"], ["E", "G"]]
    assert [d["count"] for d in cls["decomposition"]] == [2, 1, 1]
    assert cls["degenerate"] is False


def test_enum_strategy_listing_cap(capsys, data_dir):
    code, out, _ = run_cli(capsys, "enum", str(data_dir / "gamma_ex.mpg"),
                           "--list-strategies", "1", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    block = blob["classes"][0]["decomposition"][0]
    assert block["count"] == 2
    assert len(block["strategies"]) == 1


@pytest.mark.parametrize("argv, option", [
    (["enum", "ARENA", "--list-strategies", "-1"], "--list-strategies"),
    (["ttpg", "ARENA", "--k", "-1"], "--k"),
    (["verify", "ARENA", "--max-strategies", "-1"], "--max-strategies"),
    (["verify", "--random", "0", "3", "4", "0", "1"], "--random"),
    (["verify", "--random", "3", "0", "4", "0", "1"], "--random"),
    (["verify", "--random", "3", "3", "-1", "0", "1"], "--random"),
    (["verify", "ARENA", "--random", "3", "3", "4", "0", "-1"], "--random"),
], ids=["enum-list-strategies", "ttpg-k", "verify-max-strategies",
        "verify-random-n", "verify-random-max-out", "verify-random-w-max",
        "verify-random-count"])
def test_bad_option_values_exit_2(capsys, data_dir, argv, option):
    arena = str(data_dir / "gamma_ex.mpg")
    try:
        code = main([arena if arg == "ARENA" else arg for arg in argv])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert option in errors[0] and ">= 0" in errors[0]


def test_enum_byte_identical_across_runs(data_dir, run_cli_process):
    path = str(data_dir / "gamma_d.mpg")
    first = run_cli_process("enum", path)
    second = run_cli_process("enum", path)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_in_process_calls_print_what_fresh_processes_print(
        capsys, data_dir, run_cli_process):
    # the parser is built once per process: a call must not see the
    # subcommand or the options of the call before it
    assert build_parser() is build_parser()
    for argv in (("solve", str(data_dir / "gamma_ex.mpg"), "--format", "json"),
                 ("enum", str(data_dir / "gamma_d.mpg")),
                 ("ttpg", str(data_dir / "gamma_ex.mpg"), "--format", "json")):
        code, out, _ = run_cli(capsys, *argv)
        fresh = run_cli_process(*argv, text=True)
        assert code == fresh.returncode == 0
        assert out == fresh.stdout


def test_ttpg_k0_zero_row(capsys, data_dir):
    code, out, _ = run_cli(capsys, "ttpg", str(data_dir / "gamma_ex.mpg"),
                           "--k", "0")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split("\t") == ["k"] + list("ABCDEFG")
    assert lines[1].split("\t") == ["0"] * 8


def test_ttpg_plain_matches_oracle(capsys, data_dir, nonpositional):
    from mpgsolver.oracle import ttpg_game_tree_value
    code, out, _ = run_cli(capsys, "ttpg", str(data_dir / "nonpositional.mpg"),
                           "--k", "5")
    assert code == 0
    rows = [line.split("\t") for line in out.strip().splitlines()[1:]]
    for k, row in enumerate(rows):
        assert int(row[0]) == k
        for u, cell in enumerate(row[1:]):
            assert int(cell) == ttpg_game_tree_value(nonpositional, u, k)


def test_ttpg_fixpoint_with_reweight(capsys, data_dir):
    code, out, _ = run_cli(capsys, "ttpg", str(data_dir / "gamma_ex.mpg"),
                           "--variant", "min", "--fixpoint", "--reweight")
    assert code == 0
    assert "agrees with least-sepm: yes" in out
    assert "fixpoint at k = " in out


def test_ttpg_fixpoint_json(capsys, data_dir):
    code, out, _ = run_cli(capsys, "ttpg", str(data_dir / "gamma_d.mpg"),
                           "--variant", "min", "--fixpoint",
                           "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["agrees_with_least_sepm"] is True
    assert blob["k_reached"] >= 1
    assert blob["energy"]["values"]["u3"] == 1


def test_ttpg_fixpoint_requires_min_variant(capsys, data_dir):
    code, _, err = run_cli(capsys, "ttpg", str(data_dir / "gamma_ex.mpg"),
                           "--fixpoint")
    assert code == 2
    assert "--variant min" in err


def test_ttpg_reweight_rejects_multivalued(capsys, tmp_path):
    two = tmp_path / "two.mpg"
    two.write_text("v p 0\nv q 0\ne p p 1\ne q q 2\n")
    code, _, err = run_cli(capsys, "ttpg", str(two), "--variant", "min",
                           "--fixpoint", "--reweight")
    assert code == 2
    assert "single-valued" in err


def test_verify_gamma_ex_passes(capsys, data_dir):
    code, out, _ = run_cli(capsys, "verify", str(data_dir / "gamma_ex.mpg"))
    assert code == 0
    assert "PASS" in out
    assert "0 failure(s)" in out


def test_verify_gamma_d_notes_degeneracy(capsys, data_dir):
    code, out, _ = run_cli(capsys, "verify", str(data_dir / "gamma_d.mpg"))
    assert code == 0
    assert "(degenerate)" in out


def test_verify_random_batch(capsys):
    code, out, _ = run_cli(capsys, "verify", "--random", "5", "2", "3",
                           "11", "6")
    assert code == 0
    assert "verified 6 arena(s), 0 failure(s)" in out


def test_verify_without_input_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify")
    assert code == 2


def test_verify_zero_random_arenas(capsys):
    code, out, err = run_cli(capsys, "verify", "--random", "5", "2", "3",
                             "11", "0")
    assert (code, out, err) == (0, "verified 0 arena(s), 0 failure(s)\n", "")


def test_verify_oracle_bound_skips(capsys, data_dir):
    code, out, _ = run_cli(capsys, "verify", str(data_dir / "gamma_d.mpg"),
                           "--max-strategies", "2")
    assert code == 0
    assert "SKIP" in out and "skipped (oracle bound)" in out


def test_verify_failure_writes_reproducer(capsys, data_dir, tmp_path,
                                          monkeypatch):
    from mpgsolver import cli as cli_mod
    from mpgsolver.verify import BatteryReport

    def broken(arena, max_strategies=0):
        report = BatteryReport()
        report.fail("injected failure")
        return report

    monkeypatch.setattr(cli_mod.verify_mod, "verify_arena", broken)
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "verify", str(data_dir / "gamma_ex.mpg"))
    assert code == 3
    assert "FAIL" in out and "injected failure" in out
    repro = list(tmp_path.glob("mpg_failure_*.mpg"))
    assert len(repro) == 1
    from mpgsolver import parse_arena
    assert parse_arena(repro[0].read_text()).n == 7


def test_mpg_log_env_controls_logging(data_dir, run_cli_process):
    path = str(data_dir / "gamma_ex.mpg")
    quiet = run_cli_process("solve", path, text=True,
                            env={"MPG_LOG": "quiet", "PATH": "/usr/bin:/bin"})
    chatty = run_cli_process("solve", path, text=True,
                             env={"MPG_LOG": "info", "PATH": "/usr/bin:/bin"})
    assert quiet.returncode == chatty.returncode == 0
    assert quiet.stdout == chatty.stdout
    assert "value class" in chatty.stderr
    assert "value class" not in quiet.stderr


def test_enum_multivalued_arena(capsys, tmp_path):
    two = tmp_path / "two.mpg"
    two.write_text("v p 0\nv q 0\ne p p 1\ne q q -2\ne p q 0\n")
    code, out, _ = run_cli(capsys, "enum", str(two), "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert len(blob["classes"]) == 2
    nus = [cls["nu"] for cls in blob["classes"]]
    assert {"num": 1, "den": 1} in nus and {"num": -2, "den": 1} in nus


@pytest.mark.skipif(shutil.which("mpg") is None,
                    reason="mpg console script not on PATH")
def test_console_script_entry_point(data_dir):
    proc = subprocess.run(["mpg", "solve", str(data_dir / "gamma_ex.mpg")],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "A = -1" in proc.stdout


def test_internal_error_exits_4(capsys, data_dir, monkeypatch):
    def broken(arena):
        raise InternalError("planted")
    monkeypatch.setattr(values_mod, "solve_values", broken)
    code, out, err = run_cli(capsys, "solve", str(data_dir / "gamma_ex.mpg"))
    assert code == 4
    assert out == ""
    assert "internal error: planted" in err


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_exits_141_quietly(data_dir, run_cli_process,
                                         unbuffered):
    # The reader end is closed before the child starts, so its first write
    # to stdout (or the flush of a buffered stdout) raises BrokenPipeError.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        proc = run_cli_process("enum", str(data_dir / "gamma_ex.mpg"),
                               env=env, stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


def count_least_sepm(monkeypatch, *inner):
    """Count least_sepm calls made outside and inside the ``inner`` calls.

    ``inner`` holds (module, name) pairs; those functions are wrapped in
    place, so calls the CLI makes through the module attribute see them.
    Returns a dict {"outside": n, "inside": n} that fills as calls happen.
    """
    depth = [0]
    calls = {"outside": 0, "inside": 0}

    def nested(fn):
        def wrapper(*args, **kwargs):
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapper

    for module, name in inner:
        monkeypatch.setattr(module, name, nested(getattr(module, name)))
    real = energy.least_sepm

    def counting(*args, **kwargs):
        calls["inside" if depth[0] else "outside"] += 1
        return real(*args, **kwargs)

    # every package module calls least_sepm through ``energy``
    monkeypatch.setattr(energy, "least_sepm", counting)
    return calls


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name", ["gamma_d.mpg", "nonpositional.mpg"])
def test_solve_computes_each_class_measure_once(capsys, data_dir,
                                                monkeypatch, name, fmt):
    # Synthesis computes each class's least SEPM; the printout reuses it.
    calls = count_least_sepm(monkeypatch, (values_mod, "solve_values"))
    code, out, _ = run_cli(capsys, "solve", str(data_dir / name),
                           "--format", fmt)
    assert code == 0
    if fmt == "json":
        classes = len(json.loads(out)["classes"])
    else:
        classes = sum(line.startswith("class ") for line in out.splitlines())
    assert classes >= 1
    assert calls["inside"] > 0
    assert calls["outside"] == classes


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_solve_certifies_without_karp(capsys, data_dir, monkeypatch, fmt):
    # mpg solve checks its strategy with the class measures' certificate:
    # neither the oracle's Karp nor is_optimal is on its path.
    calls = []
    for module, name in ((oracle, "payoff_vector"),
                         (values_mod, "is_optimal")):
        def spy(*args, name=name, fn=getattr(module, name)):
            calls.append(name)
            return fn(*args)
        monkeypatch.setattr(module, name, spy)
    paths = sorted(data_dir.glob("*.mpg"))
    assert len(paths) >= 4
    for path in paths:
        code, out, _ = run_cli(capsys, "solve", str(path), "--format", fmt)
        assert code == 0 and out
    assert calls == []


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_enum_lifts_only_inside_lattice(capsys, data_dir, monkeypatch, fmt):
    calls = count_least_sepm(monkeypatch, (values_mod, "solve_values"),
                             (lattice_mod, "enumerate_lattice"),
                             (lattice_mod, "decompose"))
    code, _, _ = run_cli(capsys, "enum", str(data_dir / "nonpositional.mpg"),
                         "--format", fmt)
    assert code == 0
    assert calls["inside"] > 0
    assert calls["outside"] == 0
