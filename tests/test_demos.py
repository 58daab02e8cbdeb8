import pathlib

import pytest

DEMOS = sorted((pathlib.Path(__file__).parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(run_python_process, demo):
    result = run_python_process(str(demo), timeout=60)
    assert result.returncode == 0, result.stderr.decode()
