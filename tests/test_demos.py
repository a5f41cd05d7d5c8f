"""Every demo runs end to end against the current API."""

import pathlib
import runpy

import pytest

DEMO_DIR = pathlib.Path(__file__).resolve().parent.parent / "demos"
DEMOS = ("amplification", "ising_sampler", "method_comparison", "transduction_basics")


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # ising_sampler writes demo_out/ under the working directory
    runpy.run_path(str(DEMO_DIR / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out


def test_demo_list_is_complete():
    assert sorted(p.stem for p in DEMO_DIR.glob("*.py")) == sorted(DEMOS)
