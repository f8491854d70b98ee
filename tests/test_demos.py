"""The fast demo scripts run end to end against the current API."""

import importlib.util
import re
from pathlib import Path

from ppsdyn.model import PARAM_ORDER

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"demo_{name}", DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_optimizer_showcase_runs(tmp_path, monkeypatch, capsys):
    demo = _load("optimizer_showcase")
    # the demo prints its output path relative to ROOT
    monkeypatch.setattr(demo, "ROOT", tmp_path)
    monkeypatch.setattr(demo, "OUT", tmp_path / "output")
    demo.main()
    assert "Rosenbrock from (-1.2, 1)" in capsys.readouterr().out
    assert (tmp_path / "output" / "rosenbrock_loss.csv").read_text().startswith("step,loss\n")


def test_equilibrium_atlas_runs(capsys):
    _load("equilibrium_atlas").main()
    out = capsys.readouterr().out
    assert "reference.params" in out
    assert "crosscheck" in out


def test_estimate_roundtrip_runs(capsys):
    _load("estimate_roundtrip").main(["0"])
    out = capsys.readouterr().out
    match = re.search(r"seed 0: data error ([\d.]+) after the network stage, ([\d.]+) after", out)
    assert match and float(match[2]) < float(match[1])
    assert all(f"  {name:<3} " in out for name in PARAM_ORDER)


def test_settling_portraits_runs(tmp_path, monkeypatch, capsys):
    demo = _load("settling_portraits")
    monkeypatch.setattr(demo, "OUT", tmp_path / "output")
    demo.main()
    out = capsys.readouterr().out
    assert "interior_stable" in out and "settles near" in out
    assert "no settling" in out
    for name, *_ in demo.RUNS:
        assert (tmp_path / "output" / f"{name}.svg").read_text().startswith("<svg")
