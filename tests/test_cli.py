import gc
import hashlib
import json
import math
import os

import numpy as np
import pytest

from conftest import (FIXTURES, INTERIOR_STABLE, MULTI2_CASE, NOROOT_CASE, REFERENCE,
                      SCAN_MISS_CASES)
from ppsdyn.cli import ARTIFACTS, _fit_svg, build_parser, main
from ppsdyn.data import Dataset, synthesize
from ppsdyn.errors import NonFiniteLoss
from ppsdyn.model import ModelParams, State


@pytest.fixture()
def params_file(tmp_path):
    path = tmp_path / "case.params"
    ModelParams(**INTERIOR_STABLE).save(path)
    return str(path)


@pytest.fixture()
def reference_file(tmp_path):
    path = tmp_path / "reference.params"
    ModelParams(**REFERENCE).save(path)
    return str(path)


def test_simulate_writes_artifacts(tmp_path, params_file, capsys):
    out = tmp_path / "run"
    code = main(["simulate", "--params", params_file, "--s0", "4,3,2",
                 "--t-end", "50", "--out", str(out)])
    assert code == 0
    assert (out / "trajectory.csv").exists()
    assert (out / "timeseries.svg").exists()
    assert (out / "phase.svg").exists()
    text = capsys.readouterr().out
    assert "final state" in text
    svg = (out / "timeseries.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


# Byte pins of the plots: a simulate run long enough to be thinned (19,518
# rows for 1,200 plotted points) and a fit plot on a fixed dataset.  Any
# change to the pixel arithmetic, the thinning or the formatting shows here.
SIMULATE_DIGESTS = {
    "trajectory.csv": "926e9e455ced4514c9a2c721f8ed4e3e34888e4ef81bdda2c0d3d7f243b92263",
    "timeseries.svg": "6b5fdaf5d3d82978bee42ad838a0f995b37ff613eb76b0d39575cafb90d0c065",
    "phase.svg": "3a3ffb6e30d7f32e643fb5ab514c0b3fcada2f4b03978429da4703dbdafc013a",
}
FIT_SVG_DIGEST = "9827bddd439b60b37789f2faf5c0cb2d02145face0f6ea860cc82e514d878653"


def test_simulate_artifacts_are_pinned(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["simulate", "--params", str(FIXTURES / "interior_unstable.params"),
                 "--s0", "4,3,2", "--t-end", "2000", "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    for name, digest in SIMULATE_DIGESTS.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def test_simulate_rerun_over_a_longer_run_writes_a_fresh_runs_bytes(tmp_path, capsys):
    argv = ["simulate", "--params", str(FIXTURES / "interior_unstable.params"), "--s0", "4,3,2"]
    shared, fresh = tmp_path / "shared", tmp_path / "fresh"
    assert main(argv + ["--t-end", "100", "--out", str(shared)]) == 0
    longer = {p.name: p.stat().st_size for p in shared.iterdir()}
    assert main(argv + ["--t-end", "10", "--out", str(shared)]) == 0
    assert main(argv + ["--t-end", "10", "--out", str(fresh)]) == 0
    capsys.readouterr()
    assert all(p.stat().st_size < longer[p.name] for p in shared.iterdir())
    assert _sha256s(shared) == _sha256s(fresh)


def test_fit_plot_is_pinned():
    # polynomials only, so every platform computes the same floats
    t = np.linspace(0.0, 1.0, 12)
    ds = Dataset(t, np.column_stack([t * t, 1.0 - t, 4.0 * t * (1.0 - t)]),
                 [0.0, 0.0, 0.0], [10.0, 20.0, 30.0], 0.0, 50.0)
    ft = np.linspace(0.0, 1.0, 1501)
    fs = np.column_stack([ft * ft + 0.01, 1.0 - ft, 4.0 * ft * (1.0 - ft) - 0.01])
    assert hashlib.sha256(_fit_svg(ds, ft, fs).encode()).hexdigest() == FIT_SVG_DIGEST


def test_simulate_subsystem_mask(tmp_path, params_file):
    out = tmp_path / "masked"
    code = main(["simulate", "--params", params_file, "--s0", "0,4,6",
                 "--subsystem", "predscav", "--t-end", "20",
                 "--out", str(out)])
    assert code == 0
    rows = (out / "trajectory.csv").read_text().splitlines()[1:]
    assert all(row.split(",")[1] == "0.0" for row in rows)


def test_subsystem_start_with_absent_species_is_usage_error(tmp_path, params_file, capsys):
    out = tmp_path / "masked"
    code = main(["simulate", "--params", params_file, "--s0", "1,4,6",
                 "--subsystem", "predscav", "--t-end", "20", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "error: x0 = 1.0 but x is masked out in PRED_SCAV\n"
    assert not out.exists()


NEGATIVE = "error: initial state must be finite and nonnegative, got (-1.0"


@pytest.mark.parametrize("command, s0, extra, code, err", [
    ("simulate", "-0,4,6", ["--subsystem", "predscav", "--t-end", "20"], 0, ""),
    ("simulate", "-1,4,6", ["--t-end", "20"], 1, NEGATIVE),
    # the start is taken; a prey that starts at zero stays there, and a
    # constant column cannot be normalized
    ("synth", "-0,1.178,0.577", ["--t-end", "5"], 1, "error: synthesized prey column is constant"),
    ("synth", "-1,1.178,0.577", ["--t-end", "5"], 1, NEGATIVE),
])
def test_start_with_a_leading_minus_reaches_the_state_check(tmp_path, capsys, reference_file,
                                                            command, s0, extra, code, err):
    # argparse would take "-0,4,6" for an option and leave --s0 without a
    # value; it must run like --s0=-0,4,6, and a negative start must fail
    # as one
    runs = []
    for name, argv in (("apart", ["--s0", s0]), ("joined", [f"--s0={s0}"])):
        out = tmp_path / name
        rc = main([command, "--params", reference_file, *argv, *extra, "--out", str(out)])
        std = capsys.readouterr()
        files = {f.name: f.read_bytes() for f in out.iterdir()} if out.exists() else {}
        runs.append((rc, std.out.replace(str(out), "<out>"), std.err, files))
    assert runs[0] == runs[1]
    assert runs[0][0] == code and runs[0][2].startswith(err)
    assert bool(runs[0][3]) == (code == 0)


@pytest.mark.parametrize("s0, species, run", [
    ("0,4,6", "prey", "simulate --subsystem predscav"),
    ("2,0,6", "predator", "simulate --subsystem scavprey"),
    ("2,4,0", "scavenger", "simulate --subsystem predprey"),
    ("0,4,0", "prey", "simulate"),
])
def test_synth_refuses_a_species_at_zero_before_integrating(tmp_path, capsys, monkeypatch,
                                                            s0, species, run):
    # a species that starts at zero stays there, so its column would be
    # constant; synth says so before it integrates, and writes nothing
    def no_integration(*args, **kwargs):
        raise AssertionError("integrated")

    monkeypatch.setattr("ppsdyn.data.integrate", no_integration)
    out = tmp_path / "data"
    code = main(["synth", "--params", str(FIXTURES / "predscav_collapse.params"), "--s0", s0,
                 "--t-end", "20", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: synthesized {species} column is constant: the {species} starts at zero and "
        f"stays there, so min-max scaling is undefined; `{run}` runs the model from this start\n")
    assert not out.exists()


def test_missing_params_file_is_usage_error(tmp_path):
    code = main(["simulate", "--params", str(tmp_path / "nope.params"),
                 "--s0", "1,1,1", "--t-end", "5", "--out", str(tmp_path)])
    assert code == 1


def test_bad_state_string_is_usage_error(tmp_path, params_file):
    code = main(["simulate", "--params", params_file, "--s0", "1,1",
                 "--t-end", "5", "--out", str(tmp_path)])
    assert code == 1


def test_unknown_subsystem_is_usage_error(tmp_path, params_file, capsys):
    code = main(["simulate", "--params", params_file, "--s0", "1,1,1",
                 "--subsystem", "plankton", "--t-end", "5",
                 "--out", str(tmp_path)])
    assert code == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    code = main(["--help"])
    assert code == 0
    assert "simulate" in capsys.readouterr().out


def test_analyze_report(tmp_path, reference_file, capsys):
    out = tmp_path / "analysis"
    code = main(["analyze", "--params", reference_file, "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "Interior" in text and "Stable" in text
    blob = json.loads((out / "equilibria.json").read_text())
    entries = {e["label"]: e for e in blob["equilibria"]}
    interior = entries["Interior"]
    assert interior["point"] == pytest.approx(
        [4.498453864146017, 1.16117816, 0.388951751], abs=1e-6)
    assert interior["stability"]["classification"] == "Stable"
    assert entries["PredScav"]["exists"] is False
    assert "interior_crosscheck" in blob


def test_analyze_flags_multiple_roots(tmp_path, capsys):
    path = tmp_path / "multi.params"
    ModelParams(**MULTI2_CASE).save(path)
    out = tmp_path / "analysis"
    code = main(["analyze", "--params", str(path), "--out", str(out)])
    assert code == 2
    assert "multiple" in capsys.readouterr().err.lower()
    # the report is still written for inspection
    blob = json.loads((out / "equilibria.json").read_text())
    entries = {e["label"]: e for e in blob["equilibria"]}
    assert entries["Interior"]["flag"] == "multiple_roots"


def test_analyze_reports_a_root_the_scan_misses(tmp_path, capsys):
    path = tmp_path / "miss.params"
    ModelParams(**SCAN_MISS_CASES["rng123-371"]).save(path)
    out = tmp_path / "analysis"
    code = main(["analyze", "--params", str(path), "--out", str(out)])
    assert code == 0
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "grid scan counts 0 sign changes for 1 admissible roots" in err
    blob = json.loads((out / "equilibria.json").read_text())
    interior = {e["label"]: e for e in blob["equilibria"]}["Interior"]
    assert interior["exists"] and interior["flag"] is None
    assert interior["point"][0] == pytest.approx(0.6104655437, abs=1e-9)
    assert blob["interior_crosscheck"] == {
        "admissible_roots": [interior["point"][0]], "agrees": False, "scan_sign_changes": 0}


# Byte pins of equilibria.json and the exit code: the five fixtures, two
# roots, no root, and two roots of which the grid scan sees one.  Any change
# to an entry, its checks, the verdicts or the cross-check shows here.
ANALYZE_PINS = {
    "interior_stable": ("98f565cc1267a048dfc0a1344a1ba9fbe57cd7813518b98de170758c5b9fa990", 0),
    "interior_unstable": ("6a259e208e74ef5f3e7f3601a916bd3f11de7440bc170a1a256764819d24ce8f", 0),
    "predprey_coexist": ("eaa4b9b2e77a1c3f73db530205c3380f313722ba16da4451854be38a22b0375e", 0),
    "predscav_collapse": ("ddfec1210840f82c8b5643a03341a6439bf3f0649da697be88d397a869806b60", 0),
    "reference": ("4675fd2ec6b77962283e19d30d38795e7f8b37a5e398654199195ff3a0360042", 0),
    "multi2": ("269e5ab1b0d90f0a768adab5e79773c2a8dc273fe40c6e798d817ad216574847", 2),
    "noroot": ("7201d4272e138f3bb972aac428518f8bbd5193a57ae544fe1bf2f2c113d48536", 0),
    "rng123-1137": ("485ab9dfe61335d197d95d856553df645a38d9ce4cbf4da1069b17480ecfb3d9", 2),
}
ANALYZE_CASES = {"multi2": MULTI2_CASE, "noroot": NOROOT_CASE,
                 "rng123-1137": SCAN_MISS_CASES["rng123-1137"]}


def _analyze_pinned(tmp_path, name, out):
    """(sha256 of equilibria.json, exit code) of analyze on a pinned case."""
    if name in ANALYZE_CASES:
        path = tmp_path / f"{name}.params"
        ModelParams(**ANALYZE_CASES[name]).save(path)
    else:
        path = FIXTURES / f"{name}.params"
    code = main(["analyze", "--params", str(path), "--out", str(out)])
    return hashlib.sha256((out / "equilibria.json").read_bytes()).hexdigest(), code


@pytest.mark.parametrize("name", ANALYZE_PINS)
def test_analyze_report_is_pinned(tmp_path, capsys, name):
    assert _analyze_pinned(tmp_path, name, tmp_path / "analysis") == ANALYZE_PINS[name]
    capsys.readouterr()


def test_analyze_pins_hold_when_each_report_rewrites_the_last(tmp_path, capsys):
    # one --out for every case: each report is written over a longer or a
    # shorter one, and must still be its pin byte for byte
    out = tmp_path / "analysis"
    sizes = []
    for name, pin in ANALYZE_PINS.items():
        assert _analyze_pinned(tmp_path, name, out) == pin, name
        sizes.append((out / "equilibria.json").stat().st_size)
    capsys.readouterr()
    steps = np.diff(sizes)
    assert (steps > 0).any() and (steps < 0).any()


def test_analyze_writes_through_a_symlink_to_the_null_device(tmp_path, capsys, reference_file):
    # a target that cannot be cut to length is written as it stands
    out = tmp_path / "analysis"
    out.mkdir()
    (out / "equilibria.json").symlink_to(os.devnull)
    assert main(["analyze", "--params", reference_file, "--out", str(out)]) == 0
    capsys.readouterr()
    assert os.readlink(out / "equilibria.json") == os.devnull


def _saved(tmp_path, base, **change):
    path = tmp_path / "changed.params"
    ModelParams(**{**base, **change}).save(path)
    return str(path)


def _failing_rerun(tmp_path, command):
    """The argv of a run that succeeds, then of one that fails numerically."""
    if command == "analyze":  # the interior polynomial's companion matrix overflows
        return (["analyze", "--params", str(FIXTURES / "reference.params")],
                ["analyze", "--params", _saved(tmp_path, REFERENCE, j=1e150)])
    # the second start passes the overflow guard
    argv = ["simulate", "--params", str(FIXTURES / "predscav_collapse.params"),
            "--subsystem", "predscav", "--t-end", "200", "--s0"]
    return argv + ["0,4,6"], argv + ["0,4,7"]


@pytest.mark.parametrize("command", ["analyze", "simulate"])
def test_a_numerical_failure_leaves_no_earlier_artifact(tmp_path, capsys, command):
    # into one --out: the failing run removes every artifact of the first
    first, failing = _failing_rerun(tmp_path, command)
    out = tmp_path / "out"
    assert main(first + ["--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(ARTIFACTS[command])
    assert main(failing + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith("numerical failure: ")
    assert list(out.iterdir()) == []


def test_an_input_error_leaves_the_earlier_artifacts(tmp_path, capsys, reference_file):
    # exit 1 removes nothing: under the default --out . the files of those
    # names may be the user's own
    out = tmp_path / "out"
    assert main(["analyze", "--params", reference_file, "--out", str(out)]) == 0
    report = (out / "equilibria.json").read_bytes()
    with open(reference_file, encoding="utf-8") as fh:
        lines = ["r = abc" if line.startswith("r =") else line for line in fh.read().splitlines()]
    bad = tmp_path / "bad.params"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["analyze", "--params", str(bad), "--out", str(out)]) == 1
    assert "non-numeric value 'abc'" in capsys.readouterr().err
    assert (out / "equilibria.json").read_bytes() == report


def test_synth_is_byte_reproducible(tmp_path, reference_file):
    out1 = tmp_path / "one"
    out2 = tmp_path / "two"
    argv = ["synth", "--params", reference_file, "--s0", "4.991,1.178,0.577",
            "--t-end", "5", "--points", "40", "--noise", "0.02", "--seed", "7"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert ((out1 / "dataset.csv").read_bytes()
            == (out2 / "dataset.csv").read_bytes())
    assert ((out1 / "dataset.provenance.json").read_bytes()
            == (out2 / "dataset.provenance.json").read_bytes())


def test_every_json_artifact_is_the_stdlib_text(tmp_path, reference_file, capsys):
    # analyze on the shipped fixtures and a multiple-root draw, synth, and a short estimate
    multi = tmp_path / "multi.params"
    ModelParams(**MULTI2_CASE).save(multi)
    for path in sorted(FIXTURES.glob("*.params")) + [multi]:
        assert main(["analyze", "--params", str(path), "--out", str(tmp_path / path.stem)]) in (0, 2)
    data = tmp_path / "data"
    assert main(["synth", "--params", reference_file, "--s0", "4.991,1.178,0.577",
                 "--t-end", "5", "--points", "40", "--noise", "0.02", "--out", str(data)]) == 0
    assert main(["estimate", "--dataset", str(data / "dataset.csv"), "--epochs", "2",
                 "--bfgs-iterations", "3", "--out", str(tmp_path / "fit")]) == 0
    written = sorted(tmp_path.rglob("*.json"))
    assert len(written) == 8
    for path in written:
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n", path


def test_analyze_leaves_no_cyclic_garbage(tmp_path, reference_file, capsys):
    argv = ["analyze", "--params", reference_file, "--out", str(tmp_path / "analysis")]
    assert main(argv) == 0  # warm: parser and imports
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main(argv) == 0
        gc.collect()
        garbage = [type(obj).__name__ for obj in gc.garbage]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert garbage == []


def test_synth_numerical_failure_exits_two(tmp_path):
    # and removes the dataset an earlier run left in --out
    argv = ["synth", "--s0", "4,3,2", "--t-end", "200", "--out", str(tmp_path), "--params"]
    assert main(argv + [str(FIXTURES / "interior_stable.params")]) == 0
    assert (tmp_path / "dataset.csv").exists()
    code = main(argv + [_saved(tmp_path, INTERIOR_STABLE, r=1e9)])
    assert code == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["changed.params"]


def test_estimate_rejects_short_dataset(tmp_path, reference_file):
    out = tmp_path / "data"
    assert main(["synth", "--params", reference_file,
                 "--s0", "4.991,1.178,0.577", "--t-end", "5",
                 "--points", "40", "--out", str(out)]) == 0
    csv = out / "dataset.csv"
    lines = csv.read_text().splitlines()
    csv.write_text("\n".join(lines[:3]) + "\n")  # header + 2 rows
    code = main(["estimate", "--dataset", str(csv), "--out", str(tmp_path)])
    assert code == 1


def test_estimate_end_to_end_and_reproducible(tmp_path, reference_file):
    data_dir = tmp_path / "data"
    assert main(["synth", "--params", reference_file,
                 "--s0", "4.991,1.178,0.577", "--t-end", "5",
                 "--points", "40", "--out", str(data_dir)]) == 0
    argv = ["estimate", "--dataset", str(data_dir / "dataset.csv"),
            "--seed", "0", "--epochs", "3", "--bfgs-iterations", "8"]
    out1 = tmp_path / "fit1"
    out2 = tmp_path / "fit2"
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    for name in ("report.json", "trace.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert (out1 / "fit.svg").exists()
    blob = json.loads((out1 / "report.json").read_text())
    assert blob["seed"] == 0
    assert len(blob["adam_trace"]) == 3


@pytest.mark.parametrize("flag, value", [("--epochs", "-1"), ("--bfgs-iterations", "0")],
                         ids=["epochs", "bfgs-iterations"])
def test_estimate_rejects_bad_budget_before_training(tmp_path, capsys, monkeypatch,
                                                     reference_file, flag, value):
    dataset = _synth_dataset(tmp_path, reference_file)
    capsys.readouterr()

    def no_training(*args, **kwargs):
        raise AssertionError("estimation started")

    monkeypatch.setattr("ppsdyn.cli.run_estimate", no_training)
    out = tmp_path / "fit"
    code = main(["estimate", "--dataset", str(dataset), flag, value, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and flag in err
    assert not out.exists()


def test_estimate_from_survey_csv(tmp_path):
    survey = tmp_path / "survey.csv"
    p = ModelParams(**REFERENCE)
    ds = synthesize(p, State(4.991, 1.178, 0.577), np.linspace(0.0, 5.0, 12))
    raw = ds.raw_observations
    lines = ["year,hare,lynx,crow"]
    for year, row in zip(range(2000, 2012), raw):
        lines.append(f"{year},{float(row[0])!r},{float(row[1])!r},"
                     f"{float(row[2])!r}")
    survey.write_text("\n".join(lines) + "\n")
    smap = tmp_path / "map.json"
    smap.write_text(json.dumps({"hare": "prey", "lynx": "predator",
                                "crow": "scavenger"}))
    out = tmp_path / "fit"
    code = main(["estimate", "--dataset", str(survey),
                 "--species-map", str(smap), "--epochs", "2",
                 "--bfgs-iterations", "4", "--out", str(out)])
    assert code == 0
    assert (out / "report.json").exists()


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_estimate_rejects_nonfinite_survey_cell_as_data_error(tmp_path, capsys, bad):
    survey = tmp_path / "survey.csv"
    survey.write_text("year,hare,lynx,crow\n2001,10,3,2\n"
                      f"2002,{bad},4,4\n2003,30,5,6\n2004,25,6,3\n")
    smap = tmp_path / "map.json"
    smap.write_text(json.dumps({"hare": "prey", "lynx": "predator",
                                "crow": "scavenger"}))
    code = main(["estimate", "--dataset", str(survey), "--species-map", str(smap),
                 "--epochs", "2", "--bfgs-iterations", "2", "--out", str(tmp_path / "fit")])
    assert code == 1
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "fit" / "report.json").exists()


NONFINITE_ARGS = {
    "simulate-t-end-nan": ["simulate", "--s0", "4,3,2", "--t-end", "nan"],
    "simulate-t-end-inf": ["simulate", "--s0", "4,3,2", "--t-end", "inf"],
    "simulate-tol-nan": ["simulate", "--s0", "4,3,2", "--t-end", "5", "--tol", "nan"],
    "simulate-s0-nan": ["simulate", "--s0", "nan,1,1", "--t-end", "5"],
    "simulate-s0-inf": ["simulate", "--s0", "inf,1,1", "--t-end", "5"],
    "simulate-rk4-step-nan": ["simulate", "--s0", "4,3,2", "--t-end", "5",
                              "--method", "rk4", "--step", "nan"],
    "synth-noise-nan": ["synth", "--s0", "4.991,1.178,0.577", "--t-end", "5", "--noise", "nan"],
    "synth-s0-nan": ["synth", "--s0", "nan,3,2", "--t-end", "5"],
    "synth-t-end-nan": ["synth", "--s0", "4.991,1.178,0.577", "--t-end", "nan"],
}


@pytest.mark.parametrize("argv", NONFINITE_ARGS.values(), ids=NONFINITE_ARGS.keys())
def test_nonfinite_numeric_argument_is_usage_error(tmp_path, capsys, reference_file, argv):
    out = tmp_path / "run"
    code = main(argv[:1] + ["--params", reference_file, "--out", str(out)] + argv[1:])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite" in err
    assert not out.exists() or not any(out.iterdir())


def _synth_dataset(tmp_path, reference_file):
    out = tmp_path / "data"
    assert main(["synth", "--params", reference_file, "--s0", "4.991,1.178,0.577",
                 "--t-end", "5", "--points", "12", "--out", str(out)]) == 0
    return out / "dataset.csv"


def _drop_mins(info):
    del info["mins"]
    return info


BAD_SIDECARS = {
    "no-mins": _drop_mins,
    "t_start-null": lambda info: {**info, "t_start": None},
    "t-bools": lambda info: {**info, "t_start": False, "t_end": True},
    "mins-bool": lambda info: {**info, "mins": [info["mins"][0], True, info["mins"][2]]},
}


@pytest.mark.parametrize("edit", BAD_SIDECARS.values(), ids=BAD_SIDECARS.keys())
def test_estimate_rejects_bad_sidecar_as_usage_error(tmp_path, capsys, reference_file, edit):
    csv = _synth_dataset(tmp_path, reference_file)
    side = csv.with_name("dataset.provenance.json")
    side.write_text(json.dumps(edit(json.loads(side.read_text()))))
    capsys.readouterr()
    code = main(["estimate", "--dataset", str(csv), "--epochs", "1",
                 "--bfgs-iterations", "1", "--out", str(tmp_path / "fit")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: provenance sidecar")


def test_estimate_rejects_species_map_that_is_not_an_object(tmp_path, capsys):
    survey = tmp_path / "survey.csv"
    survey.write_text("year,hare,lynx,crow\n2001,10,3,2\n2002,20,4,4\n2003,30,5,6\n")
    smap = tmp_path / "map.json"
    smap.write_text(json.dumps(["hare", "lynx", "crow"]))
    code = main(["estimate", "--dataset", str(survey), "--species-map", str(smap),
                 "--out", str(tmp_path / "fit")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: species map")


def _dataset_with_bad_cell(bad):
    def make(tmp_path, reference_file):
        csv = _synth_dataset(tmp_path, reference_file)
        lines = csv.read_text().splitlines()
        lines[5] = lines[5].rsplit(",", 1)[0] + "," + bad
        csv.write_text("\n".join(lines) + "\n")
        return ["--dataset", str(csv)], "error: line 6: "
    return make


def _survey_with_nan_cell(tmp_path, reference_file):
    # the survey reader words a bad row as the t,x,y,z reader does
    survey = tmp_path / "survey.csv"
    survey.write_text("year,hare,lynx,crow\n2001,10,3,2\n2002,nan,4,4\n2003,30,5,6\n")
    smap = tmp_path / "map.json"
    smap.write_text(json.dumps({"hare": "prey", "lynx": "predator", "crow": "scavenger"}))
    return (["--dataset", str(survey), "--species-map", str(smap)],
            "error: line 3: non-finite value in '2002,nan,4,4'")


BAD_CELLS = {
    "nan": _dataset_with_bad_cell("nan"),
    "oops": _dataset_with_bad_cell("oops"),
    "survey-nan": _survey_with_nan_cell,
}


@pytest.mark.parametrize("make", BAD_CELLS.values(), ids=BAD_CELLS.keys())
def test_estimate_names_the_line_of_a_bad_dataset_cell(tmp_path, capsys, reference_file, make):
    source, message = make(tmp_path, reference_file)
    capsys.readouterr()
    code = main(["estimate", *source, "--epochs", "1",
                 "--bfgs-iterations", "1", "--out", str(tmp_path / "fit")])
    assert code == 1
    assert capsys.readouterr().err.startswith(message)
    assert not (tmp_path / "fit" / "report.json").exists()


@pytest.mark.parametrize("argv", [
    ["estimate", "--dataset", "{missing}"],
    ["synth", "--params", "{params}", "--s0", "4,3,2", "--t-end", "5", "--noise", "0"],
    ["synth", "--params", "{params}", "--s0", "4,3,2", "--t-end", "5", "--noise", "0.02"],
], ids=["estimate", "synth-noise-0", "synth-noise-0.02"])
def test_negative_seed_is_usage_error_before_any_work(tmp_path, capsys, monkeypatch,
                                                       params_file, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr("ppsdyn.cli.run_estimate", no_work)
    monkeypatch.setattr("ppsdyn.cli.synthesize", no_work)
    out = tmp_path / "run"
    argv = [a.format(missing=tmp_path / "missing.csv", params=params_file) for a in argv]
    code = main(argv + ["--seed", "-1", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "error: --seed must be at least 0, got -1\n"
    assert not out.exists()


def test_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


def _sha256s(out):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def test_shared_parser_leaks_no_option_between_calls(tmp_path, capsys):
    # a clamping run, a run without --clamp, a usage error, --help and
    # analyze, in one process; each must write what it writes run alone,
    # with a parser built afresh
    # at this loose tolerance one step ends with a negative component, which
    # --clamp pins at zero; without it the run goes on from below zero
    params = tmp_path / "overshoot.params"
    ModelParams(r=1.33, k=2.64, a=0.35, a0=2.15, b=2.39, b0=2.42, d=1.03, e=2.41, f=0.75,
                g=1.15, h=1.31, i=1.67, i0=0.43, j=1.28).save(params)
    simulate = ["simulate", "--params", str(params), "--s0", "0.1,3,3.42",
                "--t-end", "10", "--tol", "0.1"]
    sequence = [
        ("clamp", simulate + ["--clamp"], 0),
        ("diagnose", simulate, 0),
        ("unknown", simulate + ["--no-such-flag"], 1),
        ("help", ["simulate", "--help"], 0),
        ("analyze", ["analyze", "--params", str(params)], 0),
    ]
    for name, argv, code in sequence:
        assert main(argv + ["--out", str(tmp_path / "together" / name)]) == code
    for name, argv, code in sequence:
        build_parser.cache_clear()
        assert main(argv + ["--out", str(tmp_path / "alone" / name)]) == code
    capsys.readouterr()
    for name in ("clamp", "diagnose", "analyze"):
        together = _sha256s(tmp_path / "together" / name)
        assert together and together == _sha256s(tmp_path / "alone" / name)
    assert _sha256s(tmp_path / "together" / "clamp") != _sha256s(tmp_path / "together" / "diagnose")
    assert not (tmp_path / "together" / "unknown").exists()


def test_cached_parser_calls_the_patched_estimator(tmp_path, capsys, monkeypatch, reference_file):
    # the parser built before the patch keeps cmd_estimate, which looks the
    # estimator up when it runs
    build_parser()
    dataset = _synth_dataset(tmp_path, reference_file)
    seen = []

    def patched(ds, seed, **kwargs):
        seen.append((seed, kwargs))
        raise ValueError("patched estimator")

    monkeypatch.setattr("ppsdyn.cli.run_estimate", patched)
    code = main(["estimate", "--dataset", str(dataset), "--seed", "3", "--out", str(tmp_path / "fit")])
    assert code == 1
    assert seen == [(3, {"epochs": 100, "bfgs_iterations": 200})]
    assert capsys.readouterr().err == "error: patched estimator\n"


def test_failed_estimate_exits_2_with_its_stage_error(tmp_path, capsys, monkeypatch,
                                                      reference_file):
    # a polish that fails at its start leaves no finite MSE: the report and
    # trace are still written, without a fit plot, an earlier run's plot is
    # removed, and the stage error goes to stderr
    dataset = _synth_dataset(tmp_path, reference_file)

    def failing_polish(fun, u0, max_iterations, lower_bound):
        raise NonFiniteLoss("objective non-finite at the start")

    monkeypatch.setattr("ppsdyn.pinn.bfgs_run", failing_polish)
    out = tmp_path / "fit"
    out.mkdir()
    (out / "fit.svg").write_text("<svg/>\n")
    code = main(["estimate", "--dataset", str(dataset), "--epochs", "2", "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == "stage error: polish stage: objective non-finite at the start\n"
    assert "final MSE inf" in captured.out
    assert sorted(p.name for p in out.iterdir()) == ["report.json", "trace.csv"]
    assert json.loads((out / "report.json").read_text())["final_mse"] == math.inf
