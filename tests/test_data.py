import ast
import json
import os

import numpy as np
import pytest

from ppsdyn.data import (GROUPS, Dataset, SpeciesMap, denormalize, ingest,
                         normalize, provenance_path, synthesize)
from ppsdyn.errors import (ConstantColumn, MissingColumn, NonNumericCell,
                           TooFewSamples, UnmappedSpecies)
from ppsdyn.model import State
from ppsdyn.solver import Trajectory


def test_synthesize_matches_regression_ranges(reference_dataset):
    ds = reference_dataset
    assert ds.sample_count == 40
    assert ds.ranges == pytest.approx(
        [1.62307686, 0.24463331, 0.28234046], abs=2e-7)
    first = denormalize(ds, State(*ds.observations[0], t=ds.raw_times[0]))
    assert first.x == pytest.approx(4.991, abs=1e-9)
    assert first.y == pytest.approx(1.178, abs=1e-9)
    assert first.z == pytest.approx(0.577, abs=1e-9)


def test_synthesize_normalizes_to_unit_interval(reference_dataset):
    ds = reference_dataset
    assert float(ds.observations.min()) == 0.0
    assert float(ds.observations.max()) == 1.0
    assert ds.times[0] == 0.0 and ds.times[-1] == 1.0
    assert ds.t_start == 0.0 and ds.t_end == 5.0


def test_synthesize_rejects_nonfinite_grid_and_noise(reference_params):
    s0 = State(4.991, 1.178, 0.577)
    grid = np.linspace(0.0, 5.0, 25)
    holed = grid.copy()
    holed[7] = np.nan
    with pytest.raises(ValueError, match="t_grid must be finite"):
        synthesize(reference_params, s0, holed)
    for noise in (np.nan, np.inf):
        with pytest.raises(ValueError, match="noise_sigma"):
            synthesize(reference_params, s0, grid, noise_sigma=noise)


def test_noise_is_seed_deterministic(reference_params):
    grid = np.linspace(0.0, 5.0, 25)
    s0 = State(4.991, 1.178, 0.577)
    a = synthesize(reference_params, s0, grid, noise_sigma=0.05, seed=4)
    b = synthesize(reference_params, s0, grid, noise_sigma=0.05, seed=4)
    c = synthesize(reference_params, s0, grid, noise_sigma=0.05, seed=5)
    assert np.array_equal(a.observations, b.observations)
    assert not np.array_equal(a.observations, c.observations)


def test_noise_scales_with_column_range(reference_params):
    grid = np.linspace(0.0, 5.0, 25)
    s0 = State(4.991, 1.178, 0.577)
    clean = synthesize(reference_params, s0, grid)
    noisy = synthesize(reference_params, s0, grid, noise_sigma=0.05, seed=1)
    raw_clean = clean.raw_observations
    raw_noisy = noisy.raw_observations
    assert np.all(raw_noisy >= 0.0)  # clamped after perturbation
    for col in range(3):
        span = raw_clean[:, col].max() - raw_clean[:, col].min()
        dev = np.abs(raw_noisy[:, col] - raw_clean[:, col])
        assert dev.max() < 5.0 * 0.05 * span


def test_normalize_denormalize_round_trip(reference_dataset):
    ds = reference_dataset
    rng = np.random.default_rng(2)
    for _ in range(20):
        s = State(*rng.uniform(0.0, 1.0, 3), t=float(rng.uniform(0.0, 5.0)))
        back = normalize(ds, denormalize(ds, s))
        assert back == pytest.approx(tuple(s), abs=1e-12)


def test_denormalize_endpoints(reference_dataset):
    ds = reference_dataset
    low = denormalize(ds, State(0.0, 0.0, 0.0, t=0.0))
    high = denormalize(ds, State(1.0, 1.0, 1.0, t=1.0))
    assert low == pytest.approx(tuple(ds.mins) + (ds.t_start,), abs=1e-12)
    assert high == pytest.approx(tuple(ds.maxs) + (ds.t_end,), abs=1e-12)


def test_csv_round_trip_is_exact(tmp_path, reference_dataset):
    path = tmp_path / "ds.csv"
    reference_dataset.to_csv(path)
    again = Dataset.from_csv(path)
    assert np.array_equal(again.times, reference_dataset.times)
    assert np.array_equal(again.observations, reference_dataset.observations)
    assert np.array_equal(again.mins, reference_dataset.mins)
    assert np.array_equal(again.maxs, reference_dataset.maxs)
    # a second write must be byte-identical
    path2 = tmp_path / "ds2.csv"
    again.to_csv(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_csv_requires_sidecar(tmp_path, reference_dataset):
    path = tmp_path / "ds.csv"
    reference_dataset.to_csv(path)
    os.remove(provenance_path(path))
    with pytest.raises(MissingColumn):
        Dataset.from_csv(path)


def test_csv_rejects_corrupt_cells(tmp_path, reference_dataset):
    path = tmp_path / "ds.csv"
    reference_dataset.to_csv(path)
    lines = path.read_text().splitlines()
    lines[3] = lines[3].rsplit(",", 1)[0] + ",oops"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(NonNumericCell):
        Dataset.from_csv(path)


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_csv_rejects_nonfinite_cells(tmp_path, reference_dataset, bad):
    path = tmp_path / "ds.csv"
    reference_dataset.to_csv(path)
    lines = path.read_text().splitlines()
    lines[3] = lines[3].rsplit(",", 1)[0] + "," + bad
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        Dataset.from_csv(path)


MALFORMED_ROWS = {
    "bad-header": lambda lines: ["t,x,y,w"] + lines[1:],
    "3-cells": lambda lines: lines[:3] + [lines[3].rsplit(",", 1)[0]] + lines[4:],
    "5-cells": lambda lines: lines[:3] + [lines[3] + ",1.0"] + lines[4:],
    "oops": lambda lines: lines[:3] + [lines[3].rsplit(",", 1)[0] + ",oops"] + lines[4:],
    "nan": lambda lines: lines[:3] + [lines[3].rsplit(",", 1)[0] + ",nan"] + lines[4:],
    "inf": lambda lines: lines[:3] + [lines[3].rsplit(",", 1)[0] + ",inf"] + lines[4:],
}


@pytest.mark.parametrize("edit", MALFORMED_ROWS.values(), ids=MALFORMED_ROWS.keys())
def test_both_readers_reject_a_malformed_file_alike(tmp_path, reference_dataset, edit):
    # a dataset file, sidecar and all, is also a trajectory file; both
    # readers must turn down the same rows with the same error
    path = tmp_path / "ds.csv"
    reference_dataset.to_csv(path)
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    errors = []
    for reader in (Trajectory.from_csv, Dataset.from_csv):
        with pytest.raises(ValueError) as info:
            reader(path)
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1]
    assert errors[0][0] in (MissingColumn, NonNumericCell)
    if errors[0][0] is NonNumericCell:
        assert errors[0][1].startswith("line 4: ")


@pytest.mark.parametrize("field", ["times", "observations", "mins", "t_end"])
def test_dataset_rejects_nonfinite_values(reference_dataset, field):
    ds = reference_dataset
    kw = dict(times=ds.times.copy(), observations=ds.observations.copy(),
              mins=ds.mins.copy(), maxs=ds.maxs.copy(),
              t_start=ds.t_start, t_end=ds.t_end)
    if field == "t_end":
        kw["t_end"] = float("inf")
    else:
        kw[field].flat[1] = float("nan")
    with pytest.raises(ValueError, match="finite"):
        Dataset(**kw)


def test_dataset_requires_three_samples():
    with pytest.raises(TooFewSamples):
        Dataset(times=np.array([0.0, 1.0]),
                observations=np.zeros((2, 3)),
                mins=(0.0, 0.0, 0.0), maxs=(1.0, 1.0, 1.0),
                t_start=0.0, t_end=1.0, meta={})


def test_dataset_rejects_flat_column():
    with pytest.raises(ConstantColumn):
        Dataset(times=np.linspace(0.0, 1.0, 4),
                observations=np.random.default_rng(0).uniform(0, 1, (4, 3)),
                mins=(0.0, 0.5, 0.0), maxs=(1.0, 0.5, 1.0),
                t_start=0.0, t_end=1.0, meta={})


# ---------------------------------------------------------------- ingest

def _write_survey(path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def test_ingest_sums_groups_and_normalizes(tmp_path):
    csv = tmp_path / "survey.csv"
    _write_survey(csv, ["year", "hare", "lynx", "fox", "crow"], [
        [2001, 10.0, 3.0, 1.0, 2.0],
        [2002, 20.0, 4.0, 2.0, 2.0],
        [2003, 30.0, 5.0, 3.0, 6.0],
    ])
    smap = SpeciesMap({"hare": "prey", "lynx": "predator",
                       "fox": "predator", "crow": "scavenger"})
    ds = ingest(csv, smap)
    assert ds.sample_count == 3
    # predator totals 4, 6, 8 -> normalized 0, 0.5, 1
    assert ds.observations[:, 1] == pytest.approx([0.0, 0.5, 1.0], abs=1e-12)
    assert ds.mins[1] == 4.0 and ds.maxs[1] == 8.0
    assert ds.t_start == 2001.0 and ds.t_end == 2003.0


def test_ingest_sorts_rows_by_year(tmp_path):
    csv = tmp_path / "survey.csv"
    _write_survey(csv, ["year", "hare", "lynx", "crow"], [
        [2003, 30.0, 5.0, 6.0],
        [2001, 10.0, 3.0, 2.0],
        [2002, 20.0, 4.0, 4.0],
    ])
    smap = SpeciesMap({"hare": "prey", "lynx": "predator", "crow": "scavenger"})
    ds = ingest(csv, smap)
    assert list(ds.raw_times) == [2001.0, 2002.0, 2003.0]
    assert ds.mins[0] == 10.0


def test_ingest_rejects_duplicate_years(tmp_path):
    csv = tmp_path / "survey.csv"
    _write_survey(csv, ["year", "hare", "lynx", "crow"], [
        [2001, 10.0, 3.0, 2.0],
        [2001, 20.0, 4.0, 4.0],
        [2002, 30.0, 5.0, 6.0],
    ])
    smap = SpeciesMap({"hare": "prey", "lynx": "predator", "crow": "scavenger"})
    with pytest.raises(ValueError):
        ingest(csv, smap)


def test_species_map_requires_all_groups():
    with pytest.raises(MissingColumn):
        SpeciesMap({"hare": "prey", "lynx": "predator"})


def test_ingest_requires_mapped_columns(tmp_path):
    # map is complete but the survey lacks the scavenger column
    csv = tmp_path / "survey.csv"
    _write_survey(csv, ["year", "hare", "lynx"], [
        [2001, 10.0, 3.0], [2002, 20.0, 4.0], [2003, 30.0, 5.0],
    ])
    smap = SpeciesMap({"hare": "prey", "lynx": "predator", "crow": "scavenger"})
    with pytest.raises(MissingColumn):
        ingest(csv, smap)


def test_ingest_rejects_unmapped_column(tmp_path):
    csv = tmp_path / "survey.csv"
    _write_survey(csv, ["year", "hare", "lynx", "crow", "owl"], [
        [2001, 10.0, 3.0, 2.0, 1.0],
        [2002, 20.0, 4.0, 4.0, 1.0],
        [2003, 30.0, 5.0, 6.0, 1.0],
    ])
    smap = SpeciesMap({"hare": "prey", "lynx": "predator", "crow": "scavenger"})
    with pytest.raises(UnmappedSpecies):
        ingest(csv, smap)


def test_ingest_rejects_constant_group(tmp_path):
    csv = tmp_path / "survey.csv"
    _write_survey(csv, ["year", "hare", "lynx", "crow"], [
        [2001, 10.0, 3.0, 2.0],
        [2002, 20.0, 4.0, 2.0],
        [2003, 30.0, 5.0, 2.0],
    ])
    smap = SpeciesMap({"hare": "prey", "lynx": "predator", "crow": "scavenger"})
    with pytest.raises(ConstantColumn):
        ingest(csv, smap)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_ingest_rejects_nonfinite_cell(tmp_path, bad):
    csv = tmp_path / "survey.csv"
    _write_survey(csv, ["year", "hare", "lynx", "crow"], [
        [2001, 10.0, 3.0, 2.0],
        [2002, bad, 4.0, 4.0],
        [2003, 30.0, 5.0, 6.0],
    ])
    smap = SpeciesMap({"hare": "prey", "lynx": "predator", "crow": "scavenger"})
    with pytest.raises(NonNumericCell, match="line 3"):
        ingest(csv, smap)


def test_species_map_validates_groups():
    with pytest.raises(UnmappedSpecies):
        SpeciesMap({"hare": "rodent"})
    assert set(GROUPS) == {"prey", "predator", "scavenger"}


def test_species_map_load_lowercases(tmp_path):
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"Hare": "Prey", "Lynx": "PREDATOR",
                                "Crow": "scavenger"}))
    smap = SpeciesMap.load(path)
    assert smap.groups["Hare"] == "prey"
    assert smap.groups["Lynx"] == "predator"


def test_no_module_writes_indented_json_through_the_stdlib():
    # every JSON artifact goes through data.json_text
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src", "ppsdyn")
    calls = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), name)
            calls += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and node.func.attr in ("dump", "dumps")
                      and any(kw.arg == "indent" for kw in node.keywords)]
    assert calls == []
