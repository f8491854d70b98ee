"""Time-series ingestion, min-max normalization, and synthetic fixtures.

A Dataset always lives in normalized coordinates: times and the three
species-group columns (prey, predator, scavenger) each mapped to [0, 1],
with the raw ranges kept alongside so every value can be mapped back.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from ._files import rewrite
from .errors import (
    ConstantColumn,
    MissingColumn,
    TooFewSamples,
    UnmappedSpecies,
    integer,
    real,
)
from .model import SUBSYSTEMS, ModelParams, State
from .solver import SolverConfig, check_start, integrate, parse_row, read_rows_csv, write_rows_csv

GROUPS = ("prey", "predator", "scavenger")
_EPS = 1e-12
# the stdlib's spellings of the float reprs that are not JSON numbers
_FLOAT_NAMES = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def json_text(obj) -> str:
    """The text of `json.dumps(obj, sort_keys=True, indent=2)`, byte for byte.

    The one writer of every JSON artifact.  It takes str, None, bool, int,
    float and their subclasses (np.float64 among them), lists, tuples and
    dicts with str keys; anything else, np.int64 and non-str keys included,
    raises TypeError.  Unlike the stdlib with an indent, it runs no
    pure-Python generator encoder and leaves no cyclic garbage.
    """
    return _json(obj, "\n")


def _json(o, nl: str) -> str:
    # no type is both of two tested kinds, so the order is free; nl is the
    # newline and indent of the line o starts on
    if isinstance(o, float):
        text = float.__repr__(o)
        return _FLOAT_NAMES.get(text, text)
    if isinstance(o, str):
        return _quote(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    inner = nl + "  "
    if isinstance(o, dict):
        if not o:
            return "{}"
        # a non-str key fails the sort or the quoting with TypeError
        items = [f"{_quote(k)}: {_json(v, inner)}" for k, v in sorted(o.items())]
        return f"{{{inner}{(',' + inner).join(items)}{nl}}}"
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        return f"[{inner}{(',' + inner).join([_json(v, inner) for v in o])}{nl}]"
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


@dataclass
class Dataset:
    """Normalized observations plus the affine maps back to raw units."""

    times: np.ndarray        # (T,), in [0,1], strictly increasing
    observations: np.ndarray  # (T, 3), columns (prey, predator, scavenger), in [0,1]
    mins: np.ndarray         # raw per-column minima
    maxs: np.ndarray
    t_start: float
    t_end: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.t_start = real("t_start", self.t_start)
        self.t_end = real("t_end", self.t_end)
        self.times = np.asarray(self.times, dtype=float)
        self.observations = np.asarray(self.observations, dtype=float)
        self.mins = np.asarray(self.mins, dtype=float)
        self.maxs = np.asarray(self.maxs, dtype=float)
        if self.times.ndim != 1 or self.times.size < 3:
            raise TooFewSamples(f"need at least 3 samples, got times of shape {self.times.shape}")
        if self.observations.shape != (self.times.size, 3):
            raise ValueError("observations must have shape (T, 3)")
        if self.mins.shape != (3,) or self.maxs.shape != (3,):
            raise ValueError("mins and maxs must have 3 entries")
        for name in ("times", "observations", "mins", "maxs"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"dataset {name} must be finite")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        lo = min(self.times.min(), self.observations.min())
        hi = max(self.times.max(), self.observations.max())
        if lo < -_EPS or hi > 1.0 + _EPS:
            raise ValueError("normalized values must lie in [0, 1]")
        if np.any(self.maxs - self.mins <= 0):
            raise ConstantColumn("raw column range must be positive")
        if not self.t_end > self.t_start:
            raise ValueError("t_end must exceed t_start")

    @property
    def sample_count(self) -> int:
        return int(self.times.size)

    @property
    def ranges(self) -> np.ndarray:
        return self.maxs - self.mins

    @property
    def raw_times(self) -> np.ndarray:
        return self.t_start + self.times * (self.t_end - self.t_start)

    @property
    def raw_observations(self) -> np.ndarray:
        return self.mins + self.observations * self.ranges

    def to_csv(self, path) -> None:
        """Write normalized rows as `t,x,y,z`; raw ranges and metadata go to a
        .provenance.json sidecar so from_csv can rebuild the dataset exactly."""
        write_rows_csv(path, self.times, self.observations)
        sidecar = {
            "t_start": self.t_start,
            "t_end": self.t_end,
            "mins": [float(v) for v in self.mins],
            "maxs": [float(v) for v in self.maxs],
            "meta": self.meta,
        }
        with rewrite(provenance_path(path)) as fh:
            fh.write(json_text(sidecar) + "\n")

    @classmethod
    def from_csv(cls, path) -> "Dataset":
        times, obs = read_rows_csv(path)
        side = provenance_path(path)
        if not os.path.exists(side):
            raise MissingColumn(f"provenance sidecar not found: {side}")
        with open(side, encoding="utf-8") as fh:
            info = json.load(fh)
        keys = ("mins", "maxs", "t_start", "t_end")
        if not (isinstance(info, dict) and all(k in info for k in keys)):
            raise MissingColumn(f"provenance sidecar {side} needs the keys {', '.join(keys)}")
        try:
            mins, maxs = ([real(k, v) for v in info[k]] for k in keys[:2])
            t_start, t_end = (real(k, info[k]) for k in keys[2:])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"provenance sidecar {side}: {exc}") from None
        return cls(times, obs, mins, maxs, t_start, t_end, info.get("meta", {}))

    @classmethod
    def from_raw(cls, raw_times, raw, meta, what="") -> "Dataset":
        """Min-max normalize the raw times (T,) and each group column of
        raw (T, 3), then construct; `what` prefixes the column names in
        errors."""
        tnorm, t0, t1 = _normalize_column(raw_times, f"{what}time column")
        cols, mins, maxs = zip(*(_normalize_column(raw[:, gi], f"{what}{grp} column")
                                 for gi, grp in enumerate(GROUPS)))
        return cls(tnorm, np.column_stack(cols), np.array(mins), np.array(maxs), t0, t1, meta)


def provenance_path(csv_path) -> str:
    return os.path.splitext(str(csv_path))[0] + ".provenance.json"


@dataclass(frozen=True)
class SpeciesMap:
    """Species column name -> group; every group must be represented."""

    groups: dict

    def __post_init__(self):
        for name, grp in self.groups.items():
            if grp not in GROUPS:
                raise UnmappedSpecies(f"{name!r} mapped to unknown group {grp!r}")
        for grp in GROUPS:
            if grp not in self.groups.values():
                raise MissingColumn(f"species map has no {grp} entry")

    @classmethod
    def load(cls, path) -> "SpeciesMap":
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError(f"species map {path} must be a JSON object of column -> group")
        return cls({str(k): str(v).strip().lower() for k, v in raw.items()})


def _normalize_column(values: np.ndarray, what: str):
    lo = float(values.min())
    hi = float(values.max())
    if hi - lo <= 0:
        raise ConstantColumn(f"{what} is constant; min-max scaling undefined")
    return (values - lo) / (hi - lo), lo, hi


def ingest(csv_path, species_map: SpeciesMap) -> Dataset:
    """Sum species counts within each group per row, then min-max normalize
    each group column and the time column independently.

    Fixed schema: header row, first column `year`, remaining columns species
    counts.  Rows are sorted by year; years must be distinct.
    """
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise MissingColumn("empty file: no header row")
    header = [h.strip() for h in rows[0]]
    if not header or header[0].lower() != "year":
        raise MissingColumn("first column must be 'year'")
    species = header[1:]
    if not species:
        raise MissingColumn("no species columns after 'year'")
    for name in species:
        if name not in species_map.groups:
            raise UnmappedSpecies(f"column {name!r} missing from the species map")
    group_cols = {
        grp: [ci for ci, name in enumerate(species) if species_map.groups[name] == grp]
        for grp in GROUPS
    }
    for grp, cols in group_cols.items():
        if not cols:
            raise MissingColumn(f"no CSV column mapped to {grp}")
    years = []
    sums = []
    for lineno, row in enumerate(rows[1:], start=2):
        vals = parse_row(row, lineno, len(header))
        years.append(vals[0])
        sums.append([sum(vals[1 + ci] for ci in group_cols[grp]) for grp in GROUPS])
    order = np.argsort(years)
    years = np.array(years)[order]
    raw = np.array(sums)[order]
    if np.any(np.diff(years) <= 0):
        raise ValueError("year column contains duplicates")
    return Dataset.from_raw(years, raw, {"source": os.path.basename(str(csv_path))})


def synthesize(
    p: ModelParams, s0, t_grid, noise_sigma: float = 0.0, seed: int = 0
) -> Dataset:
    """Integrate the model over t_grid, add seeded Gaussian noise scaled by
    each column's clean range, clamp at zero, and normalize.  A start with
    a species at zero is refused before the integration: that species
    stays at zero, and its constant column cannot be normalized."""
    grid = np.asarray(t_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 3:
        raise TooFewSamples("t_grid needs at least 3 points")
    if not np.all(np.isfinite(grid)):
        raise ValueError("t_grid must be finite")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("t_grid must be strictly increasing")
    noise_sigma = real("noise_sigma", noise_sigma, "nonnegative")
    integer("seed", seed, 0)
    x, y, z, _ = check_start(s0)
    absent = [name for name, v in zip(GROUPS, (x, y, z)) if v == 0]
    if absent:
        present = tuple(int(v != 0) for v in (x, y, z))
        planar = [name for name, sub in SUBSYSTEMS.items() if sub.value == present]
        run = f"simulate --subsystem {planar[0]}" if planar else "simulate"
        raise ConstantColumn(f"synthesized {absent[0]} column is constant: the {absent[0]} starts "
                             f"at zero and stays there, so min-max scaling is undefined; `{run}` "
                             f"runs the model from this start")
    cfg = SolverConfig(t_end=grid[-1], tol=1e-9)
    traj = integrate(p, State(x, y, z, float(grid[0])), cfg, t_eval=grid)
    raw = np.array(traj.states, dtype=float)
    if noise_sigma > 0:
        rng = np.random.default_rng(seed)
        span = raw.max(axis=0) - raw.min(axis=0)
        raw = raw + noise_sigma * span * rng.standard_normal(raw.shape)
        raw = np.maximum(raw, 0.0)
    meta = {
        "generator": {
            "params": p.to_dict(),
            "s0": [x, y, z],
            "noise_sigma": noise_sigma,
            "seed": int(seed),
        }
    }
    return Dataset.from_raw(grid, raw, meta, what="synthesized ")


def denormalize(ds: Dataset, s: State) -> State:
    """Inverse affine map, component-wise; the time coordinate maps back too."""
    raw = ds.mins + np.array([s.x, s.y, s.z]) * ds.ranges
    t = ds.t_start + s.t * (ds.t_end - ds.t_start)
    return State(float(raw[0]), float(raw[1]), float(raw[2]), float(t))


def normalize(ds: Dataset, s: State) -> State:
    norm = (np.array([s.x, s.y, s.z]) - ds.mins) / ds.ranges
    span = ds.t_end - ds.t_start
    t = (s.t - ds.t_start) / span
    return State(float(norm[0]), float(norm[1]), float(norm[2]), float(t))
