"""Deterministic synthetic property oracle and its quality-control gates.

Stands in for a high-throughput simulation engine: given an alkane's
canonical SMILES it produces liquid density, isobaric heat capacity and
heat of vaporization on a 16-point temperature grid between 40% and 90% of
a synthetic critical temperature, all at 1 bar. The functional forms are
invented but physically plausible (density falls with temperature and
branching, both other properties scale with size) and exactly quadratic in
T, so the quality-control regression gate is satisfiable by construction.

The oracle is batched: :func:`simulate_batch` reads the descriptors of many
ids in one numpy pass (:func:`alkspace.molspace.descriptors`), parsing no
graph, and computes the grids, the properties, the noise and the QC
verdicts in numpy passes, bit for bit what evaluating each molecule one
temperature at a time gives; one molecule is a batch of one. Each molecule
draws its noise from its own stream, so no value depends on what else the
batch holds or in which order.

A :class:`ThermoSeries` is the one form of oracle data: the oracle returns
series, the dataset CSV holds them (a block of ``GRID_POINTS`` rows each),
and training and test sets are lists of them. The dataset reader re-runs
the QC gates on the values it reads and rejects a ``qc_pass`` column that
contradicts them.

Also provides the quality-control gates a series must pass before entering
a training set (no vapor-like density, no solid-like diffusion, strict
monotonicity, and a quadratic fit with R^2 >= 0.98), evaluated over arrays
of series.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._atomic import csv_field, csv_rows, row_error, write_csv
from .molspace import descriptors

GRID_POINTS = 16
GRID_LOW_FRACTION = 0.4
GRID_HIGH_FRACTION = 0.9

VAPOR_DENSITY_LIMIT = 50.0  # kg/m^3; anything below is a vapor, not a liquid
SOLID_DIFFUSION_LIMIT = 1e-8  # cm^2/s; slower means the sample froze
QC_R2_LIMIT = 0.98

DATASET_HEADER = [
    "smiles",
    "temperature_K",
    "pressure_bar",
    "density_kgm3",
    "cp_Jmolk",
    "hvap_kJmol",
    "qc_pass",
]


@dataclass(frozen=True)
class QcStatus:
    """Per-check outcomes; ``solid`` is None without a diffusion coefficient.

    The paper's two trajectory checks (energy distribution, equilibration)
    validate raw simulation trajectories, which the synthetic oracle does
    not produce, so they do not apply here.
    """

    vapor: bool
    solid: bool | None
    monotonic: bool
    quadratic_fit: bool

    @property
    def passed(self) -> bool:
        applicable = [self.vapor, self.monotonic, self.quadratic_fit]
        if self.solid is not None:
            applicable.append(self.solid)
        return all(applicable)

    def failed_checks(self) -> list[str]:
        out = []
        if not self.vapor:
            out.append("vapor")
        if self.solid is False:
            out.append("solid")
        if not self.monotonic:
            out.append("monotonic")
        if not self.quadratic_fit:
            out.append("quadratic_fit")
        return out


@dataclass(frozen=True)
class ThermoSeries:
    """The oracle record of one molecule at 1 bar: its ``GRID_POINTS`` grid
    temperatures (K), the density (kg/m^3), heat capacity (J/(mol K)) and
    heat of vaporization (kJ/mol) at each, and its QC verdict. The numbers
    are tuples of floats, so two series compare with ``==``."""

    molecule_id: str
    temperatures: tuple[float, ...]
    values: tuple[tuple[float, float, float], ...]
    qc: QcStatus

    def __post_init__(self) -> None:
        temps = self.temperatures
        if len(temps) != GRID_POINTS or len(self.values) != GRID_POINTS:
            raise ValueError(
                f"series needs exactly {GRID_POINTS} temperatures and value rows, "
                f"got {len(temps)} and {len(self.values)}"
            )
        if not (temps[0] > 0 and math.isfinite(temps[-1])):
            raise ValueError(f"temperatures must be positive and finite, got {temps}")
        if any(b <= a for a, b in zip(temps, temps[1:])):
            raise ValueError("grid temperatures must strictly increase")
        if not all(len(row) == 3 and all(map(math.isfinite, row)) for row in self.values):
            raise ValueError(f"non-finite property for {self.molecule_id}")


def synth_critical_temperature(n_carbons: int, wiener_index: int) -> float:
    """Synthetic critical temperature in K.

    Grows with carbon count and, through the Wiener index per carbon, with
    chain extension, so the linear isomer tops its branched peers.
    """
    if n_carbons < 1:
        raise ValueError("need at least one carbon")
    return 120.0 + 42.0 * n_carbons**0.75 + 8.0 * math.log(1.0 + wiener_index / n_carbons)


def temperature_grid(tc: float | np.ndarray) -> np.ndarray:
    """Evenly spaced inclusive grid over [0.4 Tc, 0.9 Tc]; an array of
    critical temperatures gives one grid per entry, along the last axis,
    each bitwise the grid of that entry alone."""
    if not np.all(np.asarray(tc) > 0):
        raise ValueError("critical temperature must be positive")
    return np.linspace(
        GRID_LOW_FRACTION * tc, GRID_HIGH_FRACTION * tc, GRID_POINTS, axis=-1
    )


def _series_seed(seed: int, molecule_id: str) -> np.random.Generator:
    # Molecule identity feeds the stream, so simulation order cannot matter.
    digest = hashlib.sha256(molecule_id.encode()).digest()
    key = int.from_bytes(digest[:8], "big")
    return np.random.default_rng(np.random.SeedSequence([seed, key]))


def simulate_batch(
    ids: Sequence[str], noise_sigma: float = 0.0, seed: int = 0
) -> list[ThermoSeries]:
    """Property series of each alkane, given by its canonical SMILES, on its
    temperature grid, computed in numpy passes over the whole batch.

    Each value is bitwise what evaluating the molecule at each grid
    temperature in turn gives: the same operations in the same order. With
    ``noise_sigma`` > 0, each value is scaled by (1 + sigma * z) with
    standard-normal z from a stream derived from (seed, molecule id), drawn
    as one (GRID_POINTS, 3) block per molecule: row by row, one z per
    property. A molecule under the same seed gets the same series, whatever
    else the batch holds.
    """
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be non-negative")
    if not ids:
        return []
    d = descriptors(ids)
    n = d[:, :1].astype(float)
    branch = (d[:, 2] / d[:, 0])[:, None]
    t = temperature_grid(np.array([synth_critical_temperature(k, w) for k, w, _ in d.tolist()]))
    density = (840.0 + 2.5 * n - 60.0 * branch) - 0.55 * t - 4e-4 * t * t
    cp = (25.0 + 31.0 * n) + 0.08 * n * t + 1e-4 * n * t * t
    hov = (8.0 + 4.6 * n) - 0.01 * n * t - 2e-5 * t * t
    values = np.stack([density, cp, hov], axis=2)
    if noise_sigma > 0:
        z = np.stack([_series_seed(seed, m).standard_normal((GRID_POINTS, 3)) for m in ids])
        values *= 1.0 + noise_sigma * z
    return _series_of(ids, t, values)


def _quadratic_r2(temperatures: np.ndarray, values: np.ndarray) -> np.ndarray:
    """R^2 of the degree-2 least-squares fit of each column of ``values``
    (m, n, k) against its row of ``temperatures`` (m, n); shape (m, k). A
    constant column scores 1.0 if the fit leaves no residual, else 0.0.

    The fit projects onto an orthonormal basis of (1, u, u^2), u the
    centred temperatures, from one stacked QR.
    """
    u = temperatures - temperatures.mean(axis=1, keepdims=True)
    q, _ = np.linalg.qr(np.stack([np.ones_like(u), u, u * u], axis=2))
    resid = values - q @ (q.transpose(0, 2, 1) @ values)
    ss_res = (resid * resid).sum(axis=1)
    centered = values - values.mean(axis=1, keepdims=True)
    ss_tot = (centered * centered).sum(axis=1)
    constant = ss_tot == 0.0
    r2 = 1.0 - ss_res / np.where(constant, 1.0, ss_tot)
    return np.where(constant, (ss_res < 1e-12).astype(float), r2)


def _qc(
    temperatures: np.ndarray, values: np.ndarray, diffusion: float | None = None
) -> list[QcStatus]:
    """The QC verdict of each series: ``temperatures`` (m, n), ``values``
    (m, n, 3) of density, heat capacity and heat of vaporization."""
    vapor = (values[:, :, 0] >= VAPOR_DENSITY_LIMIT).all(axis=1)
    rising = (values[:, 1:] > values[:, :-1]).all(axis=1)
    falling = (values[:, 1:] < values[:, :-1]).all(axis=1)
    monotonic = (rising | falling).all(axis=1)
    fit = (_quadratic_r2(temperatures, values) >= QC_R2_LIMIT).all(axis=1)
    solid = None if diffusion is None else diffusion >= SOLID_DIFFUSION_LIMIT
    return [
        QcStatus(vapor=v, solid=solid, monotonic=m, quadratic_fit=f)
        for v, m, f in zip(vapor.tolist(), monotonic.tolist(), fit.tolist())
    ]


def _series_of(
    ids: Sequence[str], temperatures: np.ndarray, values: np.ndarray
) -> list[ThermoSeries]:
    """The series of each molecule, with its QC verdict, from stacked
    ``temperatures`` (m, n) and ``values`` (m, n, 3)."""
    return [
        ThermoSeries(mol_id, tuple(temps), tuple(map(tuple, rows)), qc)
        for mol_id, temps, rows, qc in zip(
            ids, temperatures.tolist(), values.tolist(), _qc(temperatures, values)
        )
    ]


def qc_evaluate(series: ThermoSeries, diffusion: float | None = None) -> QcStatus:
    """Re-run the quality gates on a series, optionally with a measured
    diffusion coefficient (cm^2/s) for the solid check."""
    return _qc(np.array([series.temperatures]), np.array([series.values]), diffusion)[0]


def write_dataset(path: str, series_list: Sequence[ThermoSeries]) -> int:
    """CSV dataset, one row per grid point, written atomically; returns the
    row count. Rewriting the same series is byte-identical. ValueError,
    writing nothing, if two series are of one molecule, which
    :func:`read_dataset` would reject."""
    seen: set[str] = set()
    for s in series_list:
        if s.molecule_id in seen:
            raise ValueError(f"{path!r}: two series of {s.molecule_id}")
        seen.add(s.molecule_id)
    lines = []
    for s in series_list:
        # each series' label and QC flag are rendered once, for its rows
        head = csv_field(s.molecule_id) + ","
        tail = ",1\r\n" if s.qc.passed else ",0\r\n"
        lines += [
            head + csv_field(t) + ",1.0," + ",".join(map(csv_field, v)) + tail
            for t, v in zip(s.temperatures, s.values)
        ]
    write_csv(path, DATASET_HEADER, lines)
    return len(lines)


def read_dataset(path: str) -> list[ThermoSeries]:
    """The series of a dataset file, one per molecule block, with the QC
    verdict the gates give on the values read (the file holds no diffusion
    coefficient, so ``qc.solid`` is None).

    ValueError naming the file, and the line, for a malformed row
    (:func:`alkspace._atomic.csv_rows`), a ``pressure_bar`` other than 1.0,
    a ``qc_pass`` other than 0 or 1, one that differs within a molecule or
    contradicts the gates' verdict, and a molecule whose rows are not one
    contiguous block of ``GRID_POINTS`` rows with strictly increasing
    temperatures.
    """
    blocks: dict[str, tuple[int, float]] = {}  # each molecule's first line and qc_pass
    table: list[list[float]] = []  # temperature, density, heat capacity, hov
    line, current = 1, ""
    for line, smiles, values in csv_rows(path, DATASET_HEADER):
        temperature, pressure, flag = values[0], values[1], values[5]
        if pressure != 1.0:
            raise row_error(path, line, f"pressure_bar must be 1.0, got {pressure!r}")
        if flag not in (0.0, 1.0):
            raise row_error(path, line, f"qc_pass must be 0 or 1, got {flag!r}")
        at = len(table) % GRID_POINTS  # the row's place in its molecule's block
        if at == 0:
            if smiles in blocks:
                raise row_error(path, line, f"a second block of rows for {smiles}")
            if not temperature > 0:
                raise row_error(path, line, f"temperature must be positive, got {temperature!r}")
            blocks[smiles] = (line, flag)
            current = smiles
        elif smiles != current:
            raise row_error(path, line, f"{current} has {at} rows, expected {GRID_POINTS}")
        elif not temperature > table[-1][0]:
            raise row_error(path, line, f"temperatures of {smiles} do not strictly increase")
        elif flag != blocks[smiles][1]:
            first_line, first_flag = blocks[smiles]
            raise row_error(
                path, line,
                f"qc_pass {flag:g} differs from {first_flag:g} on line {first_line}, "
                f"in the rows of {smiles}",
            )
        table.append([temperature, *values[2:5]])
    if len(table) % GRID_POINTS:
        raise row_error(
            path, line, f"{current} has {len(table) % GRID_POINTS} rows, expected {GRID_POINTS}"
        )
    stacked = np.array(table).reshape(-1, GRID_POINTS, 4)
    series = _series_of(list(blocks), stacked[:, :, 0], stacked[:, :, 1:])
    for s, (line, flag) in zip(series, blocks.values()):
        if s.qc.passed != (flag == 1.0):
            verdict = "passes" if s.qc.passed else "fails " + ",".join(s.qc.failed_checks())
            raise row_error(
                path, line, f"qc_pass {flag:g} contradicts the QC gates: {s.molecule_id} {verdict}"
            )
    return series
