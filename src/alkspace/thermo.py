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

A :class:`Dataset` is the one form of oracle data: the ids of ``m``
molecules and arrays of their grid temperatures, property values and
failed QC gates. The oracle returns one, the dataset CSV holds one (a
block of ``GRID_POINTS`` rows per molecule), and training and test sets
are prefixes and subsets of one (:meth:`Dataset.take`). The dataset reader
re-runs the QC gates on the values it reads and rejects a ``qc_pass``
column that contradicts them.

Also provides the quality-control gates a molecule must pass before
entering a training set (no vapor-like density, no solid-like diffusion,
strict monotonicity, and a quadratic fit with R^2 >= 0.98), evaluated over
arrays of molecules.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._atomic import csv_field, csv_rows, csv_table, row_error, write_csv
from .gpr import Rows
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


# The QC gates, in the column order of :attr:`Dataset.failed`. The paper's
# two trajectory checks (energy distribution, equilibration) validate raw
# simulation trajectories, which the synthetic oracle does not produce, so
# they do not apply here.
QC_GATES = ("vapor", "solid", "monotonic", "quadratic_fit")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Oracle data of ``m`` molecules at 1 bar: their distinct ids, the
    ``(m, GRID_POINTS)`` grid temperatures (K), the ``(m, GRID_POINTS, 3)``
    density (kg/m^3), heat capacity (J/(mol K)) and heat of vaporization
    (kJ/mol) at each, and the ``(m, len(QC_GATES))`` bool array of the gates
    each failed. The record holds its arrays C-contiguous and read-only, so
    a :meth:`take` or :meth:`rows` view of them cannot change it.

    ValueError naming the first bad molecule unless every grid is positive,
    finite and strictly increasing, every value finite and every id
    distinct; ValueError for arrays of other shapes.
    """

    ids: tuple[str, ...]
    temperatures: np.ndarray
    values: np.ndarray
    failed: np.ndarray

    def __post_init__(self) -> None:
        ids = tuple(self.ids)
        m = len(ids)
        fields = {"ids": ids}
        for name, dtype, shape in (
            ("temperatures", float, (m, GRID_POINTS)),
            ("values", float, (m, GRID_POINTS, 3)),
            ("failed", bool, (m, len(QC_GATES))),
        ):
            array = np.ascontiguousarray(getattr(self, name), dtype=dtype)
            if array.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {array.shape}")
            array.setflags(write=False)
            fields[name] = array
        t, values = fields["temperatures"], fields["values"]
        for problem, bad in (
            ("temperatures must be positive and finite", ~(t[:, 0] > 0) | ~np.isfinite(t[:, -1])),
            ("grid temperatures must strictly increase", ~(t[:, 1:] > t[:, :-1]).all(axis=1)),
            ("non-finite property", ~np.isfinite(values).all(axis=(1, 2))),
        ):
            if bad.any():
                raise ValueError(f"{problem}: {ids[int(bad.argmax())]}")
        seen: set[str] = set()
        for mol in ids:
            if mol in seen:
                raise ValueError(f"two entries for {mol}")
            seen.add(mol)
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def passed(self) -> np.ndarray:
        """Whether each molecule passed every gate, an ``(m,)`` bool array."""
        return ~self.failed.any(axis=1)

    def take(self, index: slice | Sequence[int] | np.ndarray) -> Dataset:
        """The molecules at ``index`` along the molecule axis, in its order:
        a slice (a prefix is a view), positions or a boolean mask."""
        picked = np.arange(len(self))[index].tolist()
        return Dataset(
            tuple(self.ids[i] for i in picked),
            self.temperatures[index], self.values[index], self.failed[index],
        )

    def rows(self) -> tuple[Rows, np.ndarray]:
        """The :class:`alkspace.gpr.Rows` of the grid points, molecule by
        molecule, and the ``(GRID_POINTS * m, 3)`` array of their values."""
        molecule = np.repeat(np.arange(len(self)), GRID_POINTS)
        return Rows(self.ids, molecule, self.temperatures.ravel()), self.values.reshape(-1, 3)


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


def descriptors_and_grids(ids: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """The descriptors (:func:`alkspace.molspace.descriptors`) of each
    alkane SMILES and its (k, GRID_POINTS) oracle temperature grid: the
    temperatures :func:`simulate_batch` gives its values at and a
    prediction is made at."""
    d = descriptors(ids)
    tc = np.array([synth_critical_temperature(k, w) for k, w, _ in d.tolist()])
    return d, temperature_grid(tc)


def _series_seed(seed: int, molecule_id: str) -> np.random.Generator:
    # Molecule identity feeds the stream, so simulation order cannot matter.
    digest = hashlib.sha256(molecule_id.encode()).digest()
    key = int.from_bytes(digest[:8], "big")
    return np.random.default_rng(np.random.SeedSequence([seed, key]))


def simulate_batch(ids: Sequence[str], noise_sigma: float = 0.0, seed: int = 0) -> Dataset:
    """The oracle data of each alkane, given by its canonical SMILES, on its
    temperature grid, computed in numpy passes over the whole batch.

    Each value is bitwise what evaluating the molecule at each grid
    temperature in turn gives: the same operations in the same order. With
    ``noise_sigma`` > 0, each value is scaled by (1 + sigma * z) with
    standard-normal z from a stream derived from (seed, molecule id), drawn
    as one (GRID_POINTS, 3) block per molecule: row by row, one z per
    property. A molecule under the same seed gets the same data, whatever
    else the batch holds. ValueError if an id repeats.
    """
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be non-negative")
    d, t = descriptors_and_grids(ids)
    n = d[:, :1].astype(float)
    branch = (d[:, 2] / d[:, 0])[:, None]
    density = (840.0 + 2.5 * n - 60.0 * branch) - 0.55 * t - 4e-4 * t * t
    cp = (25.0 + 31.0 * n) + 0.08 * n * t + 1e-4 * n * t * t
    hov = (8.0 + 4.6 * n) - 0.01 * n * t - 2e-5 * t * t
    values = np.stack([density, cp, hov], axis=2)
    if noise_sigma > 0 and len(ids):
        z = np.stack([_series_seed(seed, m).standard_normal((GRID_POINTS, 3)) for m in ids])
        values *= 1.0 + noise_sigma * z
    return Dataset(tuple(ids), t, values, qc_evaluate(t, values))


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


def qc_evaluate(
    temperatures: np.ndarray, values: np.ndarray, diffusion: float | np.ndarray | None = None
) -> np.ndarray:
    """The gates each molecule fails, an (m, len(QC_GATES)) bool array, from
    its ``temperatures`` (m, n) and ``values`` (m, n, 3) of density, heat
    capacity and heat of vaporization. The solid gate reads a measured
    diffusion coefficient (cm^2/s), one for all molecules or one each;
    without one it does not apply, and does not fail."""
    vapor = (values[:, :, 0] >= VAPOR_DENSITY_LIMIT).all(axis=1)
    rising = (values[:, 1:] > values[:, :-1]).all(axis=1)
    falling = (values[:, 1:] < values[:, :-1]).all(axis=1)
    monotonic = (rising | falling).all(axis=1)
    fit = (_quadratic_r2(temperatures, values) >= QC_R2_LIMIT).all(axis=1)
    solid = True if diffusion is None else np.asarray(diffusion) >= SOLID_DIFFUSION_LIMIT
    return ~np.stack(np.broadcast_arrays(vapor, solid, monotonic, fit), axis=1)


def write_dataset(path: str, data: Dataset) -> int:
    """CSV dataset, one row per grid point, written atomically; returns the
    row count. Rewriting the same data is byte-identical. The rows are
    rendered as they are written (:func:`alkspace._atomic.csv_table`):
    each molecule's label, pressure and QC flag once."""
    rows, values = data.rows()
    passed = ["1" if ok else "0" for ok in data.passed.tolist()]
    labels = list(map(csv_field, data.ids))
    columns = [labels, rows.temperature, ["1.0"] * len(data), *values.T, passed]
    write_csv(path, DATASET_HEADER, csv_table(rows.molecule, columns))
    return len(rows)


def read_dataset(path: str) -> Dataset:
    """The oracle data of a dataset file, a molecule per block of rows, with
    the failed gates the QC gates give on the values read (the file holds
    no diffusion coefficient, so the solid gate does not fail).

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
    stacked = np.array(table, dtype=float).reshape(-1, GRID_POINTS, 4)
    temperatures, values = stacked[:, :, 0], stacked[:, :, 1:]
    failed = qc_evaluate(temperatures, values)
    for (mol, (line, flag)), gates in zip(blocks.items(), failed.tolist()):
        if any(gates) == (flag == 1.0):
            fails = ",".join(g for g, f in zip(QC_GATES, gates) if f)
            verdict = "fails " + fails if fails else "passes"
            raise row_error(path, line, f"qc_pass {flag:g} contradicts the QC gates: {mol} {verdict}")
    return Dataset(tuple(blocks), temperatures, values, failed)
