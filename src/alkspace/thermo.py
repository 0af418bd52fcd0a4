"""Deterministic synthetic property oracle and thermodynamic combiners.

Stands in for a high-throughput simulation engine: given an alkane graph it
produces liquid density, isobaric heat capacity and heat of vaporization on
a 16-point temperature grid between 40% and 90% of a synthetic critical
temperature, all at 1 bar. The functional forms are invented but chosen to
be physically plausible (density falls with temperature and branching,
both other properties scale with size) and exactly quadratic in T so the
quality-control regression gate is satisfiable by construction.

Also provides the standalone thermodynamic combiners (heat-capacity sum and
the corrected heat of vaporization) and the quality-control gates a series
must pass before entering a training set: no vapor-like density, no
solid-like diffusion, strict monotonicity, and a quadratic fit with
R^2 >= 0.98.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._atomic import read_csv, write_csv
from .molspace import Descriptors, MolecularGraph, descriptors, to_canonical_smiles

R_GAS = 8.314462618  # J/(mol K)

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
class PropertyRecord:
    """One (molecule, temperature) observation at 1 bar."""

    molecule_id: str
    temperature: float
    pressure: float
    density: float
    heat_capacity: float
    hov: float

    def __post_init__(self) -> None:
        if not self.temperature > 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        values = (self.density, self.heat_capacity, self.hov, self.pressure)
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"non-finite property for {self.molecule_id}")


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
    """16-point property series for one molecule, plus its QC verdict."""

    molecule_id: str
    records: tuple[PropertyRecord, ...]
    qc: QcStatus

    def __post_init__(self) -> None:
        if len(self.records) != GRID_POINTS:
            raise ValueError(
                f"series needs exactly {GRID_POINTS} records, got {len(self.records)}"
            )
        temps = [r.temperature for r in self.records]
        if any(b <= a for a, b in zip(temps, temps[1:])):
            raise ValueError("grid temperatures must strictly increase")

    def temperatures(self) -> np.ndarray:
        return np.array([r.temperature for r in self.records])


def synth_critical_temperature(d: Descriptors) -> float:
    """Synthetic critical temperature in K.

    Grows with carbon count and, through the Wiener index per carbon, with
    chain extension, so the linear isomer tops its branched peers.
    """
    if d.n_carbons < 1:
        raise ValueError("need at least one carbon")
    n = d.n_carbons
    return 120.0 + 42.0 * n**0.75 + 8.0 * math.log(1.0 + d.wiener_index / n)


def temperature_grid(tc: float) -> np.ndarray:
    """Evenly spaced inclusive grid over [0.4 Tc, 0.9 Tc]."""
    if not tc > 0:
        raise ValueError("critical temperature must be positive")
    return np.linspace(GRID_LOW_FRACTION * tc, GRID_HIGH_FRACTION * tc, GRID_POINTS)


def _series_seed(seed: int, molecule_id: str) -> np.random.Generator:
    # Molecule identity feeds the stream, so simulation order cannot matter.
    digest = hashlib.sha256(molecule_id.encode()).digest()
    key = int.from_bytes(digest[:8], "big")
    return np.random.default_rng(np.random.SeedSequence([seed, key]))


def simulate_series(
    g: MolecularGraph, noise_sigma: float = 0.0, seed: int = 0
) -> ThermoSeries:
    """Property series of an alkane on its temperature grid.

    With ``noise_sigma`` > 0, each value is scaled by (1 + sigma * z) with
    standard-normal z from a stream derived from (seed, molecule id);
    isomorphic inputs under the same seed give identical series.
    """
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be non-negative")
    mol_id = str(to_canonical_smiles(g))
    d = descriptors(g)
    n = d.n_carbons
    branch = d.n_methyl / n
    tc = synth_critical_temperature(d)
    rng = _series_seed(seed, mol_id) if noise_sigma > 0 else None
    records = []
    for t in temperature_grid(tc):
        density = (840.0 + 2.5 * n - 60.0 * branch) - 0.55 * t - 4e-4 * t * t
        cp = (25.0 + 31.0 * n) + 0.08 * n * t + 1e-4 * n * t * t
        hov = (8.0 + 4.6 * n) - 0.01 * n * t - 2e-5 * t * t
        if rng is not None:
            z = rng.standard_normal(3)
            density *= 1.0 + noise_sigma * z[0]
            cp *= 1.0 + noise_sigma * z[1]
            hov *= 1.0 + noise_sigma * z[2]
        records.append(
            PropertyRecord(
                molecule_id=mol_id,
                temperature=float(t),
                pressure=1.0,
                density=float(density),
                heat_capacity=float(cp),
                hov=float(hov),
            )
        )
    qc = _qc_from_records(tuple(records), diffusion=None)
    return ThermoSeries(molecule_id=mol_id, records=tuple(records), qc=qc)


def combine_heat_capacity(
    c_trans: float,
    c_rot: float,
    c_vib: float,
    du_inter_dt: float,
    p_dv_dt: float,
) -> float:
    """Isobaric heat capacity as the sum of its five contributions,
    all in J/(mol K)."""
    terms = (c_trans, c_rot, c_vib, du_inter_dt, p_dv_dt)
    if not all(math.isfinite(v) for v in terms):
        raise ValueError("heat-capacity contributions must be finite")
    return float(sum(terms))


def hov_corrected(u_inter: float, temperature: float, n_carbons: int) -> float:
    """Heat of vaporization in kJ/mol from the intermolecular energy.

    H_vap = R T - u_inter + C_e, with the empirical size correction
    C_e = -(1/15) n_C R T; u_inter enters in kJ/mol. At n_C = 15 the
    correction cancels the R T term exactly.
    """
    if not temperature > 0:
        raise ValueError("temperature must be positive")
    if n_carbons < 0:
        raise ValueError("carbon count must be non-negative")
    rt_kj = R_GAS * temperature / 1000.0
    correction = -(n_carbons / 15.0) * rt_kj
    return rt_kj - u_inter + correction


def _strictly_monotone(values: Sequence[float]) -> bool:
    inc = all(b > a for a, b in zip(values, values[1:]))
    dec = all(b < a for a, b in zip(values, values[1:]))
    return inc or dec


def quadratic_fit_r2(temperatures: Sequence[float], values: Sequence[float]) -> float:
    """Coefficient of determination of a degree-2 least-squares fit."""
    t = np.asarray(temperatures, dtype=float)
    y = np.asarray(values, dtype=float)
    coeffs = np.polyfit(t, y, 2)
    resid = y - np.polyval(coeffs, t)
    ss_res = float(resid @ resid)
    centered = y - y.mean()
    ss_tot = float(centered @ centered)
    if ss_tot == 0.0:
        return 1.0 if ss_res < 1e-12 else 0.0
    return 1.0 - ss_res / ss_tot


def _qc_from_records(
    records: tuple[PropertyRecord, ...], diffusion: float | None
) -> QcStatus:
    temps = [r.temperature for r in records]
    by_property = {
        "density": [r.density for r in records],
        "heat_capacity": [r.heat_capacity for r in records],
        "hov": [r.hov for r in records],
    }
    vapor = all(rho >= VAPOR_DENSITY_LIMIT for rho in by_property["density"])
    solid = None if diffusion is None else diffusion >= SOLID_DIFFUSION_LIMIT
    monotonic = all(_strictly_monotone(v) for v in by_property.values())
    fit_ok = all(
        quadratic_fit_r2(temps, v) >= QC_R2_LIMIT for v in by_property.values()
    )
    return QcStatus(vapor=vapor, solid=solid, monotonic=monotonic, quadratic_fit=fit_ok)


def qc_evaluate(series: ThermoSeries, diffusion: float | None = None) -> QcStatus:
    """Re-run the quality gates on a series, optionally with a measured
    diffusion coefficient (cm^2/s) for the solid check."""
    return _qc_from_records(series.records, diffusion)


def write_dataset(path: str, series_list: Sequence[ThermoSeries]) -> int:
    """CSV dataset, one row per grid point, written atomically; returns the
    row count. Rewriting the same series is byte-identical."""
    rows = [
        [r.molecule_id, r.temperature, r.pressure, r.density, r.heat_capacity, r.hov,
         "1" if series.qc.passed else "0"]
        for series in series_list
        for r in series.records
    ]
    write_csv(path, DATASET_HEADER, rows)
    return len(rows)


@dataclass(frozen=True)
class DatasetRow:
    """One parsed dataset line; mirrors the CSV columns."""

    smiles: str
    temperature: float
    pressure: float
    density: float
    heat_capacity: float
    hov: float
    qc_pass: bool


def read_dataset(path: str) -> list[DatasetRow]:
    """The rows of a dataset file; ValueError naming the file, and the line
    for a malformed row (:func:`alkspace._atomic.read_csv`)."""
    return [
        DatasetRow(smiles, *values[:5], qc_pass=values[5] == 1.0)
        for smiles, values in read_csv(path, DATASET_HEADER)
    ]
