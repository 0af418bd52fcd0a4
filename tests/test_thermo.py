"""Synthetic-oracle tests: formulas, grids, QC gates, dataset files."""

import dataclasses
import math
import re

import numpy as np
import pytest

from alkspace import thermo
from alkspace.molspace import (
    descriptors,
    enumerate_alkanes,
    parse_smiles,
    to_canonical_smiles,
)
from alkspace.thermo import (
    DATASET_HEADER,
    GRID_POINTS,
    PropertyRecord,
    QcStatus,
    R_GAS,
    ThermoSeries,
    combine_heat_capacity,
    hov_corrected,
    qc_evaluate,
    quadratic_fit_r2,
    read_dataset,
    simulate_series,
    synth_critical_temperature,
    temperature_grid,
    write_dataset,
)


def _series(smiles: str, **kwargs) -> ThermoSeries:
    return simulate_series(parse_smiles(smiles), **kwargs)


def _with_density(series: ThermoSeries, values) -> tuple[PropertyRecord, ...]:
    return tuple(
        dataclasses.replace(r, density=float(v))
        for r, v in zip(series.records, values)
    )


# -- critical temperature and grid ---------------------------------------------


def test_critical_temperature_increases_with_chain_length():
    values = [
        synth_critical_temperature(descriptors(parse_smiles("C" * n)))
        for n in range(1, 20)
    ]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_linear_isomer_has_the_highest_critical_temperature():
    for n in range(4, 10):
        by_isomer = {
            to_canonical_smiles(g): synth_critical_temperature(descriptors(g))
            for g in enumerate_alkanes(n, n)
        }
        linear = to_canonical_smiles(parse_smiles("C" * n))
        best = by_isomer.pop(linear)
        # strictly above every branched isomer
        assert all(v < best for v in by_isomer.values())


def test_temperature_grid_endpoints_and_spacing():
    grid = temperature_grid(500.0)
    assert len(grid) == GRID_POINTS == 16
    assert grid[0] == pytest.approx(200.0)
    assert grid[-1] == pytest.approx(450.0)
    steps = np.diff(grid)
    assert steps == pytest.approx(np.full(15, 250.0 / 15.0), abs=1e-9)


def test_temperature_grid_rejects_non_positive_tc():
    with pytest.raises(ValueError):
        temperature_grid(0.0)


# -- the oracle -----------------------------------------------------------------


def test_simulation_is_deterministic():
    a = _series("CC(C)CC", noise_sigma=0.02, seed=5)
    b = _series("CC(C)CC", noise_sigma=0.02, seed=5)
    assert a == b


def test_isomorphic_inputs_share_a_noise_stream():
    a = _series("CC(C)CC", noise_sigma=0.02, seed=5)
    b = _series("C(CC)(C)C", noise_sigma=0.02, seed=5)  # same molecule, rewritten
    assert a == b


def test_different_seed_changes_noisy_values():
    a = _series("CC(C)CC", noise_sigma=0.02, seed=5)
    b = _series("CC(C)CC", noise_sigma=0.02, seed=6)
    assert a != b


def test_noiseless_series_passes_qc():
    for smiles in ("CCCC", "CC(C)C", "CCCCCCCCCC"):
        series = _series(smiles)
        assert series.qc.passed, series.qc.failed_checks()
        assert series.qc.solid is None  # no diffusion data in the oracle


def test_noise_rejects_negative_sigma():
    with pytest.raises(ValueError):
        _series("CCCC", noise_sigma=-0.1)


def test_branching_lowers_the_density_intercept():
    # removing the temperature terms isolates the per-molecule constant
    def intercept(smiles: str) -> float:
        series = _series(smiles)
        r = series.records[0]
        return r.density + 0.55 * r.temperature + 4e-4 * r.temperature**2

    assert intercept("CC(C)(C)C") < intercept("CC(C)CC") < intercept("CCCCC")


def test_density_decreases_with_temperature():
    series = _series("CCCCCC")
    rho = [r.density for r in series.records]
    assert all(b < a for a, b in zip(rho, rho[1:]))


def test_heat_capacity_increases_with_temperature():
    series = _series("CCCCCC")
    cp = [r.heat_capacity for r in series.records]
    assert all(b > a for a, b in zip(cp, cp[1:]))


# -- closed-form property combinators ---------------------------------------------


def test_combine_heat_capacity_hand_arithmetic():
    got = combine_heat_capacity(12.47, 12.47, 0.0, 0.0, 8.314)
    assert got == pytest.approx(33.254, abs=1e-9)


def test_combine_heat_capacity_rejects_non_finite():
    with pytest.raises(ValueError):
        combine_heat_capacity(float("nan"), 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        combine_heat_capacity(float("inf"), 0.0, 0.0, 0.0, 0.0)


def test_hov_corrected_examples():
    # no carbons: the correction vanishes and RT remains
    assert hov_corrected(0.0, 300.0, 0) == pytest.approx(
        R_GAS * 300.0 / 1000.0, abs=1e-9
    )
    # fifteen carbons cancel the RT term exactly
    assert hov_corrected(5.0, 300.0, 15) == pytest.approx(-5.0, abs=1e-12)
    # linear in carbon count
    values = [hov_corrected(1.0, 300.0, n) for n in range(6)]
    gaps = np.diff(values)
    assert gaps == pytest.approx(np.full(5, gaps[0]), abs=1e-12)


def test_hov_corrected_validation():
    with pytest.raises(ValueError):
        hov_corrected(1.0, 0.0, 4)
    with pytest.raises(ValueError):
        hov_corrected(1.0, 300.0, -1)


# -- QC gates ----------------------------------------------------------------------


def test_qc_vapor_gate():
    series = _series("CCCC")
    low = _with_density(series, np.linspace(40.0, 39.0, GRID_POINTS))
    status = thermo._qc_from_records(low, None)
    assert status.vapor is False
    assert "vapor" in status.failed_checks()
    assert not status.passed


def test_qc_monotonic_gate_flags_an_interior_spike():
    series = _series("CCCC")
    rho = [r.density for r in series.records]
    rho[7] = rho[6] + 5.0  # spike breaks the decreasing trend
    status = thermo._qc_from_records(_with_density(series, rho), None)
    assert status.vapor is True
    assert status.monotonic is False
    assert not status.passed


def test_qc_solid_gate_uses_diffusion_when_available():
    series = _series("CCCC")
    assert qc_evaluate(series, diffusion=None).solid is None
    frozen = qc_evaluate(series, diffusion=1e-9)
    assert frozen.solid is False
    assert "solid" in frozen.failed_checks()
    assert not frozen.passed
    mobile = qc_evaluate(series, diffusion=1e-5)
    assert mobile.solid is True
    assert mobile.passed


def test_qc_quadratic_gate():
    series = _series("CCCC")
    temps = [r.temperature for r in series.records]
    step = [100.0 + i * 0.001 for i in range(8)] + [200.0 + i * 0.001 for i in range(8)]
    assert quadratic_fit_r2(temps, step) < 0.98
    status = thermo._qc_from_records(_with_density(series, step), None)
    assert status.monotonic is True  # still strictly increasing
    assert status.quadratic_fit is False
    assert not status.passed


def test_quadratic_fit_r2_exact_cases():
    t = [1.0, 2.0, 3.0]
    assert quadratic_fit_r2(t, [2.0, 5.0, 10.0]) == pytest.approx(1.0)
    t16 = list(range(16))
    quad = [0.5 * x * x - 3.0 * x + 7.0 for x in t16]
    assert quadratic_fit_r2(t16, quad) == pytest.approx(1.0, abs=1e-9)
    assert quadratic_fit_r2(t16, [4.0] * 16) == 1.0


# -- domain-type validation -----------------------------------------------------------


def test_property_record_validation():
    with pytest.raises(ValueError):
        PropertyRecord("x", 0.0, 1.0, 700.0, 200.0, 30.0)
    with pytest.raises(ValueError):
        PropertyRecord("x", 300.0, 1.0, float("nan"), 200.0, 30.0)


def test_series_needs_a_full_strictly_increasing_grid():
    series = _series("CCCC")
    with pytest.raises(ValueError):
        ThermoSeries(series.molecule_id, series.records[:10], series.qc)
    shuffled = series.records[:8] + series.records[8:][::-1]
    with pytest.raises(ValueError):
        ThermoSeries(series.molecule_id, shuffled, series.qc)


# -- dataset files ----------------------------------------------------------------------


def test_dataset_roundtrip_and_byte_stability(tmp_path):
    series = [_series("CCCC"), _series("CC(C)C", noise_sigma=0.01, seed=3)]
    p1 = str(tmp_path / "a.csv")
    p2 = str(tmp_path / "b.csv")
    count = write_dataset(p1, series)
    assert count == 2 * GRID_POINTS
    write_dataset(p2, series)
    with open(p1, "rb") as f1, open(p2, "rb") as f2:
        assert f1.read() == f2.read()

    rows = read_dataset(p1)
    assert len(rows) == count
    flat = [r for s in series for r in s.records]
    for row, rec, s in zip(
        rows, flat, [series[0]] * GRID_POINTS + [series[1]] * GRID_POINTS
    ):
        assert row.smiles == rec.molecule_id
        assert row.temperature == rec.temperature  # repr round-trip is exact
        assert row.density == rec.density
        assert row.heat_capacity == rec.heat_capacity
        assert row.hov == rec.hov
        assert row.qc_pass == s.qc.passed


def test_read_dataset_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="unrecognized header"):
        read_dataset(str(path))
    # malformed rows are named by file and line
    header = ",".join(DATASET_HEADER)
    good = "CCCC,200.0,1.0,600.0,150.0,20.0,1"
    for row, problem in [
        ("CCCC,200.0,1.0,600.0,150.0,20.0", "6 fields, expected 7"),
        (good + ",1", "8 fields, expected 7"),
        ("CCCC,200.0,1.0,dense,150.0,20.0,1", "could not convert"),
        ("CCCC,200.0,1.0,nan,150.0,20.0,1", "non-finite value"),
        ("CCCC,200.0,1.0,600.0,inf,20.0,1", "non-finite value"),
    ]:
        path.write_text(f"{header}\r\n{good}\r\n{row}\r\n")
        with pytest.raises(ValueError, match=re.escape(f"{str(path)!r} line 3: {problem}")):
            read_dataset(str(path))


def test_record_count_scales_with_molecules(tmp_path):
    series = [_series(s) for s in ("CCCC", "CCCCC", "CC(C)C")]
    path = str(tmp_path / "d.csv")
    assert write_dataset(path, series) == 3 * GRID_POINTS
