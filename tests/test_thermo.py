"""Synthetic-oracle tests: formulas, grids, QC gates, dataset files."""

import dataclasses
import functools
import hashlib
import math
import os
import re
import tempfile
import tracemalloc

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alkspace import thermo
from alkspace.molspace import enumerate_alkane_smiles, parse_smiles, to_canonical_smiles
from alkspace.thermo import (
    DATASET_HEADER,
    GRID_POINTS,
    QC_GATES,
    Dataset,
    qc_evaluate,
    read_dataset,
    synth_critical_temperature,
    temperature_grid,
    write_dataset,
)


def _canonical(smiles: str) -> str:
    return str(to_canonical_smiles(parse_smiles(smiles)))


def _series(smiles: str, **kwargs) -> Dataset:
    """The oracle data of one molecule."""
    return thermo.simulate_batch([_canonical(smiles)], **kwargs)


def _same(a: Dataset, b: Dataset) -> bool:
    """Whether two datasets hold the same ids and, bit for bit, arrays."""
    arrays = ("temperatures", "values", "failed")
    return a.ids == b.ids and all(getattr(a, f).tobytes() == getattr(b, f).tobytes() for f in arrays)


def _failed(temperatures, values, diffusion=None) -> dict[str, bool]:
    """The gates one molecule fails, by name (:func:`qc_evaluate`)."""
    gates = qc_evaluate(np.array([temperatures]), np.array([values]), diffusion)[0]
    return dict(zip(QC_GATES, gates.tolist()))


@functools.cache
def _nx_critical_temperature(smiles: str) -> float:
    """The synthetic critical temperature from networkx's Wiener index."""
    g = parse_smiles(smiles)
    edges = [(v, u) for v, nb in enumerate(g.adjacency) for u in nb]
    return synth_critical_temperature(len(g), round(nx.wiener_index(nx.Graph(edges))))


def _r2(t, y) -> float:
    """The QC gate's R^2 (``thermo._quadratic_r2``) of one property column."""
    t, y = np.asarray(t, dtype=float), np.asarray(y, dtype=float)
    return float(thermo._quadratic_r2(t[None, :], y[None, :, None])[0, 0])


def _with_density(series: Dataset, values) -> np.ndarray:
    """The values of a one-molecule dataset with ``values`` as its density."""
    out = series.values[0].copy()
    out[:, 0] = values
    return out


# -- critical temperature and grid ---------------------------------------------


def test_critical_temperature_increases_with_chain_length():
    # a path's Wiener index is n(n^2 - 1)/6
    values = [synth_critical_temperature(n, n * (n * n - 1) // 6) for n in range(1, 20)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_linear_isomer_has_the_highest_critical_temperature():
    for n in range(4, 10):
        by_isomer = {s: _nx_critical_temperature(s) for s in enumerate_alkane_smiles(n, n)}
        linear = _canonical("C" * n)
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
    assert _same(a, b)


def test_isomorphic_inputs_share_a_noise_stream():
    a = _series("CC(C)CC", noise_sigma=0.02, seed=5)
    b = _series("C(CC)(C)C", noise_sigma=0.02, seed=5)  # same molecule, rewritten
    assert _same(a, b)


def test_different_seed_changes_noisy_values():
    a = _series("CC(C)CC", noise_sigma=0.02, seed=5)
    b = _series("CC(C)CC", noise_sigma=0.02, seed=6)
    assert not _same(a, b)


def test_noiseless_series_passes_qc():
    for smiles in ("CCCC", "CC(C)C", "CCCCCCCCCC"):
        series = _series(smiles)
        assert series.passed.tolist() == [True], series.failed
        # no diffusion data in the oracle: the solid gate does not apply
        assert not series.failed[0, QC_GATES.index("solid")]


def test_noise_rejects_negative_sigma():
    with pytest.raises(ValueError):
        _series("CCCC", noise_sigma=-0.1)


def test_branching_lowers_the_density_intercept():
    # removing the temperature terms isolates the per-molecule constant
    def intercept(smiles: str) -> float:
        series = _series(smiles)
        t, density = series.temperatures[0, 0], series.values[0, 0, 0]
        return density + 0.55 * t + 4e-4 * t**2

    assert intercept("CC(C)(C)C") < intercept("CC(C)CC") < intercept("CCCCC")


# -- the batched oracle against the per-temperature loop -------------------------


def _loop_series(mol_id: str, noise_sigma: float, seed: int) -> np.ndarray:
    """The oracle written one temperature at a time, three noise draws per
    temperature, with networkx as the descriptor oracle: the reference for
    simulate_batch. Returns the (GRID_POINTS, 4) array of temperature,
    density, heat capacity and heat of vaporization."""
    g = parse_smiles(mol_id)
    n = len(g)
    branch = sum(1 for nb in g.adjacency if len(nb) == 1) / n
    tc = _nx_critical_temperature(mol_id)
    rng = thermo._series_seed(seed, mol_id) if noise_sigma > 0 else None
    rows = []
    for t in np.linspace(0.4 * tc, 0.9 * tc, GRID_POINTS):
        density = (840.0 + 2.5 * n - 60.0 * branch) - 0.55 * t - 4e-4 * t * t
        cp = (25.0 + 31.0 * n) + 0.08 * n * t + 1e-4 * n * t * t
        hov = (8.0 + 4.6 * n) - 0.01 * n * t - 2e-5 * t * t
        if rng is not None:
            z = rng.standard_normal(3)
            density *= 1.0 + noise_sigma * z[0]
            cp *= 1.0 + noise_sigma * z[1]
            hov *= 1.0 + noise_sigma * z[2]
        rows.append((t, density, cp, hov))
    return np.array(rows)


def _polyfit_r2(t, y) -> float:
    """R^2 of np.polyfit's degree-2 fit: the reference for the QC gate's."""
    resid = y - np.polyval(np.polyfit(t, y, 2), t)
    ss_res = float(resid @ resid)
    centered = y - y.mean()
    ss_tot = float(centered @ centered)
    if ss_tot == 0.0:
        return 1.0 if ss_res < 1e-12 else 0.0
    return 1.0 - ss_res / ss_tot


def _loop_qc(rows: np.ndarray) -> tuple[bool, bool, bool]:
    """(vapor, monotonic, quadratic_fit), one property at a time."""
    t, columns = rows[:, 0], rows[:, 1:].T
    vapor = all(rho >= thermo.VAPOR_DENSITY_LIMIT for rho in columns[0])
    monotonic = all(
        all(b > a for a, b in zip(v, v[1:])) or all(b < a for a, b in zip(v, v[1:]))
        for v in columns
    )
    fit = all(_polyfit_r2(t, v) >= thermo.QC_R2_LIMIT for v in columns)
    return vapor, monotonic, fit


@pytest.fixture(scope="module")
def c4_c13():
    return [str(s) for s in enumerate_alkane_smiles(4, 13)]


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("noise_sigma", [0.0, 1e-3, 3e-3, 1e-2, 3e-2])
def test_the_batch_is_the_per_temperature_loop_bitwise(c4_c13, noise_sigma, seed):
    batch = thermo.simulate_batch(c4_c13, noise_sigma, seed)
    assert len(batch) == len(c4_c13) == 1463
    assert batch.ids == tuple(c4_c13)
    for mol_id, temps, values, failed in zip(c4_c13, batch.temperatures, batch.values, batch.failed):
        rows = _loop_series(mol_id, noise_sigma, seed)
        got = np.column_stack([temps, values])
        assert got.tobytes() == rows.tobytes(), mol_id
        vapor, solid, monotonic, fit = (not f for f in failed.tolist())
        assert (vapor, monotonic, fit) == _loop_qc(rows), mol_id
        assert solid


def test_a_series_does_not_depend_on_its_batch():
    ids = [_canonical(s) for s in ("CCCC", "CC(C)CC", "CCCCCCCC", "CC(C)(C)C")]
    alone = [thermo.simulate_batch([m], 0.02, 5) for m in ids]
    for order in (ids, ids[::-1]):
        batch = thermo.simulate_batch(order, 0.02, 5)
        assert all(_same(batch.take([i]), alone[ids.index(m)]) for i, m in enumerate(order))
    assert len(thermo.simulate_batch([], 0.02, 5)) == 0


def test_quadratic_fit_r2_matches_polyfit():
    rng = np.random.default_rng(3)
    for _ in range(200):
        t = np.sort(rng.uniform(100.0, 600.0, GRID_POINTS))
        y = rng.normal(size=3) @ np.vstack([np.ones_like(t), t, t * t]) * (
            1.0 + rng.uniform(0.0, 0.05) * rng.standard_normal(GRID_POINTS)
        )
        assert _r2(t, y) == pytest.approx(_polyfit_r2(t, y), abs=1e-9)


def test_density_decreases_with_temperature():
    rho = _series("CCCCCC").values[0, :, 0].tolist()
    assert all(b < a for a, b in zip(rho, rho[1:]))


def test_heat_capacity_increases_with_temperature():
    cp = _series("CCCCCC").values[0, :, 1].tolist()
    assert all(b > a for a, b in zip(cp, cp[1:]))


# -- QC gates ----------------------------------------------------------------------


def test_qc_vapor_gate():
    series = _series("CCCC")
    low = _with_density(series, np.linspace(40.0, 39.0, GRID_POINTS))
    status = _failed(series.temperatures[0], low)
    assert status["vapor"] is True
    assert any(status.values())


def test_qc_monotonic_gate_flags_an_interior_spike():
    series = _series("CCCC")
    rho = series.values[0, :, 0].tolist()
    rho[7] = rho[6] + 5.0  # spike breaks the decreasing trend
    status = _failed(series.temperatures[0], _with_density(series, rho))
    assert status["vapor"] is False
    assert status["monotonic"] is True
    assert any(status.values())


def test_qc_solid_gate_uses_diffusion_when_available():
    series = _series("CCCC")
    t, values = series.temperatures[0], series.values[0]
    assert _failed(t, values, diffusion=None)["solid"] is False  # the gate does not apply
    frozen = _failed(t, values, diffusion=1e-9)
    assert frozen["solid"] is True
    assert [g for g, f in frozen.items() if f] == ["solid"]
    mobile = _failed(t, values, diffusion=1e-5)
    assert mobile["solid"] is False
    assert not any(mobile.values())
    # one coefficient per molecule
    both = qc_evaluate(series.temperatures[[0, 0]], series.values[[0, 0]], np.array([1e-5, 1e-9]))
    assert both[:, QC_GATES.index("solid")].tolist() == [False, True]


def test_qc_quadratic_gate():
    series = _series("CCCC")
    step = [100.0 + i * 0.001 for i in range(8)] + [200.0 + i * 0.001 for i in range(8)]
    assert _r2(series.temperatures[0], step) < 0.98
    status = _failed(series.temperatures[0], _with_density(series, step))
    assert status["monotonic"] is False  # still strictly increasing
    assert status["quadratic_fit"] is True
    assert any(status.values())


def test_quadratic_fit_r2_exact_cases():
    t = [1.0, 2.0, 3.0]
    assert _r2(t, [2.0, 5.0, 10.0]) == pytest.approx(1.0)
    t16 = list(range(16))
    quad = [0.5 * x * x - 3.0 * x + 7.0 for x in t16]
    assert _r2(t16, quad) == pytest.approx(1.0, abs=1e-9)
    assert _r2(t16, [4.0] * 16) == 1.0


# -- domain-type validation -----------------------------------------------------------


def test_series_validation():
    data = thermo.simulate_batch([_canonical(s) for s in ("CCCCC", "CCCC")])
    butane = data.ids[1]
    zero = data.temperatures.copy()
    zero[1, 0] = 0.0
    with pytest.raises(ValueError, match=re.escape(f"positive and finite: {butane}")):
        dataclasses.replace(data, temperatures=zero)
    nan = data.values.copy()
    nan[1, 0, 0] = float("nan")
    with pytest.raises(ValueError, match=re.escape(f"non-finite property: {butane}")):
        dataclasses.replace(data, values=nan)
    with pytest.raises(ValueError, match=re.escape(f"two entries for {butane}")):
        dataclasses.replace(data, ids=(butane, butane))


def test_series_needs_a_full_strictly_increasing_grid():
    data = thermo.simulate_batch([_canonical(s) for s in ("CCCCC", "CCCC")])
    with pytest.raises(ValueError, match=r"temperatures must have shape \(2, 16\), got \(2, 10\)"):
        Dataset(data.ids, data.temperatures[:, :10], data.values[:, :10], data.failed)
    with pytest.raises(ValueError, match=r"values must have shape \(2, 16, 3\)"):
        dataclasses.replace(data, values=data.values[:, :10])
    with pytest.raises(ValueError, match=r"failed must have shape \(2, 4\)"):
        dataclasses.replace(data, failed=data.failed[:, :3])
    shuffled = np.concatenate([data.temperatures[:, :8], data.temperatures[:, 8:][:, ::-1]], axis=1)
    shuffled[0] = data.temperatures[0]
    with pytest.raises(ValueError, match=re.escape(f"strictly increase: {data.ids[1]}")):
        dataclasses.replace(data, temperatures=shuffled)


def test_a_dataset_is_frozen_and_takes_prefixes_and_subsets():
    ids = [_canonical(s) for s in ("CCCC", "CCCCC", "CC(C)C", "CCCCCC")]
    data = thermo.simulate_batch(ids, 0.02, 5)
    for array in (data.temperatures, data.values, data.failed, data.rows()[1]):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
    assert _same(data.take(slice(2)), thermo.simulate_batch(ids[:2], 0.02, 5))
    assert _same(data.take([3, 0]), thermo.simulate_batch([ids[3], ids[0]], 0.02, 5))
    mask = np.array([True, False, True, False])
    assert _same(data.take(mask), thermo.simulate_batch(ids[::2], 0.02, 5))
    keys, values = data.rows()
    assert keys == [(m, t) for m, grid in zip(ids, data.temperatures.tolist()) for t in grid]
    assert values.tobytes() == data.values.tobytes() and values.shape == (4 * GRID_POINTS, 3)


def test_the_simulated_c4_c14_data_holds_under_3_mb():
    ids = [str(s) for s in enumerate_alkane_smiles(4, 14)]
    thermo.simulate_batch(ids[:1], 0.003, 7)  # the modules numpy imports on first use
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        data = thermo.simulate_batch(ids, 0.003, 7)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(data) == 3321
    assert held < 3_000_000, held


def test_writing_the_simulated_c4_c14_data_holds_under_2_5_times_the_file(tmp_path):
    """write_dataset renders a chunk of molecules at a time and writes it
    as it goes, and compares a file already there piece by piece; written
    whole, the lines, their join and its encoding took 5.3 times the file
    traced, and 5.8 times over a file of those bytes, which was read whole."""
    ids = [str(s) for s in enumerate_alkane_smiles(4, 14)]
    data = thermo.simulate_batch(ids, 0.003, 7)
    thermo.write_dataset(str(tmp_path / "warm.csv"), data.take(slice(2)))
    path = tmp_path / "d.csv"
    peaks = []
    for _ in range(2):  # a new file, then over a file of these bytes
        tracemalloc.start()
        try:
            assert thermo.write_dataset(str(path), data) == 3321 * GRID_POINTS
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    size = path.stat().st_size
    assert size > 5_000_000
    assert max(peaks) < 2.5 * size, (peaks, size)


# -- dataset files ----------------------------------------------------------------------


def test_dataset_roundtrip_and_byte_stability(tmp_path):
    parts = [_series("CCCC"), _series("CC(C)C", noise_sigma=0.01, seed=3)]
    arrays = ("temperatures", "values", "failed")
    series = Dataset(
        sum((p.ids for p in parts), ()),
        *(np.concatenate([getattr(p, name) for p in parts]) for name in arrays),
    )
    p1 = str(tmp_path / "a.csv")
    p2 = str(tmp_path / "b.csv")
    count = write_dataset(p1, series)
    assert count == 2 * GRID_POINTS
    write_dataset(p2, series)
    with open(p1, "rb") as f1, open(p2, "rb") as f2:
        assert f1.read() == f2.read()

    assert _same(read_dataset(p1), series)  # repr round-trip is exact


def test_the_c4_c11_dataset_bytes_are_pinned(tmp_path):
    # every C4..C11 molecule at noise 0.003, 9 of them failing QC: the
    # oracle's descriptors, grids, noise streams and file format at once
    series = thermo.simulate_batch(enumerate_alkane_smiles(4, 11), 0.003, 7)
    path = tmp_path / "d.csv"
    assert write_dataset(str(path), series) == 306 * GRID_POINTS
    assert int((~series.passed).sum()) == 9
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "3affe8602aac025512977db9d5d62acc9a44a0f1165507010a622dce6b98cb2c"
    )


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("noise_sigma", [0.0, 1e-3, 3e-3, 1e-2, 3e-2])
def test_every_written_dataset_reads_back_as_written(c4_c13, tmp_path, noise_sigma, seed):
    series = thermo.simulate_batch(c4_c13, noise_sigma, seed)
    path = str(tmp_path / "d.csv")
    write_dataset(path, series)
    assert _same(read_dataset(path), series)


_C4_C10 = [str(s) for s in enumerate_alkane_smiles(4, 10)]


@settings(max_examples=40, deadline=None)
@given(
    picks=st.lists(st.integers(0, len(_C4_C10) - 1), min_size=1, max_size=40, unique=True),
    noise_sigma=st.sampled_from([0.0, 1e-3, 3e-3, 1e-2, 3e-2]),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_dataset_reads_back_as_the_series_written(picks, noise_sigma, seed):
    # at noise 1e-2 and above every molecule fails QC, below it some do
    series = thermo.simulate_batch([_C4_C10[i] for i in picks], noise_sigma, seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.csv")
        write_dataset(path, series)
        back = read_dataset(path)
    assert back.ids == series.ids
    for name in ("temperatures", "values", "failed"):
        got, want = getattr(back, name), getattr(series, name)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name


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


def _block_lines(tmp_path, n_molecules: int, noise_sigma: float = 0.01) -> list[str]:
    """The lines, header first, of a dataset of the first molecules of
    C4..C8, each a block of GRID_POINTS rows."""
    series = thermo.simulate_batch(
        enumerate_alkane_smiles(4, 8)[:n_molecules], noise_sigma, 3
    )
    path = tmp_path / "good.csv"
    write_dataset(str(path), series)
    return path.read_text().splitlines(keepends=True)


def _second_block_of(lines: list[str], k: int) -> list[str]:
    start = 1 + k * GRID_POINTS
    return lines[: start + GRID_POINTS] + lines[start : start + GRID_POINTS] + lines[start + GRID_POINTS :]


@pytest.mark.parametrize(
    "edit, line, problem",
    [
        # line 2 flagged 0.5: read as False before
        (lambda ls: ls[:1] + [ls[1].rsplit(",", 1)[0] + ",0.5\r\n"] + ls[2:], 2,
         "qc_pass must be 0 or 1, got 0.5"),
        (lambda ls: ls[:1] + [ls[1].rsplit(",", 1)[0] + ",2\r\n"] + ls[2:], 2,
         "qc_pass must be 0 or 1, got 2.0"),
        # the third molecule's 16 rows twice over: 192 rows for 11 molecules
        (lambda ls: _second_block_of(ls, 2), 2 + 3 * GRID_POINTS, "a second block of rows for "),
        # the second molecule's block lacks its last row
        (lambda ls: ls[: 1 + 2 * GRID_POINTS - 1] + ls[1 + 2 * GRID_POINTS :],
         1 + 2 * GRID_POINTS, f"has {GRID_POINTS - 1} rows, expected {GRID_POINTS}"),
        # ... and the last molecule's too
        (lambda ls: ls[:-1], 11 * GRID_POINTS, f"has {GRID_POINTS - 1} rows, expected {GRID_POINTS}"),
        # two rows of one block swapped, and one row repeated in place
        (lambda ls: ls[:3] + [ls[4], ls[3]] + ls[5:], 5, "do not strictly increase"),
        (lambda ls: ls[:4] + [ls[3]] + ls[5:], 5, "do not strictly increase"),
    ],
    ids=["qc-half", "qc-two", "duplicated-block", "short-block", "short-last-block",
         "swapped-rows", "repeated-row"],
)
def test_read_dataset_rejects_a_molecule_that_is_not_one_block(tmp_path, edit, line, problem):
    lines = _block_lines(tmp_path, 11)
    path = tmp_path / "bad.csv"
    path.write_text("".join(edit(lines)), newline="")
    where = re.escape(f"{str(path)!r} line {line}: ")
    with pytest.raises(ValueError, match=where + ".*" + re.escape(problem)):
        read_dataset(str(path))


def _edited(lines: list[str], rows: range, **fields: str) -> list[str]:
    """``lines`` with the named columns of the given lines (1 the header)
    set to the given text."""
    out = list(lines)
    for i in rows:
        cells = out[i - 1].rstrip("\r\n").split(",")
        for name, text in fields.items():
            cells[DATASET_HEADER.index(name)] = text
        out[i - 1] = ",".join(cells) + "\r\n"
    return out


# At noise 0.003 and seed 3 the first molecule (lines 2-17) fails the
# monotonic gate and the third (lines 34-49) passes every gate.
@pytest.mark.parametrize(
    "edit, line, problem",
    [
        (lambda ls: _edited(ls, range(2, 18), qc_pass="1"), 2,
         "qc_pass 1 contradicts the QC gates: C(C)(C)C fails monotonic"),
        (lambda ls: _edited(ls, range(34, 50), qc_pass="0"), 34,
         "qc_pass 0 contradicts the QC gates: C(C)(C)(C)C passes"),
        (lambda ls: _edited(ls, range(40, 41), qc_pass="0"), 40,
         "qc_pass 0 differs from 1 on line 34, in the rows of C(C)(C)(C)C"),
        (lambda ls: _edited(ls, range(5, 6), pressure_bar="2.0"), 5,
         "pressure_bar must be 1.0, got 2.0"),
        (lambda ls: _edited(ls, range(18, 19), temperature_K="0.0"), 18,
         "temperature must be positive, got 0.0"),
    ],
    ids=["flag-on-a-failure", "flag-off-a-pass", "mixed-flags", "pressure", "zero-kelvin"],
)
def test_read_dataset_rejects_rows_the_values_contradict(tmp_path, edit, line, problem):
    lines = _block_lines(tmp_path, 4, noise_sigma=0.003)
    path = tmp_path / "bad.csv"
    path.write_text("".join(edit(lines)), newline="")
    with pytest.raises(ValueError, match=re.escape(f"{str(path)!r} line {line}: {problem}")):
        read_dataset(str(path))


def test_record_count_scales_with_molecules(tmp_path):
    series = thermo.simulate_batch([_canonical(s) for s in ("CCCC", "CCCCC", "CC(C)C")])
    path = str(tmp_path / "d.csv")
    assert write_dataset(path, series) == 3 * GRID_POINTS
