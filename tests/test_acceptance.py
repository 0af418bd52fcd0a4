"""Acceptance gate: eight end-to-end criteria, one test per criterion.

Each test prints a single [criterion N] PASS or FAIL line (visible with
-s or in captured-output sections) in addition to its pytest verdict.
Criteria 4, 5 and 6 share one full-scale C4..C12 workspace fixture.
"""

import dataclasses
import json
import math
import os
import time
from contextlib import contextmanager

import networkx as nx
import numpy as np
import pytest

from alkspace import active_learning as al
from alkspace import gpr, thermo
from alkspace.cli import main as cli_main
from alkspace.mgk import (
    MgkCalculator,
    MgkHyperparameters,
    mgk_raw,
)
from alkspace.molspace import (
    MolecularGraph,
    enumerate_alkane_smiles,
    enumerate_alkanes,
    parse_smiles,
)
from alkspace.pipeline import PipelineConfig, compare_al_random, run_alms

FULL_RAW = {
    "chemical_space": {"min_carbons": 4, "max_carbons": 12},
    "kernel": {"lambda": 0.2},
    "active_learning": {"thresholds": [0.5, 0.4, 0.3]},
    "evaluation": {"n_test": 200, "control_seeds": [0, 1, 2, 3, 4]},
}


@contextmanager
def criterion(number: int, text: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL: {text}", flush=True)
        raise
    print(f"[criterion {number}] PASS: {text}", flush=True)


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    """One staged C4..C12 selection-and-evaluation run, shared by 4/5/6."""
    out = tmp_path_factory.mktemp("full_ws")
    cfg = PipelineConfig.from_dict({**FULL_RAW, "out_dir": str(out)})
    t0 = time.monotonic()
    report = run_alms(cfg)
    elapsed = time.monotonic() - t0
    return cfg, report, elapsed


# -- 1: enumeration -------------------------------------------------------------


def _tree_count_oracle(n: int) -> int:
    """Unlabeled trees on n vertices with maximum degree four."""
    if n == 1:
        return 1
    return sum(
        1
        for t in nx.nonisomorphic_trees(n)
        if max(d for _, d in t.degree()) <= 4
    )


def test_criterion_1_enumeration(capsys):
    with criterion(1, "C4..C19 enumeration count, small-n oracle, time budget"):
        for n in range(1, 10):
            assert len(enumerate_alkane_smiles(n, n)) == _tree_count_oracle(n)
        t0 = time.monotonic()
        assert cli_main(["enumerate", "4", "19", "--count"]) == 0
        elapsed = time.monotonic() - t0
        assert capsys.readouterr().out.strip() == "251728"
        assert elapsed <= 60.0, f"enumeration took {elapsed:.0f}s"


# -- 2: graph-kernel correctness ---------------------------------------------------


def _truncated_walk_sum(
    g1: MolecularGraph, g2: MolecularGraph, p: MgkHyperparameters, hops: int
) -> float:
    """Finite-horizon walk-pair sum, plain dict arithmetic. Alkane-only:
    every bond is single and every atom a carbon, so vertices compare by
    degree alone."""

    def kv(u: int, x: int) -> float:
        same = len(g1.adjacency[u]) == len(g2.adjacency[x])
        return 1.0 if same else p.delta_degree

    n1, n2 = len(g1), len(g2)
    r = {(v, w): p.q * p.q for v in range(n1) for w in range(n2)}
    for _ in range(hops):
        nxt = {}
        for v in range(n1):
            pv = (1.0 - p.q) / len(g1.adjacency[v]) if g1.adjacency[v] else 0.0
            for w in range(n2):
                pw = (1.0 - p.q) / len(g2.adjacency[w]) if g2.adjacency[w] else 0.0
                acc = p.q * p.q
                for u in g1.adjacency[v]:
                    for x in g2.adjacency[w]:
                        acc += pv * pw * kv(u, x) * r[(u, x)]
                nxt[(v, w)] = acc
        r = nxt
    sw2 = p.start_weight * p.start_weight
    return sum(
        sw2 * kv(v, w) * r[(v, w)]
        for v in range(n1)
        for w in range(n2)
    )


def _truncation_tail(p: MgkHyperparameters, n1: int, n2: int, hops: int) -> float:
    decay = (1.0 - p.q) ** 2
    return (
        p.start_weight**2 * n1 * n2 * p.q * p.q * decay ** (hops + 1) / (1.0 - decay)
    )


def test_criterion_2_kernel_against_walk_oracle():
    with criterion(2, "fixed point vs walk oracle, symmetry, diag, PSD"):
        # fast-mixing hyperparameters keep the L=20 oracle itself below
        # the 1e-8 comparison tolerance; the bound proves that first
        params = MgkHyperparameters(q=0.5)
        small = [g for n in range(1, 6) for g in enumerate_alkanes(n, n)]
        assert len(small) == 8
        sizes = [len(g) for g in small]
        assert _truncation_tail(params, max(sizes), max(sizes), 20) < 1e-8
        for i, g1 in enumerate(small):
            for g2 in small[i:]:
                exact = mgk_raw(g1, g2, params)
                oracle = _truncated_walk_sum(g1, g2, params, 20)
                assert abs(exact - oracle) <= 1e-8

        mols = [parse_smiles(s) for s in enumerate_alkane_smiles(4, 12)[:100]]
        calc = MgkCalculator(MgkHyperparameters())
        keys = calc.register(mols)
        k = calc.block(keys, keys)
        assert k.shape == (100, 100)
        assert float(np.max(np.abs(k - k.T))) <= 1e-12
        assert float(np.max(np.abs(np.diag(k) - 1.0))) <= 1e-10
        assert float(np.linalg.eigvalsh(k).min()) >= -1e-8


# -- 3: regression engine ------------------------------------------------------------


class _Rbf:
    """Unit-diagonal kernel over scalar keys."""

    def block(self, a, b):
        xa = np.asarray(a, dtype=float)[:, None]
        xb = np.asarray(b, dtype=float)[None, :]
        return np.exp(-0.5 * (xa - xb) ** 2)

    def diag(self, keys):
        return np.ones(len(keys))


def test_criterion_3_gpr_exactness():
    with criterion(3, "interpolation, 1-point variance, monotonicity, targets"):
        rng = np.random.default_rng(42)
        provider = _Rbf()
        x = list(np.linspace(-2.0, 2.0, 8))
        y = rng.normal(size=(8, 1))
        model = gpr.fit(x, y, 0.0, provider)
        assert np.max(np.abs(model.predict_mean(x) - y)) <= 1e-6

        sigma2 = 0.3
        single = gpr.fit([0.0], [[1.7]], sigma2, provider)
        for q in (-1.3, 0.0, 0.4, 2.2):
            k_qs = math.exp(-0.5 * q * q)
            expected = 1.0 - k_qs * k_qs / (1.0 + sigma2)
            got = float(single.predict_variance([q])[0])
            assert abs(got - expected) <= 1e-10

        for case in range(20):
            rng_c = np.random.default_rng(case)
            pts = list(rng_c.normal(size=9))
            queries = list(rng_c.normal(size=5))
            m_small = gpr.fit(pts[:4], np.zeros((4, 1)), 1e-4, provider)
            m_big = gpr.fit(pts, np.zeros((9, 1)), 1e-4, provider)
            v_small = m_small.predict_variance(queries)
            v_big = m_big.predict_variance(queries)
            assert np.all(v_big <= v_small + 1e-8)

        y2 = rng.normal(size=(8, 1)) * 100.0 + 3.0
        queries = [-1.1, 0.3, 0.9, 1.7]
        va = gpr.fit(x, y, 1e-3, provider).predict_variance(queries)
        vb = gpr.fit(x, y2, 1e-3, provider).predict_variance(queries)
        assert np.array_equal(va, vb)


# -- 4: selection soundness at full scale -----------------------------------------------


def test_criterion_4_selection_soundness(full_run):
    cfg, report, elapsed = full_run
    with criterion(4, "termination, partition invariant, abandoned, nesting"):
        assert report.n_molecules == 661
        assert elapsed <= 600.0, f"staged run took {elapsed:.0f}s"

        ws_files = os.listdir(cfg.out_dir)
        states = []
        for i in range(1, 4):
            name = next(n for n in ws_files if n.startswith(f"al_stage{i}_"))
            states.append(al.load_checkpoint(os.path.join(cfg.out_dir, name)))
        assert all(s.is_terminal for s in states)
        s1, s2, s3 = (set(s.selected) for s in states)
        assert s1 <= s2 <= s3
        assert [s.threshold for s in states] == [0.5, 0.4, 0.3]

        # replay stage 1 from the kernel cache, checking the partition
        # after every step
        ids = enumerate_alkane_smiles(cfg.min_carbons, cfg.max_carbons)
        calc = MgkCalculator(cfg.kernel)
        calc.load_cache(os.path.join(
            cfg.out_dir,
            next(n for n in ws_files if n.startswith("kernel_")),
        ))
        calc.register([parse_smiles(s) for s in ids])
        universe = frozenset(ids)

        def check_partition(state):
            parts = (set(state.selected), set(state.pool), set(state.abandoned))
            assert sum(len(p) for p in parts) == len(universe)
            assert parts[0] | parts[1] | parts[2] == universe

        state = al.al_run(
            ids, cfg.thresholds[0], cfg.batch, cfg.al_seed, calc,
            noise=cfg.gpr.al_noise, on_step=check_partition,
        )
        assert state == states[0]
        assert calc.pairs_solved == 0

        # every abandoned molecule sits below the stage threshold under
        # the model fit on that stage's final selection
        for s in states:
            model = gpr.fit(
                list(s.selected),
                np.zeros((len(s.selected), 1)),
                cfg.gpr.al_noise,
                calc,
            )
            leftovers = sorted(s.abandoned)
            variances = model.predict_variance(leftovers)
            assert float(variances.max()) < s.threshold


# -- 5: selection beats random controls ---------------------------------------------------


def test_criterion_5_beats_random(full_run):
    cfg, report, _ = full_run
    with criterion(5, "median RMSE of selection <= random for 2 of 3 properties"):
        comparison = compare_al_random(cfg)
        assert comparison.seeds == (0, 1, 2, 3, 4)
        wins = [p for p in sorted(comparison.median_rmse_al) if comparison.al_wins(p)]
        assert len(wins) >= 2, (
            f"selection wins only on {wins}: "
            f"AL={comparison.median_rmse_al} random={comparison.median_rmse_random}"
        )


# -- 6: data efficiency ------------------------------------------------------------------


def test_criterion_6_data_efficiency(full_run):
    _, report, _ = full_run
    with criterion(6, "first-stage set <40% of space with R2 >0.95 on all three"):
        stage1 = report.stages[0]
        assert report.n_test_molecules == 200
        assert stage1.selected_fraction < 0.40
        for prop, metrics in stage1.metrics.items():
            assert metrics.r2 is not None and metrics.r2 > 0.95, (
                f"{prop}: r2={metrics.r2}"
            )


# -- 7: property formulas and QC gates ------------------------------------------------------


def test_criterion_7_thermo_formulas():
    with criterion(7, "correction and mixing arithmetic, QC gate fixtures"):
        assert abs(thermo.hov_corrected(0.0, 300.0, 0) - 2.4943387854) <= 1e-9
        assert abs(thermo.hov_corrected(5.0, 300.0, 15) - (-5.0)) <= 1e-9
        got = thermo.combine_heat_capacity(12.47, 12.47, 0.0, 0.0, 8.314)
        assert abs(got - 33.254) <= 1e-9

        series = thermo.simulate_series(parse_smiles("CCCC"))
        assert series.qc.passed and series.qc.solid is None

        def with_density(values):
            return tuple(
                dataclasses.replace(r, density=float(v))
                for r, v in zip(series.records, values)
            )

        vapor = thermo._qc_from_records(
            with_density([40.0 - 0.1 * i for i in range(16)]), None
        )
        assert vapor.vapor is False and not vapor.passed

        spiked = [r.density for r in series.records]
        spiked[8] = spiked[7] + 1.0
        bumpy = thermo._qc_from_records(with_density(spiked), None)
        assert bumpy.monotonic is False and not bumpy.passed

        assert qc_solid_verdicts(series) == (None, False, True)

        temps = [r.temperature for r in series.records]
        step = [100.0 + 0.001 * i for i in range(8)] + [
            200.0 + 0.001 * i for i in range(8)
        ]
        assert thermo.quadratic_fit_r2(temps, step) < 0.98
        kinked = thermo._qc_from_records(with_density(step), None)
        assert kinked.quadratic_fit is False and not kinked.passed


def qc_solid_verdicts(series):
    return (
        thermo.qc_evaluate(series, diffusion=None).solid,
        thermo.qc_evaluate(series, diffusion=1e-9).solid,
        thermo.qc_evaluate(series, diffusion=1e-5).solid,
    )


# -- 8: end-to-end determinism -----------------------------------------------------------------


def test_criterion_8_run_all_is_reproducible(tmp_path):
    with criterion(8, "two identical runs produce byte-identical artifacts"):
        config = {
            "chemical_space": {"min_carbons": 4, "max_carbons": 8},
            "kernel": {"lambda": 0.2},
            "active_learning": {"thresholds": [0.5, 0.4]},
            "evaluation": {"n_test": 20, "control_seeds": [0, 1]},
        }
        cfg_path = str(tmp_path / "config.json")
        with open(cfg_path, "w") as fh:
            json.dump(config, fh)
        dirs = [str(tmp_path / "first"), str(tmp_path / "second")]
        for d in dirs:
            assert cli_main(["run-all", "--config", cfg_path, "--out-dir", d]) == 0

        first, second = (sorted(os.listdir(d)) for d in dirs)
        assert first == second and first
        for name in first:
            with open(os.path.join(dirs[0], name), "rb") as fa:
                a = fa.read()
            with open(os.path.join(dirs[1], name), "rb") as fb:
                b = fb.read()
            assert a == b, f"{name} differs between runs"
