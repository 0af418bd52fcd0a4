"""Kernel tests against independent walk-sum oracles.

The reference implementations here are deliberately written in plain
dict/loop style so they share no code path with the production solver:
``dp_truncated_raw`` iterates the finite-horizon recurrence,
``brute_force_raw`` literally enumerates simultaneous walk pairs, and
``direct_raw`` solves the fixed point densely with ``np.linalg.solve``.
The brute-force version validates the recurrence on tiny graphs; the
recurrence and the direct solve then validate the production solver on
real molecules.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alkspace import mgk

from alkspace.mgk import (
    KernelConvergenceError,
    KernelMatrix,
    MgkCalculator,
    MgkHyperparameters,
    kernel_matrix,
    mgk_normalized,
    mgk_raw,
)
from alkspace.molspace import (
    GraphError,
    MolecularGraph,
    enumerate_alkane_smiles,
    enumerate_alkanes,
    parse_smiles,
)

DEFAULT = MgkHyperparameters()
# Fast-mixing walk: the L=20 truncation tail is far below 1e-8, so the
# truncated oracle can certify the fixed point to that accuracy.
FAST_STOP = MgkHyperparameters(q=0.5)


# -- reference implementations ------------------------------------------------


def _kv(g1: MolecularGraph, u: int, g2: MolecularGraph, x: int, p) -> float:
    """Vertex comparison: carbons match unless their degrees differ."""
    same = len(g1.adjacency[u]) == len(g2.adjacency[x])
    return 1.0 if same else p.delta_degree


def dp_truncated_raw(
    g1: MolecularGraph, g2: MolecularGraph, p: MgkHyperparameters, hops: int
) -> float:
    """Walk-pair sum over all simultaneous walks with at most ``hops`` steps."""
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
                        acc += pv * pw * _kv(g1, u, g2, x, p) * r[(u, x)]
                nxt[(v, w)] = acc
        r = nxt
    sw2 = p.start_weight * p.start_weight
    total = 0.0
    for v in range(n1):
        for w in range(n2):
            total += sw2 * _kv(g1, v, g2, w, p) * r[(v, w)]
    return total


def _walks(g: MolecularGraph, hops: int) -> list[list[int]]:
    out = [[v] for v in range(len(g))]
    for _ in range(hops):
        out = [w + [u] for w in out for u in g.adjacency[w[-1]]]
    return out


def brute_force_raw(
    g1: MolecularGraph, g2: MolecularGraph, p: MgkHyperparameters, max_hops: int
) -> float:
    """Explicit enumeration of simultaneous walk pairs (tiny graphs only).

    The walk weights are summed by ``math.fsum``: isobutane pairs give
    thousands of terms, whose plain running sum drifts by up to 4e-13."""
    terms = []
    for hops in range(max_hops + 1):
        for w1 in _walks(g1, hops):
            for w2 in _walks(g2, hops):
                weight = p.start_weight * p.start_weight * _kv(g1, w1[0], g2, w2[0], p)
                for i in range(1, hops + 1):
                    weight *= (1.0 - p.q) / len(g1.adjacency[w1[i - 1]])
                    weight *= (1.0 - p.q) / len(g2.adjacency[w2[i - 1]])
                    weight *= _kv(g1, w1[i], g2, w2[i], p)
                terms.append(weight * p.q * p.q)
    return math.fsum(terms)


def direct_raw(g1: MolecularGraph, g2: MolecularGraph, p: MgkHyperparameters) -> float:
    """Dense solve of the fixed point R = q^2 + W R on the product graph."""
    n1, n2 = len(g1), len(g2)
    w = np.zeros((n1 * n2, n1 * n2))
    for v in range(n1):
        for x in range(n2):
            for u in g1.adjacency[v]:
                for y in g2.adjacency[x]:
                    w[v * n2 + x, u * n2 + y] = (
                        (1.0 - p.q) ** 2
                        / (len(g1.adjacency[v]) * len(g2.adjacency[x]))
                        * _kv(g1, u, g2, y, p)
                    )
    r = np.linalg.solve(np.eye(n1 * n2) - w, np.full(n1 * n2, p.q * p.q))
    kv = [_kv(g1, v, g2, x, p) for v in range(n1) for x in range(n2)]
    return p.start_weight**2 * float(np.dot(kv, r))


def truncation_tail_bound(
    g1: MolecularGraph, g2: MolecularGraph, p: MgkHyperparameters, hops: int
) -> float:
    """Upper bound on the walk mass beyond ``hops`` steps (all kernels <= 1)."""
    n1, n2 = len(g1), len(g2)
    c = (1.0 - p.q) ** 2
    tail = p.q * p.q * c ** (hops + 1) / (1.0 - c)
    return p.start_weight**2 * n1 * n2 * tail


# -- closed forms and symmetry -------------------------------------------------


def test_single_vertex_closed_form():
    c1 = parse_smiles("C")
    p = DEFAULT
    assert mgk_raw(c1, c1, p) == pytest.approx(p.q**2, rel=1e-12)
    heavy = MgkHyperparameters(start_weight=2.0)
    assert mgk_raw(c1, c1, heavy) == pytest.approx(4.0 * heavy.q**2, rel=1e-12)


def test_symmetry_on_random_alkane_pairs():
    mols = enumerate_alkanes(4, 8)
    rng = np.random.default_rng(3)
    for _ in range(50):
        i, j = rng.integers(0, len(mols), size=2)
        a, b = mols[int(i)], mols[int(j)]
        assert abs(mgk_raw(a, b, DEFAULT) - mgk_raw(b, a, DEFAULT)) < 1e-12


def test_empty_graph_rejected():
    with pytest.raises(GraphError):
        MolecularGraph([])


# -- oracle consistency ---------------------------------------------------------

TINY_GRAPHS = [parse_smiles(s) for s in ("C", "CC", "CCC", "CC(C)C")]


@pytest.mark.parametrize("hops", [0, 1, 2, 4, 6])
def test_recurrence_equals_brute_force(hops):
    for g1 in TINY_GRAPHS:
        for g2 in TINY_GRAPHS:
            got = dp_truncated_raw(g1, g2, FAST_STOP, hops)
            want = brute_force_raw(g1, g2, FAST_STOP, hops)
            assert got == pytest.approx(want, abs=1e-13)


def test_truncation_monotone_and_below_fixed_point():
    g1 = parse_smiles("CCC(C)C")
    g2 = parse_smiles("CCCC")
    exact = mgk_raw(g1, g2, DEFAULT)
    prev = -1.0
    for hops in (0, 2, 5, 10, 20, 40):
        t = dp_truncated_raw(g1, g2, DEFAULT, hops)
        assert t >= prev
        assert t <= exact + 1e-12
        prev = t


def test_fixed_point_matches_oracle_all_pairs_up_to_c5():
    mols = enumerate_alkanes(1, 5)
    assert len(mols) == 8
    for i, g1 in enumerate(mols):
        for g2 in mols[i:]:
            want = dp_truncated_raw(g1, g2, FAST_STOP, 20)
            assert truncation_tail_bound(g1, g2, FAST_STOP, 20) < 1e-8
            assert mgk_raw(g1, g2, FAST_STOP) == pytest.approx(want, abs=1e-8)


def test_slow_stop_agrees_within_tail_bound():
    # at the default q the L=20 tail is large; the analytic bound still holds
    mols = enumerate_alkanes(4, 5)
    for hops in (10, 20, 40):
        for g1 in mols:
            for g2 in mols:
                exact = mgk_raw(g1, g2, DEFAULT)
                truncated = dp_truncated_raw(g1, g2, DEFAULT, hops)
                gap = exact - truncated
                assert gap >= -1e-12
                assert gap <= truncation_tail_bound(g1, g2, DEFAULT, hops) * (1 + 1e-9)


def test_matches_direct_solve_all_pairs_up_to_c7():
    mols = enumerate_alkanes(1, 7)
    for i, g1 in enumerate(mols):
        for g2 in mols[i:]:
            want = direct_raw(g1, g2, DEFAULT)
            assert mgk_raw(g1, g2, DEFAULT) == pytest.approx(want, rel=1e-10)


@st.composite
def alkane_trees(draw, max_atoms=12):
    """Carbon trees of 1..max_atoms atoms, at most four bonds per atom."""
    n = draw(st.integers(1, max_atoms))
    neighbors: list[list[int]] = [[] for _ in range(n)]
    for i in range(1, n):
        j = draw(st.sampled_from([j for j in range(i) if len(neighbors[j]) < 4]))
        neighbors[i].append(j)
        neighbors[j].append(i)
    return MolecularGraph(neighbors)


@settings(max_examples=60, deadline=None)
@given(alkane_trees(10), alkane_trees(10), st.sampled_from([0.05, 0.2, 0.5]))
def test_random_trees_match_direct_solve(g1, g2, q):
    p = MgkHyperparameters(q=q)
    want = direct_raw(g1, g2, p)
    assert mgk_raw(g1, g2, p) == pytest.approx(want, rel=1e-10)
    assert mgk_raw(g2, g1, p) == pytest.approx(want, rel=1e-10)


@settings(max_examples=60, deadline=None)
@given(alkane_trees())
@example(parse_smiles("C"))
@example(parse_smiles("CC"))
def test_eigenbasis_diagonalises_degrees_and_adjacency(g):
    n = len(g)
    packed = mgk._GraphArrays(g).packed
    v, lam = packed[:, :n], packed[:, n]
    degrees = np.diag([max(len(nb), 1) for nb in g.adjacency]).astype(float)
    adjacency = np.zeros((n, n))
    for i, nb in enumerate(g.adjacency):
        for j in nb:
            adjacency[i, j] = 1.0
    np.testing.assert_allclose(v.T @ degrees @ v, np.eye(n), rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(v.T @ adjacency @ v, np.diag(lam), rtol=0.0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(alkane_trees(), alkane_trees(), st.sampled_from([0.05, 0.2, 0.5]))
def test_raw_values_obey_cauchy_schwarz(g1, g2, q):
    # the kernel is positive semi-definite, so self-kernels bound a pair
    p = MgkHyperparameters(q=q)
    k12 = mgk_raw(g1, g2, p)
    assert k12 * k12 <= mgk_raw(g1, g1, p) * mgk_raw(g2, g2, p) * (1 + 1e-12)


def test_every_pair_up_to_c16_solves_within_fifteen_iterations():
    # The eigenbasis preconditioner keeps the iteration count flat in the
    # molecule size: these pairs take at most 12 iterations, where a
    # Jacobi-preconditioned solve takes 31 to 40 and fails this cap.
    smiles = enumerate_alkane_smiles(4, 16)
    picks = np.random.default_rng(23).choice(len(smiles), size=60, replace=False)
    mols = [parse_smiles(smiles[i]) for i in sorted(picks)]
    assert max(len(g) for g in mols) == 16
    values = MgkCalculator(MgkHyperparameters(fp_max_iters=15)).matrix(mols).values
    assert np.all(values > 0.0)


# -- invariance -----------------------------------------------------------------


def _permuted(g: MolecularGraph, perm: list[int]) -> MolecularGraph:
    neighbors: list[list[int]] = [[] for _ in perm]
    for old, nb in enumerate(g.adjacency):
        neighbors[perm[old]] = [perm[u] for u in nb]
    return MolecularGraph(neighbors)


def test_isomorphism_invariance_under_relabeling():
    rng = np.random.default_rng(11)
    for smiles in ("CCCCC", "CC(C)CC", "CC(C)(C)C"):
        g = parse_smiles(smiles)
        base = mgk_raw(g, g, DEFAULT)
        for _ in range(3):
            perm = list(rng.permutation(len(g)))
            h = _permuted(g, perm)
            assert mgk_raw(h, h, DEFAULT) == pytest.approx(base, abs=1e-12)
            assert mgk_raw(g, h, DEFAULT) == pytest.approx(base, abs=1e-12)


def test_raw_values_independent_of_batch_and_request_order():
    mols = enumerate_alkanes(4, 9)
    keys = MgkCalculator(DEFAULT).register(mols)
    rng = np.random.default_rng(17)
    targets = [tuple(sorted(rng.choice(keys, size=2, replace=False))) for _ in range(12)]
    targets += [(k, k) for k in rng.choice(keys, size=3, replace=False)]

    def fresh() -> MgkCalculator:
        calc = MgkCalculator(DEFAULT)
        calc.register(mols)
        return calc

    alone = {pair: fresh().raw(*pair) for pair in targets}
    graph_of = dict(zip(keys, mols))
    for (a, b), value in alone.items():
        assert mgk_raw(graph_of[a], graph_of[b], DEFAULT) == value

    companions = [k for pair in targets for k in pair]
    companions += list(rng.choice(keys, size=40, replace=False))
    for order in (keys, keys[::-1], list(rng.permutation(companions))):
        calc = fresh()
        calc.block(order, order)
        assert {pair: calc.raw(*pair) for pair in targets} == alone


# -- normalization ---------------------------------------------------------------


def test_normalized_self_is_exactly_one():
    g = parse_smiles("CC(C)CC")
    assert mgk_normalized(g, g, DEFAULT) == 1.0


def test_normalized_bounds_one_iff_isomorphic():
    mols = enumerate_alkanes(1, 8)
    km = MgkCalculator(DEFAULT).matrix(mols)
    values = km.values
    assert np.allclose(np.diag(values), 1.0, atol=1e-12)
    off = values[~np.eye(len(mols), dtype=bool)]
    assert off.min() >= 0.0
    # distinct isomorphism classes stay clearly below 1
    assert off.max() <= 1.0 - 1e-4
    # an isomorphic relabeling is indistinguishable
    g = parse_smiles("CCCC(C)C")
    h = _permuted(g, [5, 3, 1, 0, 2, 4])
    assert mgk_normalized(g, h, DEFAULT) == pytest.approx(1.0, abs=1e-10)


def test_normalized_self_skips_the_solver(monkeypatch):
    def boom(pairs, p):
        raise AssertionError("solved a pair for an identical input")

    monkeypatch.setattr(mgk, "_solve_pairs", boom)
    g = parse_smiles("CCCC")
    assert mgk_normalized(g, g, DEFAULT) == 1.0


def test_butane_isobutane_strictly_between_zero_and_one():
    v = mgk_normalized(parse_smiles("CCCC"), parse_smiles("CC(C)C"), DEFAULT)
    assert 0.0 < v < 1.0


def test_lambda_finite_matches_manual_formula():
    g1 = parse_smiles("CCCC")
    g2 = parse_smiles("CCCCCC")
    lam = 0.5
    p = MgkHyperparameters(lambda_=lam)
    k12 = mgk_raw(g1, g2, p)
    k11 = mgk_raw(g1, g1, p)
    k22 = mgk_raw(g2, g2, p)
    manual = k12 / math.sqrt(k11 * k22) * math.exp(-(((k11 - k22) / lam) ** 2))
    assert mgk_normalized(g1, g2, p) == pytest.approx(manual, rel=1e-12)
    plain = k12 / math.sqrt(k11 * k22)
    assert mgk_normalized(g1, g2, DEFAULT) == pytest.approx(plain, rel=1e-12)


# -- size screen -------------------------------------------------------------------

# A narrow size damping, so that many pairs of small trees are screened.
SCREENING = MgkHyperparameters(lambda_=0.05)


def _screen_oracle(k12: float, k11: float, k22: float, lam: float) -> tuple[bool, float]:
    """Whether the size damping of a pair is below 2^-53, and the unscreened
    normalized value. np.exp, not math.exp: the two differ in the last bit
    on some inputs, and the entries are compared bitwise."""
    d = (k11 - k22) / lam
    return d * d > 53 * math.log(2), k12 / np.sqrt(k11 * k22) * np.exp(-(d * d))


@settings(max_examples=60, deadline=None)
@given(st.lists(alkane_trees(), min_size=2, max_size=5))
@example([parse_smiles("CCCC"), parse_smiles("CCCCCCCCCC")])
def test_screened_entries_are_zero_and_the_rest_match_an_oracle(mols):
    calc = MgkCalculator(SCREENING)
    keys = calc.register(mols)
    got = calc.block(keys, keys)
    # isomorphic trees share a key and are solved as the first one drawn
    graph_of: dict[str, MolecularGraph] = {}
    for key, g in zip(keys, mols):
        graph_of.setdefault(key, g)
    for i, a in enumerate(keys):
        for j, b in enumerate(keys):
            ga, gb = graph_of[a], graph_of[b]
            if a == b:
                assert got[i, j] == 1.0
                continue
            # the calculator solves a pair in the order of its sorted keys
            first, second = (ga, gb) if a <= b else (gb, ga)
            raw = (
                mgk_raw(first, second, SCREENING),
                mgk_raw(ga, ga, SCREENING),
                mgk_raw(gb, gb, SCREENING),
            )
            screened, want = _screen_oracle(*raw, SCREENING.lambda_)
            if screened:
                assert got[i, j] == 0.0
                assert want <= 2.0**-53 * (1 + 1e-9)
                assert (min(a, b), max(a, b)) not in calc._raw
                # also 0 where the true raw value is held, as after a load
                assert mgk._normalize(*raw, SCREENING) == 0.0
            else:
                assert got[i, j] == want
    # only the self-kernels and the unscreened pairs were solved, once each
    assert calc.pairs_solved == calc.cached_pairs


def test_screened_entries_do_not_depend_on_batch_order_or_path():
    mols = enumerate_alkanes(4, 9)
    keys = MgkCalculator(SCREENING).register(mols)
    rng = np.random.default_rng(29)
    rows = list(rng.choice(keys, size=12, replace=False))

    def fresh() -> MgkCalculator:
        calc = MgkCalculator(SCREENING)
        calc.register(mols)
        return calc

    whole = fresh().block(rows, keys)
    assert np.count_nonzero(whole == 0.0) > whole.size // 4
    assert np.count_nonzero((whole > 0.0) & (whole < 1.0)) > whole.size // 4

    perm_r = rng.permutation(len(rows))
    perm_c = rng.permutation(len(keys))
    permuted = fresh().block([rows[i] for i in perm_r], [keys[j] for j in perm_c])
    assert np.array_equal(permuted, whole[np.ix_(perm_r, perm_c)])

    calc = fresh()
    pieces = [calc.block(rows[lo : lo + 5], keys[::-1][:40]) for lo in range(0, 12, 5)]
    assert np.array_equal(np.vstack(pieces)[:, ::-1], whole[:, -40:])
    assert np.array_equal(calc.block(rows, keys), whole)

    calc = fresh()
    one_by_one = np.array([[calc.normalized(a, b) for b in keys] for a in rows])
    assert np.array_equal(one_by_one, whole)


def test_normalized_skips_the_solve_of_a_screened_pair(monkeypatch):
    graphs = [parse_smiles("CCCC"), parse_smiles("CCCCCCCCCC")]
    sizes = []
    solve = mgk._solve_pairs

    def count(pairs, p):
        sizes.extend((a.n, b.n) for a, b in pairs)
        return solve(pairs, p)

    with monkeypatch.context() as m:
        m.setattr(mgk, "_solve_pairs", count)
        assert mgk_normalized(*graphs, SCREENING) == 0.0
    assert sorted(sizes) == [(4, 4), (10, 10)]

    calc = MgkCalculator(SCREENING)
    small, large = calc.register(graphs)
    solved = []
    compute = calc._compute_pairs

    def record(pairs):
        solved.extend(pairs)
        compute(pairs)

    monkeypatch.setattr(calc, "_compute_pairs", record)
    assert calc.normalized(small, large) == 0.0
    assert set(solved) == {(large, large), (small, small)}
    assert calc.pairs_solved == 2


def test_screen_does_not_depend_on_the_cache_state(tmp_path, monkeypatch):
    mols = enumerate_alkanes(4, 9)
    keys = MgkCalculator(SCREENING).register(mols)
    rows = keys[::7]
    # a file that also holds the true raw values of screened pairs, as one
    # written by a solver that screens nothing does
    unscreened = MgkCalculator(SCREENING)
    unscreened.register(mols)
    with monkeypatch.context() as m:
        m.setattr(mgk, "_NEGLIGIBLE_D2", math.inf)
        dense = unscreened.block(rows, keys)
    full = str(tmp_path / "full.csv")
    n_full = unscreened.save_cache(full)

    fresh = MgkCalculator(SCREENING)
    fresh.register(mols)
    want = fresh.block(rows, keys)
    screened = want == 0.0
    assert screened.any() and not (dense[screened] == 0.0).any()
    assert fresh.cached_pairs < n_full

    loaded = MgkCalculator(SCREENING)
    loaded.register(mols)
    assert loaded.load_cache(full) == n_full
    assert np.array_equal(loaded.block(rows, keys), want)
    assert loaded.pairs_solved == 0

    # the screened pairs are neither solved nor written
    path = tmp_path / "screened.csv"
    assert fresh.save_cache(str(path)) == fresh.cached_pairs == fresh.pairs_solved
    written = {tuple(row.split(",")[:2]) for row in path.read_text().splitlines()[2:]}
    for i, j in zip(*np.nonzero(screened)):
        a, b = rows[i], keys[j]
        assert (min(a, b), max(a, b)) not in written


# -- convergence control -----------------------------------------------------------


def test_converges_within_default_cap():
    g = parse_smiles("CC(C)(C)CC(C)C")  # n=8, branched
    assert mgk_raw(g, g, DEFAULT) > 0.0


def test_fast_stop_converges_quickly():
    p = MgkHyperparameters(q=0.5, fp_max_iters=30)
    g = parse_smiles("CCCCCCCC")
    assert mgk_raw(g, g, p) > 0.0


def test_iteration_cap_raises():
    p = MgkHyperparameters(fp_max_iters=1)
    g = parse_smiles("CCCC")
    with pytest.raises(KernelConvergenceError):
        mgk_raw(g, g, p)


# -- hyperparameter plumbing ---------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"q": 0.0},
        {"q": 1.0},
        {"start_weight": 0.0},
        {"delta_element": 0.0},
        {"delta_degree": 1.0},
        {"delta_bond_order": 1.5},
        {"lambda_": 0.0},
        {"fp_tolerance": 0.0},
        {"fp_max_iters": 0},
    ],
)
def test_hyperparameter_validation(kwargs):
    with pytest.raises(ValueError):
        MgkHyperparameters(**kwargs)


def test_from_dict_lambda_key_and_null():
    p = MgkHyperparameters.from_dict({"q": 0.1, "lambda": None})
    assert math.isinf(p.lambda_)
    p = MgkHyperparameters.from_dict({"lambda": 0.25})
    assert p.lambda_ == 0.25
    with pytest.raises(ValueError):
        MgkHyperparameters.from_dict({"qq": 0.1})


def test_dict_roundtrip():
    p = MgkHyperparameters(q=0.2, lambda_=0.7, fp_max_iters=500)
    assert MgkHyperparameters.from_dict(p.to_dict()) == p
    assert MgkHyperparameters.from_dict(DEFAULT.to_dict()) == DEFAULT


# -- matrices and the calculator ---------------------------------------------------


def test_matrix_unit_diagonal_and_symmetry():
    mols = enumerate_alkanes(4, 7)
    km = kernel_matrix(mols, mols, DEFAULT)
    assert np.array_equal(np.diag(km.values), np.ones(len(mols)))
    assert np.max(np.abs(km.values - km.values.T)) <= 1e-12


def test_matrix_permutation_invariance():
    mols = enumerate_alkanes(4, 7)
    km = MgkCalculator(DEFAULT).matrix(mols)
    order = list(np.random.default_rng(5).permutation(len(mols)))
    km_perm = MgkCalculator(DEFAULT).matrix([mols[i] for i in order])
    assert np.array_equal(km_perm.values, km.values[np.ix_(order, order)])


def test_matrix_psd_100_molecules():
    mols = enumerate_alkanes(4, 10)[:100]
    km = MgkCalculator(DEFAULT).matrix(mols)
    eigs = np.linalg.eigvalsh(km.values)
    assert eigs.min() >= -1e-8


def test_rectangular_block_matches_square():
    mols = enumerate_alkanes(4, 6)
    calc = MgkCalculator(DEFAULT)
    keys = calc.register(mols)
    square = calc.matrix(mols)
    rect = calc.block(keys[:3], keys)
    assert np.array_equal(rect, square.values[:3])


def test_block_with_repeated_keys_matches_entrywise_values():
    mols = enumerate_alkanes(4, 6)
    calc = MgkCalculator(MgkHyperparameters(lambda_=0.2))
    keys = calc.register(mols)
    rows = [keys[i] for i in (2, 0, 2, 5, 0)]
    cols = [keys[i] for i in (1, 1, 3, 2, 0, 5)]
    got = calc.block(rows, cols)
    want = np.array([[calc.normalized(a, b) for b in cols] for a in rows])
    assert got.shape == (len(rows), len(cols))
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
    for i, a in enumerate(rows):
        for j, b in enumerate(cols):
            if a == b:
                assert got[i, j] == 1.0


def test_kernel_matrix_validation():
    bad = np.array([[1.0, 0.5], [0.4, 1.0]])
    with pytest.raises(ValueError):
        KernelMatrix(bad, ("a", "b"), ("a", "b"))
    off_diag = np.array([[1.0, 0.2], [0.2, 0.9]])
    with pytest.raises(ValueError):
        KernelMatrix(off_diag, ("a", "b"), ("a", "b"))
    with pytest.raises(ValueError):
        KernelMatrix(np.ones((2, 3)), ("a", "b"), ("x", "y"))


def test_cache_roundtrip_bitwise(tmp_path):
    mols = enumerate_alkanes(4, 6)
    calc = MgkCalculator(DEFAULT)
    km = calc.matrix(mols)
    path = str(tmp_path / "cache.csv")
    rows = calc.save_cache(path)
    assert rows > 0

    fresh = MgkCalculator(DEFAULT)
    assert fresh.load_cache(path) == rows

    def boom(pairs):
        raise AssertionError(f"cache miss for {pairs}")

    fresh._compute_pairs = boom
    km2 = fresh.matrix(mols)
    assert np.array_equal(km2.values, km.values)


def test_cache_hyperparameter_mismatch(tmp_path):
    mols = enumerate_alkanes(4, 5)
    calc = MgkCalculator(DEFAULT)
    calc.matrix(mols)
    path = str(tmp_path / "cache.csv")
    calc.save_cache(path)

    other = MgkCalculator(MgkHyperparameters(q=0.5))
    with pytest.raises(ValueError):
        other.load_cache(path)
    assert other.load_cache(path, require_match=False) == 0


@pytest.mark.parametrize(
    "row, message",
    [
        ("CCCC,CCCC", "expected 3 columns, got 2"),
        ("CCCC,CCCC,0.5,1", "expected 3 columns, got 4"),
        ("CCCC,CCCC,nan", "'nan' is not a finite positive number"),
        ("CCCC,CCCC,-inf", "'-inf' is not a finite positive number"),
        ("CCCC,CCCC,inf", "'inf' is not a finite positive number"),
        ("CCCC,CCCC,0.0", "'0.0' is not a finite positive number"),
        ("CCCC,CCCC,-0.25", "'-0.25' is not a finite positive number"),
        ("CCCC,CCCC,abc", "'abc' is not a finite positive number"),
    ],
)
def test_cache_rejects_bad_rows(tmp_path, row, message):
    mols = enumerate_alkanes(4, 5)
    calc = MgkCalculator(DEFAULT)
    calc.matrix(mols)
    path = str(tmp_path / "cache.csv")
    rows = calc.save_cache(path)
    with open(path, "a") as fh:
        fh.write(row + "\n")

    fresh = MgkCalculator(DEFAULT)
    with pytest.raises(ValueError) as err:
        fresh.load_cache(path)
    assert path in str(err.value)
    assert f"line {rows + 3}" in str(err.value)
    assert message in str(err.value)
    assert fresh.save_cache(str(tmp_path / "empty.csv")) == 0


def test_cache_rejects_a_version_2_file(tmp_path):
    # version-2 values came from the Jacobi-preconditioned solver
    calc = MgkCalculator(DEFAULT)
    calc.matrix(enumerate_alkanes(4, 5))
    path = tmp_path / "cache.csv"
    calc.save_cache(str(path))
    header = f"{mgk._CACHE_MAGIC},{{}},{DEFAULT.content_hash()}"
    text = path.read_text()
    assert text.startswith(header.format(3))
    path.write_text(text.replace(header.format(3), header.format(2), 1))

    fresh = MgkCalculator(DEFAULT)
    with pytest.raises(ValueError, match="hyperparameters/version"):
        fresh.load_cache(str(path))
    assert fresh.load_cache(str(path), require_match=False) == 0
    assert fresh.cached_pairs == 0
