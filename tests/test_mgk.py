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
    edge_kernel,
    kernel_matrix,
    mgk_normalized,
    mgk_raw,
    vertex_kernel,
)
from alkspace.molspace import (
    Atom,
    Bond,
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


def atom(element: str = "C", degree: int = 0) -> Atom:
    return Atom(element=element, heavy_degree=degree, h_count=0)


def graph(elements: str, bonds: list[tuple[int, int, int]]) -> MolecularGraph:
    """Tiny-graph builder: elements as a string, bonds as (i, j, order)."""
    degree = [0] * len(elements)
    for i, j, _ in bonds:
        degree[i] += 1
        degree[j] += 1
    vertices = [atom(e, degree[k]) for k, e in enumerate(elements)]
    return MolecularGraph(vertices, [Bond((i, j), order) for i, j, order in bonds])


# -- reference implementations ------------------------------------------------


def _bond_order(g: MolecularGraph, u: int, v: int) -> int:
    key = (u, v) if u < v else (v, u)
    for b in g.edges:
        if b.endpoints == key:
            return b.order
    raise AssertionError(f"no bond {key}")


def dp_truncated_raw(
    g1: MolecularGraph, g2: MolecularGraph, p: MgkHyperparameters, hops: int
) -> float:
    """Walk-pair sum over all simultaneous walks with at most ``hops`` steps."""
    n1, n2 = len(g1.vertices), len(g2.vertices)
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
                        kv = vertex_kernel(g1.vertices[u], g2.vertices[x], p)
                        ke = (
                            1.0
                            if _bond_order(g1, v, u) == _bond_order(g2, w, x)
                            else p.delta_bond_order
                        )
                        acc += pv * pw * kv * ke * r[(u, x)]
                nxt[(v, w)] = acc
        r = nxt
    sw2 = p.start_weight * p.start_weight
    total = 0.0
    for v in range(n1):
        for w in range(n2):
            total += sw2 * vertex_kernel(g1.vertices[v], g2.vertices[w], p) * r[(v, w)]
    return total


def _walks(g: MolecularGraph, hops: int) -> list[list[int]]:
    out = [[v] for v in range(len(g.vertices))]
    for _ in range(hops):
        out = [w + [u] for w in out for u in g.adjacency[w[-1]]]
    return out


def brute_force_raw(
    g1: MolecularGraph, g2: MolecularGraph, p: MgkHyperparameters, max_hops: int
) -> float:
    """Explicit enumeration of simultaneous walk pairs (tiny graphs only)."""
    total = 0.0
    for hops in range(max_hops + 1):
        for w1 in _walks(g1, hops):
            for w2 in _walks(g2, hops):
                weight = (
                    p.start_weight
                    * p.start_weight
                    * vertex_kernel(g1.vertices[w1[0]], g2.vertices[w2[0]], p)
                )
                for i in range(1, hops + 1):
                    weight *= (1.0 - p.q) / len(g1.adjacency[w1[i - 1]])
                    weight *= (1.0 - p.q) / len(g2.adjacency[w2[i - 1]])
                    weight *= vertex_kernel(g1.vertices[w1[i]], g2.vertices[w2[i]], p)
                    o1 = _bond_order(g1, w1[i - 1], w1[i])
                    o2 = _bond_order(g2, w2[i - 1], w2[i])
                    weight *= 1.0 if o1 == o2 else p.delta_bond_order
                total += weight * p.q * p.q
    return total


def direct_raw(g1: MolecularGraph, g2: MolecularGraph, p: MgkHyperparameters) -> float:
    """Dense solve of the fixed point R = q^2 + W R on the product graph."""
    n1, n2 = len(g1.vertices), len(g2.vertices)
    w = np.zeros((n1 * n2, n1 * n2))
    for v in range(n1):
        for x in range(n2):
            for u in g1.adjacency[v]:
                for y in g2.adjacency[x]:
                    same = _bond_order(g1, v, u) == _bond_order(g2, x, y)
                    w[v * n2 + x, u * n2 + y] = (
                        (1.0 - p.q) ** 2
                        / (len(g1.adjacency[v]) * len(g2.adjacency[x]))
                        * vertex_kernel(g1.vertices[u], g2.vertices[y], p)
                        * (1.0 if same else p.delta_bond_order)
                    )
    r = np.linalg.solve(np.eye(n1 * n2) - w, np.full(n1 * n2, p.q * p.q))
    kv = [vertex_kernel(a, b, p) for a in g1.vertices for b in g2.vertices]
    return p.start_weight**2 * float(np.dot(kv, r))


def truncation_tail_bound(
    g1: MolecularGraph, g2: MolecularGraph, p: MgkHyperparameters, hops: int
) -> float:
    """Upper bound on the walk mass beyond ``hops`` steps (all kernels <= 1)."""
    n1, n2 = len(g1.vertices), len(g2.vertices)
    c = (1.0 - p.q) ** 2
    tail = p.q * p.q * c ** (hops + 1) / (1.0 - c)
    return p.start_weight**2 * n1 * n2 * tail


# -- micro-kernels -------------------------------------------------------------


def test_vertex_kernel_identical():
    assert vertex_kernel(atom("C", 2), atom("C", 2), DEFAULT) == 1.0


def test_vertex_kernel_degree_mismatch():
    assert vertex_kernel(atom("C", 1), atom("C", 3), DEFAULT) == pytest.approx(0.9)


def test_vertex_kernel_full_mismatch():
    v = vertex_kernel(atom("C", 1), atom("N", 3), DEFAULT)
    assert v == pytest.approx(0.3 * 0.9)


def test_edge_kernel():
    single = Bond((0, 1), 1)
    double = Bond((0, 1), 2)
    assert edge_kernel(single, Bond((1, 2), 1), DEFAULT) == 1.0
    assert edge_kernel(single, double, DEFAULT) == pytest.approx(0.9)
    p = MgkHyperparameters(delta_bond_order=0.4)
    assert edge_kernel(single, double, p) == pytest.approx(0.4)


# -- closed forms and symmetry -------------------------------------------------


def test_single_vertex_closed_form():
    c1 = graph("C", [])
    n1 = graph("N", [])
    p = DEFAULT
    assert mgk_raw(c1, c1, p) == pytest.approx(p.q**2, rel=1e-12)
    assert mgk_raw(c1, n1, p) == pytest.approx(p.delta_element * p.q**2, rel=1e-12)
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
    empty = MolecularGraph([], [])
    with pytest.raises(GraphError):
        mgk_raw(empty, empty, DEFAULT)


def test_element_symbols_compare_exactly_up_to_five_bytes():
    # symbols are compared through numeric codes inside the solver
    q2 = DEFAULT.q**2
    for a, b in [("Cl", "C"), ("Cab", "Cac"), ("\x00C", "C"), ("Abcde", "Abcdf")]:
        ga, gb = MolecularGraph([atom(a)], []), MolecularGraph([atom(b)], [])
        assert mgk_raw(ga, gb, DEFAULT) == pytest.approx(DEFAULT.delta_element * q2)
        assert mgk_raw(ga, ga, DEFAULT) == pytest.approx(q2)
    long_name = MolecularGraph([atom("Abcdef")], [])
    with pytest.raises(GraphError, match="at most 5 bytes"):
        mgk_raw(long_name, long_name, DEFAULT)


# -- oracle consistency ---------------------------------------------------------

TINY_GRAPHS = [
    graph("C", []),
    graph("CC", [(0, 1, 1)]),
    graph("CC", [(0, 1, 2)]),
    graph("CN", [(0, 1, 1)]),
    graph("CCC", [(0, 1, 1), (1, 2, 1)]),
    graph("CCO", [(0, 1, 1), (1, 2, 2)]),  # mixed bond orders
]


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


def test_mixed_bond_orders_agree_with_truncated_oracle():
    chain = graph("CCC", [(0, 1, 1), (1, 2, 1)])
    mixed = graph("CCC", [(0, 1, 1), (1, 2, 2)])
    doubled = graph("CCC", [(0, 1, 2), (1, 2, 2)])
    for g1, g2 in [(mixed, mixed), (mixed, chain), (chain, doubled), (mixed, doubled)]:
        want = dp_truncated_raw(g1, g2, FAST_STOP, 20)
        assert mgk_raw(g1, g2, FAST_STOP) == pytest.approx(want, abs=1e-8)


MIXED_GRAPHS = TINY_GRAPHS + [
    graph("CCC", [(0, 1, 1), (1, 2, 2)]),
    graph("CCC", [(0, 1, 2), (1, 2, 2)]),
    graph("CCCCO", [(0, 1, 1), (1, 2, 2), (2, 3, 3), (1, 4, 1)]),
    graph("CCCC", [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 2)]),  # a ring
]


def test_matches_direct_solve_all_pairs_up_to_c7():
    mols = enumerate_alkanes(1, 7)
    for i, g1 in enumerate(mols):
        for g2 in mols[i:]:
            want = direct_raw(g1, g2, DEFAULT)
            assert mgk_raw(g1, g2, DEFAULT) == pytest.approx(want, rel=1e-10)


def test_matches_direct_solve_with_mixed_bond_orders():
    for p in (DEFAULT, FAST_STOP, MgkHyperparameters(delta_bond_order=0.3)):
        for g1 in MIXED_GRAPHS:
            for g2 in MIXED_GRAPHS:
                want = direct_raw(g1, g2, p)
                assert mgk_raw(g1, g2, p) == pytest.approx(want, rel=1e-10)


@st.composite
def random_trees(draw, max_atoms=10):
    """Trees of 1..max_atoms atoms with random elements and bond orders."""
    n = draw(st.integers(1, max_atoms))
    bonds = [
        (draw(st.integers(0, i - 1)), i, draw(st.sampled_from([1, 1, 2])))
        for i in range(1, n)
    ]
    elements = "".join(draw(st.sampled_from("CCCN")) for _ in range(n))
    return graph(elements, bonds)


@settings(max_examples=60, deadline=None)
@given(random_trees(), random_trees(), st.sampled_from([0.05, 0.2, 0.5]))
def test_random_trees_match_direct_solve(g1, g2, q):
    p = MgkHyperparameters(q=q)
    want = direct_raw(g1, g2, p)
    assert mgk_raw(g1, g2, p) == pytest.approx(want, rel=1e-10)
    assert mgk_raw(g2, g1, p) == pytest.approx(want, rel=1e-10)


@st.composite
def alkane_trees(draw, max_atoms=12):
    """Carbon trees of 1..max_atoms atoms, at most four bonds per atom."""
    n = draw(st.integers(1, max_atoms))
    degree = [0] * n
    bonds = []
    for i in range(1, n):
        j = draw(st.sampled_from([j for j in range(i) if degree[j] < 4]))
        degree[i] += 1
        degree[j] += 1
        bonds.append((j, i, 1))
    return graph("C" * n, bonds)


@settings(max_examples=60, deadline=None)
@given(alkane_trees())
@example(graph("C", []))
@example(graph("CC", [(0, 1, 1)]))
def test_eigenbasis_diagonalises_degrees_and_adjacency(g):
    n = len(g.vertices)
    packed = mgk._GraphArrays(g).packed
    v, lam = packed[:, :n], packed[:, n]
    degrees = np.diag([max(len(nb), 1) for nb in g.adjacency]).astype(float)
    adjacency = np.zeros((n, n))
    for b in g.edges:
        i, j = b.endpoints
        adjacency[i, j] = adjacency[j, i] = 1.0
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
    assert max(len(g.vertices) for g in mols) == 16
    values = MgkCalculator(MgkHyperparameters(fp_max_iters=15)).matrix(mols).values
    assert np.all(values > 0.0)


# -- invariance -----------------------------------------------------------------


def _permuted(g: MolecularGraph, perm: list[int]) -> MolecularGraph:
    vertices = [None] * len(perm)
    for old, new in enumerate(perm):
        vertices[new] = g.vertices[old]
    bonds = [Bond((perm[i], perm[j]), b.order) for b in g.edges for i, j in [b.endpoints]]
    return MolecularGraph(vertices, bonds)


def test_isomorphism_invariance_under_relabeling():
    rng = np.random.default_rng(11)
    for smiles in ("CCCCC", "CC(C)CC", "CC(C)(C)C"):
        g = parse_smiles(smiles)
        base = mgk_raw(g, g, DEFAULT)
        for _ in range(3):
            perm = list(rng.permutation(len(g.vertices)))
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


def test_register_rejects_graphs_beyond_the_alkane_key():
    # The id records only the carbon skeleton, so C-N and C=C must not be
    # keyed as ethane: their kernel values against it differ.
    calc = MgkCalculator(DEFAULT)
    assert mgk_normalized(graph("CC", [(0, 1, 1)]), graph("CN", [(0, 1, 1)]), DEFAULT) < 1.0
    for g in (graph("CN", [(0, 1, 1)]), graph("CC", [(0, 1, 2)])):
        with pytest.raises(GraphError):
            calc.register([g])
    assert calc.register([graph("CC", [(0, 1, 1)])]) == ["CC"]


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
