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

import functools
import io
import math
import os
import random
import re
import tempfile

import networkx as nx
import numpy as np
import pytest
from networkx.algorithms import isomorphism
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from alkspace import mgk, molspace

from alkspace.mgk import (
    KernelConvergenceError,
    MgkCalculator,
    MgkHyperparameters,
    mgk_raw,
)
from alkspace.molspace import (
    GraphError,
    MolecularGraph,
    SmilesError,
    enumerate_alkane_smiles,
    enumerate_alkanes,
    parse_smiles,
    to_canonical_smiles,
)

DEFAULT = MgkHyperparameters()
# Fast-mixing walk: the L=20 truncation tail is far below 1e-8, so the
# truncated oracle can certify the fixed point to that accuracy.
FAST_STOP = MgkHyperparameters(q=0.5)


def dense(mols, p=DEFAULT):
    """The normalized kernel block of ``mols`` against themselves."""
    calc = MgkCalculator(p)
    keys = calc.register(mols)
    return calc.block(keys, keys)


def normalized(g1: MolecularGraph, g2: MolecularGraph, p=DEFAULT) -> float:
    """The normalized entry the calculator gives two graphs."""
    calc = MgkCalculator(p)
    a, b = calc.register([g1, g2])
    return float(calc.block([a], [b])[0, 0])


def canonical(graphs) -> list[str]:
    """The graphs' canonical SMILES ids."""
    return [to_canonical_smiles(g) for g in graphs]


def held(calc: MgkCalculator, a: str, b: str) -> float | None:
    """The raw value a calculator holds for two keys, or None."""
    i, j = sorted((calc._index[a], calc._index[b]))
    value = calc._held(np.array([i << 32 | j]))[0]
    return None if math.isnan(value) else float(value)


def packed_arrays(ids) -> list[np.ndarray]:
    """Each SMILES id's (m, m + 4) row of the size-class arenas."""
    arenas = mgk._Arenas()
    classes, rows = mgk._graph_arrays(ids, arenas)
    return [arenas.stacks[m][r] for m, r in zip(classes.tolist(), rows.tolist())]


def refined_classes(g: MolecularGraph) -> list[int]:
    """Each carbon's class in ``mgk._refine`` of the graph alone, numbered
    from 0 within the graph."""
    neighbors = np.array([[nb + (-1,) * (4 - len(nb)) for nb in g.adjacency]], np.int64)
    return mgk._refine(neighbors)[0].tolist()


def quotient(g: MolecularGraph, classes: list[int]):
    """Edge counts between classes, class sizes and class degrees, by loops."""
    c = max(classes) + 1
    edges = np.zeros((c, c))
    sizes = np.zeros(c)
    degrees = np.zeros(c)
    for v, nb in enumerate(g.adjacency):
        sizes[classes[v]] += 1
        degrees[classes[v]] = len(nb)
        for u in nb:
            edges[classes[v], classes[u]] += 1
    return edges, sizes, degrees


def solve(arenas, pairs, p):
    """``mgk._solve_pairs`` of (class, row) pairs of both sides."""
    (ca, ra), (cb, rb) = (np.array(side, np.int64).T for side in zip(*pairs))
    return mgk._solve_pairs(arenas, ca, ra, cb, rb, p)


def held_count(calc: MgkCalculator) -> int:
    """How many raw values a calculator holds, solved or loaded."""
    cross = sum(len(codes) for codes, _, _ in calc._cross.runs)
    return int(np.count_nonzero(~np.isnan(calc._self))) + cross


def whole_store(calc: MgkCalculator) -> tuple[int, bytes]:
    """The row count and bytes ``save_cache`` writes: every raw value a
    calculator holds, solved or loaded."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "whole.npz")
        rows = calc.save_cache(path)
        with open(path, "rb") as fh:
            return rows, fh.read()


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
    total = 0.0
    for v in range(n1):
        for w in range(n2):
            total += _kv(g1, v, g2, w, p) * r[(v, w)]
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
                weight = _kv(g1, w1[0], g2, w2[0], p)
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
    return float(np.dot(kv, r))


def truncation_tail_bound(
    g1: MolecularGraph, g2: MolecularGraph, p: MgkHyperparameters, hops: int
) -> float:
    """Upper bound on the walk mass beyond ``hops`` steps (all kernels <= 1)."""
    n1, n2 = len(g1), len(g2)
    c = (1.0 - p.q) ** 2
    tail = p.q * p.q * c ** (hops + 1) / (1.0 - c)
    return n1 * n2 * tail


# -- closed forms and symmetry -------------------------------------------------


def test_single_vertex_closed_form():
    c1 = parse_smiles("C")
    p = DEFAULT
    assert mgk_raw(c1, c1, p) == pytest.approx(p.q**2, rel=1e-12)


def test_symmetry_on_random_alkane_pairs():
    mols = enumerate_alkanes(4, 8)
    rng = np.random.default_rng(3)
    for _ in range(50):
        i, j = rng.integers(0, len(mols), size=2)
        a, b = mols[int(i)], mols[int(j)]
        assert abs(mgk_raw(a, b, DEFAULT) - mgk_raw(b, a, DEFAULT)) < 1e-12


def test_mirrored_pairs_of_different_size_classes_are_bitwise_equal():
    # each pair is solved with its smaller size class first
    mols = enumerate_alkanes(4, 10)
    sizes = mgk._graph_arrays(canonical(mols), mgk._Arenas())[0]
    rng = np.random.default_rng(5)
    pairs = [(int(i), int(j)) for i, j in rng.integers(0, len(mols), size=(120, 2))]
    pairs = [(i, j) for i, j in pairs if sizes[i] != sizes[j]]
    assert len(pairs) > 40
    for i, j in pairs:
        assert mgk_raw(mols[i], mols[j], DEFAULT) == mgk_raw(mols[j], mols[i], DEFAULT)


def test_mirrored_shapes_share_one_stack_per_chunk():
    mols = enumerate_alkanes(4, 9)
    calc = MgkCalculator(DEFAULT)
    keys = calc.register(mols)
    size = dict(zip(keys, mgk._graph_arrays(keys, mgk._Arenas())[0].tolist()))
    graph_of = dict(zip(keys, mols))
    small = [k for k in keys if size[k] == 4][:8]
    large = [k for k in keys if size[k] == 8][:8]
    # the calculator orders a pair by canonical SMILES, which puts the
    # class-4 molecule first in some pairs and the class-8 one in others
    first = {min(a, b) for a in small for b in large}
    assert first & set(small) and first & set(large)
    calc.block(small, large)
    # one stack of each class's self-kernels, and one of the 64 cross pairs,
    # within one chunk of _CHUNK_ENTRIES product-class entries
    assert 64 * 4 * 8 <= mgk._CHUNK_ENTRIES
    assert calc.stacks_solved == 3
    for a in small:
        for b in large:
            assert held(calc, a, b) == mgk_raw(graph_of[a], graph_of[b], DEFAULT)
            assert held(calc, a, b) == mgk_raw(graph_of[b], graph_of[a], DEFAULT)


def test_finished_slices_do_not_disturb_the_rest_of_their_stack(monkeypatch):
    # all of size class 4: one stack of the 10 self pairs, which takes 6
    # iterations, and one of the 45 cross pairs, which takes 8. Methane's
    # pairs finish at iteration 1, its self pair with an exactly zero
    # residual, so its slice divides 0 by 0 while the others run on.
    smiles = "C CC CCC CC(C)C CCCC CCC(C)C CC(C)(C)C CCCCC CCCCCC CCC(C)CC"
    mols = [parse_smiles(s) for s in smiles.split()]
    taken = []
    pcg = mgk._pcg

    def record(*args):
        sums, n = pcg(*args)
        taken.append(n)
        return sums, n

    monkeypatch.setattr(mgk, "_pcg", record)
    calc = MgkCalculator(DEFAULT)
    keys = calc.register(mols)
    calc.block(keys, keys)
    assert taken == [6, 8]
    assert calc.stacks_solved == 2 and calc.cg_iterations == 14
    monkeypatch.undo()
    for a in keys:
        for b in keys:
            alone = MgkCalculator(DEFAULT)
            alone.register(mols)
            alone.block([a], [b])
            value = held(calc, a, b)
            assert math.isfinite(value) and value == held(alone, a, b)


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
def alkane_trees(draw, max_atoms=12, min_atoms=1):
    """Carbon trees of min_atoms..max_atoms atoms, at most four bonds per atom."""
    n = draw(st.integers(min_atoms, max_atoms))
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
@example(parse_smiles("CC(C)(C)C(C)(C)C"))
def test_eigenbasis_diagonalises_degrees_and_adjacency(g):
    # V diagonalises the class weights W = diag(s * d) and the class edge
    # counts Ab = P^T A P; lifted to the carbons, P V diagonalises the
    # clamped degrees D and the adjacency A of the whole graph
    n = len(g)
    classes = refined_classes(g)
    c = max(classes) + 1
    edges, sizes, degrees = quotient(g, classes)
    (packed,) = packed_arrays(canonical([g]))
    m = len(packed)
    v, lam = packed[:c, :c], packed[:c, m]
    weight = sizes * np.maximum(degrees, 1.0)
    assert np.array_equal(packed[:c, m + 2], degrees)
    assert np.array_equal(packed[:c, m + 3], sizes)
    np.testing.assert_allclose(v.T @ np.diag(weight) @ v, np.eye(c), rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(v.T @ edges @ v, np.diag(lam), rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(packed[:c, m + 1], v.T @ weight, rtol=0.0, atol=1e-12)
    member = np.zeros((n, c))
    member[np.arange(n), classes] = 1.0
    lifted = member @ v
    adjacency = np.zeros((n, n))
    for i, nb in enumerate(g.adjacency):
        adjacency[i, list(nb)] = 1.0
    clamped = np.diag([max(len(nb), 1) for nb in g.adjacency]).astype(float)
    np.testing.assert_allclose(lifted.T @ clamped @ lifted, np.eye(c), rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(lifted.T @ adjacency @ lifted, np.diag(lam), rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(adjacency @ lifted, clamped @ lifted * lam, rtol=0.0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(alkane_trees(16))
@example(parse_smiles("C"))
def test_packed_arrays_are_zero_outside_the_graph(g):
    (packed,) = packed_arrays(canonical([g]))
    c, m = max(refined_classes(g)) + 1, len(packed)
    assert m == mgk._size_class(c)
    assert m % mgk._SIZE_STEP == 0 and c <= m < c + mgk._SIZE_STEP
    assert packed.shape == (m, m + 4)
    # every carbon is in one class, each class is nonempty
    sizes = packed[:, m + 3]
    assert sizes.sum() == len(g) and (sizes[:c] >= 1).all()
    # rows c..m-1 of every column, and columns c..m-1 of V
    assert not packed[c:].any()
    assert not packed[:, c:m].any()


def _classes_of_one_graph(g: MolecularGraph) -> list[int]:
    """Colour refinement by dict and loop: colours start as degrees, and
    each round numbers the distinct (colour, sorted neighbour colours)
    signatures in sorted order, until the number of classes stays."""
    colour = [len(nb) for nb in g.adjacency]
    while True:
        signature = [(colour[v], tuple(sorted(colour[u] for u in nb)))
                     for v, nb in enumerate(g.adjacency)]
        rank = {key: i for i, key in enumerate(sorted(set(signature)))}
        refined = [rank[key] for key in signature]
        if len(set(refined)) == len(set(colour)):
            return refined
        colour = refined


def _arrays_of_one_graph(g: MolecularGraph) -> np.ndarray:
    """``packed`` as built one graph at a time, with one eigh per graph."""
    edges, sizes, degrees = quotient(g, _classes_of_one_graph(g))
    c = len(sizes)
    m = mgk._size_class(c)
    weight = sizes * np.maximum(degrees, 1.0)
    root = 1.0 / np.sqrt(weight)
    lam, u = np.linalg.eigh(root[:, None] * edges * root[None, :])
    v = root[:, None] * u
    packed = np.zeros((m, m + 4))
    packed[:c, :c] = v
    packed[:c, m] = lam
    packed[:c, m + 1] = v.T @ weight
    packed[:c, m + 2] = degrees
    packed[:c, m + 3] = sizes
    return packed


def test_stacked_arrays_are_bitwise_those_of_one_graph_alone():
    # cache values depend on these bytes, so a stack must not change them
    graphs = enumerate_alkanes(4, 10)
    ids = canonical(graphs)
    want = [_arrays_of_one_graph(g).tobytes() for g in graphs]
    for order in (ids, ids[::-1]):
        got = dict(zip(order, packed_arrays(order)))
        for g, key, packed in zip(graphs, ids, want):
            assert got[key].shape[0] == mgk._size_class(max(_classes_of_one_graph(g)) + 1)
            assert got[key].tobytes() == packed
    # molecules added to arenas in several calls keep their bytes as the
    # arenas grow
    arenas = mgk._Arenas()
    placed = [mgk._graph_arrays(ids[lo : lo + 7], arenas) for lo in range(0, len(ids), 7)]
    classes, rows = (np.concatenate(side) for side in zip(*placed))
    for m, r, packed in zip(classes.tolist(), rows.tolist(), want):
        assert arenas.stacks[m][r].tobytes() == packed


# C1..C10 by the size class of their class counts
_BY_SIZE_CLASS: dict[int, list[MolecularGraph]] = {}
for _g in enumerate_alkanes(1, 10):
    _BY_SIZE_CLASS.setdefault(mgk._size_class(max(_classes_of_one_graph(_g)) + 1), []).append(_g)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from([0.05, 0.2, 0.5]))
def test_a_size_class_stack_matches_each_pair_solved_alone(data, q):
    # graphs of different class and carbon counts in one size class share
    # one stack, and each pair's value is bitwise what it is in a stack of
    # its own
    top = data.draw(st.sampled_from(sorted(_BY_SIZE_CLASS)))
    graphs = data.draw(st.lists(st.sampled_from(_BY_SIZE_CLASS[top]), min_size=2, max_size=4))
    assume(len({max(_classes_of_one_graph(g)) for g in graphs}) > 1)
    assume(len({len(g) for g in graphs}) > 1)
    p = MgkHyperparameters(q=q)
    arenas = mgk._Arenas()
    sides = list(zip(*mgk._graph_arrays(canonical(graphs), arenas)))
    assert {m for m, _ in sides} == {top}
    pairs = [(a, b) for a in sides for b in sides]
    stacked, stacks, _ = solve(arenas, pairs, p)
    assert stacks == 1
    for pair, value in zip(pairs, stacked.tolist()):
        alone, one, _ = solve(arenas, [pair], p)
        assert one == 1
        assert alone[0] == value


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
    values = dense(mols, MgkHyperparameters(fp_max_iters=15))
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
            assert mgk_raw(h, h, DEFAULT) == base
            assert mgk_raw(g, h, DEFAULT) == base


def _relabelled(g: MolecularGraph, rnd: random.Random) -> tuple[MolecularGraph, list[int]]:
    """``g`` under a random vertex numbering, each neighbour list shuffled,
    and the new number of each vertex."""
    perm = rnd.sample(range(len(g)), len(g))
    neighbors: list[list[int]] = [[] for _ in perm]
    for old, nb in enumerate(g.adjacency):
        neighbors[perm[old]] = rnd.sample([perm[u] for u in nb], len(nb))
    return MolecularGraph(neighbors), perm


def _spelling(g: MolecularGraph, rnd: random.Random) -> str:
    """``g`` written as SMILES from a random root, each carbon's children in
    random order, its last child in a branch of its own or not at random."""

    def write(v: int, parent: int) -> str:
        children = [u for u in g.adjacency[v] if u != parent]
        rnd.shuffle(children)
        text = "C" + "".join(f"({write(u, v)})" for u in children[:-1])
        if children:
            last = write(children[-1], v)
            text += f"({last})" if rnd.random() < 0.5 else last
        return text

    return write(rnd.randrange(len(g)), -1)


def _block_of(graphs, p=DEFAULT) -> np.ndarray:
    calc = MgkCalculator(p)
    keys = calc.register(graphs)
    return calc.block(keys, keys)


@settings(max_examples=40, deadline=None)
@given(
    alkane_trees(13),
    alkane_trees(13),
    st.randoms(use_true_random=False),
    st.sampled_from([math.inf, 0.2]),
)
@example(parse_smiles("C(CC)(C)CCCC"), parse_smiles("CCCCCCCC"), random.Random(0), math.inf)
@example(parse_smiles("C(CCCC)(CC)C"), parse_smiles("CCCCCCCC"), random.Random(1), math.inf)
def test_values_are_bitwise_independent_of_vertex_numbering(g1, g2, rnd, lam):
    p = MgkHyperparameters(lambda_=lam)
    (h1, _), (h2, _) = _relabelled(g1, rnd), _relabelled(g2, rnd)
    assert mgk_raw(h1, h2, p) == mgk_raw(g1, g2, p)
    assert mgk_raw(h2, h1, p) == mgk_raw(g2, g1, p)
    assert np.array_equal(_block_of([h1, h2], p), _block_of([g1, g2], p))
    # a spelling of g1 from another root numbers its carbons otherwise
    spelled, (key,) = _spelling(g1, rnd), canonical([g1])
    assert packed_arrays([spelled])[0].tobytes() == packed_arrays([key])[0].tobytes()


def test_two_spellings_of_one_molecule_give_bitwise_equal_values():
    # the two spellings number the carbons differently
    octane = parse_smiles("CCCCCCCC")
    a, b = parse_smiles("C(CC)(C)CCCC"), parse_smiles("C(CCCC)(CC)C")
    assert a.adjacency != b.adjacency
    assert mgk_raw(a, octane, DEFAULT) == mgk_raw(b, octane, DEFAULT)
    spelled = packed_arrays(["C(CC)(C)CCCC", "C(CCCC)(CC)C"])
    assert spelled[0].tobytes() == spelled[1].tobytes()
    assert np.array_equal(_block_of([a, octane]), _block_of([b, octane]))


# -- reading ids -------------------------------------------------------------------


def _padded(smiles: str) -> list[list[int]]:
    """``parse_smiles``' neighbour lists of ``smiles``, padded with -1."""
    return [list(nb) + [-1] * (4 - len(nb)) for nb in parse_smiles(smiles).adjacency]


def test_the_reader_gives_parse_smiles_lists_for_every_id_up_to_c12():
    for n in range(1, 13):
        ids = enumerate_alkane_smiles(n, n)
        table = molspace._neighbor_table(ids, n)
        assert table.dtype == np.int64 and table.shape == (len(ids), n, 4)
        assert table.tolist() == [_padded(s) for s in ids]


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 19).flatmap(lambda n: st.lists(alkane_trees(n, n), min_size=1, max_size=6)),
    st.randoms(use_true_random=False),
)
def test_the_reader_gives_parse_smiles_lists_for_any_spelling(graphs, rnd):
    # one carbon count, spelled from random roots in random child order
    spellings = [_spelling(g, rnd) for g in graphs]
    table = molspace._neighbor_table(spellings, len(graphs[0]))
    assert table.tolist() == [_padded(s) for s in spellings]


@pytest.mark.parametrize(
    "bad", ["CC)C", "(C)C", "C()C", "CC(C", "C((C))C", "CC(C)(C)(C)C", "CX", "X"]
)
def test_a_malformed_id_raises_parse_smiles_error_when_solved(bad):
    with pytest.raises(SmilesError) as parsed:
        parse_smiles(bad)
    calc = MgkCalculator(DEFAULT)
    calc.register_canonical(["CCCC", bad, "CC(C)C"])
    with pytest.raises(SmilesError, match=re.escape(str(parsed.value))):
        calc.block(["CCCC", bad], ["CC(C)C"])


@pytest.mark.parametrize("spelling", [" CCC", "CCC\n", "C((C)C)"])
def test_an_id_parse_smiles_reads_but_no_canonical_id_holds_raises(spelling):
    # whitespace, and a "(" not followed by a carbon, are never in an id
    parse_smiles(spelling)
    calc = MgkCalculator(DEFAULT)
    calc.register_canonical([spelling])
    with pytest.raises(SmilesError, match="no canonical id holds"):
        calc.block([spelling], [spelling])


# -- colour refinement against independent oracles ----------------------------------


def _automorphism_orbits(g: MolecularGraph) -> set[frozenset[int]]:
    """Orbits of the automorphism group, from networkx's isomorphism search."""
    graph = nx.Graph()
    graph.add_nodes_from(range(len(g)))
    graph.add_edges_from((v, u) for v, nb in enumerate(g.adjacency) for u in nb)
    orbit = [{v} for v in range(len(g))]
    for mapping in isomorphism.GraphMatcher(graph, graph).isomorphisms_iter():
        for v, u in mapping.items():
            orbit[v].add(u)
    return {frozenset(o) for o in orbit}


def _partition(classes: list[int]) -> set[frozenset[int]]:
    cells: dict[int, set[int]] = {}
    for v, c in enumerate(classes):
        cells.setdefault(c, set()).add(v)
    return {frozenset(cell) for cell in cells.values()}


def test_refinement_classes_are_the_automorphism_orbits_up_to_c10():
    graphs = enumerate_alkanes(1, 10)
    assert len(graphs) == 150
    rnd = random.Random(3)
    for g in graphs:
        orbits = _automorphism_orbits(g)
        assert _partition(refined_classes(g)) == orbits
        # the same orbits, renumbered, for the graph renumbered
        h, perm = _relabelled(g, rnd)
        assert _partition([refined_classes(h)[perm[v]] for v in range(len(g))]) == orbits


def _assert_equitable(g: MolecularGraph, classes: list[int]) -> None:
    """Every carbon of a class has the same number of neighbours in each
    class, and classes are numbered 0..c-1."""
    c = max(classes) + 1
    assert set(classes) == set(range(c))
    counts: dict[int, list[int]] = {}
    for v, nb in enumerate(g.adjacency):
        row = [0] * c
        for u in nb:
            row[classes[u]] += 1
        assert counts.setdefault(classes[v], row) == row


def test_every_partition_up_to_c12_is_equitable():
    for g in enumerate_alkanes(1, 12):
        _assert_equitable(g, refined_classes(g))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 16).flatmap(lambda n: st.lists(alkane_trees(n, n), min_size=1, max_size=5)))
def test_a_refined_stack_is_equitable_and_numbered_as_each_graph_alone(graphs):
    # graphs of one carbon count refined together, as _graph_arrays does
    neighbors = np.array([[nb + (-1,) * (4 - len(nb)) for nb in g.adjacency] for g in graphs],
                         np.int64)
    for g, row in zip(graphs, mgk._refine(neighbors)):
        classes = row.tolist()
        _assert_equitable(g, classes)
        assert classes == refined_classes(g) == _classes_of_one_graph(g)


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

    # a pair is solved in the order of its sorted keys, unless its size
    # classes differ, when mgk_raw and the calculator put the smaller first
    graph_of = dict(zip(keys, mols))
    alone = {(a, b): mgk_raw(graph_of[a], graph_of[b], DEFAULT) for a, b in targets}
    for a, b in targets:
        calc = fresh()
        calc.block([a], [b])
        assert held(calc, a, b) == alone[(a, b)]

    companions = [k for pair in targets for k in pair]
    companions += list(rng.choice(keys, size=40, replace=False))
    for order in (keys, keys[::-1], list(rng.permutation(companions))):
        calc = fresh()
        calc.block(order, order)
        assert {pair: held(calc, *pair) for pair in targets} == alone


# -- normalization ---------------------------------------------------------------


def test_normalized_self_is_exactly_one():
    g = parse_smiles("CC(C)CC")
    assert normalized(g, g) == 1.0


def test_normalized_bounds_one_iff_isomorphic():
    mols = enumerate_alkanes(1, 8)
    values = dense(mols)
    assert np.allclose(np.diag(values), 1.0, atol=1e-12)
    off = values[~np.eye(len(mols), dtype=bool)]
    assert off.min() >= 0.0
    # distinct isomorphism classes stay clearly below 1
    assert off.max() <= 1.0 - 1e-4
    # an isomorphic relabeling is indistinguishable
    g = parse_smiles("CCCC(C)C")
    h = _permuted(g, [5, 3, 1, 0, 2, 4])
    assert normalized(g, h) == 1.0


def test_butane_isobutane_strictly_between_zero_and_one():
    v = normalized(parse_smiles("CCCC"), parse_smiles("CC(C)C"))
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
    assert normalized(g1, g2, p) == pytest.approx(manual, rel=1e-12)
    plain = k12 / math.sqrt(k11 * k22)
    assert normalized(g1, g2) == pytest.approx(plain, rel=1e-12)


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
                assert held(calc, a, b) is None
                # also 0 where the true raw value is held, as after a load
                assert mgk._normalize(*raw, SCREENING) == 0.0
            else:
                assert got[i, j] == want
    # only the self-kernels and the unscreened pairs were solved, once each
    assert calc.pairs_solved == held_count(calc)


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
    one_by_one = np.array([[calc.block([a], [b])[0, 0] for b in keys] for a in rows])
    assert np.array_equal(one_by_one, whole)


def test_requested_counts_the_distinct_in_band_cross_pairs_looked_up():
    mols = enumerate_alkanes(4, 9)
    calc = MgkCalculator(SCREENING)
    keys = calc.register(mols)
    assert calc.pairs_requested == 0
    calc.block(keys[:5], keys)
    first = calc.pairs_requested
    assert 0 < first <= 5 * len(keys)
    # the same pairs again, transposed, and a key against itself
    calc.block(keys, keys[:5])
    calc.block(keys[:1], keys[:1])
    assert calc.pairs_requested == first
    whole = calc.block(keys, keys)
    # an in-band entry is positive, a screened one 0 and never looked up
    assert calc.pairs_requested == np.count_nonzero(np.triu(whole, 1))
    assert calc.pairs_requested < len(keys) * (len(keys) - 1) // 2


def test_normalized_skips_the_solve_of_a_screened_pair(monkeypatch):
    graphs = [parse_smiles("CCCC"), parse_smiles("CCCCCCCCCC")]
    classes = []
    solve_pairs = mgk._solve_pairs

    def count(arenas, class_a, row_a, class_b, row_b, p):
        classes.extend(zip(class_a.tolist(), class_b.tolist()))
        return solve_pairs(arenas, class_a, row_a, class_b, row_b, p)

    with monkeypatch.context() as m:
        m.setattr(mgk, "_solve_pairs", count)
        assert normalized(*graphs, SCREENING) == 0.0
    # butane has 2 colour classes and decane 5
    assert sorted(classes) == [(mgk._size_class(2),) * 2, (mgk._size_class(5),) * 2]

    calc = MgkCalculator(SCREENING)
    small, large = calc.register(graphs)
    solved = []
    compute = calc._compute_pairs

    def record(codes):
        solved.extend((calc._keys[c >> 32], calc._keys[c & mgk._LOW]) for c in codes.tolist())
        return compute(codes)

    monkeypatch.setattr(calc, "_compute_pairs", record)
    assert calc.block([small], [large])[0, 0] == 0.0
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
    n_full, full = unscreened.segment()

    fresh = MgkCalculator(SCREENING)
    fresh.register(mols)
    want = fresh.block(rows, keys)
    screened = want == 0.0
    assert screened.any() and not (dense[screened] == 0.0).any()
    assert held_count(fresh) < n_full

    loaded = MgkCalculator(SCREENING)
    loaded.register(mols)
    assert loaded.load_cache(io.BytesIO(full)) == n_full
    assert np.array_equal(loaded.block(rows, keys), want)
    assert loaded.pairs_solved == 0

    # the screened pairs are neither solved nor written
    n, data = fresh.segment()
    assert n == held_count(fresh) == fresh.pairs_solved
    with np.load(io.BytesIO(data)) as segment:
        table = segment["keys"]
        written = {(table[i], table[j]) for i, j in segment["pairs"]}
    for i, j in zip(*np.nonzero(screened)):
        a, b = rows[i], keys[j]
        assert (min(a, b), max(a, b)) not in written


# -- the store against a plain-dict oracle -------------------------------------------

STORE_MOLS = enumerate_alkanes(4, 7)


@functools.cache
def store_oracle() -> tuple[list[str], dict[tuple[str, str], float]]:
    """The keys of STORE_MOLS, and the raw value of every pair (a, b),
    a <= b, solved alone by ``mgk_raw`` in the order of the sorted keys."""
    keys = MgkCalculator(SCREENING).register(STORE_MOLS)
    graph_of = dict(zip(keys, STORE_MOLS))
    raw = {(a, b): mgk_raw(graph_of[a], graph_of[b], SCREENING)
           for a in keys for b in keys if a <= b}
    return keys, raw


def _in_band(raw, a: str, b: str) -> bool:
    d = (raw[(a, a)] - raw[(b, b)]) / SCREENING.lambda_
    return d * d <= 53 * math.log(2)


_subsets = st.lists(st.integers(0, len(STORE_MOLS) - 1), min_size=1, max_size=8)
_store_ops = st.one_of(
    st.tuples(st.just("block"), st.booleans(), st.booleans(), _subsets, _subsets),
    st.just(("load",)),
    st.just(("segment",)),
)


@settings(max_examples=30, deadline=None)
@given(st.lists(_store_ops, max_size=12), st.randoms(use_true_random=False))
def test_the_store_holds_what_a_dict_oracle_holds(ops, rnd):
    """Blocks of both calculators in either argument order, loads of the
    other one's solved pairs and solved-only segments, interleaved."""
    keys, raw = store_oracle()
    calc = MgkCalculator(SCREENING)
    calc.register(STORE_MOLS)
    other = MgkCalculator(SCREENING)
    shuffled = list(STORE_MOLS)
    rnd.shuffle(shuffled)
    other.register(shuffled)
    looked: set[tuple[str, str]] = set()

    def assert_oracle_values(holder: MgkCalculator) -> int:
        count = 0
        for (a, b), want in raw.items():
            value = held(holder, a, b)
            if value is not None:
                assert value == want
                count += 1
        return count

    for op in ops:
        if op[0] == "block":
            _, mine, swap, rows, cols = op
            rows, cols = [keys[i] for i in rows], [keys[i] for i in cols]
            if swap:
                rows, cols = cols, rows
            (calc if mine else other).block(rows, cols)
            if mine:
                looked.update((min(a, b), max(a, b)) for a in rows for b in cols
                              if a != b and _in_band(raw, a, b))
        elif op[0] == "load":
            _, data = other.segment()
            calc.load_cache(io.BytesIO(data))
        else:
            n, data = calc.segment()
            fresh = MgkCalculator(SCREENING)
            assert fresh.load_cache(io.BytesIO(data)) == n == calc.pairs_solved
            fresh.register(STORE_MOLS)
            assert assert_oracle_values(fresh) == n

    assert assert_oracle_values(calc) == held_count(calc)
    assert calc.pairs_requested == len(looked)
    # the pairs calc solved, solved one at a time in another order after
    # another registration, give the same segment bytes; ref first loads
    # the self-kernels calc loaded instead of solving them
    n, data = calc.segment()
    with np.load(io.BytesIO(data)) as segment:
        table = segment["keys"].tolist()
        pairs = sorted((table[i], table[j]) for i, j in segment["pairs"].tolist())
    donor = MgkCalculator(SCREENING)
    donor.register(STORE_MOLS)
    for k in sorted({k for pair in pairs for k in pair} - {a for a, b in pairs if a == b}):
        donor.block([k], [k])
    ref = MgkCalculator(SCREENING)
    ref.register(shuffled[::-1])
    ref.load_cache(io.BytesIO(donor.segment()[1]))
    rnd.shuffle(pairs)
    for a, b in pairs:
        ref.block([a], [b])
    assert ref.segment() == (n, data)


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


@pytest.mark.parametrize("cap", [15, 2000])
def test_cg_iterations_are_counted_per_stack(monkeypatch, cap):
    p = MgkHyperparameters(lambda_=0.2, fp_max_iters=cap)
    arenas = mgk._Arenas()
    sides = list(zip(*mgk._graph_arrays(["CC(C)CC", "CCCCCCC"], arenas)))
    _, stacks, iterations = solve(arenas, [tuple(sides)], p)
    assert stacks == 1 and 1 <= iterations <= cap

    taken = []
    pcg = mgk._pcg

    def record(*args):
        sums, n = pcg(*args)
        taken.append(n)
        return sums, n

    monkeypatch.setattr(mgk, "_pcg", record)
    calc = MgkCalculator(p)
    keys = calc.register(enumerate_alkanes(4, 9))
    calc.block(keys[:4], keys)
    calc.block(keys, keys)
    assert len(taken) == calc.stacks_solved > 2
    assert all(1 <= n <= cap for n in taken)
    assert calc.cg_iterations == sum(taken)


# -- hyperparameter plumbing ---------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"q": 0.0},
        {"q": 1.0},
        {"lambda_": -1.0},
        {"delta_degree": 0.0},
        {"delta_degree": 1.0},
        {"fp_max_iters": 3.0},
        {"lambda_": 0.0},
        {"fp_tolerance": 0.0},
        {"fp_max_iters": 0},
    ],
)
def test_hyperparameter_validation(kwargs):
    with pytest.raises(ValueError):
        MgkHyperparameters(**kwargs)


_FLOAT_FIELDS = ("q", "delta_degree", "lambda_", "fp_tolerance")
# dropped fields: the two deltas entered no alkane value, and start_weight
# only rescaled lambda_; a config key of any of these names is unknown,
# whatever its value
_DROPPED_FIELDS = ("delta_element", "delta_bond_order", "start_weight")


@pytest.mark.parametrize("field", _FLOAT_FIELDS + _DROPPED_FIELDS)
@pytest.mark.parametrize("value", [True, False, math.nan, math.inf, -math.inf, "0.5", None])
def test_a_float_hyperparameter_must_be_a_finite_number(field, value):
    if field in _DROPPED_FIELDS:
        with pytest.raises(ValueError, match=f"unknown kernel config key '{field}'"):
            MgkHyperparameters.from_dict({field: value})
        with pytest.raises(TypeError):
            MgkHyperparameters(**{field: value})
        return
    if field == "lambda_" and value == math.inf:
        assert MgkHyperparameters(lambda_=value).to_dict()["lambda"] is None
        return
    with pytest.raises(ValueError, match=f"{field} must be a finite number"):
        MgkHyperparameters(**{field: value})


def test_from_dict_lambda_key_and_null():
    p = MgkHyperparameters.from_dict({"q": 0.1, "lambda": None})
    assert math.isinf(p.lambda_)
    assert p.to_dict()["lambda"] is None
    p = MgkHyperparameters.from_dict({"lambda": 0.25})
    assert p.lambda_ == 0.25
    with pytest.raises(ValueError):
        MgkHyperparameters.from_dict({"qq": 0.1})
    # the field's name is no file key, not even beside "lambda"
    for raw in ({"lambda_": 5.0}, {"lambda": 0.2, "lambda_": 5.0}):
        with pytest.raises(ValueError, match="unknown kernel config key 'lambda_'"):
            MgkHyperparameters.from_dict(raw)


def test_dict_roundtrip():
    p = MgkHyperparameters(q=0.2, lambda_=0.7, fp_max_iters=500)
    assert MgkHyperparameters.from_dict(p.to_dict()) == p
    assert MgkHyperparameters.from_dict(DEFAULT.to_dict()) == DEFAULT


# -- matrices and the calculator ---------------------------------------------------


def test_matrix_unit_diagonal_and_symmetry():
    mols = enumerate_alkanes(4, 7)
    for lam in (math.inf, 0.2):
        values = dense(mols, MgkHyperparameters(lambda_=lam))
        assert np.array_equal(np.diag(values), np.ones(len(mols)))
        assert np.array_equal(values, values.T)


def test_matrix_permutation_invariance():
    mols = enumerate_alkanes(4, 7)
    values = dense(mols)
    order = list(np.random.default_rng(5).permutation(len(mols)))
    permuted = dense([mols[i] for i in order])
    assert np.array_equal(permuted, values[np.ix_(order, order)])


def test_matrix_psd_100_molecules():
    eigs = np.linalg.eigvalsh(dense(enumerate_alkanes(4, 10)[:100]))
    assert eigs.min() >= -1e-8


def test_rectangular_block_matches_square():
    mols = enumerate_alkanes(4, 6)
    calc = MgkCalculator(DEFAULT)
    keys = calc.register(mols)
    square = calc.block(keys, keys)
    rect = calc.block(keys[:3], keys)
    assert np.array_equal(rect, square[:3])


def test_block_with_repeated_keys_matches_entrywise_values():
    mols = enumerate_alkanes(4, 6)
    calc = MgkCalculator(MgkHyperparameters(lambda_=0.2))
    keys = calc.register(mols)
    rows = [keys[i] for i in (2, 0, 2, 5, 0)]
    cols = [keys[i] for i in (1, 1, 3, 2, 0, 5)]
    got = calc.block(rows, cols)
    want = np.array([[calc.block([a], [b])[0, 0] for b in cols] for a in rows])
    assert got.shape == (len(rows), len(cols))
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
    for i, a in enumerate(rows):
        for j, b in enumerate(cols):
            if a == b:
                assert got[i, j] == 1.0
    # the unit diagonal the selection engine and gpr rely on: a shuffled
    # list with repeats against another, on calculators that solve every
    # self-kernel in this one call, is exactly 1.0 wherever the keys agree
    rng = np.random.default_rng(4)
    for lam in (math.inf, 0.2):
        fresh = MgkCalculator(MgkHyperparameters(lambda_=lam))
        fresh.register(mols)
        rows = [keys[i] for i in rng.integers(0, len(keys), 40)]
        cols = [keys[i] for i in rng.permutation(len(keys))] + rows[:7]
        got = fresh.block(rows, cols)
        equal = np.array(rows)[:, None] == np.array(cols)[None, :]
        assert equal.sum() > len(rows)
        assert (got[equal] == 1.0).all()
        assert (got[~equal] < 1.0).all()


def test_a_returned_block_is_the_callers_to_overwrite():
    """The provider contract: a block is a new array, so overwriting one
    changes no later block, whether its values were solved or held."""
    mols = enumerate_alkanes(4, 7)
    requests = [(slice(None), slice(None)), (slice(0, 3), slice(None)),
                (slice(5, 6), slice(5, 6)), (slice(None), slice(2, 4))]
    for lam in (math.inf, 0.2):
        calc = MgkCalculator(MgkHyperparameters(lambda_=lam))
        keys = calc.register(mols)
        fresh = MgkCalculator(MgkHyperparameters(lambda_=lam))
        fresh.register(mols)
        for _ in range(2):
            for a, b in requests:
                got = calc.block(keys[a], keys[b])
                assert got.tobytes() == fresh.block(keys[a], keys[b]).tobytes()
                got[...] = -1.0


def test_cache_roundtrip_bitwise(tmp_path):
    mols = enumerate_alkanes(4, 6)
    calc = MgkCalculator(DEFAULT)
    keys = calc.register(mols)
    values = calc.block(keys, keys)
    path = str(tmp_path / "cache.npz")
    rows = calc.save_cache(path)
    assert rows > 0
    assert sorted(os.listdir(tmp_path)) == ["cache.npz"]

    fresh = MgkCalculator(DEFAULT)
    assert fresh.load_cache(path) == rows

    def boom(codes):
        raise AssertionError(f"cache miss for {codes}")

    fresh._compute_pairs = boom
    assert fresh.register(mols) == keys
    assert np.array_equal(fresh.block(keys, keys), values)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(alkane_trees(9), min_size=2, max_size=6),
    st.randoms(use_true_random=False),
    st.sampled_from([math.inf, 0.2]),
)
def test_a_segment_loads_bitwise_into_any_registration_order(mols, rnd, lam):
    p = MgkHyperparameters(lambda_=lam)
    calc = MgkCalculator(p)
    keys = calc.register(mols)
    rows = keys[: len(keys) // 2 + 1]
    want = calc.block(rows, keys)
    rows_written, data = calc.segment()

    shuffled = list(mols)
    rnd.shuffle(shuffled)
    fresh = MgkCalculator(p)
    fresh.register(shuffled)
    path = io.BytesIO(data)
    assert fresh.load_cache(path) == rows_written
    assert np.array_equal(fresh.block(rows, keys), want)
    assert fresh.pairs_solved == 0
    # the loaded store, written whole, is the same segment
    assert fresh.segment()[0] == 0
    assert whole_store(fresh) == (rows_written, data)
    # raw values do not depend on lambda_, so the segment serves the other
    # lambda_ too, and a calculator there solves only the pairs it lacks
    other = MgkHyperparameters(lambda_=0.2 if math.isinf(lam) else math.inf)
    loaded, alone = MgkCalculator(other), MgkCalculator(other)
    loaded.register(shuffled)
    alone.register(mols)
    assert loaded.load_cache(io.BytesIO(data)) == rows_written
    assert np.array_equal(loaded.block(rows, keys), alone.block(rows, keys))
    assert loaded.pairs_solved < alone.pairs_solved


def test_a_solved_only_segment_holds_just_the_new_pairs(tmp_path):
    mols = enumerate_alkanes(4, 7)
    calc = MgkCalculator(DEFAULT)
    keys = calc.register(mols)
    calc.block(keys[:3], keys[:3])
    path = str(tmp_path / "first.npz")
    first = calc.save_cache(path)

    later = MgkCalculator(DEFAULT)
    later.register(mols)
    later.load_cache(path)
    later.block(keys[:5], keys[:5])
    n, _ = later.segment()
    assert n == later.pairs_solved == held_count(later) - first > 0
    assert MgkCalculator(DEFAULT).segment()[0] == 0


def test_canonical_ids_register_unparsed_and_build_graphs_when_solved():
    # enumerated ids need no graph until one of their pairs is solved, and
    # then give the values the graphs registered under them do
    ids = enumerate_alkane_smiles(4, 7)
    by_ids = MgkCalculator(SCREENING)
    by_ids.register_canonical(ids)
    assert by_ids.graphs_built == 0
    by_graphs = MgkCalculator(SCREENING)
    assert by_graphs.register(enumerate_alkanes(4, 7)) == ids
    assert np.array_equal(by_ids.block(ids[:4], ids), by_graphs.block(ids[:4], ids))
    assert by_ids.graphs_built == len(ids)
    by_ids.block(ids, ids)
    assert by_ids.graphs_built == len(ids)


def test_a_key_named_only_by_a_segment_is_not_solved():
    solved = MgkCalculator(DEFAULT)
    solved.register_canonical(["CCCC", "CCCCC"])
    want = solved.block(["CCCCC"], ["CCCC"])
    loaded = MgkCalculator(DEFAULT)
    loaded.register_canonical(["CCCC", "CCCCCC"])
    loaded.load_cache(io.BytesIO(solved.segment()[1]))
    # its held pairs are read, but a pair that needs its graph is not solved
    assert np.array_equal(loaded.block(["CCCCC"], ["CCCC"]), want)
    with pytest.raises(KeyError, match="CCCCC"):
        loaded.block(["CCCCC"], ["CCCCCC"])
    loaded.register_canonical(["CCCCC"])
    assert loaded.block(["CCCCC"], ["CCCCCC"])[0, 0] > 0.0


def _segment(tmp_path, p=DEFAULT):
    """A saved segment of C4..C5 and its arrays."""
    calc = MgkCalculator(p)
    keys = calc.register(enumerate_alkanes(4, 5))
    calc.block(keys, keys)
    path = tmp_path / "cache.npz"
    path.write_bytes(calc.segment()[1])
    with np.load(path) as data:
        return path, {name: data[name] for name in data.files}


def _rewrite(path, arrays, **changes):
    with open(path, "wb") as fh:
        np.savez(fh, **{**arrays, **changes})


def _assert_rejected(path, match):
    before = path.read_bytes()
    fresh = MgkCalculator(DEFAULT)
    with pytest.raises(ValueError, match=match) as err:
        fresh.load_cache(str(path))
    assert repr(str(path)) in str(err.value)
    assert held_count(fresh) == 0
    assert path.read_bytes() == before


@pytest.mark.parametrize("kind", ["self", "cross"])
def test_a_segment_that_contradicts_a_held_value_loads_nothing(tmp_path, kind):
    # a C4..C6 segment, bitwise the same as a C4..C5 one on their common
    # pairs, and a copy of it with one of those values moved by one ulp
    small, _ = _segment(tmp_path)
    calc = MgkCalculator(DEFAULT)
    keys = calc.register(enumerate_alkanes(4, 6))
    calc.block(keys, keys)
    large = tmp_path / "large.npz"
    n_large, large_bytes = calc.segment()
    large.write_bytes(large_bytes)
    with np.load(large) as data:
        arrays = {name: data[name] for name in data.files}
    common = set(MgkCalculator(DEFAULT).register(enumerate_alkanes(4, 5)))
    i, j = arrays["pairs"].T
    inside = np.array([a in common and b in common for a, b in arrays["keys"][arrays["pairs"]]])
    k = int(np.flatnonzero(inside & ((i == j) if kind == "self" else (i != j)))[0])
    values = arrays["values"].copy()
    values[k] = np.nextafter(values[k], math.inf)
    moved = tmp_path / "moved.npz"
    _rewrite(moved, arrays, values=values)

    # an equal value is a no-op: two commands may both solve a pair
    both = MgkCalculator(DEFAULT)
    n_small = both.load_cache(str(small))
    assert both.load_cache(str(large)) == n_large
    assert whole_store(both) == (n_large, large_bytes)

    loaded = MgkCalculator(DEFAULT)
    loaded.load_cache(str(small))
    solved = MgkCalculator(DEFAULT)
    solved.register(enumerate_alkanes(4, 5))
    solved.block(sorted(common), sorted(common))
    for holder in (loaded, solved):
        before = whole_store(holder)
        assert before[0] == n_small
        with pytest.raises(ValueError, match=rf"row {k}: value .* differs from the value") as err:
            holder.load_cache(str(moved))
        assert repr(str(moved)) in str(err.value)
        assert whole_store(holder) == before
        assert len(holder._keys) == len(common)


def test_cache_hyperparameter_mismatch(tmp_path):
    path, _ = _segment(tmp_path)
    other = MgkCalculator(MgkHyperparameters(q=0.5))
    with pytest.raises(ValueError, match="hyperparameters/version"):
        other.load_cache(str(path))
    assert held_count(other) == 0


@pytest.mark.parametrize("version", [2, 3, 5, 6])
def test_cache_rejects_an_older_version_file(tmp_path, version):
    # version-2 values came from the Jacobi-preconditioned solver, version-3
    # ones from stacks of one shape, without size-class padding, version-5
    # ones from unlumped systems over every carbon, and version-6 ones from
    # pairs in canonical order rather than smaller size class first
    path, arrays = _segment(tmp_path)
    assert int(arrays["version"]) == mgk._CACHE_VERSION == 7
    _rewrite(path, arrays, version=np.int64(version))
    _assert_rejected(path, "hyperparameters/version")


def test_cache_rejects_another_parameter_hash(tmp_path):
    path, arrays = _segment(tmp_path)
    _rewrite(path, arrays, params=np.str_(MgkHyperparameters(q=0.5).content_hash()))
    _assert_rejected(path, "hyperparameters/version")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -0.25])
def test_segment_rejects_bad_values(tmp_path, value):
    path, arrays = _segment(tmp_path)
    values = arrays["values"].copy()
    values[3] = value
    _rewrite(path, arrays, values=values)
    _assert_rejected(path, rf"row 3: value {value!r} is not a finite positive number")


@pytest.mark.parametrize("index", [-1, 5], ids=["negative", "past-the-table"])
def test_segment_rejects_an_index_outside_its_key_table(tmp_path, index):
    path, arrays = _segment(tmp_path)
    assert len(arrays["keys"]) == 5
    pairs = arrays["pairs"].copy()
    pairs[-1, 1] = index
    _rewrite(path, arrays, pairs=pairs)
    _assert_rejected(path, f"row {len(pairs) - 1}: index outside its key table")


def _reversed(pairs):
    k = int(np.flatnonzero(pairs[:, 0] < pairs[:, 1])[0])
    pairs[k] = pairs[k, ::-1]
    return pairs


def _duplicated(pairs):
    pairs[2] = pairs[1]
    return pairs


def _swapped(pairs):
    pairs[[1, 2]] = pairs[[2, 1]]
    return pairs


@pytest.mark.parametrize("damage", [_reversed, _duplicated, _swapped],
                         ids=["reversed-row", "duplicate-row", "swapped-rows"])
def test_segment_rejects_rows_out_of_order(tmp_path, damage):
    # a reversed row would be stored under a key no lookup uses, and a
    # duplicate would silently replace the value before it
    path, arrays = _segment(tmp_path)
    _rewrite(path, arrays, pairs=damage(arrays["pairs"].copy()))
    _assert_rejected(path, r"rows are not strictly increasing in \(i, j\) with i <= j")


def test_segment_rejects_an_unsorted_key_table(tmp_path):
    path, arrays = _segment(tmp_path)
    _rewrite(path, arrays, keys=arrays["keys"][::-1])
    _assert_rejected(path, "does not hold a strictly increasing key table")


@pytest.mark.parametrize(
    "change",
    [
        {"values": np.array(["abc"])},
        {"pairs": np.zeros((1, 1), np.int32)},
        {"pairs": np.zeros((1, 3), np.int32)},
        {"pairs": np.zeros((1, 2), np.int64)},
    ],
    ids=["text-values", "one-column-pairs", "three-column-pairs", "int64-pairs"],
)
def test_segment_rejects_malformed_arrays(tmp_path, change):
    path, arrays = _segment(tmp_path)
    arrays = {**arrays, "pairs": arrays["pairs"][:1], "values": arrays["values"][:1]}
    _rewrite(path, arrays, **change)
    _assert_rejected(path, "does not hold a strictly increasing key table")


def test_segment_rejects_a_file_that_is_not_a_segment(tmp_path):
    path, arrays = _segment(tmp_path)
    del arrays["values"]
    _rewrite(path, arrays)
    _assert_rejected(path, "is not a kernel cache segment")
    path.write_text("alkspace-kernel-cache,4,abc\nkey_a,key_b,value\n")
    _assert_rejected(path, "is not a kernel cache segment")
