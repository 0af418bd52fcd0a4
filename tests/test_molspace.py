"""Tests for alkane graph handling, canonicalisation and enumeration.

Independent oracles: networkx ``is_tree`` for the graph constructor,
networkx free-tree generation and VF2 isomorphism for the enumerator and
canonicaliser, the former four-step canonicaliser for the exact output of
the one-pass one, the former grow-and-deduplicate enumerator for the exact
output of the constructive one, and networkx Wiener indices and degrees
with closed-form Wiener indices for the descriptors read from ids.
"""

import functools
import itertools
from typing import Sequence

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alkspace.molspace import (
    _canonical_from_neighbors,
    EnumerationLimitError,
    GraphError,
    MolecularGraph,
    SmilesError,
    descriptors,
    enumerate_alkane_smiles,
    enumerate_alkanes,
    parse_smiles,
    to_canonical_smiles,
)

# Distinct alkane isomer counts for n = 1..19 carbons (degree <= 4 trees,
# OEIS A000602).
ISOMER_COUNTS = [
    1, 1, 1, 2, 3, 5, 9, 18, 35, 75, 159, 355, 802, 1858, 4347, 10359,
    24894, 60523, 148284,
]


def _to_nx(g: MolecularGraph) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(range(len(g)))
    out.add_edges_from((v, u) for v, nb in enumerate(g.adjacency) for u in nb)
    return out


def _tree_centroids(neighbors: Sequence[Sequence[int]]) -> list[int]:
    """Centroid vertex (or adjacent pair) minimising the largest component
    left after removal."""
    n = len(neighbors)
    if n == 1:
        return [0]
    order: list[int] = []
    parent = [-1] * n
    stack = [0]
    visited = [False] * n
    visited[0] = True
    while stack:
        v = stack.pop()
        order.append(v)
        for u in neighbors[v]:
            if not visited[u]:
                visited[u] = True
                parent[u] = v
                stack.append(u)
    size = [1] * n
    for v in reversed(order):
        if parent[v] >= 0:
            size[parent[v]] += size[v]
    best = n + 1
    centroids: list[int] = []
    for v in range(n):
        heaviest = n - size[v]
        for u in neighbors[v]:
            if u != parent[v]:
                heaviest = max(heaviest, size[u])
        if heaviest < best:
            best = heaviest
            centroids = [v]
        elif heaviest == best:
            centroids.append(v)
    return centroids


def _rooted_encoding(
    root: int, neighbors: Sequence[Sequence[int]]
) -> tuple[str, dict[int, str]]:
    """AHU parenthesis encoding of the tree rooted at ``root``, and the
    code of every vertex; children codes are sorted."""
    codes: dict[int, str] = {}
    stack: list[tuple[int, int, bool]] = [(root, -1, False)]
    while stack:
        v, par, expanded = stack.pop()
        if not expanded:
            stack.append((v, par, True))
            for u in neighbors[v]:
                if u != par:
                    stack.append((u, v, False))
        else:
            child_codes = sorted(codes[u] for u in neighbors[v] if u != par)
            codes[v] = "(" + "".join(child_codes) + ")"
    return codes[root], codes


def _canonical_root(neighbors: Sequence[Sequence[int]]) -> tuple[int, dict[int, str]]:
    best_root = -1
    best_code = None
    best_codes: dict[int, str] = {}
    for c in sorted(_tree_centroids(neighbors)):
        code, codes = _rooted_encoding(c, neighbors)
        if best_code is None or code < best_code:
            best_code = code
            best_root = c
            best_codes = codes
    return best_root, best_codes


def _emit_smiles(root: int, neighbors: Sequence[Sequence[int]], codes: dict[int, str]) -> str:
    """Depth-first SMILES from ``root``, children in code order, every
    child but the last in parentheses."""
    out: list[str] = []
    work: list[object] = [(root, -1)]
    while work:
        item = work.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        v, par = item  # type: ignore[misc]
        out.append("C")
        children = sorted((u for u in neighbors[v] if u != par), key=codes.__getitem__)
        pending: list[object] = []
        for u in children[:-1]:
            pending.append("(")
            pending.append((u, v))
            pending.append(")")
        if children:
            pending.append((children[-1], v))
        work.extend(reversed(pending))
    return "".join(out)


def _four_step_canonical(neighbors: Sequence[Sequence[int]]) -> str:
    """The former canonicaliser, kept as an oracle: find the centroids,
    encode the whole tree from each, root it at the centroid of the smaller
    encoding, then emit the SMILES in a second traversal."""
    root, codes = _canonical_root(neighbors)
    return _emit_smiles(root, neighbors, codes)


def _alkane_trees(n: int) -> list[nx.Graph]:
    if n == 1:
        return [nx.empty_graph(1)]
    if n == 2:
        return [nx.path_graph(2)]
    return [
        t
        for t in nx.nonisomorphic_trees(n)
        if max(d for _, d in t.degree()) <= 4
    ]


@functools.lru_cache(maxsize=None)
def _grow_and_deduplicate(max_n: int) -> tuple[tuple[str, ...], ...]:
    """The former enumerator, kept as an oracle: entry n holds the sorted
    canonical strings of n carbons, found by attaching one carbon to every
    free site of every (n-1)-carbon isomer and dropping duplicates."""
    levels = [(), ("C",)]
    for n in range(2, max_n + 1):
        grown: set[str] = set()
        for parent in levels[-1]:
            neighbors = [list(nb) for nb in parse_smiles(parent).adjacency]
            for site in range(n - 1):
                if len(neighbors[site]) >= 4:
                    continue
                neighbors.append([site])
                neighbors[site].append(n - 1)
                grown.add(_four_step_canonical(neighbors))
                neighbors[site].pop()
                neighbors.pop()
        levels.append(tuple(sorted(grown)))
    return tuple(levels)


@functools.lru_cache(maxsize=None)
def _isomers(n: int) -> frozenset[str]:
    return frozenset(enumerate_alkane_smiles(n, n))


@st.composite
def relabelled_trees(draw, max_n: int = 16) -> list[list[int]]:
    """Neighbour lists of a random tree of maximum degree 4, its vertices
    renumbered by a random permutation."""
    n = draw(st.integers(1, max_n))
    neighbors: list[list[int]] = [[] for _ in range(n)]
    for v in range(1, n):
        u = draw(st.sampled_from([u for u in range(v) if len(neighbors[u]) < 4]))
        neighbors[u].append(v)
        neighbors[v].append(u)
    perm = draw(st.permutations(range(n)))
    relabelled: list[list[int]] = [[] for _ in range(n)]
    for v, nbs in enumerate(neighbors):
        relabelled[perm[v]] = [perm[u] for u in nbs]
    return relabelled


@st.composite
def neighbour_lists(draw, max_n: int = 10) -> list[list[int]]:
    """Neighbour lists of a random tree of up to ``max_n`` vertices and
    maximum degree 4, left as it is or given one defect: an edge added,
    removed or moved, leaves attached until one vertex has degree 5, one
    side of an edge dropped and one side of a non-edge added, or a
    self-loop. The moved and one-sided defects keep the count of list
    entries a tree has, so only the connectivity and symmetry checks can
    reject them."""
    n = draw(st.integers(1, max_n))
    neighbors: list[list[int]] = [[] for _ in range(n)]
    for v in range(1, n):
        u = draw(st.sampled_from([u for u in range(v) if len(neighbors[u]) < 4]))
        neighbors[u].append(v)
        neighbors[v].append(u)
    edges = [(v, u) for v, nb in enumerate(neighbors) for u in nb if v < u]
    gaps = [(v, u) for v in range(n) for u in range(v + 1, n) if u not in neighbors[v]]
    defect = draw(
        st.sampled_from(
            ["none", "add", "remove", "move", "degree5", "one-sided", "self-loop"]
        )
    )
    if defect in ("remove", "move", "one-sided") and edges:
        v, u = draw(st.sampled_from(edges))
        neighbors[v].remove(u)
        if defect != "one-sided":
            neighbors[u].remove(v)
    if defect in ("add", "move", "one-sided") and gaps:
        v, u = draw(st.sampled_from(gaps))
        neighbors[v].append(u)
        if defect != "one-sided":
            neighbors[u].append(v)
    if defect == "degree5":
        v = draw(st.integers(0, n - 1))
        while len(neighbors[v]) < 5:
            neighbors.append([v])
            neighbors[v].append(len(neighbors) - 1)
    if defect == "self-loop":
        v = draw(st.integers(0, n - 1))
        neighbors[v].append(v)
    return neighbors


class TestParseSmiles:
    def test_methane(self):
        g = parse_smiles("C")
        assert g.adjacency == ((),)

    def test_linear_butane(self):
        g = parse_smiles("CCCC")
        assert len(g) == 4
        assert sorted(len(nb) for nb in g.adjacency) == [1, 1, 2, 2]

    def test_isobutane_branch(self):
        g = parse_smiles("CC(C)C")
        assert sorted(len(nb) for nb in g.adjacency) == [1, 1, 1, 3]

    def test_neopentane(self):
        g = parse_smiles("CC(C)(C)C")
        assert sorted(len(nb) for nb in g.adjacency) == [1, 1, 1, 1, 4]

    def test_nested_branches(self):
        g = parse_smiles("CC(C(C)C)C")
        assert len(g) == 6

    def test_whitespace_tolerated(self):
        assert len(parse_smiles("  CCC \n")) == 3

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "   ",
            "CC(C",          # unclosed branch
            "CC)C",          # stray close
            "C()C",          # empty branch
            "(C)C",          # branch before first atom
            "C1CC1",         # ring closure
            "C=C",           # double bond
            "C#C",           # triple bond
            "c1ccccc1",      # aromatic
            "CCO",           # heteroatom
            "C C",           # embedded space
            "CC(C)(C)(C)C",  # valence 5
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(SmilesError):
            parse_smiles(bad)

    def test_valence_error_on_long_chain_center(self):
        with pytest.raises(SmilesError):
            parse_smiles("C(C)(C)(C)(C)C")


class TestMolecularGraph:
    def test_duplicate_bond_rejected(self):
        with pytest.raises(GraphError, match="twice"):
            MolecularGraph([[1, 1], [0, 0]])

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            MolecularGraph([[1], [0, 1]])

    def test_degree_mismatch_rejected(self):
        # vertex 0 lists vertex 1, which does not list it back
        with pytest.raises(GraphError, match="missing from vertex 1"):
            MolecularGraph([[1], []])

    def test_out_of_range_neighbour_rejected(self):
        with pytest.raises(GraphError, match="missing vertex 2"):
            MolecularGraph([[2], [0]])

    @settings(max_examples=300, deadline=None)
    @given(neighbour_lists())
    def test_accepts_exactly_the_alkane_trees(self, neighbors):
        arcs = [(v, u) for v, nb in enumerate(neighbors) for u in nb]
        tree = nx.Graph(arcs)
        tree.add_nodes_from(range(len(neighbors)))
        expected = (
            set(arcs) == {(u, v) for v, u in arcs}
            and len(set(arcs)) == len(arcs)
            and nx.is_tree(tree)
            and max(map(len, neighbors)) <= 4
        )
        try:
            g = MolecularGraph(neighbors)
        except GraphError:
            assert not expected
        else:
            assert expected
            assert to_canonical_smiles(g) in _isomers(len(neighbors))


class TestCanonicalSmiles:
    def test_roundtrip_is_identity(self):
        for smiles in enumerate_alkane_smiles(1, 14):
            assert to_canonical_smiles(parse_smiles(smiles)) == smiles

    @settings(max_examples=500, deadline=None)
    @given(relabelled_trees(max_n=19))
    def test_equals_the_four_step_oracle(self, neighbors):
        assert _canonical_from_neighbors(neighbors) == _four_step_canonical(neighbors)

    def test_input_form_invariance(self):
        # Many spellings of 2-methylbutane.
        forms = ["CCC(C)C", "CC(C)CC", "C(C)(CC)C", "CC(CC)C"]
        canon = {to_canonical_smiles(parse_smiles(f)) for f in forms}
        assert len(canon) == 1

    def test_relabeling_invariance(self):
        # Permuting vertex ids of a fixed tree never changes the output.
        base = [[1], [0, 2, 3], [1], [1, 4], [3]]
        n = len(base)
        outs = set()
        for perm in itertools.permutations(range(n)):
            relabeled = [[] for _ in range(n)]
            for v, nbs in enumerate(base):
                relabeled[perm[v]] = sorted(perm[u] for u in nbs)
            outs.add(to_canonical_smiles(MolecularGraph(relabeled)))
        assert len(outs) == 1

    @pytest.mark.parametrize("n", range(1, 10))
    def test_distinguishes_all_isomers(self, n):
        # One canonical string per isomorphism class, verified against
        # networkx VF2 on independently generated trees.
        trees = _alkane_trees(n)
        canon = {
            to_canonical_smiles(
                MolecularGraph([sorted(t.neighbors(v)) for v in sorted(t.nodes)])
            )
            for t in trees
        }
        assert len(canon) == len(trees) == ISOMER_COUNTS[n - 1]

    def test_matches_isomorphism_classes(self):
        # Parsed output graph is isomorphic to the parsed input graph.
        for smiles in enumerate_alkane_smiles(8, 8):
            g = parse_smiles(smiles)
            h = parse_smiles(to_canonical_smiles(g))
            assert nx.is_isomorphic(_to_nx(g), _to_nx(h))

    def test_rejects_disconnected(self):
        # a triangle and a lone vertex: three edges on four vertices, as a
        # tree has, but not connected
        with pytest.raises(GraphError, match="connected acyclic"):
            MolecularGraph([[1, 2], [0, 2], [0, 1], []])

    def test_rejects_cycle(self):
        with pytest.raises(GraphError, match="connected acyclic"):
            MolecularGraph([[1, 2], [0, 2], [0, 1]])


def _written(neighbors: Sequence[Sequence[int]], v: int = 0, parent: int = -1) -> str:
    """SMILES of a tree from vertex ``v``, children in list order, every
    branch but the last in parentheses."""
    children = [_written(neighbors, u, v) for u in neighbors[v] if u != parent]
    return "C" + "".join(f"({c})" for c in children[:-1]) + "".join(children[-1:])


def _nx_descriptors(smiles: str) -> list[int]:
    """Carbon count, networkx's Wiener index and the count of degree-1
    carbons of a SMILES."""
    g = _to_nx(parse_smiles(smiles))
    return [len(g), round(nx.wiener_index(g)), sum(1 for _, d in g.degree if d == 1)]


class TestDescriptors:
    @pytest.mark.parametrize("n", range(4, 20))
    def test_wiener_linear_chain(self, n):
        # Closed form for a path: n(n^2 - 1)/6.
        assert descriptors(["C" * n])[0, 1] == n * (n * n - 1) // 6

    def test_wiener_star(self):
        # Neopentane: 4 center-leaf pairs at distance 1, 6 leaf pairs at 2.
        assert descriptors(["CC(C)(C)C"])[0, 1] == 4 + 12

    def test_wiener_matches_networkx(self):
        # every C4..C12 isomer, mixed carbon counts in one call
        ids = enumerate_alkane_smiles(4, 12)[::-1]
        got = descriptors(ids)
        assert got.dtype.kind == "i" and got.shape == (len(ids), 3)
        assert got.tolist() == [_nx_descriptors(s) for s in ids]

    @settings(max_examples=200, deadline=None)
    @given(relabelled_trees(max_n=19))
    def test_any_spelling_reads_as_networkx(self, neighbors):
        spelling = _written(neighbors)
        canonical = to_canonical_smiles(parse_smiles(spelling))
        assert descriptors([spelling, canonical]).tolist() == [_nx_descriptors(spelling)] * 2

    def test_methyl_counts(self):
        assert descriptors(["CCCC", "CC(C)C", "CC(C)(C)C"])[:, 2].tolist() == [2, 3, 4]

    def test_methane_degenerate(self):
        # Methane's lone carbon has heavy degree 0, so no methyl groups.
        assert descriptors(["C"]).tolist() == [[1, 0, 0]]
        assert descriptors([]).shape == (0, 3)

    @pytest.mark.parametrize("bad", ["", "CX", "CC)C", "C(C", " CCC"])
    def test_a_malformed_id_raises(self, bad):
        with pytest.raises(SmilesError):
            descriptors(["CCCC", bad])


class TestEnumeration:
    @pytest.mark.parametrize("n", range(1, 20))
    def test_counts_per_size(self, n):
        assert len(enumerate_alkane_smiles(n, n)) == ISOMER_COUNTS[n - 1]

    @pytest.mark.parametrize("n", range(1, 15))
    def test_equals_grow_and_deduplicate(self, n):
        # Every range ending at n carbons, byte for byte.
        levels = _grow_and_deduplicate(14)
        for lo in range(1, n + 1):
            expected = [s for level in levels[lo : n + 1] for s in level]
            assert enumerate_alkane_smiles(lo, n) == expected

    @settings(max_examples=300, deadline=None)
    @given(relabelled_trees())
    def test_random_tree_canonicalises_to_an_enumerated_isomer(self, neighbors):
        g = MolecularGraph(neighbors)
        assert to_canonical_smiles(g) in _isomers(len(neighbors))

    def test_counts_match_networkx_trees(self):
        # Cross-check against an independent generator up to n=9.
        for n in range(1, 10):
            assert len(enumerate_alkane_smiles(n, n)) == len(_alkane_trees(n))

    def test_c4_to_c8_window(self):
        assert len(enumerate_alkane_smiles(4, 8)) == 37

    def test_c4_to_c12_window(self):
        assert len(enumerate_alkane_smiles(4, 12)) == 661

    def test_output_sorted_and_unique(self):
        out = enumerate_alkane_smiles(4, 9)
        assert len(set(out)) == len(out)
        # Sorted by size first, then lexicographically within a size.
        keyed = [(len(parse_smiles(s)), s) for s in out]
        assert keyed == sorted(keyed)

    def test_every_output_is_canonical(self):
        for s in enumerate_alkane_smiles(4, 9):
            assert to_canonical_smiles(parse_smiles(s)) == s

    def test_graph_variant(self):
        graphs = enumerate_alkanes(4, 6)
        assert [to_canonical_smiles(g) for g in graphs] == enumerate_alkane_smiles(4, 6)

    def test_bad_range(self):
        with pytest.raises(ValueError):
            enumerate_alkane_smiles(5, 4)
        with pytest.raises(ValueError):
            enumerate_alkane_smiles(0, 4)

    def test_hard_limit(self):
        # the limit is DEFAULT_MAX_CARBONS, 19; the first count beyond it fails
        for max_n in (20, 25):
            with pytest.raises(EnumerationLimitError):
                enumerate_alkane_smiles(4, max_n)
