"""Tests for alkane graph handling, canonicalisation and enumeration.

Independent oracles: networkx ``is_tree`` for the graph constructor,
networkx free-tree generation and VF2 isomorphism for the enumerator and
canonicaliser, the former grow-and-deduplicate enumerator
for the exact output of the constructive one, and closed-form Wiener indices
for the descriptor code.
"""

import functools
import itertools

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
                grown.add(_canonical_from_neighbors(neighbors))
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
        for smiles in enumerate_alkane_smiles(1, 10):
            assert to_canonical_smiles(parse_smiles(smiles)) == smiles

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


class TestDescriptors:
    @pytest.mark.parametrize("n", range(4, 20))
    def test_wiener_linear_chain(self, n):
        # Closed form for a path: n(n^2 - 1)/6.
        g = parse_smiles("C" * n)
        assert descriptors(g).wiener_index == n * (n * n - 1) // 6

    def test_wiener_star(self):
        # Neopentane: 4 center-leaf pairs at distance 1, 6 leaf pairs at 2.
        g = parse_smiles("CC(C)(C)C")
        assert descriptors(g).wiener_index == 4 + 12

    def test_wiener_matches_networkx(self):
        for smiles in enumerate_alkane_smiles(7, 7):
            g = parse_smiles(smiles)
            expected = nx.wiener_index(_to_nx(g))
            assert descriptors(g).wiener_index == round(expected)

    def test_methyl_counts(self):
        assert descriptors(parse_smiles("CCCC")).n_methyl == 2
        assert descriptors(parse_smiles("CC(C)C")).n_methyl == 3
        assert descriptors(parse_smiles("CC(C)(C)C")).n_methyl == 4

    def test_methane_degenerate(self):
        # Methane's lone carbon has heavy degree 0, so no methyl groups.
        d = descriptors(parse_smiles("C"))
        assert (d.n_carbons, d.wiener_index, d.n_methyl) == (1, 0, 0)


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
        with pytest.raises(EnumerationLimitError):
            enumerate_alkane_smiles(4, 25)
        # Lowered override is enforced; a raised one is accepted.
        with pytest.raises(EnumerationLimitError):
            enumerate_alkane_smiles(4, 10, hard_limit=9)
        assert len(enumerate_alkane_smiles(4, 6, hard_limit=25)) == 10
