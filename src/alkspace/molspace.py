"""Acyclic alkane molecular graphs.

Covers the molecule-handling layer of the toolkit: a minimal SMILES parser
restricted to the alkane grammar (carbon atoms and parenthesised branches,
nothing else), a deterministic tree canonicaliser, exhaustive isomer
enumeration that builds each tree once from its centroid, and the numpy
reader of ids (:func:`_neighbor_table`) behind the kernel's neighbour lists
and the oracle's :func:`descriptors`, the only code here importing numpy.

A molecule is a :class:`MolecularGraph`, the neighbour lists of its carbon
tree. Every atom is a carbon and every bond is single, so elements, bond
orders and hydrogens are implicit.

Molecule identity throughout the package is the canonical SMILES string
produced by :func:`to_canonical_smiles`: two graphs map to the same string
exactly when they are isomorphic.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations_with_replacement, product, repeat
from operator import itemgetter
from typing import TYPE_CHECKING, Iterator, NewType, Sequence

if TYPE_CHECKING:
    import numpy as np

MAX_VALENCE = 4

# Memory guard for enumeration; one level beyond the 19-carbon target space
# already holds ~366k isomers.
DEFAULT_MAX_CARBONS = 19

CanonicalSmiles = NewType("CanonicalSmiles", str)


class SmilesError(ValueError):
    """Input string falls outside the supported alkane SMILES grammar."""


class GraphError(ValueError):
    """Molecular graph violates the alkane-tree structure expected here."""


class EnumerationLimitError(ValueError):
    """Requested carbon count exceeds the enumeration limit, DEFAULT_MAX_CARBONS."""


class MolecularGraph:
    """Alkane tree: carbon atoms as vertices, single bonds as edges.

    ``adjacency`` holds each carbon's neighbour indices. The constructor
    checks the alkane-tree invariant once: at least one vertex, symmetric
    neighbour lists without self-loops, repeats or out-of-range indices,
    at most four neighbours per carbon, connected and acyclic. Anything
    else raises :class:`GraphError`, so every instance has a canonical
    SMILES.
    """

    __slots__ = ("adjacency", "_canonical")

    def __init__(self, neighbors: Sequence[Sequence[int]]):
        adjacency = tuple(map(tuple, neighbors))
        n = len(adjacency)
        if n == 0:
            raise GraphError("an alkane needs at least one carbon")
        ends = 0
        # vertices after the first whose first neighbour precedes them; if
        # all are, each reaches vertex 0 by stepping down, so the graph is
        # connected without a search (every parsed graph is)
        descending = 0
        for v, nb in enumerate(adjacency):
            d = len(nb)
            if d > MAX_VALENCE:
                raise GraphError(
                    f"vertex {v} has {d} neighbours, above valence {MAX_VALENCE}"
                )
            if d > 1 and len(set(nb)) != d:
                raise GraphError(f"vertex {v} lists a neighbour twice")
            for u in nb:
                if not 0 <= u < n:
                    raise GraphError(f"vertex {v} names missing vertex {u}")
                if u == v:
                    raise GraphError(f"self-loop on vertex {v}")
                if v not in adjacency[u]:
                    raise GraphError(f"edge ({v}, {u}) is missing from vertex {u}")
            ends += d
            if d and nb[0] < v:
                descending += 1
        if ends != 2 * (n - 1) or (descending < n - 1 and not _is_connected(adjacency)):
            raise GraphError("an alkane must be a connected acyclic graph")
        self.adjacency = adjacency
        self._canonical: str | None = None

    def __len__(self) -> int:
        return len(self.adjacency)

    def __repr__(self) -> str:
        return f"MolecularGraph({len(self.adjacency)} carbons)"


def _is_connected(adjacency: Sequence[Sequence[int]]) -> bool:
    n = len(adjacency)
    seen = [False] * n
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        v = stack.pop()
        for u in adjacency[v]:
            if not seen[u]:
                seen[u] = True
                count += 1
                stack.append(u)
    return count == n


def parse_smiles(text: str) -> MolecularGraph:
    """Parse a SMILES string in the restricted alkane grammar.

    Accepted tokens are ``C`` (an sp3 carbon), ``(`` and ``)``. Everything
    else, including ring-closure digits, aromatic atoms, charges and
    multi-bond symbols, raises :class:`SmilesError`, as do unbalanced or
    empty branches and any vertex whose degree would exceed 4.
    """
    stripped = text.strip()
    if not stripped:
        raise SmilesError("empty SMILES string")

    neighbors: list[list[int]] = []
    anchor: int | None = None
    # Stack entries are the anchor in force when the branch opened; popping
    # back to an unchanged anchor means the branch added no atom.
    stack: list[int | None] = []

    for pos, ch in enumerate(stripped):
        if ch == "C":
            neighbors.append([])
            new = len(neighbors) - 1
            if anchor is not None:
                if len(neighbors[anchor]) >= MAX_VALENCE:
                    raise SmilesError(
                        f"vertex exceeds valence {MAX_VALENCE} at position {pos}"
                    )
                neighbors[anchor].append(new)
                neighbors[new].append(anchor)
            anchor = new
        elif ch == "(":
            if anchor is None:
                raise SmilesError(f"branch opened before any atom at position {pos}")
            stack.append(anchor)
        elif ch == ")":
            if not stack:
                raise SmilesError(f"unbalanced ')' at position {pos}")
            parent = stack.pop()
            if anchor == parent:
                raise SmilesError(f"empty branch closing at position {pos}")
            anchor = parent
        elif ch.isdigit() or ch == "%":
            raise SmilesError(f"ring-closure token {ch!r} not supported (position {pos})")
        elif ch in "=#$:":
            raise SmilesError(f"multi-bond token {ch!r} not supported (position {pos})")
        elif ch in "cbnops":
            raise SmilesError(f"aromatic atom {ch!r} not supported (position {pos})")
        else:
            raise SmilesError(f"unsupported token {ch!r} at position {pos}")

    if stack:
        raise SmilesError("unbalanced '(': branch never closed")
    return MolecularGraph(neighbors)


def _canonical_from_neighbors(neighbors: Sequence[Sequence[int]]) -> str:
    """Canonical SMILES of the tree with these neighbour lists, built as the
    enumerator builds it (:func:`_alkanes_of_size`): the subtrees hanging
    from the centroid, or from each end of the central edge, get their AHU
    codes and SMILES together in one post-order, and the centroid joins
    them with :func:`_join_smiles`, between two centroids with
    :func:`_join_halves`. Iterative to keep deep chains cheap."""
    n = len(neighbors)
    # breadth-first from vertex 0: every vertex comes after its parent, so
    # the reversed order visits children first
    parent = [-1] * n
    order = [0]
    for v in order:
        for u in neighbors[v]:
            if u != parent[v]:
                parent[u] = v
                order.append(u)
    # the centroid is the deepest vertex holding more than half the carbons
    # below it; a child holding exactly half is the second centroid
    size = [1] * n
    for centre in reversed(order):
        if 2 * size[centre] > n:
            break
        size[parent[centre]] += size[centre]
    other = -1
    for u in neighbors[centre]:
        if u != parent[centre] and 2 * size[u] == n:
            other = u
    # root one half at each centroid: each is the other's parent
    parent = [-1] * n
    parent[centre] = other
    order = [centre]
    if other >= 0:
        parent[other] = centre
        order.append(other)
    for v in order:
        for u in neighbors[v]:
            if u != parent[v]:
                parent[u] = v
                order.append(u)
    # a leaf, whose one neighbour is its parent, keeps _LEAF
    trees: list[_Subtree] = [_LEAF] * n
    for v in reversed(order):
        if len(neighbors[v]) > 1 or parent[v] < 0:
            children = [trees[u] for u in neighbors[v] if u != parent[v]]
            children.sort(key=itemgetter(0))
            trees[v] = _subtree(children)
    if other < 0:
        return trees[centre][1]
    return _join_halves(trees[centre], trees[other])


def to_canonical_smiles(g: MolecularGraph) -> CanonicalSmiles:
    """Canonical SMILES for an alkane tree.

    Deterministic: isomorphic graphs yield byte-identical strings,
    non-isomorphic graphs yield distinct strings. The root is the tree
    centroid; between two centroids the lexicographically smaller rooted
    encoding wins.
    """
    if g._canonical is None:
        g._canonical = _canonical_from_neighbors(g.adjacency)
    return CanonicalSmiles(g._canonical)


def _neighbor_table(ids: Sequence[str], n: int) -> np.ndarray:
    """The (k, n, 4) neighbour lists of k alkane SMILES of n carbons each,
    read in one pass: bitwise :func:`~alkspace.molspace.parse_smiles`'
    adjacency, each carbon's parent first, padded with -1.

    A carbon's branch depth is the count of ``(`` minus ``)`` before it.
    Its parent is the last carbon before it at its own depth, or one level
    up if the carbon opens a branch. SmilesError for an id that is no
    alkane SMILES, or that holds whitespace or ``((``, as no canonical id
    does."""
    import numpy as np

    if not n:
        parse_smiles(ids[0])  # raises: an alkane has a carbon
    total = len(ids) * n
    ends = np.cumsum(np.fromiter(map(len, ids), np.int64, len(ids)))
    # one byte per character: anything not ASCII reads "?"
    text = np.frombuffer("".join(ids).encode("ascii", "replace"), np.uint8)
    carbon, opens, closes = text == ord("C"), text == ord("("), text == ord(")")
    depth = np.cumsum(opens.astype(np.int64) - closes)
    at = np.flatnonzero(carbon)
    order = np.arange(total)
    local = order % n
    # carbons sorted by depth, then position
    keys = np.sort(depth[at] * total + order)
    parent = keys[np.searchsorted(keys, (depth[at] - opens[at - 1]) * total + order) - 1] % total
    # each carbon's parent, then its children in order; an id's first carbon is its root
    child = np.flatnonzero(local)[np.argsort(parent[local > 0], kind="stable")]
    owner = parent[child]
    slot = np.arange(len(child)) - np.searchsorted(owner, owner) + (local[owner] > 0)
    # each id starts with a carbon and ends at depth 0, a carbon follows
    # each "(", and none has more than four neighbours
    wrong = ~(carbon | opens | closes) | (depth < 0)
    wrong[:-1] |= opens[:-1] & ~carbon[1:]
    if (wrong.any() or depth[ends - 1].any() or (slot > 3).any()
            or (text[np.append(0, ends[:-1])] != ord("C")).any()):
        for key in ids:
            parse_smiles(key)
        # of the ids parse_smiles reads, the reader rejects only these
        spelled = next(key for key in ids if key != key.strip() or "((" in key)
        raise SmilesError(f"{spelled!r}: no canonical id holds whitespace or '(('")
    table = np.full((total, 4), -1, np.int64)
    table[child, 0] = local[parent[child]]
    table[owner, slot] = local[child]
    return table.reshape(len(ids), n, 4)


def descriptors(ids: Sequence[str]) -> np.ndarray:
    """The (k, 3) int array of the carbon count, Wiener index and methyl
    count of each alkane SMILES, read one carbon count at a time. In a tree
    the Wiener index is the sum over edges of s (n - s), s the carbons below
    the edge (Wiener, J. Am. Chem. Soc. 69, 17, 1947); a methyl is a carbon
    of one neighbour. SmilesError as :func:`_neighbor_table` raises it."""
    import numpy as np

    sizes = np.fromiter(map(str.count, ids, repeat("C")), np.int64, len(ids))
    out = np.zeros((len(ids), 3), np.int64)
    out[:, 0] = sizes
    for n in sorted(set(sizes.tolist())):
        members = np.flatnonzero(sizes == n)
        table = _neighbor_table([ids[i] for i in members.tolist()], n)
        # each carbon follows its parent: sweeping back sums subtrees first
        below = np.ones((len(members), n), np.int64)
        rows = np.arange(len(members))
        for v in range(n - 1, 0, -1):
            below[rows, table[:, v, 0]] += below[:, v]
        out[members, 1] = (below[:, 1:] * (n - below[:, 1:])).sum(axis=1)
        out[members, 2] = (np.count_nonzero(table >= 0, axis=2) == 1).sum(axis=1)
    return out


# A rooted subtree of the enumeration: (AHU code, SMILES, the SMILES in
# branch parentheses, child subtrees in ascending code order). Its root has
# at most MAX_VALENCE - 1 children, leaving one bond for its parent.
_Subtree = tuple[str, str, str, tuple]


def _partitions(total: int, parts: int, largest: int) -> Iterator[tuple[int, ...]]:
    """Non-increasing tuples of at most ``parts`` positive integers, none
    above ``largest``, that sum to ``total``."""
    if total == 0:
        yield ()
        return
    if parts == 0:
        return
    for first in range(min(total, largest), 0, -1):
        for rest in _partitions(total - first, parts - 1, first):
            yield (first, *rest)


def _child_multisets(
    levels: Sequence[Sequence[_Subtree]], total: int, parts: int, largest: int
) -> Iterator[list[_Subtree]]:
    """Every multiset of at most ``parts`` subtrees from ``levels`` (indexed
    by carbon count), none above ``largest`` carbons, totalling ``total``
    carbons. Each multiset comes once, in ascending code order."""
    for sizes in _partitions(total, parts, largest):
        groups = [
            combinations_with_replacement(levels[m], k)
            for m, k in Counter(sizes).items()
        ]
        for combo in product(*groups):
            children = [t for group in combo for t in group]
            children.sort(key=itemgetter(0))
            yield children


def _join_smiles(children: Sequence[_Subtree]) -> str:
    """SMILES of a carbon carrying ``children`` (sorted by code): every
    branch but the last in parentheses."""
    if not children:
        return "C"
    return "C" + "".join([c[2] for c in children[:-1]]) + children[-1][1]


def _subtree(children: Sequence[_Subtree]) -> _Subtree:
    """The rooted subtree of a carbon carrying ``children`` (sorted by code)."""
    smiles = _join_smiles(children)
    code = "(" + "".join([c[0] for c in children]) + ")"
    return (code, smiles, "(" + smiles + ")", tuple(children))


_LEAF = _subtree([])


def _join_halves(a: _Subtree, b: _Subtree) -> str:
    """SMILES of the tree that joins the roots of two subtrees of equal
    size, its two centroids, by an edge. The root is the end whose code is
    smaller; on a tie both ends give the same string."""
    code_at_a = "(" + "".join(sorted([*[c[0] for c in a[3]], b[0]])) + ")"
    code_at_b = "(" + "".join(sorted([*[c[0] for c in b[3]], a[0]])) + ")"
    root, other = (a, b) if code_at_a <= code_at_b else (b, a)
    return _join_smiles(sorted([*root[3], other], key=itemgetter(0)))


def _rooted_subtrees(max_size: int) -> list[list[_Subtree]]:
    """Rooted subtrees of 1..max_size carbons, one per isomorphism class,
    indexed by carbon count."""
    levels: list[list[_Subtree]] = [[]]
    for m in range(1, max_size + 1):
        levels.append([
            _subtree(children)
            for children in _child_multisets(levels, m - 1, MAX_VALENCE - 1, m - 1)
        ])
    return levels


def _alkanes_of_size(levels: Sequence[Sequence[_Subtree]], n: int) -> list[str]:
    """Sorted canonical SMILES of every n-carbon alkane, built from its
    centroid; ``levels`` must reach n // 2 carbons."""
    # One centroid: every branch at it holds fewer than n / 2 carbons.
    out = [
        _join_smiles(children)
        for children in _child_multisets(levels, n - 1, MAX_VALENCE, (n - 1) // 2)
    ]
    if n % 2 == 0:
        # Two centroids: an edge joins two halves of n / 2 carbons each.
        half = levels[n // 2]
        for i, a in enumerate(half):
            for b in half[i:]:
                out.append(_join_halves(a, b))
    out.sort()
    return out


def enumerate_alkane_smiles(min_n: int, max_n: int) -> list[CanonicalSmiles]:
    """Canonical SMILES of every alkane isomer with ``min_n..max_n`` carbons.

    Each isomer is built once, directly in canonical form, from its
    centroid. Rooted subtrees of up to ``max_n // 2`` carbons are generated
    first, one per isomorphism class, as multisets of smaller subtrees, and
    memoised with their AHU codes and SMILES. An n-carbon tree with one
    centroid is a root carrying at most four subtrees of fewer than n / 2
    carbons each; a tree with two centroids (even n) joins two subtrees of
    n / 2 carbons by an edge. The SMILES is the concatenation of the
    memoised subtree strings, so it equals :func:`to_canonical_smiles` of
    the tree. Output is sorted by carbon count, then canonical string.
    """
    if not (1 <= min_n <= max_n):
        raise ValueError(f"need 1 <= min_n <= max_n, got ({min_n}, {max_n})")
    if max_n > DEFAULT_MAX_CARBONS:
        raise EnumerationLimitError(
            f"max_n={max_n} exceeds the enumeration limit {DEFAULT_MAX_CARBONS}"
        )
    levels = _rooted_subtrees(max_n // 2)
    out: list[CanonicalSmiles] = []
    for n in range(min_n, max_n + 1):
        out.extend(CanonicalSmiles(s) for s in _alkanes_of_size(levels, n))
    return out


def enumerate_alkanes(min_n: int, max_n: int) -> list[MolecularGraph]:
    """Like :func:`enumerate_alkane_smiles` but materialised as graphs."""
    return [parse_smiles(s) for s in enumerate_alkane_smiles(min_n, max_n)]
