"""Acyclic alkane molecular graphs.

Covers the molecule-handling layer of the toolkit: a minimal SMILES parser
restricted to the alkane grammar (carbon atoms and parenthesised branches,
nothing else), a deterministic tree canonicaliser, exhaustive isomer
enumeration that builds each tree once from its centroid, and the
topological descriptors the synthetic property oracle consumes.

A molecule is a :class:`MolecularGraph`, the neighbour lists of its carbon
tree. Every atom is a carbon and every bond is single, so elements, bond
orders and hydrogens are implicit.

Molecule identity throughout the package is the canonical SMILES string
produced by :func:`to_canonical_smiles`: two graphs map to the same string
exactly when they are isomorphic.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from operator import itemgetter
from typing import Iterator, NewType, Sequence

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
    """Requested carbon count exceeds the configured enumeration limit."""


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
        adjacency = tuple(tuple(nb) for nb in neighbors)
        n = len(adjacency)
        if n == 0:
            raise GraphError("an alkane needs at least one carbon")
        ends = 0
        for v, nb in enumerate(adjacency):
            if len(nb) > MAX_VALENCE:
                raise GraphError(
                    f"vertex {v} has {len(nb)} neighbours, above valence {MAX_VALENCE}"
                )
            if len(set(nb)) != len(nb):
                raise GraphError(f"vertex {v} lists a neighbour twice")
            for u in nb:
                if not 0 <= u < n:
                    raise GraphError(f"vertex {v} names missing vertex {u}")
                if u == v:
                    raise GraphError(f"self-loop on vertex {v}")
                if v not in adjacency[u]:
                    raise GraphError(f"edge ({v}, {u}) is missing from vertex {u}")
            ends += len(nb)
        if ends != 2 * (n - 1) or not _is_connected(adjacency):
            raise GraphError("an alkane must be a connected acyclic graph")
        self.adjacency = adjacency
        self._canonical: str | None = None

    def __len__(self) -> int:
        return len(self.adjacency)

    def __repr__(self) -> str:
        return f"MolecularGraph({len(self.adjacency)} carbons)"


@dataclass(frozen=True)
class Descriptors:
    """Topological descriptors feeding the synthetic property oracle."""

    n_carbons: int
    wiener_index: int
    n_methyl: int


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


def _tree_centroids(neighbors: Sequence[Sequence[int]]) -> list[int]:
    """Centroid vertex (or adjacent pair) minimising the largest component
    left after removal. Iterative to keep deep chains cheap."""
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
    """AHU parenthesis encoding of the tree rooted at ``root``.

    Returns the root code and a per-vertex code table used to order children
    during SMILES emission. Children codes are sorted, so the encoding is
    invariant under vertex relabeling.
    """
    codes: dict[int, str] = {}
    # Post-order without recursion: (vertex, parent, expanded?)
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
    centroids = _tree_centroids(neighbors)
    best_root = -1
    best_code = None
    best_codes: dict[int, str] = {}
    for c in sorted(centroids):
        code, codes = _rooted_encoding(c, neighbors)
        if best_code is None or code < best_code:
            best_code = code
            best_root = c
            best_codes = codes
    return best_root, best_codes


def _emit_smiles(
    root: int, neighbors: Sequence[Sequence[int]], codes: dict[int, str]
) -> str:
    """Depth-first SMILES emission from the canonical root.

    Children are visited in sorted encoding order; every child except the
    last is parenthesised. Equal encodings emit equal substrings, so the
    result depends only on the isomorphism class.
    """
    out: list[str] = []
    # (vertex, parent) work items interleaved with literal tokens.
    work: list[object] = [(root, -1)]
    while work:
        item = work.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        v, par = item  # type: ignore[misc]
        out.append("C")
        children = sorted(
            (u for u in neighbors[v] if u != par), key=codes.__getitem__
        )
        pending: list[object] = []
        for u in children[:-1]:
            pending.append("(")
            pending.append((u, v))
            pending.append(")")
        if children:
            pending.append((children[-1], v))
        work.extend(reversed(pending))
    return "".join(out)


def _canonical_from_neighbors(neighbors: Sequence[Sequence[int]]) -> str:
    root, codes = _canonical_root(neighbors)
    return _emit_smiles(root, neighbors, codes)


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


def descriptors(g: MolecularGraph) -> Descriptors:
    """Carbon count, Wiener index and methyl-group count of an alkane tree."""
    n = len(g)
    total = 0
    # BFS from every vertex; n <= 19 keeps the quadratic walk trivial.
    for src in range(n):
        dist = [-1] * n
        dist[src] = 0
        queue = [src]
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            for u in g.adjacency[v]:
                if dist[u] < 0:
                    dist[u] = dist[v] + 1
                    queue.append(u)
        total += sum(dist)
    n_methyl = sum(1 for nb in g.adjacency if len(nb) == 1)
    return Descriptors(n_carbons=n, wiener_index=total // 2, n_methyl=n_methyl)


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
    branch but the last in parentheses, as :func:`_emit_smiles` writes it."""
    if not children:
        return "C"
    return "C" + "".join([c[2] for c in children[:-1]]) + children[-1][1]


def _rooted_subtrees(max_size: int) -> list[list[_Subtree]]:
    """Rooted subtrees of 1..max_size carbons, one per isomorphism class,
    indexed by carbon count."""
    levels: list[list[_Subtree]] = [[]]
    for m in range(1, max_size + 1):
        level = []
        for children in _child_multisets(levels, m - 1, MAX_VALENCE - 1, m - 1):
            smiles = _join_smiles(children)
            code = "(" + "".join([c[0] for c in children]) + ")"
            level.append((code, smiles, "(" + smiles + ")", tuple(children)))
        levels.append(level)
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
        # Two centroids: an edge joins two halves of n / 2 carbons each. The
        # root is the end whose code is smaller, as in _canonical_root; on a
        # tie both ends give the same string.
        half = levels[n // 2]
        for i, a in enumerate(half):
            a_codes = [c[0] for c in a[3]]
            for b in half[i:]:
                b_codes = [c[0] for c in b[3]]
                code_at_a = "(" + "".join(sorted([*a_codes, b[0]])) + ")"
                code_at_b = "(" + "".join(sorted([*b_codes, a[0]])) + ")"
                root, other = (a, b) if code_at_a <= code_at_b else (b, a)
                children = sorted([*root[3], other], key=itemgetter(0))
                out.append(_join_smiles(children))
    out.sort()
    return out


def enumerate_alkane_smiles(
    min_n: int, max_n: int, *, hard_limit: int = DEFAULT_MAX_CARBONS
) -> list[CanonicalSmiles]:
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
    if max_n > hard_limit:
        raise EnumerationLimitError(
            f"max_n={max_n} exceeds the enumeration limit {hard_limit}"
        )
    levels = _rooted_subtrees(max_n // 2)
    out: list[CanonicalSmiles] = []
    for n in range(min_n, max_n + 1):
        out.extend(CanonicalSmiles(s) for s in _alkanes_of_size(levels, n))
    return out


def enumerate_alkanes(
    min_n: int, max_n: int, *, hard_limit: int = DEFAULT_MAX_CARBONS
) -> list[MolecularGraph]:
    """Like :func:`enumerate_alkane_smiles` but materialised as graphs."""
    return [parse_smiles(s) for s in enumerate_alkane_smiles(min_n, max_n, hard_limit=hard_limit)]
