"""Marginalized graph kernel between alkane trees.

Similarity is the expected weight of simultaneous random walks on both
graphs: each walk starts on every vertex (weight ``start_weight``), stops at
a vertex with probability ``q``, or hops to a uniformly chosen neighbour.
Matched vertices are scored by a Kronecker delta on their degree,
K_v = 1 for equal degrees and ``delta_degree`` otherwise; every atom is a
carbon and every bond single, so elements and bond orders always match.
The infinite walk-length sum is the fixed point of

    R(v,v') = q^2 + sum_{u in N(v)} sum_{u' in N(v')}
              p_t(u|v) p_t(u'|v') K_v(u,u') R(u,u')

with p_t(u|v) = (1-q)/degree(v), and the raw kernel is
sum_{v,v'} start_weight^2 K_v(v,v') R(v,v').

Writing S = K_v * R (elementwise) and multiplying through by the degrees
turns the fixed point into one symmetric positive-definite system on the
product graph,

    (D_x / K_v) * S - (1-q)^2 A1 S A2 = q^2 D_x,

with D_x = d1 d2^T (degrees clamped to at least 1, so methane's lone
vertex gives R = q^2) and A the 0/1 adjacency matrices. The raw kernel is
start_weight^2 sum(S).

Each graph is solved on its colour-refinement classes (Grohe, Kersting,
Mladenov & Selman, "Dimension Reduction via Colour Refinement", ESA
2014): the coarsest partition of its carbons in which all carbons of one
class have equally many neighbours in each class. For trees these
classes are the automorphism orbits. With P the n x c class-membership
matrix, equitability reads A P = P B, and degrees and K_v are constant
on classes. So the system maps an S that is constant on class pairs,
S = P1 T P2^T, to another: A1 S A2 = P1 B1 T B2^T P2^T. Its unique
solution is therefore constant on class pairs, the lumpability of Kemeny
& Snell (Finite Markov Chains, 1960). Multiplying by P1^T on the left
and P2 on the right leaves the c1 x c2 system

    (W_x / K_v) * T - (1-q)^2 Ab1 T Ab2 = q^2 w1 w2^T,

where Ab = P^T A P = diag(s) B holds the (symmetric) edge counts between
classes, s the class sizes, d the class degrees (clamped to 1),
w = s * d, W = diag(w) and W_x = w1 w2^T. The raw kernel is
start_weight^2 s1^T T s2. Classes are numbered canonically, in the order
of their refinement signatures, so a relabelled graph gives bitwise the
same quotient, and a pair's value does not depend on vertex numbering.

The system is solved by conjugate gradient in each graph's eigenbasis,
the fast diagonalisation of Lynch, Rice & Thomas (Numer. Math. 1964)
applied to the Sylvester form of random-walk kernels (Vishwanathan et
al., "Graph Kernels", JMLR 2010). Each graph factors
W^-1/2 Ab W^-1/2 = U diag(lam) U^T once; with V = W^-1/2 U, so that
V^T W V = I and V^T Ab V = diag(lam), the substitution T = V1 Y V2^T
turns the part W1 T W2 - (1-q)^2 Ab1 T Ab2 into the elementwise diagonal
1 - (1-q)^2 lam_i mu_j, and the right-hand side into the rank-one
q^2 (V1^T w1)(V2^T w2)^T. What remains is a correction formed in T space
and mapped back, V1^T (c * T) V2, with c = (1/K_v - 1) W_x >= 0. The
columns of P V are D-orthonormal eigenvectors of the full pencil (A, D),
since A P V = P B V = P diag(s)^-1 Ab V = P diag(d) V diag(lam): the
lumped eigenbasis is the class-constant part of the full one, and the
iteration is the full one restricted to that invariant subspace. The
diagonal is also the preconditioner; it bounds the condition number by
1 + (1/delta_degree - 1)/(1 - (1-q)^2) whatever the molecule size, so a
pair takes about ten iterations.

Pairs are stacked by size class: each graph's arrays are padded once, to
its class count rounded up to a multiple of a small step, so pairs of
different shapes share one stack. The padding is exact. Padded rows and
columns of V are 0, and so are lam, V^T w, the degrees and the class
sizes there; the diagonal is 1, the right-hand side 0 and c 0 on padded
entries, so the padded rows and columns of T = V1 Y V2^T are exactly 0,
the padded entries of Y stay exactly 0 at every iteration, and the
s1 s2^T weights of the raw value are 0 there. Step sizes, residuals and
the stop test are per pair: a pair stops when its residual, in the norm
of the eigenbasis preconditioner, falls to ``fp_tolerance`` times that
of the right-hand side. The padded size depends only on the graph
itself, so a pair's value is bitwise independent of the pairs batched
with it and of request order.

Normalization divides by the geometric mean of the self-kernels and, when a
finite ``lambda_`` is set, damps pairs with mismatched self-kernel scale by
exp(-d^2), d = (k11 - k22)/lambda_. Where that factor is below 2^-53, half
an ulp of the unit diagonal, the entry is exactly 0: the kernel is positive
semi-definite, so k12 <= sqrt(k11 k22) and the undamped value is at most 1.
The self-kernels alone decide this, so :class:`MgkCalculator` never solves
such a pair and never stores it; only pairs in the band
|k11 - k22| <= lambda_ sqrt(53 ln 2) are solved.

:class:`MgkCalculator` holds everything in flat numpy arrays indexed by a
dense molecule index, so no Python loop runs over pairs between
:meth:`MgkCalculator.block` and the solver. Each molecule's graph arrays
are one row of the arena of its size class, found by two int64 arrays
(class and row), and a stack is gathered from an arena by fancy indexing.
Self-kernels are a float64 vector. A cross pair is an int64 code
i << 32 | j; codes, float64 values and a looked-up flag are kept in a
few sorted runs, searched with ``np.searchsorted`` and merged
geometrically as pairs are added, about 17 bytes per pair. A pair's
orientation comes from an int rank array of the canonical SMILES.
"""

from __future__ import annotations

import hashlib
import io
import math
import numbers
import zipfile
from dataclasses import dataclass, fields
from itertools import repeat
from typing import Mapping, Sequence

import numpy as np

from ._atomic import write_atomic
from .molspace import MolecularGraph, to_canonical_smiles

# Padded product-class entries (pairs x m1 x m2) per stacked solve; caps
# the working memory at about this many doubles per array.
_CHUNK_ENTRIES = 16384

# A graph of c colour-refinement classes is padded to c rounded up to a
# multiple of this step, its size class; pairs are stacked by the size
# classes of their two graphs. A larger step makes fewer, larger stacks but
# pads more. Medians of alternating perfbench runs (8-10 s each, one pinned
# CPU of a 2-core Xeon), select_c12_lazy wall_s: 0.249 s at step 2, 0.235 s
# at 3, 0.211 s at 4, 0.235 s at 5, 0.216 s at 6; cold C4..C16 run-all:
# 13.9 s at 3, 13.7 s at 4 and 6, 16.4 s at 8 (the unlumped solver, at its
# step 3, took 0.24 s and 16.0 s).
_SIZE_STEP = 4

# 6: values of the lumped systems over colour-refinement classes, within
# 2.0e-14 relative of version 5 over the 219,451 pairs of a cold C4..C16
# run-all; version 5 solved every carbon, in npz segments of int32 index
# pairs into a sorted key table. Version 4 held version 5's values as CSV
# rows, version 3 (unpadded stacks of one shape) differs by up to 8e-16
# relative, version 2 (the Jacobi-preconditioned solver) at about 1e-11.
_CACHE_VERSION = 6

# A pair of molecule indices i <= j is stored under i << 32 | j.
_LOW = (1 << 32) - 1

# Entries whose size damping exp(-d^2) is below 2^-53 are exactly 0.
_NEGLIGIBLE_D2 = 53 * math.log(2)


class KernelConvergenceError(RuntimeError):
    """A pair's solve failed to reach tolerance within the iteration cap."""


def _require_real(
    name: str, value: object, error: type[ValueError] = ValueError, inf: bool = False
) -> None:
    """Raise ``error`` naming the field unless ``value`` is a finite real
    number, or +inf where ``inf`` is set. A bool is no number: a JSON true
    would otherwise pass as 1, and be hashed into artifact names as true."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not (math.isfinite(value) or (inf and value == math.inf))
    ):
        kind = "a finite number or infinity" if inf else "a finite number"
        raise error(f"{name} must be {kind}, got {value!r}")


@dataclass(frozen=True)
class MgkHyperparameters:
    """Random-walk and micro-kernel parameters.

    ``q`` is the per-vertex stopping probability, ``start_weight`` the
    per-vertex starting weight (unnormalized; the normalization step absorbs
    the scale). ``delta_degree`` is the off-diagonal return of the degree
    comparator; all atoms are carbons and all bonds single, so there is no
    element or bond-order comparator. ``lambda_`` scales the
    self-kernel-mismatch damping (infinite disables it); an entry whose
    damping factor is below 2^-53 is exactly 0 and its pair is never
    solved. ``fp_tolerance`` is the relative residual, in the norm of the
    eigenbasis preconditioner, at which a pair's solve stops, and
    ``fp_max_iters`` caps its conjugate-gradient iterations.
    """

    q: float = 0.05
    start_weight: float = 1.0
    delta_degree: float = 0.9
    lambda_: float = math.inf
    fp_tolerance: float = 1e-10
    fp_max_iters: int = 2000

    def __post_init__(self) -> None:
        # every field but the last, fp_max_iters, is a float
        for f in fields(self)[:-1]:
            _require_real(f.name, getattr(self, f.name), inf=f.name == "lambda_")
        if not 0.0 < self.q < 1.0:
            raise ValueError(f"q must lie in (0,1), got {self.q}")
        if self.start_weight <= 0.0:
            raise ValueError("start_weight must be positive")
        if not 0.0 < self.delta_degree < 1.0:
            raise ValueError(f"delta_degree must lie in (0,1), got {self.delta_degree}")
        if not self.lambda_ > 0.0:
            raise ValueError("lambda_ must be positive (math.inf disables)")
        if not self.fp_tolerance > 0.0:
            raise ValueError("fp_tolerance must be positive")
        if isinstance(self.fp_max_iters, bool) or not isinstance(self.fp_max_iters, int):
            raise ValueError(f"fp_max_iters must be an integer, got {self.fp_max_iters!r}")
        if self.fp_max_iters < 1:
            raise ValueError("fp_max_iters must be at least 1")

    @classmethod
    def from_dict(cls, raw: Mapping[str, object]) -> "MgkHyperparameters":
        """Build from a config mapping; the file key for lambda_ is "lambda"
        and a null value means infinity."""
        known = {f.name for f in fields(cls)}
        kwargs: dict[str, object] = {}
        for key, value in raw.items():
            name = "lambda_" if key == "lambda" else key
            if name not in known:
                raise ValueError(f"unknown kernel config key {key!r}")
            if name == "lambda_" and value is None:
                value = math.inf
            kwargs[name] = value
        return cls(**kwargs)  # type: ignore[arg-type]

    def to_dict(self) -> dict[str, object]:
        out: dict[str, object] = {
            "lambda" if f.name == "lambda_" else f.name: getattr(self, f.name)
            for f in fields(self)
        }
        if math.isinf(self.lambda_):
            out["lambda"] = None
        return out

    def content_hash(self) -> str:
        # every field but the last, fp_max_iters, is hashed as a float
        parts = [repr(float(getattr(self, f.name))) for f in fields(self)[:-1]]
        parts.append(repr(int(self.fp_max_iters)))
        return hashlib.sha256("|".join(parts).encode()).hexdigest()


class _Arenas:
    """Graph arrays by size class: one (rows, m, m + 4) array per class m,
    one row per graph, grown by doubling. A row holds the lumped system of
    a graph of c colour-refinement classes: V = W^-1/2 U in columns
    0..c-1, where W^-1/2 Ab W^-1/2 = U diag(lam) U^T, then lam, V^T w,
    the class degrees and the class sizes (w = sizes * clamped degrees).
    Rows c..m-1, and columns c..m-1 of V, are padding and hold 0. Filled
    by :func:`_graph_arrays`. The arenas of all 18,027 C4..C16 graphs hold
    35.6 MB (13.2 classes per C16 isomer on average); rows of every
    carbon, at the unlumped solver's step 3, took 45.2 MB.
    """

    def __init__(self) -> None:
        self.stacks: dict[int, np.ndarray] = {}
        self.used: dict[int, int] = {}

    def reserve(self, m: int, k: int) -> tuple[np.ndarray, int]:
        """The array of class ``m`` with ``k`` more zero rows in use, and
        the first of them."""
        lo = self.used.get(m, 0)
        stack = self.stacks.get(m)
        if stack is None or len(stack) < lo + k:
            grown = np.zeros((max(2 * lo, lo + k), m, m + 4))
            if stack is not None:
                grown[:lo] = stack[:lo]
            self.stacks[m] = stack = grown
        self.used[m] = lo + k
        return stack, lo


def _refine(neighbors: np.ndarray) -> np.ndarray:
    """Colour refinement of a (k, n, 4) stack of graphs' neighbour lists
    (-1 where there is none): each vertex's class in the coarsest
    equitable partition of its graph, numbered 0..c-1 within the graph.

    Colours start as degrees. Each round packs every vertex's signature
    (graph, colour, sorted neighbour colours) into one int64, k (n+1)^5
    at most, ranks the signatures with one sort and renumbers each graph's
    ranks from 0, until no graph gains a class. A graph's classes are
    numbered in the order of their signatures, which depend on the graph
    only up to isomorphism: not on its vertex numbering, nor on the other
    graphs of the stack.
    """
    k, n, _ = neighbors.shape
    base = n + 1
    start = np.arange(k)[:, None, None] * n
    flat = np.where(neighbors >= 0, neighbors + start, -1).reshape(k * n, 4)
    colour = np.count_nonzero(flat >= 0, axis=1)
    graph = np.repeat(np.arange(k, dtype=np.int64), n)
    count = -1
    while True:
        # index -1 reads the appended sentinel, below every colour
        around = np.sort(np.append(colour, -1)[flat], axis=1) + 1
        key = graph * base + colour
        for column in around.T:
            key = key * base + column
        signatures, rank = np.unique(key, return_inverse=True)
        rank = rank.reshape(k, n)
        colour = (rank - rank.min(axis=1, keepdims=True)).ravel()
        if len(signatures) == count:
            return colour.reshape(k, n)
        count = len(signatures)


def _graph_arrays(
    graphs: Sequence[MolecularGraph], arenas: _Arenas
) -> tuple[np.ndarray, np.ndarray]:
    """Write the lumped arrays of each graph into ``arenas``; returns each
    graph's size class and row. Graphs of one carbon count are refined as
    one stack, and those of one class count among them share one
    ``eigh``. LAPACK factors each matrix of a stack on its own, so a
    graph's arrays are bitwise those it gets alone. Each size class's
    arena grows once per call, by the rows the call adds to it."""
    sizes = np.fromiter(map(len, graphs), np.int64, len(graphs))
    count = np.empty(len(graphs), np.int64)
    stacks = []
    for n in np.unique(sizes).tolist():
        members = np.flatnonzero(sizes == n)
        neighbors = np.array(
            [nb + (-1,) * (4 - len(nb)) for i in members.tolist() for nb in graphs[i].adjacency],
            dtype=np.int64,
        ).reshape(len(members), n, 4)
        local = _refine(neighbors)
        count[members] = local.max(axis=1) + 1
        stacks.append((members, neighbors, local))
    classes = _size_class(count)
    rows = np.empty(len(graphs), np.int64)
    for m in np.unique(classes).tolist():
        at = np.flatnonzero(classes == m)
        _, lo = arenas.reserve(m, len(at))
        rows[at] = np.arange(lo, lo + len(at))
    for members, neighbors, local in stacks:
        degree = np.count_nonzero(neighbors >= 0, axis=2)
        for c in np.unique(count[members]).tolist():
            sel = np.flatnonzero(count[members] == c)
            cls = local[sel]
            # each graph's classes, then its class pairs, get their own cells
            cell = (np.arange(len(sel))[:, None] * c + cls).ravel()
            size = np.bincount(cell, minlength=len(sel) * c).reshape(-1, c).astype(float)
            deg = np.zeros(len(sel) * c)
            deg[cell] = degree[sel].ravel()
            deg = deg.reshape(-1, c)
            around = neighbors[sel]
            g, x, slot = np.nonzero(around >= 0)
            adjacency = np.bincount(
                (g * c + cls[g, x]) * c + cls[g, around[g, x, slot]], minlength=len(sel) * c * c
            ).reshape(-1, c, c).astype(float)
            weight = size * np.maximum(deg, 1.0)
            root = 1.0 / np.sqrt(weight)
            lam, u = np.linalg.eigh(root[:, :, None] * adjacency * root[:, None, :])
            v = root[:, :, None] * u
            m = _size_class(c)
            packed = np.zeros((len(sel), m, m + 4))
            packed[:, :c, :c] = v
            packed[:, :c, m] = lam
            packed[:, :c, m + 1] = (v.transpose(0, 2, 1) @ weight[:, :, None])[:, :, 0]
            packed[:, :c, m + 2] = deg
            packed[:, :c, m + 3] = size
            arenas.stacks[m][rows[members[sel]]] = packed
    return classes, rows


def _size_class(c):
    """The padded size of a graph of ``c`` colour-refinement classes (an
    int or an int array): ``c`` rounded up to a multiple of _SIZE_STEP."""
    return -(-c // _SIZE_STEP) * _SIZE_STEP


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-pair inner products of two (k, n1, n2) stacks."""
    return np.einsum("kij,kij->k", a, b)


def _pcg(
    v1: np.ndarray,
    v2: np.ndarray,
    c: np.ndarray,
    weight: np.ndarray,
    diag: np.ndarray,
    rhs: np.ndarray,
    p: MgkHyperparameters,
) -> tuple[np.ndarray, int]:
    """Per-pair ``weight``-weighted sums of T = V1 Y V2^T, where Y solves
    diag*Y + V1^T (c*T) V2 = rhs, and the iterations the stack took.

    Conjugate gradient on a (k, n1, n2) stack in the eigenbasis, with the
    diagonal as preconditioner. Step sizes, residuals and the stop test
    are per pair: a pair is finished once <r, r/diag> falls to
    fp_tolerance^2 times <rhs, rhs/diag>, and its sum, accumulated from the
    T-space directions each iteration forms anyway, is taken at that step.
    Finished pairs leave the stack once they are a quarter of it; until
    then their slices run on without touching the others, so no pair's
    result depends on its companions. ``rhs`` becomes the residual and is
    overwritten.
    """
    k = len(rhs)
    out = np.empty(k)
    live = np.arange(k)
    pending = np.ones(k, dtype=bool)
    total = np.zeros(k)
    minv = 1.0 / diag
    r = rhs
    z = minv * r
    d = z.copy()
    rz = _dot(r, z)
    stop = p.fp_tolerance**2 * rz
    # a finished slice that reaches an exact zero residual divides 0 by 0
    with np.errstate(divide="ignore", invalid="ignore"):
        for iteration in range(1, p.fp_max_iters + 1):
            s = v1 @ d @ v2.transpose(0, 2, 1)
            s_sum = _dot(s, weight)
            s *= c
            ad = v1.transpose(0, 2, 1) @ s @ v2
            # z is free until the residual update below refills it
            np.multiply(diag, d, out=z)
            ad += z
            alpha = rz / _dot(d, ad)
            total += alpha * s_sum
            ad *= alpha[:, None, None]
            r -= ad
            np.multiply(minv, r, out=z)
            rz_next = _dot(r, z)
            done = pending & (rz_next <= stop)
            if done.any():
                out[live[done]] = total[done]
                pending &= ~done
                remaining = np.count_nonzero(pending)
                if remaining == 0:
                    return out, iteration
                if 4 * remaining <= 3 * len(pending):
                    keep = pending
                    live, pending, total, stop, rz, rz_next = (
                        a[keep] for a in (live, pending, total, stop, rz, rz_next)
                    )
                    v1, v2, c, weight, r, z, d, diag, minv = (
                        a[keep] for a in (v1, v2, c, weight, r, z, d, diag, minv)
                    )
            d *= (rz_next / rz)[:, None, None]
            d += z
            rz = rz_next
    raise KernelConvergenceError(
        f"no convergence in {p.fp_max_iters} iterations "
        f"(q={p.q}, tolerance={p.fp_tolerance})"
    )


def _solve_pairs(
    arenas: _Arenas,
    class_a: np.ndarray,
    row_a: np.ndarray,
    class_b: np.ndarray,
    row_b: np.ndarray,
    p: MgkHyperparameters,
) -> tuple[np.ndarray, int, int]:
    """Raw kernel values of graph pairs, each side given by its size class
    and row in ``arenas``, in request order; the number of stacked solves
    they took and the CG iterations of those stacks.

    Pairs are grouped by the size classes (m1, m2) of their graphs, in
    request order within a group, and gathered from the arenas one stack
    of at most _CHUNK_ENTRIES padded product-class entries at a time.
    """
    scale = (1.0 - p.q) ** 2
    q2 = p.q * p.q
    sw2 = p.start_weight**2
    out = np.empty(len(class_a))
    stacks = iterations = 0
    shape = class_a << 32 | class_b
    order = np.argsort(shape, kind="stable")
    starts = np.flatnonzero(np.diff(shape[order], prepend=-1))
    for members in np.split(order, starts[1:]):
        m1, m2 = int(class_a[members[0]]), int(class_b[members[0]])
        step = max(1, _CHUNK_ENTRIES // (m1 * m2))
        for lo in range(0, len(members), step):
            chunk = members[lo : lo + step]
            a, b = arenas.stacks[m1][row_a[chunk]], arenas.stacks[m2][row_b[chunk]]
            lam, vd1, da, sa = (a[:, :, m1 + i] for i in range(4))
            mu, vd2, db, sb = (b[:, :, m2 + i] for i in range(4))
            # c = (1/K_v - 1) W_x, formed in place; 0 on padded entries,
            # where the class sizes are 0
            c = np.where(da[:, :, None] == db[:, None, :], 1.0, 1.0 / p.delta_degree)
            c -= 1.0
            c *= (sa * np.maximum(da, 1.0))[:, :, None] * (sb * np.maximum(db, 1.0))[:, None, :]
            sums, taken = _pcg(
                np.ascontiguousarray(a[:, :, :m1]),
                np.ascontiguousarray(b[:, :, :m2]),
                c,
                sa[:, :, None] * sb[:, None, :],
                1.0 - scale * lam[:, :, None] * mu[:, None, :],
                q2 * vd1[:, :, None] * vd2[:, None, :],
                p,
            )
            out[chunk] = sw2 * sums
            stacks += 1
            iterations += taken
    return out, stacks, iterations


def mgk_raw(g1: MolecularGraph, g2: MolecularGraph, p: MgkHyperparameters) -> float:
    """Un-normalized marginalized graph kernel value (non-negative)."""
    arenas = _Arenas()
    classes, rows = _graph_arrays([g1, g2], arenas)
    return float(_solve_pairs(arenas, classes[:1], rows[:1], classes[1:], rows[1:], p)[0][0])


def _negligible(k11, k22, p: MgkHyperparameters):
    """Where the size damping exp(-d^2) of a pair is below 2^-53; never with
    an infinite ``lambda_``."""
    d = (k11 - k22) / p.lambda_
    return d * d > _NEGLIGIBLE_D2


def _normalize(k12, k11, k22, p: MgkHyperparameters):
    """Normalized values from raw ones; scalars or broadcastable arrays.

    With a finite ``lambda_`` the value is damped by exp(-d^2), and is
    exactly 0 where that factor is below 2^-53 (:func:`_negligible`),
    whatever ``k12`` holds, so a screened entry is the same whether its raw
    value was solved, loaded or never known.
    """
    out = k12 / np.sqrt(k11 * k22)
    if math.isfinite(p.lambda_):
        d = (k11 - k22) / p.lambda_
        out = np.where(_negligible(k11, k22, p), 0.0, out * np.exp(-(d * d)))
    return out


def mgk_normalized(
    g1: MolecularGraph, g2: MolecularGraph, p: MgkHyperparameters
) -> float:
    """Normalized kernel in [0, 1]: the entry :meth:`MgkCalculator.block`
    gives the pair, so exactly 1 for isomorphic inputs, and 0, without
    solving the pair, where the size damping is below 2^-53."""
    if g1 is g2:
        return 1.0
    calc = MgkCalculator(p)
    a, b = calc.register([g1, g2])
    return float(calc.block([a], [b])[0, 0])


class _Table:
    """Cross raw values keyed by int64 pair codes, with a flag per row that
    :meth:`MgkCalculator.block` has looked the pair up.

    The rows are a few sorted runs, codes disjoint across runs. An insert
    adds a run and merges it with the runs before it while they are less
    than twice its size, so there are at most about log2(rows) runs and a
    row is copied about log2(rows) times in all.
    """

    def __init__(self) -> None:
        # (codes, values, looked) per run, largest first
        self.runs: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def looked(self) -> int:
        """How many rows are flagged as looked up."""
        return sum(np.count_nonzero(looked) for _, _, looked in self.runs)

    def get(self, codes: np.ndarray, mark: bool) -> tuple[np.ndarray, np.ndarray]:
        """The values held for ``codes`` and where one is held; ``mark``
        flags the rows found as looked up."""
        values = np.zeros(len(codes))
        found = np.zeros(len(codes), dtype=bool)
        for run, held, looked in self.runs:
            at = np.minimum(np.searchsorted(run, codes), len(run) - 1)
            hit = run[at] == codes
            at = at[hit]
            values[hit] = held[at]
            found |= hit
            if mark:
                looked[at] = True
        return values, found

    def add(self, codes: np.ndarray, values: np.ndarray, looked: bool) -> None:
        """Insert rows whose codes are distinct and not yet held."""
        if not len(codes):
            return
        order = np.argsort(codes)
        run = (codes[order], values[order], np.full(len(codes), looked))
        while self.runs and len(self.runs[-1][0]) < 2 * len(run[0]):
            run = _merge(self.runs.pop(), run)
        self.runs.append(run)

    def items(self) -> tuple[np.ndarray, np.ndarray]:
        """Every code held and its value."""
        if not self.runs:
            return np.empty(0, np.int64), np.empty(0)
        return (np.concatenate([codes for codes, _, _ in self.runs]),
                np.concatenate([values for _, values, _ in self.runs]))


def _merge(a: tuple[np.ndarray, ...], b: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    """One sorted run from two with disjoint codes."""
    at = np.searchsorted(a[0], b[0]) + np.arange(len(b[0]))
    rest = np.ones(len(a[0]) + len(b[0]), dtype=bool)
    rest[at] = False
    out = []
    for x, y in zip(a, b):
        z = np.empty(len(rest), x.dtype)
        z[at] = y
        z[rest] = x
        out.append(z)
    return tuple(out)


class MgkCalculator:
    """Kernel evaluator over a store of raw values keyed by molecule index.

    :meth:`block` and :meth:`diag` make it the molecule-kernel provider of
    the regression and selection layers. :meth:`register` gives each
    canonical SMILES a dense index. Raw (un-normalized) self-kernels live in
    one float64 vector indexed by molecule, NaN until known; the other raw
    values live in a table of sorted int64 codes ``i << 32 | j`` of the two
    indices, i < j, with a float64 value and a looked-up flag per row
    (:class:`_Table`). Graph arrays live in per-size-class arenas, found by
    each molecule's class and row. A pair is solved in the order of its two
    canonical SMILES, so its value does not depend on the order of
    registration. The store is saved and loaded as cache segments
    (:meth:`segment`, :meth:`load_cache`).
    """

    def __init__(self, params: MgkHyperparameters):
        self.params = params
        self._index: dict[str, int] = {}
        self._keys: list[str] = []
        self._graphs: list[MolecularGraph | None] = []
        # rank of each key in canonical-SMILES order; None once stale
        self._rank: np.ndarray | None = None
        self._arenas = _Arenas()
        # size class and arena row of each molecule's arrays; row -1 until built
        self._class = np.empty(0, np.int64)
        self._row = np.empty(0, np.int64)
        self._self = np.empty(0)
        self._cross = _Table()
        # codes of the pairs solved here, one array per solve
        self._solved: list[np.ndarray] = []
        # pairs passed to the solver, self-kernels included, the stacked
        # solves they took and those stacks' CG iterations
        self.pairs_solved = 0
        self.stacks_solved = 0
        self.cg_iterations = 0

    @property
    def pairs_requested(self) -> int:
        """The distinct cross pairs :meth:`block` has looked up, held or
        not; screened pairs are never looked up."""
        return self._cross.looked()

    # -- registry ---------------------------------------------------------

    def register(self, molecules: Sequence[MolecularGraph]) -> list[str]:
        """Record graphs under their canonical ids (:func:`to_canonical_smiles`);
        returns the id list. The first graph under an id is kept; any
        numbering of its carbons gives bitwise the same values."""
        keys = [str(to_canonical_smiles(g)) for g in molecules]
        for i, g in zip(self._intern(keys).tolist(), molecules):
            if self._graphs[i] is None:
                self._graphs[i] = g
        return keys

    def _intern(self, keys: Sequence[str]) -> np.ndarray:
        """The indices of ``keys``, giving each new one the next index."""
        index = self._index
        out = np.fromiter((index.setdefault(k, len(index)) for k in keys), np.int64, len(keys))
        grow = len(index) - len(self._keys)
        if grow:
            self._keys = list(index)
            self._rank = None
            self._self = np.concatenate([self._self, np.full(grow, np.nan)])
            self._class = np.concatenate([self._class, np.zeros(grow, np.int64)])
            self._row = np.concatenate([self._row, np.full(grow, -1, np.int64)])
            self._graphs += [None] * grow
        return out

    def _ranks(self) -> np.ndarray:
        """Each index's rank in canonical-SMILES order."""
        if self._rank is None:
            self._rank = np.empty(len(self._keys), np.int64)
            self._rank[np.argsort(np.array(self._keys, dtype=str))] = np.arange(len(self._keys))
        return self._rank

    def _build_arrays(self, indices: np.ndarray) -> None:
        """Build, in one pass, the arrays of the graphs at these distinct
        indices that have none yet."""
        need = indices[self._row[indices] < 0].tolist()
        if not need:
            return
        graphs = [self._graphs[i] for i in need]
        if None in graphs:
            raise KeyError(self._keys[need[graphs.index(None)]])
        self._class[need], self._row[need] = _graph_arrays(graphs, self._arenas)  # type: ignore[arg-type]

    # -- evaluation -------------------------------------------------------

    def block(self, keys_a: Sequence[str], keys_b: Sequence[str]) -> np.ndarray:
        """Normalized kernel block; computes missing raw values in batch.

        The missing self-kernels are solved first; of the cross pairs, only
        those whose entry is not screened to 0 (:func:`_normalize`) are read
        or solved. Values are normalized once per distinct pair of keys and
        then expanded to the requested rows and columns, so the block of a
        key list against itself is exactly symmetric with a unit diagonal.
        """
        index = self._index.__getitem__
        ua, rows = np.unique(np.fromiter(map(index, keys_a), np.int64, len(keys_a)), return_inverse=True)
        ub, cols = np.unique(np.fromiter(map(index, keys_b), np.int64, len(keys_b)), return_inverse=True)
        both = np.union1d(ua, ub)
        missing = both[np.isnan(self._self[both])]
        if missing.size:
            self._compute_pairs(missing << 32 | missing)
        k11, k22 = self._self[ua][:, None], self._self[ub][None, :]
        ia, ib = np.nonzero(~_negligible(k11, k22, self.params))
        a, b = ua[ia], ub[ib]
        same = a == b
        cross = ~same
        codes, inverse = np.unique(
            np.minimum(a[cross], b[cross]) << 32 | np.maximum(a[cross], b[cross]),
            return_inverse=True,
        )
        held, found = self._cross.get(codes, mark=True)
        if not found.all():
            held[~found] = self._compute_pairs(codes[~found])
        k12 = np.zeros((len(ua), len(ub)))
        k12[ia[cross], ib[cross]] = held[inverse]
        values = _normalize(k12, k11, k22, self.params)
        values[ia[same], ib[same]] = 1.0
        return values[np.ix_(rows, cols)]

    def diag(self, keys: Sequence[str]) -> np.ndarray:
        return np.ones(len(keys))

    def _compute_pairs(self, codes: np.ndarray) -> np.ndarray:
        """Solve and store the raw values of the pairs with these distinct
        codes, each in the order of its two canonical SMILES; returns them.
        The cross pairs are stored as looked up, as :meth:`block` solves
        only pairs it looks up."""
        lo, hi = codes >> 32, codes & _LOW
        self._build_arrays(np.union1d(lo, hi))
        rank = self._ranks()
        swap = rank[lo] > rank[hi]
        first, second = np.where(swap, hi, lo), np.where(swap, lo, hi)
        values, stacks, iterations = _solve_pairs(
            self._arenas,
            self._class[first], self._row[first],
            self._class[second], self._row[second],
            self.params,
        )
        self._store(codes, values, looked=True)
        self._solved.append(codes)
        self.pairs_solved += len(codes)
        self.stacks_solved += stacks
        self.cg_iterations += iterations
        return values

    def _store(self, codes: np.ndarray, values: np.ndarray, looked: bool) -> None:
        """Hold new values; a cross code must not be held yet."""
        lo, hi = codes >> 32, codes & _LOW
        same = lo == hi
        self._self[lo[same]] = values[same]
        self._cross.add(codes[~same], values[~same], looked)

    def _held(self, codes: np.ndarray) -> np.ndarray:
        """The raw values held for these codes, NaN where none is."""
        lo, hi = codes >> 32, codes & _LOW
        values = self._self[lo]
        off = lo != hi
        cross, found = self._cross.get(codes[off], mark=False)
        values[off] = np.where(found, cross, np.nan)
        return values

    # -- persistence ------------------------------------------------------

    def segment(self, solved_only: bool = False) -> tuple[int, bytes]:
        """The row count and the bytes of one cache segment holding every
        raw value held, or only those this calculator solved.

        A segment is an npz file of a sorted key table, int32 index pairs
        (i, j) into it, i <= j, in increasing order, their float64 raw
        values, the cache version and the hyperparameter hash; equal
        contents give equal bytes.
        """
        if solved_only:
            codes = np.concatenate([np.empty(0, np.int64), *self._solved])
            values = self._held(codes)
        else:
            known = np.flatnonzero(~np.isnan(self._self))
            cross, held = self._cross.items()
            codes = np.concatenate([known << 32 | known, cross])
            values = np.concatenate([self._self[known], held])
        lo, hi = codes >> 32, codes & _LOW
        used, inverse = np.unique(np.concatenate([lo, hi]), return_inverse=True)
        order = np.argsort(self._ranks()[used])
        names = np.array([self._keys[k] for k in used[order].tolist()], dtype=str)
        i, j = np.sort(np.argsort(order).astype(np.int32)[inverse].reshape(2, -1), axis=0)
        rows = np.lexsort((j, i))
        buf = io.BytesIO()
        np.savez(
            buf,
            keys=names,
            pairs=np.stack([i[rows], j[rows]], axis=1),
            values=values[rows],
            version=np.int64(_CACHE_VERSION),
            params=np.str_(self.params.content_hash()),
        )
        return len(codes), buf.getvalue()

    def save_cache(self, path: str) -> int:
        """Write every raw value held as one cache segment at exactly
        ``path``; returns the row count."""
        rows, data = self.segment()
        write_atomic(path, data)
        return rows

    def load_cache(self, path: str) -> int:
        """Load one cache segment; returns its row count.

        ValueError, naming the file, if the segment was written under other
        hyperparameters or another version, holds a value that is not a
        finite positive number or an index outside its key table, its key
        table or rows are not strictly increasing, rows in (i, j) with
        i <= j, or it holds a pair already held with another value. Then
        nothing is loaded. A pair held with the same value is skipped: two
        commands may both solve it.
        """

        def bad(problem: str) -> ValueError:
            return ValueError(f"kernel cache {path!r} {problem}")

        try:
            with np.load(path, allow_pickle=False) as data:
                keys, pairs, values, version, params = (
                    data[name] for name in ("keys", "pairs", "values", "version", "params")
                )
        except (KeyError, ValueError, zipfile.BadZipFile) as exc:
            raise bad(f"is not a kernel cache segment ({exc})") from exc
        if version.tolist() != _CACHE_VERSION or str(params) != self.params.content_hash():
            raise bad("does not match current hyperparameters/version")
        n = len(values)
        if (
            keys.ndim != 1 or keys.dtype.kind != "U" or not (keys[1:] > keys[:-1]).all()
            or pairs.shape != (n, 2) or pairs.dtype != np.int32
            or values.shape != (n,) or values.dtype != np.float64
        ):
            raise bad("does not hold a strictly increasing key table, (n, 2) int32 "
                      "pairs and n float64 values")
        i, j = pairs.T.astype(np.int64)
        for ok, problem in (
            (np.isfinite(values) & (values > 0.0), "value {!r} is not a finite positive number"),
            (((pairs >= 0) & (pairs < len(keys))).all(axis=1), "index outside its key table"),
            ((i <= j) & (np.diff(i << 32 | j, prepend=-1) > 0),
             "rows are not strictly increasing in (i, j) with i <= j"),
        ):
            if not ok.all():
                k = int(np.argmin(ok))
                raise bad(f"row {k}: " + problem.format(float(values[k])))
        # a pair can already be held only if both its keys are registered
        names = keys.tolist()
        index = np.fromiter(map(self._index.get, names, repeat(-1)), np.int64, len(names))
        a, b = index[i], index[j]
        both = (a >= 0) & (b >= 0)
        held = np.full(n, np.nan)
        held[both] = self._held(np.minimum(a, b)[both] << 32 | np.maximum(a, b)[both])
        clash = ~np.isnan(held) & (held != values)
        if clash.any():
            k = int(np.argmax(clash))
            raise bad(f"row {k}: value {float(values[k])!r} differs from the value "
                      f"{float(held[k])!r} already held")
        new = np.isnan(held)
        unknown = np.flatnonzero(index < 0)
        index[unknown] = self._intern([names[k] for k in unknown.tolist()])
        a, b = index[i[new]], index[j[new]]
        self._store(np.minimum(a, b) << 32 | np.maximum(a, b), values[new], looked=False)
        return n
