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

The system is solved by conjugate gradient in each graph's eigenbasis,
the fast diagonalisation of Lynch, Rice & Thomas (Numer. Math. 1964)
applied to the Sylvester form of random-walk kernels (Vishwanathan et
al., "Graph Kernels", JMLR 2010). Each graph factors
D^-1/2 A D^-1/2 = U diag(lam) U^T once; with V = D^-1/2 U, so that
V^T D V = I and V^T A V = diag(lam), the substitution S = V1 Y V2^T turns
the part D1 S D2 - (1-q)^2 A1 S A2 into the elementwise diagonal
1 - (1-q)^2 lam_i mu_j, and the right-hand side into the rank-one
q^2 (V1^T d1)(V2^T d2)^T. What remains is a correction formed in S space
and mapped back, V1^T (c * S) V2, with c = (1/K_v - 1) D_x >= 0. The
diagonal is also the preconditioner; it bounds the condition number by
1 + (1/delta_degree - 1)/(1 - (1-q)^2) whatever the molecule size, so a
pair takes about ten iterations.

Pairs are stacked by size class: each graph's arrays are padded once, to
its carbon count rounded up to a multiple of a small step, so pairs of
different shapes share one stack. The padding is exact. Padded rows and
columns of V are 0, and so are lam, V^T d and the degrees there; the
diagonal is 1 and the right-hand side 0 on padded entries, so the padded
rows and columns of S = V1 Y V2^T are exactly 0 and the padded entries of
Y stay exactly 0 at every iteration. Step sizes, residuals and the stop
test are per pair: a pair stops when its residual, in the norm of the
eigenbasis preconditioner, falls to ``fp_tolerance`` times that of the
right-hand side. The padded size depends only on the graph itself, so a
pair's value is bitwise independent of the pairs batched with it and of
request order.

Normalization divides by the geometric mean of the self-kernels and, when a
finite ``lambda_`` is set, damps pairs with mismatched self-kernel scale by
exp(-d^2), d = (k11 - k22)/lambda_. Where that factor is below 2^-53, half
an ulp of the unit diagonal, the entry is exactly 0: the kernel is positive
semi-definite, so k12 <= sqrt(k11 k22) and the undamped value is at most 1.
The self-kernels alone decide this, so :class:`MgkCalculator` never solves
such a pair and never stores it; only pairs in the band
|k11 - k22| <= lambda_ sqrt(53 ln 2) are solved.
"""

from __future__ import annotations

import hashlib
import io
import math
import zipfile
from dataclasses import dataclass, fields
from typing import Mapping, Sequence, TypeVar

import numpy as np

from .molspace import MolecularGraph, to_canonical_smiles

# Padded product-graph vertices (pairs x m1 x m2) per stacked solve; caps
# the working memory at about this many doubles per array.
_CHUNK_ENTRIES = 16384

# A graph of n carbons is padded to n rounded up to a multiple of this
# step, its size class; pairs are stacked by the size classes of their two
# graphs. A larger step makes fewer, larger stacks but pads more. Medians
# of 3 alternating perfbench runs (8 s each, one pinned CPU of a 2-core
# Xeon), select_c12_lazy wall_s: 0.431 s at step 1 (stacks of one shape),
# 0.380 s at 2, 0.365 s at 3, 0.371 s at 4, 0.383 s at 6; alms_c10_cold:
# 0.557 s at 1, 0.525 s at 3, 0.524 s at 4.
_SIZE_STEP = 3

_T = TypeVar("_T")

# 5: npz segments of int32 index pairs into a sorted key table, with the
# values of version 4 (stacks padded to size classes), which were CSV
# rows. Version 3 (unpadded stacks of one shape) differs by up to 8e-16
# relative, version 2 (the Jacobi-preconditioned solver) at about 1e-11.
_CACHE_VERSION = 5

# A pair of molecule indices i <= j is stored under i << 32 | j.
_LOW = (1 << 32) - 1

# Entries whose size damping exp(-d^2) is below 2^-53 are exactly 0.
_NEGLIGIBLE_D2 = 53 * math.log(2)


class KernelConvergenceError(RuntimeError):
    """A pair's solve failed to reach tolerance within the iteration cap."""


@dataclass(frozen=True)
class MgkHyperparameters:
    """Random-walk and micro-kernel parameters.

    ``q`` is the per-vertex stopping probability, ``start_weight`` the
    per-vertex starting weight (unnormalized; the normalization step absorbs
    the scale). ``delta_degree`` is the off-diagonal return of the degree
    comparator. ``delta_element`` and ``delta_bond_order`` are validated and
    hashed like the others, so config files and cache names keep their
    form, but enter no alkane value: all atoms are carbons and all bonds
    single. ``lambda_`` scales the self-kernel-mismatch damping (infinite
    disables it); an entry whose damping factor is below 2^-53 is exactly 0
    and its pair is never solved. ``fp_tolerance`` is the relative
    residual, in the norm of the eigenbasis preconditioner, at which a
    pair's solve stops, and ``fp_max_iters`` caps its conjugate-gradient
    iterations.
    """

    q: float = 0.05
    start_weight: float = 1.0
    delta_element: float = 0.3
    delta_degree: float = 0.9
    delta_bond_order: float = 0.9
    lambda_: float = math.inf
    fp_tolerance: float = 1e-10
    fp_max_iters: int = 2000

    def __post_init__(self) -> None:
        if not 0.0 < self.q < 1.0:
            raise ValueError(f"q must lie in (0,1), got {self.q}")
        if self.start_weight <= 0.0:
            raise ValueError("start_weight must be positive")
        for name in ("delta_element", "delta_degree", "delta_bond_order"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name} must lie in (0,1), got {v}")
        if not self.lambda_ > 0.0:
            raise ValueError("lambda_ must be positive (math.inf disables)")
        if not self.fp_tolerance > 0.0:
            raise ValueError("fp_tolerance must be positive")
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


class _GraphArrays:
    """Per-graph arrays reused across all pairs involving the graph.

    ``packed`` is one (m, m + 3) array, m being the size class of the n
    carbons (:func:`_size_class`), so a stack of graphs of one class is
    gathered by one ``np.stack``: columns 0..m-1 hold V = D^-1/2 U, where
    D^-1/2 A D^-1/2 = U diag(lam) U^T (degrees clamped to 1), then come
    lam, V^T d (clamped degrees) and the degrees. Rows n..m-1, and columns
    n..m-1 of V, are padding and hold 0.
    """

    __slots__ = ("n", "m", "packed")

    def __init__(self, g: MolecularGraph):
        n = len(g)
        m = _size_class(n)
        self.n = n
        self.m = m
        adjacency = np.zeros((n, n))
        for i, nb in enumerate(g.adjacency):
            adjacency[i, list(nb)] = 1.0
        degrees = np.array([len(nb) for nb in g.adjacency], dtype=float)
        clamped = np.maximum(degrees, 1.0)
        root = 1.0 / np.sqrt(clamped)
        lam, u = np.linalg.eigh(root[:, None] * adjacency * root[None, :])
        v = root[:, None] * u
        self.packed = np.zeros((m, m + 3))
        self.packed[:n, :n] = v
        self.packed[:n, m] = lam
        self.packed[:n, m + 1] = v.T @ clamped
        self.packed[:n, m + 2] = degrees


def _size_class(n: int) -> int:
    """The padded size of a graph of ``n`` carbons: ``n`` rounded up to a
    multiple of _SIZE_STEP."""
    return -(-n // _SIZE_STEP) * _SIZE_STEP


def _distinct(items: Sequence[_T]) -> tuple[list[_T], np.ndarray]:
    """Distinct items in first-seen order, and each entry's position among them."""
    first: dict[_T, int] = {}
    index = np.fromiter(
        (first.setdefault(x, len(first)) for x in items), np.intp, len(items)
    )
    return list(first), index


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-pair inner products of two (k, n1, n2) stacks."""
    return np.einsum("kij,kij->k", a, b)


def _pcg(
    v1: np.ndarray,
    v2: np.ndarray,
    c: np.ndarray,
    diag: np.ndarray,
    rhs: np.ndarray,
    p: MgkHyperparameters,
) -> np.ndarray:
    """Per-pair sums of S = V1 Y V2^T, where Y solves
    diag*Y + V1^T (c*S) V2 = rhs.

    Conjugate gradient on a (k, n1, n2) stack in the eigenbasis, with the
    diagonal as preconditioner. Step sizes, residuals and the stop test
    are per pair: a pair is finished once <r, r/diag> falls to
    fp_tolerance^2 times <rhs, rhs/diag>, and its sum, accumulated from the
    S-space directions each iteration forms anyway, is taken at that step.
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
        for _ in range(p.fp_max_iters):
            s = v1 @ d @ v2.transpose(0, 2, 1)
            s_sum = np.einsum("kij->k", s)
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
                    return out
                if 4 * remaining <= 3 * len(pending):
                    keep = pending
                    live, pending, total, stop, rz, rz_next = (
                        a[keep] for a in (live, pending, total, stop, rz, rz_next)
                    )
                    v1, v2, c, r, z, d, diag, minv = (
                        a[keep] for a in (v1, v2, c, r, z, d, diag, minv)
                    )
            d *= (rz_next / rz)[:, None, None]
            d += z
            rz = rz_next
    raise KernelConvergenceError(
        f"no convergence in {p.fp_max_iters} iterations "
        f"(q={p.q}, tolerance={p.fp_tolerance})"
    )


def _solve_pairs(
    pairs: Sequence[tuple[_GraphArrays, _GraphArrays]], p: MgkHyperparameters
) -> tuple[np.ndarray, int]:
    """Raw kernel values of graph pairs, in request order, and the number
    of stacked solves they took.

    Pairs are grouped by the size classes (m1, m2) of their graphs.
    Per-pair inputs are gathered from the stacked per-graph arrays, one
    stack of at most _CHUNK_ENTRIES padded product-graph vertices at a
    time.
    """
    groups: dict[tuple[int, int], list[int]] = {}
    for i, (a, b) in enumerate(pairs):
        groups.setdefault((a.m, b.m), []).append(i)
    scale = (1.0 - p.q) ** 2
    q2 = p.q * p.q
    sw2 = p.start_weight**2
    out = np.empty(len(pairs))
    stacks = 0
    for (m1, m2), members in groups.items():
        graphs_a, ia = _distinct([pairs[i][0] for i in members])
        graphs_b, ib = _distinct([pairs[i][1] for i in members])
        pa = np.stack([g.packed for g in graphs_a])
        pb = np.stack([g.packed for g in graphs_b])
        step = max(1, _CHUNK_ENTRIES // (m1 * m2))
        for lo in range(0, len(members), step):
            a, b = pa[ia[lo : lo + step]], pb[ib[lo : lo + step]]
            lam, vd1, da = (a[:, :, m1 + i] for i in range(3))
            mu, vd2, db = (b[:, :, m2 + i] for i in range(3))
            # c = (1/K_v - 1) D_x, formed in place; it is nonzero on some
            # padded entries, where S is exactly 0
            c = np.where(da[:, :, None] == db[:, None, :], 1.0, 1.0 / p.delta_degree)
            c -= 1.0
            c *= np.maximum(da, 1.0)[:, :, None] * np.maximum(db, 1.0)[:, None, :]
            sums = _pcg(
                np.ascontiguousarray(a[:, :, :m1]),
                np.ascontiguousarray(b[:, :, :m2]),
                c,
                1.0 - scale * lam[:, :, None] * mu[:, None, :],
                q2 * vd1[:, :, None] * vd2[:, None, :],
                p,
            )
            out[members[lo : lo + step]] = sw2 * sums
            stacks += 1
    return out, stacks


def mgk_raw(g1: MolecularGraph, g2: MolecularGraph, p: MgkHyperparameters) -> float:
    """Un-normalized marginalized graph kernel value (non-negative)."""
    return float(_solve_pairs([(_GraphArrays(g1), _GraphArrays(g2))], p)[0][0])


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
    """Normalized kernel in [0, 1]; exactly 1 for identical inputs, and 0,
    without solving the pair, where the size damping is below 2^-53."""
    if g1 is g2:
        return 1.0
    a = _GraphArrays(g1)
    b = _GraphArrays(g2)
    k11, k22 = _solve_pairs([(a, a), (b, b)], p)[0].tolist()
    if _negligible(k11, k22, p):
        return 0.0
    k12 = float(_solve_pairs([(a, b)], p)[0][0])
    return float(_normalize(k12, k11, k22, p))


class MgkCalculator:
    """Kernel evaluator over a store of raw values keyed by molecule index.

    :meth:`block` and :meth:`diag` make it the molecule-kernel provider of
    the regression and selection layers. :meth:`register` gives each
    canonical SMILES a dense index. Raw (un-normalized) self-kernels live in
    one float64 vector indexed by molecule, NaN until known, and the other
    raw values in one dict keyed by ``i << 32 | j`` of the two indices,
    i < j. A pair is solved in the order of its two canonical SMILES, so its
    value does not depend on the order of registration. The store is saved
    and loaded as cache segments (:meth:`segment`, :meth:`load_cache`).
    """

    def __init__(self, params: MgkHyperparameters):
        self.params = params
        self._index: dict[str, int] = {}
        self._keys: list[str] = []
        self._graphs: list[MolecularGraph | None] = []
        self._arrays: list[_GraphArrays | None] = []
        self._self = np.empty(0)
        self._cross: dict[int, float] = {}
        # codes of the pairs solved here, one array per solve
        self._solved: list[np.ndarray] = []
        # pairs passed to the solver, self-kernels included, and the
        # stacked solves they took
        self.pairs_solved = 0
        self.stacks_solved = 0

    # -- registry ---------------------------------------------------------

    def register(self, molecules: Sequence[MolecularGraph]) -> list[str]:
        """Record graphs under their canonical ids (:func:`to_canonical_smiles`);
        returns the id list."""
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
            self._self = np.concatenate([self._self, np.full(grow, np.nan)])
            self._graphs += [None] * grow
            self._arrays += [None] * grow
        return out

    def _arrays_for(self, i: int) -> _GraphArrays:
        if self._arrays[i] is None:
            if self._graphs[i] is None:
                raise KeyError(self._keys[i])
            self._arrays[i] = _GraphArrays(self._graphs[i])
        return self._arrays[i]

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
        ua, rows = np.unique(np.fromiter(map(index, keys_a), np.int64), return_inverse=True)
        ub, cols = np.unique(np.fromiter(map(index, keys_b), np.int64), return_inverse=True)
        both = np.union1d(ua, ub)
        missing = both[np.isnan(self._self[both])]
        if missing.size:
            self._compute_pairs(missing << 32 | missing)
        k11, k22 = self._self[ua][:, None], self._self[ub][None, :]
        ia, ib = np.nonzero(~_negligible(k11, k22, self.params))
        a, b = ua[ia], ub[ib]
        same = a == b
        codes = (np.minimum(a, b) << 32 | np.maximum(a, b))[~same].tolist()
        held = self._cross
        missing = [c for c in dict.fromkeys(codes) if c not in held]
        if missing:
            self._compute_pairs(np.array(missing, dtype=np.int64))
        k12 = np.zeros((len(ua), len(ub)))
        k12[ia[~same], ib[~same]] = np.fromiter(map(held.__getitem__, codes), float, len(codes))
        values = _normalize(k12, k11, k22, self.params)
        values[ia[same], ib[same]] = 1.0
        return values[np.ix_(rows, cols)]

    def diag(self, keys: Sequence[str]) -> np.ndarray:
        return np.ones(len(keys))

    def _compute_pairs(self, codes: np.ndarray) -> None:
        """Solve and store the raw values of the pairs with these codes,
        each in the order of its two canonical SMILES."""
        lo, hi = codes >> 32, codes & _LOW
        keys = self._keys
        pairs = [(i, j) if keys[i] <= keys[j] else (j, i) for i, j in zip(lo.tolist(), hi.tolist())]
        arrays = [(self._arrays_for(i), self._arrays_for(j)) for i, j in pairs]
        values, stacks = _solve_pairs(arrays, self.params)
        self._store(codes, values)
        self._solved.append(codes)
        self.pairs_solved += len(codes)
        self.stacks_solved += stacks

    def _store(self, codes: np.ndarray, values: np.ndarray) -> None:
        lo, hi = codes >> 32, codes & _LOW
        same = lo == hi
        self._self[lo[same]] = values[same]
        self._cross.update(zip(codes[~same].tolist(), values[~same].tolist()))

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
        else:
            known = np.flatnonzero(~np.isnan(self._self))
            cross = np.fromiter(self._cross, np.int64, len(self._cross))
            codes = np.concatenate([known << 32 | known, cross])
        lo, hi = codes >> 32, codes & _LOW
        values = self._self[lo]
        off = np.flatnonzero(lo != hi)
        values[off] = np.fromiter(map(self._cross.__getitem__, codes[off].tolist()), float)
        used, inverse = np.unique(np.concatenate([lo, hi]), return_inverse=True)
        names = np.array([self._keys[k] for k in used.tolist()], dtype=str)
        order = np.argsort(names)
        i, j = np.sort(np.argsort(order).astype(np.int32)[inverse].reshape(2, -1), axis=0)
        rows = np.lexsort((j, i))
        buf = io.BytesIO()
        np.savez(
            buf,
            keys=names[order],
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
        with open(path, "wb") as fh:
            fh.write(data)
        return rows

    def load_cache(self, path: str) -> int:
        """Load one cache segment; returns its row count.

        ValueError, naming the file, if the segment was written under other
        hyperparameters or another version, holds a value that is not a
        finite positive number or an index outside its key table, or its
        key table or rows are not strictly increasing, rows in (i, j) with
        i <= j. Then nothing is loaded.
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
        index = self._intern(keys.tolist())
        a, b = index[i], index[j]
        self._store(np.minimum(a, b) << 32 | np.maximum(a, b), values)
        return n
