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
such a pair and never caches it; only pairs in the band
|k11 - k22| <= lambda_ sqrt(53 ln 2) are solved.
"""

from __future__ import annotations

import csv
import hashlib
import math
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

_CACHE_MAGIC = "alkspace-kernel-cache"
# 4: values from stacks padded to size classes; the padding reorders the
# floating-point sums, so values of version 3 (unpadded stacks of one
# shape) differ by up to 8e-16 relative. Version-2 files (the
# Jacobi-preconditioned solver) differ at about 1e-11.
_CACHE_VERSION = 4

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
            "q": self.q,
            "start_weight": self.start_weight,
            "delta_element": self.delta_element,
            "delta_degree": self.delta_degree,
            "delta_bond_order": self.delta_bond_order,
            "lambda": None if math.isinf(self.lambda_) else self.lambda_,
            "fp_tolerance": self.fp_tolerance,
            "fp_max_iters": self.fp_max_iters,
        }
        return out

    def content_hash(self) -> str:
        parts = [
            repr(float(getattr(self, n)))
            for n in (
                "q",
                "start_weight",
                "delta_element",
                "delta_degree",
                "delta_bond_order",
                "lambda_",
                "fp_tolerance",
            )
        ]
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
    """Kernel evaluator with a raw-value cache keyed by canonical pair.

    :meth:`block` and :meth:`diag` make it the molecule-kernel provider of
    the regression and selection layers. The cache stores raw
    (un-normalized) values under unordered canonical SMILES pairs,
    including self-kernels, so normalized entries are cheap to reassemble.
    Entries persist to a versioned CSV keyed by a hash of the
    hyperparameters; a file written under different parameters is rejected.

    Evaluations are pure; concurrent duplicate computation of the same pair
    is harmless because insertion is idempotent.
    """

    def __init__(self, params: MgkHyperparameters):
        self.params = params
        self._raw: dict[tuple[str, str], float] = {}
        self._graphs: dict[str, MolecularGraph] = {}
        self._arrays: dict[str, _GraphArrays] = {}
        # pairs passed to the solver, self-kernels included, and the
        # stacked solves they took
        self.pairs_solved = 0
        self.stacks_solved = 0

    # -- registry ---------------------------------------------------------

    def register(self, molecules: Sequence[MolecularGraph]) -> list[str]:
        """Record graphs under their canonical ids (:func:`to_canonical_smiles`);
        returns the id list."""
        ids = []
        for g in molecules:
            key = str(to_canonical_smiles(g))
            self._graphs.setdefault(key, g)
            ids.append(key)
        return ids

    def _arrays_for(self, key: str) -> _GraphArrays:
        arr = self._arrays.get(key)
        if arr is None:
            arr = _GraphArrays(self._graphs[key])
            self._arrays[key] = arr
        return arr

    # -- evaluation -------------------------------------------------------

    def block(self, keys_a: Sequence[str], keys_b: Sequence[str]) -> np.ndarray:
        """Normalized kernel block; computes missing raw values in batch.

        The missing self-kernels are solved first; of the cross pairs, only
        those whose entry is not screened to 0 (:func:`_normalize`) are read
        or solved. Values are normalized once per distinct pair of keys and
        then expanded to the requested rows and columns, so the block of a
        key list against itself is exactly symmetric with a unit diagonal.
        """
        ua, rows = _distinct(keys_a)
        ub, cols = _distinct(keys_b)
        raw = self._raw
        missing = [(k, k) for k in dict.fromkeys([*ua, *ub]) if (k, k) not in raw]
        if missing:
            self._compute_pairs(missing)
        k11 = np.array([raw[(k, k)] for k in ua])[:, None]
        k22 = np.array([raw[(k, k)] for k in ub])[None, :]
        ia, ib = np.nonzero(~_negligible(k11, k22, self.params))
        near_a = map(ua.__getitem__, ia.tolist())
        near_b = map(ub.__getitem__, ib.tolist())
        pairs = [(ka, kb) if ka <= kb else (kb, ka) for ka, kb in zip(near_a, near_b)]
        missing = [pair for pair in dict.fromkeys(pairs) if pair not in raw]
        if missing:
            self._compute_pairs(missing)
        k12 = np.zeros((len(ua), len(ub)))
        k12[ia, ib] = np.fromiter(map(raw.__getitem__, pairs), float, len(pairs))
        values = _normalize(k12, k11, k22, self.params)
        col = {k: j for j, k in enumerate(ub)}
        for i, k in enumerate(ua):
            if k in col:
                values[i, col[k]] = 1.0
        return values[np.ix_(rows, cols)]

    def diag(self, keys: Sequence[str]) -> np.ndarray:
        return np.ones(len(keys))

    def _compute_pairs(self, pairs: Sequence[tuple[str, str]]) -> None:
        """Solve and cache the raw values of canonical key pairs."""
        arrays = [(self._arrays_for(ka), self._arrays_for(kb)) for ka, kb in pairs]
        values, stacks = _solve_pairs(arrays, self.params)
        self._raw.update(zip(pairs, values.tolist()))
        self.pairs_solved += len(pairs)
        self.stacks_solved += stacks

    # -- persistence ------------------------------------------------------

    @property
    def cached_pairs(self) -> int:
        """How many raw pair values are held, solved here or loaded."""
        return len(self._raw)

    def save_cache(self, path: str) -> int:
        """Write cached raw values as CSV; returns the row count."""
        rows = sorted(self._raw.items())
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([_CACHE_MAGIC, str(_CACHE_VERSION), self.params.content_hash()])
            writer.writerow(["key_a", "key_b", "value"])
            for (ka, kb), value in rows:
                writer.writerow([ka, kb, repr(value)])
        return len(rows)

    def load_cache(self, path: str) -> int:
        """Load a cache file; returns rows loaded.

        A file written under different hyperparameters (or an unknown
        version) raises ValueError. So does a row without exactly three
        columns, or whose value is not a finite positive number, naming the
        file and line; either way nothing is loaded.
        """
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if (
                header is None
                or len(header) != 3
                or header[0] != _CACHE_MAGIC
                or header[1] != str(_CACHE_VERSION)
                or header[2] != self.params.content_hash()
            ):
                raise ValueError(
                    f"kernel cache {path!r} does not match current "
                    "hyperparameters/version"
                )
            next(reader, None)  # column header

            def bad_row(problem: str) -> ValueError:
                return ValueError(f"kernel cache {path!r} line {reader.line_num}: {problem}")

            rows: dict[tuple[str, str], float] = {}
            for row in reader:
                if len(row) != 3:
                    raise bad_row(f"expected 3 columns, got {len(row)}")
                ka, kb, text = row
                try:
                    value = float(text)
                except ValueError:
                    value = math.nan
                if not (math.isfinite(value) and value > 0.0):
                    raise bad_row(f"value {text!r} is not a finite positive number")
                rows[(ka, kb)] = value
        self._raw.update(rows)
        return len(rows)

