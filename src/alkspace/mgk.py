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

Pairs of one shape are stacked, but step sizes, residuals and the stop
test are per pair: a pair stops when its residual, in the norm of the
eigenbasis preconditioner, falls to ``fp_tolerance`` times that of the
right-hand side, so its value is bitwise independent of the pairs batched
with it and of request order.

Normalization divides by the geometric mean of the self-kernels and, when a
finite ``lambda_`` is set, damps pairs with mismatched self-kernel scale.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, fields
from typing import Mapping, Sequence, TypeVar

import numpy as np

from .molspace import MolecularGraph, to_canonical_smiles

# Product-graph vertices (pairs x n1 x n2) per stacked solve; caps the
# working memory at about this many doubles per array.
_CHUNK_ENTRIES = 16384

_T = TypeVar("_T")

_CACHE_MAGIC = "alkspace-kernel-cache"
# 3: values from the eigenbasis conjugate-gradient solver, whose
# fp_tolerance is a residual in a different norm; version-2 files (the
# Jacobi-preconditioned solver) differ from them at about 1e-11.
_CACHE_VERSION = 3


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
    disables it). ``fp_tolerance`` is the relative residual, in the norm of the
    eigenbasis preconditioner, at which a pair's solve stops, and
    ``fp_max_iters`` caps its conjugate-gradient iterations.
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

    ``packed`` is one (n, n + 3) array, so a stack of graphs is gathered by
    one ``np.stack``: columns 0..n-1 hold V = D^-1/2 U, where
    D^-1/2 A D^-1/2 = U diag(lam) U^T (degrees clamped to 1), then come
    lam, V^T d (clamped degrees) and the degrees.
    """

    __slots__ = ("n", "packed")

    def __init__(self, g: MolecularGraph):
        n = len(g)
        self.n = n
        adjacency = np.zeros((n, n))
        for i, nb in enumerate(g.adjacency):
            adjacency[i, list(nb)] = 1.0
        degrees = np.array([len(nb) for nb in g.adjacency], dtype=float)
        clamped = np.maximum(degrees, 1.0)
        root = 1.0 / np.sqrt(clamped)
        lam, u = np.linalg.eigh(root[:, None] * adjacency * root[None, :])
        v = root[:, None] * u
        self.packed = np.empty((n, n + 3))
        self.packed[:, :n] = v
        self.packed[:, n] = lam
        self.packed[:, n + 1] = v.T @ clamped
        self.packed[:, n + 2] = degrees


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
) -> np.ndarray:
    """Raw kernel values of graph pairs, in request order.

    Pairs are grouped by shape (n1, n2). Per-pair inputs are gathered from
    the stacked per-graph arrays, one chunk of at most _CHUNK_ENTRIES
    product-graph vertices at a time.
    """
    groups: dict[tuple[int, int], list[int]] = {}
    for i, (a, b) in enumerate(pairs):
        groups.setdefault((a.n, b.n), []).append(i)
    scale = (1.0 - p.q) ** 2
    q2 = p.q * p.q
    sw2 = p.start_weight**2
    out = np.empty(len(pairs))
    for (n1, n2), members in groups.items():
        graphs_a, ia = _distinct([pairs[i][0] for i in members])
        graphs_b, ib = _distinct([pairs[i][1] for i in members])
        pa = np.stack([g.packed for g in graphs_a])
        pb = np.stack([g.packed for g in graphs_b])
        step = max(1, _CHUNK_ENTRIES // (n1 * n2))
        for lo in range(0, len(members), step):
            a, b = pa[ia[lo : lo + step]], pb[ib[lo : lo + step]]
            lam, vd1, da = (a[:, :, n1 + i] for i in range(3))
            mu, vd2, db = (b[:, :, n2 + i] for i in range(3))
            # c = (1/K_v - 1) D_x, formed in place
            c = np.where(da[:, :, None] == db[:, None, :], 1.0, 1.0 / p.delta_degree)
            c -= 1.0
            c *= np.maximum(da, 1.0)[:, :, None] * np.maximum(db, 1.0)[:, None, :]
            sums = _pcg(
                np.ascontiguousarray(a[:, :, :n1]),
                np.ascontiguousarray(b[:, :, :n2]),
                c,
                1.0 - scale * lam[:, :, None] * mu[:, None, :],
                q2 * vd1[:, :, None] * vd2[:, None, :],
                p,
            )
            out[members[lo : lo + step]] = sw2 * sums
    return out


def mgk_raw(g1: MolecularGraph, g2: MolecularGraph, p: MgkHyperparameters) -> float:
    """Un-normalized marginalized graph kernel value (non-negative)."""
    return float(_solve_pairs([(_GraphArrays(g1), _GraphArrays(g2))], p)[0])


def _normalize(k12, k11, k22, p: MgkHyperparameters):
    """Normalized values from raw ones; scalars or broadcastable arrays."""
    out = k12 / np.sqrt(k11 * k22)
    if math.isfinite(p.lambda_):
        d = (k11 - k22) / p.lambda_
        out = out * np.exp(-(d * d))
    return out


def mgk_normalized(
    g1: MolecularGraph, g2: MolecularGraph, p: MgkHyperparameters
) -> float:
    """Normalized kernel in [0, 1]; exactly 1 for identical inputs."""
    if g1 is g2:
        return 1.0
    a = _GraphArrays(g1)
    b = _GraphArrays(g2)
    k12, k11, k22 = _solve_pairs([(a, b), (a, a), (b, b)], p).tolist()
    return float(_normalize(k12, k11, k22, p))


@dataclass(frozen=True)
class KernelMatrix:
    """Dense block of normalized kernel values with molecule-id axes.

    Square same-key matrices are validated to be symmetric (1e-12) with a
    unit diagonal (1e-10); they can serve directly as a kernel provider for
    the regression and active-learning layers via :meth:`block` and
    :meth:`diag`.
    """

    values: np.ndarray
    keys_a: tuple[str, ...]
    keys_b: tuple[str, ...]

    def __post_init__(self) -> None:
        v = self.values
        if v.shape != (len(self.keys_a), len(self.keys_b)):
            raise ValueError(
                f"value shape {v.shape} does not match key counts "
                f"({len(self.keys_a)}, {len(self.keys_b)})"
            )
        object.__setattr__(self, "_ia", {k: i for i, k in enumerate(self.keys_a)})
        object.__setattr__(self, "_ib", {k: i for i, k in enumerate(self.keys_b)})
        if self.keys_a == self.keys_b and len(self.keys_a) > 0:
            asym = float(np.max(np.abs(v - v.T)))
            if asym > 1e-12:
                raise ValueError(f"square kernel matrix asymmetric by {asym:.3e}")
            diag_err = float(np.max(np.abs(np.diag(v) - 1.0)))
            if diag_err > 1e-10:
                raise ValueError(f"diagonal deviates from 1 by {diag_err:.3e}")

    @property
    def is_square(self) -> bool:
        return self.keys_a == self.keys_b

    def loc(self, key_a: str, key_b: str) -> float:
        return float(self.values[self._ia[key_a], self._ib[key_b]])  # type: ignore[attr-defined]

    def block(self, keys_a: Sequence[str], keys_b: Sequence[str]) -> np.ndarray:
        ia = self._ia  # type: ignore[attr-defined]
        ib = self._ib  # type: ignore[attr-defined]
        rows = np.fromiter((ia[k] for k in keys_a), dtype=np.intp, count=len(keys_a))
        cols = np.fromiter((ib[k] for k in keys_b), dtype=np.intp, count=len(keys_b))
        return self.values[np.ix_(rows, cols)]

    def diag(self, keys: Sequence[str]) -> np.ndarray:
        if not self.is_square:
            raise ValueError("diag requires a square same-key matrix")
        ia = self._ia  # type: ignore[attr-defined]
        idx = np.fromiter((ia[k] for k in keys), dtype=np.intp, count=len(keys))
        return self.values[idx, idx]


class MgkCalculator:
    """Kernel evaluator with a raw-value cache keyed by canonical pair.

    The cache stores raw (un-normalized) values under unordered canonical
    SMILES pairs, including self-kernels, so normalized entries are cheap to
    reassemble. Entries persist to a versioned CSV keyed by a hash of the
    hyperparameters; a file written under different parameters is rejected.

    Evaluations are pure; concurrent duplicate computation of the same pair
    is harmless because insertion is idempotent.
    """

    def __init__(self, params: MgkHyperparameters):
        self.params = params
        self._raw: dict[tuple[str, str], float] = {}
        self._graphs: dict[str, MolecularGraph] = {}
        self._arrays: dict[str, _GraphArrays] = {}

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

    def raw(self, key_a: str, key_b: str) -> float:
        pair = (key_a, key_b) if key_a <= key_b else (key_b, key_a)
        value = self._raw.get(pair)
        if value is None:
            self._compute_pairs([pair])
            value = self._raw[pair]
        return value

    def normalized(self, key_a: str, key_b: str) -> float:
        if key_a == key_b:
            return 1.0
        k12 = self.raw(key_a, key_b)
        k11 = self.raw(key_a, key_a)
        k22 = self.raw(key_b, key_b)
        return float(_normalize(k12, k11, k22, self.params))

    def block(self, keys_a: Sequence[str], keys_b: Sequence[str]) -> np.ndarray:
        """Normalized kernel block; computes missing raw values in batch.

        Values are normalized once per distinct pair of keys and then
        expanded to the requested rows and columns.
        """
        ua, rows = _distinct(keys_a)
        ub, cols = _distinct(keys_b)
        pairs = [(ka, kb) if ka <= kb else (kb, ka) for ka in ua for kb in ub]
        raw = self._raw
        wanted = dict.fromkeys([*pairs, *((k, k) for k in ua), *((k, k) for k in ub)])
        missing = [pair for pair in wanted if pair not in raw]
        if missing:
            self._compute_pairs(missing)
        k12 = np.fromiter(map(raw.__getitem__, pairs), float, len(pairs))
        k11 = np.array([raw[(k, k)] for k in ua])
        k22 = np.array([raw[(k, k)] for k in ub])
        values = _normalize(
            k12.reshape(len(ua), len(ub)), k11[:, None], k22[None, :], self.params
        )
        col = {k: j for j, k in enumerate(ub)}
        for i, k in enumerate(ua):
            if k in col:
                values[i, col[k]] = 1.0
        return values[np.ix_(rows, cols)]

    def diag(self, keys: Sequence[str]) -> np.ndarray:
        return np.ones(len(keys))

    def matrix(
        self,
        molecules_a: Sequence[MolecularGraph],
        molecules_b: Sequence[MolecularGraph] | None = None,
    ) -> KernelMatrix:
        """Normalized kernel matrix between two molecule lists.

        With one list (or identical lists) the result is symmetrized as
        (M + M^T)/2; entries come from the unordered-pair cache so the
        correction is at rounding level.
        """
        keys_a = self.register(molecules_a)
        same = molecules_b is None
        keys_b = keys_a if same else self.register(molecules_b)
        values = self.block(keys_a, keys_b)
        if same or keys_a == keys_b:
            values = (values + values.T) / 2.0
        return KernelMatrix(values, tuple(keys_a), tuple(keys_b))

    def _compute_pairs(self, pairs: Sequence[tuple[str, str]]) -> None:
        """Solve and cache the raw values of canonical key pairs."""
        arrays = [(self._arrays_for(ka), self._arrays_for(kb)) for ka, kb in pairs]
        values = _solve_pairs(arrays, self.params)
        self._raw.update(zip(pairs, values.tolist()))

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

    def load_cache(self, path: str, *, require_match: bool = True) -> int:
        """Load a cache file; returns rows loaded.

        A file written under different hyperparameters (or an unknown
        version) raises ValueError when ``require_match`` is set, and is
        silently skipped (returns 0) otherwise. A row without exactly three
        columns, or whose value is not a finite positive number, raises
        ValueError naming the file and line, and loads nothing.
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
                if require_match:
                    raise ValueError(
                        f"kernel cache {path!r} does not match current "
                        "hyperparameters/version"
                    )
                return 0
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


def kernel_matrix(
    molecules_a: Sequence[MolecularGraph],
    molecules_b: Sequence[MolecularGraph] | None,
    p: MgkHyperparameters,
) -> KernelMatrix:
    """One-shot normalized kernel matrix (throwaway cache)."""
    return MgkCalculator(p).matrix(molecules_a, molecules_b)
