"""Marginalized graph kernel between molecular graphs.

Similarity is the expected weight of simultaneous random walks on both
graphs: each walk starts on every vertex (weight ``start_weight``), stops at
a vertex with probability ``q``, or hops to a uniformly chosen neighbour.
Matched vertices and bonds are scored by Kronecker-delta micro-kernels. The
infinite walk-length sum is the fixed point of

    R(v,v') = q^2 + sum_{u in N(v)} sum_{u' in N(v')}
              p_t(u|v) p_t(u'|v') K_v(u,u') K_e(e_vu, e_v'u') R(u,u')

with p_t(u|v) = (1-q)/degree(v), and the raw kernel is
sum_{v,v'} start_weight^2 K_v(v,v') R(v,v').

Writing S = K_v * R (elementwise) and multiplying through by the degrees
turns the fixed point into one symmetric positive-definite system on the
product graph,

    (D_x / K_v) * S - (1-q)^2 sum_t w_t A1_t S A2_t = q^2 D_x,

with D_x = d1 d2^T (degrees clamped to at least 1, so an isolated vertex
gives R = q^2) and A the 0/1 adjacency matrices. The bond kernel
K_e = delta + (1-delta)[o1 = o2] enters as weights: delta A1 S A2 plus one
(1-delta) A1^o S A2^o term per bond order o the graphs share, which for
alkanes (all single bonds) is the single product A1 S A2. The raw kernel
is start_weight^2 sum(S).

The system is solved by Jacobi-preconditioned conjugate gradient, as in
the CG methods for random-walk kernels (Vishwanathan et al., "Graph
Kernels", JMLR 2010) and GraphDot's solver (Tang & de Jong, J. Chem. Phys.
2019). Pairs of one shape are stacked, but step sizes, residuals and the
stop test are per pair: a pair stops when its preconditioned residual
falls to ``fp_tolerance`` times that of the right-hand side, so its value
is bitwise independent of the pairs batched with it and of request order.

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

from .molspace import Atom, Bond, GraphError, MolecularGraph, to_canonical_smiles

# Product-graph vertices (pairs x n1 x n2) per stacked solve; caps the
# working memory at about this many doubles per array.
_CHUNK_ENTRIES = 16384

_T = TypeVar("_T")

_CACHE_MAGIC = "alkspace-kernel-cache"
# 2: values from the conjugate-gradient solver, whose fp_tolerance is a
# relative residual; files written by the earlier fixed-point solver differ.
_CACHE_VERSION = 2


class KernelConvergenceError(RuntimeError):
    """A pair's solve failed to reach tolerance within the iteration cap."""


@dataclass(frozen=True)
class MgkHyperparameters:
    """Random-walk and micro-kernel parameters.

    ``q`` is the per-vertex stopping probability, ``start_weight`` the
    per-vertex starting weight (unnormalized; the normalization step absorbs
    the scale). The ``delta_*`` values are the off-diagonal returns of the
    Kronecker-delta comparators for element, heavy degree and bond order.
    ``lambda_`` scales the self-kernel-mismatch damping (infinite disables
    it). ``fp_tolerance`` is the relative residual at which a pair's solve
    stops, and ``fp_max_iters`` caps its conjugate-gradient iterations.
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


def vertex_kernel(a: Atom, b: Atom, p: MgkHyperparameters) -> float:
    """Product of per-feature deltas over (element, heavy_degree)."""
    out = 1.0
    if a.element != b.element:
        out *= p.delta_element
    if a.heavy_degree != b.heavy_degree:
        out *= p.delta_degree
    return out


def edge_kernel(e1: Bond, e2: Bond, p: MgkHyperparameters) -> float:
    """Delta comparator on bond order."""
    return 1.0 if e1.order == e2.order else p.delta_bond_order


class _GraphArrays:
    """Per-graph arrays reused across all pairs involving the graph."""

    __slots__ = ("n", "elements", "degrees", "orders", "adjacency")

    def __init__(self, g: MolecularGraph):
        n = len(g.vertices)
        if n == 0:
            raise GraphError("kernel requires a non-empty graph")
        self.n = n
        self.elements = np.array([a.element for a in g.vertices], dtype="U4")
        self.degrees = np.array([len(nb) for nb in g.adjacency], dtype=np.int64)
        self.orders = tuple(sorted({b.order for b in g.edges}))
        # 0/1 adjacency over all bonds (key None) and over each bond order
        self.adjacency = {o: np.zeros((n, n)) for o in (None, *self.orders)}
        for b in g.edges:
            i, j = b.endpoints
            for o in (None, b.order):
                self.adjacency[o][i, j] = self.adjacency[o][j, i] = 1.0


def _edge_terms(
    orders_a: tuple[int, ...], orders_b: tuple[int, ...], delta: float
) -> list[tuple[float, int | None]]:
    """Weighted adjacency products that make up the bond kernel.

    k_e = delta + (1-delta)[o1 = o2] is delta over all bond pairs plus
    (1-delta) over the pairs of each shared order; each term names the
    order both adjacencies are restricted to (None: all bonds). Two graphs
    of one common order need only the unit-weight product of full
    adjacencies.
    """
    if not orders_a or not orders_b:
        return []
    if len(orders_a) == 1 and orders_a == orders_b:
        return [(1.0, None)]
    return [(delta, None)] + [(1.0 - delta, o) for o in orders_a if o in orders_b]


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
    left: list[np.ndarray],
    right: list[np.ndarray],
    diag: np.ndarray,
    rhs: np.ndarray,
    p: MgkHyperparameters,
) -> np.ndarray:
    """Per-pair sums of S solving diag*S - sum_t left_t S right_t = rhs.

    Jacobi-preconditioned conjugate gradient on a (k, n1, n2) stack. Step
    sizes, residuals and the stop test are per pair: a pair is finished
    once <r, r/diag> falls to fp_tolerance^2 times <rhs, rhs/diag>, and its
    sum is taken at that step. Finished pairs leave the stack once they
    are a quarter of it; until then their slices run on without touching
    the others, so no pair's result depends on its companions.
    """
    k = len(rhs)
    out = np.empty(k)
    live = np.arange(k)
    pending = np.ones(k, dtype=bool)
    total = np.zeros(k)
    minv = 1.0 / diag
    r = rhs.copy()
    z = minv * r
    d = z.copy()
    ad = np.empty_like(d)
    rz = _dot(r, z)
    stop = p.fp_tolerance**2 * rz
    # a finished slice that reaches an exact zero residual divides 0 by 0
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(p.fp_max_iters):
            np.multiply(diag, d, out=ad)
            for lt, rt in zip(left, right):
                ad -= lt @ d @ rt
            alpha = rz / _dot(d, ad)
            total += alpha * np.einsum("kij->k", d)
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
                    r, z, d, diag, minv = (a[keep] for a in (r, z, d, diag, minv))
                    ad = np.empty_like(d)
                    left = [a[keep] for a in left]
                    right = [a[keep] for a in right]
            d *= (rz_next / rz)[:, None, None]
            d += z
            rz = rz_next
    raise KernelConvergenceError(
        f"no convergence in {p.fp_max_iters} iterations "
        f"(q={p.q}, tolerance={p.fp_tolerance})"
    )


def _solve_group(
    pairs: Sequence[tuple[_GraphArrays, _GraphArrays]],
    terms: list[tuple[float, int | None]],
    p: MgkHyperparameters,
) -> np.ndarray:
    """Raw values of same-shape pairs sharing one list of bond terms.

    Per-pair inputs are gathered from per-graph tables, one chunk of at
    most _CHUNK_ENTRIES product-graph vertices at a time.
    """
    graphs_a, ia = _distinct([a for a, _ in pairs])
    graphs_b, ib = _distinct([b for _, b in pairs])
    n1, n2 = graphs_a[0].n, graphs_b[0].n
    ea = np.stack([g.elements for g in graphs_a])
    eb = np.stack([g.elements for g in graphs_b])
    da = np.stack([g.degrees for g in graphs_a])
    db = np.stack([g.degrees for g in graphs_b])
    fa = np.maximum(da, 1).astype(float)
    fb = np.maximum(db, 1).astype(float)
    scale = (1.0 - p.q) ** 2
    left = [scale * w * np.stack([g.adjacency[o] for g in graphs_a]) for w, o in terms]
    right = [np.stack([g.adjacency[o] for g in graphs_b]) for _, o in terms]
    q2 = p.q * p.q
    sw2 = p.start_weight**2
    step = max(1, _CHUNK_ENTRIES // (n1 * n2))
    out = np.empty(len(pairs))
    for lo in range(0, len(pairs), step):
        xa, xb = ia[lo : lo + step], ib[lo : lo + step]
        kv = np.where(ea[xa][:, :, None] == eb[xb][:, None, :], 1.0, p.delta_element)
        kv *= np.where(da[xa][:, :, None] == db[xb][:, None, :], 1.0, p.delta_degree)
        dx = fa[xa][:, :, None] * fb[xb][:, None, :]
        sums = _pcg(
            [a[xa] for a in left], [b[xb] for b in right], dx / kv, q2 * dx, p
        )
        out[lo : lo + step] = sw2 * sums
    return out


def _solve_pairs(
    pairs: Sequence[tuple[_GraphArrays, _GraphArrays]], p: MgkHyperparameters
) -> np.ndarray:
    """Raw kernel values of graph pairs, in request order."""
    groups: dict[tuple, list[int]] = {}
    for i, (a, b) in enumerate(pairs):
        groups.setdefault((a.n, b.n, a.orders, b.orders), []).append(i)
    out = np.empty(len(pairs))
    for (_, _, orders_a, orders_b), members in groups.items():
        terms = _edge_terms(orders_a, orders_b, p.delta_bond_order)
        out[members] = _solve_group([pairs[i] for i in members], terms, p)
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
        """Record graphs under their canonical ids; returns the id list.

        The id is :func:`to_canonical_smiles`, so only alkane trees can be
        registered; other graphs raise :class:`GraphError` rather than share
        an id with the alkane of the same skeleton.
        """
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
