"""Exact Gaussian-process regression over kernel providers.

A kernel provider is any object with ``block(keys_a, keys_b) -> ndarray``
evaluating a positive-semidefinite kernel with a unit diagonal on key
sequences, so every key's prior variance is 1. ``block`` returns a new
float64 array that the caller owns and may overwrite: no later block of
the provider may read it. The molecule-kernel provider is
:class:`alkspace.mgk.MgkCalculator`, keyed by canonical SMILES;
:class:`TemperatureProductKernel` pairs it with a squared-exponential
factor in temperature for property regression on :class:`Rows`, the one
record of (molecule, temperature) rows.

:func:`fit` returns a :class:`GprModel`, whose :meth:`~GprModel.predict_mean`
and :meth:`~GprModel.predict_variance` are the predictors. The variance is
one forward substitution per block of queries against the training
factor, which the active-learning layer advances row block by row block
(:func:`_forward`).

Targets are standardized to zero mean and unit variance per column before
fitting, so the posterior variance lives on the unit-prior scale regardless
of target units. Variance depends on inputs only, never on target values,
which is what lets the active-learning layer rank candidates before any
property data exists.

The variance reads its queries in row blocks of at most
``_PREDICT_ENTRIES`` query x training entries, one provider request per
block, so its working memory is set by that budget, not by the number
of queries: predicting all 251,728 C4..C19 alkanes on their 16-point
grids against 1,040 training rows would otherwise hold a 34 GB block.
The mean over a :class:`TemperatureProductKernel` requests the molecule
kernel a chunk of query molecules at a time
(:meth:`TemperatureProductKernel.dot`), over any other provider it reads
row blocks; either way each query row's kernel entries are dotted with
the weights by one formula (:func:`_row_dots`), so a prediction is
bitwise the same alone, in any chunk and beside any other queries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

# Jitter escalation: first retry adds 1e-10 to the diagonal, each further
# retry multiplies by 10, giving up after five retries (1e-6).
_JITTER_START = 1e-10
_JITTER_RETRIES = 5

# Triangular solves run np.linalg.solve on diagonal blocks of at most this
# many rows and one matmul per block for the rest, so they cost O(n^2 m);
# np.linalg.solve on the whole factor would LU-factor it in O(n^3). The LU
# of each diagonal block is wasted work on a triangle, which a small block
# keeps small: on one CPU, for n from 288 to 5000 with 3 right-hand sides,
# 64 was within 10% of the best of 32, 64, 128 and 256, and 256 up to 5x
# slower.
_SOLVE_BLOCK = 64

# A variance pass with a cut reads row blocks of this length, then each as
# long as all the rows before it (8, 8, 16, 32, ...): about log2(n / 8) + 1
# requests, and a query reads at most twice the rows that drop it, plus 8.
# Stacks, not pairs, set the solver time of small requests, so this keeps
# the stacks down where active learning samples subsets. Pairs solved /
# stacks of three-stage library selections with an MgkCalculator, each
# candidate's rows carried across steps and stages (seed 1; seeds 1 and 7
# for batch 100):
#                      C4..C12       C4..C12, batch 100           C4..C14
#   no bound           9,181 / 120   9,877 / 258, 10,733 / 254    63,697 / 721
#   fixed blocks of 4  5,162 / 147   5,188 / 520,  5,683 / 516    28,891 / 925
#   doubling from 4    5,207 / 134   5,424 / 497,  5,769 / 422    30,804 / 788
#   doubling from 8    5,207 / 126   5,711 / 403,  5,941 / 371    31,061 / 701
_ROW_BLOCK = 8

# The variance, and the mean over a provider other than the product kernel,
# read their queries in row blocks of at most this many query x training
# entries (2 MB of float64 per array); the mean over the product kernel
# requests the molecule kernel in chunks of at most this many query x
# training molecule entries. Smaller blocks cost one more provider request
# each, about 0.3 ms for the molecule kernel.
_PREDICT_ENTRIES = 1 << 18

# The temperature factor of the product kernel, and the rows of the mean
# over it, are formed in row blocks of at most this many query x training
# entries.
_FACTOR_ENTRIES = 1 << 14


class FitError(RuntimeError):
    """Kernel factorization failed even with maximal jitter."""


class KernelProvider(Protocol):
    def block(self, keys_a: Sequence, keys_b: Sequence) -> np.ndarray: ...


@dataclass(frozen=True, eq=False)
class Rows:
    """Rows of (molecule, temperature): the distinct ``molecules``, each
    named by a row, and per row the int64 index of its ``molecule`` and its
    float64 ``temperature``. ``rows[index]``, for a slice or positions,
    gives those rows over only the molecules they name, in their order.
    """

    molecules: tuple
    molecule: np.ndarray
    temperature: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "molecules", tuple(self.molecules))
        object.__setattr__(self, "molecule", np.asarray(self.molecule, np.int64))
        object.__setattr__(self, "temperature", np.asarray(self.temperature, float))
        if self.molecule.ndim != 1 or self.molecule.shape != self.temperature.shape:
            raise ValueError("need one molecule index per temperature")

    def __len__(self) -> int:
        return len(self.molecule)

    def __getitem__(self, index: slice | Sequence[int] | np.ndarray) -> Rows:
        named, molecule = np.unique(self.molecule[index], return_inverse=True)
        molecules = tuple(map(self.molecules.__getitem__, named.tolist()))
        return Rows(molecules, molecule, self.temperature[index])


class TemperatureProductKernel:
    """Provider over :class:`Rows`.

    k((m,T), (m',T')) = k_mol(m, m') * exp(-(T-T')^2 / (2 l^2)). The factor
    is 1 on the diagonal, so the composite kernel keeps the unit prior of
    the normalized molecule kernel. Its blocks are requested by molecule,
    not by row; :meth:`dot` gives a block times weights from molecule
    blocks, without the row x row block.
    """

    def __init__(self, molecule_provider: KernelProvider, length_scale: float):
        if not length_scale > 0:
            raise ValueError("length_scale must be positive")
        self.molecule_provider = molecule_provider
        self.length_scale = length_scale

    def block(self, a: Rows, b: Rows) -> np.ndarray:
        # the rows gathered from the molecule block are a new array: scale
        # it in place, a few rows at a time
        k = self.molecule_provider.block(a.molecules, b.molecules)
        k = k[np.ix_(a.molecule, b.molecule)]
        t_a, t_b = a.temperature, b.temperature
        scale = 2.0 * self.length_scale**2
        for i0, i1 in _blocks(len(t_a), _FACTOR_ENTRIES // max(len(t_b), 1)):
            factor = _temperature_factor(t_a[i0:i1, None], t_b[None, :], scale)
            np.multiply(k[i0:i1], factor, out=k[i0:i1])
        return k

    def dot(self, queries: Rows, keys: Rows, weights: np.ndarray) -> np.ndarray:
        """``block(queries, keys) @ weights`` for non-empty ``keys`` and
        (len(keys), m) ``weights``, with no query x key block.

        The molecule kernel is requested once per chunk of at most
        ``_PREDICT_ENTRIES // len(keys.molecules)`` query molecules. The
        rows of a chunk are formed from its block ``_FACTOR_ENTRIES``
        entries at a time, the entries :meth:`block` forms, and dotted with
        the weights by :func:`_row_dots`: bitwise :func:`_mean_by_rows`.
        """
        columns = [np.ascontiguousarray(w) for w in np.asarray(weights, dtype=float).T]
        query_of, t_q = queries.molecule, queries.temperature
        key_of, t_k = keys.molecule, keys.temperature
        # the query rows grouped by molecule, so a chunk of molecules is a run
        by_mol = np.argsort(query_of, kind="stable")
        sorted_of = query_of[by_mol]
        scale = 2.0 * self.length_scale**2
        out = np.empty((len(t_q), len(columns)))
        for c0, c1 in _blocks(len(queries.molecules), _PREDICT_ENTRIES // len(keys.molecules)):
            k_mol = self.molecule_provider.block(queries.molecules[c0:c1], keys.molecules)
            chunk = by_mol[np.searchsorted(sorted_of, c0):np.searchsorted(sorted_of, c1)]
            for r0, r1 in _blocks(len(chunk), _FACTOR_ENTRIES // len(t_k)):
                rows = chunk[r0:r1]
                k = k_mol[np.ix_(query_of[rows] - c0, key_of)]
                k *= _temperature_factor(t_q[rows, None], t_k[None, :], scale)
                out[rows] = _row_dots(k, columns)
        return out


def _temperature_factor(t_a: np.ndarray, t_b: np.ndarray, scale: float) -> np.ndarray:
    """exp(-(t_a - t_b)^2 / scale), ``t_a`` and ``t_b`` broadcast against
    each other, formed in place."""
    w = t_a - t_b
    np.multiply(w, w, out=w)
    np.negative(w, out=w)
    np.divide(w, scale, out=w)
    return np.exp(w, out=w)


def _require_finite(a: np.ndarray, what: str) -> np.ndarray:
    """``a`` itself; ValueError naming ``what`` if it holds NaN or inf."""
    finite = np.isfinite(a)
    if not finite.all():
        bad = finite.size - np.count_nonzero(finite)
        raise ValueError(f"{what} has {bad} non-finite values")
    return a


def _solve_triangular(t: np.ndarray, b: np.ndarray, lower: bool = True) -> np.ndarray:
    """Solve ``t x = b`` for a lower (or upper) triangular ``t`` by blocked
    substitution; ``b`` may be a vector or a matrix of right-hand sides.

    The other triangle of ``t`` must hold zeros, as a Cholesky factor's
    does: the diagonal blocks are solved whole.
    """
    n = t.shape[0]
    x = np.array(b, dtype=float)
    blocks = [(i, min(i + _SOLVE_BLOCK, n)) for i in range(0, n, _SOLVE_BLOCK)]
    for i0, i1 in blocks if lower else reversed(blocks):
        done = slice(0, i0) if lower else slice(i1, n)
        x[i0:i1] -= t[i0:i1, done] @ x[done]
        x[i0:i1] = np.linalg.solve(t[i0:i1, i0:i1], x[i0:i1])
    return x


def _blocks(n: int, rows: int) -> list[tuple[int, int]]:
    """The row blocks [i0, i1) of ``rows`` rows, at least one, that cover
    ``n`` rows in order."""
    rows = max(rows, 1)
    return [(i0, min(i0 + rows, n)) for i0 in range(0, n, rows)]


def _row_blocks(n: int) -> list[tuple[int, int]]:
    """The row blocks [j0, j1) that cover the first ``n`` rows of a
    factor, in order: [0, b), [b, 2b), [2b, 4b), ... for b = _ROW_BLOCK."""
    ends = [0]
    while ends[-1] < n:
        ends.append(min(max(2 * ends[-1], _ROW_BLOCK), n))
    return list(zip(ends, ends[1:]))


def _factor(k: np.ndarray, noise: float) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of the kernel block ``k`` of some inputs against
    themselves plus ``noise`` on the diagonal, and the jitter it took,
    escalated on failure. The block is symmetrized first to guard rounding
    asymmetry from assembly."""
    # (k + k^T) / 2, then noise (and jitter) on its diagonal, in one array;
    # a block made for the call is freed before the factor is made
    a = np.add(k, k.T)
    del k
    np.divide(a, 2.0, out=a)
    diagonal = a.diagonal() + noise
    np.fill_diagonal(a, diagonal)
    _require_finite(a, "kernel matrix of the training inputs")
    jitter = 0.0
    for _ in range(_JITTER_RETRIES + 1):
        try:
            return np.linalg.cholesky(a), jitter
        except np.linalg.LinAlgError:
            jitter = _JITTER_START if jitter == 0.0 else jitter * 10.0
            np.fill_diagonal(a, diagonal + jitter)
    raise FitError(
        f"Cholesky failed after jitter {jitter / 10.0:.1e}; "
        "likely duplicate inputs with zero noise"
    )


@dataclass(frozen=True)
class GprModel:
    """Fitted Gaussian process; immutable, safe for concurrent prediction.

    ``dual_weights`` solves (K + noise I) a = y_standardized column-wise.
    ``y_mean``/``y_std`` are the per-column standardization constants
    (std floored at zero is replaced by 1 so constant targets stay finite).
    ``single_target`` records whether 1-D targets were passed to fit, so
    predictions come back with the same shape.
    """

    training_keys: Rows | tuple
    chol_factor: np.ndarray
    dual_weights: np.ndarray
    noise: float
    y_mean: np.ndarray
    y_std: np.ndarray
    kernel_provider: KernelProvider
    jitter: float
    single_target: bool

    def predict_mean(self, queries: Sequence) -> np.ndarray:
        """Posterior mean at the queries, de-standardized to target units;
        each reads only its own kernel row, formed from molecule blocks over
        a :class:`TemperatureProductKernel` (:meth:`~TemperatureProductKernel.dot`),
        else read in row blocks (:func:`_mean_by_rows`), with the same bits."""
        queries = queries if isinstance(queries, Rows) else tuple(queries)
        provider = self.kernel_provider
        if isinstance(provider, TemperatureProductKernel):
            mean = provider.dot(queries, self.training_keys, self.dual_weights)
        else:
            mean = _mean_by_rows(provider, queries, self.training_keys, self.dual_weights)
        mean = self.y_mean + self.y_std * mean
        return mean[:, 0] if self.single_target else mean

    def predict_variance(self, queries: Sequence) -> np.ndarray:
        """Posterior variance on the standardized unit-prior scale; entries
        negative from finite precision are clamped to zero. Depends only on
        kernel values, never on targets."""
        queries = queries if isinstance(queries, Rows) else tuple(queries)
        keys, chol = self.training_keys, self.chol_factor
        # the unit prior less what the training inputs explain, by blocks
        var = np.ones(len(queries))
        for q0, q1 in _blocks(len(queries), _PREDICT_ENTRIES // len(keys)):
            k = self.kernel_provider.block(keys, queries[q0:q1])
            _require_finite(k, "kernel block between training inputs and queries")
            x = _solve_triangular(chol, k)
            var[q0:q1] -= np.sum(x * x, axis=0)
        return np.maximum(var, 0.0)


def _mean_by_rows(
    provider: KernelProvider, queries: Sequence, keys: Sequence, weights: np.ndarray
) -> np.ndarray:
    """``provider.block(queries, keys) @ weights``, one provider request per
    row block of at most ``_PREDICT_ENTRIES`` entries."""
    columns = [np.ascontiguousarray(w) for w in weights.T]
    out = np.empty((len(queries), len(columns)))
    for q0, q1 in _blocks(len(queries), _PREDICT_ENTRIES // len(keys)):
        out[q0:q1] = _row_dots(provider.block(queries[q0:q1], keys), columns)
    return out


def _row_dots(k: np.ndarray, columns: list[np.ndarray]) -> np.ndarray:
    """``k`` times the weight ``columns``, (rows, targets): per target a dot
    product per row, as a matrix product's rounding depends on the block's
    shape and alignment and einsum's does not, so each row's result is the
    same in any block."""
    out = np.empty((len(k), len(columns)))
    for j, w in enumerate(columns):
        out[:, j] = np.einsum("ij,j->i", k, w)
    return out


def fit(
    inputs: Sequence,
    targets: np.ndarray | Sequence,
    noise: float,
    kernel_provider: KernelProvider,
) -> GprModel:
    """Fit an exact GP with i.i.d. noise on standardized targets.

    ``inputs`` are :class:`Rows` or a sequence of keys of the provider.
    ``targets`` may be (n,) or (n, m) for m properties sharing one kernel
    factorization. ``noise`` is the variance added to the kernel diagonal,
    on the standardized scale.
    """
    keys = inputs if isinstance(inputs, Rows) else tuple(inputs)
    if len(keys) == 0:
        raise ValueError("at least one training point is required")
    if noise < 0:
        raise ValueError("noise variance must be non-negative")
    y = _require_finite(np.asarray(targets, dtype=float), "targets")
    single = y.ndim == 1
    if single:
        y = y[:, None]
    if y.shape[0] != len(keys):
        raise ValueError(f"{len(keys)} inputs but {y.shape[0]} target rows")

    y_mean = y.mean(axis=0)
    y_std = y.std(axis=0)
    y_std = np.where(y_std > 0.0, y_std, 1.0)
    ys = (y - y_mean) / y_std

    chol, jitter = _factor(kernel_provider.block(keys, keys), noise)
    alpha = _solve_triangular(chol.T, _solve_triangular(chol, ys), lower=False)
    return GprModel(
        training_keys=keys,
        chol_factor=chol,
        dual_weights=alpha,
        noise=noise,
        y_mean=y_mean,
        y_std=y_std,
        kernel_provider=kernel_provider,
        jitter=jitter,
        single_target=single,
    )


def _forward(
    chol: np.ndarray, provider: KernelProvider, keys: Sequence, queries: Sequence,
    cut: float, x: np.ndarray, known: np.ndarray, bound: np.ndarray, among: np.ndarray,
) -> None:
    """Advance in place the forward substitution against ``chol``, the factor
    of the training inputs ``keys``, of the queries at the indices ``among``.

    Query i holds its first ``known[i]`` rows in ``x[:known[i], i]`` and its
    prior minus their squares in ``bound[i]``, an upper bound on its variance
    (see :mod:`alkspace.active_learning`); only the rows it lacks are solved.
    The factor's rows are read in :func:`_row_blocks` order, and a query
    whose bound is or falls below ``cut`` is read no further. A block is one
    request, over the queries lacking rows in it, from the first row any of
    them lacks: the molecule kernel's cost goes by requests (stacked
    solves), not by entries looked up again.
    """
    n = len(keys)
    alive = among[(bound[among] >= cut) & (known[among] < n)]
    for j0, j1 in _row_blocks(n):
        need = alive[known[alive] < j1]
        if not need.size:
            continue
        starts = np.maximum(known[need], j0)
        m = int(starts.min())
        block = provider.block(keys[m:j1], [queries[i] for i in need])
        _require_finite(block, "kernel block between training inputs and queries")
        for s in sorted(set(starts.tolist())):
            cols = np.flatnonzero(starts == s)
            g = need[cols]
            k = block[s - m:, cols] - chol[s:j1, :s] @ x[:s, g]
            xs = _solve_triangular(chol[s:j1, s:j1], k)
            x[s:j1, g] = xs
            bound[g] -= np.sum(xs * xs, axis=0)
            known[g] = j1
        alive = alive[bound[alive] >= cut]


def extend_cholesky(
    chol: np.ndarray, cross: np.ndarray, new_diag: float
) -> np.ndarray:
    """Grow the lower Cholesky factor of A to that of [[A, b], [b^T, d]].

    ``cross`` is b (covariances of the new point against the existing
    ones, noise-free) and ``new_diag`` is d (prior diagonal plus noise).
    Raises FitError when the Schur complement is non-positive; callers
    fall back to a full refactorization with jitter.
    """
    n = chol.shape[0]
    cross = _require_finite(np.asarray(cross, dtype=float), "cross-covariance vector")
    w = _solve_triangular(chol, cross)
    rest = float(new_diag) - float(w @ w)
    if rest <= 0.0 or not math.isfinite(rest):
        raise FitError(f"non-positive Schur complement {rest:.3e} extending Cholesky")
    out = np.zeros((n + 1, n + 1))
    out[:n, :n] = chol
    out[n, :n] = w
    out[n, n] = math.sqrt(rest)
    return out
