"""Exact Gaussian-process regression over kernel providers.

A kernel provider is any object with ``block(keys_a, keys_b) -> ndarray``
and ``diag(keys) -> ndarray`` evaluating a positive-semidefinite kernel on
opaque hashable keys. The molecule-kernel provider is
:class:`alkspace.mgk.MgkCalculator`, keyed by canonical SMILES;
:class:`TemperatureProductKernel` pairs a molecule kernel with a
squared-exponential factor in temperature for property regression on
(molecule, temperature) keys.

Targets are standardized to zero mean and unit variance per column before
fitting, so the posterior variance lives on the unit-prior scale regardless
of target units. Variance depends on inputs only, never on target values,
which is what lets the active-learning layer rank candidates before any
property data exists.
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
# stacks of three-stage library selections with an MgkCalculator (seed 1;
# seeds 1 and 7 for batch 100):
#                      C4..C12       C4..C12, batch 100           C4..C14
#   no bound           9,181 / 131   9,877 / 258, 10,733 / 275    63,697 / 969
#   fixed blocks of 4  5,494 / 137   5,342 / 334,  5,880 / 456    31,464 / 853
#   doubling from 4    5,810 / 124   5,735 / 320,  6,231 / 390    34,297 / 774
#   doubling from 8    6,495 / 126   6,494 / 264,  6,723 / 317    35,720 / 740
# select_c12_lazy wall_s, medians of 6 rounds of 12 s perfbench runs on one
# pinned CPU of a 2-core Xeon: 0.352 s without the bound, 0.281 s doubling
# from 4, 0.286 s from 8.
_ROW_BLOCK = 8


class FitError(RuntimeError):
    """Kernel factorization failed even with maximal jitter."""


class KernelProvider(Protocol):
    def block(self, keys_a: Sequence, keys_b: Sequence) -> np.ndarray: ...

    def diag(self, keys: Sequence) -> np.ndarray: ...


class TemperatureProductKernel:
    """Provider over (molecule_id, temperature) keys.

    k((m,T), (m',T')) = k_mol(m, m') * exp(-(T-T')^2 / (2 l^2)). The factor
    is 1 on the diagonal, so the composite kernel keeps the unit prior of
    the normalized molecule kernel.
    """

    def __init__(self, molecule_provider: KernelProvider, length_scale: float):
        if not length_scale > 0:
            raise ValueError("length_scale must be positive")
        self.molecule_provider = molecule_provider
        self.length_scale = length_scale

    def _split(self, keys: Sequence) -> tuple[list, np.ndarray]:
        mols = [k[0] for k in keys]
        temps = np.array([float(k[1]) for k in keys])
        return mols, temps

    def block(self, keys_a: Sequence, keys_b: Sequence) -> np.ndarray:
        mols_a, t_a = self._split(keys_a)
        mols_b, t_b = self._split(keys_b)
        kmol = self.molecule_provider.block(mols_a, mols_b)
        # in place: one temporary instead of four on row-level blocks
        w = t_a[:, None] - t_b[None, :]
        np.multiply(w, w, out=w)
        np.negative(w, out=w)
        np.divide(w, 2.0 * self.length_scale**2, out=w)
        np.exp(w, out=w)
        return np.multiply(kmol, w, out=w)

    def diag(self, keys: Sequence) -> np.ndarray:
        mols, _ = self._split(keys)
        return self.molecule_provider.diag(mols)


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


def _row_blocks(n: int) -> list[tuple[int, int]]:
    """The row blocks [j0, j1) that cover the first ``n`` rows of a
    factor, in order: [0, b), [b, 2b), [2b, 4b), ... for b = _ROW_BLOCK."""
    ends = [0]
    while ends[-1] < n:
        ends.append(min(max(2 * ends[-1], _ROW_BLOCK), n))
    return list(zip(ends, ends[1:]))


def _factor(
    provider: KernelProvider, keys: Sequence, noise: float
) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of the kernel block of ``keys`` plus ``noise``
    on the diagonal, and the jitter it took, escalated on failure. The block
    is symmetrized first to guard rounding asymmetry from assembly."""
    k = provider.block(keys, keys)
    a = (k + k.T) / 2.0 + noise * np.eye(len(keys))
    _require_finite(a, "kernel matrix of the training inputs")
    jitter = 0.0
    for _ in range(_JITTER_RETRIES + 1):
        try:
            shifted = a if jitter == 0.0 else a + jitter * np.eye(a.shape[0])
            return np.linalg.cholesky(shifted), jitter
        except np.linalg.LinAlgError:
            jitter = _JITTER_START if jitter == 0.0 else jitter * 10.0
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

    training_keys: tuple
    chol_factor: np.ndarray
    dual_weights: np.ndarray
    noise: float
    y_mean: np.ndarray
    y_std: np.ndarray
    kernel_provider: KernelProvider
    jitter: float
    single_target: bool

    def predict_mean(self, queries: Sequence) -> np.ndarray:
        return predict_mean(self, queries)

    def predict_variance(self, queries: Sequence) -> np.ndarray:
        return predict_variance(self, queries)


def fit(
    inputs: Sequence,
    targets: np.ndarray | Sequence,
    noise: float,
    kernel_provider: KernelProvider,
) -> GprModel:
    """Fit an exact GP with i.i.d. noise on standardized targets.

    ``targets`` may be (n,) or (n, m) for m properties sharing one kernel
    factorization. ``noise`` is the variance added to the kernel diagonal,
    on the standardized scale.
    """
    keys = tuple(inputs)
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

    chol, jitter = _factor(kernel_provider, keys, noise)
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


def predict_mean(model: GprModel, queries: Sequence) -> np.ndarray:
    """Posterior mean at the queries, de-standardized to target units."""
    queries = tuple(queries)
    if len(queries) == 0:
        shape = (0,) if model.single_target else (0, model.dual_weights.shape[1])
        return np.zeros(shape)
    kqs = model.kernel_provider.block(queries, model.training_keys)
    mean = model.y_mean + model.y_std * (kqs @ model.dual_weights)
    return mean[:, 0] if model.single_target else mean


def predict_variance_with_diagnostics(
    model: GprModel, queries: Sequence
) -> tuple[np.ndarray, int]:
    """Posterior variance on the standardized unit-prior scale.

    Returns (variances, clamp_count); clamp_count is how many entries were
    negative from finite precision and clamped to zero. Depends only on
    kernel values, never on targets.
    """
    queries = tuple(queries)
    if len(queries) == 0:
        return np.zeros(0), 0
    var = _posterior_variance(
        model.chol_factor, model.kernel_provider, model.training_keys, queries,
        -math.inf,
    )
    clamped = int(np.count_nonzero(var < 0.0))
    return np.maximum(var, 0.0), clamped


def _posterior_variance(
    chol: np.ndarray, provider: KernelProvider, keys: Sequence, queries: Sequence,
    cut: float,
) -> np.ndarray:
    """Prior variance minus what the training inputs ``keys`` (factor
    ``chol``) explain, at the queries; negative entries are rounding residue.

    After each row block of the forward substitution the running value
    bounds the variance from above (see :mod:`alkspace.active_learning`).
    With a finite ``cut`` the block is read in :func:`_row_blocks` order,
    and a query below ``cut`` is read no further and keeps its bound; with
    -inf it is read in one request.
    """
    bound = np.array(provider.diag(queries), dtype=float)
    n = len(keys)
    alive = np.flatnonzero(bound >= cut)
    x = np.empty((n, len(alive)))
    for j0, j1 in _row_blocks(n) if math.isfinite(cut) else [(0, n)]:
        if not alive.size:
            break
        k = provider.block(keys[j0:j1], [queries[i] for i in alive])
        _require_finite(k, "kernel block between training inputs and queries")
        k = k - chol[j0:j1, :j0] @ x[:j0]
        x[j0:j1] = _solve_triangular(chol[j0:j1, j0:j1], k)
        bound[alive] -= np.sum(x[j0:j1] * x[j0:j1], axis=0)
        keep = bound[alive] >= cut
        if not keep.all():
            alive, x = alive[keep], x[:, keep]
    return bound


def predict_variance(model: GprModel, queries: Sequence) -> np.ndarray:
    return predict_variance_with_diagnostics(model, queries)[0]


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
