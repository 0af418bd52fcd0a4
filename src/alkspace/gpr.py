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


def _cholesky_with_jitter(a: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor, escalating diagonal jitter on failure."""
    _require_finite(a, "kernel matrix of the training inputs")
    jitter = 0.0
    for attempt in range(_JITTER_RETRIES + 1):
        try:
            shifted = a if jitter == 0.0 else a + jitter * np.eye(a.shape[0])
            return np.linalg.cholesky(shifted), jitter
        except np.linalg.LinAlgError:
            jitter = _JITTER_START if jitter == 0.0 else jitter * 10.0
    raise FitError(
        f"Cholesky failed after jitter {jitter / 10.0:.1e}; "
        "likely duplicate inputs with zero noise"
    )


def _factor(
    provider: KernelProvider, keys: Sequence, noise: float
) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of the kernel block of ``keys`` plus ``noise``
    on the diagonal, and the jitter it took. The block is symmetrized first
    to guard rounding asymmetry from assembly."""
    k = provider.block(keys, keys)
    k = (k + k.T) / 2.0
    return _cholesky_with_jitter(k + noise * np.eye(len(keys)))


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
    var = _unclamped_variance(
        model.chol_factor, model.kernel_provider, model.training_keys, queries
    )
    clamped = int(np.count_nonzero(var < 0.0))
    return np.maximum(var, 0.0), clamped


def _unclamped_variance(
    chol: np.ndarray, provider: KernelProvider, keys: Sequence, queries: Sequence
) -> np.ndarray:
    """Prior variance minus what the training inputs (factor ``chol``)
    explain, at the queries; negative entries are rounding residue."""
    ksq = provider.block(keys, queries)
    _require_finite(ksq, "kernel block between training inputs and queries")
    x = _solve_triangular(chol, ksq)
    return provider.diag(queries) - np.sum(x * x, axis=0)


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
