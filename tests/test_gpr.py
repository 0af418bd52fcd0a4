"""Regression-layer tests.

Closed forms are recomputed in the tests with plain numpy linear solves,
independent of the Cholesky path used by the implementation.
"""

import numpy as np
import pytest

from alkspace import gpr
from alkspace.gpr import (
    FitError,
    TemperatureProductKernel,
    extend_cholesky,
    fit,
)


class RbfProvider:
    """Scalar RBF kernel over float keys; unit prior diagonal."""

    def __init__(self, length_scale: float = 1.0):
        self.ell = length_scale

    def _arr(self, keys):
        return np.array([float(k) for k in keys])

    def block(self, keys_a, keys_b):
        xa = self._arr(keys_a)
        xb = self._arr(keys_b)
        d = xa[:, None] - xb[None, :]
        return np.exp(-(d * d) / (2.0 * self.ell**2))

    def diag(self, keys):
        return np.ones(len(keys))


RBF = RbfProvider()


def test_single_point_fit_predicts_its_target_everywhere():
    # one target standardizes to zero, so the posterior mean is flat
    model = fit([0.0], [3.7], noise=0.0, kernel_provider=RBF)
    got = model.predict_mean([0.0, 0.5, 50.0])
    assert got == pytest.approx([3.7, 3.7, 3.7], abs=1e-12)


def test_zero_noise_interpolation():
    x = [-2.0, -0.5, 0.3, 1.1, 2.4]
    y = [0.1, -1.2, 3.3, 0.0, 2.2]
    model = fit(x, y, noise=0.0, kernel_provider=RBF)
    assert model.predict_mean(x) == pytest.approx(y, abs=1e-6)


def test_mean_matches_direct_linear_solve():
    rng = np.random.default_rng(0)
    x = list(rng.uniform(-3, 3, size=8))
    y = rng.normal(size=8)
    noise = 0.01
    model = fit(x, y, noise=noise, kernel_provider=RBF)

    k = RBF.block(x, x)
    ys = (y - y.mean()) / y.std()
    alpha = np.linalg.solve(k + noise * np.eye(8), ys)
    queries = list(rng.uniform(-3, 3, size=5))
    want = y.mean() + y.std() * (RBF.block(queries, x) @ alpha)
    assert model.predict_mean(queries) == pytest.approx(want, abs=1e-10)


def test_single_training_point_variance_closed_form():
    s, noise = 0.4, 0.05
    model = fit([s], [1.0], noise=noise, kernel_provider=RBF)
    queries = [-1.0, 0.0, 0.4, 2.0]
    got = model.predict_variance(queries)
    for q, v in zip(queries, got):
        ksq = float(RBF.block([q], [s])[0, 0])
        want = 1.0 - ksq * ksq / (1.0 + noise)
        assert v == pytest.approx(want, abs=1e-10)


def test_prior_reversion_far_from_training_data():
    model = fit([0.0, 1.0], [5.0, 7.0], noise=1e-4, kernel_provider=RBF)
    mean = model.predict_mean([500.0])
    var = model.predict_variance([500.0])
    assert mean[0] == pytest.approx(6.0, abs=1e-9)  # the target mean
    assert var[0] == pytest.approx(1.0, abs=1e-12)  # the unit prior


def test_variance_bounded_by_unit_prior():
    rng = np.random.default_rng(1)
    x = list(rng.uniform(-4, 4, size=12))
    model = fit(x, rng.normal(size=12), noise=1e-3, kernel_provider=RBF)
    var = model.predict_variance(list(rng.uniform(-6, 6, size=40)))
    assert np.all(var >= 0.0)
    assert np.all(var <= 1.0 + 1e-12)


def test_variance_monotone_in_training_set_growth():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        x_small = list(rng.uniform(-3, 3, size=n))
        extra = list(rng.uniform(-3, 3, size=int(rng.integers(1, 5))))
        noise = float(rng.uniform(1e-6, 1e-2))
        queries = list(rng.uniform(-4, 4, size=10))
        small = fit(x_small, np.zeros(n), noise=noise, kernel_provider=RBF)
        big = fit(
            x_small + extra,
            np.zeros(n + len(extra)),
            noise=noise,
            kernel_provider=RBF,
        )
        v_small = small.predict_variance(queries)
        v_big = big.predict_variance(queries)
        assert np.all(v_big <= v_small + 1e-8)


def test_variance_is_bitwise_independent_of_targets():
    rng = np.random.default_rng(3)
    x = list(rng.uniform(-3, 3, size=9))
    queries = list(rng.uniform(-3, 3, size=7))
    m1 = fit(x, rng.normal(size=9), noise=1e-3, kernel_provider=RBF)
    m2 = fit(x, 100.0 + 50.0 * rng.normal(size=9), noise=1e-3, kernel_provider=RBF)
    assert np.array_equal(m1.predict_variance(queries), m2.predict_variance(queries))


def test_duplicate_inputs_with_zero_noise_fall_back_to_jitter():
    model = fit([1.0, 1.0], [2.0, 2.0], noise=0.0, kernel_provider=RBF)
    assert model.jitter > 0.0
    assert model.predict_mean([1.0])[0] == pytest.approx(2.0, abs=1e-5)


def test_affine_equivariance_of_predictions():
    rng = np.random.default_rng(4)
    x = list(rng.uniform(-2, 2, size=10))
    y = rng.normal(size=10)
    queries = list(rng.uniform(-2, 2, size=6))
    base = fit(x, y, noise=1e-3, kernel_provider=RBF).predict_mean(queries)
    scaled = fit(x, 3.0 * y - 11.0, noise=1e-3, kernel_provider=RBF).predict_mean(queries)
    assert scaled == pytest.approx(3.0 * base - 11.0, abs=1e-9)


def test_multi_target_matches_per_target_fits():
    rng = np.random.default_rng(5)
    x = list(rng.uniform(-2, 2, size=8))
    y = rng.normal(size=(8, 3))
    queries = list(rng.uniform(-2, 2, size=5))
    joint = fit(x, y, noise=1e-3, kernel_provider=RBF)
    got = joint.predict_mean(queries)
    assert got.shape == (5, 3)
    for j in range(3):
        solo = fit(x, y[:, j], noise=1e-3, kernel_provider=RBF)
        assert got[:, j] == pytest.approx(solo.predict_mean(queries), abs=1e-12)
    # variance has no target dimension
    assert joint.predict_variance(queries).shape == (5,)


def test_constant_targets_are_handled():
    model = fit([0.0, 1.0, 2.0], [4.0, 4.0, 4.0], noise=1e-3, kernel_provider=RBF)
    assert model.predict_mean([0.5])[0] == pytest.approx(4.0, abs=1e-9)


def test_empty_queries():
    model = fit([0.0, 1.0], [1.0, 2.0], noise=1e-3, kernel_provider=RBF)
    assert model.predict_mean([]).shape == (0,)
    assert model.predict_variance([]).shape == (0,)
    multi = fit([0.0, 1.0], [[1.0, 2.0], [3.0, 4.0]], noise=1e-3, kernel_provider=RBF)
    assert multi.predict_mean([]).shape == (0, 2)


def test_fit_input_validation():
    with pytest.raises(ValueError):
        fit([], [], noise=1e-3, kernel_provider=RBF)
    with pytest.raises(ValueError):
        fit([0.0, 1.0], [1.0], noise=1e-3, kernel_provider=RBF)
    with pytest.raises(ValueError):
        fit([0.0], [1.0], noise=-1.0, kernel_provider=RBF)


class PoisonedProvider(RbfProvider):
    """RBF provider whose entries between ``bad`` and any other key are
    ``value``."""

    def __init__(self, bad: float, value: float):
        super().__init__()
        self.bad = bad
        self.value = value

    def block(self, keys_a, keys_b):
        k = super().block(keys_a, keys_b)
        hit_a = self._arr(keys_a)[:, None] == self.bad
        hit_b = self._arr(keys_b)[None, :] == self.bad
        k[hit_a != hit_b] = self.value
        return k


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_fit_rejects_non_finite_targets(value):
    with pytest.raises(ValueError, match="targets"):
        fit([0.0, 1.0, 2.0], [1.0, value, 2.0], noise=1e-3, kernel_provider=RBF)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_fit_rejects_a_non_finite_kernel_block(value):
    provider = PoisonedProvider(bad=1.0, value=value)
    with pytest.raises(ValueError, match="kernel matrix of the training inputs"):
        fit([0.0, 1.0, 2.0], [1.0, 3.0, 2.0], noise=1e-3, kernel_provider=provider)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_predict_variance_rejects_a_non_finite_cross_block(value):
    provider = PoisonedProvider(bad=1.5, value=value)
    model = fit([0.0, 1.0, 2.0], [1.0, 3.0, 2.0], noise=1e-3, kernel_provider=provider)
    assert np.isfinite(model.predict_variance([0.5, 3.0])).all()
    with pytest.raises(ValueError, match="kernel block between training inputs and queries"):
        model.predict_variance([0.5, 1.5])


# -- composite kernel over (molecule, temperature) -----------------------------


class TwoMoleculeProvider:
    """Fixed 2x2 molecule kernel keyed by 'a'/'b'."""

    K = {("a", "a"): 1.0, ("a", "b"): 0.6, ("b", "a"): 0.6, ("b", "b"): 1.0}

    def block(self, keys_a, keys_b):
        return np.array([[self.K[(x, y)] for y in keys_b] for x in keys_a])

    def diag(self, keys):
        return np.ones(len(keys))


def test_temperature_product_kernel_formula():
    kern = TemperatureProductKernel(TwoMoleculeProvider(), length_scale=50.0)
    keys = [("a", 300.0), ("b", 350.0)]
    block = kern.block(keys, keys)
    want_offdiag = 0.6 * np.exp(-(50.0**2) / (2 * 50.0**2))
    assert block[0, 0] == pytest.approx(1.0)
    assert block[0, 1] == pytest.approx(want_offdiag, rel=1e-12)
    assert block[1, 0] == pytest.approx(want_offdiag, rel=1e-12)
    assert np.array_equal(kern.diag(keys), np.ones(2))


def test_temperature_kernel_reduces_to_molecule_kernel_at_equal_t():
    kern = TemperatureProductKernel(TwoMoleculeProvider(), length_scale=10.0)
    block = kern.block([("a", 300.0)], [("b", 300.0)])
    assert block[0, 0] == pytest.approx(0.6, rel=1e-12)


def test_composite_config_validation():
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            TemperatureProductKernel(TwoMoleculeProvider(), length_scale=bad)
    kern = TemperatureProductKernel(TwoMoleculeProvider(), length_scale=25.0)
    assert kern.length_scale == 25.0


# -- incremental Cholesky -------------------------------------------------------


def test_extend_cholesky_matches_full_factorization():
    rng = np.random.default_rng(6)
    base = rng.normal(size=(6, 6))
    a = base @ base.T + 6 * np.eye(6)
    chol = np.linalg.cholesky(a[:5, :5])
    grown = extend_cholesky(chol, a[:5, 5], float(a[5, 5]))
    assert grown == pytest.approx(np.linalg.cholesky(a), abs=1e-10)


def test_extend_cholesky_rejects_non_positive_schur():
    chol = np.linalg.cholesky(np.eye(2))
    with pytest.raises(FitError):
        extend_cholesky(chol, np.array([1.0, 0.0]), 0.5)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_extend_cholesky_rejects_a_non_finite_cross_vector(value):
    chol = np.linalg.cholesky(np.eye(2))
    with pytest.raises(ValueError, match="cross-covariance vector"):
        extend_cholesky(chol, np.array([0.1, value]), 1.0)


def _spd(n: int, seed: int) -> np.ndarray:
    """Well-conditioned SPD matrix: eigenvalues roughly in [1, 5]."""
    m = np.random.default_rng(seed).normal(size=(n, n))
    return m @ m.T / n + np.eye(n)


def test_extend_cholesky_grown_across_a_solve_block_matches_full_factorization():
    start, steps = gpr._SOLVE_BLOCK - 2, 5
    a = _spd(start + steps, seed=11)
    chol = np.linalg.cholesky(a[:start, :start])
    for n in range(start, start + steps):
        chol = extend_cholesky(chol, a[:n, n], float(a[n, n]))
    assert np.abs(chol - np.linalg.cholesky(a)).max() <= 1e-12


# -- blocked triangular solve -------------------------------------------------------

B = gpr._SOLVE_BLOCK


@pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 2 * B + 7])
@pytest.mark.parametrize("columns", [(), (1,), (5,)], ids=["vector", "one-column", "matrix"])
@pytest.mark.parametrize("lower", [True, False], ids=["lower", "upper"])
def test_blocked_triangular_solve(n, columns, lower):
    chol = np.linalg.cholesky(_spd(n, seed=n))
    t = chol if lower else chol.T
    b = np.random.default_rng(n + 1).normal(size=(n, *columns))
    x = gpr._solve_triangular(t, b, lower=lower)
    assert x.shape == b.shape
    # residual oracle: normwise backward error at rounding level
    residual = np.abs(t @ x - b).max()
    scale = np.abs(t).sum(axis=1).max() * np.abs(x).max() + np.abs(b).max()
    assert residual <= 1e-14 * scale
    want = np.linalg.solve(t, b)
    assert np.abs(x - want).max() <= 1e-12 * np.abs(want).max()
