"""Regression-layer tests.

Closed forms are recomputed in the tests with plain numpy linear solves,
independent of the Cholesky path used by the implementation.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alkspace import gpr
from alkspace.gpr import (
    FitError,
    Rows,
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


def test_factor_is_bitwise_that_of_the_symmetrized_shifted_block():
    """(K + K^T) / 2 + noise I, and jitter on its diagonal, formed in one
    array give the factor of the same matrix formed term by term."""
    rng = np.random.default_rng(5)
    x = rng.uniform(-3, 3, size=40)
    k = RBF.block(x, x) + rng.normal(scale=1e-15, size=(40, 40))
    chol, jitter = gpr._factor(k, 1e-3)
    want = np.linalg.cholesky((k + k.T) / 2.0 + 1e-3 * np.eye(40))
    assert jitter == 0.0 and chol.tobytes() == want.tobytes()
    twice = np.vstack([k[:20], k[:20]])[:, :20]
    twice = np.hstack([twice, twice])
    chol, jitter = gpr._factor(twice, 0.0)
    shifted = (twice + twice.T) / 2.0 + 0.0 * np.eye(40)
    want = np.linalg.cholesky(shifted + jitter * np.eye(40))
    assert jitter > 0.0 and chol.tobytes() == want.tobytes()


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


def _rows(keys) -> Rows:
    """The rows of a list of (molecule, temperature) tuples, the list form
    that is the tests' oracle, molecules in order of first appearance."""
    molecules = list(dict.fromkeys(m for m, _ in keys))
    index = {m: i for i, m in enumerate(molecules)}
    return Rows(molecules, [index[m] for m, _ in keys], [t for _, t in keys])


def _tuples(rows: Rows) -> list:
    """The (molecule, temperature) tuples of ``rows``."""
    of_row = rows.molecule.tolist()
    return [(rows.molecules[i], t) for i, t in zip(of_row, rows.temperature.tolist())]


_INDEX = st.one_of(
    st.builds(slice, st.none() | st.integers(-12, 12), st.none() | st.integers(-12, 12),
              st.none() | st.integers(1, 3) | st.integers(-3, -1)),
    st.lists(st.integers(0, 9), max_size=12),
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from("abcde"), st.sampled_from([250.0, 300.0, -0.0, 1e3])),
             max_size=10),
    _INDEX,
)
def test_rows_taken_by_index_are_the_tuples_taken_by_index(keys, index):
    """``rows[index]`` for a slice or positions holds the tuples the list
    gives, over exactly the molecules they name, in the order of their
    indices in ``rows``."""
    rows = _rows(keys)
    assert len(rows) == len(keys) and _tuples(rows) == keys
    if isinstance(index, list):
        index = [i for i in index if i < len(keys)]
        want = [keys[i] for i in index]
    else:
        want = keys[index]
    got = rows[index]
    assert len(got) == len(want) and _tuples(got) == want
    assert got.molecule.dtype == np.int64 and got.temperature.dtype == np.float64
    named = {m for m, _ in want}
    assert got.molecules == tuple(m for m in rows.molecules if m in named)


def test_rows_need_one_molecule_index_per_temperature():
    with pytest.raises(ValueError, match="one molecule index per temperature"):
        Rows(("a",), [0, 0], [300.0])


class TwoMoleculeProvider:
    """Fixed 2x2 molecule kernel keyed by 'a'/'b'."""

    K = {("a", "a"): 1.0, ("a", "b"): 0.6, ("b", "a"): 0.6, ("b", "b"): 1.0}

    def block(self, keys_a, keys_b):
        return np.array([[self.K[(x, y)] for y in keys_b] for x in keys_a])


def test_temperature_product_kernel_formula():
    kern = TemperatureProductKernel(TwoMoleculeProvider(), length_scale=50.0)
    keys = _rows([("a", 300.0), ("b", 350.0)])
    block = kern.block(keys, keys)
    want_offdiag = 0.6 * np.exp(-(50.0**2) / (2 * 50.0**2))
    assert block[0, 0] == pytest.approx(1.0)
    assert block[0, 1] == pytest.approx(want_offdiag, rel=1e-12)
    assert block[1, 0] == pytest.approx(want_offdiag, rel=1e-12)
    # the unit diagonal gpr relies on: the molecule kernel's 1.0 times exp(0)
    assert np.array_equal(np.diag(block), np.ones(2))


@pytest.mark.parametrize("entries", [1, 7, 40, 1 << 14])
def test_temperature_product_kernel_in_row_blocks_is_the_whole_product(monkeypatch, entries):
    """The factor formed a few rows at a time into the molecule block gives
    bitwise the product of the molecule block and the whole factor."""
    monkeypatch.setattr(gpr, "_FACTOR_ENTRIES", entries)
    mols = RbfProvider(length_scale=2.0)
    kern = TemperatureProductKernel(mols, length_scale=30.0)
    rng = np.random.default_rng(3)
    keys_a = [(float(m), float(t)) for m, t in zip(rng.uniform(0, 5, 23), rng.uniform(250, 400, 23))]
    keys_b = [(float(m), float(t)) for m, t in zip(rng.uniform(0, 5, 9), rng.uniform(250, 400, 9))]
    t_a = np.array([t for _, t in keys_a])[:, None]
    t_b = np.array([t for _, t in keys_b])[None, :]
    factor = np.exp(-((t_a - t_b) ** 2) / (2.0 * 30.0**2))
    want = mols.block([m for m, _ in keys_a], [m for m, _ in keys_b]) * factor
    assert kern.block(_rows(keys_a), _rows(keys_b)).tobytes() == want.tobytes()


def test_temperature_kernel_reduces_to_molecule_kernel_at_equal_t():
    kern = TemperatureProductKernel(TwoMoleculeProvider(), length_scale=10.0)
    block = kern.block(_rows([("a", 300.0)]), _rows([("b", 300.0)]))
    assert block[0, 0] == pytest.approx(0.6, rel=1e-12)


class RequestLog(RbfProvider):
    """An RbfProvider that records the key lists of every request."""

    def __init__(self, length_scale: float):
        super().__init__(length_scale)
        self.requests = []

    def block(self, keys_a, keys_b):
        self.requests.append((list(keys_a), list(keys_b)))
        return super().block(keys_a, keys_b)


@pytest.mark.parametrize("molecules, rows", [(1, 1), (2, 3), (7, 5), (100, 100)])
def test_the_mean_by_molecule_is_bitwise_the_same_in_any_chunks(monkeypatch, molecules, rows):
    """K(queries, keys) @ weights by molecule: whole, one query row at a
    time and in chunks of ``molecules`` query molecules and ``rows`` query
    rows give the same bits, one molecule request per chunk, and those of
    the row blocks. The 6 training molecules' rows interleave (two
    molecules have 7, four have 6), and two query molecules are training
    molecules."""
    kern = TemperatureProductKernel(RequestLog(length_scale=2.0), length_scale=30.0)
    rng = np.random.default_rng(5)
    train_mols = rng.uniform(0, 5, 6).tolist()
    keys = _rows(
        [(train_mols[i % 6], t) for i, t in enumerate(rng.uniform(250, 400, 38).tolist())]
    )
    query_mols = rng.uniform(0, 5, 9).tolist() + train_mols[:2]
    queries = _rows(
        [(query_mols[i % 11], t) for i, t in enumerate(rng.uniform(250, 400, 50).tolist())]
    )
    weights = rng.normal(size=(len(keys), 3))
    whole = kern.dot(queries, keys, weights)
    alone = np.concatenate([kern.dot(queries[[i]], keys, weights) for i in range(50)])
    monkeypatch.setattr(gpr, "_PREDICT_ENTRIES", molecules * 6)
    monkeypatch.setattr(gpr, "_FACTOR_ENTRIES", rows * len(keys))
    kern.molecule_provider.requests.clear()
    chunked = kern.dot(queries, keys, weights)
    assert whole.shape == (50, 3)
    assert whole.tobytes() == alone.tobytes() == chunked.tobytes()
    requests = kern.molecule_provider.requests
    assert len(requests) == math.ceil(11 / molecules)
    assert [m for a, _ in requests for m in a] == query_mols  # each molecule once
    assert all(b == train_mols for _, b in requests)
    assert whole.tobytes() == gpr._mean_by_rows(kern, queries, keys, weights).tobytes()
    assert kern.dot(_rows([]), keys, weights).shape == (0, 3)


@st.composite
def product_fits(draw):
    """Training rows of up to 5 molecules in shuffled order, targets, and
    queries on molecules drawn from a pool that holds the training ones."""
    pool = [0.0, 0.4, 1.1, 1.5, 2.6, 3.0, 4.2]
    temperature = st.floats(200.0, 400.0)
    train_mols = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5, unique=True))
    keys = [(m, draw(temperature)) for m in train_mols
            for _ in range(draw(st.integers(1, 5)))]
    keys = _rows([keys[i] for i in draw(st.permutations(range(len(keys))))])
    targets = draw(st.integers(1, 3))
    y = np.array(draw(st.lists(st.floats(-50.0, 50.0), min_size=len(keys) * targets,
                               max_size=len(keys) * targets))).reshape(len(keys), targets)
    queries = _rows(draw(st.lists(st.tuples(st.sampled_from(pool), temperature), max_size=12)))
    return keys, y, queries, draw(st.floats(2.0, 200.0))


@settings(max_examples=60, deadline=None)
@given(product_fits())
def test_the_mean_by_molecule_matches_the_row_blocks(fit_case):
    keys, y, queries, ell = fit_case
    kern = TemperatureProductKernel(RbfProvider(length_scale=1.5), length_scale=ell)
    model = fit(keys, y, noise=1e-2, kernel_provider=kern)
    weights = model.dual_weights
    want = gpr._mean_by_rows(kern, queries, model.training_keys, weights)
    got = kern.dot(queries, model.training_keys, weights)
    assert got.tobytes() == want.tobytes()
    # predict_mean is that product, de-standardized
    mean = model.predict_mean(queries)
    assert mean.tobytes() == (model.y_mean + model.y_std * want).tobytes()


def test_composite_config_validation():
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            TemperatureProductKernel(TwoMoleculeProvider(), length_scale=bad)
    kern = TemperatureProductKernel(TwoMoleculeProvider(), length_scale=25.0)
    assert kern.length_scale == 25.0


# -- incremental Cholesky -------------------------------------------------------


def test_prediction_memory_is_set_by_the_block_budget():
    """20,000 query rows against 288 training rows, 18 molecules at 16
    temperatures: the whole cross block takes 46 MB, and unblocked the
    traced peak is 133 MB for the mean and 221 MB for the variance. In
    blocks of 2 MB it stays under 16 MB."""
    kern = TemperatureProductKernel(RbfProvider(length_scale=3.0), length_scale=50.0)
    grid = [250.0 + 10.0 * t for t in range(16)]
    train = _rows([(float(m), t) for m in range(18) for t in grid])
    rng = np.random.default_rng(0)
    model = fit(train, rng.normal(size=(len(train), 3)), noise=1e-2, kernel_provider=kern)
    queries = _rows([(m / 70.0, grid[i % 16]) for i, m in enumerate(range(20_000))])
    for predict in (model.predict_mean, model.predict_variance):
        tracemalloc.start()
        try:
            predict(queries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, predict.__name__


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
