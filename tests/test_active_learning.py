"""Selection-loop tests.

Synthetic kernel providers make the geometry fully controllable; the loop
equivalence and resume tests additionally run on a real molecule kernel.
"""

import json
import math
import os
import re
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alkspace import active_learning as al
from alkspace import gpr, mgk
from alkspace.active_learning import (
    AlStallError,
    AlState,
    al_continue,
    al_init,
    al_resume,
    al_run,
    load_checkpoint,
    save_checkpoint,
)
from alkspace.mgk import MgkCalculator, MgkHyperparameters
from alkspace.molspace import enumerate_alkanes


class DictProvider:
    """Kernel provider backed by an explicit id-indexed matrix."""

    def __init__(self, ids, values):
        self.index = {m: i for i, m in enumerate(ids)}
        self.values = np.asarray(values, dtype=float)

    def block(self, keys_a, keys_b):
        ia = [self.index[k] for k in keys_a]
        ib = [self.index[k] for k in keys_b]
        return self.values[np.ix_(ia, ib)]


def identity_provider(ids):
    return DictProvider(ids, np.eye(len(ids)))


def molecule_provider(max_carbons=7, **params):
    """Ids and a dense provider over the molecule kernel of C4..C<max>."""
    calc = MgkCalculator(MgkHyperparameters(**params))
    ids = calc.register(enumerate_alkanes(4, max_carbons))
    return ids, DictProvider(ids, calc.block(ids, ids))


class _Stop(Exception):
    pass


def first_step(state, provider, noise=al.DEFAULT_AL_NOISE):
    """The state after one step of the selection engine from ``state``."""
    steps = []

    def stop(after):
        steps.append(after)
        raise _Stop

    with pytest.raises(_Stop):
        al_resume(state, provider, noise=noise, on_step=stop)
    return steps[0]


def refit_step(state, provider, noise=al.DEFAULT_AL_NOISE):
    """Oracle step: draw the working subset as documented, fit a fresh GP on
    the selected set and apply the selection rule to its variances."""
    rng = np.random.default_rng(state.seed)
    rng.bit_generator.state = state.rng_state
    subset = sorted(state.pool)
    if len(subset) > state.batch:
        picks = rng.choice(len(subset), size=state.batch, replace=False)
        subset = sorted(subset[i] for i in picks)
    model = gpr.fit(state.selected, np.zeros(len(state.selected)), noise, provider)
    variances = model.predict_variance(subset)
    vmax = variances.max()
    pick = None
    if vmax > state.threshold:
        pick = min(m for m, v in zip(subset, variances) if v == vmax)
    dropped = {m for m, v in zip(subset, variances) if v < state.threshold} - {pick}
    return replace(
        state,
        selected=state.selected + ((pick,) if pick is not None else ()),
        pool=state.pool - dropped - {pick},
        abandoned=state.abandoned | dropped,
        iteration=state.iteration + 1,
        rng_state=rng.bit_generator.state,
    )


# -- initialization -----------------------------------------------------------


def test_init_is_deterministic_and_order_free():
    ids = [f"m{i}" for i in range(10)]
    a = al_init(ids, threshold=0.5, batch=3, seed=4)
    b = al_init(list(reversed(ids)), threshold=0.5, batch=3, seed=4)
    assert a.selected == b.selected
    assert len(a.selected) == 2
    assert a.selected[0] != a.selected[1]
    assert a.universe == frozenset(ids)
    assert a.pool == frozenset(ids) - set(a.selected)
    assert not a.abandoned


def test_init_seed_changes_the_pair():
    ids = [f"m{i}" for i in range(30)]
    pairs = {al_init(ids, 0.5, 1, seed).selected for seed in range(8)}
    assert len(pairs) > 1


@pytest.mark.parametrize(
    "ids,threshold,batch",
    [
        (["a"], 0.5, 1),
        (["a", "a", "b"], 0.5, 1),
        (["a", "b"], 0.0, 1),
        (["a", "b"], 1.0001, 1),
        (["a", "b"], 0.5, 0),
    ],
)
def test_init_rejects_bad_arguments(ids, threshold, batch):
    with pytest.raises(ValueError):
        al_init(ids, threshold, batch, seed=0)


def test_state_validation():
    with pytest.raises(ValueError):
        AlState(("a", "a"), frozenset(), frozenset(), 0.5, 1, 0, 0)
    with pytest.raises(ValueError):
        AlState(("a",), frozenset({"a"}), frozenset(), 0.5, 1, 0, 0)
    with pytest.raises(ValueError):
        AlState(("a",), frozenset(), frozenset(), -0.1, 1, 0, 0)
    # degenerate thresholds outside (0,1] are expressible on raw states
    AlState(("a",), frozenset(), frozenset(), 0.0, 1, 0, 0)
    AlState(("a",), frozenset(), frozenset(), 2.0, 1, 0, 0)


# -- single steps on controlled geometry ---------------------------------------


def test_step_threshold_above_prior_abandons_everything():
    ids = [f"m{i}" for i in range(6)]
    state = AlState(
        selected=("m0", "m1"),
        pool=frozenset(ids[2:]),
        abandoned=frozenset(),
        threshold=1.5,
        batch=10,
        seed=0,
        iteration=0,
    )
    out = first_step(state, identity_provider(ids))
    assert out.selected == ("m0", "m1")
    assert not out.pool
    assert out.abandoned == frozenset(ids[2:])
    assert out.iteration == 1


def test_steps_with_tiny_threshold_select_the_whole_pool():
    ids = [f"m{i}" for i in range(6)]
    provider = identity_provider(ids)
    # orthogonal candidates keep unit variance, so every step selects one
    start = replace(al_init(ids, threshold=1.0, batch=10, seed=1), threshold=1e-9)
    steps = []
    state = al_resume(start, provider, on_step=steps.append)
    assert len(steps) == len(ids) - 2
    assert all(len(s.selected) == 3 + i for i, s in enumerate(steps))
    assert set(state.selected) == set(ids)
    assert not state.abandoned


def test_step_abandons_duplicate_kernel_rows():
    ids = ["a", "b", "c"]
    values = np.array(
        [
            [1.0, 1.0, 0.0],  # b duplicates a
            [1.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    state = AlState(
        selected=("a",),
        pool=frozenset({"b", "c"}),
        abandoned=frozenset(),
        threshold=0.4,
        batch=10,
        seed=0,
        iteration=0,
    )
    out = first_step(state, DictProvider(ids, values))
    assert out.selected == ("a", "c")
    assert out.abandoned == frozenset({"b"})
    assert not out.pool


def test_step_breaks_variance_ties_toward_smallest_id():
    ids = ["a", "b", "c"]
    state = AlState(
        selected=("c",),
        pool=frozenset({"a", "b"}),
        abandoned=frozenset(),
        threshold=0.5,
        batch=10,
        seed=0,
        iteration=0,
    )
    out = first_step(state, identity_provider(ids))
    assert out.selected == ("c", "a")


def test_stall_guard():
    ids = ["a", "b"]
    values = np.array([[1.0, 1.0], [1.0, 1.0]])
    state = AlState(
        selected=("a",),
        pool=frozenset({"b"}),
        abandoned=frozenset(),
        threshold=0.0,
        batch=1,
        seed=0,
        iteration=0,
    )
    with pytest.raises(AlStallError):
        al_resume(state, DictProvider(ids, values), noise=0.0)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("bad_is_seed", [True, False], ids=["seed", "pool"])
def test_run_rejects_a_non_finite_kernel_entry(value, bad_is_seed):
    ids = [f"m{i}" for i in range(8)]
    seeds = al_init(ids, 0.5, 4, seed=0).selected
    bad = seeds[0] if bad_is_seed else next(m for m in ids if m not in seeds)
    values = 0.3 + 0.7 * np.eye(len(ids))
    i = ids.index(bad)
    values[i, :] = values[:, i] = value
    values[i, i] = 1.0
    # a seed poisons the first factorization, a pool molecule its scoring
    match = "kernel matrix" if bad_is_seed else "kernel block between"
    with pytest.raises(ValueError, match=match):
        al_run(ids, 0.5, 4, 0, DictProvider(ids, values))


def test_step_is_transactional_on_provider_failure():
    ids = ["a", "b", "c"]

    class Boom:
        def block(self, *_):
            raise RuntimeError("provider failure")

    state = al_init(ids, threshold=0.5, batch=2, seed=0)
    snapshot = (state.selected, state.pool, state.abandoned, state.iteration)
    with pytest.raises(RuntimeError):
        al_resume(state, Boom())
    assert (state.selected, state.pool, state.abandoned, state.iteration) == snapshot


# -- full runs ------------------------------------------------------------------


def test_run_partition_invariant_every_iteration():
    ids, provider = molecule_provider(7, lambda_=0.2)
    universe = frozenset(ids)
    seen = []

    def check(state):
        seen.append(state.iteration)
        assert state.universe == universe

    final = al_run(ids, 0.5, batch=5, seed=3, kernel_provider=provider, on_step=check)
    assert final.is_terminal
    assert seen, "loop made no steps"
    assert len(final.selected) >= 2
    # every candidate ended up somewhere
    assert frozenset(final.selected) | final.abandoned == universe


def test_run_matches_manual_step_loop():
    ids, provider = molecule_provider(7, lambda_=0.2)
    run_states = []
    final = al_run(
        ids, 0.5, batch=5, seed=3, kernel_provider=provider,
        on_step=run_states.append,
    )
    state = al_init(ids, 0.5, batch=5, seed=3)
    manual = []
    while state.pool:
        state = refit_step(state, provider)
        manual.append(state)
    assert final.selected == state.selected
    assert final.abandoned == state.abandoned
    assert [s.selected for s in run_states] == [s.selected for s in manual]
    assert [s.rng_state for s in run_states] == [s.rng_state for s in manual]


def new_engine(state, provider, noise=al.DEFAULT_AL_NOISE):
    """The sorted ids of ``state`` and a selection engine started on it."""
    ids, keys = sorted(state.universe), list(state.selected)
    return ids, al._Engine(ids, keys, provider.block(keys, keys), noise)


def test_incremental_variances_match_full_refit():
    ids, provider = molecule_provider(7, lambda_=0.2)
    steps = []
    al_run(ids, 0.5, batch=6, seed=2, kernel_provider=provider, on_step=steps.append)
    state = next(s for s in steps if len(s.selected) >= 6 or not s.pool)
    assert len(state.selected) >= 4
    ids, engine = new_engine(state, provider)
    queries = np.arange(8)
    model = gpr.fit(
        state.selected, np.zeros(len(state.selected)), al.DEFAULT_AL_NOISE, provider
    )
    assert engine.variances(provider, queries, 0.0) == pytest.approx(
        model.predict_variance(ids[:8]), abs=1e-8
    )


def test_abandoned_molecules_stay_below_threshold_post_hoc():
    ids, provider = molecule_provider(7, lambda_=0.2)
    final = al_run(ids, 0.5, batch=5, seed=3, kernel_provider=provider)
    model = gpr.fit(
        final.selected,
        np.zeros(len(final.selected)),
        al.DEFAULT_AL_NOISE,
        provider,
    )
    abandoned = sorted(final.abandoned)
    if abandoned:
        variances = model.predict_variance(abandoned)
        assert np.all(variances < final.threshold)


def test_continue_produces_nested_selections():
    ids, provider = molecule_provider(7, lambda_=0.2)
    first = al_run(ids, 0.5, batch=5, seed=3, kernel_provider=provider)
    second = al_continue(first, 0.4, provider)
    third = al_continue(second, 0.3, provider)
    assert second.selected[: len(first.selected)] == first.selected
    assert third.selected[: len(second.selected)] == second.selected
    assert len(first.selected) <= len(second.selected) <= len(third.selected)
    assert second.threshold == 0.4
    assert second.universe == first.universe


@pytest.mark.parametrize("seed", [1, 1001])
def test_size_screen_leaves_selections_unchanged(seed, monkeypatch):
    # Kernel entries whose size damping is below 2^-53 are exactly 0 and
    # their pairs are never solved; the selections must be those of a
    # kernel that solves and keeps every pair.
    mols = enumerate_alkanes(4, 12)
    params = MgkHyperparameters(lambda_=0.2)

    def stages() -> tuple[list[tuple], int]:
        calc = MgkCalculator(params)
        ids = calc.register(mols)
        state = al_run(ids, 0.5, batch=1000, seed=seed, kernel_provider=calc)
        out = [state]
        for threshold in (0.4, 0.3):
            state = al_continue(state, threshold, calc)
            out.append(state)
        return [(s.selected, s.pool, s.abandoned) for s in out], calc.pairs_solved

    screened, solved = stages()
    monkeypatch.setattr(mgk, "_NEGLIGIBLE_D2", math.inf)
    unscreened, solved_unscreened = stages()
    assert unscreened == screened
    assert solved < solved_unscreened


# -- the variance bound ------------------------------------------------------------


def random_kernel(seed, n):
    """Ids and a provider over a random unit-diagonal positive-semidefinite
    kernel: a Gram matrix of low rank plus a random ridge, so variances
    spread over [0, 1]. The matrix is exactly symmetric, as a kernel's
    block of a key list against itself is."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, rng.integers(1, 7)))
    k = x @ x.T + rng.uniform(0.0, 0.5) * np.eye(n)
    k = (k + k.T) / 2.0
    d = np.sqrt(np.diag(k))
    ids = [f"m{i:02d}" for i in range(n)]
    return ids, DictProvider(ids, k / np.outer(d, d))


def loop_stages(ids, provider, batch, seed, thresholds=(0.5, 0.4, 0.3)):
    """Terminal states of a run and its continuations."""
    out = [al_run(ids, thresholds[0], batch, seed, provider)]
    for threshold in thresholds[1:]:
        out.append(al_continue(out[-1], threshold, provider))
    return out


def oracle_continue(state, threshold, provider, noise=al.DEFAULT_AL_NOISE):
    """The continuation of a terminal state at ``threshold``, stepped by
    refit_step."""
    state = replace(state, pool=state.abandoned, abandoned=frozenset(), threshold=threshold)
    while state.pool:
        state = refit_step(state, provider, noise)
    return state


def oracle_stages(ids, provider, batch, seed, thresholds=(0.5, 0.4, 0.3)):
    """The terminal states of :func:`loop_stages`, stepped by refit_step."""
    state = al_init(ids, thresholds[0], batch, seed)
    while state.pool:
        state = refit_step(state, provider)
    out = [state]
    for threshold in thresholds[1:]:
        out.append(oracle_continue(out[-1], threshold, provider))
    return out


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 14), st.floats(0.05, 0.95))
def test_the_blocked_bound_never_falls_below_the_exact_variance(seed, n_selected, threshold):
    ids, provider = random_kernel(seed, n_selected + 16)
    state = AlState(
        selected=tuple(ids[:n_selected]), pool=frozenset(ids[n_selected:]),
        abandoned=frozenset(), threshold=threshold, batch=100, seed=0, iteration=0,
    )
    _, engine = new_engine(state, provider)
    subset = np.arange(n_selected, len(ids))
    scored = engine.variances(provider, subset, threshold)
    # no variance falls below 0 - _MARGIN, so at 0 every candidate is exact
    exact = new_engine(state, provider)[1].variances(provider, subset, 0.0)
    model = gpr.fit(state.selected, np.zeros(n_selected), al.DEFAULT_AL_NOISE, provider)
    assert exact == pytest.approx(model.predict_variance(ids[n_selected:]), abs=1e-9)
    assert np.all(scored >= exact - al._MARGIN)
    # a candidate is scored exactly, or by a bound below the threshold
    bounded = scored < threshold - al._MARGIN
    assert np.all(bounded | np.isclose(scored, exact, rtol=0.0, atol=1e-12))
    pick, dropped = al._partition_subset(subset, scored, threshold)
    exact_pick, exact_dropped = al._partition_subset(subset, exact, threshold)
    assert (pick, dropped.tolist()) == (exact_pick, exact_dropped.tolist())
    # the bounded candidates carry on from their rows to the exact variance
    assert engine.variances(provider, subset, 0.0) == pytest.approx(exact, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.floats(0.05, 0.95))
def test_runs_on_random_kernels_match_the_refit_oracle(seed, batch, threshold):
    ids, provider = random_kernel(seed, 24)
    steps = []
    al_run(ids, threshold, batch, seed % 1000, provider, on_step=steps.append)
    state = al_init(ids, threshold, batch, seed % 1000)
    for got in steps:
        state = refit_step(state, provider)
        assert got == state
    assert state.is_terminal


@pytest.mark.parametrize(
    "max_carbons, batch, seed",
    [(10, 1000, 1), (10, 1000, 2), (10, 1000, 3), (10, 20, 1), (10, 20, 5),
     (12, 1000, 1), (12, 1000, 1001), (12, 100, 1), (12, 100, 7)],
)
def test_three_stages_select_what_the_refit_oracle_selects(max_carbons, batch, seed):
    calc = MgkCalculator(MgkHyperparameters(lambda_=0.2))
    ids = calc.register(enumerate_alkanes(4, max_carbons))
    assert loop_stages(ids, calc, batch, seed) == oracle_stages(ids, calc, batch, seed)


# -- the carried engine -------------------------------------------------------------


class Forwarding:
    """A provider that forwards every request to another one."""

    def __init__(self, provider):
        self.provider = provider

    def block(self, keys_a, keys_b):
        return self.provider.block(keys_a, keys_b)


# three distinct thresholds, highest first
thresholds3 = st.lists(st.floats(0.05, 0.95), min_size=3, max_size=3, unique=True).map(
    lambda ts: tuple(sorted(ts, reverse=True))
)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 30), thresholds3)
def test_carried_stages_match_the_refit_oracle(seed, batch, thresholds):
    ids, provider = random_kernel(seed, 24)
    stages = [al_run(ids, thresholds[0], batch, seed % 1000, provider)]
    engine = stages[0]._engine
    for threshold in thresholds[1:]:
        stages.append(al_continue(stages[-1], threshold, provider))
    assert stages == oracle_stages(ids, provider, batch, seed % 1000, thresholds)
    # each continuation took over the engine of the stage before
    assert stages[2]._engine is engine
    assert stages[0]._engine is stages[1]._engine is None


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 30), thresholds3)
def test_continuations_of_one_terminal_state_match_the_refit_oracle(seed, batch, thresholds):
    ids, provider = random_kernel(seed, 24)
    _, other = random_kernel(seed + 1, 24)
    high, mid, low = thresholds

    def first():
        # the benchmark's tracer wraps the provider afresh for every call
        return al_run(ids, high, batch, seed % 1000, Forwarding(provider))

    state = first()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "first.json")
        save_checkpoint(state, path)
        loaded = load_checkpoint(path)
    assert loaded._engine is None
    runs, engines = {}, {}
    for name, start, threshold, kernel, noise in [
        ("mid", state, mid, Forwarding(provider), al.DEFAULT_AL_NOISE),
        ("low", state, low, Forwarding(provider), al.DEFAULT_AL_NOISE),
        ("other kernel", first(), mid, other, al.DEFAULT_AL_NOISE),
        ("other noise", first(), mid, provider, 1e-3),
        ("checkpoint copy", loaded, mid, provider, al.DEFAULT_AL_NOISE),
    ]:
        engines[name] = start._engine
        runs[name] = al_continue(start, threshold, kernel, noise=noise)
        want = oracle_continue(state, threshold, getattr(kernel, "provider", kernel), noise)
        assert runs[name] == want, name
    assert runs["checkpoint copy"] == runs["mid"]
    # the first continuation took the engine over; the second continuation of
    # that state, another kernel or another noise start one of their own,
    # unless the first stage abandoned nothing: then no step runs, and the
    # engine is passed on as it is
    assert runs["mid"]._engine is engines["mid"] is not None
    assert engines["low"] is None
    for name in ("other kernel", "other noise"):
        assert engines[name] is not None
        assert (runs[name]._engine is engines[name]) == (not state.abandoned)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.integers(0, 12))
def test_runs_with_a_refactorized_extension_match_the_refit_oracle(seed, batch, failing):
    ids, provider = random_kernel(seed, 24)
    extend = gpr.extend_cholesky
    calls = []

    def fail_once(chol, cross, new_diag):
        calls.append(len(chol))
        if len(calls) == failing + 1:
            raise gpr.FitError("numerically singular extension")
        return extend(chol, cross, new_diag)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gpr, "extend_cholesky", fail_once)
        stages = [al_run(ids, 0.5, batch, seed % 1000, provider)]
        engines = [stages[0]._engine]
        for threshold in (0.4, 0.3):
            stages.append(al_continue(stages[-1], threshold, provider))
            engines.append(stages[-1]._engine)
    assert stages == oracle_stages(ids, provider, batch, seed % 1000)
    if len(calls) > failing:
        # the stage that refactorized hands no engine on
        stage = next(i for i, s in enumerate(stages) if len(s.selected) > calls[failing])
        assert all(engine is not engines[stage] for engine in engines[stage + 1 :])


def test_a_singular_extension_drops_every_carried_prefix_and_bound():
    ids, provider = random_kernel(3, 12)
    # m11 duplicates m00, and with zero noise S + m11 is singular
    values = provider.values
    values[11] = values[0]
    values[:, 11] = values[:, 0]
    values[0, 0] = values[11, 11] = values[0, 11] = values[11, 0] = 1.0
    state = AlState(
        selected=("m00",), pool=frozenset(ids[1:]), abandoned=frozenset(),
        threshold=0.3, batch=100, seed=0, iteration=0,
    )
    _, engine = new_engine(state, provider, noise=0.0)
    subset = np.arange(1, 12)
    engine.variances(provider, subset, 0.3)
    assert engine.known[subset].all()
    with pytest.raises(gpr.FitError):
        gpr.extend_cholesky(engine.chol, provider.block(["m00"], ["m11"])[:, 0], 1.0)
    engine.extend(provider, 11)
    assert engine.keys == ["m00", "m11"] and not engine.exact
    assert not engine.known.any() and (engine.bound == 1.0).all()
    model = gpr.fit(("m00", "m11"), np.zeros(2), 0.0, provider)
    assert model.jitter > 0.0
    assert engine.variances(provider, subset[:-1], 0.0) == pytest.approx(
        model.predict_variance(ids[1:11]), abs=1e-12
    )


def test_carrying_the_engine_solves_fewer_pairs_than_checkpoint_copies(tmp_path):
    mols = enumerate_alkanes(4, 10)
    path = str(tmp_path / "stage.json")

    def stages(through_checkpoints):
        calc = MgkCalculator(MgkHyperparameters(lambda_=0.2))
        state = al_run(calc.register(mols), 0.5, 1000, 1, calc)
        out = [state]
        for threshold in (0.4, 0.3):
            if through_checkpoints:
                save_checkpoint(state, path)
                state = load_checkpoint(path)
            state = al_continue(state, threshold, calc)
            out.append(state)
        return out, calc.pairs_solved

    carried, solved = stages(False)
    copied, solved_copied = stages(True)
    assert carried == copied
    assert solved < solved_copied


def test_the_bound_solves_fewer_pairs_for_the_same_selections(monkeypatch):
    mols = enumerate_alkanes(4, 10)

    def stages():
        calc = MgkCalculator(MgkHyperparameters(lambda_=0.2))
        ids = calc.register(mols)
        out = loop_stages(ids, calc, 1000, 1)
        return out, calc.pairs_solved, calc.pairs_requested

    bounded, solved, requested = stages()
    # no bound falls below -inf: every candidate's row is read whole
    monkeypatch.setattr(al, "_MARGIN", math.inf)
    full, solved_full, requested_full = stages()
    assert bounded == full
    assert solved < solved_full
    assert requested < requested_full


def test_a_step_reads_each_kernel_entry_once(monkeypatch):
    calc = MgkCalculator(MgkHyperparameters(lambda_=0.2))
    ids = calc.register(enumerate_alkanes(4, 10))
    requested = []

    class Counting:
        def block(self, keys_a, keys_b):
            requested.extend((a, b) for a in keys_a for b in keys_b)
            return calc.block(keys_a, keys_b)

    score = al._Engine.variances
    steps = []

    def counted(engine, provider, subset, threshold):
        requested.clear()
        out = score(engine, provider, subset, threshold)
        steps.append(list(requested))
        return out

    monkeypatch.setattr(al._Engine, "variances", counted)
    stages = loop_stages(ids, Counting(), 1000, 1)
    assert len(steps) == stages[-1].iteration
    assert all(len(set(step)) == len(step) > 0 for step in steps)
    # batch >= pool: from each stage's second step on, every candidate lacks
    # the same rows, and no step requests an entry (in either order) that an
    # earlier step of the run requested
    firsts = {0} | {stage.iteration for stage in stages[:-1]}
    earlier = set()
    for i, step in enumerate(steps):
        pairs = {frozenset(pair) for pair in step}
        assert i in firsts or earlier.isdisjoint(pairs), f"step {i} re-reads"
        earlier |= pairs


def test_row_blocks_double_after_the_first():
    b = gpr._ROW_BLOCK
    assert gpr._row_blocks(0) == []
    assert gpr._row_blocks(1) == [(0, 1)]
    assert gpr._row_blocks(5 * b) == [(0, b), (b, 2 * b), (2 * b, 4 * b), (4 * b, 5 * b)]


def test_continue_with_an_empty_pool_still_checkpoints(tmp_path):
    ids = [f"m{i}" for i in range(5)]
    state = al_run(ids, 0.1, batch=10, seed=0, kernel_provider=identity_provider(ids))
    assert set(state.selected) == set(ids) and not state.abandoned

    class Unused:
        def block(self, *_):
            raise AssertionError("an empty pool needs no kernel")

    path = str(tmp_path / "next.json")
    out = al_continue(state, 0.05, Unused(), checkpoint_path=path)
    assert out == replace(state, threshold=0.05)
    assert load_checkpoint(path) == out


def test_continue_requires_terminal_state_and_lower_threshold():
    ids, provider = molecule_provider(5)
    running = al_init(ids, 0.5, batch=3, seed=0)
    with pytest.raises(ValueError):
        al_continue(running, 0.4, provider)
    final = al_run(ids, 0.5, batch=3, seed=0, kernel_provider=provider)
    with pytest.raises(ValueError):
        al_continue(final, 0.5, provider)
    with pytest.raises(ValueError):
        al_continue(final, 0.6, provider)
    with pytest.raises(ValueError):
        al_continue(final, 0.0, provider)


# -- checkpointing ----------------------------------------------------------------


def test_checkpoint_roundtrip_preserves_everything(tmp_path):
    ids, provider = molecule_provider(6)
    state = first_step(al_init(ids, 0.5, batch=4, seed=9), provider)
    path = str(tmp_path / "state.json")
    save_checkpoint(state, path)
    loaded = load_checkpoint(path)
    assert loaded == state


def test_checkpoint_bytes_are_stable(tmp_path):
    ids, provider = molecule_provider(5)
    state = al_init(ids, 0.5, batch=4, seed=9)
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    save_checkpoint(state, p1)
    save_checkpoint(state, p2)
    with open(p1, "rb") as f1, open(p2, "rb") as f2:
        assert f1.read() == f2.read()
    assert not [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]


def test_checkpoint_version_guard(tmp_path):
    ids, _ = molecule_provider(5)
    state = al_init(ids, 0.5, batch=4, seed=9)
    path = str(tmp_path / "state.json")
    save_checkpoint(state, path)
    with open(path) as fh:
        payload = json.load(fh)
    payload["version"] = 99
    with open(path, "w") as fh:
        json.dump(payload, fh)
    with pytest.raises(ValueError):
        load_checkpoint(path)


def _without_selected(payload):
    del payload["selected"]
    return payload


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda payload: {**payload, "pool": "CCCCCC"}, "field 'pool' must hold a list of strings"),
        (_without_selected, "field 'selected' must hold a list of strings"),
        (lambda payload: [payload], "does not hold a JSON object"),
        (lambda payload: {**payload, "batch": True}, "field 'batch' must hold an integer"),
        (lambda payload: {**payload, "threshold": "0.5"}, "field 'threshold' must hold a number"),
        (lambda payload: {**payload, "rng_state": []}, "field 'rng_state' must hold an object"),
        (lambda payload: {**payload, "rng_state": {"bit_generator": "PCG64"}},
         "field 'rng_state' is no PCG64 state"),
        (lambda payload: {**payload, "rng_state": {**payload["rng_state"], "bit_generator": "MT"}},
         "field 'rng_state' is no PCG64 state"),
        (lambda payload: {**payload, "pool": payload["selected"]}, "must be disjoint"),
    ],
    ids=["string-pool", "missing-field", "json-list", "bool-batch", "string-threshold",
         "list-rng-state", "stateless-rng-state", "foreign-rng-state", "overlap"],
)
def test_a_malformed_checkpoint_is_rejected_naming_file_and_field(tmp_path, damage, message):
    ids, _ = molecule_provider(5)
    path = tmp_path / "state.json"
    save_checkpoint(al_init(ids, 0.5, batch=4, seed=9), str(path))
    path.write_text(json.dumps(damage(json.loads(path.read_text()))))
    with pytest.raises(ValueError, match=re.escape(repr(str(path))) + ".*" + re.escape(message)):
        load_checkpoint(str(path))


def test_resume_reproduces_uninterrupted_run(tmp_path):
    ids, provider = molecule_provider(7, lambda_=0.2)
    mid_states = []
    final = al_run(
        ids, 0.5, batch=5, seed=3, kernel_provider=provider,
        on_step=mid_states.append,
    )
    assert len(mid_states) >= 4
    mid = mid_states[2]
    path = str(tmp_path / "mid.json")
    save_checkpoint(mid, path)
    resumed = al_resume(load_checkpoint(path), provider)
    assert resumed.selected == final.selected
    assert resumed.abandoned == final.abandoned
    assert resumed.iteration == final.iteration
    assert resumed.rng_state == final.rng_state


def test_run_writes_periodic_and_final_checkpoints(tmp_path):
    ids, provider = molecule_provider(6)
    path = str(tmp_path / "ckpt.json")
    final = al_run(
        ids, 0.5, batch=4, seed=3, kernel_provider=provider,
        checkpoint_path=path, checkpoint_every=1,
    )
    assert load_checkpoint(path) == final
