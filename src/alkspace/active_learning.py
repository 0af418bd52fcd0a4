"""Explorative active learning over a molecule pool.

The loop keeps a partition of the candidate set into selected (S), pool (P)
and abandoned (A) molecules. Each step draws a working subset T of the pool,
scores it by Gaussian-process posterior variance with S as the training set,
selects the single highest-variance candidate if it exceeds the threshold,
and abandons every sampled candidate whose variance fell below. Variance
never increases as S grows, so abandoned molecules stay covered; the loop
ends when the pool is empty.

Selection never reads property values: the variance depends on kernel
entries only, which is what allows choosing the training set before any
data generation happens.

A terminated run can be continued at a strictly lower threshold: abandoned
molecules return to the pool while the selected set is retained, producing
nested selected sets across stages.

States checkpoint to JSON, including the generator state of the RNG, so an
interrupted or continued run replays bit-identically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import gpr
from ._atomic import write_atomic
from .gpr import KernelProvider

CHECKPOINT_VERSION = 1

DEFAULT_AL_NOISE = 1e-4


class AlStallError(RuntimeError):
    """A step neither selected nor abandoned anything; the run cannot end.

    Reachable only in pathological settings (threshold exactly equal to an
    achieved variance, or zero threshold with zero noise and duplicated
    kernel rows)."""


@dataclass(frozen=True)
class AlState:
    """Partition snapshot of one active-learning run.

    ``selected`` keeps selection order (the first two entries are the random
    seed pair). ``threshold`` accepts any non-negative value so degenerate
    sweeps (0 selects everything, >=1 selects nothing) remain expressible;
    run entry points restrict it to (0, 1].
    """

    selected: tuple[str, ...]
    pool: frozenset[str]
    abandoned: frozenset[str]
    threshold: float
    batch: int
    seed: int
    iteration: int
    rng_state: dict | None = None

    def __post_init__(self) -> None:
        if not (self.threshold >= 0.0 and np.isfinite(self.threshold)):
            raise ValueError(f"threshold must be finite and >= 0, got {self.threshold}")
        if self.batch < 1:
            raise ValueError("batch must be at least 1")
        sel = set(self.selected)
        if len(sel) != len(self.selected):
            raise ValueError("selected contains duplicates")
        if sel & self.pool or sel & self.abandoned or self.pool & self.abandoned:
            raise ValueError("selected, pool and abandoned must be disjoint")

    @property
    def universe(self) -> frozenset[str]:
        return frozenset(self.selected) | self.pool | self.abandoned

    @property
    def is_terminal(self) -> bool:
        return not self.pool


def _fresh_rng(state: AlState) -> np.random.Generator:
    rng = np.random.default_rng(state.seed)
    if state.rng_state is not None:
        rng.bit_generator.state = state.rng_state
    return rng


def al_init(
    ccs: Sequence[str], threshold: float, batch: int, seed: int
) -> AlState:
    """Start a run: two distinct molecules drawn by seeded RNG seed S.

    ``ccs`` is the candidate id list (canonical SMILES in practice); ids
    must be unique. The draw is over the sorted id list, so the result does
    not depend on the caller's ordering.
    """
    ids = sorted(ccs)
    if len(set(ids)) != len(ids):
        raise ValueError("candidate ids must be unique")
    if len(ids) < 2:
        raise ValueError(f"need at least 2 candidates, got {len(ids)}")
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must lie in (0, 1], got {threshold}")
    if batch < 1:
        raise ValueError("batch must be at least 1")
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(ids), size=2, replace=False)
    selected = (ids[picks[0]], ids[picks[1]])
    return AlState(
        selected=selected,
        pool=frozenset(ids) - set(selected),
        abandoned=frozenset(),
        threshold=threshold,
        batch=batch,
        seed=seed,
        iteration=0,
        rng_state=rng.bit_generator.state,
    )


def _draw_subset(state: AlState, rng: np.random.Generator) -> list[str]:
    """Working subset T: the whole pool when it fits the batch size (no RNG
    consumed), else a seeded sample without replacement."""
    pool_sorted = sorted(state.pool)
    if len(pool_sorted) <= state.batch:
        return pool_sorted
    picks = rng.choice(len(pool_sorted), size=state.batch, replace=False)
    return sorted(pool_sorted[i] for i in picks)


def _partition_subset(
    subset: Sequence[str], variances: np.ndarray, threshold: float
) -> tuple[str | None, list[str]]:
    """Returns (selection or None, abandoned ids) for one scored subset.

    The selection is the highest-variance candidate when it exceeds the
    threshold, ties broken toward the smallest id; candidates strictly
    below the threshold are abandoned; the rest stay pooled.
    """
    vmax = float(np.max(variances))
    pick: str | None = None
    if vmax > threshold:
        pick = min(m for m, v in zip(subset, variances) if v == vmax)
    dropped = [
        m for m, v in zip(subset, variances) if v < threshold and m != pick
    ]
    return pick, dropped


def _apply_outcome(
    state: AlState,
    pick: str | None,
    dropped: Sequence[str],
    rng_state: dict,
) -> AlState:
    if pick is None and not dropped:
        raise AlStallError(
            f"no selection and no abandonment at iteration {state.iteration} "
            f"(threshold {state.threshold}); the run would never terminate"
        )
    selected = state.selected + (pick,) if pick is not None else state.selected
    removed = set(dropped) | ({pick} if pick is not None else set())
    return replace(
        state,
        selected=selected,
        pool=state.pool - removed,
        abandoned=state.abandoned | set(dropped),
        iteration=state.iteration + 1,
        rng_state=rng_state,
    )


class _IncrementalLoop:
    """The selection engine: scores candidates against a Cholesky factor of
    the selected set, extended once per selection.

    Equivalent to a fresh GP fit per step (tests check it against one
    built from gpr.fit); the factor grows in selection order, which resume
    reconstructs exactly.
    """

    def __init__(self, state: AlState, provider: KernelProvider, noise: float):
        self.provider = provider
        self.noise = noise
        self.chol, _ = gpr._factor(provider, state.selected, noise)
        self.keys = list(state.selected)

    def sync(self, state: AlState) -> None:
        """Extend the factor to cover selections made since last sync."""
        for key in state.selected[len(self.keys) :]:
            cross = self.provider.block(self.keys, [key])[:, 0]
            diag = float(self.provider.diag([key])[0]) + self.noise
            try:
                self.chol = gpr.extend_cholesky(self.chol, cross, diag)
            except gpr.FitError:
                # Numerically singular extension: rebuild with jitter.
                self.chol, _ = gpr._factor(self.provider, self.keys + [key], self.noise)
            self.keys.append(key)

    def variances(self, subset: Sequence[str]) -> np.ndarray:
        v = gpr._unclamped_variance(self.chol, self.provider, self.keys, subset)
        return np.maximum(v, 0.0)


def _run_loop(
    state: AlState,
    kernel_provider: KernelProvider,
    noise: float,
    checkpoint_path: str | None,
    checkpoint_every: int,
    on_step: Callable[[AlState], None] | None,
) -> AlState:
    """Steps ``state`` until the pool is empty; a state that starts with an
    empty pool is only checkpointed."""
    if state.pool:
        loop = _IncrementalLoop(state, kernel_provider, noise)
    while state.pool:
        rng = _fresh_rng(state)
        subset = _draw_subset(state, rng)
        variances = loop.variances(subset)
        pick, dropped = _partition_subset(subset, variances, state.threshold)
        state = _apply_outcome(state, pick, dropped, rng.bit_generator.state)
        loop.sync(state)
        if on_step is not None:
            on_step(state)
        if checkpoint_path and state.iteration % checkpoint_every == 0:
            save_checkpoint(state, checkpoint_path)
    if checkpoint_path:
        save_checkpoint(state, checkpoint_path)
    return state


def al_run(
    ccs: Sequence[str],
    threshold: float,
    batch: int,
    seed: int,
    kernel_provider: KernelProvider,
    noise: float = DEFAULT_AL_NOISE,
    checkpoint_path: str | None = None,
    checkpoint_every: int = 25,
    on_step: Callable[[AlState], None] | None = None,
) -> AlState:
    """Initialize and run to termination (empty pool)."""
    state = al_init(ccs, threshold, batch, seed)
    if checkpoint_path:
        save_checkpoint(state, checkpoint_path)
    return _run_loop(
        state, kernel_provider, noise, checkpoint_path, checkpoint_every, on_step
    )


def al_resume(
    state: AlState,
    kernel_provider: KernelProvider,
    noise: float = DEFAULT_AL_NOISE,
    checkpoint_path: str | None = None,
    checkpoint_every: int = 25,
    on_step: Callable[[AlState], None] | None = None,
) -> AlState:
    """Continue an interrupted run from a (checkpoint) state."""
    return _run_loop(
        state, kernel_provider, noise, checkpoint_path, checkpoint_every, on_step
    )


def al_continue(
    terminal_state: AlState,
    lower_threshold: float,
    kernel_provider: KernelProvider,
    noise: float = DEFAULT_AL_NOISE,
    checkpoint_path: str | None = None,
    checkpoint_every: int = 25,
    on_step: Callable[[AlState], None] | None = None,
) -> AlState:
    """Next stage at a strictly lower threshold.

    Abandoned molecules return to the pool; the selected set is retained,
    so the new terminal selected set is a superset of the input one.
    """
    if terminal_state.pool:
        raise ValueError("al_continue requires a terminal state (empty pool)")
    if not lower_threshold < terminal_state.threshold:
        raise ValueError(
            f"threshold must drop strictly: {lower_threshold} >= "
            f"{terminal_state.threshold}"
        )
    if lower_threshold <= 0.0:
        raise ValueError("threshold must stay positive")
    state = replace(
        terminal_state,
        pool=terminal_state.abandoned,
        abandoned=frozenset(),
        threshold=lower_threshold,
    )
    return _run_loop(
        state, kernel_provider, noise, checkpoint_path, checkpoint_every, on_step
    )


def save_checkpoint(state: AlState, path: str) -> None:
    """Write a JSON checkpoint atomically; sets are stored sorted for stable bytes."""
    payload = {
        "version": CHECKPOINT_VERSION,
        "threshold": state.threshold,
        "batch": state.batch,
        "seed": state.seed,
        "iteration": state.iteration,
        "selected": list(state.selected),
        "pool": sorted(state.pool),
        "abandoned": sorted(state.abandoned),
        "rng_state": state.rng_state,
    }
    write_atomic(path, json.dumps(payload, indent=1, sort_keys=True) + "\n")


def load_checkpoint(path: str) -> AlState:
    with open(path) as fh:
        payload = json.load(fh)
    version = payload.get("version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version!r}")
    return AlState(
        selected=tuple(payload["selected"]),
        pool=frozenset(payload["pool"]),
        abandoned=frozenset(payload["abandoned"]),
        threshold=payload["threshold"],
        batch=payload["batch"],
        seed=payload["seed"],
        iteration=payload["iteration"],
        rng_state=payload["rng_state"],
    )
