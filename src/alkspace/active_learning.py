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

A step reads no more of the kernel than its outcome needs, and solves no
row of a candidate's substitution that an earlier step solved. The variance
of a candidate is its prior minus the squared entries x_0..x_{|S|-1} of the
forward substitution against the Cholesky factor of S, taken in factor
(selection) order; after rows 0..j the prior minus x_0^2 + ... + x_j^2 is
an upper bound on the variance, it only falls as j grows, and it needs only
the kernel entries against the first j + 1 selected molecules. This is the
monotone residual diagonal of pivoted Cholesky (Harbrecht, Peters &
Schneider, 2012), used like the lazy evaluations of lazy greedy (Minoux,
1978). Growing S appends rows to the factor and changes none, so a
candidate's prefix x_0..x_j and its bound stay valid for every later S.

The selection engine (:class:`_Engine`) therefore carries, for every
molecule, its prefix, the number of its rows known and its running bound,
across steps and stages. A step solves each candidate only in the rows it
lacks, in the row blocks of :func:`alkspace.gpr._row_blocks`; a block is
one request over the candidates lacking rows in it, from the first row any
of them lacks, so where their known rows differ (a stage's first step, or a
batch below the pool size) some known entries are requested again, as store
lookups. A candidate whose bound falls below the threshold minus a margin
of 1e-9 is read no further; one whose carried bound is already below,
typically an abandoned molecule returned to the pool at a lower threshold,
is abandoned without a kernel request. Its variance is below the threshold,
so it is abandoned, and is neither the pick nor kept. The margin lies far
above the rounding gap between the blocked bound and the variance of a full
read, about |S| ulps, so no candidate that a full read keeps or picks is
dropped. A candidate read to the last row has its bound as its variance: it
equals a full read's to rounding, and selections were checked identical to
those of a full read on library runs from C4..C10 to C4..C14. Only the
kernel pairs read fall. A selection's column K(S + pick, pick) is
requested once more to extend the factor.

A terminated run can be continued at a strictly lower threshold: abandoned
molecules return to the pool while the selected set is retained, producing
nested selected sets across stages. The engine travels with the terminal
state, in memory only: it is no part of equality, repr or checkpoints, so
a state loaded from a checkpoint, or made by ``dataclasses.replace``,
starts from row 0. A continuation takes the engine over from the state it
continues, so a second continuation of that state starts from row 0 too.
It requests K(S, S), as a fresh start does, and reuses the engine only if
that block is bitwise the one the factor was built from, the noise is the
same and S is the same in the same order; otherwise it factors K(S, S)
afresh. A factor that needed jitter (a numerically singular S) is never
carried to a later stage, and a jittered refactorization within a stage
drops every carried prefix and bound.

Inside a run the pool and the abandoned set are sorted int arrays of
positions in the sorted id list, and the subset draw over the pool array
makes the draws it made over the sorted pool of ids; the string
:class:`AlState` is built only for ``on_step``, checkpoints and the
return value.

States checkpoint to JSON, including the generator state of the RNG, so an
interrupted or continued run replays bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from . import gpr
from ._atomic import read_json, write_json
from .gpr import KernelProvider

CHECKPOINT_VERSION = 1

DEFAULT_AL_NOISE = 1e-4

# A candidate whose variance bound falls more than this below the threshold
# is abandoned without reading the rest of its kernel row.
_MARGIN = 1e-9


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
    # the selection engine a terminal state carries to its continuation;
    # in memory only, and no part of equality or repr (see _take_engine)
    _engine: "_Engine | None" = field(default=None, init=False, repr=False, compare=False)

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


def _draw_subset(
    pool: np.ndarray, batch: int, rng: np.random.Generator
) -> np.ndarray:
    """Working subset T of the sorted positions ``pool``: the whole pool when
    it fits the batch size (no RNG consumed), else a seeded sample without
    replacement, sorted."""
    if pool.size <= batch:
        return pool
    return np.sort(pool[rng.choice(pool.size, size=batch, replace=False)])


def _partition_subset(
    subset: np.ndarray, variances: np.ndarray, threshold: float
) -> tuple[int | None, np.ndarray]:
    """Returns (selection or None, abandoned positions) for one scored
    sorted subset.

    The selection is the highest-variance candidate when it exceeds the
    threshold, ties broken toward the smallest id (the first position);
    candidates strictly below the threshold are abandoned; the rest stay
    pooled.
    """
    top = int(np.argmax(variances))
    pick = int(subset[top]) if variances[top] > threshold else None
    below = variances < threshold
    if pick is not None:
        below[top] = False
    return pick, subset[below]


class _Engine:
    """The selection engine: the Cholesky factor of S, extended once per
    selection, and for every molecule, by position in the sorted id list
    ``ids``, its carried forward-substitution prefix ``x[:known[i], i]``
    and running bound ``bound[i]``, the unit prior (gpr.KernelProvider)
    until it is first scored.

    Equivalent to a fresh GP fit per step (tests check it against one
    built from gpr.fit); the factor grows in selection order, which resume
    reconstructs exactly.
    """

    def __init__(self, ids: list[str], keys: list[str], k: np.ndarray, noise: float):
        self.ids = ids
        self.keys = keys
        self.noise = noise
        self.basis = k
        self.chol, jitter = gpr._factor(k, noise)
        # a later stage would factor K(S, S) afresh, escalating jitter anew
        self.exact = jitter == 0.0
        self.x = np.empty((_rows_for(len(keys)), len(ids)))
        self.known = np.zeros(len(ids), np.int64)
        self.bound = np.ones(len(ids))

    def fits(self, ids: list[str], keys: list[str], k: np.ndarray, noise: float) -> bool:
        """Whether this engine may carry on for S = ``keys`` whose kernel
        block the provider gives as ``k``: same ids, S in the same order, the
        same noise, and ``k`` bitwise the block its factor was built from."""
        return (
            self.exact and self.noise == noise and self.keys == keys
            and self.ids == ids and self.basis.tobytes() == k.tobytes()
        )

    def variances(
        self, provider: KernelProvider, subset: np.ndarray, threshold: float
    ) -> np.ndarray:
        """Posterior variances at the positions ``subset``, clamped at 0,
        except that a candidate whose variance bound falls below ``threshold -
        _MARGIN`` gets that bound, clamped alike: its variance lies below the
        threshold too, so :func:`_partition_subset` treats both alike."""
        gpr._forward(
            self.chol, provider, self.keys, self.ids, threshold - _MARGIN,
            self.x, self.known, self.bound, subset,
        )
        return np.maximum(self.bound[subset], 0.0)

    def extend(self, provider: KernelProvider, pick: int) -> None:
        """Grow S by the molecule at position ``pick``."""
        key = self.ids[pick]
        keys = self.keys + [key]
        n = len(self.keys)
        # K(pick, pick) as the provider gives it, not 1.0: fits compares
        # the basis bitwise with the provider's K(S, S)
        column = provider.block(keys, [key])[:, 0]
        cross, diag = column[:n], float(column[n])
        basis = np.empty((n + 1, n + 1))
        basis[:n, :n] = self.basis
        basis[:n, n] = basis[n, :n] = cross
        basis[n, n] = diag
        try:
            chol = gpr.extend_cholesky(self.chol, cross, diag + self.noise)
        except gpr.FitError:
            # Numerically singular extension: rebuild with jitter. Prefixes
            # against the old factor no longer hold.
            chol, _ = gpr._factor(provider.block(keys, keys), self.noise)
            self.exact = False
            self.known[:] = 0
            self.bound[:] = 1.0
        if n + 1 > len(self.x):
            x = np.empty((_rows_for(n + 1), len(self.ids)))
            x[:n] = self.x[:n]
            self.x = x
        self.chol, self.basis, self.keys = chol, basis, keys


def _take_engine(state: AlState) -> _Engine | None:
    """The engine ``state`` carries, which the run continuing it takes
    over: removed in one step, so two runs never share one engine, and a
    second continuation of ``state`` starts a new one."""
    return vars(state).pop("_engine", None)


def _rows_for(n: int) -> int:
    """Rows to allocate for prefixes of ``n`` rows: n rounded up to 16."""
    return -(-n // 16) * 16


def _run_loop(
    state: AlState,
    kernel_provider: KernelProvider,
    noise: float,
    checkpoint_path: str | None,
    checkpoint_every: int,
    on_step: Callable[[AlState], None] | None,
    engine: _Engine | None = None,
) -> AlState:
    """Steps ``state`` until the pool is empty; a state that starts with an
    empty pool is only checkpointed. ``engine``, carried from an earlier
    stage, is reused if it fits; the terminal state carries the engine on.

    The pool and the abandoned set are sorted int arrays of positions in the
    sorted id list; an AlState is built only for ``on_step``, a checkpoint
    or the return value.
    """
    if state.pool:
        ids = sorted(state.universe)
        keys = list(state.selected)
        k = np.array(kernel_provider.block(keys, keys), dtype=float)
        if engine is None or not engine.fits(ids, keys, k, noise):
            engine = _Engine(ids, keys, k, noise)
        position = {m: i for i, m in enumerate(ids)}.__getitem__
        pool = np.sort(np.fromiter(map(position, state.pool), np.int64, len(state.pool)))
        abandoned = np.sort(
            np.fromiter(map(position, state.abandoned), np.int64, len(state.abandoned))
        )
        rng = _fresh_rng(state)
        iteration = state.iteration
        while pool.size:
            subset = _draw_subset(pool, state.batch, rng)
            variances = engine.variances(kernel_provider, subset, state.threshold)
            pick, dropped = _partition_subset(subset, variances, state.threshold)
            if pick is None and not dropped.size:
                raise AlStallError(
                    f"no selection and no abandonment at iteration {iteration} "
                    f"(threshold {state.threshold}); the run would never terminate"
                )
            removed = dropped if pick is None else np.append(dropped, pick)
            pool = np.delete(pool, np.searchsorted(pool, removed))
            abandoned = np.insert(abandoned, np.searchsorted(abandoned, dropped), dropped)
            if pick is not None:
                engine.extend(kernel_provider, pick)
            iteration += 1
            due = bool(checkpoint_path) and iteration % checkpoint_every == 0
            if on_step is not None or due or not pool.size:
                state = replace(
                    state,
                    selected=tuple(engine.keys),
                    pool=frozenset(map(ids.__getitem__, pool.tolist())),
                    abandoned=frozenset(map(ids.__getitem__, abandoned.tolist())),
                    iteration=iteration,
                    rng_state=rng.bit_generator.state,
                )
                if on_step is not None:
                    on_step(state)
                if due:
                    save_checkpoint(state, checkpoint_path)
    if checkpoint_path:
        save_checkpoint(state, checkpoint_path)
    object.__setattr__(state, "_engine", engine)
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
        state, kernel_provider, noise, checkpoint_path, checkpoint_every, on_step,
        _take_engine(state),
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
        state, kernel_provider, noise, checkpoint_path, checkpoint_every, on_step,
        _take_engine(terminal_state),
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
    write_json(path, payload)


def _strings(v: object) -> bool:
    return isinstance(v, list) and all(isinstance(s, str) for s in v)


# checkpoint field -> (what it must hold, test); a JSON true is no number
_CHECKPOINT_FIELDS = {
    **dict.fromkeys(("selected", "pool", "abandoned"), ("a list of strings", _strings)),
    "threshold": ("a number", lambda v: type(v) in (int, float)),
    **dict.fromkeys(("batch", "seed", "iteration"), ("an integer", lambda v: type(v) is int)),
    "rng_state": ("an object or null", lambda v: v is None or isinstance(v, dict)),
}


def load_checkpoint(path: str) -> AlState:
    """The state a checkpoint holds; ValueError naming the file, and the
    field where one is missing or of the wrong type, or where ``rng_state``
    is no state of the selection's PCG64 generator."""
    payload = read_json(path)
    version = payload.get("version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"checkpoint {path!r} has unsupported version {version!r}")
    for name, (kind, ok) in _CHECKPOINT_FIELDS.items():
        if name not in payload or not ok(payload[name]):
            raise ValueError(f"checkpoint {path!r} field {name!r} must hold {kind}")
    if payload["rng_state"] is not None:
        try:
            np.random.PCG64(0).state = payload["rng_state"]
        except (KeyError, OverflowError, TypeError, ValueError) as exc:
            raise ValueError(
                f"checkpoint {path!r} field 'rng_state' is no PCG64 state ({exc!r})"
            ) from None
    try:
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
    except ValueError as exc:
        raise ValueError(f"checkpoint {path!r}: {exc}") from None
