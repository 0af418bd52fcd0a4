"""End-to-end workflow: enumerate, select, simulate, fit, predict, evaluate.

Stage artifacts are immutable files named by a short hash of the config
that produced them, so a rerun reuses finished stages and an interrupted
run resumes from the last durable checkpoint. Apart from logging and
timing, every output is a pure function of the configuration.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from typing import Iterator, Mapping, Sequence

import numpy as np

from . import active_learning as al
from . import gpr, thermo
from ._atomic import (
    csv_column, csv_field, csv_line, csv_rows, csv_table, read_json, row_error, write_atomic,
    write_csv, write_json,
)
from .errors import ConfigError
from .mgk import MgkCalculator, MgkHyperparameters, _require_real
from .molspace import (
    DEFAULT_MAX_CARBONS,
    enumerate_alkane_smiles,
    parse_smiles,
    to_canonical_smiles,
)

logger = logging.getLogger(__name__)

PROPERTIES = ("density", "heat_capacity", "hov")

PREDICTION_HEADER = ["smiles", "temperature_K", "density_kgm3", "cp_Jmolk", "hvap_kJmol"]

_HASH_CHARS = 12


class StageError(RuntimeError):
    """A stage failed after the configuration was accepted."""


# -- configuration ---------------------------------------------------------


# The flat sections of the JSON form: file key -> field name.
_CONFIG_KEYS = {
    "chemical_space": {"min_carbons": "min_carbons", "max_carbons": "max_carbons"},
    "active_learning": {
        "thresholds": "thresholds", "batch": "batch", "seed": "al_seed",
        "checkpoint_every": "checkpoint_every",
    },
    "oracle": {"noise_sigma": "noise_sigma", "seed": "oracle_seed"},
    "evaluation": {
        "n_test": "n_test", "split_seed": "split_seed", "control_seeds": "control_seeds",
    },
    "gpr": {
        "al_noise": "al_noise", "regression_noise": "regression_noise",
        "temperature_length_scale": "temperature_length_scale",
    },
}

_INT_FIELDS = (
    "min_carbons", "max_carbons", "batch", "al_seed", "checkpoint_every",
    "oracle_seed", "n_test", "split_seed",
)

# finite and non-negative; the length scale must also be positive
_FLOAT_FIELDS = ("noise_sigma", "al_noise", "regression_noise", "temperature_length_scale")


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a run depends on; two equal configs give identical outputs.

    The JSON form groups the fields into sections (chemical_space, kernel,
    gpr, active_learning, oracle, evaluation) plus a top-level out_dir;
    every section but kernel is flat (``_CONFIG_KEYS``).
    """

    min_carbons: int = 4
    max_carbons: int = 12
    kernel: MgkHyperparameters = field(default_factory=MgkHyperparameters)
    al_noise: float = al.DEFAULT_AL_NOISE
    regression_noise: float = 1e-2
    temperature_length_scale: float = 50.0
    thresholds: tuple[float, ...] = (0.5, 0.4, 0.3)
    batch: int = 1000
    al_seed: int = 1
    checkpoint_every: int = 25
    noise_sigma: float = 0.0
    oracle_seed: int = 7
    n_test: int = 200
    split_seed: int = 11
    control_seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    out_dir: str = "out"

    def __post_init__(self) -> None:
        object.__setattr__(self, "control_seeds", tuple(self.control_seeds))
        named = [(n, getattr(self, n)) for n in _INT_FIELDS]
        for name, v in named + [("control_seeds", s) for s in self.control_seeds]:
            if isinstance(v, bool) or not isinstance(v, int):
                raise ConfigError(f"{name} must hold integers, got {v!r}")
            # numpy rejects a negative seed, but only once a stage seeds a generator
            if v < 0 and "seed" in name:
                raise ConfigError(f"{name} must be non-negative, got {v}")
        if not (1 <= self.min_carbons <= self.max_carbons <= DEFAULT_MAX_CARBONS):
            raise ConfigError(
                f"carbon range must satisfy 1 <= min <= max <= {DEFAULT_MAX_CARBONS}, "
                f"got [{self.min_carbons}, {self.max_carbons}]"
            )
        object.__setattr__(self, "thresholds", tuple(self.thresholds))
        if not self.thresholds:
            raise ConfigError("need at least one threshold")
        for t in self.thresholds:
            _require_real("thresholds", t, ConfigError)
            if not 0.0 < t <= 1.0:
                raise ConfigError(f"thresholds must lie in (0, 1], got {t!r}")
        if any(b >= a for a, b in zip(self.thresholds, self.thresholds[1:])):
            raise ConfigError(f"thresholds must decrease strictly: {self.thresholds}")
        if self.batch < 1:
            raise ConfigError("batch must be at least 1")
        if self.checkpoint_every < 1:
            raise ConfigError("checkpoint_every must be at least 1")
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            _require_real(name, value, ConfigError)
            if value < 0.0:
                raise ConfigError(f"{name} must be non-negative, got {value}")
        if not self.temperature_length_scale > 0.0:
            raise ConfigError("temperature_length_scale must be positive")
        if self.n_test < 0:
            raise ConfigError("n_test must be non-negative")
        if len(set(self.control_seeds)) != len(self.control_seeds):
            raise ConfigError("control_seeds must be distinct")
        if not (isinstance(self.out_dir, str) and self.out_dir):
            raise ConfigError(f"out_dir must be a non-empty path string, got {self.out_dir!r}")

    # section dicts double as hash inputs for artifact names

    def section(self, name: str) -> dict[str, object]:
        """The flat JSON section ``name`` (a key of ``_CONFIG_KEYS``)."""
        return {key: getattr(self, f) for key, f in _CONFIG_KEYS[name].items()}

    def al_dict(self, n_stages: int | None = None) -> dict[str, object]:
        ts = self.thresholds if n_stages is None else self.thresholds[:n_stages]
        return {
            "thresholds": list(ts),
            "batch": self.batch,
            "seed": self.al_seed,
            "al_noise": self.al_noise,
        }

    def to_dict(self) -> dict[str, object]:
        out: dict[str, object] = {name: self.section(name) for name in _CONFIG_KEYS}
        out.update(kernel=self.kernel.to_dict(), out_dir=self.out_dir)
        return out

    @classmethod
    def from_dict(cls, raw: Mapping[str, object]) -> "PipelineConfig":
        unknown = set(raw) - {*_CONFIG_KEYS, "kernel", "out_dir"}
        if unknown:
            raise ConfigError(f"unknown config sections: {sorted(unknown)}")

        def section(name: str) -> dict[str, object]:
            value = raw.get(name, {})
            if not isinstance(value, Mapping):
                raise ConfigError(f"config section {name!r} must be a mapping")
            return dict(value)

        kwargs: dict[str, object] = {"out_dir": raw.get("out_dir", "out")}
        for name, keys in _CONFIG_KEYS.items():
            sec = section(name)
            if set(sec) - set(keys):
                raise ConfigError(f"unknown keys in section {name!r}: {sorted(set(sec) - set(keys))}")
            kwargs.update((keys[key], value) for key, value in sec.items())
        try:
            kwargs["kernel"] = MgkHyperparameters.from_dict(section("kernel"))
            return cls(**kwargs)  # type: ignore[arg-type]
        except ConfigError:
            raise
        except (ValueError, TypeError) as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_json(cls, path: str) -> "PipelineConfig":
        try:
            raw = read_json(path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        return cls.from_dict(raw)

    def content_hash(self) -> str:
        # out_dir names the workspace, it does not influence results
        d = self.to_dict()
        d.pop("out_dir")
        return _hash_obj(d)


# -- metrics ---------------------------------------------------------------


# The report records below are written as ``dataclasses.asdict``: their
# field names are the keys of the report and comparison files.


@dataclass(frozen=True)
class Metrics:
    """Error summary of one prediction column; r2 is None, and r2_defined
    False, when the truth column has zero variance."""

    rmse: float
    mae: float
    r2: float | None
    r2_defined: bool = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "r2_defined", self.r2 is not None)


def evaluate(predictions: Sequence[float], truths: Sequence[float]) -> Metrics:
    """RMSE, MAE and R2 of predictions against truths (equal-length,
    nonempty, finite); ValueError otherwise."""
    p = np.asarray(predictions, dtype=float).reshape(-1)
    t = np.asarray(truths, dtype=float).reshape(-1)
    if p.size == 0 or p.size != t.size:
        raise ValueError(
            f"need equal nonzero lengths, got {p.size} predictions, {t.size} truths"
        )
    for name, values in (("predictions", p), ("truths", t)):
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise ValueError(
                f"{bad.size} non-finite {name}, first at index {bad[0]}: {values[bad[0]]}"
            )
    err = p - t
    rmse = float(np.sqrt(np.mean(err * err)))
    mae = float(np.mean(np.abs(err)))
    ss_res = float(np.sum(err * err))
    ss_tot = float(np.sum((t - t.mean()) ** 2))
    r2 = None if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return Metrics(rmse=rmse, mae=mae, r2=r2)


@dataclass(frozen=True)
class StageResult:
    """Per-stage outcome of the staged run."""

    stage: int
    threshold: float
    n_selected: int
    n_train_rows: int
    selected_fraction: float
    metrics: Mapping[str, Metrics]


@dataclass(frozen=True)
class EvalReport:
    """Per-property, per-stage error metrics of a full run."""

    config_hash: str
    n_molecules: int
    n_test_molecules: int
    n_test_rows: int
    stages: tuple[StageResult, ...]


# -- small shared helpers ----------------------------------------------------


def _hash_obj(obj: object) -> str:
    payload = json.dumps(obj, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:_HASH_CHARS]


def load_molecule_file(path: str) -> list[str]:
    """Molecule ids from a text file, one per line, blanks skipped."""
    with open(path) as fh:
        ids = [line.strip() for line in fh if line.strip()]
    if not ids:
        raise ValueError(f"no molecules in {path!r}")
    return ids


# -- test split ---------------------------------------------------------------


def split_test(
    ccs: Sequence[str],
    selected_all: Sequence[str],
    n_test: int,
    seed: int,
) -> list[str]:
    """Seeded uniform sample of n_test molecules from ccs minus selected_all."""
    if n_test < 0:
        raise ValueError("n_test must be non-negative")
    if n_test == 0:
        return []
    excluded = set(selected_all)
    pool = [m for m in ccs if m not in excluded]
    if n_test > len(pool):
        raise ValueError(
            f"test size {n_test} exceeds the {len(pool)} molecules left "
            "after excluding the selected set"
        )
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(pool), size=n_test, replace=False)
    return [pool[int(i)] for i in picks]


# -- workspace plumbing -------------------------------------------------------


class _Workspace:
    """Artifact paths and stage products for one configuration, for the
    length of one command, and how many molecules the command simulated."""

    def __init__(self, config: PipelineConfig):
        self.config = config
        os.makedirs(config.out_dir, exist_ok=True)
        self.simulated = 0

    def path(self, name: str) -> str:
        return os.path.join(self.config.out_dir, name)

    # molecule list

    def molecule_ids(self) -> list[str]:
        """The configured carbon range, enumerated; an existing molecule
        file must hold exactly that list."""
        cfg = self.config
        path = self.path(f"molecules_{_hash_obj(cfg.section('chemical_space'))}.txt")
        t0 = time.monotonic()
        ids = [str(s) for s in enumerate_alkane_smiles(cfg.min_carbons, cfg.max_carbons)]
        text = "\n".join(ids) + "\n"
        if os.path.exists(path):
            with open(path) as fh:
                if fh.read() != text:
                    raise StageError(
                        f"molecule list {path} does not match the enumeration of "
                        f"C{cfg.min_carbons}..C{cfg.max_carbons}; delete it to rebuild"
                    )
            logger.info("checked molecule list %s (%d molecules)", path, len(ids))
            return ids
        write_atomic(path, text)
        logger.info(
            "enumerated %d molecules (C%d..C%d) in %.1fs -> %s",
            len(ids), cfg.min_carbons, cfg.max_carbons, time.monotonic() - t0, path,
        )
        return ids

    # kernel

    def kernel_hash(self) -> str:
        """The name prefix of the workspace's kernel segments: the space and
        the settings raw values depend on, so one store serves every
        ``lambda``."""
        cfg = self.config
        return _hash_obj(
            {"space": cfg.section("chemical_space"), "kernel": cfg.kernel.content_hash()}
        )

    @contextmanager
    def kernel(self, ids: Sequence[str]) -> Iterator[MgkCalculator]:
        """A calculator with ``ids`` registered and every kernel cache
        segment ``kernel_<hash>_<digest>.npz`` of the workspace loaded, so a
        consumer solves only the pairs no segment holds. The ids are those
        :meth:`molecule_ids` checked against the enumeration, so they are
        registered as canonical, unparsed; a molecule's graph arrays are
        read from its id only when one of its pairs is solved.

        A body that finishes without error and solved pairs adds one
        segment of just those pairs, named by a digest of its bytes; no
        segment is ever rewritten. A segment that fails the checks of
        :meth:`MgkCalculator.load_cache` fails the command. The cross pairs
        requested, the pairs, stacks and CG iterations solved and the
        graphs built are logged on exit, never written to ``out_dir``.
        """
        calc = MgkCalculator(self.config.kernel)
        calc.register_canonical(ids)
        prefix = f"kernel_{self.kernel_hash()}_"
        for name in sorted(os.listdir(self.config.out_dir)):
            if name.startswith(prefix) and name.endswith(".npz"):
                n = calc.load_cache(self.path(name))
                logger.info("loaded %d cached kernel entries from %s", n, name)
        try:
            yield calc
        finally:
            _log_kernel_work(calc)
        if calc.pairs_solved:
            rows, data = calc.segment()
            path = self.path(f"{prefix}{hashlib.sha256(data).hexdigest()[:_HASH_CHARS]}.npz")
            write_atomic(path, data)
            logger.info("wrote %d kernel entries to %s", rows, path)

    # staged active learning

    def al_stage_hash(self, n_stages: int) -> str:
        cfg = self.config
        return _hash_obj(
            {
                "space": cfg.section("chemical_space"),
                "kernel": cfg.kernel.to_dict(),
                "al": cfg.al_dict(n_stages),
            }
        )

    def al_stage_path(self, stage: int) -> str:
        return self.path(f"al_stage{stage}_{self.al_stage_hash(stage)}.json")

    def al_states(self, ids: Sequence[str], provider) -> list[al.AlState]:
        """Terminal state per threshold stage (:meth:`al_stage`), each
        continuing the one before."""
        states: list[al.AlState] = []
        for stage, threshold in enumerate(self.config.thresholds, 1):
            prev = states[-1] if states else None
            states.append(self.al_stage(ids, provider, threshold, self.al_stage_path(stage), prev))
        return states

    def checkpoint(self, path: str, ids: Sequence[str]) -> al.AlState:
        """The selection checkpoint at ``path``; StageError, leaving the
        file as it is, unless it covers exactly ``ids``."""
        state = al.load_checkpoint(path)
        if state.universe != frozenset(ids):
            raise StageError(f"checkpoint {path} does not cover the configured molecule set")
        return state

    def al_stage(
        self,
        ids: Sequence[str],
        provider,
        threshold: float,
        path: str,
        prev: al.AlState | None = None,
    ) -> al.AlState:
        """Terminal state of the selection at ``threshold``, checkpointed at
        ``path``: a run over ``ids`` at the configured batch and seed, or,
        given ``prev``, the terminal state of the stage before, the
        continuation of ``prev`` at its batch and seed.

        An existing checkpoint must cover exactly ``ids``, hold
        ``threshold`` and that batch and seed, and, given ``prev``, a
        selection that starts with ``prev``'s; otherwise StageError names
        it (and the field) and it is left as it is. A finished one is
        reused and an unfinished one resumed. A checkpoint does not store
        the selection's GP noise, so that is not checked.
        """
        cfg = self.config
        batch, seed = (cfg.batch, cfg.al_seed) if prev is None else (prev.batch, prev.seed)
        kwargs = dict(
            noise=cfg.al_noise, checkpoint_path=path,
            checkpoint_every=cfg.checkpoint_every,
        )
        if os.path.exists(path):
            loaded = self.checkpoint(path, ids)
            for field, want in (("threshold", threshold), ("batch", batch), ("seed", seed)):
                got = getattr(loaded, field)
                if got != want:
                    raise StageError(
                        f"checkpoint {path} holds {field} {got!r}, but the "
                        f"stage asks for {want!r}"
                    )
            if prev is not None and loaded.selected[: len(prev.selected)] != prev.selected:
                raise StageError(
                    f"checkpoint {path} does not extend the selection at "
                    f"threshold {prev.threshold:g}"
                )
            if loaded.is_terminal:
                logger.info(
                    "U_t=%g: reusing finished selection %s (|S|=%d)",
                    threshold, path, len(loaded.selected),
                )
                return loaded
            logger.info("U_t=%g: resuming from %s", threshold, path)
            return al.al_resume(loaded, provider, **kwargs)
        t0 = time.monotonic()
        if prev is None:
            state = al.al_run(ids, threshold, batch, seed, provider, **kwargs)
        else:
            state = al.al_continue(prev, threshold, provider, **kwargs)
        logger.info(
            "U_t=%g: |S|=%d after %d iterations, %.1fs",
            threshold, len(state.selected), state.iteration, time.monotonic() - t0,
        )
        return state

    # oracle datasets

    def dataset_for(self, tag: str, members: str, ids: Sequence[str]) -> thermo.Dataset:
        """The oracle data of the given molecules, in ``ids`` order,
        cached as a dataset CSV artifact named by ``tag`` and a hash of
        ``members`` and the oracle settings.

        The file carries QC failures too; a fit drops them. An existing
        file is read (:func:`thermo.read_dataset` checks it), and raises
        StageError if it holds other molecules, or the same ones in
        another order. Otherwise the molecules are simulated, in one batch,
        and the file is written and its data returned from memory.
        """
        cfg = self.config
        h = _hash_obj({"members": members, "oracle": cfg.section("oracle")})
        path = self.path(f"dataset_{tag}_{h}.csv")
        if os.path.exists(path):
            data = thermo.read_dataset(path)
        else:
            t0 = time.monotonic()
            data = _simulate(ids, cfg.noise_sigma, cfg.oracle_seed)
            self.simulated += len(data)
            thermo.write_dataset(path, data)
            logger.info(
                "simulated %d molecules (%s) in %.1fs -> %s",
                len(ids), tag, time.monotonic() - t0, path,
            )
        if data.ids != tuple(ids):
            raise StageError(
                f"dataset {path} does not hold exactly the {len(ids)} requested "
                "molecules in order; delete it to rebuild"
            )
        return data

    def datasets(
        self, ids: Sequence[str], final_selected: Sequence[str]
    ) -> tuple[thermo.Dataset, thermo.Dataset]:
        """The training and the test dataset of the staged run.

        Training holds the final stage's selection in selection order;
        every stage extends the one before (:meth:`al_states`), so stage k
        trains on the first |S_k| molecules. The test set is a seeded sample
        of ``n_test`` of the molecules no stage selected; ConfigError if
        too few are left. The two are disjoint, so a command simulates no
        molecule twice.
        """
        cfg = self.config
        if cfg.n_test > len(ids) - len(final_selected):
            raise ConfigError(
                f"n_test={cfg.n_test} does not fit: {len(ids)} molecules minus "
                f"{len(final_selected)} selected leaves too few"
            )
        test_ids = split_test(ids, final_selected, cfg.n_test, cfg.split_seed)
        n = len(cfg.thresholds)
        members = _hash_obj({"al": self.al_stage_hash(n), "split": cfg.section("evaluation")})
        test = self.dataset_for("test", members, test_ids)
        return self.dataset_for(f"stage{n}", self.al_stage_hash(n), list(final_selected)), test


def canonical_ids(ids: Sequence[str], source: str) -> tuple[str, ...]:
    """The canonical SMILES of each molecule id, however spelled, each id
    parsed once; ValueError naming ``source`` and both spellings if two ids
    are one molecule."""
    spelling: dict[str, str] = {}  # each canonical id's spelling in ``ids``
    for mol in ids:
        key = str(to_canonical_smiles(parse_smiles(mol)))
        if key in spelling:
            raise ValueError(f"{source} names {key} twice, as {spelling[key]} and {mol}")
        spelling[key] = mol
    return tuple(spelling)


def simulate_molecules(
    ids: Sequence[str], noise_sigma: float, seed: int, source: str = "the molecule list"
) -> thermo.Dataset:
    """Oracle data of each molecule id, of any spelling, keyed by its
    canonical SMILES (:func:`canonical_ids`, which names ``source``)."""
    return _simulate(canonical_ids(ids, source), noise_sigma, seed)


def _log_kernel_work(calc: MgkCalculator) -> None:
    """Log the cross pairs ``calc`` requested, the pairs, stacks and CG
    iterations it solved and the graphs it built; never written to
    ``out_dir``."""
    logger.info(
        "requested %d, solved %d kernel pairs in %d stacks (%d CG iterations), "
        "built %d graphs",
        calc.pairs_requested, calc.pairs_solved, calc.stacks_solved,
        calc.cg_iterations, calc.graphs_built,
    )


def _simulate(ids: Sequence[str], noise_sigma: float, seed: int) -> thermo.Dataset:
    """:func:`thermo.simulate_batch` of canonical ids; QC failures are logged."""
    data = thermo.simulate_batch(ids, noise_sigma, seed)
    for mol, gates in zip(data.ids, data.failed.tolist()):
        if any(gates):
            failed = ",".join(g for g, f in zip(thermo.QC_GATES, gates) if f)
            logger.warning("QC drop %s: failed %s", mol, failed)
    return data


def _fit_on_series(data: thermo.Dataset, provider, cfg: PipelineConfig):
    """The property GP fitted on the QC-passing molecules of ``data``;
    StageError naming how many failed which gate if none passes."""
    rows, targets = data.take(data.passed).rows()
    if not len(rows):
        counts = data.failed.sum(axis=0).tolist()
        gates = sorted((g, k) for g, k in zip(thermo.QC_GATES, counts) if k)
        n = len(data)
        message = f"no QC-passing training rows: {n} of {n} molecules failed QC"
        if gates:
            message += f" (by gate: {', '.join(f'{g} {k}' for g, k in gates)})"
        if cfg.noise_sigma > 0:
            message += f"; the oracle noise_sigma is {cfg.noise_sigma:g}"
        raise StageError(message)
    kernel = gpr.TemperatureProductKernel(provider, cfg.temperature_length_scale)
    return gpr.fit(rows, targets, cfg.regression_noise, kernel)


def _median(values: Sequence[float]) -> float:
    """The median of nonempty finite values: bitwise ``np.median``'s, which
    on numpy >= 2.3 imports numpy.ma."""
    ordered = sorted(values)
    half = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[half])
    return float((ordered[half - 1] + ordered[half]) / 2)


def _metrics_by_property(
    predictions: np.ndarray, truths: np.ndarray
) -> dict[str, Metrics]:
    return {
        prop: evaluate(predictions[:, j], truths[:, j])
        for j, prop in enumerate(PROPERTIES)
    }


# -- the full staged run ------------------------------------------------------


@contextmanager
def _staged(config: PipelineConfig) -> Iterator[tuple]:
    """The workspace, its checked molecule list, the kernel over it
    (:meth:`_Workspace.kernel`) and the terminal state of every selection
    stage: where the staged commands start. The oracle line is logged on
    exit, after an error too."""
    ws = _Workspace(config)
    try:
        ids = ws.molecule_ids()
        # reject a test set that cannot fit before any kernel work
        if not 0 < config.n_test < len(ids):
            raise ConfigError(
                f"n_test={config.n_test} does not fit: it must be positive and "
                f"below the {len(ids)} molecules of the chemical space"
            )
        with ws.kernel(ids) as calc:
            yield ws, ids, calc, ws.al_states(ids, calc)
    finally:
        # never written to out_dir
        logger.info("oracle: simulated %d molecules", ws.simulated)


def run_alms(config: PipelineConfig) -> EvalReport:
    """Enumerate, select in stages, simulate, fit, and score on a held-out set.

    Emits (all under config.out_dir, all named by config-section hashes):
    the molecule list, the kernel cache, one AL checkpoint per stage, the
    training dataset of the final stage, of which each stage fits on a
    prefix (:meth:`_Workspace.datasets`), the test dataset, parity CSVs, a
    summary CSV, and the report JSON, which holds the returned report. The
    wall-clock runtime is logged, not recorded.
    """
    t_start = time.monotonic()
    with _staged(config) as (ws, ids, calc, states):
        final_selected = states[-1].selected
        train, test = ws.datasets(ids, final_selected)
        test_rows, test_truth = test.rows()
        truth_columns = test_truth.T.tolist()

        # every stage predicts the test set against a subset of the final
        # selection: solve those pairs in one batch rather than per stage
        calc.block(test.ids, final_selected)
        stage_results: list[StageResult] = []
        stage_columns: list[list[list[float]]] = []
        for i, state in enumerate(states):
            stage_no = i + 1
            model = _fit_on_series(train.take(slice(len(state.selected))), calc, config)
            t0 = time.monotonic()
            preds = model.predict_mean(test_rows)
            logger.info(
                "stage %d: predicted %d test rows in %.1fs",
                stage_no, len(test_rows), time.monotonic() - t0,
            )
            metrics = _metrics_by_property(preds, test_truth)
            stage_results.append(
                StageResult(
                    stage=stage_no,
                    threshold=state.threshold,
                    n_selected=len(state.selected),
                    n_train_rows=len(model.training_keys),
                    selected_fraction=len(state.selected) / len(ids),
                    metrics=metrics,
                )
            )
            stage_columns.append(preds.T.tolist())
            for prop in PROPERTIES:
                m = metrics[prop]
                logger.info(
                    "stage %d %s: rmse=%.4g mae=%.4g r2=%s",
                    stage_no, prop, m.rmse, m.mae,
                    "undefined" if m.r2 is None else f"{m.r2:.4f}",
                )

    report = EvalReport(
        config_hash=config.content_hash(),
        n_molecules=len(ids),
        n_test_molecules=len(test),
        n_test_rows=len(test_rows),
        stages=tuple(stage_results),
    )
    report_path = ws.path(f"report_{report.config_hash}.json")
    write_json(report_path, asdict(report))
    export_plot_data(report, test_rows, truth_columns, stage_columns, config.out_dir)
    logger.info("run complete in %.1fs, report at %s", time.monotonic() - t_start, report_path)
    return report


# -- plot-data export ---------------------------------------------------------


def export_plot_data(
    report: EvalReport,
    rows: gpr.Rows,
    truths: Sequence[Sequence[float]],
    predictions: Sequence[Sequence[Sequence[float]]],
    out_dir: str,
) -> list[str]:
    """Parity CSV per (stage, property) plus one metrics summary CSV.

    ``rows`` are the test rows, ``truths`` their true values, one column
    per property in ``PROPERTIES`` order, and ``predictions`` one such
    list of columns per stage of ``report``. The
    label, temperature and truth of a row are rendered once per property
    and shared by every stage's parity file, which adds only the
    prediction. Deterministic inputs give identical bytes, so re-export is
    idempotent.
    """
    os.makedirs(out_dir, exist_ok=True)
    labels = [csv_field(mol) + "," for mol in rows.molecules]
    temperatures = csv_column(rows.temperature.tolist())
    heads = [labels[i] + t + "," for i, t in zip(rows.molecule.tolist(), temperatures)]
    prefixes = [list(map(str.__add__, heads, csv_column(column))) for column in truths]
    written: list[str] = []
    for stage, columns in zip(report.stages, predictions):
        for prop, prefix, column in zip(PROPERTIES, prefixes, columns):
            path = os.path.join(
                out_dir, f"parity_stage{stage.stage}_{prop}_{report.config_hash}.csv"
            )
            text = "".join([p + "," + y + "\r\n" for p, y in zip(prefix, csv_column(column))])
            write_csv(path, ["smiles", "temperature_K", "truth", "prediction"], [text])
            written.append(path)
    summary_rows = [
        [prop, stage.stage, float(stage.threshold), stage.n_selected, stage.n_train_rows,
         report.n_test_rows, m.rmse, m.mae, m.r2]
        for stage in report.stages
        for prop, m in sorted(stage.metrics.items())
    ]
    summary_path = os.path.join(out_dir, f"summary_{report.config_hash}.csv")
    header = ["property", "stage", "threshold", "n_selected", "n_train_rows",
              "n_test_rows", "rmse", "mae", "r2"]
    write_csv(summary_path, header, map(csv_line, summary_rows))
    written.append(summary_path)
    return written


# -- AL vs random control -----------------------------------------------------


@dataclass(frozen=True)
class SeedComparison:
    """Both arms scored on the same evaluation rows for one control seed."""

    seed: int
    n_eval_rows: int
    al: Mapping[str, Metrics]
    random: Mapping[str, Metrics]


@dataclass(frozen=True)
class ComparisonReport:
    """Stage-1 AL selection versus equally sized random selections; AL
    wins a property where its median RMSE is at most the random one's."""

    config_hash: str
    n_train_molecules: int
    seeds: tuple[int, ...]
    per_seed: tuple[SeedComparison, ...]
    median_rmse_al: Mapping[str, float]
    median_rmse_random: Mapping[str, float]
    al_wins: Mapping[str, bool] = field(init=False)

    def __post_init__(self) -> None:
        wins = {p: m <= self.median_rmse_random[p] for p, m in self.median_rmse_al.items()}
        object.__setattr__(self, "al_wins", wins)


def compare_al_random(config: PipelineConfig) -> ComparisonReport:
    """Score the stage-1 AL training set against random sets of equal size.

    Controls are drawn from the held-out test pool with dedicated seeds;
    both arms are evaluated on the test rows not used by the control, and
    per-property medians over seeds are reported. ConfigError, before any
    molecule is simulated, unless the stage-1 selection is smaller than
    the test pool. The wall-clock runtime is logged, not recorded.
    """
    if not config.control_seeds:
        raise ConfigError("compare_al_random needs at least one control seed")
    t_start = time.monotonic()
    with _staged(config) as (ws, ids, calc, states):
        s1 = states[0]

        if len(s1.selected) >= config.n_test:
            raise ConfigError(
                f"cannot draw a {len(s1.selected)}-molecule control from a "
                f"{config.n_test}-molecule test pool and score on the rest; raise n_test"
            )
        train, test = ws.datasets(ids, states[-1].selected)
        al_model = _fit_on_series(train.take(slice(len(s1.selected))), calc, config)

        picks = [
            np.random.default_rng(seed).choice(len(test), size=len(s1.selected), replace=False)
            for seed in config.control_seeds
        ]
        # each seed fits on its control and predicts the rest of the test
        # pool: solve the pairs of all seeds in one batch
        calc.block(sorted({test.ids[i] for p in picks for i in p.tolist()}), test.ids)

        per_seed: list[SeedComparison] = []
        for seed, pick in zip(config.control_seeds, picks):
            rest = np.ones(len(test), dtype=bool)
            rest[pick] = False
            random_model = _fit_on_series(test.take(pick), calc, config)
            eval_rows, truth = test.take(rest).rows()
            al_pred = al_model.predict_mean(eval_rows)
            rnd_pred = random_model.predict_mean(eval_rows)
            comparison = SeedComparison(
                seed=seed,
                n_eval_rows=len(eval_rows),
                al=_metrics_by_property(al_pred, truth),
                random=_metrics_by_property(rnd_pred, truth),
            )
            per_seed.append(comparison)
            for prop in PROPERTIES:
                logger.info(
                    "seed %d %s: rmse AL=%.4g random=%.4g",
                    seed, prop,
                    comparison.al[prop].rmse,
                    comparison.random[prop].rmse,
                )

    median_al = {
        p: _median([s.al[p].rmse for s in per_seed]) for p in PROPERTIES
    }
    median_rnd = {
        p: _median([s.random[p].rmse for s in per_seed]) for p in PROPERTIES
    }
    report = ComparisonReport(
        config_hash=config.content_hash(),
        n_train_molecules=len(s1.selected),
        seeds=tuple(config.control_seeds),
        per_seed=tuple(per_seed),
        median_rmse_al=median_al,
        median_rmse_random=median_rnd,
    )
    path = ws.path(f"comparison_{report.config_hash}.json")
    write_json(path, asdict(report))
    for prop in PROPERTIES:
        logger.info(
            "median rmse %s: AL=%.4g random=%.4g -> %s",
            prop, median_al[prop], median_rnd[prop],
            "AL wins" if report.al_wins[prop] else "random wins",
        )
    logger.info("comparison complete in %.1fs, report at %s", time.monotonic() - t_start, path)
    return report


# -- standalone fit/predict/evaluate (CLI building blocks) --------------------


def predict_properties(
    train: thermo.Dataset,
    molecule_ids: Sequence[str],
    config: PipelineConfig,
    sources: tuple[str, str] = ("the training data", "the query"),
) -> tuple[gpr.Rows, np.ndarray]:
    """Fit on oracle data and predict each molecule's properties on its
    oracle temperature grid, as :meth:`thermo.Dataset.rows` gives them.
    Molecules are keyed by canonical SMILES however spelled; ValueError
    (:func:`canonical_ids`) if the training data or the query names a
    molecule twice, calling that input by its entry of ``sources``."""
    train = replace(train, ids=canonical_ids(train.ids, sources[0]))
    query_keys = canonical_ids(molecule_ids, sources[1])
    calc = MgkCalculator(config.kernel)
    calc.register_canonical(sorted(train.ids) + list(query_keys))
    try:
        model = _fit_on_series(train, calc, config)
        grids = thermo.descriptors_and_grids(query_keys)[1]
        molecule = np.repeat(np.arange(len(query_keys)), thermo.GRID_POINTS)
        queries = gpr.Rows(query_keys, molecule, grids.ravel())
        return queries, model.predict_mean(queries)
    finally:
        _log_kernel_work(calc)


def write_predictions(path: str, rows: gpr.Rows, values: np.ndarray) -> int:
    """Write the rows of a prediction file atomically, rendered a chunk at a
    time as they are written (:func:`csv_table`); returns their count."""
    columns = [list(map(csv_field, rows.molecules)), rows.temperature, *np.asarray(values).T]
    write_csv(path, PREDICTION_HEADER, csv_table(rows.molecule, columns))
    return len(rows)


def read_predictions(path: str) -> tuple[gpr.Rows, np.ndarray]:
    """The rows and property matrix of a prediction file; ValueError naming
    the file and the line of a malformed row (:func:`csv_rows`), or of the
    first row in file order that repeats an earlier one."""
    index: dict[str, int] = {}  # each molecule's index, in order of first appearance
    table = np.array([
        (index.setdefault(smiles, len(index)), line, *row)
        for line, smiles, row in csv_rows(path, PREDICTION_HEADER)
    ], dtype=float).reshape(-1, 6)
    rows, lines = gpr.Rows(tuple(index), table[:, 0], table[:, 2]), table[:, 1].astype(int)
    # a stable sort on (molecule, temperature): a repeat follows, in file
    # order, the rows it repeats
    order = np.lexsort((rows.temperature, rows.molecule))
    m, t = rows.molecule[order], rows.temperature[order]
    repeats = order[1:][(m[1:] == m[:-1]) & (t[1:] == t[:-1])]
    if repeats.size:
        r = int(repeats.min())  # the first repeat in file order
        mol, temperature = rows.molecule[r], float(rows.temperature[r])
        first = lines[np.argmax((rows.molecule == mol) & (rows.temperature == temperature))]
        what = f"{rows.molecules[mol]} at {temperature!r} K repeats line {first}"
        raise row_error(path, lines[r], what)
    return rows, table[:, 3:]


def evaluate_predictions(
    rows: gpr.Rows, predictions: np.ndarray, truths: thermo.Dataset
) -> dict[str, Metrics]:
    """Join predictions to the rows of the oracle data on molecule and grid
    temperature, and score each property; every prediction must find its
    truth."""
    if not len(rows):
        raise ValueError("no predictions to evaluate")
    index = {mol: i for i, mol in enumerate(truths.ids)}
    # each row's truth molecule; -1, a molecule the truth lacks, reads the
    # last grid, which holds no temperature
    truth = np.array([index.get(mol, -1) for mol in rows.molecules], np.int64)[rows.molecule]
    grid = np.vstack([truths.temperatures, np.full(thermo.GRID_POINTS, np.nan)])
    at = np.zeros(len(rows), np.int64)  # each row's grid position
    for column in grid.T:
        at += column[truth] < rows.temperature
    np.minimum(at, thermo.GRID_POINTS - 1, out=at)
    found = grid[truth, at] == rows.temperature
    if not found.all():
        r = int(np.argmin(found))
        key = (rows.molecules[rows.molecule[r]], float(rows.temperature[r]))
        raise ValueError(f"no truth row for {key}")
    return _metrics_by_property(predictions, truths.values[truth, at])
