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
from ._atomic import read_csv, read_json, write_atomic, write_csv, write_json
from .errors import ConfigError
from .mgk import MgkCalculator, MgkHyperparameters, _require_real
from .molspace import (
    MolecularGraph,
    descriptors,
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


@dataclass(frozen=True)
class GprSettings:
    """Noise levels and the temperature length scale of the composite kernel."""

    al_noise: float = al.DEFAULT_AL_NOISE
    regression_noise: float = 1e-2
    temperature_length_scale: float = 50.0

    def __post_init__(self) -> None:
        for name, value in self.to_dict().items():
            _require_real(name, value, ConfigError)
        for name in ("al_noise", "regression_noise"):
            value = getattr(self, name)
            if value < 0.0:
                raise ConfigError(f"{name} must be non-negative, got {value}")
        if not self.temperature_length_scale > 0.0:
            raise ConfigError("temperature_length_scale must be positive")

    def to_dict(self) -> dict[str, float]:
        return asdict(self)


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
}

_INT_FIELDS = (
    "min_carbons", "max_carbons", "batch", "al_seed", "checkpoint_every",
    "oracle_seed", "n_test", "split_seed",
)


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a run depends on; two equal configs give identical outputs.

    The JSON form groups the fields into sections (chemical_space, kernel,
    gpr, active_learning, oracle, evaluation) plus a top-level out_dir.
    """

    min_carbons: int = 4
    max_carbons: int = 12
    kernel: MgkHyperparameters = field(default_factory=MgkHyperparameters)
    gpr: GprSettings = field(default_factory=GprSettings)
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
        if not (1 <= self.min_carbons <= self.max_carbons):
            raise ConfigError(
                f"carbon range must satisfy 1 <= min <= max, got "
                f"[{self.min_carbons}, {self.max_carbons}]"
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
        _require_real("noise_sigma", self.noise_sigma, ConfigError)
        if self.noise_sigma < 0:
            raise ConfigError("noise_sigma must be non-negative")
        if self.n_test < 0:
            raise ConfigError("n_test must be non-negative")
        if len(set(self.control_seeds)) != len(self.control_seeds):
            raise ConfigError("control_seeds must be distinct")

    # section dicts double as hash inputs for artifact names

    def _section(self, name: str) -> dict[str, object]:
        return {key: getattr(self, f) for key, f in _CONFIG_KEYS[name].items()}

    def space_dict(self) -> dict[str, object]:
        return self._section("chemical_space")

    def al_dict(self, n_stages: int | None = None) -> dict[str, object]:
        ts = self.thresholds if n_stages is None else self.thresholds[:n_stages]
        return {
            "thresholds": list(ts),
            "batch": self.batch,
            "seed": self.al_seed,
            "al_noise": self.gpr.al_noise,
        }

    def oracle_dict(self) -> dict[str, object]:
        return self._section("oracle")

    def evaluation_dict(self) -> dict[str, object]:
        return self._section("evaluation")

    def to_dict(self) -> dict[str, object]:
        out: dict[str, object] = {name: self._section(name) for name in _CONFIG_KEYS}
        out.update(kernel=self.kernel.to_dict(), gpr=self.gpr.to_dict(), out_dir=self.out_dir)
        return out

    @classmethod
    def from_dict(cls, raw: Mapping[str, object]) -> "PipelineConfig":
        unknown = set(raw) - {*_CONFIG_KEYS, "kernel", "gpr", "out_dir"}
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
            kwargs["gpr"] = GprSettings(**section("gpr"))  # type: ignore[arg-type]
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

    def to_json(self, path: str) -> None:
        write_json(path, self.to_dict())

    def content_hash(self) -> str:
        # out_dir names the workspace, it does not influence results
        d = self.to_dict()
        d.pop("out_dir")
        return _hash_obj(d)


# -- metrics ---------------------------------------------------------------


@dataclass(frozen=True)
class Metrics:
    """Error summary of one prediction column; r2 is None when the truth
    column has zero variance."""

    rmse: float
    mae: float
    r2: float | None

    @property
    def r2_defined(self) -> bool:
        return self.r2 is not None

    def to_dict(self) -> dict[str, object]:
        return {
            "rmse": self.rmse,
            "mae": self.mae,
            "r2": self.r2,
            "r2_defined": self.r2_defined,
        }


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

    def to_dict(self) -> dict[str, object]:
        return {
            "stage": self.stage,
            "threshold": self.threshold,
            "n_selected": self.n_selected,
            "n_train_rows": self.n_train_rows,
            "selected_fraction": self.selected_fraction,
            "metrics": {k: m.to_dict() for k, m in sorted(self.metrics.items())},
        }


@dataclass(frozen=True)
class EvalReport:
    """Per-property, per-stage error metrics of a full run.

    ``runtime_seconds`` is informational and excluded from the serialized
    form so that reruns of one config produce byte-identical report files.
    """

    config_hash: str
    n_molecules: int
    n_test_molecules: int
    n_test_rows: int
    stages: tuple[StageResult, ...]
    runtime_seconds: float | None = None

    def to_dict(self) -> dict[str, object]:
        return {
            "config_hash": self.config_hash,
            "n_molecules": self.n_molecules,
            "n_test_molecules": self.n_test_molecules,
            "n_test_rows": self.n_test_rows,
            "stages": [s.to_dict() for s in self.stages],
        }


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


def _graphs_for(ids: Sequence[str]) -> list[MolecularGraph]:
    return [parse_smiles(m) for m in ids]


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
    """Artifact paths and cached stage products for one configuration."""

    def __init__(self, config: PipelineConfig):
        self.config = config
        os.makedirs(config.out_dir, exist_ok=True)

    def path(self, name: str) -> str:
        return os.path.join(self.config.out_dir, name)

    # molecule list

    def molecule_ids(self) -> list[str]:
        """The configured carbon range, enumerated; an existing molecule
        file must hold exactly that list."""
        cfg = self.config
        path = self.path(f"molecules_{_hash_obj(cfg.space_dict())}.txt")
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
        cfg = self.config
        return _hash_obj({"space": cfg.space_dict(), "kernel": cfg.kernel.to_dict()})

    @contextmanager
    def kernel(self, ids: Sequence[str]) -> Iterator[MgkCalculator]:
        """A calculator with ``ids`` registered and every kernel cache
        segment ``kernel_<hash>_<digest>.npz`` of the workspace loaded, so a
        consumer solves only the pairs no segment holds.

        A body that finishes without error and solved pairs adds one
        segment of just those pairs, named by a digest of its bytes; no
        segment is ever rewritten. A segment that fails the checks of
        :meth:`MgkCalculator.load_cache` fails the command. The cross pairs
        requested, and the pairs, stacks and CG iterations solved, are
        logged on exit, never written to ``out_dir``.
        """
        calc = MgkCalculator(self.config.kernel)
        calc.register(_graphs_for(ids))
        prefix = f"kernel_{self.kernel_hash()}_"
        for name in sorted(os.listdir(self.config.out_dir)):
            if name.startswith(prefix) and name.endswith(".npz"):
                n = calc.load_cache(self.path(name))
                logger.info("loaded %d cached kernel entries from %s", n, name)
        try:
            yield calc
        finally:
            logger.info(
                "requested %d, solved %d kernel pairs in %d stacks (%d CG iterations)",
                calc.pairs_requested, calc.pairs_solved, calc.stacks_solved,
                calc.cg_iterations,
            )
        if calc.pairs_solved:
            rows, data = calc.segment(solved_only=True)
            path = self.path(f"{prefix}{hashlib.sha256(data).hexdigest()[:_HASH_CHARS]}.npz")
            write_atomic(path, data)
            logger.info("wrote %d kernel entries to %s", rows, path)

    # staged active learning

    def al_stage_hash(self, n_stages: int) -> str:
        cfg = self.config
        return _hash_obj(
            {
                "space": cfg.space_dict(),
                "kernel": cfg.kernel.to_dict(),
                "al": cfg.al_dict(n_stages),
            }
        )

    def al_stage_path(self, stage: int) -> str:
        return self.path(f"al_stage{stage}_{self.al_stage_hash(stage)}.json")

    def al_states(self, ids: Sequence[str], provider) -> list[al.AlState]:
        """Terminal state per threshold stage, reusing finished checkpoints."""
        states: list[al.AlState] = []
        for stage in range(1, len(self.config.thresholds) + 1):
            prev = states[-1] if states else None
            states.append(
                self.al_stage(ids, provider, stage, self.al_stage_path(stage), prev)
            )
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
        stage: int,
        path: str,
        prev: al.AlState | None = None,
    ) -> al.AlState:
        """Terminal state of selection stage ``stage`` (from 1), checkpointed
        at ``path``.

        An existing checkpoint must cover exactly ``ids`` and hold the
        configured threshold, batch and seed, or StageError names it and the
        field and it is left as it is; a finished one is reused and an
        unfinished one resumed. A checkpoint does not store the selection's
        GP noise, so that is not checked. Without one, stage 1 starts a run
        over ``ids`` and a later stage continues ``prev``, the terminal state
        of the stage before, at its own threshold.
        """
        cfg = self.config
        threshold = cfg.thresholds[stage - 1]
        kwargs = dict(
            noise=cfg.gpr.al_noise, checkpoint_path=path,
            checkpoint_every=cfg.checkpoint_every,
        )
        if os.path.exists(path):
            loaded = self.checkpoint(path, ids)
            for field, want in (
                ("threshold", threshold), ("batch", cfg.batch), ("seed", cfg.al_seed)
            ):
                got = getattr(loaded, field)
                if got != want:
                    raise StageError(
                        f"checkpoint {path} holds {field} {got!r}, but the "
                        f"configuration asks for {want!r}"
                    )
            if loaded.is_terminal:
                logger.info(
                    "stage %d: reusing finished selection %s (|S|=%d)",
                    stage, path, len(loaded.selected),
                )
                return loaded
            logger.info("stage %d: resuming from %s", stage, path)
            return al.al_resume(loaded, provider, **kwargs)
        t0 = time.monotonic()
        if prev is None:
            state = al.al_run(ids, threshold, cfg.batch, cfg.al_seed, provider, **kwargs)
        else:
            state = al.al_continue(prev, threshold, provider, **kwargs)
        logger.info(
            "stage %d (U_t=%g): |S|=%d after %d iterations, %.1fs",
            stage, threshold, len(state.selected), state.iteration,
            time.monotonic() - t0,
        )
        return state

    # oracle datasets

    def dataset_for(self, tag: str, stage_hash: str, ids: Sequence[str]) -> list[thermo.DatasetRow]:
        """Simulated dataset for the given molecules, cached as a CSV artifact.

        Row order follows ``ids``; the file carries all rows with their QC
        flag, training-side filtering happens at read time. A reused file
        whose rows name other molecules, or the same ones in another order,
        raises StageError.
        """
        cfg = self.config
        h = _hash_obj({"members": stage_hash, "oracle": cfg.oracle_dict()})
        path = self.path(f"dataset_{tag}_{h}.csv")
        if not os.path.exists(path):
            t0 = time.monotonic()
            series = simulate_molecules(ids, cfg.noise_sigma, cfg.oracle_seed)
            thermo.write_dataset(path, series)
            logger.info(
                "simulated %d molecules (%s) in %.1fs -> %s",
                len(ids), tag, time.monotonic() - t0, path,
            )
        rows = thermo.read_dataset(path)
        if list(dict.fromkeys(r.smiles for r in rows)) != list(ids):
            raise StageError(
                f"dataset {path} does not hold exactly the {len(ids)} requested "
                "molecules in order; delete it to rebuild"
            )
        return rows

    def test_set(
        self, ids: Sequence[str], final_selected: Sequence[str]
    ) -> tuple[list[str], list[thermo.DatasetRow]]:
        """The held-out molecules, a seeded sample of those no stage
        selected, and their dataset; ConfigError if too few are left."""
        cfg = self.config
        if cfg.n_test > len(ids) - len(final_selected):
            raise ConfigError(
                f"n_test={cfg.n_test} does not fit: {len(ids)} molecules minus "
                f"{len(final_selected)} selected leaves too few"
            )
        test_ids = split_test(ids, final_selected, cfg.n_test, cfg.split_seed)
        members = _hash_obj(
            {"al": self.al_stage_hash(len(cfg.thresholds)), "split": cfg.evaluation_dict()}
        )
        return test_ids, self.dataset_for("test", members, test_ids)


def simulate_molecules(
    ids: Sequence[str], noise_sigma: float, seed: int
) -> list[thermo.ThermoSeries]:
    """Oracle series for each molecule id; QC failures are logged."""
    out = []
    for m in ids:
        series = thermo.simulate_series(parse_smiles(m), noise_sigma, seed)
        if not series.qc.passed:
            logger.warning(
                "QC drop %s: failed %s", m, ",".join(series.qc.failed_checks())
            )
        out.append(series)
    return out


def property_table(rows: Sequence) -> tuple[list[tuple[str, float]], np.ndarray]:
    """(molecule, temperature) keys and the matrix of the properties, in
    ``PROPERTIES`` order, of dataset or prediction rows."""
    keys = [(r.smiles, r.temperature) for r in rows]
    values = np.array([[r.density, r.heat_capacity, r.hov] for r in rows], dtype=float)
    return keys, values


def training_arrays(
    rows: Sequence[thermo.DatasetRow],
) -> tuple[list[tuple[str, float]], np.ndarray]:
    """The :func:`property_table` of the QC-passing rows."""
    return property_table([r for r in rows if r.qc_pass])


def _fit_on_rows(rows: Sequence[thermo.DatasetRow], provider, cfg: PipelineConfig):
    keys, targets = training_arrays(rows)
    if not keys:
        raise StageError("no QC-passing training rows")
    kernel = gpr.TemperatureProductKernel(provider, cfg.gpr.temperature_length_scale)
    return gpr.fit(keys, targets, cfg.gpr.regression_noise, kernel)


def _metrics_by_property(
    predictions: np.ndarray, truths: np.ndarray
) -> dict[str, Metrics]:
    return {
        prop: evaluate(predictions[:, j], truths[:, j])
        for j, prop in enumerate(PROPERTIES)
    }


# -- the full staged run ------------------------------------------------------


def _check_n_test(n_test: int, ids: Sequence[str]) -> None:
    """Reject, before any kernel pair is solved, a test set that cannot fit."""
    if not 0 < n_test < len(ids):
        raise ConfigError(
            f"n_test={n_test} does not fit: it must be positive and below "
            f"the {len(ids)} molecules of the chemical space"
        )


def run_alms(config: PipelineConfig) -> EvalReport:
    """Enumerate, select in stages, simulate, fit, and score on a held-out set.

    Emits (all under config.out_dir, all named by config-section hashes):
    the molecule list, the kernel cache, one AL checkpoint and one training
    dataset per stage, the test dataset, parity CSVs, a summary CSV, and
    the report JSON. Returns the report with wall-clock runtime attached.
    """
    t_start = time.monotonic()
    ws = _Workspace(config)
    ids = ws.molecule_ids()
    _check_n_test(config.n_test, ids)
    with ws.kernel(ids) as calc:
        states = ws.al_states(ids, calc)

        final_selected = states[-1].selected
        test_ids, test_rows = ws.test_set(ids, final_selected)
        test_keys, test_truth = property_table(test_rows)

        # every stage predicts the test set against a subset of the final
        # selection: solve those pairs in one batch rather than per stage
        calc.block(test_ids, final_selected)
        stage_results: list[StageResult] = []
        parity: dict[tuple[int, str], list[tuple[str, float, float, float]]] = {}
        for i, state in enumerate(states):
            stage_no = i + 1
            train_rows = ws.dataset_for(
                f"stage{stage_no}", ws.al_stage_hash(stage_no), list(state.selected)
            )
            model = _fit_on_rows(train_rows, calc, config)
            t0 = time.monotonic()
            preds = model.predict_mean(test_keys)
            logger.info(
                "stage %d: predicted %d test rows in %.1fs",
                stage_no, len(test_keys), time.monotonic() - t0,
            )
            metrics = _metrics_by_property(preds, test_truth)
            n_train_rows = int(sum(1 for r in train_rows if r.qc_pass))
            stage_results.append(
                StageResult(
                    stage=stage_no,
                    threshold=state.threshold,
                    n_selected=len(state.selected),
                    n_train_rows=n_train_rows,
                    selected_fraction=len(state.selected) / len(ids),
                    metrics=metrics,
                )
            )
            for j, prop in enumerate(PROPERTIES):
                parity[(stage_no, prop)] = [
                    (k[0], k[1], float(test_truth[r, j]), float(preds[r, j]))
                    for r, k in enumerate(test_keys)
                ]
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
        n_test_molecules=len(test_ids),
        n_test_rows=len(test_keys),
        stages=tuple(stage_results),
        runtime_seconds=time.monotonic() - t_start,
    )
    report_path = ws.path(f"report_{report.config_hash}.json")
    write_json(report_path, report.to_dict())
    export_plot_data(report, parity, config.out_dir)
    logger.info(
        "run complete in %.1fs, report at %s", report.runtime_seconds, report_path
    )
    return report


# -- plot-data export ---------------------------------------------------------


def export_plot_data(
    report: EvalReport,
    predictions: Mapping[tuple[int, str], Sequence[tuple[str, float, float, float]]],
    out_dir: str,
) -> list[str]:
    """Parity CSV per (stage, property) plus one metrics summary CSV.

    ``predictions`` maps (stage, property) to (molecule, temperature,
    truth, prediction) rows. Deterministic inputs give identical bytes,
    so re-export is idempotent.
    """
    os.makedirs(out_dir, exist_ok=True)
    written: list[str] = []
    for (stage, prop), rows in sorted(predictions.items()):
        path = os.path.join(
            out_dir, f"parity_stage{stage}_{prop}_{report.config_hash}.csv"
        )
        body = [[mol, float(t), float(truth), float(pred)] for mol, t, truth, pred in rows]
        write_csv(path, ["smiles", "temperature_K", "truth", "prediction"], body)
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
    write_csv(summary_path, header, summary_rows)
    written.append(summary_path)
    return written


# -- AL vs random control -----------------------------------------------------


@dataclass(frozen=True)
class SeedComparison:
    """Both arms scored on the same evaluation rows for one control seed."""

    seed: int
    n_eval_rows: int
    al_metrics: Mapping[str, Metrics]
    random_metrics: Mapping[str, Metrics]

    def to_dict(self) -> dict[str, object]:
        return {
            "seed": self.seed,
            "n_eval_rows": self.n_eval_rows,
            "al": {k: m.to_dict() for k, m in sorted(self.al_metrics.items())},
            "random": {k: m.to_dict() for k, m in sorted(self.random_metrics.items())},
        }


@dataclass(frozen=True)
class ComparisonReport:
    """Stage-1 AL selection versus equally sized random selections."""

    config_hash: str
    n_train_molecules: int
    seeds: tuple[int, ...]
    per_seed: tuple[SeedComparison, ...]
    median_rmse_al: Mapping[str, float]
    median_rmse_random: Mapping[str, float]
    runtime_seconds: float | None = None

    def al_wins(self, prop: str) -> bool:
        return self.median_rmse_al[prop] <= self.median_rmse_random[prop]

    def to_dict(self) -> dict[str, object]:
        return {
            "config_hash": self.config_hash,
            "n_train_molecules": self.n_train_molecules,
            "seeds": list(self.seeds),
            "per_seed": [s.to_dict() for s in self.per_seed],
            "median_rmse_al": dict(sorted(self.median_rmse_al.items())),
            "median_rmse_random": dict(sorted(self.median_rmse_random.items())),
            "al_wins": {p: self.al_wins(p) for p in sorted(self.median_rmse_al)},
        }


def compare_al_random(config: PipelineConfig) -> ComparisonReport:
    """Score the stage-1 AL training set against random sets of equal size.

    Controls are drawn from the held-out test pool with dedicated seeds;
    both arms are evaluated on the test rows not used by the control, and
    per-property medians over seeds are reported.
    """
    if not config.control_seeds:
        raise ConfigError("compare_al_random needs at least one control seed")
    t_start = time.monotonic()
    ws = _Workspace(config)
    ids = ws.molecule_ids()
    _check_n_test(config.n_test, ids)
    with ws.kernel(ids) as calc:
        states = ws.al_states(ids, calc)
        s1 = states[0]

        if len(s1.selected) > config.n_test:
            raise ConfigError(
                f"cannot draw a {len(s1.selected)}-molecule control from a "
                f"{config.n_test}-molecule test pool; raise n_test"
            )
        test_ids, test_rows = ws.test_set(ids, states[-1].selected)
        rows_by_molecule: dict[str, list[thermo.DatasetRow]] = {}
        for r in test_rows:
            rows_by_molecule.setdefault(r.smiles, []).append(r)

        stage1_rows = ws.dataset_for("stage1", ws.al_stage_hash(1), list(s1.selected))
        al_model = _fit_on_rows(stage1_rows, calc, config)

        controls = []
        for seed in config.control_seeds:
            rng = np.random.default_rng(seed)
            picks = rng.choice(len(test_ids), size=len(s1.selected), replace=False)
            controls.append([test_ids[int(i)] for i in picks])
        # each seed fits on its control and predicts the rest of the test
        # pool: solve the pairs of all seeds in one batch
        calc.block(sorted(set().union(*controls)), test_ids)

        per_seed: list[SeedComparison] = []
        for seed, control_ids in zip(config.control_seeds, controls):
            control_set = set(control_ids)
            eval_ids = [m for m in test_ids if m not in control_set]
            if not eval_ids:
                raise ConfigError("control set swallowed the whole test pool")

            control_rows = [r for m in control_ids for r in rows_by_molecule[m]]
            random_model = _fit_on_rows(control_rows, calc, config)

            eval_rows = [r for m in eval_ids for r in rows_by_molecule[m]]
            eval_keys, truth = property_table(eval_rows)
            al_pred = al_model.predict_mean(eval_keys)
            rnd_pred = random_model.predict_mean(eval_keys)
            comparison = SeedComparison(
                seed=seed,
                n_eval_rows=len(eval_rows),
                al_metrics=_metrics_by_property(al_pred, truth),
                random_metrics=_metrics_by_property(rnd_pred, truth),
            )
            per_seed.append(comparison)
            for prop in PROPERTIES:
                logger.info(
                    "seed %d %s: rmse AL=%.4g random=%.4g",
                    seed, prop,
                    comparison.al_metrics[prop].rmse,
                    comparison.random_metrics[prop].rmse,
                )

    median_al = {
        p: float(np.median([s.al_metrics[p].rmse for s in per_seed]))
        for p in PROPERTIES
    }
    median_rnd = {
        p: float(np.median([s.random_metrics[p].rmse for s in per_seed]))
        for p in PROPERTIES
    }
    report = ComparisonReport(
        config_hash=config.content_hash(),
        n_train_molecules=len(s1.selected),
        seeds=tuple(config.control_seeds),
        per_seed=tuple(per_seed),
        median_rmse_al=median_al,
        median_rmse_random=median_rnd,
        runtime_seconds=time.monotonic() - t_start,
    )
    path = ws.path(f"comparison_{report.config_hash}.json")
    write_json(path, report.to_dict())
    for prop in PROPERTIES:
        logger.info(
            "median rmse %s: AL=%.4g random=%.4g -> %s",
            prop, median_al[prop], median_rnd[prop],
            "AL wins" if report.al_wins(prop) else "random wins",
        )
    return report


# -- standalone fit/predict/evaluate (CLI building blocks) --------------------


@dataclass(frozen=True)
class PredictionRow:
    smiles: str
    temperature: float
    density: float
    heat_capacity: float
    hov: float


def predict_properties(
    train_rows: Sequence[thermo.DatasetRow],
    molecule_ids: Sequence[str],
    config: PipelineConfig,
) -> list[PredictionRow]:
    """Fit on a dataset and predict all three properties for each molecule
    on its own oracle temperature grid. Molecules are keyed by canonical
    SMILES however the inputs spell them; each spelling is parsed once, and
    kernel values do not depend on which spelling's graph a key keeps."""
    graphs = {m: parse_smiles(m) for m in {r.smiles for r in train_rows}.union(molecule_ids)}
    canonical = {m: str(to_canonical_smiles(g)) for m, g in graphs.items()}
    train_graphs = {canonical[r.smiles]: graphs[r.smiles] for r in train_rows}
    train_rows = [replace(r, smiles=canonical[r.smiles]) for r in train_rows]
    query_graphs = [graphs[m] for m in molecule_ids]
    calc = MgkCalculator(config.kernel)
    calc.register([train_graphs[k] for k in sorted(train_graphs)])
    query_keys = calc.register(query_graphs)
    model = _fit_on_rows(train_rows, calc, config)
    out: list[PredictionRow] = []
    queries: list[tuple[str, float]] = []
    for g, key in zip(query_graphs, query_keys):
        tc = thermo.synth_critical_temperature(descriptors(g))
        for t in thermo.temperature_grid(tc):
            queries.append((key, float(t)))
    preds = model.predict_mean(queries)
    for (key, t), row in zip(queries, preds):
        out.append(
            PredictionRow(
                smiles=key,
                temperature=t,
                density=float(row[0]),
                heat_capacity=float(row[1]),
                hov=float(row[2]),
            )
        )
    return out


def write_predictions(path: str, rows: Sequence[PredictionRow]) -> int:
    body = [[r.smiles, r.temperature, r.density, r.heat_capacity, r.hov] for r in rows]
    write_csv(path, PREDICTION_HEADER, body)
    return len(rows)


def read_predictions(path: str) -> list[PredictionRow]:
    """The rows of a prediction file; ValueError naming the file, and the
    line for a malformed row (:func:`alkspace._atomic.read_csv`)."""
    return [PredictionRow(smiles, *values) for smiles, values in read_csv(path, PREDICTION_HEADER)]


def evaluate_predictions(
    predictions: Sequence[PredictionRow],
    truths: Sequence[thermo.DatasetRow],
) -> dict[str, Metrics]:
    """Join predictions to truth rows on (molecule, temperature) and score
    each property; every prediction must find its truth row."""
    truth_map = {(r.smiles, r.temperature): r for r in truths}
    keys, pm = property_table(predictions)
    if not keys:
        raise ValueError("no predictions to evaluate")
    missing = [k for k in keys if k not in truth_map]
    if missing:
        raise ValueError(f"no truth row for {missing[0]}")
    _, tm = property_table([truth_map[k] for k in keys])
    return _metrics_by_property(pm, tm)
