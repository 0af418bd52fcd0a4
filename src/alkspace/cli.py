"""Command-line interface.

Usage: ``alkspace <command> [options]``. Every command accepts --config,
--out-dir, --seed and --verbose. Exit codes: 0 on success, 1 for
configuration problems, 2 when a stage fails at runtime.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import asdict, replace
from typing import TYPE_CHECKING

from .errors import ConfigError

if TYPE_CHECKING:
    from .pipeline import PipelineConfig

logger = logging.getLogger("alkspace")


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as config errors (exit 1)."""

    def error(self, message: str):  # noqa: D102 - argparse hook
        raise ConfigError(message)


def _common_flags() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON config file")
    common.add_argument("--out-dir", metavar="PATH", help="override the output directory")
    common.add_argument(
        "--seed", type=int, metavar="N",
        help="override the selection seed (the oracle seed for `simulate`)",
    )
    common.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="alkspace", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    common = _common_flags()

    p = sub.add_parser(
        "enumerate", parents=[common],
        help="list all alkane trees in a carbon range",
    )
    p.add_argument("min_carbons", type=int, nargs="?", help="defaults to the config value")
    p.add_argument("max_carbons", type=int, nargs="?", help="defaults to the config value")
    p.add_argument("--out", metavar="PATH", help="write ids here instead of stdout")
    p.add_argument("--count", action="store_true", help="print only the total")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser(
        "al", parents=[common],
        help="run uncertainty-driven selection at one threshold",
    )
    p.add_argument("--threshold", type=float, help="defaults to the first configured threshold")
    p.add_argument("--checkpoint", metavar="PATH", help="explicit checkpoint file")
    p.set_defaults(func=cmd_al)

    p = sub.add_parser(
        "al-continue", parents=[common],
        help="extend a finished selection at a lower threshold",
    )
    p.add_argument("--checkpoint", required=True, metavar="PATH", help="finished-stage checkpoint")
    p.add_argument("--threshold", required=True, type=float, help="new, strictly lower threshold")
    p.add_argument("--out", metavar="PATH", help="where to write the new checkpoint")
    p.set_defaults(func=cmd_al_continue)

    p = sub.add_parser(
        "simulate", parents=[common],
        help="generate oracle property series for listed molecules",
    )
    p.add_argument("--molecules", required=True, metavar="PATH", help="text file, one SMILES per line")
    p.add_argument("--out", required=True, metavar="PATH", help="dataset CSV to write")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "fit-predict", parents=[common],
        help="fit on a dataset and predict properties for listed molecules",
    )
    p.add_argument("--train", required=True, metavar="PATH", help="training dataset CSV")
    p.add_argument("--molecules", required=True, metavar="PATH", help="molecules to predict")
    p.add_argument("--out", required=True, metavar="PATH", help="prediction CSV to write")
    p.set_defaults(func=cmd_fit_predict)

    p = sub.add_parser(
        "evaluate", parents=[common],
        help="score a prediction CSV against a truth dataset",
    )
    p.add_argument("--pred", required=True, metavar="PATH", help="prediction CSV")
    p.add_argument("--truth", required=True, metavar="PATH", help="truth dataset CSV")
    p.add_argument("--out", metavar="PATH", help="also write the metrics JSON here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser(
        "compare-random", parents=[common],
        help="score the stage-1 selection against random controls",
    )
    p.set_defaults(func=cmd_compare_random)

    p = sub.add_parser(
        "run-all", parents=[common],
        help="full workflow: enumerate, select, simulate, fit, evaluate",
    )
    p.set_defaults(func=cmd_run_all)
    return parser


def _load_config(args: argparse.Namespace) -> PipelineConfig:
    from .pipeline import PipelineConfig

    config = PipelineConfig.from_json(args.config) if args.config else PipelineConfig()
    if args.out_dir:
        config = replace(config, out_dir=args.out_dir)
    if args.seed is not None:
        if args.command == "simulate":
            config = replace(config, oracle_seed=args.seed)
        else:
            config = replace(config, al_seed=args.seed)
    return config


# -- commands ----------------------------------------------------------------
# Each command imports the modules it runs, and loads the config itself.


def cmd_enumerate(args: argparse.Namespace) -> int:
    from ._atomic import write_atomic
    from .molspace import DEFAULT_MAX_CARBONS, enumerate_alkane_smiles

    lo, hi = args.min_carbons, args.max_carbons
    if args.config or lo is None or hi is None:
        config = _load_config(args)
        lo = config.min_carbons if lo is None else lo
        hi = config.max_carbons if hi is None else hi
    if not 1 <= lo <= hi <= DEFAULT_MAX_CARBONS:
        raise ConfigError(f"bad carbon range [{lo}, {hi}], at most C{DEFAULT_MAX_CARBONS}")
    ids = enumerate_alkane_smiles(lo, hi)
    if args.count:
        print(len(ids))
    elif args.out:
        write_atomic(args.out, "\n".join(ids) + "\n")
        logger.info("wrote %d molecules to %s", len(ids), args.out)
    else:
        for s in ids:
            print(s)
    logger.info("C%d..C%d: %d molecules", lo, hi, len(ids))
    return 0


def cmd_al(args: argparse.Namespace) -> int:
    from .pipeline import _Workspace

    config = _load_config(args)
    threshold = config.thresholds[0] if args.threshold is None else args.threshold
    config = replace(config, thresholds=(threshold,))
    ws = _Workspace(config)
    ids = ws.molecule_ids()
    path = args.checkpoint or ws.al_stage_path(1)
    with ws.kernel(ids) as calc:
        state = ws.al_stage(ids, calc, threshold, path)
    print(
        f"selected {len(state.selected)} of {len(ids)} molecules "
        f"at threshold {state.threshold} -> {path}"
    )
    return 0


def cmd_al_continue(args: argparse.Namespace) -> int:
    from .pipeline import _Workspace

    # a threshold outside (0, 1] is a config error, as for `al`
    config = replace(_load_config(args), thresholds=(args.threshold,))
    ws = _Workspace(config)
    ids = ws.molecule_ids()
    prev = ws.checkpoint(args.checkpoint, ids)
    if not args.threshold < prev.threshold:
        raise ConfigError(
            f"--threshold {args.threshold:g} must lie strictly below the "
            f"checkpoint's {prev.threshold:g}"
        )
    # named after the checkpoint it continues, so continuations of two
    # checkpoints of one directory at one threshold do not collide
    source = os.path.abspath(args.checkpoint)
    stem = os.path.splitext(os.path.basename(source))[0]
    out = args.out or os.path.join(
        os.path.dirname(source), f"al_continue_{stem}_U{args.threshold:g}.json",
    )
    with ws.kernel(ids) as calc:
        state = ws.al_stage(ids, calc, args.threshold, out, prev)
    print(
        f"selected {len(state.selected)} molecules "
        f"at threshold {args.threshold} -> {out}"
    )
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from . import pipeline, thermo

    config = _load_config(args)
    ids = pipeline.load_molecule_file(args.molecules)
    data = pipeline.simulate_molecules(
        ids, config.noise_sigma, config.oracle_seed, repr(args.molecules)
    )
    logger.info("oracle: simulated %d molecules", len(data))
    rows = thermo.write_dataset(args.out, data)
    n_fail = len(data) - int(data.passed.sum())
    print(f"wrote {rows} rows for {len(data)} molecules ({n_fail} QC failures) -> {args.out}")
    return 0


def cmd_fit_predict(args: argparse.Namespace) -> int:
    from . import pipeline, thermo

    config = _load_config(args)
    train = thermo.read_dataset(args.train)
    ids = pipeline.load_molecule_file(args.molecules)
    keys, values = pipeline.predict_properties(
        train, ids, config, (repr(args.train), repr(args.molecules))
    )
    n = pipeline.write_predictions(args.out, keys, values)
    print(f"wrote {n} predictions for {len(ids)} molecules -> {args.out}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    from . import pipeline, thermo
    from ._atomic import json_text, write_json

    _load_config(args)  # unused, but a bad --config still exits 1
    keys, values = pipeline.read_predictions(args.pred)
    truths = thermo.read_dataset(args.truth)
    metrics = pipeline.evaluate_predictions(keys, values, truths)
    payload = {k: asdict(m) for k, m in metrics.items()}
    print(json_text(payload), end="")
    if args.out:
        write_json(args.out, payload)
    return 0


def cmd_compare_random(args: argparse.Namespace) -> int:
    from . import pipeline

    config = _load_config(args)
    report = pipeline.compare_al_random(config)
    for prop in sorted(report.median_rmse_al):
        print(
            f"{prop}: median rmse AL={report.median_rmse_al[prop]:.6g} "
            f"random={report.median_rmse_random[prop]:.6g} "
            f"({'AL' if report.al_wins[prop] else 'random'} wins)"
        )
    print(f"comparison_{report.config_hash}.json in {config.out_dir}")
    return 0


def cmd_run_all(args: argparse.Namespace) -> int:
    from . import pipeline

    config = _load_config(args)
    report = pipeline.run_alms(config)
    for stage in report.stages:
        for prop in sorted(stage.metrics):
            m = stage.metrics[prop]
            r2 = "n/a" if m.r2 is None else f"{m.r2:.4f}"
            print(
                f"stage {stage.stage} U_t={stage.threshold:g} {prop}: "
                f"rmse={m.rmse:.6g} mae={m.mae:.6g} r2={r2} "
                f"(|S|={stage.n_selected}, rows={stage.n_train_rows})"
            )
    print(f"report_{report.config_hash}.json in {config.out_dir}")
    return 0


# -- entry -------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return int(args.func(args))
    except ConfigError as exc:
        logger.error("config error: %s", exc)
        return 1
    except Exception as exc:
        logger.error("stage failed: %s", exc, exc_info=args.verbose)
        return 2


if __name__ == "__main__":
    sys.exit(main())
