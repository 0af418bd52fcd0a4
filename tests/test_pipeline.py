"""End-to-end pipeline tests: config parsing, metrics, splits, artifacts."""

import contextlib
import csv
import dataclasses
import json
import logging
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

from alkspace import active_learning as al
from alkspace import pipeline, thermo
from alkspace._atomic import write_atomic
from alkspace.mgk import MgkCalculator
from alkspace.pipeline import (
    ComparisonReport,
    ConfigError,
    EvalReport,
    GprSettings,
    Metrics,
    PipelineConfig,
    PredictionRow,
    StageError,
    StageResult,
    compare_al_random,
    evaluate,
    evaluate_predictions,
    export_plot_data,
    load_molecule_file,
    predict_properties,
    read_predictions,
    run_alms,
    split_test,
    write_predictions,
)

RUN_RAW = {
    "chemical_space": {"min_carbons": 4, "max_carbons": 8},
    "kernel": {"lambda": 0.2},
    "active_learning": {"thresholds": [0.5, 0.4], "batch": 1000, "seed": 1},
    "evaluation": {"n_test": 20, "split_seed": 11, "control_seeds": [0, 1, 2]},
    "oracle": {"noise_sigma": 0.0, "seed": 7},
}


# -- configuration --------------------------------------------------------------


def test_empty_dict_gives_defaults():
    assert PipelineConfig.from_dict({}) == PipelineConfig()


def test_to_dict_roundtrip():
    cfg = PipelineConfig.from_dict({**RUN_RAW, "out_dir": "somewhere"})
    assert PipelineConfig.from_dict(cfg.to_dict()) == cfg


def test_json_roundtrip(tmp_path):
    cfg = PipelineConfig.from_dict(RUN_RAW)
    path = str(tmp_path / "cfg.json")
    cfg.to_json(path)
    assert PipelineConfig.from_json(path) == cfg


@pytest.mark.parametrize(
    "raw",
    [
        {"surprise": {}},
        {"chemical_space": {"min_carbons": 4, "min_c": 2}},
        {"active_learning": {"threshold": 0.5}},
        {"oracle": {"sigma": 1.0}},
        {"evaluation": {"ntest": 5}},
        {"kernel": {"qq": 0.1}},
        {"gpr": {"noise": 0.1}},
        {"kernel": 3},
        {"active_learning": {"thresholds": []}},
        {"active_learning": {"thresholds": [0.4, 0.5]}},
        {"active_learning": {"thresholds": [0.5, 0.5]}},
        {"active_learning": {"thresholds": [0.0]}},
        {"active_learning": {"thresholds": [1.5]}},
        {"active_learning": {"batch": 0}},
        {"active_learning": {"checkpoint_every": 0}},
        {"chemical_space": {"min_carbons": 9, "max_carbons": 4}},
        {"chemical_space": {"min_carbons": 0}},
        {"oracle": {"noise_sigma": -0.5}},
        {"evaluation": {"n_test": -1}},
        {"evaluation": {"control_seeds": [1, 1]}},
        {"kernel": {"q": 2.0}},
        {"gpr": {"al_noise": -1.0}},
        {"gpr": {"temperature_length_scale": 0.0}},
        {"chemical_space": {"max_carbons": 8.0}},
        {"active_learning": {"seed": True}},
        {"active_learning": {"checkpoint_every": 2.5}},
        {"oracle": {"seed": "7"}},
        {"evaluation": {"split_seed": 1.0}},
        {"evaluation": {"control_seeds": [0, 1.5]}},
        {"kernel": {"fp_max_iters": True}},
        {"active_learning": {"thresholds": [True]}},
    ],
)
def test_bad_configs_are_rejected(raw):
    with pytest.raises(ConfigError):
        PipelineConfig.from_dict(raw)


@pytest.mark.parametrize("value", [True, math.nan, math.inf, -math.inf, "0.1", None])
@pytest.mark.parametrize(
    "section, key",
    [("oracle", "noise_sigma"), ("active_learning", "thresholds"), ("gpr", "al_noise"),
     ("gpr", "regression_noise"), ("gpr", "temperature_length_scale"),
     ("kernel", "q"), ("kernel", "fp_tolerance"), ("kernel", "lambda")],
)
def test_a_float_config_field_must_be_a_finite_number(section, key, value):
    if key == "lambda" and value in (None, math.inf):
        # a null lambda is infinity, which disables the size damping
        assert PipelineConfig.from_dict({section: {key: value}}).kernel.lambda_ == math.inf
        return
    if key == "thresholds":
        value = [0.5, value]
    with pytest.raises(ConfigError, match="must be a finite number"):
        PipelineConfig.from_dict({section: {key: value}})


@pytest.mark.parametrize("field", ["al_noise", "regression_noise", "temperature_length_scale"])
def test_gpr_settings_reject_a_bool(field):
    with pytest.raises(ConfigError, match=f"{field} must be a finite number"):
        GprSettings(**{field: True})


def test_threshold_of_one_is_allowed():
    cfg = PipelineConfig.from_dict({"active_learning": {"thresholds": [1.0, 0.5]}})
    assert cfg.thresholds == (1.0, 0.5)


def test_from_json_failure_modes(tmp_path):
    with pytest.raises(ConfigError):
        PipelineConfig.from_json(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        PipelineConfig.from_json(str(bad))
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]\n")
    with pytest.raises(ConfigError):
        PipelineConfig.from_json(str(arr))


def test_content_hash_ignores_out_dir_but_not_parameters():
    a = PipelineConfig.from_dict({**RUN_RAW, "out_dir": "x"})
    b = PipelineConfig.from_dict({**RUN_RAW, "out_dir": "y"})
    assert a.content_hash() == b.content_hash()
    assert len(a.content_hash()) == 12
    c = dataclasses.replace(a, batch=777)
    assert c.content_hash() != a.content_hash()


def test_gpr_settings_defaults():
    s = GprSettings()
    assert (s.al_noise, s.regression_noise, s.temperature_length_scale) == (
        1e-4,
        1e-2,
        50.0,
    )


# -- metrics ---------------------------------------------------------------------


def test_evaluate_perfect_predictions():
    m = evaluate([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert (m.rmse, m.mae, m.r2) == (0.0, 0.0, 1.0)
    assert m.r2_defined


def test_evaluate_constant_truth_leaves_r2_undefined():
    m = evaluate([0.0, 2.0], [1.0, 1.0])
    assert m.rmse == pytest.approx(1.0)
    assert m.mae == pytest.approx(1.0)
    assert m.r2 is None
    assert not m.r2_defined
    assert m.to_dict() == {"rmse": 1.0, "mae": 1.0, "r2": None, "r2_defined": False}


def test_evaluate_mean_prediction_scores_zero_r2():
    m = evaluate([1.0, 1.0], [0.0, 2.0])
    assert m.r2 == pytest.approx(0.0)


def test_evaluate_hand_example():
    m = evaluate([1.0, 2.0, 3.0], [1.0, 2.0, 5.0])
    assert m.rmse == pytest.approx(math.sqrt(4.0 / 3.0))
    assert m.mae == pytest.approx(2.0 / 3.0)
    assert m.r2 == pytest.approx(7.0 / 13.0)


def test_evaluate_rejects_bad_shapes():
    with pytest.raises(ValueError):
        evaluate([], [])
    with pytest.raises(ValueError):
        evaluate([1.0], [1.0, 2.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_evaluate_rejects_non_finite_values(bad):
    with pytest.raises(ValueError, match="non-finite predictions, first at index 1"):
        evaluate([1.0, bad, 3.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="non-finite truths, first at index 2"):
        evaluate([1.0, 2.0, 3.0], [1.0, 2.0, bad])


def test_rmse_dominates_mae():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = rng.normal(size=30)
        t = rng.normal(size=30)
        m = evaluate(p, t)
        assert m.rmse >= m.mae


# -- test split -------------------------------------------------------------------


def test_split_test_basics():
    ccs = [f"m{i}" for i in range(30)]
    picked = split_test(ccs, ["m0", "m1"], 10, seed=3)
    assert len(picked) == len(set(picked)) == 10
    assert set(picked) <= set(ccs) - {"m0", "m1"}
    assert picked == split_test(ccs, ["m0", "m1"], 10, seed=3)
    assert picked != split_test(ccs, ["m0", "m1"], 10, seed=4)


def test_split_test_edge_cases():
    ccs = ["a", "b", "c"]
    assert split_test(ccs, [], 0, seed=1) == []
    with pytest.raises(ValueError):
        split_test(ccs, ["a"], 3, seed=1)
    with pytest.raises(ValueError):
        split_test(ccs, [], -1, seed=1)


# -- small file helpers -------------------------------------------------------------


def test_load_molecule_file(tmp_path):
    path = tmp_path / "mols.txt"
    path.write_text("CCCC\n\n  \nCCCCC\n")
    assert load_molecule_file(str(path)) == ["CCCC", "CCCCC"]
    empty = tmp_path / "empty.txt"
    empty.write_text("\n\n")
    with pytest.raises(ValueError):
        load_molecule_file(str(empty))


def test_write_dataset_atomic_matches_plain_write(tmp_path):
    series = pipeline.simulate_molecules(["CCCC", "CCCCC"], 0.0, 7)
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    written = thermo.write_dataset(a, series)
    with open(b, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(thermo.DATASET_HEADER)
        for s in series:
            for r in s.records:
                writer.writerow(
                    [r.molecule_id, repr(r.temperature), repr(r.pressure), repr(r.density),
                     repr(r.heat_capacity), repr(r.hov), "1" if s.qc.passed else "0"]
                )
    assert written == 2 * thermo.GRID_POINTS
    with open(a, "rb") as fa, open(b, "rb") as fb:
        assert fa.read() == fb.read()
    assert sorted(os.listdir(tmp_path)) == ["a.csv", "b.csv"]


@pytest.mark.parametrize("content", ["text\n", b"\x00bytes"], ids=["text", "bytes"])
def test_atomic_writes_get_the_mode_the_umask_allows(tmp_path, content):
    old = os.umask(0o022)
    try:
        write_atomic(str(tmp_path / "a"), content)
        al.save_checkpoint(al.al_init(["CCCC", "CCCCC"], 0.5, 10, 1), str(tmp_path / "b"))
    finally:
        os.umask(old)
    for name in ("a", "b"):
        assert (tmp_path / name).stat().st_mode & 0o777 == 0o644
    assert sorted(os.listdir(tmp_path)) == ["a", "b"]


def test_a_failed_atomic_write_leaves_nothing(tmp_path, monkeypatch):
    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    target = tmp_path / "a"
    with pytest.raises(OSError, match="disk full"):
        write_atomic(str(target), "partial")
    assert os.listdir(tmp_path) == []
    target.write_text("old")
    with pytest.raises(OSError):
        write_atomic(str(target), "partial")
    assert os.listdir(tmp_path) == ["a"] and target.read_text() == "old"


def test_training_arrays_filters_qc_failures():
    rows = [
        thermo.DatasetRow("CCCC", 200.0, 1.0, 600.0, 150.0, 20.0, True),
        thermo.DatasetRow("CCCC", 210.0, 1.0, 40.0, 150.0, 20.0, False),
    ]
    keys, targets = pipeline.training_arrays(rows)
    assert keys == [("CCCC", 200.0)]
    assert targets.shape == (1, 3)
    assert targets[0, 0] == 600.0


# -- plot-data export -----------------------------------------------------------------


def _tiny_report() -> EvalReport:
    metrics = {
        "density": Metrics(1.5, 1.0, 0.9),
        "heat_capacity": Metrics(2.5, 2.0, None),
        "hov": Metrics(0.5, 0.4, 0.99),
    }
    stage = StageResult(
        stage=1,
        threshold=0.5,
        n_selected=2,
        n_train_rows=32,
        selected_fraction=0.1,
        metrics=metrics,
    )
    return EvalReport("abcdef123456", 20, 4, 64, (stage,))


def test_export_plot_data_layout_and_idempotence(tmp_path):
    report = _tiny_report()
    preds = {
        (1, prop): [("CCCC", 200.0, 600.0, 601.0), ("CCCCC", 210.0, 620.0, 618.0)]
        for prop in pipeline.PROPERTIES
    }
    out = str(tmp_path)
    written = export_plot_data(report, preds, out)
    assert len(written) == 4  # three parity files and the summary
    for path in written:
        assert os.path.exists(path)
    parity = os.path.join(out, "parity_stage1_density_abcdef123456.csv")
    lines = Path(parity).read_text().splitlines()
    assert lines[0] == "smiles,temperature_K,truth,prediction"
    assert len(lines) == 3
    summary = os.path.join(out, f"summary_{report.config_hash}.csv")
    rows = Path(summary).read_text().splitlines()
    assert len(rows) == 4
    hc = next(r for r in rows if r.startswith("heat_capacity"))
    assert hc.endswith(",")  # undefined r2 is an empty cell
    before = {p: Path(p).read_bytes() for p in written}
    export_plot_data(report, preds, out)
    after = {p: Path(p).read_bytes() for p in written}
    assert before == after


# -- prediction file round-trip ----------------------------------------------------------


def test_prediction_roundtrip(tmp_path):
    rows = [
        PredictionRow("CCCC", 200.0, 601.25, 150.5, 22.125),
        PredictionRow("CC(C)C", 210.1, 598.0, 149.0, 21.5),
    ]
    path = str(tmp_path / "pred.csv")
    assert write_predictions(path, rows) == 2
    assert read_predictions(path) == rows


def test_read_predictions_rejects_foreign_header(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="unrecognized header"):
        read_predictions(str(path))
    # malformed rows are named by file and line
    header = ",".join(pipeline.PREDICTION_HEADER)
    for row, problem in [
        ("CCCC,200.0,600.0,150.0", "4 fields, expected 5"),
        ("CCCC,200.0,600.0,150.0,20.0,1", "6 fields, expected 5"),
        ("CCCC,200.0,600.0,x,20.0", "could not convert"),
        ("CCCC,200.0,-inf,150.0,20.0", "non-finite value"),
    ]:
        path.write_text(f"{header}\n{row}\n")
        with pytest.raises(ValueError, match=re.escape(f"{str(path)!r} line 2: {problem}")):
            read_predictions(str(path))


def test_evaluate_predictions_joins_on_molecule_and_temperature():
    truth = [
        thermo.DatasetRow("CCCC", 200.0, 1.0, 600.0, 150.0, 20.0, True),
        thermo.DatasetRow("CCCC", 210.0, 1.0, 595.0, 151.0, 19.5, True),
    ]
    preds = [
        PredictionRow("CCCC", 200.0, 600.0, 150.0, 20.0),
        PredictionRow("CCCC", 210.0, 595.0, 151.0, 19.5),
    ]
    metrics = evaluate_predictions(preds, truth)
    assert set(metrics) == set(pipeline.PROPERTIES)
    assert metrics["density"].rmse == 0.0
    with pytest.raises(ValueError):
        evaluate_predictions([PredictionRow("CCCC", 999.0, 0, 0, 0)], truth)
    with pytest.raises(ValueError):
        evaluate_predictions([], truth)


def test_predict_properties_covers_each_oracle_grid(tmp_path):
    cfg = PipelineConfig.from_dict(
        {"kernel": {"lambda": 0.2}, "out_dir": str(tmp_path)}
    )
    train_series = pipeline.simulate_molecules(["CCCC", "CCCCC", "CCCCCC"], 0.0, 7)
    train_path = str(tmp_path / "train.csv")
    thermo.write_dataset(train_path, train_series)
    train_rows = thermo.read_dataset(train_path)
    out = predict_properties(train_rows, ["CC(C)C"], cfg)
    assert len(out) == thermo.GRID_POINTS
    from alkspace.molspace import descriptors, parse_smiles

    tc = thermo.synth_critical_temperature(descriptors(parse_smiles("CC(C)C")))
    expected = thermo.temperature_grid(tc)
    assert [r.temperature for r in out] == pytest.approx(expected)
    assert out == predict_properties(train_rows, ["CC(C)C"], cfg)


def test_predict_properties_parses_each_spelling_once(tmp_path, monkeypatch):
    """Inputs spelled with other vertex numberings predict the bytes that
    their canonical spellings do, and each distinct spelling is parsed
    exactly once."""
    from alkspace.molspace import parse_smiles, to_canonical_smiles

    cfg = PipelineConfig.from_dict({"kernel": {"lambda": 0.2}})
    respell = {"CCCCCC": "C(C)CCCC", "CC(C)CCC": "C(CCC)(C)C", "CCC(C)(C)C": "C(C)(C)(C)CC"}
    queries = ["C(CC)(C)CCCC", "CC(C)C(C)C", "CCCCCC"]
    canonical = {s: str(to_canonical_smiles(parse_smiles(s))) for s in [*respell, *queries]}
    assert all(canonical[s] != s for s in queries)
    train_path = str(tmp_path / "train.csv")
    thermo.write_dataset(train_path, pipeline.simulate_molecules(list(respell), 0.0, 7))
    train_rows = thermo.read_dataset(train_path)

    def predicted(rows, molecules, name):
        path = tmp_path / f"{name}.csv"
        write_predictions(str(path), predict_properties(rows, molecules, cfg))
        return path.read_bytes()

    expected = predicted(train_rows, [canonical[q] for q in queries], "canonical")
    by_canonical = {canonical[s]: respelled for s, respelled in respell.items()}
    respelled_rows = [dataclasses.replace(r, smiles=by_canonical[r.smiles]) for r in train_rows]
    parsed: list[str] = []

    def counting_parse(smiles):
        parsed.append(smiles)
        return parse_smiles(smiles)

    monkeypatch.setattr(pipeline, "parse_smiles", counting_parse)
    assert predicted(respelled_rows, queries, "respelled") == expected
    assert sorted(parsed) == sorted({*respell.values(), *queries})


# -- the staged run -------------------------------------------------------------------


@pytest.fixture(scope="module")
def staged_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("ws")
    cfg = PipelineConfig.from_dict({**RUN_RAW, "out_dir": str(out)})
    report = run_alms(cfg)
    return cfg, report


def _workspace_bytes(out_dir: str) -> dict[str, bytes]:
    return {
        name: Path(out_dir, name).read_bytes()
        for name in sorted(os.listdir(out_dir))
    }


def test_run_writes_the_full_artifact_set(staged_run):
    cfg, report = staged_run
    names = set(os.listdir(cfg.out_dir))
    h = report.config_hash
    assert f"report_{h}.json" in names
    assert f"summary_{h}.csv" in names
    for stage in (1, 2):
        for prop in pipeline.PROPERTIES:
            assert f"parity_stage{stage}_{prop}_{h}.csv" in names
    assert any(n.startswith("molecules_") for n in names)
    assert any(n.startswith("kernel_") for n in names)
    assert any(n.startswith("al_stage1_") for n in names)
    assert any(n.startswith("al_stage2_") for n in names)
    assert any(n.startswith("dataset_stage1_") for n in names)
    assert any(n.startswith("dataset_test_") for n in names)
    assert not any(n.startswith(".tmp") for n in names)


def test_report_invariants(staged_run):
    cfg, report = staged_run
    assert report.n_molecules == 37  # C4 through C8
    assert report.n_test_molecules == cfg.n_test
    assert report.n_test_rows == cfg.n_test * thermo.GRID_POINTS
    assert [s.threshold for s in report.stages] == list(cfg.thresholds)
    assert [s.stage for s in report.stages] == [1, 2]
    sizes = [s.n_selected for s in report.stages]
    assert sizes[0] <= sizes[1]
    assert all(0 < s.n_selected < report.n_molecules for s in report.stages)
    for s in report.stages:
        assert s.selected_fraction == s.n_selected / report.n_molecules
        # noiseless oracle passes QC everywhere
        assert s.n_train_rows == s.n_selected * thermo.GRID_POINTS
        assert set(s.metrics) == set(pipeline.PROPERTIES)
        for m in s.metrics.values():
            assert m.rmse > 0.0 and m.r2_defined
    assert report.runtime_seconds is not None


def test_report_file_matches_returned_report(staged_run):
    cfg, report = staged_run
    path = os.path.join(cfg.out_dir, f"report_{report.config_hash}.json")
    on_disk = json.loads(Path(path).read_text())
    assert on_disk == report.to_dict()
    assert "runtime_seconds" not in on_disk


def test_rerun_reuses_artifacts_and_is_byte_stable(staged_run, caplog):
    cfg, report = staged_run
    before = _workspace_bytes(cfg.out_dir)
    reused = [
        n
        for n in before
        if n.startswith(("molecules_", "kernel_", "al_stage", "dataset_"))
    ]
    assert reused
    stamps = {
        n: os.stat(os.path.join(cfg.out_dir, n)).st_mtime_ns for n in reused
    }
    with caplog.at_level(logging.INFO, logger="alkspace.pipeline"):
        second = run_alms(cfg)
    assert any(m.endswith(", solved 0 kernel pairs in 0 stacks (0 CG iterations)") for m in caplog.messages)
    assert second.to_dict() == report.to_dict()
    after = _workspace_bytes(cfg.out_dir)
    assert before == after
    for n in reused:  # inputs are reused, not rebuilt
        assert os.stat(os.path.join(cfg.out_dir, n)).st_mtime_ns == stamps[n]


def test_oversized_test_pool_is_rejected(staged_run):
    cfg, report = staged_run
    bad = dataclasses.replace(cfg, n_test=report.n_molecules)
    with pytest.raises(ConfigError):
        run_alms(bad)


class _Interrupt(Exception):
    pass


def plant_mid_run_checkpoint(ws, ids, path):
    """Run stage 1 with a checkpoint after every step and stop it from
    on_step at the second step, as if the process had died; returns the
    durable (first-step) checkpoint."""
    cfg = ws.config

    def die(state):
        if state.iteration == 2:
            raise _Interrupt

    with ws.kernel(ids) as calc, pytest.raises(_Interrupt):
        al.al_run(
            ids, cfg.thresholds[0], cfg.batch, cfg.al_seed, calc,
            noise=cfg.gpr.al_noise, checkpoint_path=path, checkpoint_every=1,
            on_step=die,
        )
    state = al.load_checkpoint(path)
    assert state.iteration == 1 and not state.is_terminal
    return state


def test_interrupted_selection_is_resumed_not_trusted(staged_run, tmp_path):
    cfg_clean, clean_report = staged_run
    cfg = dataclasses.replace(cfg_clean, out_dir=str(tmp_path))
    ws = pipeline._Workspace(cfg)
    ckpt = ws.al_stage_path(1)
    plant_mid_run_checkpoint(ws, ws.molecule_ids(), ckpt)

    report = run_alms(cfg)
    assert al.load_checkpoint(ckpt).is_terminal
    assert report.to_dict() == clean_report.to_dict()


def test_a_stage_that_starts_with_an_empty_pool_writes_its_checkpoint(tmp_path):
    # stage 1 selects all five C4..C5 molecules, so stage 2 has no pool
    raw = {
        **RUN_RAW,
        "chemical_space": {"min_carbons": 4, "max_carbons": 5},
        "active_learning": {"thresholds": [0.1, 0.05], "batch": 10, "seed": 1},
        "out_dir": str(tmp_path),
    }
    ws = pipeline._Workspace(PipelineConfig.from_dict(raw))
    ids = ws.molecule_ids()
    with ws.kernel(ids) as calc:
        first, second = ws.al_states(ids, calc)
    assert set(first.selected) == set(ids)
    assert second.selected == first.selected and second.threshold == 0.05
    path = ws.al_stage_path(2)
    assert al.load_checkpoint(path) == second

    stamp = os.stat(path).st_mtime_ns
    with ws.kernel(ids) as calc:
        assert ws.al_states(ids, calc) == [first, second]
    assert calc.pairs_solved == 0
    assert os.stat(path).st_mtime_ns == stamp


def test_comparison_reuses_the_workspace(staged_run):
    cfg, report = staged_run
    before = _workspace_bytes(cfg.out_dir)
    stamps = {n: os.stat(os.path.join(cfg.out_dir, n)).st_mtime_ns for n in before}
    comparison = compare_al_random(cfg)
    for name, data in before.items():  # the kernel cache is read, never rewritten
        path = os.path.join(cfg.out_dir, name)
        if not name.startswith("comparison_"):
            assert Path(path).read_bytes() == data
            assert os.stat(path).st_mtime_ns == stamps[name]
    assert isinstance(comparison, ComparisonReport)
    assert comparison.config_hash == report.config_hash
    assert comparison.n_train_molecules == report.stages[0].n_selected
    assert comparison.seeds == cfg.control_seeds
    n_eval = (cfg.n_test - comparison.n_train_molecules) * thermo.GRID_POINTS
    for per_seed in comparison.per_seed:
        assert per_seed.n_eval_rows == n_eval
        assert set(per_seed.al_metrics) == set(pipeline.PROPERTIES)
        assert set(per_seed.random_metrics) == set(pipeline.PROPERTIES)
    d = comparison.to_dict()
    assert set(d["al_wins"]) == set(pipeline.PROPERTIES)
    path = os.path.join(cfg.out_dir, f"comparison_{report.config_hash}.json")
    assert json.loads(Path(path).read_text()) == d


def test_lazy_kernel_matches_a_dense_oracle(staged_run, tmp_path, monkeypatch):
    cfg, _ = staged_run
    compare_al_random(cfg)
    lazy = _workspace_bytes(cfg.out_dir)

    class Dense:
        """Reads every entry from the full kernel matrix of the space."""

        def __init__(self, calc, ids):
            self.index = {m: i for i, m in enumerate(ids)}
            self.values = calc.block(ids, ids)

        def block(self, keys_a, keys_b):
            rows = [self.index[k] for k in keys_a]
            cols = [self.index[k] for k in keys_b]
            return self.values[np.ix_(rows, cols)]

        def diag(self, keys):
            return np.diagonal(self.values)[[self.index[k] for k in keys]]

    @contextlib.contextmanager
    def dense(ws, ids):
        calc = MgkCalculator(ws.config.kernel)
        yield Dense(calc, calc.register(pipeline._graphs_for(ids)))

    monkeypatch.setattr(pipeline._Workspace, "kernel", dense)
    oracle_cfg = dataclasses.replace(cfg, out_dir=str(tmp_path))
    run_alms(oracle_cfg)
    compare_al_random(oracle_cfg)
    oracle = _workspace_bytes(str(tmp_path))

    # every checkpoint, dataset, prediction and report is bitwise the dense one's
    assert any(n.startswith("al_stage") for n in oracle)
    assert any(n.startswith("parity_") for n in oracle)
    assert not any(n.startswith("kernel_") for n in oracle)
    for name, data in oracle.items():
        assert lazy[name] == data, f"{name} differs from the dense oracle"
    segments = [n for n in lazy if n.startswith("kernel_")]
    n = len(pipeline._Workspace(cfg).molecule_ids())
    calc = MgkCalculator(cfg.kernel)
    rows = sum(calc.load_cache(os.path.join(cfg.out_dir, s)) for s in segments)
    assert 0 < rows < n * (n + 1) // 2


# -- reused artifacts are checked ----------------------------------------------------


def test_a_molecule_list_unlike_the_enumeration_is_rejected(tmp_path):
    cfg = PipelineConfig.from_dict({**RUN_RAW, "out_dir": str(tmp_path)})
    ws = pipeline._Workspace(cfg)
    ids = ws.molecule_ids()
    path = ws.path(f"molecules_{pipeline._hash_obj(cfg.space_dict())}.txt")
    assert ws.molecule_ids() == ids
    with open(path, "w") as fh:
        fh.write("\n".join(ids[:-5]) + "\n")
    with pytest.raises(StageError, match=os.path.basename(path)):
        ws.molecule_ids()
    with pytest.raises(StageError, match=os.path.basename(path)):
        run_alms(cfg)


def test_an_old_csv_kernel_cache_is_ignored(tmp_path):
    cfg = PipelineConfig.from_dict({**RUN_RAW, "out_dir": str(tmp_path)})
    ws = pipeline._Workspace(cfg)
    ids = ws.molecule_ids()[:6]
    old = tmp_path / f"kernel_{ws.kernel_hash()}.csv"
    old.write_text("alkspace-kernel-cache,4,x\nkey_a,key_b,value\nnot,a,number\n")
    before = old.read_bytes()
    with ws.kernel(ids) as calc:
        calc.block(ids, ids)
    assert calc.pairs_solved == len(ids) * (len(ids) + 1) // 2
    assert old.read_bytes() == before
    (segment,) = [n for n in os.listdir(tmp_path) if n.endswith(".npz")]
    assert segment.startswith(f"kernel_{ws.kernel_hash()}_")


def test_a_dataset_for_other_molecules_is_rejected(tmp_path):
    cfg = PipelineConfig.from_dict({**RUN_RAW, "out_dir": str(tmp_path)})
    ws = pipeline._Workspace(cfg)
    ids = ws.molecule_ids()[:3]
    rows = ws.dataset_for("probe", "h", ids)
    assert [r.smiles for r in rows][:: thermo.GRID_POINTS] == ids
    assert ws.dataset_for("probe", "h", ids) == rows
    (path,) = [ws.path(n) for n in os.listdir(tmp_path) if n.startswith("dataset_probe_")]
    for wanted in (ids[:2], ids[::-1], ws.molecule_ids()[:4]):
        with pytest.raises(StageError, match=os.path.basename(path)):
            ws.dataset_for("probe", "h", wanted)
