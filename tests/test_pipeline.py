"""End-to-end pipeline tests: config parsing, metrics, splits, artifacts."""

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import logging
import math
import os
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alkspace import active_learning as al
from alkspace import cli, gpr, mgk, molspace, pipeline, thermo
from alkspace._atomic import json_text, write_atomic, write_json
from alkspace.mgk import MgkCalculator
from alkspace.molspace import parse_smiles, to_canonical_smiles
from alkspace.pipeline import (
    ComparisonReport,
    ConfigError,
    EvalReport,
    Metrics,
    PipelineConfig,
    SeedComparison,
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

def _same(a: thermo.Dataset, b: thermo.Dataset) -> bool:
    """Whether two datasets hold the same ids and, bit for bit, arrays."""
    arrays = ("temperatures", "values", "failed")
    return a.ids == b.ids and all(getattr(a, f).tobytes() == getattr(b, f).tobytes() for f in arrays)


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
    write_json(path, cfg.to_dict())
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
        PipelineConfig(**{field: True})


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
    s = PipelineConfig()
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
    assert dataclasses.asdict(m) == {"rmse": 1.0, "mae": 1.0, "r2": None, "r2_defined": False}


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


# -- pinned artifact names and report bytes -------------------------------------------

# the example config of the README
README_RAW = {
    "chemical_space": {"min_carbons": 4, "max_carbons": 12},
    "kernel": {"q": 0.05, "lambda": 0.2},
    "gpr": {"al_noise": 1e-4, "regression_noise": 1e-2, "temperature_length_scale": 50.0},
    "active_learning": {"thresholds": [0.5, 0.4, 0.3], "batch": 1000, "seed": 1,
                        "checkpoint_every": 25},
    "oracle": {"noise_sigma": 0.0, "seed": 7},
    "evaluation": {"n_test": 200, "split_seed": 11, "control_seeds": [0, 1, 2, 3, 4]},
    "out_dir": "out",
}


def test_artifact_names_are_pinned(tmp_path):
    """A renamed config key or section renames every artifact of a
    workspace, which then rebuilds from scratch: the names of the README
    config are pinned."""
    cfg = PipelineConfig.from_dict({**README_RAW, "out_dir": str(tmp_path)})
    ws = pipeline._Workspace(cfg)
    assert cfg.content_hash() == "411a6ff2d139"
    assert ws.kernel_hash() == "c8c8a44a71e9"
    assert [ws.al_stage_hash(n) for n in (1, 2, 3)] == [
        "bef8b2a8d975", "b1d0e37483d6", "2c264c6a347e"
    ]


def _pinned_metrics(rmse, mae, r2):
    return {"mae": mae, "r2": r2, "r2_defined": r2 is not None, "rmse": rmse}


def test_report_bytes_are_pinned():
    """The report and comparison files of hand-built records: their keys,
    and the bytes json_text gives them."""
    stage_metrics = {
        "density": Metrics(1.5, 0.25, 0.875),
        "heat_capacity": Metrics(0.1, 0.0625, None),
        "hov": Metrics(2.0, 1.0, -0.5),
    }
    report = EvalReport(
        "0123456789ab", 37, 20, 320, (StageResult(1, 0.5, 9, 144, 9 / 37, stage_metrics),)
    )
    text = json_text(dataclasses.asdict(report))
    assert text == json_text({
        "config_hash": "0123456789ab", "n_molecules": 37, "n_test_molecules": 20,
        "n_test_rows": 320,
        "stages": [{
            "metrics": {
                "density": _pinned_metrics(1.5, 0.25, 0.875),
                "heat_capacity": _pinned_metrics(0.1, 0.0625, None),
                "hov": _pinned_metrics(2.0, 1.0, -0.5),
            },
            "n_selected": 9, "n_train_rows": 144, "selected_fraction": 9 / 37,
            "stage": 1, "threshold": 0.5,
        }],
    })
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "b32e4e0eb5fc176a"

    al_metrics = {
        "density": Metrics(1.0, 0.5, 0.9),
        "heat_capacity": Metrics(3.0, 2.0, 0.5),
        "hov": Metrics(0.5, 0.25, 0.99),
    }
    random_metrics = {
        "density": Metrics(2.0, 1.0, 0.8),
        "heat_capacity": Metrics(1.0, 0.5, None),
        "hov": Metrics(0.5, 0.25, 0.98),
    }
    comparison = ComparisonReport(
        "0123456789ab", 9, (0,), (SeedComparison(0, 176, al_metrics, random_metrics),),
        {"density": 1.0, "heat_capacity": 3.0, "hov": 0.5},
        {"density": 2.0, "heat_capacity": 1.0, "hov": 0.5},
    )
    text = json_text(dataclasses.asdict(comparison))
    assert text == json_text({
        "al_wins": {"density": True, "heat_capacity": False, "hov": True},
        "config_hash": "0123456789ab",
        "median_rmse_al": {"density": 1.0, "heat_capacity": 3.0, "hov": 0.5},
        "median_rmse_random": {"density": 2.0, "heat_capacity": 1.0, "hov": 0.5},
        "n_train_molecules": 9,
        "per_seed": [{
            "al": {
                "density": _pinned_metrics(1.0, 0.5, 0.9),
                "heat_capacity": _pinned_metrics(3.0, 2.0, 0.5),
                "hov": _pinned_metrics(0.5, 0.25, 0.99),
            },
            "n_eval_rows": 176,
            "random": {
                "density": _pinned_metrics(2.0, 1.0, 0.8),
                "heat_capacity": _pinned_metrics(1.0, 0.5, None),
                "hov": _pinned_metrics(0.5, 0.25, 0.98),
            },
            "seed": 0,
        }],
        "seeds": [0],
    })
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "81a561a4574d36f5"


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
        for mol, temps, values, passed in zip(
            series.ids, series.temperatures.tolist(), series.values.tolist(),
            series.passed.tolist(),
        ):
            for t, (density, cp, hov) in zip(temps, values):
                writer.writerow(
                    [mol, repr(t), repr(1.0), repr(density),
                     repr(cp), repr(hov), "1" if passed else "0"]
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


@pytest.mark.parametrize(
    "old", [None, b"", b"abc", b"abcdef", b"abcdefg", b"abcdXf", b"Xbcdef"],
    ids=["none", "empty", "prefix", "same", "longer", "late-difference", "early-difference"],
)
def test_an_atomic_write_of_pieces_leaves_only_a_file_of_their_bytes_untouched(tmp_path, old):
    target = tmp_path / "a"
    if old is not None:
        target.write_bytes(old)
    inode = os.stat(target).st_ino if old is not None else None
    write_atomic(str(target), iter(["ab", b"cd", "", "ef"]))
    assert target.read_bytes() == b"abcdef"
    assert os.listdir(tmp_path) == ["a"]
    assert (os.stat(target).st_ino == inode) == (old == b"abcdef")


def _fitted_on(series, **config):
    cfg = PipelineConfig.from_dict({"kernel": {"lambda": 0.2}, **config})
    calc = MgkCalculator(cfg.kernel)
    calc.register([parse_smiles(m) for m in series.ids])
    return pipeline._fit_on_series(series, calc, cfg)


def _failing(data: thermo.Dataset, gate: str, molecules) -> thermo.Dataset:
    """``data`` with ``gate`` failed for the molecules at ``molecules``."""
    failed = data.failed.copy()
    failed[molecules, thermo.QC_GATES.index(gate)] = True
    return dataclasses.replace(data, failed=failed)


def test_training_set_filters_qc_failures():
    data = pipeline.simulate_molecules(["CCCC", "CCCCC"], 0.0, 7)
    model = _fitted_on(_failing(data, "vapor", [1]))
    good = data.ids[0]
    assert model.training_keys == tuple((good, t) for t in data.temperatures[0].tolist())
    assert model.dual_weights.shape == (thermo.GRID_POINTS, 3)
    assert model.y_mean[0] == np.mean(data.values[0, :, 0].tolist())


def test_a_training_set_without_qc_passes_names_the_gates():
    series = pipeline.simulate_molecules(["CCCC", "CCCCC", "CC(C)C"], 0.0, 7)
    failed = _failing(_failing(series, "monotonic", [0, 1, 2]), "vapor", [0])
    with pytest.raises(StageError) as info:
        _fitted_on(failed)
    assert str(info.value) == (
        "no QC-passing training rows: 3 of 3 molecules failed QC "
        "(by gate: monotonic 3, vapor 1)"
    )
    with pytest.raises(StageError, match=r"failed QC \(by gate: monotonic 3, vapor 1\); "
                                         r"the oracle noise_sigma is 0.02$"):
        _fitted_on(failed, oracle={"noise_sigma": 0.02})
    with pytest.raises(StageError, match="0 of 0 molecules failed QC$"):
        _fitted_on(series.take(slice(0)))


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
    keys = [("CCCC", 200.0), ("CCCCC", 210.0)]
    truths = [[600.0, 620.0]] * len(pipeline.PROPERTIES)
    preds = [[[601.0, 618.0]] * len(pipeline.PROPERTIES)]
    out = str(tmp_path)
    written = export_plot_data(report, keys, truths, preds, out)
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
    export_plot_data(report, keys, truths, preds, out)
    after = {p: Path(p).read_bytes() for p in written}
    assert before == after


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
# what a CSV field may be given: floats, edge values among them, numpy
# float64 values (whose repr differs from their str) and ints
_NUMBERS = st.one_of(
    _FINITE, st.sampled_from([-0.0, 5e-324, 1e16, 0.1]),
    _FINITE.map(np.float64), st.integers(-(10**20), 10**20),
)
_LABELS = st.one_of(
    st.sampled_from(["CCCC", "a,b", 'say "x"', " lead", '","', "a\rb", "two\r\nlines"]),
    st.text(alphabet='C() ,"x\r\n', max_size=6),
)


def _csv_writer_bytes(header, rows) -> bytes:
    """The bytes of the csv module's default writer, the independent oracle
    of the hand-rendered artifacts."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(_LABELS, _NUMBERS), min_size=1, max_size=12),
    st.data(),
)
def test_artifact_text_is_what_csv_writer_writes(keys, data):
    n = len(keys)
    column = st.lists(_NUMBERS, min_size=n, max_size=n)
    truths = [data.draw(column) for _ in pipeline.PROPERTIES]
    n_stages = data.draw(st.integers(1, 2))
    preds = [[data.draw(column) for _ in pipeline.PROPERTIES] for _ in range(n_stages)]
    metric = st.builds(Metrics, _NUMBERS, _NUMBERS, st.one_of(st.none(), _NUMBERS))
    stages = tuple(
        StageResult(k + 1, data.draw(st.sampled_from([0.5, 1, np.float64(0.3)])),
                    data.draw(st.integers(0, 99)), 16, 0.25,
                    {prop: data.draw(metric) for prop in pipeline.PROPERTIES})
        for k in range(n_stages)
    )
    report = EvalReport("abcdef123456", 20, 4, n, stages)
    temps = data.draw(st.lists(st.one_of(
        st.floats(1.0, 1e300), st.floats(1.0, 1e300).map(np.float64), st.integers(1, 10**6),
    ), min_size=thermo.GRID_POINTS, max_size=thermo.GRID_POINTS, unique=True))
    labels = sorted({label for label, _ in keys})
    series = thermo.Dataset(
        tuple(labels),
        np.array([sorted(temps)] * len(labels), dtype=float),
        np.array([
            [data.draw(st.lists(_NUMBERS, min_size=3, max_size=3))
             for _ in range(thermo.GRID_POINTS)]
            for _ in labels
        ], dtype=float),
        np.array([[False, False, data.draw(st.booleans()), False] for _ in labels]),
    )
    values = np.array(data.draw(st.lists(
        st.lists(_NUMBERS, min_size=3, max_size=3), min_size=n, max_size=n,
    )), dtype=float).reshape(n, 3)
    with tempfile.TemporaryDirectory() as out:
        written = export_plot_data(report, keys, truths, preds, out)
        want = {}
        for stage, columns in zip(stages, preds):
            for prop, truth, pred in zip(pipeline.PROPERTIES, truths, columns):
                path = os.path.join(out, f"parity_stage{stage.stage}_{prop}_abcdef123456.csv")
                want[path] = _csv_writer_bytes(
                    ["smiles", "temperature_K", "truth", "prediction"],
                    [[label, t, y, p] for (label, t), y, p in zip(keys, truth, pred)],
                )
        want[os.path.join(out, "summary_abcdef123456.csv")] = _csv_writer_bytes(
            ["property", "stage", "threshold", "n_selected", "n_train_rows",
             "n_test_rows", "rmse", "mae", "r2"],
            [[prop, stage.stage, float(stage.threshold), stage.n_selected,
              stage.n_train_rows, n, m.rmse, m.mae, m.r2]
             for stage in stages for prop, m in sorted(stage.metrics.items())],
        )
        assert written == list(want)
        assert {path: Path(path).read_bytes() for path in written} == want

        dataset = os.path.join(out, "dataset.csv")
        assert thermo.write_dataset(dataset, series) == len(series) * thermo.GRID_POINTS
        assert Path(dataset).read_bytes() == _csv_writer_bytes(thermo.DATASET_HEADER, [
            [mol, t, 1.0, *v, "1" if passed else "0"]
            for mol, temps, values, passed in zip(
                series.ids, series.temperatures.tolist(), series.values.tolist(),
                series.passed.tolist(),
            )
            for t, v in zip(temps, values)
        ])

        predictions = os.path.join(out, "pred.csv")
        assert write_predictions(predictions, keys, values) == n
        assert Path(predictions).read_bytes() == _csv_writer_bytes(
            pipeline.PREDICTION_HEADER,
            [[label, t, *row] for (label, t), row in zip(keys, values.tolist())],
        )


# -- prediction file round-trip ----------------------------------------------------------


def test_prediction_roundtrip(tmp_path):
    keys = [("CCCC", 200.0), ("CC(C)C", 210.1)]
    values = np.array([[601.25, 150.5, 22.125], [598.0, 149.0, 21.5]])
    path = str(tmp_path / "pred.csv")
    assert write_predictions(path, keys, values) == 2
    got_keys, got = read_predictions(path)
    assert got_keys == keys
    assert got.tobytes() == values.tobytes()


def test_read_predictions_rejects_a_repeated_row(tmp_path):
    """A molecule's row at one temperature comes once: a repeat would be
    scored twice."""
    truth = pipeline.simulate_molecules(["CCCC", "CCCCC"], 0.0, 7)
    keys, values = truth.rows()
    path = tmp_path / "pred.csv"
    write_predictions(str(path), keys, values)
    lines = path.read_bytes().splitlines(keepends=True)
    # three rows of the file appended to it, as `cat` would
    path.write_bytes(b"".join(lines + lines[5:8]))
    with pytest.raises(ValueError, match=re.escape(
        f"{str(path)!r} line {len(lines) + 1}: {keys[4][0]} at {keys[4][1]!r} K repeats line 6"
    )):
        read_predictions(str(path))
    # the same temperature of another molecule is another row
    other = [(mol, keys[0][1]) for mol in truth.ids]
    write_predictions(str(path), other, values[:2])
    assert read_predictions(str(path))[0] == other


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
    truth = pipeline.simulate_molecules(["CCCC", "CCCCC"], 0.0, 7)
    # the second molecule's first grid points, then the first's, so the
    # join cannot lean on order
    temps = truth.temperatures.tolist()
    keys = [(truth.ids[j], temps[j][i]) for j in (1, 0) for i in (1, 0)]
    values = np.array([truth.values[j, i] for j in (1, 0) for i in (1, 0)])
    metrics = evaluate_predictions(keys, values, truth)
    assert set(metrics) == set(pipeline.PROPERTIES)
    assert metrics["density"].rmse == 0.0
    with pytest.raises(ValueError, match="no truth row"):
        evaluate_predictions([("CCCC", 999.0)], np.zeros((1, 3)), truth)
    with pytest.raises(ValueError, match="no predictions"):
        evaluate_predictions([], np.zeros((0, 3)), truth)


def test_predict_properties_covers_each_oracle_grid(tmp_path):
    cfg = PipelineConfig.from_dict(
        {"kernel": {"lambda": 0.2}, "out_dir": str(tmp_path)}
    )
    train_series = pipeline.simulate_molecules(["CCCC", "CCCCC", "CCCCCC"], 0.0, 7)
    train_path = str(tmp_path / "train.csv")
    thermo.write_dataset(train_path, train_series)
    train = thermo.read_dataset(train_path)
    keys, values = predict_properties(train, ["CC(C)C"], cfg)
    assert values.shape == (thermo.GRID_POINTS, 3)
    truth = pipeline.simulate_molecules(["CC(C)C"], 0.0, 7)
    assert keys == [(truth.ids[0], t) for t in truth.temperatures[0].tolist()]
    again = predict_properties(train, ["CC(C)C"], cfg)
    assert again[0] == keys and again[1].tobytes() == values.tobytes()


def test_predict_properties_parses_each_spelling_once(tmp_path, monkeypatch):
    """Inputs spelled with other vertex numberings predict the bytes that
    their canonical spellings do, and each distinct spelling is parsed
    exactly once."""
    cfg = PipelineConfig.from_dict({"kernel": {"lambda": 0.2}})
    respell = {"CCCCCC": "C(C)CCCC", "CC(C)CCC": "C(CCC)(C)C", "CCC(C)(C)C": "C(C)(C)(C)CC"}
    queries = ["C(CC)(C)CCCC", "CC(C)C(C)C", "CCCCCC"]
    canonical = {s: str(to_canonical_smiles(parse_smiles(s))) for s in [*respell, *queries]}
    assert all(canonical[s] != s for s in queries)
    train_path = str(tmp_path / "train.csv")
    thermo.write_dataset(train_path, pipeline.simulate_molecules(list(respell), 0.0, 7))
    train = thermo.read_dataset(train_path)

    def predicted(series, molecules, name):
        path = tmp_path / f"{name}.csv"
        write_predictions(str(path), *predict_properties(series, molecules, cfg))
        return path.read_bytes()

    expected = predicted(train, [canonical[q] for q in queries], "canonical")
    by_canonical = {canonical[s]: respelled for s, respelled in respell.items()}
    respelled = dataclasses.replace(train, ids=tuple(by_canonical[m] for m in train.ids))
    parsed: list[str] = []

    def counting_parse(smiles):
        parsed.append(smiles)
        return parse_smiles(smiles)

    monkeypatch.setattr(pipeline, "parse_smiles", counting_parse)
    assert predicted(respelled, queries, "respelled") == expected
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
    assert sorted(n.split("_")[1] for n in names if n.startswith("dataset_")) == [
        "stage2", "test"
    ]
    assert not any(n.startswith(".tmp") for n in names)


def test_the_training_dataset_is_the_last_stage_selection(staged_run):
    cfg, _ = staged_run
    names = os.listdir(cfg.out_dir)
    [dataset] = [n for n in names if n.startswith("dataset_stage")]
    [ckpt] = [n for n in names if n.startswith(f"al_stage{len(cfg.thresholds)}_")]
    assert dataset.startswith(f"dataset_stage{len(cfg.thresholds)}_")
    series = thermo.read_dataset(os.path.join(cfg.out_dir, dataset))
    final = al.load_checkpoint(os.path.join(cfg.out_dir, ckpt))
    assert list(series.ids) == list(final.selected)


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


def test_report_file_matches_returned_report(staged_run):
    cfg, report = staged_run
    path = os.path.join(cfg.out_dir, f"report_{report.config_hash}.json")
    assert Path(path).read_text() == json_text(dataclasses.asdict(report))


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
    assert any(m.endswith(", solved 0 kernel pairs in 0 stacks (0 CG iterations), built 0 graphs")
               for m in caplog.messages)
    assert second == report
    after = _workspace_bytes(cfg.out_dir)
    assert before == after
    for n in reused:  # inputs are reused, not rebuilt
        assert os.stat(os.path.join(cfg.out_dir, n)).st_mtime_ns == stamps[n]


def test_a_warm_run_all_parses_and_canonicalises_nothing(staged_run, tmp_path, monkeypatch, caplog):
    """run-all on a filled workspace registers the enumerated ids as they
    are: it parses and canonicalises no molecule and builds no graph."""
    cfg, _ = staged_run
    config = tmp_path / "config.json"
    config.write_text(json.dumps(RUN_RAW))

    def refuse(*args, **kwargs):
        raise AssertionError("a warm run-all parsed or canonicalised a molecule")

    for module in (molspace, mgk, pipeline, thermo):
        for name in ("parse_smiles", "to_canonical_smiles"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    caplog.set_level(logging.INFO, logger="alkspace.pipeline")
    assert cli.main(["run-all", "--config", str(config), "--out-dir", cfg.out_dir]) == 0
    assert any(m.endswith(", solved 0 kernel pairs in 0 stacks (0 CG iterations), built 0 graphs")
               for m in caplog.messages)


@pytest.fixture(scope="module")
def c10_stage3(tmp_path_factory):
    """The final-stage model of a C4..C10 run (18 molecules, 288 rows) and
    its test set (60 molecules, 960 rows)."""
    raw = {**RUN_RAW, "chemical_space": {"min_carbons": 4, "max_carbons": 10},
           "active_learning": {"thresholds": [0.5, 0.4, 0.3], "batch": 1000, "seed": 1},
           "evaluation": {"n_test": 60, "split_seed": 11, "control_seeds": [0]}}
    cfg = PipelineConfig.from_dict({**raw, "out_dir": str(tmp_path_factory.mktemp("c10"))})
    with pipeline._staged(cfg) as (ws, ids, calc, states):
        train, test = ws.datasets(ids, states[-1].selected)
        return pipeline._fit_on_series(train, calc, cfg), test


def test_predictions_do_not_depend_on_their_companions(c10_stage3, monkeypatch):
    """The C4..C10 test rows against the final stage's model: their means
    predicted whole, one molecule at a time, one row at a time, one query
    molecule per molecule request, and in blocks of 1 and 7 rows are bitwise
    equal, and their variances in blocks of 1 and 7 rows match the unblocked
    ones within 1e-12."""
    model, test = c10_stage3
    keys, _ = test.rows()
    n = len(model.training_keys)

    def predicted(rows):
        monkeypatch.setattr(gpr, "_PREDICT_ENTRIES", rows * n)
        monkeypatch.setattr(gpr, "_FACTOR_ENTRIES", rows * n)
        return model.predict_mean(keys), model.predict_variance(keys)

    whole, variance = predicted(len(keys))
    means = [
        np.concatenate([model.predict_mean(test.take([i]).rows()[0])
                        for i in range(len(test))]),
        np.concatenate([model.predict_mean([k]) for k in keys]),
    ]
    for rows in (1, 7):
        mean, blocked_variance = predicted(rows)
        means.append(mean)
        np.testing.assert_allclose(blocked_variance, variance, rtol=0, atol=1e-12)
    monkeypatch.setattr(gpr, "_PREDICT_ENTRIES", len({m for m, _ in model.training_keys}))
    means.append(model.predict_mean(keys))
    assert whole.shape == (len(keys), 3) and len(keys) > 7
    for mean in means:
        assert mean.tobytes() == whole.tobytes()


def test_the_c4_c10_mean_by_molecule_is_bitwise_the_row_block_mean(c10_stage3):
    """The product kernel's mean of the 960 C4..C10 test rows, from
    molecule blocks, is byte for byte the row-block mean of the same
    weights."""
    model, test = c10_stage3
    keys, _ = test.rows()
    kern, train = model.kernel_provider, model.training_keys
    got = kern.dot(keys, train, model.dual_weights)
    want = gpr._mean_by_rows(kern, tuple(keys), train, model.dual_weights)
    assert got.shape == (960, 3)
    assert got.tobytes() == want.tobytes()


def test_the_c4_c10_test_rows_are_predicted_in_under_1_mb(c10_stage3):
    """The mean of the 960 C4..C10 test rows against the 288 stage-3 rows,
    every kernel pair held: as a row x row block it peaked at 2.4 MB traced,
    from molecule blocks it holds the kernel rows of a few query rows."""
    model, test = c10_stage3
    keys, _ = test.rows()
    assert (len(keys), len(model.training_keys)) == (960, 288)
    model.predict_mean(keys)  # the pairs are solved and the modules loaded
    tracemalloc.start()
    try:
        model.predict_mean(keys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


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
            noise=cfg.al_noise, checkpoint_path=path, checkpoint_every=1,
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
    assert report == clean_report


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
        assert set(per_seed.al) == set(pipeline.PROPERTIES)
        assert set(per_seed.random) == set(pipeline.PROPERTIES)
    assert set(comparison.al_wins) == set(pipeline.PROPERTIES)
    path = os.path.join(cfg.out_dir, f"comparison_{report.config_hash}.json")
    assert Path(path).read_text() == json_text(dataclasses.asdict(comparison))


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

    @contextlib.contextmanager
    def dense(ws, ids):
        calc = MgkCalculator(ws.config.kernel)
        calc.register_canonical(ids)
        yield Dense(calc, ids)

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
    path = ws.path(f"molecules_{pipeline._hash_obj(cfg.section('chemical_space'))}.txt")
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


def test_one_kernel_store_serves_every_lambda(tmp_path, caplog):
    # segments are named by the space and the settings raw values depend on,
    # which leave lambda out: a null-lambda run-all on the workspace a run at
    # 0.2 filled solves no pair, and writes what it writes into a fresh one
    raw = {
        "chemical_space": {"min_carbons": 4, "max_carbons": 7},
        "active_learning": {"thresholds": [0.5, 0.4]},
        "evaluation": {"n_test": 8, "control_seeds": [0, 1]},
    }
    shared, fresh = str(tmp_path / "shared"), str(tmp_path / "fresh")
    run_alms(PipelineConfig.from_dict({**raw, "kernel": {"lambda": 0.2}, "out_dir": shared}))
    caplog.set_level(logging.INFO, logger="alkspace.pipeline")
    solved = []
    for out_dir in (shared, fresh):
        caplog.clear()
        run_alms(PipelineConfig.from_dict({**raw, "kernel": {"lambda": None}, "out_dir": out_dir}))
        (line,) = [m for m in caplog.messages if ", solved " in m]
        solved.append(int(re.search(r", solved (\d+) kernel pairs", line).group(1)))
    assert solved[0] == 0 < solved[1]
    want, got = _workspace_bytes(fresh), _workspace_bytes(shared)
    # one store under one name prefix: the 0.2 run's segment, which the null
    # run, solving nothing, did not add to
    (segment,) = [n for n in want if n.startswith("kernel_")]
    (filled,) = [n for n in got if n.startswith("kernel_")]
    assert filled.rsplit("_", 1)[0] == segment.rsplit("_", 1)[0]
    for name, data in want.items():
        if name != segment:
            assert got[name] == data, name


def test_a_dataset_for_other_molecules_is_rejected(tmp_path):
    cfg = PipelineConfig.from_dict({**RUN_RAW, "out_dir": str(tmp_path)})
    ws = pipeline._Workspace(cfg)
    ids = ws.molecule_ids()[:3]
    series = ws.dataset_for("probe", "h", ids)
    assert list(series.ids) == ids
    assert _same(ws.dataset_for("probe", "h", ids), series)
    (path,) = [ws.path(n) for n in os.listdir(tmp_path) if n.startswith("dataset_probe_")]
    for wanted in (ids[:2], ids[::-1], ws.molecule_ids()[:4]):
        with pytest.raises(StageError, match=os.path.basename(path)):
            ws.dataset_for("probe", "h", wanted)


def test_a_fresh_dataset_is_returned_as_its_file_reads(tmp_path):
    cfg = PipelineConfig.from_dict(
        {**RUN_RAW, "oracle": {"noise_sigma": 0.003, "seed": 5}, "out_dir": str(tmp_path)}
    )
    ws = pipeline._Workspace(cfg)
    ids = ws.molecule_ids()
    for tag, members in (("a", ids[:12]), ("b", ids[5:20])):  # b shares 7 of a's molecules
        series = ws.dataset_for(tag, tag, members)
        (path,) = [ws.path(n) for n in os.listdir(tmp_path) if n.startswith(f"dataset_{tag}_")]
        assert _same(series, thermo.read_dataset(path))
        assert _same(series, pipeline._Workspace(cfg).dataset_for(tag, tag, members))


def test_a_cold_run_simulates_each_molecule_once(tmp_path, monkeypatch, caplog):
    # the benchmark's C4..C10 run-all: 78 molecules, 60 in the test set and
    # 18 in the final stage's training set
    raw = {
        "chemical_space": {"min_carbons": 4, "max_carbons": 10},
        "kernel": {"lambda": 0.2},
        "active_learning": {"thresholds": [0.5, 0.4, 0.3], "batch": 1000, "seed": 1},
        "oracle": {"seed": 7},
        "evaluation": {"n_test": 60, "split_seed": 11},
    }
    simulated = []

    def counting(ids, noise_sigma, seed):
        simulated.extend(ids)
        return simulate_batch(ids, noise_sigma, seed)

    def unparsed(smiles):
        raise AssertionError(f"the workspace's checked ids are not parsed again: {smiles}")

    simulate_batch = thermo.simulate_batch
    monkeypatch.setattr(thermo, "simulate_batch", counting)
    monkeypatch.setattr(pipeline, "parse_smiles", unparsed)
    caplog.set_level(logging.INFO, logger="alkspace.pipeline")
    run_alms(PipelineConfig.from_dict({**raw, "out_dir": str(tmp_path)}))
    assert len(simulated) == len(set(simulated)) == 78
    series = sum(
        len(thermo.read_dataset(str(tmp_path / n)))
        for n in os.listdir(tmp_path) if n.startswith("dataset_")
    )
    assert series == 78
    assert "oracle: simulated 78 molecules" in caplog.messages
    assert not any("reused" in m for m in caplog.messages)
