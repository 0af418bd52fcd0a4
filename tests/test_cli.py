"""CLI behaviour: exit codes, file outputs, command round trips."""

import argparse
import dataclasses
import json
import logging
import math
import os
import re
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from alkspace import active_learning as al
from alkspace import pipeline, thermo
from alkspace.cli import _load_config, build_parser, main
from alkspace.mgk import MgkCalculator
from alkspace.molspace import enumerate_alkane_smiles, parse_smiles, to_canonical_smiles
from alkspace.pipeline import PipelineConfig, read_predictions

CONFIG_RAW = {
    "chemical_space": {"min_carbons": 4, "max_carbons": 8},
    "kernel": {"lambda": 0.2},
    "active_learning": {"thresholds": [0.5, 0.4]},
    "evaluation": {"n_test": 20, "control_seeds": [0, 1]},
}


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "config.json"
    path.write_text(json.dumps(CONFIG_RAW))
    return str(path)


# -- exit codes ----------------------------------------------------------------


def test_no_command_is_a_usage_error(capsys):
    assert main([]) == 1
    assert "config error" in capsys.readouterr().err


def test_unknown_command_is_a_usage_error(capsys):
    assert main(["frobnicate"]) == 1


def test_bad_flag_value_is_a_usage_error():
    assert main(["enumerate", "--count", "not-a-number"]) == 1


def test_unreadable_config_exits_one(tmp_path):
    assert main(["enumerate", "4", "5", "--config", str(tmp_path / "nope.json")]) == 1


def test_inverted_carbon_range_exits_one():
    assert main(["enumerate", "9", "4"]) == 1


def test_a_carbon_range_above_the_enumeration_limit_exits_one(tmp_path, caplog):
    assert main(["enumerate", "4", "20", "--count"]) == 1
    raw = {**CONFIG_RAW, "chemical_space": {"min_carbons": 4, "max_carbons": 20}}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    out_dir = tmp_path / "ws"
    out_dir.mkdir()
    assert main(["run-all", "--config", str(config), "--out-dir", str(out_dir)]) == 1
    assert os.listdir(out_dir) == []
    assert "stage failed" not in caplog.text


def test_runtime_failure_exits_two(tmp_path):
    missing = str(tmp_path / "missing.txt")
    out = str(tmp_path / "out.csv")
    assert main(["simulate", "--molecules", missing, "--out", out]) == 2


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("active_learning", "batch", 1.5),
        ("chemical_space", "min_carbons", 4.5),
        ("kernel", "fp_max_iters", 2.5),
        ("evaluation", "n_test", True),
    ],
)
def test_a_non_integer_config_field_exits_one_writing_nothing(tmp_path, section, key, value):
    raw = {**CONFIG_RAW, section: {**CONFIG_RAW.get(section, {}), key: value}}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    out_dir = tmp_path / "ws"
    out_dir.mkdir()
    assert main(["run-all", "--config", str(config), "--out-dir", str(out_dir)]) == 1
    assert os.listdir(out_dir) == []


@pytest.mark.parametrize(
    "section, key, value",
    [("oracle", "noise_sigma", True), ("oracle", "noise_sigma", math.nan),
     ("kernel", "lambda", True), ("gpr", "al_noise", math.inf)],
)
def test_a_bad_float_config_field_exits_one_writing_nothing(tmp_path, section, key, value):
    raw = {**CONFIG_RAW, section: {**CONFIG_RAW.get(section, {}), key: value}}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    out_dir = tmp_path / "ws"
    out_dir.mkdir()
    assert main(["run-all", "--config", str(config), "--out-dir", str(out_dir)]) == 1
    assert os.listdir(out_dir) == []


@pytest.mark.parametrize(
    "section, key, field",
    [("active_learning", "seed", "al_seed"), ("oracle", "seed", "oracle_seed"),
     ("evaluation", "split_seed", "split_seed"), ("evaluation", "control_seeds", "control_seeds")],
)
def test_a_negative_seed_exits_one_naming_it_before_any_file(tmp_path, caplog, section, key, field):
    value = [0, -3] if key == "control_seeds" else -3
    raw = {**CONFIG_RAW, section: {**CONFIG_RAW.get(section, {}), key: value}}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    out_dir = tmp_path / "ws"
    assert main(["run-all", "--config", str(config), "--out-dir", str(out_dir)]) == 1
    assert f"config error: {field} must be non-negative, got -3" in caplog.text
    assert not out_dir.exists()


def test_a_negative_seed_flag_exits_one_before_any_file(tmp_path, config_file, caplog):
    out_dir = tmp_path / "neg"
    assert main(["al", "--config", config_file, "--out-dir", str(out_dir), "--seed", "-1"]) == 1
    assert "config error: al_seed must be non-negative, got -1" in caplog.text
    assert not out_dir.exists()


@pytest.mark.parametrize("value", [5, None, ""])
def test_a_non_string_out_dir_exits_one(tmp_path, caplog, value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**CONFIG_RAW, "out_dir": value}))
    assert main(["run-all", "--config", str(config)]) == 1
    assert f"config error: out_dir must be a non-empty path string, got {value!r}" in caplog.text
    assert "stage failed" not in caplog.text


@pytest.mark.parametrize(
    "key, value",
    [("delta_element", 0.3), ("delta_bond_order", 0.9), ("start_weight", 1.0), ("lambda_", 5.0)],
)
def test_a_dropped_kernel_key_exits_one_writing_nothing(tmp_path, caplog, key, value):
    # the two deltas entered no value and start_weight only rescaled lambda,
    # so all three are gone from the settings; lambda_ is the field's name,
    # whose file key is "lambda", which the config sets too
    raw = {**CONFIG_RAW, "kernel": {**CONFIG_RAW["kernel"], key: value}}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    out_dir = tmp_path / "ws"
    out_dir.mkdir()
    assert main(["run-all", "--config", str(config), "--out-dir", str(out_dir)]) == 1
    assert os.listdir(out_dir) == []
    assert f"unknown kernel config key {key!r}" in caplog.text


@pytest.mark.parametrize("command", ["run-all", "compare-random"])
def test_oversized_n_test_exits_one_before_any_kernel_work(tmp_path, command):
    # C4..C7 holds 19 molecules, so the default n_test of 200 cannot fit
    raw = {key: value for key, value in CONFIG_RAW.items() if key != "evaluation"}
    raw["chemical_space"] = {"min_carbons": 4, "max_carbons": 7}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    out_dir = tmp_path / "ws"
    assert main([command, "--config", str(config), "--out-dir", str(out_dir)]) == 1
    left = os.listdir(out_dir) if out_dir.exists() else []
    assert [n for n in left if n.startswith(("al_stage", "kernel_"))] == []


@pytest.mark.parametrize("command", ["run-all", "compare-random"])
def test_a_test_set_larger_than_the_unselected_rest_exits_one(tmp_path, command, caplog):
    # 35 of the 37 C4..C8 molecules fit the space, but not the molecules
    # left once the stages have selected theirs
    raw = {**CONFIG_RAW, "evaluation": {"n_test": 35, "control_seeds": [0]}}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    assert main([command, "--config", str(config), "--out-dir", str(tmp_path / "ws")]) == 1
    assert "n_test=35 does not fit" in caplog.text


def test_a_control_as_large_as_the_test_pool_exits_one_simulating_nothing(tmp_path, caplog):
    # stage 1 at 0.5 selects 8 of the 37 C4..C8 molecules: an 8-molecule
    # control would leave no test row to score on
    raw = {**CONFIG_RAW, "active_learning": {"thresholds": [0.5]},
           "evaluation": {"n_test": 8, "control_seeds": [0]}}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    ws = tmp_path / "ws"
    caplog.set_level(logging.INFO, logger="alkspace.pipeline")
    assert main(["compare-random", "--config", str(config), "--out-dir", str(ws)]) == 1
    assert "cannot draw a 8-molecule control from a 8-molecule test pool" in caplog.text
    assert "oracle: simulated 0 molecules" in caplog.messages
    assert [n for n in os.listdir(ws) if n.startswith("dataset_")] == []


# -- enumerate -----------------------------------------------------------------


def test_enumerate_count(capsys):
    assert main(["enumerate", "4", "6", "--count"]) == 0
    assert capsys.readouterr().out.strip() == "10"


def test_enumerate_prints_one_molecule_per_line(capsys):
    assert main(["enumerate", "4", "5", "--count"]) == 0
    n = int(capsys.readouterr().out)
    assert main(["enumerate", "4", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == n == 5
    assert to_canonical_smiles(parse_smiles("CCCC")) in lines


def test_enumerate_out_file_matches_stdout(tmp_path, capsys):
    out = str(tmp_path / "mols.txt")
    assert main(["enumerate", "4", "6", "--out", out]) == 0
    capsys.readouterr()
    assert main(["enumerate", "4", "6"]) == 0
    printed = capsys.readouterr().out
    assert Path(out).read_text() == printed


def test_enumerate_uses_config_range(config_file, capsys):
    assert main(["enumerate", "--count", "--config", config_file]) == 0
    assert capsys.readouterr().out.strip() == "37"  # C4 through C8


def test_enumerate_takes_an_omitted_bound_from_the_config(config_file, capsys):
    assert main(["enumerate", "5", "--count", "--config", config_file]) == 0
    assert capsys.readouterr().out.strip() == "35"  # C5 through C8
    assert main(["enumerate", "11", "--count"]) == 0  # the default config ends at C12
    assert capsys.readouterr().out.strip() == str(len(enumerate_alkane_smiles(11, 12)))


def test_enumerate_with_both_bounds_still_checks_a_given_config(tmp_path, config_file, capsys):
    assert main(["enumerate", "4", "5", "--count", "--config", config_file]) == 0
    assert capsys.readouterr().out.strip() == "5"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"chemical_space": {"min_carbons": 0}}))
    assert main(["enumerate", "4", "5", "--count", "--config", str(bad)]) == 1
    assert capsys.readouterr().out == ""


# -- config plumbing --------------------------------------------------------------


def test_seed_flag_targets_the_right_field(config_file):
    parser = build_parser()

    def parsed(*argv: str) -> argparse.Namespace:
        return parser.parse_args([*argv, "--config", config_file, "--seed", "42"])

    sim = _load_config(parsed("simulate", "--molecules", "m", "--out", "o"))
    assert sim.oracle_seed == 42 and sim.al_seed == 1
    alc = _load_config(parsed("al"))
    assert alc.al_seed == 42 and alc.oracle_seed == 7


def test_out_dir_flag_overrides_config(config_file):
    parser = build_parser()
    args = parser.parse_args(["al", "--config", config_file, "--out-dir", "/tmp/elsewhere"])
    assert _load_config(args).out_dir == "/tmp/elsewhere"


# -- simulate / fit-predict / evaluate round trip ------------------------------------


def test_dataset_prediction_round_trip(tmp_path, config_file, capsys):
    train_list = tmp_path / "train.txt"
    train_list.write_text("CCCC\nCCCCC\nCCCCCC\nCC(C)C\n")
    query_list = tmp_path / "query.txt"
    query_list.write_text("CC(C)CC\n")
    train_csv = str(tmp_path / "train.csv")
    truth_csv = str(tmp_path / "truth.csv")
    pred_csv = str(tmp_path / "pred.csv")
    metrics_json = str(tmp_path / "metrics.json")

    assert main(["simulate", "--molecules", str(train_list), "--out", train_csv]) == 0
    assert len(thermo.read_dataset(train_csv)) == 4

    assert main(["simulate", "--molecules", str(query_list), "--out", truth_csv]) == 0
    assert (
        main(
            [
                "fit-predict", "--train", train_csv,
                "--molecules", str(query_list), "--out", pred_csv,
                "--config", config_file,
            ]
        )
        == 0
    )
    keys, values = read_predictions(pred_csv)
    assert len(keys) == thermo.GRID_POINTS and values.shape == (thermo.GRID_POINTS, 3)
    capsys.readouterr()

    assert (
        main(["evaluate", "--pred", pred_csv, "--truth", truth_csv, "--out", metrics_json])
        == 0
    )
    printed = json.loads(capsys.readouterr().out)
    assert set(printed) == {"density", "heat_capacity", "hov"}
    assert json.loads(Path(metrics_json).read_text()) == printed
    # interpolating one missing isomer from its neighbours should land close
    assert printed["density"]["rmse"] < 50.0


def test_simulate_rejects_a_molecule_listed_twice(tmp_path, caplog):
    # two spellings of butane would write a dataset the reader rejects
    listed = tmp_path / "mols.txt"
    listed.write_text("CCCC\nCC(C)C\nC(C)CC\n")
    out = tmp_path / "d.csv"
    assert main(["simulate", "--molecules", str(listed), "--out", str(out)]) == 2
    assert f"{str(listed)!r} names C(CC)C twice, as CCCC and C(C)CC" in caplog.text
    assert "oracle: simulated" not in caplog.text  # rejected before any simulation
    assert not out.exists()


def test_simulate_logs_the_molecules_it_simulated(tmp_path, caplog):
    caplog.set_level(logging.INFO)
    listed = tmp_path / "mols.txt"
    listed.write_text("CCCC\nCC(C)C\n")
    assert main(["simulate", "--molecules", str(listed), "--out", str(tmp_path / "d.csv")]) == 0
    assert "oracle: simulated 2 molecules" in caplog.messages


def test_a_failed_stage_still_logs_the_molecules_simulated(tmp_path, caplog):
    # at this noise both stage-1 molecules fail QC; the test set's 5 and
    # the final stage's 3 were simulated before
    raw = {
        "chemical_space": {"min_carbons": 4, "max_carbons": 7},
        "oracle": {"noise_sigma": 0.05, "seed": 7},
        "evaluation": {"n_test": 5, "split_seed": 3},
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    caplog.set_level(logging.INFO)
    argv = ["--config", str(config), "--out-dir", str(tmp_path / "out")]
    assert main(["run-all", *argv]) == 2
    assert "no QC-passing training rows" in caplog.text
    assert "oracle: simulated 8 molecules" in caplog.messages


def _fit_predict(tmp_path, train_csv, molecules, name) -> bytes:
    """The bytes of the prediction file ``fit-predict`` writes."""
    query_list = tmp_path / f"{name}.txt"
    query_list.write_text("".join(m + "\n" for m in molecules))
    pred_csv = tmp_path / f"{name}.csv"
    args = ["--train", train_csv, "--molecules", str(query_list), "--out", str(pred_csv)]
    assert main(["fit-predict", *args]) == 0
    return pred_csv.read_bytes()


def test_fit_predict_logs_its_kernel_work_to_stderr_only(tmp_path, capsys, caplog):
    """fit-predict logs the kernel line _Workspace.kernel logs, not on
    stdout: 4 training and 5 C4..C16 query molecules, each graph built
    once, and on a cold calculator every cross pair requested solved, with
    the 9 self-kernels."""
    train_list = tmp_path / "train.txt"
    train_list.write_text("CCCC\nCCCCC\nCC(C)CC\nCCCCCC\n")
    train_csv = str(tmp_path / "train.csv")
    assert main(["simulate", "--molecules", str(train_list), "--out", train_csv]) == 0
    query = tmp_path / "query.txt"
    query.write_text("CC(C)C\nCCCCCCC\nCC(C)CCCCCCC\nCCCCCCCCCCCCCCCC\nCC(C)(C)CCCC\n")
    capsys.readouterr()
    caplog.set_level(logging.INFO, logger="alkspace.pipeline")
    pred = tmp_path / "pred.csv"
    assert main(["fit-predict", "--train", train_csv, "--molecules", str(query),
                 "--out", str(pred)]) == 0
    out = capsys.readouterr().out
    assert out == f"wrote 80 predictions for 5 molecules -> {pred}\n"
    line = re.compile(r"requested (\d+), solved (\d+) kernel pairs in (\d+) stacks "
                      r"\((\d+) CG iterations\), built (\d+) graphs")
    found = [m for m in map(line.fullmatch, caplog.messages) if m]
    assert len(found) == 1
    requested, solved, stacks, iterations, graphs = map(int, found[0].groups())
    assert graphs == 9 and solved == 9 + requested > 9 and 0 < stacks <= iterations


def test_fit_predict_accepts_a_training_file_that_spells_a_molecule_non_canonically(tmp_path):
    train_list = tmp_path / "train.txt"
    train_list.write_text("CCCC\nCCCCC\nCC(C)C\n")
    train_csv = str(tmp_path / "train.csv")
    assert main(["simulate", "--molecules", str(train_list), "--out", train_csv]) == 0
    canonical_isobutane = str(to_canonical_smiles(parse_smiles("CC(C)C")))
    assert canonical_isobutane != "CC(C)C"
    lines = Path(train_csv).read_text().splitlines(keepends=True)
    respelled = str(tmp_path / "respelled.csv")
    with open(respelled, "w") as fh:
        for line in lines:
            smiles, rest = line.split(",", 1)
            fh.write(("CC(C)C" if smiles == canonical_isobutane else smiles) + "," + rest)
    assert Path(respelled).read_text() != Path(train_csv).read_text()
    queries = ["CCCCCC", "CC(C)CC"]
    assert _fit_predict(tmp_path, respelled, queries, "p1") == _fit_predict(
        tmp_path, train_csv, queries, "p2"
    )


def test_fit_predict_gives_two_spellings_of_one_molecule_identical_rows(tmp_path, caplog):
    # the two spellings number the carbons differently
    train_list = tmp_path / "train.txt"
    train_list.write_text("CCCCCCCC\nCC(C)CCCCC\nCCC(C)(C)CCCC\nCCCCCCCCCC\n")
    train_csv = str(tmp_path / "train.csv")
    assert main(["simulate", "--molecules", str(train_list), "--out", train_csv]) == 0
    a, b = "C(CC)(C)CCCC", "C(CCCC)(CC)C"
    first = _fit_predict(tmp_path, train_csv, [a], "a")
    keys, _ = read_predictions(str(tmp_path / "a.csv"))
    assert len(keys) == thermo.GRID_POINTS
    assert {m for m, _ in keys} == {str(to_canonical_smiles(parse_smiles(a)))}
    assert _fit_predict(tmp_path, train_csv, [b], "b") == first
    # both spellings in one query file: one molecule, listed twice
    query, out = tmp_path / "ba.txt", tmp_path / "ba.csv"
    query.write_text(f"{b}\n{a}\n")
    assert main(["fit-predict", "--train", train_csv, "--molecules", str(query),
                 "--out", str(out)]) == 2
    canonical = str(to_canonical_smiles(parse_smiles(a)))
    assert f"{str(query)!r} names {canonical} twice, as {b} and {a}" in caplog.text
    assert not out.exists()


def test_fit_predict_rejects_a_training_file_that_holds_a_molecule_twice(tmp_path, caplog):
    train_list = tmp_path / "train.txt"
    train_list.write_text("CCCC\nCCCCC\nCC(C)C\n")
    train_csv = tmp_path / "train.csv"
    assert main(["simulate", "--molecules", str(train_list), "--out", str(train_csv)]) == 0
    # butane's block again, spelled CCCC: a second block of one molecule
    lines = train_csv.read_text().splitlines(keepends=True)
    butane = str(to_canonical_smiles(parse_smiles("CCCC")))
    twice = tmp_path / "twice.csv"
    twice.write_text("".join(lines + [
        "CCCC," + line.split(",", 1)[1] for line in lines if line.startswith(butane + ",")
    ]), newline="")
    query, out = tmp_path / "q.txt", tmp_path / "p.csv"
    query.write_text("CCCCCC\n")
    assert main(["fit-predict", "--train", str(twice), "--molecules", str(query),
                 "--out", str(out)]) == 2
    assert f"{str(twice)!r} names {butane} twice, as {butane} and CCCC" in caplog.text
    assert not out.exists()


def test_evaluate_with_disjoint_truth_exits_two(tmp_path):
    a = tmp_path / "a.txt"
    a.write_text("CCCC\n")
    b = tmp_path / "b.txt"
    b.write_text("CCCCC\n")
    truth_a = str(tmp_path / "ta.csv")
    truth_b = str(tmp_path / "tb.csv")
    pred = str(tmp_path / "p.csv")
    assert main(["simulate", "--molecules", str(a), "--out", truth_a]) == 0
    assert main(["simulate", "--molecules", str(b), "--out", truth_b]) == 0
    assert main(["fit-predict", "--train", truth_a, "--molecules", str(a), "--out", pred]) == 0
    assert main(["evaluate", "--pred", pred, "--truth", truth_b]) == 2


def test_evaluate_with_a_nan_prediction_exits_two(tmp_path, caplog):
    mols = tmp_path / "m.txt"
    mols.write_text("CCCC\nCCCCC\n")
    truth = str(tmp_path / "t.csv")
    pred = str(tmp_path / "p.csv")
    assert main(["simulate", "--molecules", str(mols), "--out", truth]) == 0
    assert main(["fit-predict", "--train", truth, "--molecules", str(mols), "--out", pred]) == 0
    lines = Path(pred).read_text().splitlines()
    fields = lines[3].split(",")
    fields[2] = "nan"
    lines[3] = ",".join(fields)
    with open(pred, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    assert main(["evaluate", "--pred", pred, "--truth", truth]) == 2
    assert "p.csv' line 4: non-finite value" in caplog.text


def test_evaluate_with_a_repeated_prediction_row_exits_two(tmp_path, caplog):
    # three rows of the file appended to it would each be scored twice
    mols = tmp_path / "m.txt"
    mols.write_text("CCCC\nCCCCC\n")
    truth = str(tmp_path / "t.csv")
    pred = str(tmp_path / "p.csv")
    assert main(["simulate", "--molecules", str(mols), "--out", truth]) == 0
    assert main(["fit-predict", "--train", truth, "--molecules", str(mols), "--out", pred]) == 0
    assert main(["evaluate", "--pred", pred, "--truth", truth]) == 0
    lines = Path(pred).read_text().splitlines(keepends=True)
    Path(pred).write_text("".join(lines + lines[1:4]))
    assert main(["evaluate", "--pred", pred, "--truth", truth]) == 2
    molecule, temperature = lines[1].split(",")[:2]
    assert (
        f"p.csv' line {len(lines) + 1}: {molecule} at {temperature} K repeats line 2"
        in caplog.text
    )


def test_cold_run_with_a_truncated_molecule_list_exits_two(tmp_path, config_file, caplog):
    from alkspace.pipeline import PipelineConfig, _hash_obj

    cfg = PipelineConfig.from_json(config_file)
    ids = enumerate_alkane_smiles(cfg.min_carbons, cfg.max_carbons)
    name = f"molecules_{_hash_obj(cfg.section('chemical_space'))}.txt"
    (tmp_path / name).write_text("\n".join(ids[:10]) + "\n")
    assert main(["run-all", "--config", config_file, "--out-dir", str(tmp_path)]) == 2
    assert name in caplog.text
    assert sorted(os.listdir(tmp_path)) == [name]


# -- selection commands ---------------------------------------------------------------


def test_al_writes_a_terminal_checkpoint(tmp_path, config_file, capsys):
    ckpt = str(tmp_path / "stage1.json")
    code = main(
        [
            "al", "--config", config_file, "--out-dir", str(tmp_path),
            "--checkpoint", ckpt, "--threshold", "0.5",
        ]
    )
    assert code == 0
    assert "selected" in capsys.readouterr().out
    state = al.load_checkpoint(ckpt)
    assert state.is_terminal
    assert state.threshold == 0.5
    assert len(state.selected) > 0

    # second invocation reuses the finished checkpoint untouched
    stamp = os.stat(ckpt).st_mtime_ns
    assert (
        main(
            [
                "al", "--config", config_file, "--out-dir", str(tmp_path),
                "--checkpoint", ckpt, "--threshold", "0.5",
            ]
        )
        == 0
    )
    assert os.stat(ckpt).st_mtime_ns == stamp

    cont = str(tmp_path / "stage2.json")
    code = main(
        [
            "al-continue", "--config", config_file, "--out-dir", str(tmp_path),
            "--checkpoint", ckpt, "--threshold", "0.4", "--out", cont,
        ]
    )
    assert code == 0
    extended = al.load_checkpoint(cont)
    assert extended.is_terminal
    assert extended.threshold == 0.4
    assert set(extended.selected) >= set(state.selected)


def test_al_on_a_finished_checkpoint_writes_no_kernel_cache(tmp_path, config_file):
    ckpt = str(tmp_path / "done.json")
    argv = ["al", "--config", config_file, "--checkpoint", ckpt, "--threshold", "0.5"]
    assert main([*argv, "--out-dir", str(tmp_path / "first")]) == 0
    fresh = tmp_path / "fresh"
    assert main([*argv, "--out-dir", str(fresh)]) == 0

    def caches():
        return [fresh / n for n in os.listdir(fresh) if n.startswith("kernel_")]

    assert caches() == []
    assert main(["run-all", "--config", config_file, "--out-dir", str(fresh)]) == 0
    [cache] = caches()
    assert MgkCalculator(PipelineConfig.from_json(config_file).kernel).load_cache(str(cache)) > 0


class _Interrupt(Exception):
    pass


def test_al_resumes_an_interrupted_checkpoint(tmp_path, config_file):
    from alkspace.pipeline import PipelineConfig, _Workspace

    cfg = PipelineConfig.from_json(config_file)
    cfg = dataclasses.replace(cfg, out_dir=str(tmp_path))
    ws = _Workspace(cfg)
    ids = ws.molecule_ids()
    ckpt = str(tmp_path / "interrupted.json")

    # stop the run at its second step, after the first step's checkpoint
    def die(state):
        if state.iteration == 2:
            raise _Interrupt

    with ws.kernel(ids) as calc, pytest.raises(_Interrupt):
        al.al_run(
            ids, 0.5, cfg.batch, cfg.al_seed, calc, noise=cfg.al_noise,
            checkpoint_path=ckpt, checkpoint_every=1, on_step=die,
        )
    mid = al.load_checkpoint(ckpt)
    assert mid.iteration == 1 and not mid.is_terminal

    code = main(
        [
            "al", "--config", config_file, "--out-dir", str(tmp_path),
            "--checkpoint", ckpt,
        ]
    )
    assert code == 0
    finished = al.load_checkpoint(ckpt)
    assert finished.is_terminal
    assert set(finished.selected) >= set(mid.selected)


@pytest.mark.parametrize(
    "carbons, take", [((4, 9), None), ((4, 7), 10)], ids=["wider-space", "subset"]
)
def test_al_rejects_a_checkpoint_for_another_chemical_space(tmp_path, carbons, take, caplog):
    # the config spans the 19 molecules of C4..C7
    raw = {**CONFIG_RAW, "chemical_space": {"min_carbons": 4, "max_carbons": 7}}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    ids = enumerate_alkane_smiles(*carbons)[:take]
    ckpt = tmp_path / "foreign.json"
    al.save_checkpoint(al.al_init(ids, 0.5, 1000, 1), str(ckpt))
    before = ckpt.read_bytes()

    argv = ["al", "--config", str(config), "--out-dir", str(tmp_path / "ws")]
    assert main([*argv, "--checkpoint", str(ckpt)]) == 2
    assert f"checkpoint {ckpt} does not cover" in caplog.text
    assert ckpt.read_bytes() == before


def test_al_rejects_a_checkpoint_with_other_selection_parameters(tmp_path, caplog):
    raw = {**CONFIG_RAW, "chemical_space": {"min_carbons": 4, "max_carbons": 10}}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    other_batch = tmp_path / "batch.json"
    other_batch.write_text(json.dumps({**raw, "active_learning": {"batch": 7}}))
    ckpt = tmp_path / "stage1.json"
    argv = ["al", "--out-dir", str(tmp_path / "ws"), "--checkpoint", str(ckpt)]
    assert main([*argv, "--config", str(config), "--threshold", "0.45"]) == 0
    before = ckpt.read_bytes()

    for flags, field in [
        (["--config", str(config), "--threshold", "0.3"], "threshold 0.45"),
        (["--config", str(other_batch), "--threshold", "0.45"], "batch 1000"),
        (["--config", str(config), "--threshold", "0.45", "--seed", "2"], "seed 1"),
    ]:
        caplog.clear()
        assert main([*argv, *flags]) == 2
        assert f"checkpoint {ckpt} holds {field}" in caplog.text
        assert ckpt.read_bytes() == before


def test_al_rejects_a_malformed_checkpoint_leaving_it(tmp_path, caplog):
    raw = {**CONFIG_RAW, "chemical_space": {"min_carbons": 4, "max_carbons": 7}}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    ckpt = tmp_path / "stage1.json"
    al.save_checkpoint(al.al_init(enumerate_alkane_smiles(4, 7), 0.5, 1000, 1), str(ckpt))
    ckpt.write_text(json.dumps({**json.loads(ckpt.read_text()), "pool": "CCCCCC"}))
    before = ckpt.read_bytes()

    argv = ["al", "--config", str(config), "--out-dir", str(tmp_path / "ws")]
    assert main([*argv, "--checkpoint", str(ckpt)]) == 2
    assert f"checkpoint {str(ckpt)!r} field 'pool' must hold a list of strings" in caplog.text
    assert ckpt.read_bytes() == before


def test_al_rejects_a_damaged_rng_state_naming_the_file(tmp_path, caplog):
    # an unfinished stage checkpoint whose generator state lost its numbers
    raw = {**CONFIG_RAW, "chemical_space": {"min_carbons": 4, "max_carbons": 7}}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    ckpt = tmp_path / "stage1.json"
    al.save_checkpoint(al.al_init(enumerate_alkane_smiles(4, 7), 0.5, 1000, 1), str(ckpt))
    payload = json.loads(ckpt.read_text())
    ckpt.write_text(json.dumps({**payload, "rng_state": {"bit_generator": "PCG64"}}))
    before = ckpt.read_bytes()

    ws = tmp_path / "ws"
    argv = ["al", "--config", str(config), "--out-dir", str(ws), "--checkpoint", str(ckpt)]
    assert main(argv) == 2
    assert f"checkpoint {str(ckpt)!r} field 'rng_state' is no PCG64 state" in caplog.text
    assert [n for n in os.listdir(ws) if n.startswith("kernel_")] == []
    assert ckpt.read_bytes() == before


@pytest.mark.parametrize(
    "row, problem",
    [(lambda f: f[:-1], "6 fields, expected 7"), (lambda f: [*f[:3], "nan", *f[4:]], "non-finite"),
     (lambda f: [*f[:-1], "0"], "qc_pass 0 differs from 1 on line 2")],
    ids=["short-row", "nan", "flag"],
)
def test_run_all_rejects_a_damaged_reused_dataset_naming_it(
    tmp_path, config_file, caplog, row, problem
):
    ws = tmp_path / "ws"
    argv = ["run-all", "--config", config_file, "--out-dir", str(ws)]
    assert main(argv) == 0
    [dataset] = [ws / n for n in os.listdir(ws) if n.startswith("dataset_stage2_")]
    lines = dataset.read_text().splitlines()
    lines[5] = ",".join(row(lines[5].split(",")))
    dataset.write_text("\n".join(lines) + "\n")
    before = dataset.read_bytes()

    assert main(argv) == 2
    assert f"{str(dataset)!r} line 6: {problem}" in caplog.text
    assert dataset.read_bytes() == before


def test_run_all_reads_no_stage_dataset_but_the_last(tmp_path, config_file):
    """Each stage fits on a prefix of the final stage's dataset, so a
    damaged stage-1 dataset, as an older workspace may hold, is not read."""
    ws = tmp_path / "ws"
    argv = ["run-all", "--config", config_file, "--out-dir", str(ws)]
    assert main(argv) == 0
    cfg = PipelineConfig.from_dict({**CONFIG_RAW, "out_dir": str(ws)})
    stage1 = pipeline._Workspace(cfg).al_stage_hash(1)
    h = pipeline._hash_obj({"members": stage1, "oracle": cfg.section("oracle")})
    leftover = ws / f"dataset_stage1_{h}.csv"
    leftover.write_text("not,a,dataset\n")

    assert main(argv) == 0
    assert leftover.read_text() == "not,a,dataset\n"


def test_run_all_rejects_a_stage_that_does_not_extend_the_one_before(
    tmp_path, config_file, caplog
):
    ws = tmp_path / "ws"
    argv = ["run-all", "--config", config_file, "--out-dir", str(ws)]
    assert main(argv) == 0
    [ckpt] = [ws / n for n in os.listdir(ws) if n.startswith("al_stage2_")]
    payload = json.loads(ckpt.read_text())
    selected = payload["selected"]
    selected[0], selected[-1] = selected[-1], selected[0]
    ckpt.write_text(json.dumps(payload))
    before = ckpt.read_bytes()
    # without the datasets, nothing else would notice that stage 1 trains
    # on molecules it did not select
    for name in os.listdir(ws):
        if name.startswith("dataset_"):
            os.remove(ws / name)

    assert main(argv) == 2
    assert f"checkpoint {ckpt} does not extend the selection at threshold 0.5" in caplog.text
    assert ckpt.read_bytes() == before


def _damaged_segment_fails_the_stage(tmp_path, caplog, damage, message, beside=False):
    """Fill a C4..C7 workspace with `al`, damage its kernel segment, or
    write the damaged copy beside it as a second segment, and check that
    the next `al` exits 2 naming the damaged file, and changes no file."""
    raw = {**CONFIG_RAW, "chemical_space": {"min_carbons": 4, "max_carbons": 7}}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    ws = tmp_path / "ws"
    argv = ["al", "--config", str(config), "--out-dir", str(ws)]
    assert main([*argv, "--checkpoint", str(tmp_path / "first.json")]) == 0
    [segment] = [ws / n for n in os.listdir(ws) if n.startswith("kernel_")]
    with np.load(segment) as data:
        arrays = {name: data[name] for name in data.files}
    if beside:  # a name that sorts, and so loads, after the segment's
        segment = segment.with_name(segment.stem + "0.npz")
    with open(segment, "wb") as fh:
        np.savez(fh, **{**arrays, **damage(arrays)})
    before = sorted(os.listdir(ws)), segment.read_bytes()

    assert main([*argv, "--checkpoint", str(tmp_path / "second.json")]) == 2
    assert f"kernel cache {str(segment)!r} {message}" in caplog.text
    assert (sorted(os.listdir(ws)), segment.read_bytes()) == before


def test_a_version_3_kernel_cache_fails_the_stage(tmp_path, caplog):
    # version-3 values came from stacks of one shape, without size-class padding
    _damaged_segment_fails_the_stage(
        tmp_path, caplog, lambda arrays: {"version": np.int64(3)}, "does not match"
    )


def test_a_version_6_kernel_cache_fails_run_all_naming_it(tmp_path, config_file, caplog):
    # version-6 values put each pair's first canonical SMILES first, not its
    # smaller size class, so a flipped pair differs in its last bits
    ws = tmp_path / "ws"
    argv = ["run-all", "--config", config_file, "--out-dir", str(ws)]
    assert main(argv) == 0
    [segment] = [ws / n for n in os.listdir(ws) if n.startswith("kernel_")]
    with np.load(segment) as data:
        arrays = {name: data[name] for name in data.files}
    assert int(arrays["version"]) == 7
    with open(segment, "wb") as fh:
        np.savez(fh, **{**arrays, "version": np.int64(6)})
    before = {name: (ws / name).read_bytes() for name in os.listdir(ws)}

    assert main(argv) == 2
    assert f"kernel cache {str(segment)!r} does not match" in caplog.text
    assert {name: (ws / name).read_bytes() for name in os.listdir(ws)} == before


def _negative_value(arrays):
    values = arrays["values"].copy()
    values[0] = -1.0
    return {"values": values}


def _index_past_the_table(arrays):
    pairs = arrays["pairs"].copy()
    pairs[0, 1] = len(arrays["keys"])
    return {"pairs": pairs}


def _rows_reversed(arrays):
    return {"pairs": arrays["pairs"][::-1].copy()}


@pytest.mark.parametrize(
    "damage, message",
    [
        (_negative_value, "row 0: value -1.0 is not a finite positive number"),
        (_index_past_the_table, "row 0: index outside"),
        (_rows_reversed, "row 1: rows are not strictly increasing"),
    ],
    ids=["value", "index", "order"],
)
def test_a_damaged_kernel_segment_fails_the_stage(tmp_path, caplog, damage, message):
    _damaged_segment_fails_the_stage(tmp_path, caplog, damage, message)


def test_a_segment_contradicting_another_fails_the_stage(tmp_path, caplog):
    def moved(arrays):
        values = arrays["values"].copy()
        values[0] = np.nextafter(values[0], math.inf)
        return {"values": values}

    _damaged_segment_fails_the_stage(
        tmp_path, caplog, moved, "row 0: value", beside=True
    )
    assert "differs from the value" in caplog.text


def _al_continue_exit(tmp_path, config_file, monkeypatch, threshold: str) -> int:
    """The exit code of al-continue at ``threshold`` from a finished
    stage at 0.5; building a kernel calculator fails the test."""
    ckpt = str(tmp_path / "s1.json")
    flags = ["--config", config_file, "--out-dir", str(tmp_path), "--checkpoint", ckpt]
    assert main(["al", *flags, "--threshold", "0.5"]) == 0
    monkeypatch.setattr(MgkCalculator, "__init__", None)
    return main(["al-continue", *flags, "--threshold", threshold])


def test_al_continue_rejects_a_higher_threshold(tmp_path, config_file, caplog, monkeypatch):
    assert _al_continue_exit(tmp_path, config_file, monkeypatch, "0.6") == 1
    assert "config error: --threshold 0.6 must lie strictly below the checkpoint's 0.5" in (
        caplog.text
    )


@pytest.mark.parametrize(
    "threshold, problem",
    [("0.5", "--threshold 0.5 must lie strictly below the checkpoint's 0.5"),
     ("0", "thresholds must lie in (0, 1], got 0.0"),
     ("-0.1", "thresholds must lie in (0, 1], got -0.1"),
     ("nan", "thresholds must be a finite number, got nan")],
    ids=["equal", "zero", "negative", "nan"],
)
def test_al_continue_rejects_a_threshold_it_cannot_run(
    tmp_path, config_file, caplog, monkeypatch, threshold, problem
):
    assert _al_continue_exit(tmp_path, config_file, monkeypatch, threshold) == 1
    assert f"config error: {problem}" in caplog.text


def test_al_continue_rejects_a_checkpoint_for_another_chemical_space(tmp_path, caplog):
    # a C4..C7 checkpoint, with the default C4..C12 configuration
    ckpt = tmp_path / "c7.json"
    al.save_checkpoint(al.al_init(enumerate_alkane_smiles(4, 7), 0.5, 1000, 1), str(ckpt))
    before = ckpt.read_bytes()
    ws = tmp_path / "ws"
    argv = ["al-continue", "--checkpoint", str(ckpt), "--threshold", "0.4", "--out-dir", str(ws)]
    assert main(argv) == 2
    assert f"checkpoint {ckpt} does not cover" in caplog.text
    assert ckpt.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["c7.json", "ws"]
    assert [n for n in os.listdir(ws) if not n.startswith("molecules_")] == []


def test_al_continue_names_its_default_out_after_the_checkpoint(tmp_path, config_file):
    """Continuations of two checkpoints of one directory at one threshold,
    without --out, each write a file of their own."""
    flags = ["--config", config_file, "--out-dir", str(tmp_path)]
    for name, seed in (("a", "1"), ("b", "2")):
        ckpt = str(tmp_path / f"{name}.json")
        assert main(["al", *flags, "--threshold", "0.5", "--seed", seed, "--checkpoint", ckpt]) == 0
    for name in "ab":
        ckpt = str(tmp_path / f"{name}.json")
        assert main(["al-continue", *flags, "--checkpoint", ckpt, "--threshold", "0.4"]) == 0
    for name, seed in (("a", 1), ("b", 2)):
        prev = al.load_checkpoint(str(tmp_path / f"{name}.json"))
        state = al.load_checkpoint(str(tmp_path / f"al_continue_{name}_U0.4.json"))
        assert (prev.seed, state.seed, state.threshold) == (seed, seed, 0.4)
        assert state.selected[: len(prev.selected)] == prev.selected


def _continued(tmp_path, config_file, caplog):
    """A C4..C8 workspace with a finished stage at 0.5 (``s1.json``) and
    its finished continuation at 0.4 (``s2.json``), and the argv that
    continues ``s1.json`` at 0.4 into a given ``--out``."""
    caplog.set_level(logging.INFO, logger="alkspace.pipeline")
    flags = ["--config", config_file, "--out-dir", str(tmp_path)]
    assert main(["al", *flags, "--threshold", "0.5", "--checkpoint", str(tmp_path / "s1.json")]) == 0

    def argv(out):
        return ["al-continue", *flags, "--checkpoint", str(tmp_path / "s1.json"),
                "--threshold", "0.4", "--out", str(out)]

    assert main(argv(tmp_path / "s2.json")) == 0
    return argv


def test_al_continue_resumes_an_interrupted_continuation(tmp_path, config_file, caplog):
    argv = _continued(tmp_path, config_file, caplog)
    cfg = dataclasses.replace(PipelineConfig.from_json(config_file), out_dir=str(tmp_path))
    ws = pipeline._Workspace(cfg)
    ids = ws.molecule_ids()
    prev = al.load_checkpoint(str(tmp_path / "s1.json"))
    out = tmp_path / "interrupted.json"

    # stop the continuation at its second step, after the first step's checkpoint
    def die(state):
        if state.iteration == prev.iteration + 2:
            raise _Interrupt

    with ws.kernel(ids) as calc, pytest.raises(_Interrupt):
        al.al_continue(prev, 0.4, calc, noise=cfg.al_noise, checkpoint_path=str(out),
                       checkpoint_every=1, on_step=die)
    mid = al.load_checkpoint(str(out))
    assert mid.iteration == prev.iteration + 1 and not mid.is_terminal

    caplog.clear()
    assert main(argv(out)) == 0
    assert f"U_t=0.4: resuming from {out}" in caplog.messages
    assert out.read_bytes() == (tmp_path / "s2.json").read_bytes()


def test_al_continue_reuses_a_finished_continuation(tmp_path, config_file, caplog):
    argv = _continued(tmp_path, config_file, caplog)
    out = tmp_path / "s2.json"
    before, stamp = out.read_bytes(), os.stat(out).st_mtime_ns
    state = al.load_checkpoint(str(out))

    caplog.clear()
    assert main(argv(out)) == 0
    assert f"U_t=0.4: reusing finished selection {out} (|S|={len(state.selected)})" in (
        caplog.messages
    )
    assert _solved(caplog) == [0]
    assert (out.read_bytes(), os.stat(out).st_mtime_ns) == (before, stamp)


def _swap_ends(payload):
    selected = payload["selected"]
    selected[0], selected[-1] = selected[-1], selected[0]
    return payload


@pytest.mark.parametrize(
    "damage, problem",
    [(lambda p: {**p, "threshold": 0.45}, "holds threshold 0.45, but the stage asks for 0.4"),
     (lambda p: {**p, "batch": 7}, "holds batch 7, but the stage asks for 1000"),
     (_swap_ends, "does not extend the selection at threshold 0.5")],
    ids=["threshold", "batch", "not-extending"],
)
def test_al_continue_rejects_an_out_file_it_cannot_reuse(
    tmp_path, config_file, caplog, damage, problem
):
    argv = _continued(tmp_path, config_file, caplog)
    out = tmp_path / "s2.json"
    out.write_text(json.dumps(damage(json.loads(out.read_text()))))
    before = out.read_bytes()

    assert main(argv(out)) == 2
    assert f"checkpoint {out} {problem}" in caplog.text
    assert out.read_bytes() == before


# -- full workflow ------------------------------------------------------------------


def test_run_all_and_compare_random(tmp_path, config_file, capsys):
    out_dir = str(tmp_path / "ws")
    assert main(["run-all", "--config", config_file, "--out-dir", out_dir]) == 0
    printed = capsys.readouterr().out
    assert "stage 1" in printed and "stage 2" in printed
    assert "report_" in printed
    reports = [n for n in os.listdir(out_dir) if n.startswith("report_")]
    assert len(reports) == 1

    assert main(["compare-random", "--config", config_file, "--out-dir", out_dir]) == 0
    printed = capsys.readouterr().out
    assert "median rmse" in printed
    assert any(n.startswith("comparison_") for n in os.listdir(out_dir))


def test_a_noise_that_fails_every_molecule_names_the_gate(tmp_path, caplog):
    # a 1% noise breaks the monotonic gate of every series of C4..C10
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        {**CONFIG_RAW, "chemical_space": {"min_carbons": 4, "max_carbons": 10},
         "active_learning": {"thresholds": [0.5, 0.4, 0.3]},
         "evaluation": {"n_test": 60}, "oracle": {"noise_sigma": 0.01}}
    ))
    assert main(["run-all", "--config", str(config), "--out-dir", str(tmp_path / "ws")]) == 2
    (failure,) = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
    assert re.fullmatch(
        r"stage failed: no QC-passing training rows: (\d+) of \1 molecules failed QC "
        r"\(by gate: monotonic \1(, quadratic_fit \d+)?\); the oracle noise_sigma is 0.01",
        failure,
    ), failure


# -- installed entry point ---------------------------------------------------------------


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-c", "from alkspace.cli import main; raise SystemExit(main(['enumerate', '4', '6', '--count']))"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "10"


def test_run_all_leaves_scipy_unloaded(tmp_path):
    # The GP linear algebra is numpy only, so no command pays scipy's
    # import; nor numpy.ma's, which np.unique's hash path, np.union1d and
    # np.median load on numpy >= 2.3 (about 10 ms).
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        {**CONFIG_RAW, "chemical_space": {"min_carbons": 4, "max_carbons": 7},
         "evaluation": {"n_test": 8, "control_seeds": [0, 1]}}
    ))
    flags = ["--config", str(config), "--out-dir", str(tmp_path / "ws")]
    code = (
        "import sys\n"
        "from alkspace.cli import main\n"
        f"assert main(['run-all', *{flags!r}]) == 0\n"
        f"assert main(['compare-random', *{flags!r}]) == 0\n"
        "print(sorted({'scipy', 'numpy.ma'} & set(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def _solved(caplog) -> list[int]:
    """N of each ``requested R, solved N kernel pairs in M stacks (I CG
    iterations), built G graphs`` line."""
    lines = (re.fullmatch(r"requested \d+, solved (\d+) kernel pairs in \d+ stacks "
                          r"\(\d+ CG iterations\), built \d+ graphs", m)
             for m in caplog.messages)
    return [int(m[1]) for m in lines if m]


def test_a_workspace_only_grows_by_new_files(tmp_path, config_file, caplog):
    """run-all, compare-random twice, al and al-continue on one workspace:
    out_dir holds only regular files, and no file changes once written."""
    caplog.set_level(logging.INFO, logger="alkspace.pipeline")
    ws = tmp_path / "ws"
    seen: dict[str, tuple[bytes, int]] = {}

    def run(*argv: str) -> set[str]:
        caplog.clear()
        assert main([*argv, "--config", config_file, "--out-dir", str(ws)]) == 0
        names = os.listdir(ws)
        assert all(stat.S_ISREG(os.lstat(ws / n).st_mode) for n in names)
        for name, (data, mtime) in seen.items():
            assert (ws / name).read_bytes() == data, name
            assert os.stat(ws / name).st_mtime_ns == mtime, name
        added = set(names) - set(seen)
        for name in added:
            seen[name] = ((ws / name).read_bytes(), os.stat(ws / name).st_mtime_ns)
        return added

    def segments(names):
        return {n for n in names if n.startswith("kernel_") and n.endswith(".npz")}

    assert len(segments(run("run-all"))) == 1
    added = run("compare-random")
    assert _solved(caplog)[0] > 0
    assert len(segments(added)) == 1 and len(added) == 2  # and the comparison
    assert run("compare-random") == set()
    assert _solved(caplog) == [0]
    assert run("al", "--threshold", "0.5") == set()
    assert _solved(caplog) == [0]
    stage1 = [n for n in seen if n.startswith("al_stage1_")]
    added = run("al-continue", "--checkpoint", str(ws / stage1[0]), "--threshold", "0.45")
    assert f"al_continue_{Path(stage1[0]).stem}_U0.45.json" in added
    assert len(segments(added)) == (1 if _solved(caplog)[0] else 0)
