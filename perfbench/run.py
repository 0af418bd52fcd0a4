"""The alkspace benchmark: four closed-loop workloads, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding ``src/``
and ``BENCHMARK.json``); the program is imported from ``src`` and never
installed. S defaults to BENCHMARK.json's ``run_seconds``. The benchmark
pins itself and its children to one CPU. Each workload sets itself up
several times (reporting the median set-up time), then calls the program
one call at a time, the next call starting when the previous one returned,
until S seconds are measured. Every call's output is checked.

Every set-up and every call is timed between two bursts of a fixed
reference loop (``calibrate.py``), and the end-to-end times ``wall_s`` and
``setup_s`` are the medians of these times scaled to the loop's nominal
speed, so that the host's changes of speed between runs cancel out. The
raw medians are printed beside them and reported as ``raw.wall_s`` and
``raw.setup_s`` in a traced run.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are the end-to-end ones (untraced), with ``--trace 1`` the
per-layer ones named in BENCHMARK.json, from one extra traced call (see
``breakdown.py``).

Workloads (the seed writes ``active_learning.seed``, ``evaluation.split_seed``
and ``oracle.seed``; seed 1 gives the library defaults 1, 11 and 7, and is
the only seed checked against recorded reference values):

    alms_c10_cold    ``alkspace run-all`` into an empty out_dir, C4..C10
    alms_c10_warm    ``run-all`` then ``compare-random`` on a copy of a
                     workspace that one cold run filled at set-up
    select_c12_lazy  library selection at 0.5, 0.4, 0.3 over C4..C12 with a
                     registered MgkCalculator as the kernel provider; the
                     calls take the seeds N, N+1000 and N+2000 in turn, and
                     calls with seed 1 are checked against the reference
    enumerate_c14    ``alkspace enumerate 4 14 --count``
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import breakdown
from calibrate import Bracket, Timing, pin_to_one_cpu
from worker import done

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
DEFAULT_SEED = 1
SETUPS = 3
SELECT_SEEDS = 3
RUN_DEADLINE_S = 170.0
# Reference values were recorded on one machine; the same numpy/scipy
# build elsewhere may round the kernel's fixed point differently, so
# reference RMSEs are compared with this relative tolerance.
RMSE_RTOL = 1e-6
PROPERTIES = ("density", "heat_capacity", "hov")

# Alkane isomer counts (OEIS A000602), the enumeration check
ALKANE_ISOMERS = {
    1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 5, 7: 9, 8: 18, 9: 35, 10: 75,
    11: 159, 12: 355, 13: 802, 14: 1858, 15: 4347, 16: 10359,
}

with open(os.path.join(HERE, "reference.json")) as _fh:
    REFERENCE = json.load(_fh)


class SetupError(RuntimeError):
    """Set-up failed, so nothing can be measured."""


class Run:
    """State of one benchmark run: paths, environment and what was measured."""

    def __init__(self, root: str, workload: str, seed: int, seconds: float, trace: bool):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.started = time.perf_counter()
        self.cpu = pin_to_one_cpu()
        self.work = os.path.join(root, ".perfbench-work", f"{workload}-{os.getpid()}")
        self.nproc = len(os.sched_getaffinity(0))
        self.env = _child_env(root, self.nproc)
        self.setups: list[Timing] = []
        self.calls: list[Timing] = []
        self.peak_rss_kb = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.result: dict[str, float] = {}
        self.env_info: dict[str, object] = {}
        self.trace_files: list[str] = []
        self.traced: Timing | None = None
        self.traced_post_s = 0.0
        self.artifacts_written = 0
        self._children = 0

    def path(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)

    def spawn(self, mode_args: list[str], timed: bool = True) -> "Child":
        """Run the worker with the given arguments and wait for it; the
        child is killed if the run would overrun its deadline. The peak
        memory of timed children is recorded."""
        self._children += 1
        tag = f"child{self._children}"
        out_path, err_path = self.path(f"{tag}.out"), self.path(f"{tag}.err")
        remaining = RUN_DEADLINE_S - (time.perf_counter() - self.started)
        if remaining <= 0:
            raise SetupError("run deadline reached")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, WORKER, *mode_args],
                cwd=self.root, env=self.env, stdout=out, stderr=err,
            )
            killer = threading.Timer(remaining, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if timed:
            self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        with open(out_path) as fh:
            stdout = fh.read()
        with open(err_path) as fh:
            stderr_tail = fh.read()[-2000:]
        return Child(proc.returncode, stdout, stderr_tail)

    def cli(self, args: list[str], timed: bool = True, trace_id: str | None = None) -> "Child":
        if trace_id is None:
            return self.spawn(["cli", "--", *args], timed=timed)
        trace_path = self.path(f"trace-{len(self.trace_files)}.json")
        self.trace_files.append(trace_path)
        child = self.spawn(["cli", "--trace", trace_path, "--run-id", trace_id, "--", *args],
                           timed=False)
        if os.path.exists(trace_path + ".post"):
            # time the child spent counting pairs and writing its spans
            with open(trace_path + ".post") as fh:
                self.traced_post_s += float(fh.read())
        return child

    def probe(self) -> None:
        """Import the program in a fresh interpreter and record its environment."""
        out = self.path("probe.json")
        child = self.spawn(["probe", out], timed=False)
        if child.returncode != 0:
            raise SetupError(f"cannot import alkspace from src/: {child.stderr}")
        with open(out) as fh:
            info = json.load(fh)
        expected = os.path.join(self.root, "src", "alkspace")
        if os.path.dirname(info["alkspace_file"]) != expected:
            raise SetupError(f"alkspace imported from {info['alkspace_file']}, not {expected}")
        self.env_info.update(info)

    def record(self, timing: Timing, trace_id: str | None) -> None:
        if trace_id is None:
            self.calls.append(timing)
        else:
            self.traced = timing._replace(wall=timing.wall - self.traced_post_s)

    def check(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"call {self.attempted}: " + "; ".join(problems))

    def measuring(self, started: float) -> bool:
        return not done(len(self.calls), time.perf_counter() - started, self.seconds)


class Child:
    def __init__(self, returncode: int, stdout: str, stderr: str):
        self.returncode = returncode
        self.stdout = stdout
        self.stderr = stderr


def _child_env(root: str, nproc: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.pop("PYTHONSTARTUP", None)
    # BLAS pools are capped at the cores this process may use
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        current = env.get(var, "")
        env[var] = current if current.isdigit() and 0 < int(current) <= nproc else str(nproc)
    return env


# -- generated inputs --------------------------------------------------------------


def alms_config(seed: int) -> dict:
    """The acceptance config (thresholds 0.5/0.4/0.3, batch 1000, kernel
    lambda 0.2, control seeds 0-4) narrowed to C4..C10, with n_test scaled
    to the smaller space."""
    return {
        "chemical_space": {"min_carbons": 4, "max_carbons": 10},
        "kernel": {"lambda": 0.2},
        "active_learning": {"thresholds": [0.5, 0.4, 0.3], "batch": 1000, "seed": seed},
        "oracle": {"seed": seed + 6},
        "evaluation": {"n_test": 60, "split_seed": seed + 10,
                       "control_seeds": [0, 1, 2, 3, 4]},
    }


def select_job(seed: int, seconds: float, setups: int) -> dict:
    """The selection calls take SELECT_SEEDS seeds derived from the run's
    seed in turn: how many pairs a selection solves depends on its seed (by
    about a tenth between seeds), and one seed's luck should not set a
    run's median."""
    return {
        "min_carbons": 4, "max_carbons": 12, "lambda": 0.2,
        "thresholds": [0.5, 0.4, 0.3], "batch": 1000, "noise": 1e-4,
        "seeds": [seed + 1000 * k for k in range(SELECT_SEEDS)],
        "seconds": seconds, "setups": setups,
    }


def _write_json(path: str, obj: object) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)


# -- output checks -----------------------------------------------------------------


def _digests(directory: str) -> dict[str, str]:
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _dir_bytes(directory: str) -> int:
    return sum(os.path.getsize(os.path.join(directory, n)) for n in os.listdir(directory))


def _one(directory: str, prefix: str, suffix: str) -> str | None:
    names = [n for n in os.listdir(directory) if n.startswith(prefix) and n.endswith(suffix)]
    return os.path.join(directory, names[0]) if len(names) == 1 else None


def _checked(check, *args) -> list[str]:
    """Runs an output check; output it cannot read counts as a failure."""
    try:
        return check(*args)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output ({type(exc).__name__}: {exc})"]


def _close(value: float, ref: float) -> bool:
    return math.isclose(value, ref, rel_tol=RMSE_RTOL)


def check_stages(stages: list[dict], universe: set[str]) -> list[str]:
    """Every stage is terminal, partitions the universe into selected and
    abandoned, and keeps the previous stage's selection as its prefix."""
    problems = []
    prev: list[str] = []
    for k, stage in enumerate(stages, 1):
        sel, pool, ab = stage["selected"], stage["pool"], stage["abandoned"]
        if pool:
            problems.append(f"stage {k} ended with {len(pool)} molecules pooled")
        if len(set(sel)) != len(sel) or set(sel) & set(ab) or set(sel) | set(ab) | set(pool) != universe:
            problems.append(f"stage {k} does not partition the {len(universe)} molecules")
        if sel[: len(prev)] != prev:
            problems.append(f"stage {k} selection does not extend stage {k - 1}")
        prev = sel
    return problems


def check_alms_out(run: Run, out_dir: str) -> list[str]:
    """run-all outputs: a finite report, nested stage checkpoints that
    partition the molecule list, and on the default seed the reference
    stage sizes and final RMSEs."""
    report_path = _one(out_dir, "report_", ".json")
    mol_path = _one(out_dir, "molecules_", ".txt")
    if report_path is None or mol_path is None:
        return ["report or molecule list missing"]
    with open(report_path) as fh:
        report = json.load(fh)
    with open(mol_path) as fh:
        universe = {line.strip() for line in fh if line.strip()}
    problems = []
    stages = []
    for k in range(1, len(report["stages"]) + 1):
        path = _one(out_dir, f"al_stage{k}_", ".json")
        if path is None:
            return [f"checkpoint of stage {k} missing"]
        with open(path) as fh:
            stages.append(json.load(fh))
    problems += check_stages(stages, universe)
    sizes = [s["n_selected"] for s in report["stages"]]
    final = report["stages"][-1]["metrics"]
    rmse = {p: final[p]["rmse"] for p in PROPERTIES}
    if not all(math.isfinite(v) and v > 0 for v in rmse.values()):
        problems.append(f"non-finite final RMSE {rmse}")
    if sizes != [len(s["selected"]) for s in stages]:
        problems.append("report stage sizes disagree with the checkpoints")
    if run.seed == DEFAULT_SEED:
        ref = REFERENCE["alms"]
        if sizes != ref["n_selected"]:
            problems.append(f"stage sizes {sizes} != reference {ref['n_selected']}")
        if not all(_close(rmse[p], ref["rmse"][p]) for p in PROPERTIES):
            problems.append(f"final RMSE {rmse} != reference {ref['rmse']}")
    run.result.update({f"result.rmse.{p}": v for p, v in rmse.items()})
    run.result["result.n_selected"] = sizes[-1]
    return problems


def check_comparison(run: Run, out_dir: str) -> list[str]:
    path = _one(out_dir, "comparison_", ".json")
    if path is None:
        return ["comparison report missing"]
    with open(path) as fh:
        cmp = json.load(fh)
    al_med, rnd_med = cmp["median_rmse_al"], cmp["median_rmse_random"]
    values = [*al_med.values(), *rnd_med.values()]
    if not all(math.isfinite(v) and v > 0 for v in values):
        return [f"non-finite comparison medians {cmp}"]
    if run.seed != DEFAULT_SEED:
        return []
    ref = REFERENCE["comparison"]
    problems = []
    if not all(cmp["al_wins"][p] for p in PROPERTIES):
        problems.append(f"AL does not win on every property: {cmp['al_wins']}")
    if not all(_close(al_med[p], ref["median_rmse_al"][p])
               and _close(rnd_med[p], ref["median_rmse_random"][p]) for p in PROPERTIES):
        problems.append(f"comparison medians {al_med} / {rnd_med} != reference")
    return problems


# -- workloads ---------------------------------------------------------------------


def _cli_setup(run: Run, prepare=None) -> None:
    for i in range(SETUPS):
        with Bracket() as b:
            run.probe()
            if prepare is not None:
                prepare(i)
        run.setups.append(b.timing)


def _stat_dir(directory: str) -> dict[str, tuple]:
    out = {}
    for name in os.listdir(directory):
        st = os.stat(os.path.join(directory, name))
        out[name] = (st.st_mtime_ns, st.st_size)
    return out


def alms_cold(run: Run) -> None:
    config = run.path("config.json")

    def prepare(_i: int) -> None:
        _write_json(config, alms_config(run.seed))

    _cli_setup(run, prepare)
    first: dict[str, str] | None = None

    def call(trace_id: str | None = None) -> None:
        nonlocal first
        out_dir = run.path(f"cold-{run.attempted}")
        os.makedirs(out_dir)
        with Bracket() as b:
            child = run.cli(["run-all", "--config", config, "--out-dir", out_dir],
                            timed=trace_id is None, trace_id=trace_id)
        run.record(b.timing, trace_id)
        if child.returncode != 0:
            problems = [f"run-all exited {child.returncode}: {child.stderr}"]
        else:
            problems = _checked(check_alms_out, run, out_dir)
            digests = _digests(out_dir)
            if first is None:
                first = digests
            elif digests != first:
                problems.append("cold run not byte-identical to the first cold run")
            run.result["result.artifact_mb"] = _dir_bytes(out_dir) / 1e6
            run.artifacts_written = len(digests)
        run.check(problems)
        shutil.rmtree(out_dir)

    _measure(run, call)


def alms_warm(run: Run) -> None:
    config = run.path("config.json")

    def prepare(i: int) -> None:
        _write_json(config, alms_config(run.seed))
        out_dir = run.path(f"snapshot-{i}")
        os.makedirs(out_dir)
        child = run.cli(["run-all", "--config", config, "--out-dir", out_dir], timed=False)
        if child.returncode != 0:
            raise SetupError(f"cold fill exited {child.returncode}: {child.stderr}")

    _cli_setup(run, prepare)
    # the warm calls check the snapshot's outputs, which they must leave unchanged
    snapshot = run.path(f"snapshot-{SETUPS - 1}")
    snap_digests = _digests(snapshot)

    def call(trace_id: str | None = None) -> None:
        out_dir = run.path(f"warm-{run.attempted}")
        shutil.copytree(snapshot, out_dir)
        before = _stat_dir(out_dir)
        problems: list[str] = []
        with Bracket() as b:
            for command in ("run-all", "compare-random"):
                child = run.cli([command, "--config", config, "--out-dir", out_dir],
                                timed=trace_id is None, trace_id=trace_id)
                if child.returncode != 0:
                    problems.append(f"{command} exited {child.returncode}: {child.stderr}")
                    break
        if not problems:
            after = _digests(out_dir)
            changed = [n for n, d in snap_digests.items() if after.get(n) != d]
            if changed:
                problems.append(f"warm rerun changed {changed}")
            problems += _checked(check_alms_out, run, out_dir)
            problems += _checked(check_comparison, run, out_dir)
            run.result["result.artifact_mb"] = _dir_bytes(out_dir) / 1e6
            after_stat = _stat_dir(out_dir)
            run.artifacts_written = sum(before.get(n) != st for n, st in after_stat.items())
        run.record(b.timing, trace_id)
        run.check(problems)
        shutil.rmtree(out_dir)

    _measure(run, call)


def enumerate_c14(run: Run) -> None:
    _cli_setup(run)
    expected = sum(ALKANE_ISOMERS[n] for n in range(4, 15))

    def call(trace_id: str | None = None) -> None:
        with Bracket() as b:
            child = run.cli(["enumerate", "4", "14", "--count"],
                            timed=trace_id is None, trace_id=trace_id)
        lines = child.stdout.split()
        if child.returncode != 0 or not lines:
            problems = [f"enumerate exited {child.returncode}: {child.stderr}"]
        elif lines[-1] != str(expected):
            problems = [f"enumerate counted {lines[-1]} isomers, expected {expected}"]
        else:
            problems = []
        run.record(b.timing, trace_id)
        run.check(problems)

    _measure(run, call)


def _check_selection(run: Run, payload: dict, firsts: dict) -> None:
    """Each call's stages partition the enumerated ids and nest, and equal
    those of the first call with the same seed (kept in ``firsts``)."""
    ids = payload["ids"]
    universe = set(ids)
    expected = sum(ALKANE_ISOMERS[n] for n in range(4, 13))
    for call in payload["calls"]:
        if "error" in call:
            run.check([f"selection raised {call['error']}"])
            continue
        stages = call["stages"]
        problems = []
        if len(ids) != expected or len(universe) != expected:
            problems.append(f"{len(ids)} ids enumerated, expected {expected} distinct")
        problems += check_stages(stages, universe)
        if stages != firsts.setdefault(call["seed"], stages):
            problems.append(f"selection differs from the run's first with seed {call['seed']}")
        sizes = [len(s["selected"]) for s in stages]
        if call["seed"] == DEFAULT_SEED and sizes != REFERENCE["select"]["n_selected"]:
            problems.append(f"stage sizes {sizes} != reference {REFERENCE['select']['n_selected']}")
        if call["seed"] == run.seed:
            run.result["result.n_selected"] = sizes[-1]
        run.check(problems)


def select_c12_lazy(run: Run) -> None:
    job = run.path("job.json")
    out = run.path("select.json")
    _write_json(job, select_job(run.seed, run.seconds, SETUPS))
    run.probe()
    child = run.spawn(["select", "--job", job, "--out", out])
    if child.returncode != 0:
        raise SetupError(f"selection worker exited {child.returncode}: {child.stderr}")
    with open(out) as fh:
        payload = json.load(fh)
    run.setups = [Timing(*t) for t in payload["setups"]]
    run.calls = [Timing(*c["timing"]) for c in payload["calls"]]
    firsts: dict[int, list] = {}
    _check_selection(run, payload, firsts)
    if not run.trace:
        return
    _write_json(job, select_job(run.seed, run.seconds, 1))
    trace_path = run.path("trace-0.json")
    child = run.spawn(["select", "--job", job, "--out", out, "--trace", trace_path,
                       "--run-id", f"{run.workload}:traced"], timed=False)
    if child.returncode != 0:
        run.check([f"traced selection worker exited {child.returncode}: {child.stderr}"])
        return
    with open(out) as fh:
        payload = json.load(fh)
    _check_selection(run, payload, firsts)  # same selection in a fresh process
    run.trace_files.append(trace_path)
    run.traced = Timing(*payload["calls"][0]["timing"])


def _measure(run: Run, call) -> None:
    """Closed loop of untraced calls, then one traced call in a trace run."""
    started = time.perf_counter()
    while run.measuring(started):
        call()
    if run.trace:
        call(trace_id=f"{run.workload}:traced")


WORKLOADS = {
    "alms_c10_cold": alms_cold,
    "alms_c10_warm": alms_warm,
    "select_c12_lazy": select_c12_lazy,
    "enumerate_c14": enumerate_c14,
}


# -- reporting ---------------------------------------------------------------------


def _environment(run: Run) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    src = os.path.join(run.root, "src", "alkspace")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = "not a git checkout"
    if os.path.isdir(os.path.join(run.root, ".git")):
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.root,
                             capture_output=True, text=True, check=False)
        commit = res.stdout.strip() or commit
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "pinned_cpu": run.cpu,
        "cpu": model,
        **{k: v for k, v in run.env_info.items() if k != "alkspace_file"},
        "blas_threads": run.env["OPENBLAS_NUM_THREADS"],
    }


def _print_breakdown(run: Run, metrics: dict, layer_self: dict) -> None:
    wall = metrics["trace.wall_s"]
    print(f"traced call of {run.workload}: {wall:.3f} s")
    for layer, seconds in sorted(layer_self.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<16} self {seconds:9.3f} s  {100 * seconds / wall:5.1f}%")
    for row in ("import_s", "unattributed_s"):
        print(f"  {row:<16}      {metrics[row]:9.3f} s  {100 * metrics[row] / wall:5.1f}%")
    print(f"tracing overhead: {metrics['trace.overhead_s']:+.3f} s "
          f"({100 * metrics['trace.overhead_frac']:+.1f}%), scaled times of one traced "
          f"call against the median of {len(run.calls)} untraced calls")
    for name in sorted(metrics):
        if name.endswith("self_s") or name.startswith("trace.") or name in ("import_s", "unattributed_s"):
            continue
        label = " (computed)" if name in breakdown.COMPUTED else ""
        print(f"  {name:<28} {metrics[name]:.6g}{label}")


def main(argv: list[str]) -> int:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "alkspace", "cli.py")):
        print("perfbench: run from the root of an alkspace checkout (no src/alkspace here)",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    run = Run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    os.makedirs(run.work)
    try:
        try:
            WORKLOADS[args.workload](run)
        except SetupError as exc:
            print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
            return 1
        if not run.calls:
            print(f"perfbench: {args.workload}: no call completed", file=sys.stderr)
            return 1
        scaled = [t.scaled for t in run.calls]
        wall = statistics.median(scaled)
        setup = statistics.median(t.scaled for t in run.setups)
        raw_wall = statistics.median(t.wall for t in run.calls)
        raw_setup = statistics.median(t.wall for t in run.setups)
        failed = len(run.failures)
        for failure in run.failures:
            print(f"FAILED {failure}")
        print(f"{run.workload} seed {run.seed}: wall_s median {wall:.4f} over "
              f"{len(scaled)} calls (min {min(scaled):.4f}, max {max(scaled):.4f}; "
              f"raw median {raw_wall:.4f}); setup_s median {setup:.4f} of {len(run.setups)} "
              f"(raw {raw_setup:.4f}); failed_frac {failed / max(run.attempted, 1):.3f}")
        tail = breakdown.tail_percentile(len(scaled))
        tail_text = (f"p{tail:g} {breakdown.percentile(scaled, tail):.4f}" if tail > 50
                     else "no tail percentile (fewer than 20 calls)")
        print(f"wall_s {tail_text}; samples (scaled/raw): "
              + " ".join(f"{t.scaled:.4f}/{t.wall:.4f}" for t in run.calls))
        print("env: " + json.dumps(_environment(run), sort_keys=True))
        if args.trace:
            if run.traced is None:
                print(f"perfbench: {args.workload}: traced call did not run", file=sys.stderr)
                return 1
            metrics, layer_self = breakdown.analyze(run.trace_files, run.traced.wall)
            metrics["trace.overhead_s"] = run.traced.scaled - wall
            metrics["trace.overhead_frac"] = run.traced.scaled / wall - 1.0
            metrics["raw.wall_s"] = raw_wall
            metrics["raw.setup_s"] = raw_setup
            metrics["ref.unit_s"] = statistics.median(t.reference for t in run.calls)
            metrics["pipeline.artifacts_written"] = run.artifacts_written
            for name in breakdown.RESULT_METRICS:
                metrics[name] = run.result.get(name, 0.0)
            _print_breakdown(run, metrics, layer_self)
            out = {m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
        else:
            out = {
                "wall_s": {"value": wall, "unit": "s"},
                "setup_s": {"value": setup, "unit": "s"},
                "peak_rss_mb": {"value": run.peak_rss_kb / 1024.0, "unit": "MB"},
            }
        print(json.dumps({"correct": failed == 0, "attempted": run.attempted,
                          "failed": failed, "metrics": out}))
        return 0
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        parent = os.path.dirname(run.work)
        if not os.listdir(parent):
            os.rmdir(parent)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
