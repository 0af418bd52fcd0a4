"""Child process of the benchmark: runs one program call, traced or not.

    worker.py probe OUT
        import the program, write the environment it runs in to OUT
    worker.py cli [--trace OUT --run-id ID] -- ARGS...
        run ``alkspace ARGS...`` (the ``alkspace.cli`` entry point); a
        traced call also writes OUT.post, the seconds its work after the
        call (counting solved pairs, writing OUT) took
    worker.py select --job JOB --out OUT [--trace OUT --run-id ID]
        library selection over a registered MgkCalculator: set up
        (enumerate, parse, register) several times, then time closed-loop
        selections for the requested seconds, each between two bursts of
        the reference loop (``calibrate.py``), the calls taking the job's
        seeds in turn; a traced job makes one call, with the first seed

The benchmark starts this script with ``PYTHONPATH`` pointing at the
checkout's ``src`` directory, so the program is imported from source.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from calibrate import Bracket

# A run keeps calling until it has measured for the requested seconds and
# made at least MIN_CALLS calls, but stops at twice the seconds regardless.
MIN_CALLS = 3


def _probe(out: str) -> int:
    import numpy
    import scipy

    import alkspace.cli  # noqa: F401 - the import is what the probe times

    build = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = build.get("blas", {})
    info = {
        "alkspace_file": os.path.abspath(alkspace.cli.__file__),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
    }
    with open(out, "w") as fh:
        json.dump(info, fh)
    return 0


def _cli(args: list[str], trace: str | None, run_id: str | None) -> int:
    t0 = time.perf_counter()
    from alkspace import cli

    imported = time.perf_counter()
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer(run_id or "cli")
        tracer.install()
        tracer.active = True
    try:
        return cli.main(args)
    finally:
        if tracer is not None:
            # the parent times this process whole, and takes off the time
            # of the work below, which untraced calls do not do
            post = time.perf_counter()
            tracer.active = False
            tracer.dump(trace, {"kernel": tracer.kernel_work(os.path.dirname(trace)),
                                "import_s": imported - t0})
            with open(trace + ".post", "w") as fh:
                fh.write(repr(time.perf_counter() - post))


def _select(job_path: str, out: str, trace: str | None, run_id: str | None) -> int:
    from alkspace import active_learning as al
    from alkspace.mgk import MgkCalculator, MgkHyperparameters
    from alkspace.molspace import enumerate_alkane_smiles, parse_smiles

    with open(job_path) as fh:
        job = json.load(fh)
    params = MgkHyperparameters(lambda_=job["lambda"])

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer(run_id or "select")
        tracer.install()

    setups = []
    for _ in range(job["setups"]):
        with Bracket() as b:
            ids = [str(s) for s in enumerate_alkane_smiles(job["min_carbons"], job["max_carbons"])]
            graphs = [parse_smiles(s) for s in ids]
            MgkCalculator(params).register(graphs)  # canonical ids are cached on the graphs
        setups.append(b.timing)

    def select(seed: int) -> list[dict]:
        calc = MgkCalculator(params)
        keys = calc.register(graphs)
        thresholds = job["thresholds"]
        state = al.al_run(keys, thresholds[0], job["batch"], seed, calc, noise=job["noise"])
        states = [state]
        for threshold in thresholds[1:]:
            state = al.al_continue(state, threshold, calc, noise=job["noise"])
            states.append(state)
        return [
            {"selected": list(s.selected), "pool": sorted(s.pool), "abandoned": sorted(s.abandoned)}
            for s in states
        ]

    calls = []
    started = time.perf_counter()
    while True:
        seed = job["seeds"][len(calls) % len(job["seeds"])]
        with Bracket() as b:
            if tracer is not None:
                tracer.active = True
            try:
                call = {"seed": seed, "stages": select(seed)}
            except Exception as exc:  # a failing call is reported, and the loop goes on
                call = {"seed": seed, "error": f"{type(exc).__name__}: {exc}"}
            if tracer is not None:
                tracer.active = False
        call["timing"] = b.timing
        calls.append(call)
        elapsed = time.perf_counter() - started
        if tracer is not None or done(len(calls), elapsed, job["seconds"]):
            break

    if tracer is not None:
        tracer.dump(trace, {"kernel": tracer.kernel_work(os.path.dirname(trace)),
                            "wall_s": calls[0]["timing"].wall})
    with open(out, "w") as fh:
        json.dump({"ids": ids, "setups": setups, "calls": calls}, fh)
    return 0


def done(calls: int, elapsed: float, seconds: float) -> bool:
    """Closed-loop stop rule, shared with the benchmark's parent process."""
    return (elapsed >= seconds and calls >= MIN_CALLS) or elapsed >= 2 * seconds


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="worker.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("probe")
    p.add_argument("out")
    p = sub.add_parser("cli")
    p.add_argument("--trace")
    p.add_argument("--run-id")
    p.add_argument("args", nargs=argparse.REMAINDER)
    p = sub.add_parser("select")
    p.add_argument("--job", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace")
    p.add_argument("--run-id")
    ns = parser.parse_args(argv)
    if ns.mode == "probe":
        return _probe(ns.out)
    if ns.mode == "cli":
        args = ns.args[1:] if ns.args[:1] == ["--"] else ns.args
        return _cli(args, ns.trace, ns.run_id)
    return _select(ns.job, ns.out, ns.trace, ns.run_id)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
