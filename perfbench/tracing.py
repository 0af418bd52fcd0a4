"""Span recorder that wraps the public functions and classes of alkspace.

The program is not edited: :meth:`Tracer.install` replaces each public
function of the traced modules, and each public method of their public
classes, with a wrapper that records a span (name, start, end, parent span,
run id) in memory. :meth:`Tracer.dump` writes the spans and the counters
out as JSON once the traced call has finished.

A few boundaries also record counts (rows, pairs, steps) from arguments
and return values, so that ratios are measured where the work happens.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time

LAYERS = ("molspace", "mgk", "gpr", "active_learning", "thermo", "pipeline", "cli")

# active_learning entry points whose provider and on_step hook are wrapped
_AL_LOOPS = ("al_run", "al_resume", "al_continue")


class _ProviderProxy:
    """Kernel provider wrapper that times every request the selection loop
    makes and counts the entries requested."""

    def __init__(self, provider, tracer: "Tracer"):
        self._provider = provider
        self._tracer = tracer

    def block(self, keys_a, keys_b):
        t0 = time.perf_counter()
        try:
            return self._provider.block(keys_a, keys_b)
        finally:
            self._tracer.count("al.provider_wait_s", time.perf_counter() - t0)
            self._tracer.count("al.provider_entries", len(keys_a) * len(keys_b))

    def diag(self, keys):
        t0 = time.perf_counter()
        try:
            return self._provider.diag(keys)
        finally:
            self._tracer.count("al.provider_wait_s", time.perf_counter() - t0)
            self._tracer.count("al.provider_entries", len(keys))


class Tracer:
    """In-memory spans and counters for one traced call (one run id)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.active = False
        # span: [id, parent id, name, start, end, error type, attrs]
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.step_seconds: list[float] = []
        self._stack: list[int] = []
        self._calculators: dict[int, list] = {}  # id -> [calculator, rows loaded]
        self._requested: dict[int, set] = {}
        self._annotate = {
            "molspace.enumerate_alkane_smiles": _annotate_len,
            "molspace.enumerate_alkanes": _annotate_len,
            "gpr.fit": _annotate_fit,
            "gpr.predict_mean": _annotate_queries,
            "gpr.predict_variance": _annotate_queries,
            "gpr.predict_variance_with_diagnostics": _annotate_queries,
            "gpr.GprModel.predict_mean": _annotate_queries,
            "gpr.GprModel.predict_variance": _annotate_queries,
            "thermo.simulate_series": _annotate_series,
            "thermo.read_dataset": _annotate_len,
            "mgk.MgkCalculator.save_cache": _annotate_saved_file,
            "mgk.MgkCalculator.block": self._annotate_block,
            "mgk.MgkCalculator.raw": self._annotate_raw,
            "mgk.MgkCalculator.load_cache": self._annotate_load,
            "active_learning.al_step": self._annotate_al_step,
        }

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap the public surface of every traced module, and rebind each
        name that other alkspace modules imported from it."""
        modules = {
            layer: importlib.import_module(f"alkspace.{layer}") for layer in LAYERS
        }
        replaced: dict[int, tuple[object, object]] = {}
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(f"{layer}.{name}", obj)
                    replaced[id(obj)] = (obj, wrapped)
                elif inspect.isclass(obj):
                    self._wrap_class(f"{layer}.{name}", obj)
        package = importlib.import_module("alkspace")
        for module in (package, *modules.values()):
            for name, obj in list(vars(module).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, name, hit[1])

    def _wrap_class(self, prefix: str, cls: type) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            if isinstance(attr, staticmethod):
                setattr(cls, name, staticmethod(self._wrap(f"{prefix}.{name}", attr.__func__)))
            elif isinstance(attr, classmethod):
                setattr(cls, name, classmethod(self._wrap(f"{prefix}.{name}", attr.__func__)))
            elif inspect.isfunction(attr):
                setattr(cls, name, self._wrap(f"{prefix}.{name}", attr))

    def _wrap(self, name: str, fn):
        tracer = self
        annotate = self._annotate.get(name)
        prepare = None
        if name.startswith("mgk.MgkCalculator."):
            prepare = self._track_calculator
        elif name in {f"active_learning.{n}" for n in _AL_LOOPS}:
            prepare = self._al_prepare(fn, hook_steps=True)
        elif name == "active_learning.al_step":
            prepare = self._al_prepare(fn, hook_steps=False)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = [len(tracer.spans), tracer._stack[-1] if tracer._stack else None,
                    name, 0.0, 0.0, None, None]
            tracer.spans.append(span)
            tracer._stack.append(span[0])
            if prepare is not None:
                args, kwargs = prepare(span, args, kwargs)
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[4] = time.perf_counter()
                tracer._stack.pop()
            if annotate is not None:
                span[6] = annotate(span, args, kwargs, result)
            return result

        return traced

    # -- active learning: provider proxy and on_step hook ----------------------

    def _al_prepare(self, fn, hook_steps: bool):
        """Wraps the provider of an active_learning call and, for the loops,
        times each step through the public ``on_step`` hook."""
        signature = inspect.signature(fn)

        def prepare(span, args, kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.arguments["kernel_provider"] = _ProviderProxy(
                bound.arguments["kernel_provider"], self
            )
            if not hook_steps:
                return bound.args, bound.kwargs
            user_hook = bound.arguments.get("on_step")
            # |S| at entry: the state argument, or the random seed pair of al_run
            start = bound.arguments.get("state", bound.arguments.get("terminal_state"))
            last = {"time": None, "size": len(start.selected) if start is not None else 2}

            def on_step(state):
                now = time.perf_counter()
                # the first step also carries the loop's initial factorization
                self._step(now - (last["time"] or span[3]), len(state.selected) > last["size"])
                last["time"], last["size"] = now, len(state.selected)
                if user_hook is not None:
                    user_hook(state)

            bound.arguments["on_step"] = on_step
            return bound.args, bound.kwargs

        return prepare

    def _step(self, seconds: float, selected: bool) -> None:
        self.step_seconds.append(seconds)
        self.count("al.steps")
        if selected:
            self.count("al.selected")

    def _annotate_al_step(self, span, args, kwargs, result):
        state = args[0] if args else kwargs["state"]
        self._step(span[4] - span[3], len(result.selected) > len(state.selected))
        return None

    # -- kernel calculators ------------------------------------------------------

    def _track_calculator(self, span, args, kwargs):
        calc = args[0]
        self._calculators.setdefault(id(calc), [calc, 0])
        return args, kwargs

    def _annotate_load(self, span, args, kwargs, result):
        self._calculators[id(args[0])][1] += int(result)
        return {"rows": int(result)}

    def _annotate_block(self, span, args, kwargs, result):
        calc, keys_a, keys_b = args[0], args[1], args[2]
        seen = self._requested.setdefault(id(calc), set())
        set_a, set_b = set(keys_a), set(keys_b)
        seen.update((k, k) for k in set_a | set_b)
        seen.update((a, b) if a <= b else (b, a) for a in set_a for b in set_b)
        return {"entries": len(keys_a) * len(keys_b)}

    def _annotate_raw(self, span, args, kwargs, result):
        calc, a, b = args[0], args[1], args[2]
        self._requested.setdefault(id(calc), set()).add((a, b) if a <= b else (b, a))
        return None

    def kernel_work(self, scratch_dir: str) -> dict[str, int]:
        """Pairs solved and distinct pairs requested, over every calculator
        the traced call used. Pairs solved is the calculator's cache size
        (the row count its public ``save_cache`` returns) minus the rows it
        loaded from disk."""
        solved = 0
        for calc, loaded in self._calculators.values():
            path = os.path.join(scratch_dir, f"rows-{os.getpid()}-{id(calc)}.csv")
            try:
                rows = calc.save_cache(path)
            finally:
                if os.path.exists(path):
                    os.unlink(path)
            solved += rows - loaded
        requested = sum(len(s) for s in self._requested.values())
        return {"pairs_solved": solved, "pairs_requested": requested}

    # -- output ------------------------------------------------------------------

    def dump(self, path: str, extra: dict | None = None) -> None:
        payload = {
            "run_id": self.run_id,
            "spans": self.spans,
            "counters": self.counters,
            "step_seconds": self.step_seconds,
            **(extra or {}),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


def _annotate_len(span, args, kwargs, result):
    return {"n": len(result)}


def _annotate_queries(span, args, kwargs, result):
    # module functions take (model, queries); GprModel methods (self, queries)
    return {"n": len(args[1] if len(args) > 1 else kwargs["queries"])}


def _annotate_fit(span, args, kwargs, result):
    return {"n": len(args[0]), "jitter": float(result.jitter)}


def _annotate_series(span, args, kwargs, result):
    return {"qc_drop": not result.qc.passed}


def _annotate_saved_file(span, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path), "rows": int(result)}
