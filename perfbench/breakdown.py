"""Per-layer metrics from the spans of one traced call.

A span's self time is its duration minus the time its child spans cover;
a layer's self time is the sum over its spans. Together with ``import_s``
(importing the program in a command-line call) and ``unattributed_s`` (time
outside every span: interpreter start, the benchmark's own glue) the layer
self times add up to the traced wall time. "Busy" time of a layer counts only its outermost spans, so nested
calls within one layer are not counted twice.
"""

from __future__ import annotations

import json
import statistics

# module name -> metric prefix
LAYER_PREFIX = {
    "molspace": "molspace",
    "mgk": "mgk",
    "gpr": "gpr",
    "active_learning": "al",
    "thermo": "thermo",
    "pipeline": "pipeline",
    "cli": "cli",
}

_ENUMERATE = {"molspace.enumerate_alkane_smiles", "molspace.enumerate_alkanes"}
_PREDICT = {
    "gpr.predict_mean",
    "gpr.predict_variance",
    "gpr.predict_variance_with_diagnostics",
    "gpr.GprModel.predict_mean",
    "gpr.GprModel.predict_variance",
}


def tail_percentile(n: int) -> float:
    """Highest of the usual percentiles with at least ten samples beyond it;
    50 when there are too few samples for any of them."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= 10:
            return p
    return 50.0


def percentile(values: list[float], p: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(p / 100.0 * len(ordered)))]


class _Spans:
    """Spans of one process, with the layers and names of their ancestors."""

    def __init__(self, rows: list[list]):
        self.rows = rows
        child_time = [0.0] * len(rows)
        self.outer_layers: list[frozenset] = []
        self.outer_names: list[frozenset] = []
        for sid, parent, name, start, end, _err, _attrs in rows:
            if parent is None:
                self.outer_layers.append(frozenset())
                self.outer_names.append(frozenset())
            else:
                child_time[parent] += end - start
                pname = rows[parent][2]
                self.outer_layers.append(self.outer_layers[parent] | {pname.split(".", 1)[0]})
                self.outer_names.append(self.outer_names[parent] | {pname})
        self.self_time = [r[4] - r[3] - child_time[i] for i, r in enumerate(rows)]


def analyze(trace_files: list[str], wall_s: float) -> tuple[dict, dict]:
    """Returns (metrics, layer self times) for one traced call, which may
    span several processes (one trace file each)."""
    m: dict[str, float] = {}

    def add(name: str, value: float) -> None:
        m[name] = m.get(name, 0) + value

    layer_self = {layer: 0.0 for layer in LAYER_PREFIX}
    steps: list[float] = []
    counters: dict[str, float] = {}
    solved = requested = 0
    import_s = 0.0
    for path in trace_files:
        with open(path) as fh:
            payload = json.load(fh)
        spans = _Spans(payload["spans"])
        steps += payload["step_seconds"]
        for key, value in payload["counters"].items():
            counters[key] = counters.get(key, 0) + value
        solved += payload["kernel"]["pairs_solved"]
        requested += payload["kernel"]["pairs_requested"]
        import_s += payload.get("import_s", 0.0)
        for i, (_sid, _parent, name, start, end, err, attrs) in enumerate(spans.rows):
            layer = name.split(".", 1)[0]
            dur = end - start
            attrs = attrs or {}
            layer_self[layer] += spans.self_time[i]
            if layer not in spans.outer_layers[i]:
                add(f"{LAYER_PREFIX[layer]}.busy_s", dur)
            outer = spans.outer_names[i]
            if name in _ENUMERATE and not outer & _ENUMERATE:
                add("molspace.enumerate_s", dur)
                add("molspace.isomers", attrs["n"])
            elif name == "molspace.parse_smiles" and not outer & _ENUMERATE:
                add("molspace.parse_s", dur)
                add("molspace.parse_calls", 1)
            elif name == "mgk.MgkCalculator.block":
                add("mgk.block_calls", 1)
                add("mgk.block_entries", attrs["entries"])
            elif name == "mgk.MgkCalculator.load_cache":
                add("mgk.cache_load_s", dur)
                add("mgk.cache_rows_loaded", attrs["rows"])
            elif name == "mgk.MgkCalculator.save_cache":
                add("mgk.cache_save_s", dur)
                add("mgk.cache_mb", attrs["bytes"] / 1e6)
            elif name == "gpr.fit":
                add("gpr.fit_s", dur)
                add("gpr.fit_calls", 1)
                add("gpr.fit_rows", attrs["n"])
                add("gpr.jitter_fits", 1 if attrs["jitter"] > 0 else 0)
            elif name in _PREDICT and not outer & _PREDICT:
                add("gpr.predict_s", dur)
                add("gpr.predict_rows", attrs["n"])
            elif name == "gpr.TemperatureProductKernel.block" and name not in outer:
                add("gpr.composite_block_s", dur)
            elif name == "gpr.extend_cholesky":
                add("gpr.extend_calls", 1)
                add("gpr.extend_fallbacks", 1 if err == "FitError" else 0)
            elif name == "active_learning.save_checkpoint":
                add("al.checkpoint_writes", 1)
                add("al.checkpoint_s", dur)
            elif name == "thermo.simulate_series":
                add("thermo.simulate_s", dur)
                add("thermo.series", 1)
                add("thermo.qc_drops", 1 if attrs["qc_drop"] else 0)
            elif name == "thermo.write_dataset":
                add("thermo.write_s", dur)
            elif name == "thermo.read_dataset":
                add("thermo.read_s", dur)
                add("thermo.rows_read", attrs["n"])
            elif name == "pipeline.export_plot_data":
                add("pipeline.export_s", dur)

    for layer, prefix in LAYER_PREFIX.items():
        m[f"{prefix}.self_s"] = layer_self[layer]
    m["import_s"] = import_s
    m["unattributed_s"] = wall_s - sum(layer_self.values()) - import_s
    m["trace.wall_s"] = wall_s

    # counts and computed ratios (labelled "computed" in the printed table)
    m["mgk.pairs_solved"] = solved
    m["mgk.pairs_requested"] = requested
    m["mgk.hit_ratio"] = 1.0 - solved / requested if requested else 0.0
    busy = m.get("mgk.busy_s", 0.0)
    m["mgk.pairs_per_s"] = solved / busy if busy else 0.0
    enum_s = m.get("molspace.enumerate_s", 0.0)
    m["molspace.isomers_per_s"] = m.get("molspace.isomers", 0) / enum_s if enum_s else 0.0
    m["al.steps"] = counters.get("al.steps", 0)
    m["al.selected"] = counters.get("al.selected", 0)
    m["al.select_yield"] = m["al.selected"] / m["al.steps"] if m["al.steps"] else 0.0
    m["al.provider_wait_s"] = counters.get("al.provider_wait_s", 0.0)
    m["al.provider_entries"] = counters.get("al.provider_entries", 0)
    step_ms = [s * 1e3 for s in steps]
    tail = tail_percentile(len(step_ms))
    m["al.step_ms_p50"] = statistics.median(step_ms) if step_ms else 0.0
    m["al.step_ms_tail"] = percentile(step_ms, tail)
    m["al.step_ms_tail_pct"] = tail
    return m, layer_self


# Output metrics of the workload's own results, reported in trace runs (0
# where the workload produces no such result).
RESULT_METRICS = (
    "result.n_selected", "result.rmse.density", "result.rmse.heat_capacity",
    "result.rmse.hov", "result.artifact_mb",
)

COMPUTED = {
    "unattributed_s", "trace.overhead_s", "trace.overhead_frac", "mgk.hit_ratio",
    "mgk.pairs_per_s", "mgk.pairs_solved", "molspace.isomers_per_s", "al.select_yield",
}
