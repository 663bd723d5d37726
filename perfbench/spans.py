"""Spans around the layer calls that `parlimits.cli` makes.

The tracer replaces, for the length of one traced session, the public
names that `parlimits.cli` and `parlimits.timeline` call into with
wrappers that record a span: name, start, end, parent and counts taken
from the result. Nothing under src/ is changed; uninstall() puts the
originals back. A name a later version no longer has is reported in
`missing` and otherwise skipped. Spans stay in memory until write().
"""
from __future__ import annotations

import json
import statistics
import sys
import time
import tracemalloc

_BOUNDS = ("bound_start_stop", "bound_propagation", "bound_context_switch",
           "bound_os_looping", "combined_limit", "mpe_grouping_effect")


def _records(result) -> dict:
    return {"records": len(result.records), "quarantined": len(result.rejections)}


# (owner, attribute, counter of the result). Owners: the cli module, the
# timeline module and cli's ReportDocument class.
_TARGETS = (
    ("cli", "load_scenario", None),
    ("cli", "simulate", lambda r: {"units": r.n_units}),
    ("cli", "load_csv", _records),
    ("cli", "parse_csv", _records),
    ("cli", "derive_points", None),
    ("cli", "fit_by_category", None),
    ("cli", "rank_correlation", None),
    ("cli", "cross_benchmark_ratio", None),
    ("cli", "feasibility", None),
    ("cli", "virtual_scale", lambda r: {"samples": len(r.samples)}),
    *(("cli", name, None) for name in _BOUNDS),
    ("timeline", "TimelineScenario", None),
    ("ReportDocument", "to_text", None),
    ("ReportDocument", "to_json", None),
)

# Span names, as owner.attribute, that memory mode wraps with tracemalloc.
MEMORY_SPANS = {"timeline.TimelineScenario": "timeline.construct_peak_mb",
                "cli.simulate": "timeline.simulate_peak_mb"}

# Layer metric -> span names whose time it sums. Spans nested inside a
# span of the same group are not counted twice.
TIME_METRICS = {
    "timeline.construct_s": ("timeline.TimelineScenario",),
    "timeline.simulate_s": ("cli.simulate",),
    "ingest.parse_csv_s": ("cli.load_csv", "cli.parse_csv"),
    "ingest.derive_points_s": ("cli.derive_points",),
    "stats.fit_s": ("cli.fit_by_category",),
    "stats.rank_s": ("cli.rank_correlation",),
    "stats.ratio_s": ("cli.cross_benchmark_ratio",),
    "forecast.virtual_scale_s": ("cli.virtual_scale",),
    "forecast.feasibility_s": ("cli.feasibility",),
    "bounds.bounds_s": tuple(f"cli.{name}" for name in _BOUNDS),
    "cli.render_s": ("ReportDocument.to_text", "ReportDocument.to_json"),
}
# Layer metric -> span name whose self time (duration minus children) it sums.
SELF_METRICS = {"timeline.parse_s": "cli.load_scenario", "cli.self_s": "cli.main"}
# Layer metric -> (span name, count key) it sums.
COUNT_METRICS = {
    "timeline.units": ("cli.simulate", "units"),
    "ingest.records": ("cli.load_csv", "records"),
    "ingest.quarantined": ("cli.load_csv", "quarantined"),
    "forecast.samples": ("cli.virtual_scale", "samples"),
    "cli.report_bytes": ("cli.main", "report_bytes"),
}
LAYER_METRICS = (*TIME_METRICS, *SELF_METRICS, *COUNT_METRICS, *MEMORY_SPANS.values(),
                 "trace.overhead_s", "trace.unattributed_s")


class Tracer:
    def __init__(self, cli_module):
        owners = {
            "cli": cli_module,
            "timeline": sys.modules.get("parlimits.timeline"),
            "ReportDocument": getattr(cli_module, "ReportDocument", None),
        }
        self.targets = []
        self.missing = []
        for owner_name, attr, counter in _TARGETS:
            owner = owners[owner_name]
            name = f"{owner_name}.{attr}"
            if owner is None or not hasattr(owner, attr):
                self.missing.append(name)
                continue
            self.targets.append((owner, attr, name, counter, getattr(owner, attr)))
        # (session, id, parent, name, start, end, counts)
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.session = 0
        self.peaks: dict[str, float] = {}

    def install(self, session: int, memory: bool = False) -> None:
        self.session = session
        for owner, attr, name, counter, original in self.targets:
            if memory:
                if name in MEMORY_SPANS:
                    setattr(owner, attr, self._peak_wrapper(original, MEMORY_SPANS[name]))
            else:
                setattr(owner, attr, self._span_wrapper(original, name, counter))

    def uninstall(self) -> None:
        for owner, attr, _, _, original in self.targets:
            setattr(owner, attr, original)

    def open(self, name: str) -> int:
        span_id = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.stack.append(span_id)
        self.spans.append([self.session, span_id, parent, name, time.perf_counter(), None, None])
        return span_id

    def close(self, span_id: int, **counts) -> None:
        end = time.perf_counter()
        self.stack.pop()
        self.spans[span_id][5] = end
        if counts:
            self.spans[span_id][6] = counts

    def _span_wrapper(self, fn, name, counter):
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counter is not None:
                self.spans[span][6] = counter(result)
            return result
        return wrapper

    def _peak_wrapper(self, fn, metric):
        # tracemalloc runs only inside the call: tracking every allocation
        # of a whole session of a million units would take minutes.
        def wrapper(*args, **kwargs):
            if tracemalloc.is_tracing():  # nested in another measured call
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                _, peak = tracemalloc.get_traced_memory()
                tracemalloc.stop()
                self.peaks[metric] = max(self.peaks.get(metric, 0.0), peak / 2**20)
        return wrapper

    def per_session_metrics(self, session_walls: list[float]) -> dict[str, float]:
        """Median over traced sessions of each layer metric; the memory
        peaks come from the single memory session."""
        per_session = []
        for session, wall in enumerate(session_walls):
            spans = [s for s in self.spans if s[0] == session]
            by_id = {s[1]: s for s in spans}
            child_time: dict[int, float] = {}
            for s in spans:
                if s[2] is not None:
                    child_time[s[2]] = child_time.get(s[2], 0.0) + s[5] - s[4]
            values = {}
            for metric, names in TIME_METRICS.items():
                values[metric] = sum(
                    s[5] - s[4] for s in spans
                    if s[3] in names and (s[2] is None or by_id[s[2]][3] not in names))
            for metric, name in SELF_METRICS.items():
                values[metric] = sum(s[5] - s[4] - child_time.get(s[1], 0.0)
                                     for s in spans if s[3] == name)
            for metric, (name, key) in COUNT_METRICS.items():
                values[metric] = sum((s[6] or {}).get(key, 0) for s in spans if s[3] == name)
            values["trace.unattributed_s"] = wall - sum(
                s[5] - s[4] for s in spans if s[3] == "cli.main")
            per_session.append(values)
        out = {m: statistics.median(v[m] for v in per_session) for m in per_session[0]}
        for metric in MEMORY_SPANS.values():
            out[metric] = self.peaks.get(metric, 0.0)
        return out

    def write(self, path: str) -> None:
        keys = ("session", "id", "parent", "name", "start", "end", "counts")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
