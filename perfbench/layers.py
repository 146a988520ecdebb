"""Per-layer metrics of the traced pass.

Times come from the spans :class:`tracing.Tracer` records at each layer
boundary; counts come from the public ``MonitorService.stats()`` /
``shard_plans()`` surface, split by the backend each constraint's plan
assigns, so numbers of the past evaluator (``pasteval.*``) and of the
progression kernel (``progkernel.*``) never mix — both write their
evaluation time into the same ``MonitorStats.progress_time`` field.

``_s`` metrics are totals over the traced pass, which replays a fixed
set of streams, so a seed gives the same work on every commit.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from typing import Any, Iterable

from tracing import covered, self_times

#: Every per-layer metric: name -> (unit, layer, what it is).
PER_LAYER: dict[str, tuple[str, str, str]] = {
    "service.self_ms_p50": ("ms", "service", "submit span minus shard spans, median"),
    "service.queue_wait_ms_p50": ("ms", "service", "submit entry to first shard span, median"),
    "service.shard_skew": ("ratio", "service", "max/mean shard busy seconds, median over streams"),
    "plan.shard_busy_s": ("s", "core.plan", "PlannedMonitor.append_state"),
    "plan.setup_s": ("s", "core.plan", "plan_constraints + partition_constraints at construction"),
    "lint.setup_s": ("s", "lint", "validate_constraint (preflight inside) at construction"),
    "monitor.self_s": ("s", "core.monitor", "IntegrityMonitor.append_state self time"),
    "monitor.skip_ratio": ("ratio", "core.monitor", "skipped_constraints / (sat_calls + sat_cache_hits)"),
    "monitor.idle_steps": ("count", "core.monitor", "idle_steps"),
    "monitor.shared_obligations": ("count", "core.monitor", "shared_obligations"),
    "grounding.regrounds": ("count", "core.reduction", "regrounds, construction included"),
    "grounding.reground_s": ("s", "core.reduction", "reduce_universal during updates"),
    "grounding.instances": ("count", "core.reduction", "assignment_count of the latest grounding per constraint"),
    "grounding.renames": ("count", "core.reduction", "renames"),
    "grounding.props_s": ("s", "core.reduction", "state_to_props during updates"),
    "progkernel.steps": ("count", "ptl.progkernel", "progress_id calls during updates"),
    "progkernel.progress_s": ("s", "ptl.progkernel", "progress_id + progress_replay self time"),
    "progkernel.materialize_s": ("s", "ptl.progkernel", "formula self time"),
    "progkernel.intern_s": ("s", "ptl.progkernel", "intern self time"),
    "progkernel.row_hit_ratio": ("ratio", "ptl.progkernel", "kernel hits / (hits + misses)"),
    "progkernel.counted_s": ("s", "ptl.progkernel", "progress_time of progression-routed constraints"),
    "sat.decisions": ("count", "ptl.sat", "sat_calls"),
    "sat.cache_hit_ratio": ("ratio", "ptl.sat", "sat_cache_hits / (sat_calls + sat_cache_hits)"),
    "sat.quick_s": ("s", "ptl.sat", "quick_model_check during updates"),
    "sat.buchi_calls": ("count", "ptl.bitset", "BuchiKernel.is_satisfiable calls during updates"),
    "sat.buchi_s": ("s", "ptl.bitset", "BuchiKernel.is_satisfiable during updates"),
    "sat.buchi_max_ms": ("ms", "ptl.bitset", "slowest BuchiKernel.is_satisfiable call"),
    "sat.fast_ratio": ("ratio", "ptl.sat", "planned_fast_decisions / (fast + planned_fallbacks)"),
    "pasteval.busy_s": ("s", "pasteval", "PastMonitor.append_state during updates"),
    "pasteval.updates": ("count", "pasteval", "past_updates"),
    "pasteval.memory_entries": ("count", "pasteval", "past_memory at stream end, largest stream"),
    "pasteval.counted_s": ("s", "pasteval", "progress_time of pasteval-routed constraints"),
    "analysis.touched_s": ("s", "analysis", "touched_by_update + diff_states during updates"),
    "history.extend_calls_per_update": ("count/update", "database.history", "History.extended calls per update"),
    "history.extend_s": ("s", "database.history", "History.extended during updates"),
    "serialize.snapshot_s": ("s", "database.serialize", "MonitorService.snapshot"),
    "serialize.encode_s": ("s", "database.serialize", "JSON encoding of snapshots"),
    "serialize.restore_s": ("s", "database.serialize", "MonitorService.restore"),
    "serialize.history_bytes": ("bytes", "database.serialize", "encoded history sections of the last snapshot, summed over streams"),
    "serialize.remainder_bytes": ("bytes", "database.serialize", "encoded remainders and replay finals of the last snapshot, summed over streams"),
    "trace.overhead_pct": ("%", "benchmark", "traced minus untraced update wall time, share of untraced"),
    "trace.updates": ("count", "benchmark", "updates in the traced pass"),
    "trace.spans": ("count", "benchmark", "spans recorded in the traced pass"),
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def section_bytes(snapshot: Any, keys: frozenset[str]) -> int:
    """Encoded size of every value stored under one of ``keys``, at any
    depth of a decoded snapshot."""
    if isinstance(snapshot, dict):
        return sum(
            len(json.dumps(value)) if key in keys else section_bytes(value, keys)
            for key, value in snapshot.items()
        )
    if isinstance(snapshot, list):
        return sum(section_bytes(item, keys) for item in snapshot)
    return 0


def layer_metrics(
    spans: list[tuple[Any, ...]],
    streams: Iterable[Any],
    groundings: dict[tuple[int, str], int],
    kernels: Iterable[Any],
    overhead_pct: float,
) -> dict[str, float]:
    """Derive every :data:`PER_LAYER` metric from one traced pass."""
    streams = list(streams)
    own = self_times(spans)
    by_name: dict[tuple[str, str], list[tuple[Any, ...]]] = defaultdict(list)
    children: dict[int, list[tuple[Any, ...]]] = defaultdict(list)
    for span in spans:
        by_name[(span[5], span[1])].append(span)
        if span[4] is not None:
            children[span[4]].append(span)

    def total(name: str, kind: str = "update") -> float:
        return sum(s[3] - s[2] for s in by_name[(kind, name)])

    def self_total(*names: str, kind: str = "update") -> float:
        return sum(own[s[0]] for name in names for s in by_name[(kind, name)])

    def count(name: str, kind: str = "update") -> int:
        return len(by_name[(kind, name)])

    submits = by_name[("update", "service.submit")]
    service_self, queue_wait = [], []
    for root in submits:
        shards = [c for c in children[root[0]] if c[1] == "plan.append_state"]
        intervals = [(c[2], c[3]) for c in shards]
        service_self.append((root[3] - root[2]) - covered(intervals, root[2], root[3]))
        if shards:
            queue_wait.append(min(c[2] for c in shards) - root[2])
    busy: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span in by_name[("update", "plan.append_state")]:
        busy[span[7]][span[8]] += span[3] - span[2]
    skews = [
        max(per.values()) / statistics.fmean(per.values())
        for per in busy.values() if per
    ]

    sums: dict[tuple[str, str], float] = defaultdict(float)
    past_memory = 0
    for stream in streams:
        memory = 0
        for name, stats in stream.stats.items():
            side = "past" if stream.backends.get(name) == "pasteval" else "prog"
            for key, value in stats.items():
                if isinstance(value, (int, float)):
                    sums[(side, key)] += value
            if side == "past":
                memory += stats["past_memory"]
        past_memory = max(past_memory, memory)

    def prog(key: str) -> float:
        return sums[("prog", key)]

    hits = sum(kernel.hits for kernel in kernels)
    probes = hits + sum(kernel.misses for kernel in kernels)
    buchi = by_name[("update", "sat.buchi")]
    last = [json.loads(s.last_snapshot) for s in streams if s.last_snapshot]
    updates = len(submits)
    return {
        "service.self_ms_p50": statistics.median(service_self) * 1e3 if service_self else 0.0,
        "service.queue_wait_ms_p50": statistics.median(queue_wait) * 1e3 if queue_wait else 0.0,
        "service.shard_skew": statistics.median(skews) if skews else 0.0,
        "plan.shard_busy_s": total("plan.append_state"),
        "plan.setup_s": total("plan.plan_constraints", "setup")
        + total("plan.partition_constraints", "setup"),
        "lint.setup_s": total("lint.validate_constraint", "setup"),
        "monitor.self_s": self_total("monitor.append_state"),
        "monitor.skip_ratio": _ratio(
            prog("skipped_constraints"), prog("sat_calls") + prog("sat_cache_hits")
        ),
        "monitor.idle_steps": prog("idle_steps"),
        "monitor.shared_obligations": prog("shared_obligations"),
        "grounding.regrounds": prog("regrounds"),
        "grounding.reground_s": total("grounding.reduce_universal"),
        "grounding.instances": sum(groundings.values()),
        "grounding.renames": prog("renames"),
        "grounding.props_s": total("grounding.state_to_props"),
        "progkernel.steps": count("progkernel.progress_id"),
        "progkernel.progress_s": self_total(
            "progkernel.progress_id", "progkernel.progress_replay"
        ),
        "progkernel.materialize_s": self_total("progkernel.formula"),
        "progkernel.intern_s": self_total("progkernel.intern"),
        "progkernel.row_hit_ratio": _ratio(hits, probes),
        "progkernel.counted_s": prog("progress_time"),
        "sat.decisions": prog("sat_calls"),
        "sat.cache_hit_ratio": _ratio(
            prog("sat_cache_hits"), prog("sat_calls") + prog("sat_cache_hits")
        ),
        "sat.quick_s": total("sat.quick_model_check"),
        "sat.buchi_calls": len(buchi),
        "sat.buchi_s": total("sat.buchi"),
        "sat.buchi_max_ms": max((s[3] - s[2] for s in buchi), default=0.0) * 1e3,
        "sat.fast_ratio": _ratio(
            prog("planned_fast_decisions"),
            prog("planned_fast_decisions") + prog("planned_fallbacks"),
        ),
        "pasteval.busy_s": total("pasteval.append_state"),
        "pasteval.updates": sums[("past", "past_updates")],
        "pasteval.memory_entries": past_memory,
        "pasteval.counted_s": sums[("past", "progress_time")],
        "analysis.touched_s": total("analysis.touched_by_update")
        + total("analysis.diff_states"),
        "history.extend_calls_per_update": _ratio(count("history.extended"), updates),
        "history.extend_s": total("history.extended"),
        "serialize.snapshot_s": total("serialize.snapshot", "checkpoint"),
        "serialize.encode_s": self_total("checkpoint.snapshot", kind="checkpoint"),
        "serialize.restore_s": total("serialize.restore", "checkpoint"),
        "serialize.history_bytes": sum(
            section_bytes(s, frozenset({"history"})) for s in last
        ),
        "serialize.remainder_bytes": sum(
            section_bytes(s, frozenset({"remainder", "replay_finals"})) for s in last
        ),
        "trace.overhead_pct": overhead_pct,
        "trace.updates": updates,
        "trace.spans": len(spans),
    }
