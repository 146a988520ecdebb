"""The closed-loop client: one session feeding one service, checked.

:func:`run_stream` builds a :class:`repro.service.MonitorService` for one
generated stream, ``await``s ``submit_state`` for every state after the
initial one, times each call until its report resolves, and compares each
report with the oracle's verdicts.  After the stream, outside the
measured updates, it takes one checkpoint: a snapshot, then a simulated
process death and a restore.
"""

from __future__ import annotations

import asyncio
import gc
import json
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Any, ContextManager

import hostspeed
from repro.ptl.caches import clear_all_caches
from repro.service import MonitorService
from tracing import Tracer
from workloads import Stream, Workload


@dataclass
class StreamResult:
    """What one stream measured."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: Seconds from ``submit_state`` to the resolved report, per update.
    latencies: list[float] = field(default_factory=list)
    #: First submit to last report, less the reference timings.
    wall: float = 0.0
    #: Seconds per snapshot, ``MonitorService.snapshot()`` plus encoding.
    snapshots: list[float] = field(default_factory=list)
    last_snapshot: str = ""
    restore_s: float = 0.0
    #: Per-constraint counters and plan backends of the final service.
    stats: dict[str, dict[str, Any]] = field(default_factory=dict)
    backends: dict[str, str] = field(default_factory=dict)
    #: Host-speed samples (:func:`hostspeed.reference_seconds`), one
    #: after each update.
    host: list[float] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def scaled(self) -> StreamResult:
        """This result with every time in reference-host seconds (as
        measured if no update succeeded, so none was sampled)."""
        factor = hostspeed.scale(self.host) if self.host else 1.0
        return replace(
            self,
            errors=list(self.errors),
            latencies=[t * factor for t in self.latencies],
            wall=self.wall * factor,
            snapshots=[t * factor for t in self.snapshots],
            restore_s=self.restore_s * factor,
        )


class _Client:
    def __init__(self, workload: Workload, stream: Stream, tracer: Tracer | None):
        self.workload = workload
        self.stream = stream
        self.tracer = tracer
        self.result = StreamResult()

    def root(self, name: str, kind: str, update: int | None = None) -> ContextManager[Any]:
        if self.tracer is None:
            return nullcontext()
        return self.tracer.root(name, kind, update)

    def build(self) -> MonitorService:
        with self.root("service.construct", "setup"):
            return MonitorService(
                self.stream.constraints,
                self.stream.initial(),
                engine="compiled",
                lint="warn",
                **self.workload.service,
            )

    def snapshot(self, service: MonitorService, instant: int) -> str | None:
        self.result.attempted += 1
        start = perf_counter()
        try:
            with self.root("checkpoint.snapshot", "checkpoint", instant):
                text = json.dumps(service.snapshot())
        except Exception as exc:  # noqa: BLE001 - counted, run continues
            self.result.fail(f"snapshot at {instant}: {exc!r}")
            return None
        self.result.snapshots.append(perf_counter() - start)
        self.result.last_snapshot = text
        return text

    def restore(self, text: str, instant: int) -> None:
        """Simulated process death: caches cleared and collected, then
        the service is rebuilt from the encoded snapshot."""
        self.result.attempted += 1
        clear_all_caches()
        gc.collect()
        data = json.loads(text)
        start = perf_counter()
        try:
            with self.root("checkpoint.restore", "checkpoint", instant):
                service = MonitorService.restore(data)
        except Exception as exc:  # noqa: BLE001 - counted, run continues
            self.result.fail(f"restore at {instant}: {exc!r}")
            return
        self.result.restore_s = perf_counter() - start
        expected = {
            name: t for name, t in self.stream.expected.items() if t <= instant
        }
        if service.violations() != expected:
            self.result.fail(
                f"restore at {instant}: violations {service.violations()} "
                f"!= oracle {expected}"
            )

    def record_counters(self, service: MonitorService) -> None:
        self.result.stats = {
            name: stats.as_dict() for name, stats in service.stats().items()
        }
        self.result.backends = {
            entry.name: entry.backend
            for plan in service.shard_plans()
            for entry in plan.entries
        }

    async def run(self) -> StreamResult:
        result = self.result
        states = self.stream.states
        service = self.build()
        await service.start()
        began = perf_counter()
        for instant in range(1, len(states)):
            result.attempted += 1
            start = perf_counter()
            try:
                with self.root("service.submit", "update", instant):
                    report = await service.submit_state(states[instant])
            except Exception as exc:  # noqa: BLE001 - counted, run continues
                result.fail(f"update {instant}: {exc!r}")
                continue
            result.latencies.append(perf_counter() - start)
            result.host.append(hostspeed.reference_seconds())
            expected = self.stream.new_violations(instant)
            if report.instant != instant or report.new_violations != expected:
                result.fail(
                    f"update {instant}: report instant {report.instant} "
                    f"new_violations {report.new_violations} != oracle {expected}"
                )
        result.wall = perf_counter() - began - sum(result.host)
        await service.stop()
        result.attempted += 1
        if service.violations() != self.stream.expected:
            result.fail(
                f"end of stream: violations {service.violations()} "
                f"!= oracle {self.stream.expected}"
            )
        for name, instant in self.stream.injected.items():
            if self.stream.expected.get(name) != instant:
                result.fail(
                    f"injected {name} violation forced at {instant}, "
                    f"oracle says {self.stream.expected.get(name)}"
                )
        self.record_counters(service)
        text = self.snapshot(service, len(states) - 1)
        del service
        if text is not None:
            self.restore(text, len(states) - 1)
        return result


def run_stream(
    workload: Workload, stream: Stream, tracer: Tracer | None = None
) -> StreamResult:
    """Run one stream on a fresh service with cold caches."""
    clear_all_caches()
    gc.collect()
    return asyncio.run(_Client(workload, stream, tracer).run())
