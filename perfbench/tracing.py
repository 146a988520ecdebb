"""Span tracing for the traced benchmark pass, from outside the program.

:class:`Tracer` wraps public functions at each ``repro`` layer boundary
where their caller looks them up (methods on their classes, functions on
the module that imports them by name), records one span per call — name,
start, end, parent span, root kind, update id, stream, tag — in memory,
and puts every original back on :meth:`Tracer.uninstall`.  Nothing in
``repro`` knows it is being traced.

A span's parent is the innermost traced call on the same logical stack
(a :class:`contextvars.ContextVar`, so the worker threads of a
``jobs > 1`` service inherit it); calls made from another asyncio task,
such as the service's ingest consumer, attach to the root span that is
in flight — the closed-loop client has at most one.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

import repro.core.monitor as monitor_module
import repro.core.plan as plan_module
import repro.lint as lint_module
import repro.service.streaming as streaming_module
from repro.analysis.affect import UpdateDependencyIndex
from repro.core.monitor import IntegrityMonitor
from repro.core.plan import PlannedMonitor
from repro.database.history import History
from repro.pasteval.monitor import PastMonitor
from repro.ptl.bitset import BuchiKernel
from repro.ptl.progkernel import ProgressionKernel
from repro.service.streaming import MonitorService

_CURRENT: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_span", default=None
)

#: Span tuple fields, in order.
FIELDS = (
    "id", "name", "start", "end", "parent", "kind", "update", "stream", "tag",
)


def _shard_tag(args: tuple[Any, ...]) -> str:
    # A shard is named by its first constraint: stable across a restore,
    # unlike the object identity.
    return args[0].plan.entries[0].name


class Tracer:
    """In-memory span recorder plus the layer-boundary patches."""

    def __init__(self) -> None:
        self.spans: list[tuple[Any, ...]] = []
        self.stream = 0
        self.kind: str | None = None
        self.update: int | None = None
        self.root_id: int | None = None
        #: (stream, constraint) -> assignment_count of its latest grounding.
        self.groundings: dict[tuple[int, str], int] = {}
        #: Progression kernels seen, for their hit/miss counters.
        self.kernels: dict[int, ProgressionKernel] = {}
        self._ids = itertools.count(1)
        self._patches: list[tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------------

    @contextmanager
    def root(self, name: str, kind: str, update: int | None = None) -> Iterator[None]:
        """A root span the benchmark itself opens: one update, one
        service construction, or one checkpoint operation."""
        sid = next(self._ids)
        self.root_id, self.kind, self.update = sid, kind, update
        token = _CURRENT.set(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            _CURRENT.reset(token)
            self.spans.append(
                (sid, name, start, end, None, kind, update, self.stream, None)
            )
            self.root_id = self.kind = self.update = None

    def _traced(
        self,
        fn: Callable[..., Any],
        name: str,
        tag: Callable[[tuple[Any, ...]], Any] | None = None,
        before: Callable[[tuple[Any, ...]], None] | None = None,
        after: Callable[[tuple[Any, ...], Any], None] | None = None,
    ) -> Callable[..., Any]:
        spans = self.spans
        ids = self._ids
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if before is not None:
                before(args)
            parent = _CURRENT.get() or tracer.root_id
            sid = next(ids)
            token = _CURRENT.set(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                _CURRENT.reset(token)
                spans.append((
                    sid, name, start, end, parent, tracer.kind,
                    tracer.update, tracer.stream,
                    tag(args) if tag is not None else None,
                ))
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- patching ------------------------------------------------------------

    def _patch(self, owner: Any, attr: str, name: str, **hooks: Any) -> None:
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            wrapped: Any = classmethod(
                self._traced(original.__func__, name, **hooks)
            )
        else:
            wrapped = self._traced(original, name, **hooks)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics read."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        p = self._patch
        p(MonitorService, "snapshot", "serialize.snapshot")
        p(MonitorService, "restore", "serialize.restore")
        p(streaming_module, "partition_constraints", "plan.partition_constraints")
        p(plan_module, "plan_constraints", "plan.plan_constraints")
        p(PlannedMonitor, "append_state", "plan.append_state", tag=_shard_tag)
        p(IntegrityMonitor, "append_state", "monitor.append_state")
        p(monitor_module, "validate_constraint", "lint.validate_constraint")
        p(lint_module, "preflight", "lint.preflight")
        p(monitor_module, "reduce_universal", "grounding.reduce_universal",
          after=self._record_grounding)
        p(monitor_module, "state_to_props", "grounding.state_to_props")
        p(monitor_module, "diff_states", "analysis.diff_states")
        p(UpdateDependencyIndex, "touched_by_update", "analysis.touched_by_update")
        p(monitor_module, "quick_model_check", "sat.quick_model_check")
        p(BuchiKernel, "is_satisfiable", "sat.buchi")
        p(ProgressionKernel, "progress_id", "progkernel.progress_id",
          before=self._record_kernel)
        p(ProgressionKernel, "progress_replay", "progkernel.progress_replay",
          before=self._record_kernel)
        p(ProgressionKernel, "formula", "progkernel.formula")
        p(ProgressionKernel, "intern", "progkernel.intern")
        p(PastMonitor, "append_state", "pasteval.append_state")
        p(History, "extended", "history.extended")

    def uninstall(self) -> None:
        """Put every original back, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _record_grounding(self, args: tuple[Any, ...], reduction: Any) -> None:
        key = (self.stream, str(args[1].formula))
        self.groundings[key] = reduction.assignment_count

    def _record_kernel(self, args: tuple[Any, ...]) -> None:
        self.kernels[id(args[0])] = args[0]

    # -- output --------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write the spans as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(FIELDS, span))) + "\n")


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    run_start = run_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: list[tuple[Any, ...]]) -> dict[int, float]:
    """Span id -> its duration minus the part its children cover.

    Children of one span may overlap (shards on worker threads), so the
    union of their intervals is subtracted, not their sum.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[4] is not None:
            children.setdefault(span[4], []).append((span[2], span[3]))
    return {
        span[0]: (span[3] - span[2])
        - covered(children.get(span[0], []), span[2], span[3])
        for span in spans
    }
