"""The benchmark's workloads: seeded input streams plus their verdicts.

Every workload is a single-process, closed-loop client with one session
that feeds a :class:`repro.service.MonitorService` one generated state
at a time.  A run consists of *streams*: each stream is a fresh service
over a freshly generated trace, and stream ``i`` of seed ``n`` is always
the same trace.  The program only ever sees the generated states; the
expected verdicts come from :mod:`oracle`, never from a ``repro`` engine.

Sizes are chosen so the traced layers do comparable work on every seed;
``README.md`` beside this file records why each workload exists and
which layers it is meant to move.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable

import oracle
from repro.database.history import History
from repro.database.state import DatabaseState
from repro.logic.formulas import Formula
from repro.workloads.orders import (
    ORDER_VOCABULARY,
    OrderTrace,
    OrderWorkloadConfig,
    fifo_fill,
    fill_once,
    generate_orders,
    submit_once,
)
from repro.workloads.staleness import (
    StalenessSpec,
    StalenessWorkloadConfig,
    generate_staleness,
    staleness_constraints,
    staleness_predicates,
)

ORDER_ARRIVAL = 0.5
ORDER_FILL_DELAY = 2
STALENESS_SPECS = tuple(StalenessSpec(f"f{i}", 2) for i in range(8))
STALENESS_VALUES = 3


@dataclass
class Stream:
    """One generated input stream and everything needed to check it.

    The service starts on an empty database (instant 0), so construction
    does the same work on every stream and generated instant ``k`` is
    update ``k + 1``.
    """

    constraints: dict[str, Formula]
    #: The empty initial state, then one state per generated instant.
    states: list[DatabaseState]
    #: Constraint -> first-violation instant, from the oracle.
    expected: dict[str, int]
    #: Injected violation -> the instant it is forced.
    injected: dict[str, int] = field(default_factory=dict)

    def initial(self) -> History:
        return History(self.states[0].vocabulary, (self.states[0],))

    def new_violations(self, instant: int) -> tuple[str, ...]:
        """What an :class:`UpdateReport` for ``instant`` must list, in
        registration order."""
        return tuple(
            name for name in self.constraints
            if self.expected.get(name) == instant
        )


@dataclass(frozen=True)
class Workload:
    name: str
    #: Builds one stream from its size and its generator's RNG.
    make: Callable[[int, random.Random], Stream]
    #: Stream size: instants per stream for ``staleness``; orders
    #: submitted per stream for ``orders``, so every stream ends
    #: with the same relevant domain.
    size: int
    service: dict[str, Any]
    #: Streams the traced pass replays (a fixed amount of work, so span
    #: counts repeat exactly for a seed).
    trace_streams: int
    #: Updates at the start of each stream left out of the latency
    #: percentiles (they still count in ``updates_per_s``): a one-off cost
    #: of a fresh service, not of serving an update.
    warmup: int = 0

    def stream(self, seed: int, index: int) -> Stream:
        return self.make(self.size, random.Random(f"{self.name}:{seed}:{index}"))


def orders_stream(orders: int, rng: random.Random) -> Stream:
    """The Section 2 order database, cut at the instant its ``orders``-th
    order is submitted, with one out-of-order fill and, one instant
    later, one duplicate submission, both in the last tenth.

    Cutting at a fixed number of orders rather than instants keeps the
    final relevant domain, which sets most of a stream's cost, the same
    on every stream.  The out-of-order fill goes first, so each injection
    is the first violation of its constraint (a duplicate submission of a
    filled order would otherwise violate ``fifo_fill`` at the next fill).
    The fill takes effect only while two orders are open, which
    ``trace.filled`` shows; a trace whose last tenth never has two open
    orders is replaced by the next one ``rng`` draws.
    """
    found = None
    while found is None:
        seed = rng.randrange(2**31)
        clean = generate_orders(
            OrderWorkloadConfig(
                length=4 * orders,
                arrival_probability=ORDER_ARRIVAL,
                fill_delay=ORDER_FILL_DELAY,
                seed=seed,
            )
        )
        if len(clean.submitted) >= orders:
            found = _injected_orders(clean.submitted[orders - 1][0] + 1, seed)
    trace, out_of_order_at = found
    duplicate_at = out_of_order_at + 1
    events = [[], *trace.facts_per_instant]
    constraints = {
        "submit_once": submit_once(),
        "fill_once": fill_once(),
        "fifo_fill": fifo_fill(),
    }
    expected = oracle.first_violations({
        "submit_once": oracle.at_most_once(events, "Sub"),
        "fill_once": oracle.at_most_once(events, "Fill"),
        "fifo_fill": oracle.fifo(events),
    })
    return Stream(
        constraints,
        [DatabaseState.empty(ORDER_VOCABULARY), *trace.states()],
        expected,
        {"submit_once": duplicate_at + 1, "fifo_fill": out_of_order_at + 1},
    )


def _injected_orders(length: int, seed: int) -> tuple[OrderTrace, int] | None:
    """The trace with both injections and the out-of-order instant, or
    ``None`` if no instant of the last tenth has two open orders."""
    for out_of_order_at in range(length - length // 10, length - 2):
        trace = generate_orders(
            OrderWorkloadConfig(
                length=length,
                arrival_probability=ORDER_ARRIVAL,
                fill_delay=ORDER_FILL_DELAY,
                duplicate_submit_at=out_of_order_at + 1,
                out_of_order_at=out_of_order_at,
                seed=seed,
            )
        )
        if _filled_youngest(trace.submitted, trace.filled, out_of_order_at):
            return trace, out_of_order_at
    return None


def _filled_youngest(
    submitted: list[tuple[int, int]], filled: list[tuple[int, int]], at: int
) -> bool:
    """Did the fill at ``at`` take the youngest of two or more open orders?"""
    done = {order for t, order in filled if t < at}
    open_orders = [order for t, order in submitted if t <= at and order not in done]
    fill = [order for t, order in filled if t == at]
    return len(open_orders) >= 2 and fill == [max(open_orders)]


def staleness_stream(length: int, rng: random.Random) -> Stream:
    """Eight relation-disjoint fields with budget 2 and three values each,
    with one stale use of field ``f0`` in the last tenth."""
    stale_at = length - length // 20
    trace = generate_staleness(
        StalenessWorkloadConfig(
            specs=STALENESS_SPECS,
            length=length,
            values=STALENESS_VALUES,
            stale_use_at=stale_at,
            seed=rng.randrange(2**31),
        )
    )
    events = [[], *trace.facts_per_instant]
    checks: dict[str, int | None] = {}
    for spec in STALENESS_SPECS:
        stamp, use, drop = staleness_predicates(spec.field)
        checks[f"fresh_use_{spec.field}"] = oracle.fresh_use(
            events, stamp, use, spec.budget
        )
        checks[f"refresh_deadline_{spec.field}"] = oracle.refresh_deadline(
            events, stamp, drop, spec.budget
        )
    return Stream(
        staleness_constraints(STALENESS_SPECS),
        [DatabaseState.empty(trace.vocabulary), *trace.states()],
        oracle.first_violations(checks),
        {f"fresh_use_{STALENESS_SPECS[0].field}": stale_at + 1},
    )


WORKLOADS = {
    "orders": Workload(
        name="orders",
        make=orders_stream,
        size=41,
        service={"strategy": "spare", "spare": 16, "shards": 1},
        trace_streams=4,
    ),
    "staleness": Workload(
        name="staleness",
        make=staleness_stream,
        size=400,
        # One worker: with jobs=2 the shards' threads only contend for the
        # interpreter lock and both cores, which made runs slower and their
        # spread several times wider (see README.md).
        service={"strategy": "incremental", "shards": 4, "jobs": 1},
        trace_streams=1,
        # The first updates make the cold Büchi decisions (up to ~0.2 s
        # each, close to half of a stream's update time), which would put
        # the p95 on the edge of their cluster.
        warmup=25,
    ),
}
