"""Definitional verdict oracle, independent of every ``repro`` engine.

Each constraint's first-violation instant is computed straight from the
generated events by the plain-language reading of the constraint — no
grounding, progression, automata or past-formula evaluation.  The
benchmark checks every :class:`repro.core.monitor.UpdateReport` against
these instants, so a wrong verdict from any engine layer counts as a
failed operation.

Events are given as one list of ``(relation, (element,))`` facts per
instant, instant 0 first — the shape of ``facts_per_instant`` in the
``repro.workloads`` generators.
"""

from __future__ import annotations

from typing import Iterable, Sequence

Facts = Sequence[tuple[str, tuple[int, ...]]]


def _instants(events: Sequence[Facts], relation: str) -> dict[int, list[int]]:
    """Element -> ascending instants at which ``relation(element)`` holds."""
    out: dict[int, list[int]] = {}
    for instant, facts in enumerate(events):
        for pred, args in facts:
            if pred == relation:
                out.setdefault(args[0], []).append(instant)
    return out


def _first(candidates: Iterable[int]) -> int | None:
    return min(candidates, default=None)


def at_most_once(events: Sequence[Facts], relation: str) -> int | None:
    """``forall x . G (R(x) -> X G !R(x))``: violated at the instant some
    element holds ``R`` for the second time."""
    return _first(
        times[1] for times in _instants(events, relation).values()
        if len(times) > 1
    )


def fifo(events: Sequence[Facts], sub: str = "Sub", fill: str = "Fill") -> int | None:
    """The paper's FIFO constraint: violated at the first instant ``k``
    with orders ``x != y`` and instants ``i <= j <= k`` such that ``x`` is
    submitted at ``i``, ``y`` at ``j``, ``y`` is filled at ``k``, and
    ``x`` is filled nowhere in ``[i, k]``."""
    subs = _instants(events, sub)
    fills = _instants(events, fill)
    for k, facts in enumerate(events):
        for pred, (y,) in facts:
            if pred != fill or y not in subs:
                continue
            j = max((t for t in subs[y] if t <= k), default=None)
            if j is None:
                continue
            for x, x_subs in subs.items():
                if x == y:
                    continue
                # The latest submission of x at or before j leaves the
                # shortest interval that must be free of Fill(x).
                i = max((t for t in x_subs if t <= j), default=None)
                if i is None:
                    continue
                if not any(i <= t <= k for t in fills.get(x, ())):
                    return k
    return None


def fresh_use(events: Sequence[Facts], stamp: str, use: str, budget: int) -> int | None:
    """Every use of ``x`` at ``t`` needs a stamp of ``x`` in
    ``[t - budget, t]``; violated at the first uncovered use."""
    stamps = _instants(events, stamp)
    for t, facts in enumerate(events):
        for pred, (x,) in facts:
            if pred == use and not any(
                t - budget <= s <= t for s in stamps.get(x, ())
            ):
                return t
    return None


def refresh_deadline(
    events: Sequence[Facts], stamp: str, drop: str, budget: int
) -> int | None:
    """Every stamp of ``x`` at ``s`` needs a stamp or drop of ``x`` in
    ``[s + 1, s + budget]``; violated at ``s + budget`` — the instant the
    last chance passes — if the stream reaches it."""
    renewals = _instants(events, stamp)
    for element, times in _instants(events, drop).items():
        renewals.setdefault(element, []).extend(times)
    deadlines = []
    for element, stamp_times in _instants(events, stamp).items():
        for s in stamp_times:
            if s + budget < len(events) and not any(
                s < r <= s + budget for r in renewals[element]
            ):
                deadlines.append(s + budget)
    return _first(deadlines)


def first_violations(
    checks: dict[str, int | None]
) -> dict[str, int]:
    """Drop the constraints the stream never violates."""
    return {name: t for name, t in checks.items() if t is not None}
