"""How fast the host runs Python right now, beside the measured work.

On a host whose cores are shared with other work, the speed drifts:
the same stream, in the same process, takes up to twice as long in a
slow phase, and slow phases last from seconds to minutes (see
``README.md``, baseline facts).  So the client times a short fixed
pure-Python *reference* after every update, and every time measured in
a stream is rescaled to a *reference host*, one on which the reference
takes ``REFERENCE_S``: a value is the seconds measured times
``REFERENCE_S`` over the mean of the stream's reference timings.  The
reference samples the same seconds as the updates, interleaved with
them, so it sees the same slow phases; timed only before and after a
stream it missed most of them.  The reference runs no ``repro`` code,
so no change to the program moves it, and a change that makes the
program slower is slower against it, and shows in full.

The reference does the two kinds of work the program does: bytecode
arithmetic, and building and hashing tuples, frozensets and dicts.  A
slow phase does not slow both alike.
"""

from __future__ import annotations

import statistics
from time import perf_counter

#: Seconds the reference takes on the reference host: about what it
#: takes on a shared 2-core x86 host outside its slow phases.
REFERENCE_S = 0.0003


def reference_seconds() -> float:
    """Seconds the reference takes now."""
    start = perf_counter()
    total = 0
    for i in range(1_500):
        total += i * i % 7
    table: dict[tuple[int, int, frozenset[int]], list[int]] = {}
    for i in range(150):
        key = (i % 97, i % 89, frozenset((i % 7, i % 11)))
        table.setdefault(key, []).append(i)
    return perf_counter() - start


def scale(samples: list[float]) -> float:
    """Factor that turns seconds measured among the reference timings
    ``samples`` into seconds on the reference host."""
    return REFERENCE_S / statistics.fmean(samples)
