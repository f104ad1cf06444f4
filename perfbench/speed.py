"""The speed of the processor right now, from fixed pure-Python loops.

On a shared host the speed of a core drifts with what the other tenants
run: the same esss pass took from 4.4 s to 7.2 s within a few minutes
here, while the ratio of its time to the time of these loops, measured
next to it, stayed within a few percent.  The benchmark therefore times
the loops between operations and scales each operation's time by
LOOP_S / (the loops' time around it), which gives seconds at a fixed
reference speed.  The loops are the benchmark's own code, so no change to
esss can move them.
"""
from __future__ import annotations

import bisect
import statistics
import time
from dataclasses import dataclass

# Full-speed timings on the 2-core 2.1 GHz box of the baseline, Python 3.11:
# the reference in a warm process, and a fresh interpreter that runs the
# dict loop once.  A fresh process is the reference for times of whole
# processes (cold starts, CLI commands): the in-process loops do not track
# how their start-up slows down.
LOOP_S = 0.012
PROCESS_S = 0.060
PROCESS_CODE = "import speed; speed.dict_loop()"


@dataclass(frozen=True)
class _Node:
    a: int
    b: int
    c: tuple


def dict_loop(n=25000):
    """Small dicts, tuples, sorting and hashing."""
    table = {}
    items = []
    acc = 0
    for i in range(n):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
        items.append((i * 2654435761) % 1048573)
        if len(items) > 64:
            acc ^= hash(tuple(sorted(items[:16])))
            del items[:32]
    return acc + len(table)


def object_loop():
    """Frozen dataclasses built, compared and hashed; short integer rows."""
    seen = {}
    acc = 0
    for i in range(800):
        n = _Node(i % 61, i % 17, (i % 5, i % 3))
        seen[n] = seen.get(_Node(n.b, n.a, n.c), 0) + 1
        row = [(i * j) % 7 for j in range(8)]
        acc += sum(x * y for x, y in zip(row, row[1:]))
    return acc + len(seen)


def table_loop():
    """A table of half a megabyte, filled and then probed out of order."""
    seen = {}
    for i in range(3000):
        seen[_Node(i % 211, i, (i % 5, i % 3))] = i
    keys = list(seen)
    acc = 0
    for i in range(0, 3000, 5):
        k = keys[(i * 7919) % 3000]
        acc += seen[_Node(k.a, k.b, k.c)]
    return acc


# about 4 MB of small objects, visited out of allocation order as the cyclic
# garbage collector visits a large heap; built on first use
_HEAP = []


def heap_loop():
    """A walk over a few megabytes of objects in scattered order."""
    if not _HEAP:
        nodes = [_Node(i, i % 7, (i,)) for i in range(40000)]
        _HEAP.extend(nodes[(i * 7919) % 40000] for i in range(40000))
    acc = 0
    for node in _HEAP:
        acc += node.b
    return acc


def reference() -> float:
    """Seconds the four reference loops take now.

    Code of different kinds slows down by different amounts as the load of
    the host changes: against a page-1 build, the dict loop alone moved
    with an exponent between 0.66 and 0.87, several kinds together near 1.
    A third of a cold e1_sweep pass is garbage collection, a walk over a
    large heap, hence the fourth loop.
    """
    t0 = time.perf_counter()
    dict_loop(5000)
    object_loop()
    table_loop()
    heap_loop()
    return time.perf_counter() - t0


def factor(timings, nominal=LOOP_S) -> float:
    """Scale to the reference speed for times measured among these timings."""
    return nominal / statistics.median(timings)


def scale(times, references, nominal=LOOP_S):
    """Each time scaled by the reference timings around it.

    references holds (index of the next time, seconds) in the order they
    were taken; time i is scaled by the median of the two timings before
    it and the two after it, which follows the drift without following
    the noise of a single timing.
    """
    at = [i for i, _ in references]
    secs = [t for _, t in references]
    out = []
    for i, x in enumerate(times):
        b = bisect.bisect_right(at, i) - 1
        out.append(x * factor(secs[max(0, b - 1):b + 3], nominal))
    return out
