"""Host-speed-normalised timing.

The benchmark's host is a shared machine: the speed at which it runs the
same Python code swings by a third or more within seconds, as neighbours
come and go.  Raw seconds of identical passes spread further between runs
than any useful regression bound.  So every timed call is also measured
against a *probe*: a short, fixed piece of pure-Python work (arithmetic,
calls, attribute and dict updates) that a ``SIGALRM`` handler runs every
``TICK_S`` seconds while the call is under way, and once on each side of
it.  The probes' mean duration (outliers left out) is the host's speed
over the call, and

    reference seconds = host seconds * PROBE_REF_S / mean probe seconds

are the seconds the call would take on a host where the probe takes
exactly ``PROBE_REF_S``.  A change to the program moves the call's host
seconds and not the probe's, so it moves reference seconds; a change in
the host's speed moves both, and cancels.  Probe time inside the call is
subtracted from its host seconds.

This module imports nothing from the program, so a fresh interpreter can
load it before timing its own imports.
"""

from __future__ import annotations

import signal
from time import perf_counter

#: seconds between probes while a call is timed (about 0.6% overhead).
TICK_S = 0.025

#: the probe's duration, in seconds, at the reference speed (about its
#: median on a lightly loaded 2-core Intel Xeon VM under Python 3.11).
PROBE_REF_S = 1.5e-4

#: probes longer than this many times the median are not speed samples.
OUTLIER = 3.0


class _Cell:
    __slots__ = ("key", "value")


def _fold(cell: _Cell, table: dict[int, int], key: int, value: int) -> None:
    cell.key = key & 63
    cell.value = value
    table[cell.key] = (table[cell.key] + cell.value) & 0xFFFF


def probe(cell: _Cell, table: dict[int, int]) -> int:
    """The fixed work whose duration measures the host's speed.  It
    allocates no container, so it never sets off the collector, whose
    pass over the program's heap would land in probe time."""
    x = 0
    for i in range(1800):
        x += i * i % 7
    for i in range(300):
        _fold(cell, table, i, x + i)
    return table[x & 63]


def _speed_probes(durations: list[float]) -> list[float]:
    """The probes that measure speed: those within ``OUTLIER`` times the
    median.  A longer one was cut into by something else (the host
    descheduling the VM, say), which says nothing of the speed."""
    median = sorted(durations)[len(durations) // 2]
    return [d for d in durations if d <= OUTLIER * median]


class HostClock:
    """Times calls in host and reference seconds.

    Use as a context manager: the probe timer runs only inside the
    ``with`` block, and the previous ``SIGALRM`` handler is restored on
    every way out of it.  ``span()`` times one call::

        with HostClock() as clock:
            span = clock.span()
            with span:
                work()
        span.host_s, span.ref_s
    """

    def __init__(self) -> None:
        #: (start, seconds) of every probe run so far.
        self.probes: list[tuple[float, float]] = []
        self._previous = None
        self._cell = _Cell()
        self._table = dict.fromkeys(range(64), 0)

    def _tick(self, signum: object = None, frame: object = None) -> None:
        t0 = perf_counter()
        probe(self._cell, self._table)
        self.probes.append((t0, perf_counter() - t0))

    def __enter__(self) -> HostClock:
        for _ in range(3):  # warm the probe's code and objects
            probe(self._cell, self._table)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def span(self) -> Span:
        return Span(self)


class WallClock:
    """``HostClock``'s interface without probes: ``ref_s`` is ``host_s``.
    For traced runs, whose layer spans must not contain probe time."""

    def __enter__(self) -> WallClock:
        return self

    def __exit__(self, *exc: object) -> None:
        pass

    def span(self) -> Span:
        return Span(None)


class Span:
    """One timed call: ``host_s`` (probe time excluded) and ``ref_s``,
    set when the ``with`` block ends, also when it raises."""

    def __init__(self, clock: HostClock | None) -> None:
        self.clock = clock
        self.host_s = 0.0
        self.ref_s = 0.0

    def __enter__(self) -> Span:
        if self.clock is not None:
            self.first = len(self.clock.probes)
            self.clock._tick()
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        t1 = perf_counter()
        clock = self.clock
        if clock is None:
            self.host_s = self.ref_s = t1 - self.t0
            return
        clock._tick()
        probes = clock.probes[self.first:]
        inside = sum(d for t, d in probes if self.t0 <= t < t1)
        self.host_s = t1 - self.t0 - inside
        speed = _speed_probes([d for _, d in probes])
        self.ref_s = self.host_s * PROBE_REF_S * len(speed) / sum(speed)
