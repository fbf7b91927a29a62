"""Layer spans for the traced benchmark run, recorded from outside the program.

Nothing under ``src/`` is edited.  :func:`instrumented` wraps the public
callables at each layer boundary for the duration of a ``with`` block and
installs a :class:`repro.telemetry.Tracer` subclass whose engine ``round``
spans join the same span tree, as children of the open ``ncc.exchange``
span.  On exit every wrapped attribute is restored, so the untraced runs
measure the unmodified program.

Layers and the callables that open their spans:

====================  ===================================================
``api.session``       ``Session.run``
``harness.*``         ``AlgorithmSpec.workload`` and each registered
                      spec's ``describe`` / ``check``
``algorithms``        each registered spec's ``run`` callable
``primitives``        the public ``NCCRuntime`` primitive methods
``butterfly.router``  ``CombiningRouter.run``, ``MulticastRouter.run``
``ncc.exchange``      ``NCCNetwork.exchange``
``ncc.engine``        the engine's ``round`` span (``repro.telemetry``)
``hashing``           public functions and methods of ``repro.hashing``
``rng.node_rng``      ``SharedRandomness.node_rng``
====================  ===================================================

``BatchBuilder.add`` / ``add_arrays`` run hundreds of thousands of times
per pass, so they are counted but open no span; their time stays in the
caller's self time.

A call made while a span of the same name is already innermost (a hashing
function calling another hashing function) is counted but folded into the
open span: the layer's self time is the same either way, and the trace
stays smaller.
"""

from __future__ import annotations

import functools
import sys
import types
from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterator

#: Span names, in the order the per-layer table prints them.
SPAN_NAMES = (
    "api.session",
    "harness.workload",
    "harness.describe",
    "harness.check",
    "algorithms",
    "primitives",
    "butterfly.router",
    "ncc.exchange",
    "ncc.engine",
    "hashing",
    "rng.node_rng",
)
_ID = {name: i for i, name in enumerate(SPAN_NAMES)}

#: Callables that are counted but open no span.
COUNTED = ("ncc.builder.add", "ncc.builder.add_arrays")

#: ``NCCRuntime`` public methods that are not communication primitives.
_RUNTIME_NON_PRIMITIVES = frozenset({"stats_summary"})

#: Special methods of hashing classes that do hashing work.
_HASHING_DUNDERS = ("__init__", "__call__", "__xor__")


class SpanLog:
    """Spans kept in memory as parallel columns: name id, start, end and
    parent index (``-1`` for a root span).  Times are ``perf_counter``
    seconds."""

    def __init__(self) -> None:
        self.name = array("b")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.calls = [0] * len(SPAN_NAMES)
        self.counted = dict.fromkeys(COUNTED, 0)
        #: messages of every engine round, in round order.
        self.round_messages = array("q")
        self._open = [-1]
        self._open_name = [-1]

    def __len__(self) -> int:
        return len(self.name)

    def begin(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._open[-1])
        self.end.append(0.0)
        self._open.append(i)
        self._open_name.append(nid)
        self.start.append(perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._open.pop()
        self._open_name.pop()

    def add_closed(self, nid: int, t0: float, t1: float) -> None:
        """Record a completed span as a child of the innermost open span."""
        self.name.append(nid)
        self.start.append(t0)
        self.end.append(t1)
        self.parent.append(self._open[-1])


def self_times(start, end, parent) -> list[float]:
    """Each span's self time: its duration minus the part of its interval
    that its direct children cover (overlapping children count once;
    child time outside the parent's interval does not count)."""
    n = len(start)
    covered = [0.0] * n
    reach: dict[int, float] = {}  # parent -> end of the covered prefix
    for i in sorted(range(n), key=start.__getitem__):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], start[p], reach.get(p, start[p]))
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(n)]


def layer_totals(log: SpanLog) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``busy`` (summed span time) and ``self``."""
    own = self_times(log.start, log.end, log.parent)
    out = {
        name: {"calls": float(log.calls[i]), "busy": 0.0, "self": 0.0}
        for i, name in enumerate(SPAN_NAMES)
    }
    out["ncc.engine"]["calls"] = float(len(log.round_messages))
    for i, nid in enumerate(log.name):
        row = out[SPAN_NAMES[nid]]
        row["busy"] += log.end[i] - log.start[i]
        row["self"] += own[i]
    return out


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _span_wrapper(fn: Callable, nid: int, log: SpanLog) -> Callable:
    calls = log.calls
    open_name = log._open_name
    begin, finish = log.begin, log.finish

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        calls[nid] += 1
        if open_name[-1] == nid:
            return fn(*args, **kwargs)
        i = begin(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            finish(i)

    return wrapper


def _count_wrapper(fn: Callable, key: str, log: SpanLog) -> Callable:
    counted = log.counted

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        counted[key] += 1
        return fn(*args, **kwargs)

    return wrapper


class _Patcher:
    """Replaces attributes and remembers how to put them back."""

    def __init__(self) -> None:
        self._undo: list[Callable[[], None]] = []

    def method(self, owner: type, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = owner.__dict__[attr]
        if isinstance(original, (classmethod, staticmethod)):
            replacement: Any = type(original)(make(original.__func__))
        else:
            replacement = make(original)
        setattr(owner, attr, replacement)
        self._undo.append(lambda: setattr(owner, attr, original))

    def function(self, module: types.ModuleType, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace a module function everywhere ``repro`` imported it by name."""
        original = getattr(module, attr)
        replacement = make(original)
        for mod in list(sys.modules.values()):
            if (
                isinstance(mod, types.ModuleType)
                and mod.__name__.split(".")[0] == "repro"
                and mod.__dict__.get(attr) is original
            ):
                setattr(mod, attr, replacement)
                self._undo.append(lambda m=mod: setattr(m, attr, original))

    def field(self, obj: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace a callable field of a frozen dataclass instance."""
        original = getattr(obj, attr)
        if original is None:
            return
        object.__setattr__(obj, attr, make(original))
        self._undo.append(lambda: object.__setattr__(obj, attr, original))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


def _public_functions(ns: dict, module_name: str) -> list[str]:
    return [
        name
        for name, value in ns.items()
        if not name.startswith("_")
        and isinstance(value, types.FunctionType)
        and value.__module__ == module_name
    ]


def _patch_layers(p: _Patcher, log: SpanLog) -> None:
    from repro.api import Session, iter_algorithms
    from repro.butterfly.routing import CombiningRouter, MulticastRouter
    from repro.hashing import kwise, peeling, sketches
    from repro.ncc.message import BatchBuilder
    from repro.ncc.network import NCCNetwork
    from repro.registry import AlgorithmSpec
    from repro.rng import SharedRandomness
    from repro.runtime import NCCRuntime

    def span(name: str) -> Callable[[Callable], Callable]:
        nid = _ID[name]
        return lambda fn: _span_wrapper(fn, nid, log)

    def count(key: str) -> Callable[[Callable], Callable]:
        return lambda fn: _count_wrapper(fn, key, log)

    p.method(Session, "run", span("api.session"))
    p.method(AlgorithmSpec, "workload", span("harness.workload"))
    for spec in iter_algorithms():
        p.field(spec, "run", span("algorithms"))
        p.field(spec, "describe", span("harness.describe"))
        p.field(spec, "check", span("harness.check"))
    for attr in _public_functions(NCCRuntime.__dict__, NCCRuntime.__module__):
        if attr not in _RUNTIME_NON_PRIMITIVES:
            p.method(NCCRuntime, attr, span("primitives"))
    p.method(CombiningRouter, "run", span("butterfly.router"))
    p.method(MulticastRouter, "run", span("butterfly.router"))
    p.method(NCCNetwork, "exchange", span("ncc.exchange"))
    p.method(BatchBuilder, "add", count("ncc.builder.add"))
    p.method(BatchBuilder, "add_arrays", count("ncc.builder.add_arrays"))
    p.method(SharedRandomness, "node_rng", span("rng.node_rng"))
    for module in (kwise, peeling, sketches):
        for attr in _public_functions(vars(module), module.__name__):
            p.function(module, attr, span("hashing"))
        for cls in [v for v in vars(module).values() if isinstance(v, type)]:
            if cls.__module__ != module.__name__:
                continue
            for attr, value in list(vars(cls).items()):
                fn = value.__func__ if isinstance(value, (classmethod, staticmethod)) else value
                if not isinstance(fn, types.FunctionType):
                    continue
                if attr.startswith("_") and attr not in _HASHING_DUNDERS:
                    continue
                p.method(cls, attr, span("hashing"))


@contextmanager
def instrumented(log: SpanLog) -> Iterator[None]:
    """Record layer spans into ``log`` for the duration of the block."""
    from repro.telemetry.tracer import Tracer, install_tracer, uninstall_tracer

    engine = _ID["ncc.engine"]

    class RoundTap(Tracer):
        """Routes the engine's per-round spans into the layer span log;
        every other record stays on the tracer as usual."""

        __slots__ = ()

        def add_span(self, name: str, t0: float, t1: float, **fields: Any) -> None:
            if name == "round":
                log.add_closed(engine, t0, t1)
                log.round_messages.append(fields["messages"])
            else:
                Tracer.add_span(self, name, t0, t1, **fields)

    patcher = _Patcher()
    try:
        _patch_layers(patcher, log)
        previous = install_tracer(RoundTap(source="perfbench"))
        try:
            yield
        finally:
            uninstall_tracer(previous)
    finally:
        patcher.restore()
