"""The Aggregation Algorithm (Theorem 2.3, Appendix B.2).

Problem: aggregation groups ``A₁..A_N ⊆ V`` with targets ``t₁..t_N``; every
member ``u ∈ Aᵢ`` holds an input ``s_{u,i}``; target ``tᵢ`` must learn
``f({s_{u,i} : u ∈ Aᵢ})`` for a distributive ``f``.

Three phases, each ended by a synchronization barrier:

1. *Preprocessing* — every node turns its inputs into packets ``(i, s)``
   and sends them, in batches of ``⌈log n⌉`` per round, to uniformly random
   level-0 butterfly nodes (Lemma B.1).
2. *Combining* — the random-rank protocol routes all packets of group ``i``
   to the intermediate target ``h(i)`` on level ``d``, merging colliding
   same-group packets with ``f`` (Theorem B.2 / Lemma B.6).
3. *Postprocessing* — each intermediate target forwards its result to the
   real target ``tᵢ`` in a round chosen uniformly from
   ``{1..⌈ℓ̂₂/log n⌉}`` (Lemma B.7).

Running time O(L/n + (ℓ₁+ℓ̂₂)/log n + log n) w.h.p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Hashable, Mapping

import numpy as _np

from ..butterfly.routing import (
    INT_LAYOUT,
    CombiningRouter,
    WireLayout,
    wire_column,
    wire_columns,
    wire_dtype,
)
from ..butterfly.topology import ButterflyGrid
from ..ncc.message import (
    BatchBuilder,
    payloads_of,
    typed_payloads_enabled,
)
from ..ncc.network import NCCNetwork
from ..rng import SharedRandomness
from ..telemetry.metrics import METRICS
from .aggregate_broadcast import barrier
from .functions import Aggregate

GroupT = Hashable

#: Wire dtypes of the typed aggregation flow for plain-int groups and
#: values; other layouts come from the same
#: :func:`~repro.butterfly.routing.wire_dtype`.  Each sizes exactly like
#: its object-path tuple counterpart (1-char tag = short string = 4 bits;
#: int fields size by binary length), so typed and object runs account
#: identical bits.
INJECT_DTYPE = wire_dtype("col")
RESULT_DTYPE = wire_dtype(None)

#: Per-path aggregation counts: one increment per :func:`run_aggregation`.
_TYPED_RUNS = METRICS.counter("primitives.aggregation.typed")
_OBJECT_RUNS = METRICS.counter("primitives.aggregation.object")

_LO, _HI = -(1 << 62), 1 << 62


def _field_ranges(items: list, arity: int) -> list[tuple[int, int]] | None:
    """Per-field ``(min, max)`` of plain ints (``arity`` 0) or of flat int
    tuples of one ``arity``; ``None`` if any item has another shape or a
    field outside ``(-2**62, 2**62)``.  ``bool`` is not an int here."""
    if arity == 0:
        cols = [items]
    elif all(type(x) is tuple and len(x) == arity for x in items):
        cols = list(zip(*items))
    else:
        return None
    ranges = []
    for col in cols:
        if not all(type(x) is int for x in col):
            return None
        lo, hi = min(col), max(col)
        if not (_LO < lo and hi < _HI):
            return None
        ranges.append((lo, hi))
    return ranges


def _typed_applicable(
    net: NCCNetwork, bf: ButterflyGrid, problem: AggregationProblem
) -> WireLayout | None:
    """The wire layout of the fully typed flow for this instance, or
    ``None`` for the object path.

    Requires the process-wide typed default, a ufunc-backed aggregate (one
    ufunc, or a tuple of one ufunc per value field), lightweight sync
    (token traffic would mix object messages into the typed builders), a
    non-degenerate butterfly, and an instance whose groups are ints or
    flat int tuples of one arity and whose values are ints (one ufunc) or
    flat int tuples of the ufunc count, every field safely inside int64.
    Tuple groups code as mixed-radix numbers, so the product of their
    field ranges must stay below ``2**62``.  For every ``np.add`` field
    the whole run's worst-case partial sum must fit, so the check bounds
    that field's total absolute mass.  Anything else keeps the object
    path — the documented fallback contract.
    """
    ufunc = problem.fn.ufunc
    if (
        not typed_payloads_enabled()
        or ufunc is None
        or bf.d <= 0
        or not net.config.extras.get("lightweight_sync", False)
    ):
        return None
    ufuncs = ufunc if type(ufunc) is tuple else (ufunc,)
    varity = len(ufuncs) if type(ufunc) is tuple else 0
    groups = [g for gs in problem.memberships.values() for g in gs]
    if not groups:
        return WireLayout(varity=varity)
    garity = len(groups[0]) if type(groups[0]) is tuple else 0
    granges = _field_ranges(groups, garity)
    values = [v for gs in problem.memberships.values() for v in gs.values()]
    if granges is None or _field_ranges(values, varity) is None:
        return None
    cols = [values] if varity == 0 else list(zip(*values))
    for uf, col in zip(ufuncs, cols):
        if uf is _np.add and sum(map(abs, col)) >= _HI:
            return None
    if garity == 0:
        return WireLayout(varity=varity)
    gmin = tuple(lo for lo, _ in granges)
    gspan = tuple(hi - lo + 1 for lo, hi in granges)
    if math.prod(gspan) >= _HI:
        return None
    return WireLayout(gmin, gspan, varity)


@dataclass
class AggregationProblem:
    """One instance of the Aggregation Problem.

    ``memberships[u]`` maps each group ``u`` belongs to, to ``u``'s input
    value for that group; ``targets[g]`` is the node that must learn the
    aggregate of group ``g``.  Every group with a member must have a target.
    """

    memberships: Mapping[int, Mapping[GroupT, Any]]
    targets: Mapping[GroupT, int]
    fn: Aggregate
    #: ℓ̂₂ — upper bound on groups-per-target known to all nodes; computed
    #: from the instance when omitted.
    ell2_bound: int | None = None

    def global_load(self) -> int:
        """L = Σ|Aᵢ| — the total number of packets."""
        return sum(len(m) for m in self.memberships.values())

    def ell1(self) -> int:
        """ℓ₁ — max groups one node is a member of."""
        return max((len(m) for m in self.memberships.values()), default=0)

    def ell2(self) -> int:
        """ℓ₂ — max groups one node is the target of."""
        per_target: dict[int, int] = {}
        for g, t in self.targets.items():
            per_target[t] = per_target.get(t, 0) + 1
        return max(per_target.values(), default=0)

    def validate(self) -> None:
        for u, groups in self.memberships.items():
            for g in groups:
                if g not in self.targets:
                    raise ValueError(f"group {g!r} (member {u}) has no target")


@dataclass
class AggregationOutcome:
    """Result of one aggregation run."""

    #: Aggregate per group, as delivered to the group's target.
    values: dict[GroupT, Any]
    #: Per-target view: target node -> {group: value}.
    by_target: dict[int, dict[GroupT, Any]] = field(default_factory=dict)
    rounds: int = 0


def run_aggregation(
    net: NCCNetwork,
    bf: ButterflyGrid,
    shared: SharedRandomness,
    problem: AggregationProblem,
    *,
    tag: object = None,
    kind: str = "aggregation",
) -> AggregationOutcome:
    """Execute the Aggregation Algorithm; see module docstring."""
    problem.validate()
    start = net.round_index
    if tag is None:
        tag = shared.fresh_tag("aggregation")
    with net.phase(kind):
        # One globally agreed rank/target function, salted per invocation
        # (the paper's hash functions are set up once, beforehand).
        nonce = shared.next_nonce()
        rank = shared.rank_function()
        target_col = shared.target_function(bf.columns)
        salt = shared.salted_key

        def key_of(g: GroupT, _cache: dict = {}) -> int:
            k = _cache.get(g)
            if k is None:
                k = _cache[g] = salt(nonce, _group_key(g))
            return k

        layout = _typed_applicable(net, bf, problem)
        (_OBJECT_RUNS if layout is None else _TYPED_RUNS).inc()
        router = CombiningRouter(
            net,
            bf,
            rank_of=lambda g: rank(key_of(g)),
            target_col_of=lambda g: target_col(key_of(g)),
            combine=problem.fn.combine,
            ufunc=problem.fn.ufunc,
            layout=layout or INT_LAYOUT,
            kind=kind,
        )

        # ----- Preprocessing: batched injection to random level-0 nodes,
        # submitted columnar (one BatchBuilder per injection round).  The
        # random placement draws are identical in both flows; the typed
        # flow merely accumulates the draws into columns instead of
        # building per-packet tuples.
        batch = net.config.batch_size(net.n)
        if layout is not None:
            inject_dtype = layout.dtype("col")
            pend_cols: list[tuple[list, list, list, list]] = []
            for u, groups in problem.memberships.items():
                u_rng = shared.node_rng(u, (tag, "inject"))
                ordered = sorted(groups.items(), key=lambda kv: repr(kv[0]))
                for j, (g, value) in enumerate(ordered):
                    col = u_rng.randrange(bf.columns)
                    r = j // batch
                    while len(pend_cols) <= r:
                        pend_cols.append(([], [], [], []))
                    row = pend_cols[r]
                    row[0].append(u)
                    # The host of level-0 column ``col`` is NCC node
                    # ``col``: the destination column doubles as the
                    # payload's ``col`` field.
                    row[1].append(col)
                    row[2].append(g)
                    row[3].append(value)
            for srcs, cols, gs, vals in pend_cols:
                out = BatchBuilder(kind=kind, dtype=inject_dtype)
                payload = _np.empty(len(srcs), dtype=inject_dtype)
                payload["tag"] = "I"
                payload["col"] = cols
                layout.fill(payload, gs, vals)
                out.add_arrays(srcs, cols, payload)
                _, arr = wire_columns(net.exchange(out), inject_dtype)
                router.inject_array(arr["col"], layout.code(arr), layout.values(arr))
        else:
            pending: list[BatchBuilder] = []
            for u, groups in problem.memberships.items():
                u_rng = shared.node_rng(u, (tag, "inject"))
                ordered = sorted(groups.items(), key=lambda kv: repr(kv[0]))
                for j, (g, value) in enumerate(ordered):
                    col = u_rng.randrange(bf.columns)
                    r = j // batch
                    while len(pending) <= r:
                        pending.append(BatchBuilder(kind=kind))
                    # The host of level-0 column ``col`` is NCC node ``col``.
                    pending[r].add(u, col, ("I", col, g, value))
            for round_msgs in pending:
                inbox = net.exchange(round_msgs)
                for msgs in inbox.values():
                    for _tag, col, g, value in payloads_of(msgs):
                        router.inject(col, g, value)
        barrier(net, bf)

        # ----- Combining.
        res = router.run()
        barrier(net, bf)

        # ----- Postprocessing: deliver to real targets in random rounds.
        ell2 = problem.ell2_bound if problem.ell2_bound is not None else problem.ell2()
        window = max(1, math.ceil(ell2 / max(1, net.log2n)))
        if layout is not None:
            result_dtype = layout.dtype(None)
            rows: list[tuple[list, list, list, list]] = [
                ([], [], [], []) for _ in range(window)
            ]
            for g, value in res.results.items():
                t = problem.targets[g]
                src = target_col(key_of(g))  # host of (d, h(g))
                row = rows[shared.window_slot(src, (tag, "deliver", _group_key(g)), window)]
                row[0].append(src)
                row[1].append(t)
                row[2].append(g)
                row[3].append(value)
            schedule = []
            for srcs, dsts, gs, vals in rows:
                out = BatchBuilder(kind=kind, dtype=result_dtype)
                if srcs:
                    payload = _np.empty(len(srcs), dtype=result_dtype)
                    payload["tag"] = "R"
                    layout.fill(payload, gs, vals)
                    out.add_arrays(srcs, dsts, payload)
                schedule.append(out)
        else:
            schedule = [BatchBuilder(kind=kind) for _ in range(window)]
            for g, value in res.results.items():
                t = problem.targets[g]
                src = target_col(key_of(g))  # host of (d, h(g))
                slot = shared.window_slot(src, (tag, "deliver", _group_key(g)), window)
                schedule[slot].add(src, t, ("R", g, value))
        outcome = AggregationOutcome(values={}, rounds=0)
        for r in range(window):
            inbox = net.exchange(schedule[r])
            for t, msgs in inbox.items():
                if layout is not None:
                    by_t = outcome.by_target.setdefault(t, {})
                    for g, value in zip(*layout.box(wire_column(msgs, result_dtype))):
                        outcome.values[g] = value
                        by_t[g] = value
                else:
                    for _tag, g, value in payloads_of(msgs):
                        outcome.values[g] = value
                        outcome.by_target.setdefault(t, {})[g] = value
        barrier(net, bf)

    outcome.rounds = net.round_index - start
    return outcome


def _group_key(g: GroupT) -> int:
    """Stable integer key for hashing structured group identifiers."""
    if isinstance(g, int):
        return g
    if isinstance(g, tuple):
        key = 0
        for part in g:
            key = key * 1_000_003 + (_group_key(part) + 1)
        return key
    if isinstance(g, str):
        acc = 0
        for ch in g:
            acc = acc * 131 + ord(ch)
        return acc
    raise TypeError(f"unsupported group identifier type {type(g).__name__}")
