"""Random-rank routing on the emulated butterfly (Appendix B.2).

Two engines:

* :class:`CombiningRouter` — the *Combining Phase* of the Aggregation
  Algorithm: packets injected at level-0 nodes travel the unique butterfly
  path toward their group's target ``(d, h(group))``; packets of one group
  that meet at a butterfly node are merged with the distributive aggregate;
  when packets of different groups contend for one edge, the smallest
  ``(rank, group)`` wins and the rest are delayed (Theorem B.2's protocol).
  Optionally records the traversed edges per group — those edge sets *are*
  the multicast trees of Theorem 2.4.

* :class:`MulticastRouter` — the *Spreading Phase* of the Multicast
  Algorithm: packets start at tree roots on level ``d`` and flow toward
  level 0 along recorded tree edges, copied at branching nodes, with the
  same rank-based contention rule.

Termination is detected exactly as in the paper: once a node has forwarded
everything and received a token over each inbound edge it emits tokens on
its outbound edges; the run is complete when the far level holds all tokens.
With ``NCCConfig.extras['lightweight_sync'] = True`` the token wave is
charged as idle rounds instead of materializing token messages (identical
round counts, fewer simulated message objects — used by large benchmarks).

Straight butterfly edges connect nodes of one column and therefore stay
inside one NCC node: they elapse a butterfly round but send no NCC message.
Cross edges become real messages through :class:`~repro.ncc.network.NCCNetwork`,
submitted columnar per host via :class:`~repro.ncc.message.BatchBuilder` so
routed rounds stay on the batched engine's array path.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable

import numpy as _np

from ..errors import ProtocolError
from ..ncc.message import (
    BatchBuilder,
    InboxBatch,
    RoundInbox,
    payloads_of,
    typed_payloads_enabled,
)
from ..ncc.network import NCCNetwork
from .topology import BFNode, ButterflyGrid

GroupT = Hashable  # must additionally be orderable; ints / tuples of ints


def _field_names(prefix: str, arity: int) -> tuple[str, ...]:
    return (prefix,) if arity == 0 else tuple(f"{prefix}{i}" for i in range(arity))


@functools.cache
def wire_dtype(lead: str | None, garity: int = 0, varity: int = 0) -> _np.dtype:
    """The one wire layout of typed group traffic: ``tag, [lead], g…, val…``.

    ``garity``/``varity`` are the group and value tuple arities, 0 for a
    plain int (one field named ``g`` / ``val``).  A tuple sizes as the sum
    of its parts, so the flat int fields account exactly the bits of the
    object path's nested ``(tag, [lead], group, value)`` tuples, and the
    1-char tag is a short string (4 bits).
    """
    fields = [("tag", "U1")]
    if lead is not None:
        fields.append((lead, "i8"))
    fields += [(name, "i8") for name in _field_names("g", garity)]
    fields += [(name, "i8") for name in _field_names("val", varity)]
    return _np.dtype(fields)


#: The wire dtype of routed data packets: ``("D", level, group, value)``.
DATA_DTYPE = wire_dtype("lvl")


@dataclass(frozen=True)
class WireLayout:
    """How one run's groups and values ride int64 columns.

    A plain-int group is its own int64 *code* (``gmin`` empty).  A flat int
    tuple group's code is its mixed-radix number over per-field offsets
    ``g[i] - gmin[i]`` in ranges ``gspan[i]``, first field most
    significant: code order is tuple order, so contention on ``(rank,
    code)`` is contention on ``(rank, group)``.  Values are ints
    (``varity`` 0) or flat int tuples of arity ``varity``; the kernel holds
    them as an ``(m, max(1, varity))`` int64 matrix.
    """

    gmin: tuple[int, ...] = ()
    gspan: tuple[int, ...] = ()
    varity: int = 0

    def dtype(self, lead: str | None) -> _np.dtype:
        return wire_dtype(lead, len(self.gmin), self.varity)

    @functools.cached_property
    def gnames(self) -> tuple[str, ...]:
        return _field_names("g", len(self.gmin))

    @functools.cached_property
    def vnames(self) -> tuple[str, ...]:
        return _field_names("val", self.varity)

    def code(self, arr):
        """Group codes of a structured wire column, by column arithmetic."""
        if not self.gmin:
            return arr["g"]
        names = self.gnames
        code = arr[names[0]] - self.gmin[0]
        for name, lo, span in zip(names[1:], self.gmin[1:], self.gspan[1:]):
            code = code * span + (arr[name] - lo)
        return code

    def decode(self, code) -> list:
        """Group field columns of a code column (inverse of :meth:`code`)."""
        if not self.gmin:
            return [code]
        fields = []
        for lo, span in zip(self.gmin[:0:-1], self.gspan[:0:-1]):
            code, rest = _np.divmod(code, span)
            fields.append(rest + lo)
        fields.append(code + self.gmin[0])
        return fields[::-1]

    def values(self, arr):
        """The ``(m, fields)`` value matrix of a structured wire column."""
        mat = _np.empty((len(arr), len(self.vnames)), dtype=_np.int64)
        for j, name in enumerate(self.vnames):
            mat[:, j] = arr[name]
        return mat

    def fill(self, payload, groups: list, values: list) -> None:
        """Write boxed groups and values into a structured wire column."""
        for names, arity, items in (
            (self.gnames, len(self.gmin), groups),
            (self.vnames, self.varity, values),
        ):
            if arity == 0:
                payload[names[0]] = items
            else:
                mat = _np.array(items, dtype=_np.int64).reshape(len(items), arity)
                for j, name in enumerate(names):
                    payload[name] = mat[:, j]

    def box_groups(self, fields: list) -> list:
        """Python groups from group field columns (one object per row)."""
        if not self.gmin:
            return fields[0].tolist()
        return list(zip(*(f.tolist() for f in fields)))

    def box_values(self, mat) -> list:
        """Python values from a value matrix (one object per row)."""
        if self.varity == 0:
            return mat[:, 0].tolist()
        return list(map(tuple, mat.tolist()))

    def box(self, arr) -> tuple[list, list]:
        """``(groups, values)`` of a structured wire column, boxed."""
        fields = [arr[name] for name in self.gnames]
        return self.box_groups(fields), self.box_values(self.values(arr))


#: Plain-int groups and values: the layout of every one-field wire dtype.
INT_LAYOUT = WireLayout()


def wire_column(msgs: Any, dtype: Any):
    """One inbox's typed payloads as a structured column of ``dtype``.

    A typed span is read as is; the reference engine (or a degraded round)
    delivers boxed flat tuples, which are lowered back to the same column
    so every engine drives the identical typed flow.
    """
    arr = msgs.payload_array() if type(msgs) is InboxBatch else None
    if arr is None:
        arr = _np.array(payloads_of(msgs), dtype=dtype)
    return arr


def wire_columns(inbox: Any, dtype: Any):
    """A whole round's typed payloads as ``(receiver per message, one
    structured column of dtype)``, for consumers indifferent to message
    order.

    A :class:`RoundInbox` is read whole.  Otherwise typed spans are read as
    is and every boxed payload of the round is lowered in one conversion,
    so a round costs O(1) numpy calls, not O(receivers).
    """
    if type(inbox) is RoundInbox:
        return inbox.columns()
    hosts: list = []
    parts: list = []
    boxed_hosts: list[int] = []
    boxed: list = []
    for host, received in inbox.items():
        arr = received.payload_array() if type(received) is InboxBatch else None
        if arr is None:
            pls = payloads_of(received)
            boxed += pls
            boxed_hosts += [host] * len(pls)
        else:
            parts.append(arr)
            hosts.append(_np.full(len(arr), host, dtype=_np.int64))
    if boxed or not parts:
        parts.append(_np.array(boxed, dtype=dtype))
        hosts.append(_np.array(boxed_hosts, dtype=_np.int64))
    if len(parts) == 1:
        return hosts[0], parts[0]
    return _np.concatenate(hosts), _np.concatenate(parts)


def _reduceat(ufuncs: tuple, v, starts):
    """Collapse the row segments starting at ``starts``, field by field."""
    out = _np.empty((len(starts), v.shape[1]), dtype=_np.int64)
    for j, ufunc in enumerate(ufuncs):
        out[:, j] = ufunc.reduceat(v[:, j], starts)
    return out


def _group_bits(group: Any) -> int:
    from ..ncc.message import payload_bits

    return payload_bits(group)


@dataclass
class TreeSet:
    """Multicast trees recorded by a combining run (Theorem 2.4).

    ``children[g][b]`` lists the level-(b.level − 1) nodes that node ``b``
    forwards group ``g``'s packets to during a multicast; ``root[g]`` is the
    level-d tree root ``(d, h(g))``; ``leaf_members[g][column]`` lists the
    group members whose packets were injected at level-0 ``column`` (their
    designated leaves ``l(g, u)``).
    """

    children: dict[GroupT, dict[BFNode, list[BFNode]]] = field(default_factory=dict)
    root: dict[GroupT, BFNode] = field(default_factory=dict)
    leaf_members: dict[GroupT, dict[int, list[int]]] = field(default_factory=dict)
    nodes_touched: dict[GroupT, set[BFNode]] = field(default_factory=dict)

    def add_edge(self, group: GroupT, parent: BFNode, child: BFNode) -> None:
        kids = self.children.setdefault(group, {}).setdefault(parent, [])
        if child not in kids:
            kids.append(child)
        touched = self.nodes_touched.setdefault(group, set())
        touched.add(parent)
        touched.add(child)

    def set_root(self, group: GroupT, root: BFNode) -> None:
        self.root[group] = root
        self.nodes_touched.setdefault(group, set()).add(root)

    def add_leaf_member(self, group: GroupT, column: int, member: int) -> None:
        self.leaf_members.setdefault(group, {}).setdefault(column, []).append(member)
        self.nodes_touched.setdefault(group, set()).add(BFNode(0, column))

    def congestion(self) -> int:
        """Max number of trees sharing one butterfly node (Theorem 2.4)."""
        load: dict[BFNode, int] = {}
        for touched in self.nodes_touched.values():
            for b in touched:
                load[b] = load.get(b, 0) + 1
        return max(load.values(), default=0)

    def groups(self) -> list[GroupT]:
        return list(self.root)

    def member_load(self) -> int:
        """ℓ = max members of one tree mapped to one leaf-serving node."""
        per_member: dict[int, int] = {}
        for leafmap in self.leaf_members.values():
            for members in leafmap.values():
                for u in members:
                    per_member[u] = per_member.get(u, 0) + 1
        return max(per_member.values(), default=0)


@dataclass
class RoutingResult:
    """Outcome of one routing run."""

    rounds: int
    results: dict[GroupT, Any]
    trees: TreeSet | None = None


def _lightweight(net: NCCNetwork) -> bool:
    return bool(net.config.extras.get("lightweight_sync", False))


class CombiningRouter:
    """Downward (level 0 → level d) combining router.

    Parameters
    ----------
    rank_of:
        ``ρ(group)`` — the packet rank; same-group packets always share a
        rank, and contention prefers smaller ``(rank, group)``.
    target_col_of:
        ``h(group)`` — the column of the level-d intermediate target.
    combine:
        The distributive aggregate: merges two packet values of one group.
    ufunc:
        Optional numpy ufunc computing the same reduction as ``combine``
        over int64 columns, or a tuple with one ufunc per value field.
        With it, packets injected through :meth:`inject_array` route on the
        fully typed kernel (:meth:`_run_typed`): pending packets live in
        parallel ``(key, group code)`` int64 arrays plus an ``(m, fields)``
        value matrix, collisions collapse via sort-and-``reduceat``, and
        wire traffic is a structured-dtype column — a clean round touches
        no Python per packet.
    layout:
        The :class:`WireLayout` of typed injections (group codes, value
        arity); plain ints when omitted.
    record_trees:
        Record traversed edges into a :class:`TreeSet` (Multicast Tree Setup).
    kind:
        Label stamped on the NCC messages (statistics only).
    """

    def __init__(
        self,
        net: NCCNetwork,
        bf: ButterflyGrid,
        *,
        rank_of: Callable[[GroupT], int],
        target_col_of: Callable[[GroupT], int],
        combine: Callable[[Any, Any], Any],
        ufunc: Any = None,
        layout: WireLayout = INT_LAYOUT,
        record_trees: bool = False,
        kind: str = "combining",
    ):
        self.net = net
        self.bf = bf
        self.rank_of = rank_of
        self.target_col_of = target_col_of
        self.combine = combine
        self.ufunc = ufunc
        self.layout = layout
        self.kind = kind
        self._token_kind = kind + ":token"
        self.trees = TreeSet() if record_trees else None
        self._queues: dict[BFNode, dict[GroupT, Any]] = {}
        self._typed_cols: tuple[list, list, list] | None = None
        self._ran = False

    # ------------------------------------------------------------------
    def inject(self, column: int, group: GroupT, value: Any) -> None:
        """Place a packet at level-0 node ``(0, column)`` (pre-run)."""
        if self._ran:
            raise ProtocolError("router already ran")
        if not 0 <= column < self.bf.columns:
            raise ValueError(f"column {column} outside [0,{self.bf.columns})")
        node = BFNode(0, column)
        q = self._queues.setdefault(node, {})
        if group in q:
            q[group] = self.combine(q[group], value)
        else:
            q[group] = value
        if self.trees is not None:
            self.trees.set_root(group, BFNode(self.bf.d, self.target_col_of(group)))
            self.trees.nodes_touched.setdefault(group, set()).add(node)

    def inject_array(self, columns: Any, groups: Any, values: Any) -> None:
        """Place typed packets at level-0 nodes (pre-run, column form).

        ``columns``/``groups``/``values`` are parallel int columns: groups
        as the layout's int64 group codes, values as an int64 column or an
        ``(m, fields)`` matrix.  Packets stay in arrays end-to-end when the
        typed kernel applies; otherwise they are boxed into the object
        queues at :meth:`run` — the object-fallback contract.
        """
        if self._ran:
            raise ProtocolError("router already ran")
        carr = _np.asarray(columns, dtype=_np.int64)
        garr = _np.asarray(groups, dtype=_np.int64)
        varr = _np.asarray(values, dtype=_np.int64)
        if varr.ndim == 1:
            varr = varr.reshape(-1, 1)
        if not (len(carr) == len(garr) == len(varr)):
            raise ValueError("inject_array requires parallel columns of equal length")
        if varr.shape[1:] != (len(self.layout.vnames),):
            raise ValueError("inject_array values must have one column per value field")
        if len(carr) == 0:
            return
        if int(carr.min()) < 0 or int(carr.max()) >= self.bf.columns:
            raise ValueError(
                f"column outside [0,{self.bf.columns}) in typed injection"
            )
        if self._typed_cols is None:
            self._typed_cols = ([carr], [garr], [varr])
        else:
            self._typed_cols[0].append(carr)
            self._typed_cols[1].append(garr)
            self._typed_cols[2].append(varr)

    def _box_typed_injections(self) -> None:
        """Replay the typed stash through :meth:`inject` (object fallback:
        tree recording, token-mode sync, no ufunc)."""
        stash = self._typed_cols
        self._typed_cols = None
        if stash is None:
            return
        layout = self.layout
        for carr, garr, varr in zip(*stash):
            groups = layout.box_groups(layout.decode(garr))
            for c, g, v in zip(carr.tolist(), groups, layout.box_values(varr)):
                self.inject(c, g, v)

    # ------------------------------------------------------------------
    def run(self) -> RoutingResult:
        """Route everything; returns per-group combined values at targets."""
        if self._ran:
            raise ProtocolError("router already ran")
        if self._typed_cols is not None:
            ufuncs = self.ufunc if type(self.ufunc) is tuple else (self.ufunc,)
            if (
                self.ufunc is not None
                and len(ufuncs) == len(self.layout.vnames)
                and self.trees is None
                and self.bf.d > 0
                and _lightweight(self.net)
                and not self._queues
            ):
                ccols, gcols, vcols = self._typed_cols
                g = gcols[0] if len(gcols) == 1 else _np.concatenate(gcols)
                uniq = _np.unique(g)
                # The packed sort key (see _run_typed) must fit an int64:
                # an edge id (a pending node key, all below level d's,
                # plus the cross bit) above the bits of a group's priority.
                bottom = self.bf.d << self.bf.d
                eid_bits = (bottom - 1).bit_length() + 1
                if eid_bits + (len(uniq) - 1).bit_length() <= 63:
                    self._typed_cols = None
                    # Level-0 keys are the columns themselves ((0 << d) | column).
                    key = ccols[0] if len(ccols) == 1 else _np.concatenate(ccols)
                    v = vcols[0] if len(vcols) == 1 else _np.concatenate(vcols)
                    return self._run_typed(key, g, v, uniq, ufuncs)
            self._box_typed_injections()
        self._ran = True
        start_round = self.net.round_index
        results: dict[GroupT, Any] = {}
        bf, net = self.bf, self.net
        d = bf.d

        if d == 0:
            # Degenerate butterfly: level 0 == level d.
            for node, pend in self._queues.items():
                for g, v in pend.items():
                    results[g] = self.combine(results[g], v) if g in results else v
            self._queues.clear()
            return RoutingResult(net.round_index - start_round, results, self.trees)

        lightweight = _lightweight(net)
        columns = bf.columns
        mask = columns - 1
        bottom = d << d  # key of (d, 0); level-d keys are >= bottom

        # Hot-state encoding: a butterfly node (level, column) becomes the
        # int key ``(level << d) | column`` so the per-packet loops hash
        # machine ints instead of NamedTuples and never allocate a BFNode.
        # The unique-path hop is pure arithmetic on the key: toward target
        # column t, the next hop fixes bit ``level`` of the column —
        # ``((key + columns) & ~bit) | (t & bit)`` — and the hop is local
        # (straight, same NCC host) iff ``t & bit == column & bit``.
        queues: dict[int, dict[GroupT, Any]] = {
            (node.level << d) | node.column: pend
            for node, pend in self._queues.items()
        }
        self._queues.clear()

        # Per-run cache: rank/target hashes are pure per group, and the
        # contention loop consults them once per pending packet per round —
        # ``ginfo[g] = (target_col, (rank, g))`` folds both lookups and the
        # contention tuple into one dict probe.
        ginfo: dict[GroupT, tuple[int, tuple[int, GroupT]]] = {}

        # Token state: number of tokens received over up-edges.  Level-0
        # nodes are born ready (injection finished before run()).
        tokens: dict[int, int] = {}
        token_sent: set[int] = set()
        # Nodes that may be ready to emit tokens; refilled by events.
        token_candidates: list[int] = (
            [] if lightweight else list(range(columns))  # level-0 keys
        )
        done_at_bottom = 0
        bottom_needed = columns  # every (d, col) must receive 2 tokens

        def node_ready(key: int) -> bool:
            if key >= bottom or key in token_sent:
                return False
            if key in queues:
                return False
            if key < columns:  # level 0
                return True
            return tokens.get(key, 0) >= 2

        def arrive_token(key: int) -> None:
            nonlocal done_at_bottom
            tokens[key] = tokens.get(key, 0) + 1
            if key >= bottom:
                if tokens[key] == 2:
                    done_at_bottom += 1
            elif tokens[key] >= 2 and node_ready(key):
                token_candidates.append(key)

        # Hot-loop locals: attribute loads once per run, not per packet.
        combine = self.combine
        trees = self.trees

        while True:
            # --- select token emissions (candidates from prior rounds;
            # a token never shares a round with the edge's last data) ---
            token_sends: list[int] = []
            if not lightweight:
                fresh = [key for key in token_candidates if node_ready(key)]
                token_candidates = []
                for key in fresh:
                    token_sent.add(key)
                    token_sends.append(key)

            # --- select one data packet per (node, edge) and emit it
            # straight into the round's builder / local list (one pass per
            # packet; straight edges stay in-column = in one NCC host) ---
            out = BatchBuilder(kind=self.kind)
            out_add = out.add
            local_data: list[tuple[int, GroupT, Any]] = []  # (dst key, g, val)
            local_tokens: list[int] = []
            sent_data = False
            for key in list(queues):
                pend = queues[key]
                level = key >> d
                bit = 1 << level
                col = key & mask
                col_bit = col & bit
                lvl1 = level + 1
                base = (key + columns) & ~bit  # the bit-cleared down-hop
                sent_data = True
                if len(pend) == 1:
                    # Single pending group: it wins its edge unopposed.
                    g = next(iter(pend))
                    gi = ginfo.get(g)
                    if gi is None:
                        gi = ginfo[g] = (
                            self.target_col_of(g),
                            (self.rank_of(g), g),
                        )
                    tbit = gi[0] & bit
                    val = pend.pop(g)
                    if tbit == col_bit:
                        local_data.append((base | tbit, g, val))
                    else:
                        out_add(col, col ^ bit, ("D", lvl1, g, val))
                else:
                    best: dict[int, tuple[int, GroupT]] = {}
                    best_get = best.get
                    for g in pend:
                        gi = ginfo.get(g)
                        if gi is None:
                            gi = ginfo[g] = (
                                self.target_col_of(g),
                                (self.rank_of(g), g),
                            )
                        nxt = base | (gi[0] & bit)
                        cand = gi[1]
                        cur = best_get(nxt)
                        if cur is None or cand < cur:
                            best[nxt] = cand
                    for nxt, (_, g) in best.items():
                        val = pend.pop(g)
                        ncol = nxt & mask
                        if ncol == col:
                            local_data.append((nxt, g, val))
                        else:
                            out_add(col, ncol, ("D", lvl1, g, val))
                if not pend:
                    del queues[key]
                    if not lightweight and node_ready(key):
                        token_candidates.append(key)

            if not sent_data and not token_sends:
                if lightweight:
                    if not queues:
                        break
                    raise ProtocolError("combining router deadlocked")
                if done_at_bottom >= bottom_needed:
                    break
                raise ProtocolError("combining router deadlocked (tokens)")

            for key in token_sends:
                level = key >> d
                col = key & mask
                local_tokens.append(key + columns)  # straight down-neighbour
                out.add(
                    col,
                    col ^ (1 << level),
                    ("T", level + 1),
                    kind=self._token_kind,
                )

            inboxes = net.exchange(out)

            # --- apply arrivals (inlined: this runs once per packet) ---
            for dst_key, g, val in local_data:
                if trees is not None:
                    # A local hop is a straight edge: the source sits one
                    # level up in the same column.
                    lvl = dst_key >> d
                    c = dst_key & mask
                    trees.add_edge(g, BFNode(lvl, c), BFNode(lvl - 1, c))
                if dst_key >= bottom:
                    results[g] = combine(results[g], val) if g in results else val
                else:
                    q = queues.get(dst_key)
                    if q is None:
                        queues[dst_key] = q = {}
                    q[g] = combine(q[g], val) if g in q else val
            for dst_key in local_tokens:
                arrive_token(dst_key)
            # Column read: the payloads are all the routing logic needs, so
            # a clean batched round stays free of Message objects here
            # (payloads_of, inlined — this is the hottest loop in the repo).
            for host, received in inboxes.items():
                payloads = (
                    received.payloads()  # reprolint: disable=NCC002 — token rounds are tiny and mixed-type
                    if type(received) is InboxBatch
                    else [m.payload for m in received]
                )
                for payload in payloads:
                    if payload[0] == "D":
                        _, lvl, g, val = payload
                        if trees is not None:
                            # Reconstruct the source from edge structure:
                            # the cross up-neighbour of (lvl, host) is
                            # (lvl-1, host^bit).
                            trees.add_edge(
                                g,
                                BFNode(lvl, host),
                                BFNode(lvl - 1, host ^ (1 << (lvl - 1))),
                            )
                        if lvl == d:
                            results[g] = (
                                combine(results[g], val) if g in results else val
                            )
                        else:
                            dst_key = (lvl << d) | host
                            q = queues.get(dst_key)
                            if q is None:
                                queues[dst_key] = q = {}
                            q[g] = combine(q[g], val) if g in q else val
                    else:
                        arrive_token((payload[1] << d) | host)

        if lightweight:
            # Token wave duration: one hop per level.
            net.idle_rounds(d + 1)

        return RoutingResult(net.round_index - start_round, results, self.trees)

    def _run_typed(self, key, g, v, uniq, ufuncs) -> RoutingResult:
        """Array-resident combining kernel (lightweight sync, no trees).

        ``key``/``g``/``v`` are the injected packets' level-0 node keys,
        group codes and ``(m, fields)`` value matrix; ``uniq`` their
        distinct codes, ascending; ``ufuncs`` one reduction per value field.

        Observably equivalent to the object loop of :meth:`run`: the same
        per-edge winners are selected each round (identical ``(rank,
        group)`` ordering over identical contenders, since code order is
        group order), the same messages cross the same edges with identical
        wire bits (the layout's flat fields size exactly like the ``("D",
        ...)`` tuples), and the exact commutative int64 reductions make the
        collision-combine order irrelevant.

        Each round is one ``argsort`` of a packed int64 key
        ``sk = (eid << bits(k - 1)) | prio``, where ``eid = (key << 1) |
        cross`` names the edge a packet wants and ``prio`` is its group's
        position in ``(rank, group)`` order.  Equal ``sk`` means the same
        node and group, so one ``reduceat`` per value field over those
        segments collapses collisions; the first entry of each ``eid``
        segment is that edge's winner.  Python cost per round is O(1), not
        O(packets) or O(hosts).
        """
        self._ran = True
        np = _np
        net, bf = self.net, self.bf
        d = bf.d
        start_round = net.round_index
        columns = bf.columns
        mask = columns - 1
        bottom = d << d
        layout = self.layout
        data_dtype = layout.dtype("lvl")
        gnames, vnames = layout.gnames, layout.vnames
        kind = self.kind
        one = np.int64(1)

        # Group tables: rank/target are pure per group — one Python call
        # per distinct group (decoded from its code) for the whole run,
        # never per packet.  Packets carry their group's index into
        # ``uniq`` (``gi``) between rounds.
        gfields = layout.decode(uniq)
        glist = layout.box_groups(gfields)
        k_groups = len(glist)
        tcol_by = np.fromiter(
            (self.target_col_of(x) for x in glist), np.int64, k_groups
        )
        rank_by = np.fromiter((self.rank_of(x) for x in glist), np.int64, k_groups)
        by_prio = np.lexsort((uniq, rank_by))  # prio -> group index
        prio_by = np.empty(k_groups, dtype=np.int64)
        prio_by[by_prio] = np.arange(k_groups, dtype=np.int64)
        pbits = np.int64((k_groups - 1).bit_length())
        pmask = (one << pbits) - one
        gi = np.searchsorted(uniq, g)

        res_gi: list = []
        res_v: list = []

        while len(key):
            # --- one packed key per packet: (edge it wants, priority) ---
            level = key >> d
            bit = one << level
            cross = (tcol_by.take(gi) & bit) != (key & bit)
            sk = (((key << 1) | cross) << pbits) | prio_by.take(gi)
            order = np.argsort(sk)
            sk = sk.take(order)
            v = v.take(order, axis=0)

            # --- collapse colliding packets per (node, group) ---
            seg = np.empty(len(sk), dtype=bool)
            seg[0] = True
            np.not_equal(sk[1:], sk[:-1], out=seg[1:])
            if not seg.all():
                starts = np.flatnonzero(seg)
                v = _reduceat(ufuncs, v, starts)
                sk = sk.take(starts)

            # --- the first packet of each edge segment wins it ---
            eid = sk >> pbits
            win = np.empty(len(eid), dtype=bool)
            win[0] = True
            np.not_equal(eid[1:], eid[:-1], out=win[1:])
            key = eid >> 1
            cross = (eid & one).astype(bool)
            gi = by_prio.take(sk & pmask)
            level = key >> d
            bit = one << level
            col = key & mask

            # --- emit cross winners as one typed submission (ascending
            # key order, so per-host emission order is key order) ---
            out = BatchBuilder(kind=kind, dtype=data_dtype)
            cw = np.flatnonzero(win & cross)
            if len(cw):
                ccol = col.take(cw)
                payload = np.empty(len(cw), dtype=data_dtype)
                payload["tag"] = "D"
                payload["lvl"] = level.take(cw) + 1
                cgi = gi.take(cw)
                for name, fcol in zip(gnames, gfields):
                    payload[name] = fcol.take(cgi)
                cv = v.take(cw, axis=0)
                for j, name in enumerate(vnames):
                    payload[name] = cv[:, j]
                out.add_arrays(ccol, ccol ^ bit.take(cw), payload)
            inboxes = net.exchange(out)

            # --- straight winners move locally; losers wait in place ---
            sw = np.flatnonzero(win & ~cross)
            skey = key.take(sw) + columns
            sgi = gi.take(sw)
            sv = v.take(sw, axis=0)
            done = skey >= bottom
            res_gi.append(sgi[done])
            res_v.append(sv[done])
            lose = ~win
            parts_k = [key[lose], skey[~done]]
            parts_gi = [gi[lose], sgi[~done]]
            parts_v = [v[lose], sv[~done]]

            # --- apply network arrivals: the whole round as two columns ---
            if inboxes:
                ahost, arr = wire_columns(inboxes, data_dtype)
                akey = (arr["lvl"] << d) | ahost
                agi = np.searchsorted(uniq, layout.code(arr))
                av = layout.values(arr)
                ab = akey >= bottom
                res_gi.append(agi[ab])
                res_v.append(av[ab])
                parts_k.append(akey[~ab])
                parts_gi.append(agi[~ab])
                parts_v.append(av[~ab])
            key = np.concatenate(parts_k)
            gi = np.concatenate(parts_gi)
            v = np.concatenate(parts_v)

        # Token wave duration (lightweight sync): one hop per level.
        net.idle_rounds(d + 1)

        # --- fold the per-round result chunks, boxing only at the very
        # end (one Python object per group, not per packet) ---
        results: dict[GroupT, Any] = {}
        rg = np.concatenate(res_gi)
        if len(rg):
            rv = np.concatenate(res_v)
            order = np.argsort(rg, kind="stable")
            rg = rg.take(order)
            rv = rv.take(order, axis=0)
            seg = np.empty(len(rg), dtype=bool)
            seg[0] = True
            np.not_equal(rg[1:], rg[:-1], out=seg[1:])
            starts = np.flatnonzero(seg)
            vals = _reduceat(ufuncs, rv, starts)
            rgi = rg.take(starts).tolist()
            results = dict(
                zip([glist[i] for i in rgi], layout.box_values(vals), strict=True)
            )
        return RoutingResult(net.round_index - start_round, results, None)


class MulticastRouter:
    """Upward (level d → level 0) copying router over recorded trees."""

    def __init__(
        self,
        net: NCCNetwork,
        bf: ButterflyGrid,
        trees: TreeSet,
        *,
        rank_of: Callable[[GroupT], int],
        kind: str = "multicast",
    ):
        self.net = net
        self.bf = bf
        self.trees = trees
        self.rank_of = rank_of
        self.kind = kind
        self._token_kind = kind + ":token"

    def run(self, root_packets: dict[GroupT, Any]) -> RoutingResult:
        """Spread each group's packet from its tree root to all tree leaves.

        Returns ``results[column] = {group: value}`` for every level-0
        column that is a leaf of some group's tree; the caller maps leaves
        to group members (the paper's ``l(i, u) → u`` delivery).
        """
        net, bf = self.net, self.bf
        d = bf.d
        start_round = net.round_index
        leaf_payloads: dict[int, dict[GroupT, Any]] = {}
        out_queues: dict[tuple[BFNode, BFNode], dict[GroupT, Any]] = {}
        pending_nodes: dict[BFNode, int] = {}  # node -> # nonempty out-edges

        def process_arrival(node: BFNode, g: GroupT, val: Any) -> None:
            if node.level == 0 and g in self.trees.leaf_members and (
                node.column in self.trees.leaf_members[g]
            ):
                leaf_payloads.setdefault(node.column, {})[g] = val
            for child in self.trees.children.get(g, {}).get(node, ()):  # copies
                edge = (node, child)
                q = out_queues.get(edge)
                if q is None:
                    q = out_queues[edge] = {}
                    pending_nodes[node] = pending_nodes.get(node, 0) + 1
                q[g] = val

        for g, val in root_packets.items():
            root = self.trees.root.get(g)
            if root is None:
                raise ProtocolError(f"no multicast tree for group {g!r}")
            process_arrival(root, g, val)

        if d == 0:
            return RoutingResult(
                net.round_index - start_round,
                {c: dict(m) for c, m in leaf_payloads.items()},
            )

        lightweight = _lightweight(net)
        # Typed wire applies per round: under lightweight sync (no token
        # messages to mix in) a round whose cross traffic is all plain-int
        # (group, value) pairs ships as one DATA_DTYPE column instead of
        # per-packet tuples; any other round keeps the object builder.
        typed_wire = lightweight and typed_payloads_enabled()
        # Contention key (rank, group) per group, cached across rounds: the
        # per-edge minimum consults it once per queued packet per round.
        cand_cache: dict[GroupT, tuple[int, GroupT]] = {}

        def cand_of(g: GroupT) -> tuple[int, GroupT]:
            c = cand_cache.get(g)
            if c is None:
                c = cand_cache[g] = (self.rank_of(g), g)
            return c

        tokens: dict[BFNode, int] = {}
        token_sent: set[BFNode] = set()
        token_candidates: list[BFNode] = (
            [] if lightweight else [BFNode(d, c) for c in range(bf.columns)]
        )
        done_at_top = 0
        top_needed = bf.columns

        def node_ready(node: BFNode) -> bool:
            if node.level <= 0 or node in token_sent:
                return False
            if pending_nodes.get(node, 0) > 0:
                return False
            if node.level == d:
                return True
            return tokens.get(node, 0) >= 2

        while True:
            token_sends: list[BFNode] = []
            if not lightweight:
                fresh = [nd for nd in token_candidates if node_ready(nd)]
                token_candidates = []
                for node in fresh:
                    token_sent.add(node)
                    token_sends.append(node)

            sends: list[tuple[BFNode, BFNode, GroupT, Any]] = []
            for edge in list(out_queues):
                q = out_queues[edge]
                g = min(q, key=cand_of) if len(q) > 1 else next(iter(q))
                val = q.pop(g)
                sends.append((edge[0], edge[1], g, val))
                if not q:
                    del out_queues[edge]
                    node = edge[0]
                    pending_nodes[node] -= 1
                    if pending_nodes[node] == 0:
                        del pending_nodes[node]
                        if not lightweight and node_ready(node):
                            token_candidates.append(node)

            if not sends and not token_sends:
                if lightweight:
                    if not out_queues:
                        break
                    raise ProtocolError("multicast router deadlocked")
                if done_at_top >= top_needed:
                    break
                raise ProtocolError("multicast router deadlocked (tokens)")

            local_data: list[tuple[BFNode, GroupT, Any]] = []
            local_tokens: list[BFNode] = []
            cross_sends: list[tuple[int, int, int, GroupT, Any]] = []
            for src, dst, g, val in sends:
                if src.column == dst.column:
                    local_data.append((dst, g, val))
                else:
                    cross_sends.append(
                        (src.column, dst.column, dst.level, g, val)
                    )
            out = None
            if (
                typed_wire
                and cross_sends
                and not token_sends
                and all(
                    type(c[3]) is int and type(c[4]) is int
                    for c in cross_sends
                )
            ):
                try:
                    payload = _np.empty(len(cross_sends), dtype=DATA_DTYPE)
                    payload["lvl"] = [c[2] for c in cross_sends]
                    payload["g"] = [c[3] for c in cross_sends]
                    payload["val"] = [c[4] for c in cross_sends]
                except OverflowError:
                    out = None  # value outside int64: object round
                else:
                    payload["tag"] = "D"
                    out = BatchBuilder(kind=self.kind, dtype=DATA_DTYPE)
                    out.add_arrays(
                        [c[0] for c in cross_sends],
                        [c[1] for c in cross_sends],
                        payload,
                    )
            if out is None:
                out = BatchBuilder(kind=self.kind)
                out_add = out.add
                for scol, dcol, lvl, g, val in cross_sends:
                    out_add(scol, dcol, ("D", lvl, g, val))
            for node in token_sends:
                straight, cross = bf.up_neighbors(node)
                local_tokens.append(straight)
                out.add(
                    bf.host(node),
                    bf.host(cross),
                    ("T", cross.level),
                    kind=self._token_kind,
                )

            inboxes = net.exchange(out)

            def arrive_token(dst: BFNode) -> None:
                nonlocal done_at_top
                tokens[dst] = tokens.get(dst, 0) + 1
                if dst.level == 0:
                    if tokens[dst] == 2:
                        done_at_top += 1
                elif tokens[dst] >= 2 and node_ready(dst):
                    token_candidates.append(dst)

            for dst, g, val in local_data:
                process_arrival(dst, g, val)
            for dst in local_tokens:
                arrive_token(dst)
            for host, received in inboxes.items():
                arr = (
                    received.payload_array()
                    if type(received) is InboxBatch
                    else None
                )
                if arr is not None:
                    # Typed span: all data packets (tokens never share a
                    # typed round); field reads stay columnar.
                    for lvl, g, val in zip(
                        arr["lvl"].tolist(),
                        arr["g"].tolist(),
                        arr["val"].tolist(),
                    ):
                        process_arrival(BFNode(lvl, host), g, val)
                    continue
                payloads = (
                    received.payloads()  # reprolint: disable=NCC002 — mixed token/data round fallback
                    if type(received) is InboxBatch
                    else [m.payload for m in received]
                )
                for payload in payloads:
                    if payload[0] == "D":
                        _, lvl, g, val = payload
                        process_arrival(BFNode(lvl, host), g, val)
                    else:
                        arrive_token(BFNode(payload[1], host))

        if lightweight:
            net.idle_rounds(d + 1)

        return RoutingResult(
            net.round_index - start_round,
            {c: dict(m) for c, m in leaf_payloads.items()},
        )
