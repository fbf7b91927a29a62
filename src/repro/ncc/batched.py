"""Columnar fast-path round engine.

The reference engine pays several Python-level operations per message
(node-id checks, src consistency, ``sized()`` calls, dict bucketing).  At
the n >= 1024 scales of the ROADMAP targets that per-object walk dominates
simulation wall time.  This engine represents a round's traffic as parallel
``(src, dst, bits, payload-ref)`` arrays and replaces the per-message work
with vectorized/bucketed operations:

* id validation / src consistency — array bound checks plus one
  ``repeat``/equality pass over the ``src`` column;
* send capacity — a max over the per-sender group sizes;
* message-size budget and bit accounting — max/sum over the ``bits`` column;
* receive bucketing — one stable argsort over the ``dst`` column, groups
  emitted in first-arrival order via fancy indexing of the object column.

Plain ``list[Message]`` groups (overlay, baselines, spec-form callers) are
lowered to columns once; past that, the clean round — no violations, no
malformed input — never takes a per-message Python branch.

Deferred (lazy) rounds go further still: when every group is a
column-backed :class:`~repro.ncc.message.InboxBatch` — the
:class:`~repro.ncc.message.BatchBuilder` output — the send-side checks run
entirely off construction metadata (uniform sender, bits sum/max, C-level
min/max over the dst columns) and delivery permutes the *columns*, handing
each destination an ``InboxBatch`` span.  A clean deferred round therefore
constructs **zero** ``Message`` objects end-to-end, at any round size
(small rounds bucket the columns in plain Python instead of via argsort —
same observables, still object-free).  A clean *typed* round — one payload
column, one kind tag, no receiver over capacity — is returned whole as a
:class:`~repro.ncc.message.RoundInbox`: the permuted columns in CSR form,
whose per-node ``InboxBatch`` views are built only if something looks a
node up, and which a typed whole-round submission reaches with no
per-sender or per-receiver Python at all.

A round with *any* anomaly replays the canonical walks of
:class:`~repro.ncc.engine.RoundEngine`, which keeps the violation-ledger
order, STRICT raise points, and DROP-mode rng draws byte-for-byte identical
to the reference engine — the invariant ``tests/test_engine_parity.py``
certifies.  (For lazy groups the walk materializes the messages, which is
exactly what the reference engine observes.)  Receive-side overloads (the
model-faithful DROP scenario) keep the bucketed argsort delivery and only
walk per-inbox, not per-message.
"""

from __future__ import annotations

from typing import Mapping

import numpy as _np

from ..telemetry import tracer as _tracer
from ..telemetry.metrics import METRICS
from .engine import RoundEngine, RoundResult, register_engine
from .message import BuilderBatches, InboxBatch, Message, RoundInbox
from .message import _count_boxes

_TYPED_FALLBACKS = METRICS.counter("ncc.typed_fallbacks")

#: Below this many messages per round the fixed cost of the numpy round
#: setup (~a few dozen array ops) exceeds the per-message walk, so small
#: rounds take the canonical walks — same observable behavior either way.
SMALL_ROUND_CUTOFF = 128


class BatchedEngine(RoundEngine):
    """Vectorized round engine; observably identical to the reference."""

    name = "batched"

    def run_round(self, per_sender: Mapping[int, list[Message]]) -> RoundResult:
        if not per_sender:
            return {}, 0, 0
        senders = list(per_sender.keys())
        groups = [per_sender[s] for s in senders]
        if type(per_sender) is BuilderBatches:
            # The builder's frozen finalize product: every group is proven
            # column-backed, uniform-sender, whole-span and keyed by its
            # own sender — no classification pass, no src-consistency scan,
            # and the bit totals were tracked during accumulation.
            return self._run_deferred(
                senders,
                groups,
                trusted=True,
                round_bits=(per_sender.bits_sum, per_sender.bits_max),
            )
        deferred = True
        for g in groups:
            # The lazy path needs builder-shaped groups: column-backed,
            # uniform sender, whole-span (delivered spans have non-scalar
            # srcs and resubmissions of them take the generic paths below).
            if (
                type(g) is not InboxBatch
                or g._msgs is not None
                or type(g._srcs) is not int
                or g._start != 0
                or g._end != len(g._payloads)
                # len(), not truthiness: a typed (ndarray) payload column
                # of more than one element raises on bool().
                or len(g._payloads) == 0
            ):
                deferred = False
                break
        if deferred:
            return self._run_deferred(senders, groups)
        counts_l = [len(g) for g in groups]
        m_count = sum(counts_l)
        if m_count < SMALL_ROUND_CUTOFF:
            # Empty rounds included: the walk still validates sender ids
            # exactly like the reference engine.
            return self._run_walks(senders, groups)
        try:
            # Plain lists (or resubmitted delivered spans): lower the
            # groups to columns once, flat order.
            flat: list[Message] = []
            for g in groups:
                flat.extend(g)
            src = _np.fromiter([m.src for m in flat], _np.int64, m_count)
            dst = _np.fromiter([m.dst for m in flat], _np.int64, m_count)
            bits = _np.fromiter([m.bits for m in flat], _np.int64, m_count)
            obj = _np.fromiter(flat, dtype=object, count=m_count)
            counts = _np.fromiter(counts_l, _np.int64, len(counts_l))
            snd = _np.fromiter(senders, _np.int64, len(senders))
        except (OverflowError, TypeError, ValueError):
            # A value that does not lower to int64 (e.g. an id >= 2**63)
            # cannot take the columnar path; the canonical walks raise the
            # same errors the reference engine would.
            return self._run_walks(senders, groups)

        net = self.net
        stats = net.stats
        n = net.n

        # dst must be range-checked BEFORE bincount: the count table is
        # dst.max()+1 slots, so a single absurd id would otherwise turn the
        # reference engine's ValueError into a huge allocation.  Bucketing
        # happens here, before any statistics are touched.
        bounds = None
        if 0 <= int(dst.min()) and int(dst.max()) < n:
            per_dst = _np.bincount(dst)
            dsts_present = _np.flatnonzero(per_dst)
            group_counts = per_dst[dsts_present]
            bounds = (dsts_present, group_counts)

        max_sent = int(counts.max())
        clean = (
            bounds is not None
            and 0 <= int(snd.min())
            and int(snd.max()) < n
            and max_sent <= net.capacity
            and int(bits.max()) <= net.message_bits
            and bool((src == _np.repeat(snd, counts)).all())
        )
        if not clean:
            # Malformed input or a send/bits anomaly: replay the canonical
            # ordered walk so errors, ledger order, and DROP sampling match
            # the reference engine exactly.
            accepted, sent_messages, sent_bits = self._send_walk(senders, groups)
            if not accepted:
                return {}, sent_messages, sent_bits
            dst = _np.fromiter([m.dst for m in accepted], _np.int64, len(accepted))
            obj = _np.fromiter(accepted, dtype=object, count=len(accepted))
            per_dst = _np.bincount(dst)
            dsts_present = _np.flatnonzero(per_dst)
            bounds = (dsts_present, per_dst[dsts_present])
        else:
            if max_sent > stats.max_sent_per_round:
                stats.max_sent_per_round = max_sent
            sent_messages = m_count
            sent_bits = int(bits.sum())

        return self._deliver(obj, dst, bounds), sent_messages, sent_bits

    def _run_walks(self, senders, groups) -> RoundResult:
        accepted, sent_messages, sent_bits = self._send_walk(senders, groups)
        return self._recv_walk(self._bucket(accepted)), sent_messages, sent_bits

    # ------------------------------------------------------------------
    # Deferred (lazy columnar) rounds
    # ------------------------------------------------------------------
    def _run_deferred(
        self, senders, groups, trusted: bool = False, round_bits=None
    ) -> RoundResult:
        """Execute a round whose groups are all column-backed, uniform-src
        :class:`InboxBatch` es.  All send-side facts come from construction
        metadata; a clean round constructs no ``Message`` anywhere.  Any
        anomaly — bad ids, src mismatch, capacity or bits overruns —
        replays the canonical walks (which materialize the lazy groups
        exactly as the reference engine observes them) before any
        statistic is touched.  ``trusted`` (the frozen ``BuilderBatches``
        form) skips the src-consistency scan the builder already
        guarantees, and ``round_bits`` carries its pre-tracked
        ``(sum, max)`` bit totals."""
        net = self.net
        n = net.n
        counts = []
        m_count = 0
        max_sent = 0
        clean = True
        try:
            if round_bits is not None:
                sent_bits, max_bits = round_bits
                for s, g in zip(senders, groups):
                    c = g._end
                    counts.append(c)
                    m_count += c
                    if not 0 <= s < n:
                        clean = False
                        break
                    if c > max_sent:
                        max_sent = c
            else:
                sent_bits = 0
                max_bits = 0
                for s, g in zip(senders, groups):
                    c = g._end
                    counts.append(c)
                    m_count += c
                    if not 0 <= s < n or (not trusted and g._srcs != s):
                        clean = False
                        break
                    agg = g._bits_agg
                    bsum, bmax = agg if agg is not None else g.bits_agg
                    sent_bits += bsum
                    if bmax > max_bits:
                        max_bits = bmax
                    if c > max_sent:
                        max_sent = c
        except TypeError:
            # A non-numeric sender key: the canonical walk raises the
            # reference engine's error.
            return self._run_walks(senders, groups)
        if not clean or max_sent > net.capacity or max_bits > net.message_bits:
            return self._run_walks(senders, groups)

        delivered = self._deliver_deferred(
            senders,
            counts,
            m_count,
            max_sent,
            [g._dsts for g in groups],
            [g._payloads for g in groups],
            [g._kinds for g in groups],
        )
        if delivered is None:  # bad/over-wide destination ids
            return self._run_walks(senders, groups)
        return delivered, m_count, sent_bits

    def run_builder(self, builder) -> RoundResult:
        """Execute a round straight off a builder's raw columns — no
        per-group batch objects at all on the clean path.  Anomalous or
        empty rounds finalize normally and replay through
        :meth:`run_round` (identical observables by construction)."""
        bulk = builder._bulk
        if bulk is not None:
            # A whole typed round from one add_arrays call: its columns are
            # already sorted by sender, so the send-side checks are range
            # checks plus one bincount, and delivery runs straight off
            # them — no per-sender spans, no concatenation.
            src, dst, pay, _bits = bulk
            net = self.net
            n = net.n
            if (
                0 <= int(src[0])
                and int(src[-1]) < n
                and builder._bits_max <= net.message_bits
                and int(dst.min()) >= 0
                and int(dst.max()) < n
            ):
                max_sent = int(_np.bincount(src).max())
                if max_sent <= net.capacity:
                    stats = net.stats
                    if max_sent > stats.max_sent_per_round:
                        stats.max_sent_per_round = max_sent
                    delivered = self._deliver_deferred_np(
                        src, builder.kind, len(dst), dst, pay
                    )
                    builder._spent = True
                    return delivered, len(dst), builder._bits_sum
            return self.run_round(builder.batches())
        if not builder._groups or builder._dtype is not None:
            # Empty rounds, and the chunked typed group layout: finalize
            # into (typed whole-span) batches, which run_round's trusted
            # BuilderBatches path delivers without leaving ndarrays.
            return self.run_round(builder.batches())
        net = self.net
        n = net.n
        senders: list[int] = []
        counts: list[int] = []
        dcols: list[list[int]] = []
        pcols: list[list] = []
        kcols: list = []
        m_count = 0
        max_sent = 0
        ok = True
        for s, cols in builder._groups.items():
            if type(s) is not int or not 0 <= s < n:
                ok = False
                break
            dsts = cols[0]
            c = len(dsts)
            senders.append(s)
            counts.append(c)
            dcols.append(dsts)
            pcols.append(cols[1])
            kcols.append(cols[3])
            m_count += c
            if c > max_sent:
                max_sent = c
        if not ok or max_sent > net.capacity or builder._bits_max > net.message_bits:
            return self.run_round(builder.batches())
        delivered = self._deliver_deferred(
            senders, counts, m_count, max_sent, dcols, pcols, kcols
        )
        if delivered is None:  # bad/over-wide destination ids
            return self.run_round(builder.batches())
        builder._spent = True
        return delivered, m_count, builder._bits_sum

    def _deliver_deferred(self, senders, counts, m_count, max_sent, dcols, pcols, kcols):
        """Shared clean-path tail of the deferred forms: bounds-check the
        destination columns, commit the send watermark, and deliver.
        Returns ``None`` — with no statistic touched — when a destination
        id is out of range or too wide for an int64 column, so the caller
        replays the canonical walks and raises the reference errors."""
        net = self.net
        stats = net.stats
        n = net.n
        typed = False
        for p in pcols:
            if type(p) is not list:
                typed = True
                break
        if typed:
            uniform = True
            dt = None
            for p in pcols:
                if type(p) is list:
                    uniform = False
                    break
                if dt is None:
                    dt = p.dtype
                elif p.dtype != dt:
                    uniform = False
                    break
            if uniform:
                # Fully typed round: concatenate the raw columns and take
                # the argsort path at any size — the data is already in
                # arrays, so the small-round Python bucketing would only
                # add boxing.
                try:
                    chunks = [
                        d if type(d) is not list else _np.fromiter(d, _np.int64, len(d))
                        for d in dcols
                    ]
                except (OverflowError, TypeError, ValueError):
                    return None
                dst = chunks[0] if len(chunks) == 1 else _np.concatenate(chunks)
                if dst.dtype != _np.int64:
                    dst = dst.astype(_np.int64)
                if int(dst.min()) < 0 or int(dst.max()) >= n:
                    return None
                pay = pcols[0] if len(pcols) == 1 else _np.concatenate(pcols)
                if max_sent > stats.max_sent_per_round:
                    stats.max_sent_per_round = max_sent
                return self._deliver_deferred_np(
                    _src_column(senders, counts),
                    self._round_kinds(kcols, counts),
                    m_count,
                    dst,
                    pay,
                )
            # Mixed typed/object columns: box the typed sides — the
            # object-fallback contract — and continue on the generic list
            # paths.
            boxed = 0
            for i, p in enumerate(pcols):
                if type(p) is not list:
                    _count_boxes(len(p))
                    boxed += len(p)
                    pcols[i] = p.tolist()
            if boxed:
                _TYPED_FALLBACKS.inc()
                tr = _tracer.CURRENT
                if tr is not None:
                    tr.event(
                        "typed-fallback",
                        boxed=boxed,
                        messages=m_count,
                        round=self.net._round,
                    )
            for i, d in enumerate(dcols):
                if type(d) is not list:
                    dcols[i] = d.tolist()
        if m_count >= SMALL_ROUND_CUTOFF:
            dst_l: list[int] = []
            pay_l: list = []
            for i, dsts in enumerate(dcols):
                dst_l += dsts
                pay_l += pcols[i]
            try:
                dst = _np.fromiter(dst_l, _np.int64, m_count)
            except (OverflowError, TypeError, ValueError):
                # An id beyond int64 cannot be columnar; the walks raise
                # the canonical out-of-range error.
                return None
            if int(dst.min()) < 0 or int(dst.max()) >= n:
                return None
            if max_sent > stats.max_sent_per_round:
                stats.max_sent_per_round = max_sent
            return self._deliver_deferred_np(
                _src_column(senders, counts),
                self._round_kinds(kcols, counts),
                m_count,
                dst,
                pay_l,
            )
        for dsts in dcols:
            if min(dsts) < 0 or max(dsts) >= n:
                return None
        if max_sent > stats.max_sent_per_round:
            stats.max_sent_per_round = max_sent
        return self._deliver_deferred_py(senders, dcols, pcols, kcols)

    @staticmethod
    def _round_kind_scalar(kcols):
        """The single kind tag shared by every message of the round, or
        ``None`` when tags are mixed (token traffic etc.).  ``kcols`` holds
        one kind column (scalar str or per-message list) per group."""
        k0 = kcols[0]
        if type(k0) is not str:
            return None
        for k in kcols:
            if k != k0:  # a list column never equals a str
                return None
        return k0

    @classmethod
    def _round_kinds(cls, kcols, counts):
        """The round's kind tags: the shared scalar tag, or one flat
        per-message column when tags are mixed."""
        kind = cls._round_kind_scalar(kcols)
        if kind is not None:
            return kind
        flat: list[str] = []
        for i, k in enumerate(kcols):
            flat += k if type(k) is list else [k] * counts[i]
        return flat

    def _deliver_deferred_np(self, src, kinds, m_count, dst, pay_l):
        """Argsort-bucketed delivery of the round's flat ``(src, dst,
        payload)`` columns (``kinds``: the round's scalar tag or a flat
        per-message column) — no object column, no ``Message``.  The bits
        column is dropped entirely: sizes are re-derived on demand, which
        delivered inboxes almost never need.

        A clean typed round (one payload column, one kind tag, no receiver
        over capacity) comes back whole as a :class:`RoundInbox`; any
        other round as the ``dict`` of its per-node views."""
        net = self.net
        stats = net.stats
        per_dst = _np.bincount(dst)
        dsts_present = _np.flatnonzero(per_dst)
        group_counts = per_dst[dsts_present]
        order = _np.argsort(dst, kind="stable")
        offsets = _np.zeros(len(group_counts) + 1, dtype=_np.int64)
        _np.cumsum(group_counts, out=offsets[1:])
        max_recv = int(group_counts.max())
        # order[offsets[j]] is the flat index of group j's first message:
        # the key of first-arrival order.
        firsts = order.take(offsets[:-1])

        typed = type(pay_l) is not list
        if typed:
            # Typed round: the permuted payload column stays an ndarray and
            # the delivered spans are typed — nothing is boxed here.
            pay_perm = pay_l.take(order)
        else:
            pay_perm = (
                _np.fromiter(pay_l, dtype=object, count=m_count).take(order).tolist()
            )
        kind_perm = kinds
        if type(kinds) is not str:
            kind_perm = (
                _np.fromiter(kinds, dtype=object, count=m_count).take(order).tolist()
            )
        inbox = RoundInbox(
            dsts_present, offsets, src.take(order), pay_perm, kind_perm, firsts
        )
        if max_recv > net.capacity:
            # Overloaded receivers: the canonical receive walk keeps ledger
            # order and DROP rng draws identical (sampling an InboxBatch
            # draws the same indices a list would; only then are messages
            # built).
            return self._recv_walk(inbox)
        if max_recv > stats.max_received_per_round:
            stats.max_received_per_round = max_recv
        if typed and type(kind_perm) is str:
            return inbox
        return inbox._dict()

    def _deliver_deferred_py(self, senders, dcols, pcols, kcols):
        """Plain-Python columnar bucketing for small deferred rounds: one
        pass over the columns into per-destination column lists — still
        zero ``Message`` construction.  (Like the numpy path, the bits
        column is dropped; sizes re-derive on demand.)"""
        net = self.net
        stats = net.stats
        kind_scalar = self._round_kind_scalar(kcols)
        boxes: dict[int, tuple[list[int], list, list[str]]] = {}
        for j, s in enumerate(senders):
            pays = pcols[j]
            kinds = kcols[j]
            klist = kinds if type(kinds) is list else None
            for i, d in enumerate(dcols[j]):
                b = boxes.get(d)
                if b is None:
                    boxes[d] = b = ([], [], [])
                b[0].append(s)
                b[1].append(pays[i])
                if kind_scalar is None:
                    b[2].append(kinds if klist is None else klist[i])
        over = InboxBatch._over
        delivered: dict[int, InboxBatch] = {}
        max_recv = 0
        for d, (srcs, pays, kinds) in boxes.items():
            c = len(pays)
            if c > max_recv:
                max_recv = c
            delivered[d] = over(
                srcs, d, pays, None,
                kind_scalar if kind_scalar is not None else kinds,
                0, c,
            )
        if max_recv <= net.capacity:
            if max_recv > stats.max_received_per_round:
                stats.max_received_per_round = max_recv
            return delivered
        return self._recv_walk(delivered)

    # ------------------------------------------------------------------
    def _deliver(self, obj, dst, bounds) -> dict[int, list[Message]]:
        """Bucket the object column into inboxes via one stable argsort and
        enforce receive capacity.  Inboxes are emitted in first-arrival
        order and each keeps the flat (send-order) message order, matching
        the reference engine's incremental dict bucketing.  Clean rounds
        return message-backed :class:`InboxBatch` spans over the permuted
        object column — no ``.tolist()``, no per-inbox list slicing."""
        net = self.net
        stats = net.stats
        dsts_present, group_counts = bounds

        order = _np.argsort(dst, kind="stable")
        # Bucket boundaries without re-gathering dst: per-destination counts
        # prefix-sum to the group extents in ascending-dst order, matching
        # the argsort's group layout.
        ends = _np.cumsum(group_counts)
        starts = ends - group_counts
        max_recv = int(group_counts.max())
        # order[starts[j]] is the flat index of group j's first message, so
        # sorting groups by it recovers first-arrival order.
        arrival = _np.argsort(order[starts], kind="stable")

        permuted = obj.take(order)
        starts_l = starts.tolist()
        ends_l = ends.tolist()
        dsts_l = dsts_present.tolist()

        of_messages = InboxBatch._of_messages
        inboxes: dict[int, InboxBatch] = {}
        for j in arrival.tolist():
            inboxes[dsts_l[j]] = of_messages(
                permuted, dsts_l[j], starts_l[j], ends_l[j]
            )
        if max_recv <= net.capacity:
            if max_recv > stats.max_received_per_round:
                stats.max_received_per_round = max_recv
            return inboxes

        # Overloaded receivers: run the canonical receive walk over the
        # (still bucketed) spans for ledger/rng parity.
        return self._recv_walk(inboxes)


def _src_column(senders, counts):
    """The flat sender column of per-sender groups of ``counts`` messages."""
    return _np.repeat(
        _np.fromiter(senders, _np.int64, len(senders)),
        _np.fromiter(counts, _np.int64, len(counts)),
    )


register_engine(BatchedEngine.name, BatchedEngine)
