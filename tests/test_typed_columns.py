"""Typed payload columns: declared dtypes end-to-end.

Primitives may declare a payload dtype at submission time (int64 scalars or
fixed-width structs); the builder, engine, and routers then keep payloads
in numpy columns from ``add_array`` through delivery, and a clean typed
round constructs zero ``Message`` objects *and* zero Python payload boxes.
Object payloads remain the fallback everywhere — these tests pin that the
two representations are observably indistinguishable (values, rounds,
messages, bits) and that the zero-object gates hold.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.config import Enforcement, NCCConfig
from repro.errors import ProtocolError
from repro.ncc.message import (
    BatchBuilder,
    InboxBatch,
    message_construction_count,
    payload_bits,
    payload_box_count,
    set_typed_payloads,
    typed_payload_bits,
    typed_payloads_enabled,
)
from repro.ncc.network import NCCNetwork
from repro.primitives.aggregation import (
    INJECT_DTYPE,
    AggregationProblem,
    run_aggregation,
)
from repro.primitives.direct import send_chunked, send_direct
from repro.primitives.functions import (
    MAX,
    MIN,
    SUM,
    XOR,
    Aggregate,
    tuple_of,
    xor_count,
)
from repro.runtime import NCCRuntime
from repro.telemetry.metrics import METRICS

ENGINES = ("reference", "batched")

PAIR_DTYPE = np.dtype([("a", "i8"), ("b", "i8")])
TAGGED_DTYPE = np.dtype([("tag", "U12"), ("x", "i8"), ("ok", "?"), ("w", "f8")])


@pytest.fixture
def typed_on():
    prev = set_typed_payloads(True)
    yield
    set_typed_payloads(prev)


def _config(engine, mode=Enforcement.COUNT, *, lightweight=True, seed=7):
    extras = {"lightweight_sync": True} if lightweight else {}
    return NCCConfig(seed=seed, enforcement=mode, engine=engine, extras=extras)


# ----------------------------------------------------------------------
# Vectorized sizing
# ----------------------------------------------------------------------
class TestVectorizedSizing:
    def test_int64_column_matches_scalar_rule(self):
        rng = random.Random(0)
        values = [0, 1, -1, 255, -256, 2**62, -(2**62), -(2**63), 2**63 - 1]
        values += [rng.randrange(-(2**63), 2**63) for _ in range(200)]
        arr = np.asarray(values, dtype=np.int64)
        got = typed_payload_bits(arr)
        want = [payload_bits(v) for v in values]
        assert got.tolist() == want

    def test_struct_column_matches_tuple_rule(self):
        rows = [
            ("x", 5, True, 1.5),
            ("longer-tag!!", -77, False, 0.0),
            ("", 0, True, -3.25),
            ("eightchr", 2**40, False, 9.0),
        ]
        arr = np.array(rows, dtype=TAGGED_DTYPE)
        got = typed_payload_bits(arr)
        want = [payload_bits(r) for r in rows]
        assert got.tolist() == want

    def test_inject_dtype_sizes_like_tuples(self):
        rows = [("I", 3, 17, -40), ("I", 0, 2**30, 1)]
        arr = np.array(rows, dtype=INJECT_DTYPE)
        assert typed_payload_bits(arr).tolist() == [
            payload_bits(r) for r in rows
        ]


# ----------------------------------------------------------------------
# Builder-level behavior
# ----------------------------------------------------------------------
class TestTypedBuilder:
    def test_add_array_accounts_like_object_adds(self, typed_on):
        typed = BatchBuilder(kind="t", dtype=np.int64)
        typed.add_array(3, [1, 2, 5], [10, -200, 0])
        obj = BatchBuilder(kind="t")
        for dst, v in zip([1, 2, 5], [10, -200, 0]):
            obj.add(3, dst, v)
        assert len(typed) == len(obj) == 3
        assert typed._bits_sum == obj._bits_sum
        assert typed._bits_max == obj._bits_max

    def test_add_arrays_groups_by_sender(self, typed_on):
        b = BatchBuilder(kind="t", dtype=np.int64)
        b.add_arrays([4, 1, 4, 1], [7, 8, 9, 10], [1, 2, 3, 4])
        assert len(b) == 4
        batches = b.batches()
        assert sorted(batches) == [1, 4]

    def test_mixing_object_adds_degrades_all_groups(self, typed_on):
        b = BatchBuilder(kind="t", dtype=np.int64)
        b.add_array(0, [1, 2], [5, 6])
        boxes = payload_box_count()
        b.add(3, 4, ("obj", 1))  # degrades the typed groups
        assert payload_box_count() - boxes == 2
        assert b._dtype is None
        assert len(b) == 3

    def test_unsupported_dtype_rejected(self, typed_on):
        for bad in (np.float64, np.uint32, np.dtype("O"),
                    np.dtype([("n", "i8", (2,))])):
            with pytest.raises(TypeError, match="unsupported payload dtype"):
                BatchBuilder(dtype=bad)

    def test_prebuilt_value_array_dtype_must_match(self, typed_on):
        b = BatchBuilder(dtype=np.int64)
        with pytest.raises(TypeError):
            b.add_array(0, [1], np.asarray([1.5]))  # silent truncation guard
        # List values get the same guard: 2.5 would otherwise arrive as 2.
        with pytest.raises(TypeError, match="losslessly"):
            b.add_array(0, [1, 2], [3, 2.5])
        with pytest.raises(TypeError, match="losslessly"):
            b.add_arrays([0, 1], [1, 2], [2.5, 7.9])
        assert not b

    def test_float_destinations_rejected(self, typed_on):
        b = BatchBuilder(dtype=np.int64)
        with pytest.raises(TypeError):
            b.add_array(0, np.asarray([1.5]), [3])
        # Every add_arrays path validates ids instead of truncating them
        # (1.5 -> node 1, 0.7 -> node 0): typed, and the untyped object
        # path, whether the columns arrive as lists or ndarrays.
        for dtype in (np.int64, None):
            for wrap in (list, np.asarray):
                b = BatchBuilder(dtype=dtype)
                with pytest.raises(TypeError, match="node ids must be ints"):
                    b.add_arrays(wrap([0]), wrap([1.5]), wrap([3]))
                with pytest.raises(TypeError, match="node ids must be ints"):
                    b.add_arrays(wrap([0.7]), wrap([1]), wrap([3]))
                assert not b

    def test_global_toggle_disables_declarations(self):
        prev = set_typed_payloads(False)
        try:
            assert not typed_payloads_enabled()
            b = BatchBuilder(dtype=np.int64)
            assert b._dtype is None  # declaration degraded; object layout
            b.add_array(0, [1, 2], np.asarray([5, 6], dtype=np.int64))
            assert len(b) == 2
        finally:
            set_typed_payloads(prev)


# ----------------------------------------------------------------------
# Engine-level typed delivery
# ----------------------------------------------------------------------
class TestTypedDelivery:
    def _sends(self, n):
        return [
            (u, (u * 5 + i) % n, (u, i * 3)) for u in range(n) for i in range(3)
        ]

    def test_typed_round_is_object_round(self, typed_on):
        """Same traffic through a declared dtype and through object tuples:
        identical inbox contents, stats, and rounds under both engines."""
        n = 32
        captured = {}
        for engine in ENGINES:
            for dtype in (PAIR_DTYPE, None):
                net = NCCNetwork(n, _config(engine))
                inbox = send_direct(net, self._sends(n), dtype=dtype)
                captured[(engine, dtype is None)] = (
                    [
                        (d, [(m.src, tuple(m.payload)) for m in msgs])
                        for d, msgs in inbox.items()
                    ],
                    net.stats.comparable(),
                    net.round_index,
                )
        assert len(set(map(repr, captured.values()))) == 1

    def test_typed_batched_round_zero_objects(self, typed_on):
        n = 32
        net = NCCNetwork(n, _config("batched"))
        m0, b0 = message_construction_count(), payload_box_count()
        inbox = send_direct(net, self._sends(n), dtype=PAIR_DTYPE)
        assert message_construction_count() == m0
        assert payload_box_count() == b0
        box = next(iter(inbox.values()))
        assert type(box) is InboxBatch
        arr = box.payload_array()
        assert arr is not None and arr.dtype == PAIR_DTYPE
        # Reading the array is free; element access boxes lazily.
        assert payload_box_count() == b0
        p = box.payloads()
        assert payload_box_count() == b0 + len(p)
        assert all(type(x) is tuple for x in p)

    def test_unconvertible_payloads_fall_back(self, typed_on):
        n = 16
        cases = [
            (
                PAIR_DTYPE,
                [(0, 1, (1, 2)), (0, 2, ("not", "ints"))],
                {1: [(1, 2)], 2: [("not", "ints")]},
            ),
            # Lossy numeric conversions: numpy would truncate these floats
            # into the int fields without an error.
            (np.int64, [(0, 1, 2.5), (3, 1, 7.9)], {1: [2.5, 7.9]}),
            (PAIR_DTYPE, [(0, 1, (1, 2)), (0, 2, (3, 4.5))], {1: [(1, 2)], 2: [(3, 4.5)]}),
            # An int into a float field keeps its value but not its type
            # (nor its bits).
            (np.dtype([("w", "f8")]), [(0, 1, (3,))], {1: [(3,)]}),
        ]
        for dtype, sends, expected in cases:
            stats = set()
            for engine in ENGINES:
                for declared in (dtype, None):
                    net = NCCNetwork(n, _config(engine))
                    inbox = send_direct(net, sends, dtype=declared)
                    got = {d: [m.payload for m in box] for d, box in inbox.items()}
                    assert got == expected
                    assert [type(p) for ps in got.values() for p in ps] == [
                        type(p) for ps in expected.values() for p in ps
                    ]
                    stats.add(repr(net.stats.comparable()))
            assert len(stats) == 1, sends

    def test_send_chunked_typed_matches_object(self, typed_on):
        n = 16
        cases = [
            (PAIR_DTYPE, lambda u, i: (u, i)),
            # One lossy slice (a float into an int64 column): that round
            # degrades to the object path instead of truncating 4.5 to 4.
            (np.int64, lambda u, i: u + i + (0.5 if (u, i) == (4, 3) else 0)),
        ]
        for dtype, payload in cases:
            per_source = {
                u: ([(u + i + 1) % n for i in range(5)], [payload(u, i) for i in range(5)])
                for u in range(0, n, 2)
            }
            results = {}
            for declared in (dtype, None):
                net = NCCNetwork(n, _config("batched"))
                rounds = []
                for inbox in send_chunked(net, per_source, 2, dtype=declared):
                    rounds.append(
                        sorted(
                            (d, m.src, m.payload, type(m.payload).__name__)
                            for d, msgs in inbox.items()
                            for m in msgs
                        )
                    )
                results[declared is None] = (rounds, net.stats.comparable())
            assert results[True] == results[False]

    def test_typed_bits_agg_matches_object(self, typed_on):
        """Delivered typed spans aggregate receive-side bits identically to
        boxed payloads (the enforcement paths consume bits_agg)."""
        n = 16
        stats = {}
        for dtype in (PAIR_DTYPE, None):
            net = NCCNetwork(n, _config("batched", Enforcement.STRICT))
            send_direct(net, self._sends(n), dtype=dtype)
            stats[dtype is None] = net.stats.comparable()
        assert stats[True] == stats[False]


# ----------------------------------------------------------------------
# Combining router typed kernel
# ----------------------------------------------------------------------
def _hashed_rank(g):
    return (g * 2654435761) % 1009


#: Router inputs for the typed-vs-object comparison: ``(n, groups,
#: packets, rank_of)``.  A constant rank leaves every contention to the
#: group id (the low bits of the packed sort key); negative group ids must
#: order below the others; the n = 256 case has rounds of more than 128
#: messages, past the engine's small-round cutoff.
ROUTE_CASES = {
    "hashed-rank": (32, range(10), 150, _hashed_rank),
    "constant-rank": (32, range(10), 150, lambda g: 7),
    "negative-groups": (32, range(-12, 4), 200, _hashed_rank),
    "bulk-rounds": (256, range(300), 3000, _hashed_rank),
}


class TestTypedCombiningRouter:
    def _router(self, net, bf, fn, rank_of=_hashed_rank, **kw):
        from repro.butterfly.routing import CombiningRouter

        return CombiningRouter(
            net,
            bf,
            rank_of=rank_of,
            target_col_of=lambda g: (g * 40503) % bf.columns,
            combine=fn.combine,
            ufunc=fn.ufunc,
            **kw,
        )

    @pytest.mark.parametrize("fn", [SUM, MIN, MAX, XOR], ids=lambda f: f.name)
    def test_typed_kernel_matches_object_route(self, fn, typed_on):
        for case in ROUTE_CASES:
            self._check_typed_route(fn, case)

    def _check_typed_route(self, fn, case):
        n, groups, count, rank_of = ROUTE_CASES[case]
        groups = list(groups)
        rng = random.Random(13)
        packets = [
            (rng.randrange(n), rng.choice(groups), rng.randrange(1, 500))
            for _ in range(count)
        ]
        results = {}
        for typed in (True, False):
            rt = NCCRuntime(n, _config("batched"))
            sizes = []
            exchange = rt.net.exchange

            def spy(out, exchange=exchange, sizes=sizes):
                sizes.append(len(out))
                return exchange(out)

            rt.net.exchange = spy
            router = self._router(rt.net, rt.bf, fn, rank_of=rank_of)
            if typed:
                router.inject_array(
                    [p[0] for p in packets],
                    [p[1] for p in packets],
                    [p[2] for p in packets],
                )
            else:
                for col, g, v in packets:
                    router.inject(col, g, v)
            m0, b0 = message_construction_count(), payload_box_count()
            res = router.run()
            if typed:  # the typed kernel ran, not the boxed fallback
                assert message_construction_count() == m0, case
                assert payload_box_count() == b0, case
            results[typed] = (res.results, res.rounds, rt.net.stats.comparable())
            if case == "bulk-rounds":
                assert max(sizes) > 128
        assert results[True] == results[False], case
        assert set(results[True][0]) == set(groups) & {p[1] for p in packets}, case

    def test_inject_array_validation(self, typed_on):
        rt = NCCRuntime(16, _config("batched"))
        router = self._router(rt.net, rt.bf, SUM)
        with pytest.raises(ValueError, match="column"):
            router.inject_array([999], [1], [2])
        with pytest.raises(ValueError, match="parallel"):
            router.inject_array([1, 2], [1], [2])
        router.inject_array([], [], [])  # empty is a no-op
        router.inject_array([0], [1], [2])
        router.run()
        with pytest.raises(ProtocolError):
            router.inject_array([0], [1], [2])

    def test_tree_recording_falls_back_to_object_path(self, typed_on):
        """record_trees is object-path-only; typed injections are boxed and
        the trees recorded match object injections exactly."""
        n = 16
        trees = {}
        for typed in (True, False):
            rt = NCCRuntime(n, _config("batched"))
            router = self._router(rt.net, rt.bf, SUM, record_trees=True)
            if typed:
                router.inject_array([0, 3, 9], [1, 1, 2], [5, 6, 7])
            else:
                for col, g, v in [(0, 1, 5), (3, 1, 6), (9, 2, 7)]:
                    router.inject(col, g, v)
            res = router.run()
            assert res.trees is not None
            trees[typed] = (
                sorted(res.trees.root.items()),
                sorted(
                    (g, sorted((p, tuple(c)) for p, c in kids.items()))
                    for g, kids in res.trees.children.items()
                ),
                res.results,
            )
        assert trees[True] == trees[False]


# ----------------------------------------------------------------------
# Whole-primitive equivalence + the zero-object acceptance gates
# ----------------------------------------------------------------------
def _aggregation_problem(n, rng):
    memberships = {
        u: {g: rng.randrange(-50, 500) for g in rng.sample(range(12), 3)}
        for u in range(n)
    }
    targets = {g: rng.randrange(n) for g in range(12)}
    return AggregationProblem(memberships, targets, SUM)


def _run_agg(n, problem, engine, typed, mode=Enforcement.COUNT):
    prev = set_typed_payloads(typed)
    try:
        rt = NCCRuntime(n, _config(engine, mode))
        m0, b0 = message_construction_count(), payload_box_count()
        c0 = METRICS.snapshot()
        out = run_aggregation(rt.net, rt.bf, rt.shared, problem)
        paths = METRICS.delta(c0, METRICS.snapshot())
        return {
            "values": out.values,
            "by_target": out.by_target,
            "rounds": rt.net.round_index,
            "stats": rt.net.stats.comparable(),
            "constructed": message_construction_count() - m0,
            "boxed": payload_box_count() - b0,
            "path": {
                p: paths.get(f"primitives.aggregation.{p}", 0)
                for p in ("typed", "object")
            },
        }
    finally:
        set_typed_payloads(prev)


class TestTypedAggregation:
    def test_typed_object_engines_all_agree(self):
        n = 32
        problem = _aggregation_problem(n, random.Random(4))
        runs = {
            (e, t): _run_agg(n, problem, e, t)
            for e in ENGINES
            for t in (True, False)
        }
        base = runs[("reference", False)]
        oracle = {}
        for u, gs in problem.memberships.items():
            for g, v in gs.items():
                oracle[g] = oracle.get(g, 0) + v
        assert base["values"] == oracle
        for key, run in runs.items():
            assert run["values"] == base["values"], key
            assert run["by_target"] == base["by_target"], key
            assert run["rounds"] == base["rounds"], key
            assert run["stats"] == base["stats"], key

    def test_typed_batched_run_constructs_nothing(self):
        """The acceptance gate: a whole typed aggregation under the batched
        engine constructs zero Message objects and zero payload boxes."""
        n = 64
        problem = _aggregation_problem(n, random.Random(9))
        run = _run_agg(n, problem, "batched", True)
        assert run["constructed"] == 0
        assert run["boxed"] == 0

    @pytest.mark.parametrize(
        "mode", tuple(Enforcement), ids=[m.value for m in Enforcement]
    )
    def test_typed_object_parity_all_modes(self, mode):
        n = 24
        problem = _aggregation_problem(n, random.Random(2))
        runs = {
            (e, t): _run_agg(n, problem, e, t, mode)
            for e in ENGINES
            for t in (True, False)
        }
        base = runs[("reference", False)]
        for key, run in runs.items():
            for fld in ("values", "by_target", "rounds", "stats"):
                assert run[fld] == base[fld], (key, fld)

    @pytest.mark.parametrize("fn", [MIN, MAX, XOR], ids=lambda f: f.name)
    def test_other_ufunc_aggregates(self, fn):
        n = 24
        rng = random.Random(8)
        memberships = {
            u: {g: rng.randrange(1, 1000) for g in rng.sample(range(6), 2)}
            for u in range(n)
        }
        problem = AggregationProblem(
            memberships, {g: g for g in range(6)}, fn
        )
        typed = _run_agg(n, problem, "batched", True)
        obj = _run_agg(n, problem, "batched", False)
        assert typed["values"] == obj["values"]
        assert typed["stats"] == obj["stats"]
        oracle = {}
        for u, gs in memberships.items():
            for g, v in gs.items():
                oracle[g] = fn.combine(oracle[g], v) if g in oracle else v
        assert typed["values"] == oracle

    def test_non_int_instances_keep_object_path(self):
        """String groups / tuple values can't ride int64 columns; the run
        falls back and still matches the oracle."""
        n = 16
        memberships = {
            u: {("g", u % 3): (u % 3, 1)} for u in range(n)
        }
        problem = AggregationProblem(
            memberships, {("g", i): i for i in range(3)}, xor_count
        )
        run = _run_agg(n, problem, "batched", True)
        oracle = {}
        for u, gs in memberships.items():
            for g, v in gs.items():
                oracle[g] = xor_count.combine(oracle[g], v) if g in oracle else v
        assert run["values"] == oracle

    def test_overflow_risk_keeps_object_path(self):
        """A SUM whose total absolute mass could exceed int64 must not use
        the typed kernel (reduceat would wrap); results stay exact."""
        n = 16
        big = 2**61
        memberships = {u: {0: big} for u in range(n)}
        problem = AggregationProblem(memberships, {0: 3}, SUM)
        run = _run_agg(n, problem, "batched", True)
        assert run["values"] == {0: n * big}  # exact, no int64 wrap

    def test_token_mode_keeps_object_path(self):
        """Without lightweight_sync the token wave shares rounds with data;
        typed flow must decline and results stay correct."""
        n = 16
        problem = _aggregation_problem(n, random.Random(5))
        outs = {}
        for typed in (True, False):
            prev = set_typed_payloads(typed)
            try:
                rt = NCCRuntime(n, _config("batched", lightweight=False))
                out = run_aggregation(rt.net, rt.bf, rt.shared, problem)
                outs[typed] = (out.values, rt.net.round_index,
                               rt.net.stats.comparable())
            finally:
                set_typed_payloads(prev)
        assert outs[True] == outs[False]


# ----------------------------------------------------------------------
# Tuple groups and pair values on the typed kernel
# ----------------------------------------------------------------------
def _oracle(problem):
    out = {}
    for gs in problem.memberships.values():
        for g, v in gs.items():
            out[g] = problem.fn.combine(out[g], v) if g in out else v
    return out


def _findmin_problem(n, rng):
    """FindMin's echo shape: groups ``(leader, up|down)``, XOR values."""
    leaders = rng.sample(range(n), 5)
    memberships = {
        u: {(c, d): rng.randrange(1 << 20) for d in (0, 1)}
        for u in range(n)
        for c in [leaders[u % len(leaders)]]
    }
    targets = {(c, d): c for c in leaders for d in (0, 1)}
    return AggregationProblem(memberships, targets, XOR, ell2_bound=2)


def _identification_problem(n, rng):
    """The Identification Algorithm's shape: groups ``(w, trial)``,
    ``(arc, 1)`` values under ``xor_count``."""
    memberships = {}
    for v in range(n):
        entry = {}
        for w in rng.sample(range(n), 3):
            arc = w * n + v
            for t in rng.sample(range(7), 2):
                entry[(w, t)] = (arc, 1)
        memberships[v] = entry
    targets = {g: g[0] for gs in memberships.values() for g in gs}
    return AggregationProblem(memberships, targets, xor_count, ell2_bound=7)


TUPLE_PROBLEMS = {
    "findmin-xor": _findmin_problem,
    "identification-xor-count": _identification_problem,
}


def _fallback_problem(case, n):
    """Instances the typed flow must decline (one reason each)."""
    rng = random.Random(21)
    if case == "mixed-arity":
        ms = {u: {(u % 3, 0): u, (u % 3,): u + 1} for u in range(n)}
        return AggregationProblem(ms, {g: 0 for m in ms.values() for g in m}, XOR)
    if case == "str-field":
        ms = {u: {("g", u % 3): u} for u in range(n)}
        return AggregationProblem(ms, {("g", i): i for i in range(3)}, XOR)
    if case == "bool-field":
        ms = {u: {(u % 3, u % 2 == 0): u} for u in range(n)}
        return AggregationProblem(ms, {g: g[0] for m in ms.values() for g in m}, XOR)
    if case == "float-value-field":
        ms = {u: {(u % 4, 1): (rng.randrange(99), 1.0)} for u in range(n)}
        return AggregationProblem(ms, {(i, 1): i for i in range(4)}, xor_count)
    if case == "range-product":
        # Field ranges (2**31 + 1) each: their product passes 2**62.
        ms = {u: {(u % 2 * 2**31, u % 2 * 2**31): u} for u in range(n)}
        return AggregationProblem(ms, {g: 1 for m in ms.values() for g in m}, XOR)
    if case == "value-arity":
        fn = Aggregate(
            "XOR_SUM_SUM", tuple_of(XOR, SUM, SUM).combine, (np.bitwise_xor, np.add)
        )
        ms = {u: {(u % 3, 0): (u, 1, 2)} for u in range(n)}
        return AggregationProblem(ms, {(i, 0): i for i in range(3)}, fn)
    if case == "count-overflow":
        ms = {u: {(0, 0): (u, 2**61)} for u in range(n)}
        return AggregationProblem(ms, {(0, 0): 5}, xor_count)
    raise AssertionError(case)


FALLBACK_CASES = (
    "mixed-arity",
    "str-field",
    "bool-field",
    "float-value-field",
    "range-product",
    "value-arity",
    "count-overflow",
)


class TestTupleGroupsAndPairValues:
    @pytest.mark.parametrize("case", list(TUPLE_PROBLEMS))
    def test_typed_object_engines_all_agree(self, case):
        n = 32
        problem = TUPLE_PROBLEMS[case](n, random.Random(6))
        runs = {
            (e, t): _run_agg(n, problem, e, t)
            for e in ENGINES
            for t in (True, False)
        }
        base = runs[("reference", False)]
        assert base["values"] == _oracle(problem)
        assert all(type(g) is tuple for g in base["values"])
        for key, run in runs.items():
            for fld in ("values", "by_target", "rounds", "stats"):
                assert run[fld] == base[fld], (key, fld)
            typed = key[1]
            assert run["path"] == {"typed": int(typed), "object": int(not typed)}, key
        typed = runs[("batched", True)]
        assert typed["constructed"] == 0
        assert typed["boxed"] == 0

    def test_router_decodes_groups_once_each(self, typed_on):
        """rank/target hashes see the decoded tuple group, once per group."""
        from repro.butterfly.routing import CombiningRouter, WireLayout

        n = 32
        rt = NCCRuntime(n, _config("batched"))
        layout = WireLayout(gmin=(-3, 10), gspan=(7, 4), varity=2)
        groups = [(a, b) for a in range(-3, 4) for b in range(10, 14)]
        seen = []

        def rank_of(g):
            seen.append(g)
            return hash(g) % 97

        router = CombiningRouter(
            rt.net,
            rt.bf,
            rank_of=rank_of,
            target_col_of=lambda g: (g[0] * 31 + g[1]) % rt.bf.columns,
            combine=xor_count.combine,
            ufunc=xor_count.ufunc,
            layout=layout,
        )
        rng = random.Random(2)
        packets = [(rng.randrange(n), rng.choice(groups), (rng.randrange(1000), 1))
                   for _ in range(400)]
        codes = [(a + 3) * 4 + (b - 10) for _, (a, b), _ in packets]
        router.inject_array([p[0] for p in packets], codes, [p[2] for p in packets])
        res = router.run()
        assert sorted(seen) == sorted(set(p[1] for p in packets))
        oracle = {}
        for _, g, v in packets:
            oracle[g] = xor_count.combine(oracle[g], v) if g in oracle else v
        assert res.results == oracle

    @pytest.mark.parametrize("case", FALLBACK_CASES)
    def test_unsupported_shapes_fall_back_identically(self, case):
        n = 16
        problem = _fallback_problem(case, n)
        typed = _run_agg(n, problem, "batched", True)
        obj = _run_agg(n, problem, "batched", False)
        assert typed["path"] == {"typed": 0, "object": 1}, case
        for fld in ("values", "by_target", "rounds", "stats"):
            assert typed[fld] == obj[fld], (case, fld)
        assert typed["values"] == _oracle(problem), case


class TestAggregationPathCounters:
    """Every Table 1 aggregation whose shape fits rides the typed flow:
    FindMin's echo and the identification step count only as typed."""

    @pytest.mark.parametrize(
        "algorithm,kinds",
        [
            ("mst", ("mst:findmin:echo",)),
            ("mis", ("orientation:ident1:agg",)),
            ("identification", ("identification:agg",)),
        ],
    )
    def test_typed_counter_only(self, monkeypatch, algorithm, kinds):
        from repro.api import RunSpec, Session
        from repro.registry import bench_config

        paths = []
        aggregation = NCCRuntime.aggregation

        def spy(self, problem, *, tag=None, kind="aggregation"):
            before = METRICS.snapshot()
            out = aggregation(self, problem, tag=tag, kind=kind)
            delta = METRICS.delta(before, METRICS.snapshot())
            paths.append(
                (
                    kind,
                    delta.get("primitives.aggregation.typed", 0),
                    delta.get("primitives.aggregation.object", 0),
                )
            )
            return out

        monkeypatch.setattr(NCCRuntime, "aggregation", spy)
        session = Session(base_config=bench_config(0))
        report = session.run(RunSpec(algorithm, 64, seed=0, engine="batched"))
        assert report.correct
        mine = [p for p in paths if p[0] in kinds]
        assert mine, paths
        assert all(p[1:] == (1, 0) for p in mine), mine


class TestTypedMulticast:
    def _setup(self, rt):
        memberships = {u: [u % 5, (u * 7) % 5] for u in range(rt.n)}
        return rt.multicast_setup(memberships), memberships

    def test_int_packets_typed_object_agree(self):
        n = 32
        runs = {}
        for engine in ENGINES:
            for typed in (True, False):
                prev = set_typed_payloads(typed)
                try:
                    rt = NCCRuntime(n, _config(engine))
                    trees, memberships = self._setup(rt)
                    out = rt.multicast(
                        trees,
                        {g: 1 << g for g in range(5)},
                        {g: g + 3 for g in range(5)},
                    )
                    runs[(engine, typed)] = (
                        out.received,
                        rt.net.round_index,
                        rt.net.stats.comparable(),
                    )
                finally:
                    set_typed_payloads(prev)
        base = runs[("reference", False)]
        for key, run in runs.items():
            assert run == base, key
        received, _, _ = base
        for u, gs in (
            (u, set(ms)) for u, ms in
            ((u, [u % 5, (u * 7) % 5]) for u in range(n))
        ):
            for g in gs:
                assert received[u][g] == 1 << g

    def test_typed_batched_multicast_constructs_nothing(self):
        n = 32
        prev = set_typed_payloads(True)
        try:
            rt = NCCRuntime(n, _config("batched"))
            trees, _ = self._setup(rt)
            m0 = message_construction_count()
            rt.multicast(
                trees, {g: g + 10 for g in range(5)}, {g: g for g in range(5)}
            )
            assert message_construction_count() == m0
        finally:
            set_typed_payloads(prev)

    def test_object_packets_still_work(self):
        n = 20
        prev = set_typed_payloads(True)
        try:
            rt = NCCRuntime(n, _config("batched"))
            trees, _ = self._setup(rt)
            out = rt.multicast(
                trees,
                {g: ("packet", g) for g in range(5)},
                {g: g for g in range(5)},
            )
            assert out.at(7)[7 % 5] == ("packet", 7 % 5)
        finally:
            set_typed_payloads(prev)
