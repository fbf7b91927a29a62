"""Seeded randomized property tests for payload bit accounting.

Properties certified over randomized payload shapes:

* non-negativity — every sizeable payload costs >= 0 bits (and scalars > 0);
* container additivity — a tuple/list/frozenset costs exactly the sum of
  its parts (structure is protocol, not wire format);
* memoized == unmemoized — :func:`payload_bits_memoized` agrees with
  :func:`payload_bits` on every input, on repeat (cache-hit) calls, and
  across cache clears, including the ``IntEnum`` and ``size_bits()``
  fallback branches that the cache must *not* capture.
"""

from __future__ import annotations

import enum
import random

import pytest

from repro.ncc import message
from repro.ncc.message import (
    clear_payload_bits_memo,
    payload_bits,
    payload_bits_memoized,
)


class Color(enum.IntEnum):
    RED = 0
    GREEN = 5
    BLUE = 200


class Sketch:
    """Stand-in for parity sketches: sizes itself via ``size_bits()``."""

    def __init__(self, bits: int):
        self._bits = bits

    def size_bits(self) -> int:
        return self._bits

    def __eq__(self, other: object) -> bool:  # equality does NOT pin size
        return isinstance(other, Sketch)

    def __hash__(self) -> int:
        return 17


def random_scalar(rng: random.Random):
    kind = rng.randrange(8)
    if kind == 0:
        return rng.randint(-(1 << 40), 1 << 40)
    if kind == 1:
        return rng.choice([True, False])
    if kind == 2:
        return None
    if kind == 3:
        return rng.random() * 1000
    if kind == 4:
        return "".join(rng.choice("abcdef") for _ in range(rng.randrange(0, 7)))
    if kind == 5:
        return "".join(rng.choice("abcdef") for _ in range(9, 20))
    if kind == 6:
        return rng.choice(list(Color))
    return Sketch(rng.randrange(1, 64))


def random_payload(rng: random.Random, depth: int = 0):
    if depth < 3 and rng.random() < 0.4:
        parts = [random_payload(rng, depth + 1) for _ in range(rng.randrange(0, 5))]
        kind = rng.randrange(3)
        if kind == 0:
            return tuple(parts)
        if kind == 1:
            return list(parts)
        try:
            return frozenset(parts)
        except TypeError:  # unhashable part (list inside)
            return tuple(parts)
    return random_scalar(rng)


@pytest.mark.parametrize("seed", range(8))
class TestRandomizedProperties:
    def test_non_negative(self, seed):
        rng = random.Random(seed)
        for _ in range(300):
            assert payload_bits(random_payload(rng)) >= 0

    def test_container_additivity(self, seed):
        rng = random.Random(seed)
        for _ in range(300):
            parts = [random_payload(rng) for _ in range(rng.randrange(0, 6))]
            total = sum(payload_bits(p) for p in parts)
            assert payload_bits(tuple(parts)) == total
            assert payload_bits(list(parts)) == total
            try:
                fs = frozenset(parts)
            except TypeError:
                continue
            # frozensets deduplicate, so compare against their own parts
            assert payload_bits(fs) == sum(payload_bits(p) for p in fs)

    def test_memoized_equals_unmemoized(self, seed):
        rng = random.Random(seed)
        clear_payload_bits_memo()
        payloads = [random_payload(rng) for _ in range(400)]
        for p in payloads:
            assert payload_bits_memoized(p) == payload_bits(p)
        # Second pass hits the cache for the tuple-shaped payloads.
        for p in payloads:
            assert payload_bits_memoized(p) == payload_bits(p)
        clear_payload_bits_memo()
        for p in payloads:
            assert payload_bits_memoized(p) == payload_bits(p)


class TestScalarRules:
    def test_scalar_positive(self):
        for p in (0, 1, -1, True, False, None, 0.0, "", "tag", 1 << 60):
            assert payload_bits(p) >= 1

    def test_int_rules(self):
        assert payload_bits(0) == 1
        assert payload_bits(1) == 1
        assert payload_bits(-1) == 2  # sign bit
        assert payload_bits(255) == 8

    def test_string_rules(self):
        assert payload_bits("tag") == 4  # constant-size protocol alphabet
        assert payload_bits("x" * 9) == 72  # long strings pay per char


class TestFallbackBranches:
    def test_intenum_uses_bit_length(self):
        assert payload_bits(Color.RED) == 1
        assert payload_bits(Color.GREEN) == 3
        assert payload_bits(Color.BLUE) == 8
        for c in Color:
            assert payload_bits_memoized(c) == payload_bits(c)

    def test_size_bits_protocol(self):
        assert payload_bits(Sketch(48)) == 48
        assert payload_bits_memoized(Sketch(48)) == 48

    def test_unsizeable_rejected(self):
        with pytest.raises(TypeError):
            payload_bits(object())
        with pytest.raises(TypeError):
            payload_bits_memoized(object())


class TestNumpyScalars:
    """Regression: numpy scalars used to raise ``TypeError`` in both sizers.

    They must size exactly like their Python counterparts (a payload read
    back off a typed column and re-submitted is a numpy scalar), while
    staying out of the value-keyed memo (``np.int64(1) == 1 == 1.0``).
    """

    np = pytest.importorskip("numpy")

    INT_DTYPES = ("int8", "int16", "int32", "int64",
                  "uint8", "uint16", "uint32", "uint64")

    def test_integer_scalars_size_like_python_ints(self):
        np = self.np
        rng = random.Random(11)
        for name in self.INT_DTYPES:
            dt = np.dtype(name)
            info = np.iinfo(dt)
            samples = {0, 1, info.min, info.max}
            samples.update(
                rng.randint(info.min, info.max) for _ in range(50)
            )
            for v in samples:
                s = dt.type(v)
                assert payload_bits(s) == payload_bits(int(s)), (name, v)
                assert payload_bits_memoized(s) == payload_bits(int(s))

    def test_bool_float_str_scalars(self):
        np = self.np
        assert payload_bits(np.bool_(True)) == payload_bits(True) == 1
        assert payload_bits(np.bool_(False)) == 1
        assert payload_bits(np.float64(2.5)) == payload_bits(2.5) == 32
        assert payload_bits(np.float32(0.0)) == 32
        assert payload_bits(np.str_("tag")) == payload_bits("tag") == 4
        assert payload_bits(np.str_("x" * 9)) == payload_bits("x" * 9) == 72

    def test_structured_scalar_sizes_like_tuple(self):
        np = self.np
        dt = np.dtype([("tag", "U1"), ("g", "i8"), ("val", "i8")])
        arr = np.array([("I", 7, -300)], dtype=dt)
        assert payload_bits(arr[0]) == payload_bits(("I", 7, -300))
        assert payload_bits_memoized(arr[0]) == payload_bits(("I", 7, -300))

    def test_scalars_inside_containers(self):
        np = self.np
        p = (np.int64(255), [np.bool_(True), np.float64(1.0)])
        assert payload_bits(p) == payload_bits((255, [True, 1.0]))

    def test_numpy_scalars_stay_out_of_the_memo(self):
        """np.int64(1) == 1 == 1.0 == True: caching one would serve its size
        for the others."""
        np = self.np
        clear_payload_bits_memo()
        assert payload_bits_memoized(np.float64(1.0)) == 32
        assert payload_bits_memoized(np.int64(1)) == 1
        assert payload_bits_memoized(1) == 1
        assert payload_bits_memoized(1.0) == 32
        assert all(
            not isinstance(k, self.np.generic) for k in message._BITS_MEMO
        )

    def test_typed_column_roundtrip_accounts_identically(self):
        """Boxing a typed column and re-sizing each element reproduces the
        vectorized bits exactly, for scalar and structured dtypes."""
        np = self.np
        from repro.ncc.message import typed_payload_bits

        rng = random.Random(3)
        ints = np.asarray(
            [rng.randint(-(2**63), 2**63 - 1) for _ in range(100)]
            + [0, 1, -1, -(2**63), 2**63 - 1],
            dtype=np.int64,
        )
        assert typed_payload_bits(ints).tolist() == [
            payload_bits(v) for v in ints.tolist()
        ]
        # Re-submitting the unboxed numpy scalars sizes the same way too.
        assert [payload_bits(v) for v in ints] == [
            payload_bits(v) for v in ints.tolist()
        ]
        dt = np.dtype([("tag", "U12"), ("g", "i8"), ("ok", "?"), ("w", "f4")])
        rows = [
            ("", 0, False, 0.0),
            ("shortstr", -1, True, -2.5),
            ("longer-tag!!", 2**62, False, 7.0),
        ]
        arr = np.array(rows, dtype=dt)
        assert typed_payload_bits(arr).tolist() == [
            payload_bits(r) for r in arr.tolist()
        ]
        assert [payload_bits(s) for s in arr] == typed_payload_bits(arr).tolist()


class TestVectorizedIntSizing:
    """The frexp-based column sizer against the scalar rule, at the edges
    where a float64 conversion rounds (above ``2**53``) and at the int64
    extremes."""

    np = pytest.importorskip("numpy")

    EDGES = (
        0, 1, -1, 2**53 - 1, 2**53, 2**53 + 1, -(2**53) - 1, 2**54 - 1,
        -(2**54 - 1), 2**62, 2**63 - 1, -(2**63),
    )

    def test_int_col_bits_matches_payload_bits(self):
        np = self.np
        rng = random.Random(17)
        values = list(self.EDGES)
        values += [rng.randint(-(2**63), 2**63 - 1) for _ in range(2000)]
        # Every magnitude class: the random draws above are almost all 63-64
        # bits long.
        values += [rng.randint(-(2**63), 2**63 - 1) >> rng.randrange(64) for _ in range(2000)]
        values += [(1 << k) + d for k in range(63) for d in (-1, 0, 1)]
        arr = np.asarray(values, dtype=np.int64)
        assert message._int_col_bits(arr).tolist() == [payload_bits(v) for v in values]
        # Any shape: a (fields, rows) matrix sizes element by element.
        mat = arr[:4000].reshape(2, 2000)
        assert message._int_col_bits(mat).tolist() == [
            [payload_bits(v) for v in row] for row in mat.tolist()
        ]

    @pytest.mark.parametrize("fields", [1, 2, 3])
    def test_structured_int_fields_size_per_row(self, fields):
        np = self.np
        from repro.ncc.message import typed_payload_bits

        rng = random.Random(fields)
        dt = np.dtype([("tag", "U1")] + [(f"f{i}", "i8") for i in range(fields)])
        rows = [
            ("D",) + tuple(
                rng.choice(self.EDGES)
                if rng.random() < 0.3
                else rng.randint(-(2**63), 2**63 - 1) >> rng.randrange(64)
                for _ in range(fields)
            )
            for _ in range(300)
        ]
        arr = np.array(rows, dtype=dt)
        assert typed_payload_bits(arr).tolist() == [payload_bits(r.item()) for r in arr]
        assert typed_payload_bits(arr[:0]).tolist() == []


class TestMemoSafety:
    def test_equal_value_different_type_not_conflated(self):
        """1 == 1.0 == True, but an int is 1 bit and a float is 32: the
        cache must never serve one type's size for another's."""
        clear_payload_bits_memo()
        assert payload_bits_memoized((1,)) == 1
        assert payload_bits_memoized((1.0,)) == 32  # would be 1 if conflated
        assert payload_bits_memoized((True,)) == 1

    def test_size_bits_objects_not_cached(self):
        """Two equal Sketches with different sizes must size independently
        even inside tuples (equality does not pin size for such objects)."""
        clear_payload_bits_memo()
        assert payload_bits_memoized((Sketch(8),)) == 8
        assert payload_bits_memoized((Sketch(32),)) == 32

    def test_unhashable_tuple_falls_through(self):
        clear_payload_bits_memo()
        p = (1, [2, 3])
        assert payload_bits_memoized(p) == payload_bits(p)

    def test_cache_bounded(self):
        clear_payload_bits_memo()
        for i in range(message._BITS_MEMO_LIMIT + 50):
            payload_bits_memoized((i, i + 1))
        assert len(message._BITS_MEMO) <= message._BITS_MEMO_LIMIT
        clear_payload_bits_memo()
