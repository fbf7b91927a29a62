"""Shared and private randomness for the simulated nodes.

The paper's primitives rely on two kinds of randomness:

* **Shared (pseudo-)random hash functions** — all nodes must evaluate the
  same function.  Section 2.2: Θ(log n)-wise independence suffices, and
  agreeing on one function means broadcasting Θ(log² n) random bits from
  node 0.  :class:`SharedRandomness` derives every shared function from the
  master seed and *charges* the agreement (via a callback installed by the
  runtime, which performs a real pipelined butterfly broadcast) the first
  time a function with a given tag is requested.

* **Private randomness** — free local coin flips (random injection columns,
  Heads/Tails, MIS ranks).  ``node_rng(u, tag)`` returns a deterministic
  per-node stream so that simulations are reproducible from the master seed
  while distinct nodes and protocol steps stay independent.

All streams are built through the sanctioned constructors in
:mod:`repro.seeding` (re-exported here as :func:`seeded_rng` /
:func:`derived_rng`), the only module allowed to call ``random.Random``
directly — ``reprolint`` rule NCC001 checks this statically.
"""

from __future__ import annotations

import math
import random
from typing import Callable

from .config import NCCConfig
from .hashing.kwise import KWiseHash
from .seeding import derived_rng, seeded_rng

__all__ = ["RANK_RANGE", "SharedRandomness", "derived_rng", "seeded_rng"]

#: Range for packet ranks ρ(i).  Theorem B.2 needs K ≥ 8C; congestion C is
#: O(L/n + log n) = o(2^30) for every instance this library can simulate.
RANK_RANGE = 1 << 30


class SharedRandomness:
    """Deterministic randomness broker for one simulation run."""

    def __init__(
        self,
        config: NCCConfig,
        n: int,
        charge: Callable[[int], None] | None = None,
    ):
        self.config = config
        self.n = int(n)
        self._charge = charge
        self._cache: dict[object, KWiseHash | tuple[KWiseHash, ...]] = {}
        self._counter = 0
        self.agreement_bits = 0  # total shared random bits agreed upon

    # ------------------------------------------------------------------
    # Shared hash functions
    # ------------------------------------------------------------------
    def _model_k(self) -> int:
        return max(2, math.ceil(math.log2(max(2, self.n))) + 1)

    def _seed_for(self, tag: object) -> int:
        # Stable 64-bit seed derived from (master seed, tag).
        return seeded_rng(f"{self.config.seed}|{tag!r}").getrandbits(63)

    def _account(self, bits: int) -> None:
        self.agreement_bits += bits
        if self._charge is not None and self.config.charge_hash_agreement:
            self._charge(bits)

    def hash_function(self, tag: object, range_size: int, *, k: int | None = None) -> KWiseHash:
        """The shared hash function identified by ``tag`` (cached).

        The first request for a tag charges the broadcast that lets all
        nodes agree on its ``k·61`` random bits.
        """
        key = ("fn", tag, range_size, k)
        cached = self._cache.get(key)
        if cached is not None:
            return cached  # type: ignore[return-value]
        kk = k if k is not None else self._model_k()
        fn = KWiseHash(kk, range_size, self._seed_for(tag))
        self._cache[key] = fn
        self._account(fn.random_bits())
        return fn

    def hash_family(
        self, tag: object, count: int, range_size: int, *, k: int | None = None
    ) -> tuple[KWiseHash, ...]:
        """``count`` independent shared functions under one agreement."""
        key = ("fam", tag, count, range_size, k)
        cached = self._cache.get(key)
        if cached is not None:
            return cached  # type: ignore[return-value]
        kk = k if k is not None else self._model_k()
        base = self._seed_for(tag)
        fam = tuple(KWiseHash(kk, range_size, (base << 20) ^ i) for i in range(count))
        self._cache[key] = fam
        self._account(sum(f.random_bits() for f in fam))
        return fam

    def rank_function(self, tag: object = "global") -> KWiseHash:
        """Shared rank function ρ for the random-rank routing protocol.

        One function is agreed on per tag; per-invocation freshness comes
        from salting the *keys* (see :meth:`salted_key`), mirroring the
        paper's "retrieved beforehand" setup where the Θ(log² n) shared
        random bits are broadcast once, not per primitive call.
        """
        return self.hash_function(("rank", tag), RANK_RANGE)

    def target_function(self, columns: int, tag: object = "global") -> KWiseHash:
        """Shared intermediate-target function h mapping groups to level-d
        butterfly columns (same once-per-tag agreement as ranks)."""
        return self.hash_function(("target", tag, columns), columns)

    def next_nonce(self) -> int:
        """A fresh per-invocation nonce known to all nodes (a deterministic
        counter requires no communication)."""
        self._counter += 1
        return self._counter

    @staticmethod
    def salted_key(nonce: int, key: int) -> int:
        """Combine an invocation nonce with a group key into a hash input.

        Distinct (nonce, key) pairs map to distinct inputs for keys in
        ``[-2^64, 2^64)``, which covers every group identifier this library
        produces.  The nonce field is set before the high-bit fold, so a
        negative key (all high bits set) cannot erase it.
        """
        return ((nonce << 64) | (key & ((1 << 64) - 1))) ^ (key >> 64)

    # ------------------------------------------------------------------
    # Private per-node randomness (free)
    # ------------------------------------------------------------------
    def node_rng(self, node: int, tag: object) -> random.Random:
        """A private, reproducible stream for one node and protocol step."""
        return seeded_rng(f"{self.config.seed}|node|{node}|{tag!r}")

    def window_slot(self, node: int, tag: object, window: int) -> int:
        """``node``'s uniform draw of one round from a ``window``-round
        delivery window, on its private stream ``tag``.  A one-round window
        draws nothing: ``randrange(1)`` is always 0, so no stream is built."""
        if window == 1:
            return 0
        return self.node_rng(node, tag).randrange(window)

    def fresh_tag(self, base: str) -> tuple[str, int]:
        """A unique tag (for per-invocation hash functions)."""
        self._counter += 1
        return (base, self._counter)
