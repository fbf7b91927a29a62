"""SharedRandomness: determinism, agreement caching and charging."""

import pytest

from repro import NCCConfig, NCCRuntime
from repro.rng import SharedRandomness


class TestDeterminism:
    def test_same_tag_same_function(self):
        s = SharedRandomness(NCCConfig(seed=1), 64)
        assert s.hash_function("t", 100) is s.hash_function("t", 100)

    def test_two_brokers_same_seed_agree(self):
        a = SharedRandomness(NCCConfig(seed=9), 64)
        b = SharedRandomness(NCCConfig(seed=9), 64)
        fa, fb = a.hash_function("x", 50), b.hash_function("x", 50)
        assert all(fa(i) == fb(i) for i in range(100))

    def test_different_seeds_disagree(self):
        a = SharedRandomness(NCCConfig(seed=1), 64)
        b = SharedRandomness(NCCConfig(seed=2), 64)
        fa, fb = a.hash_function("x", 1 << 20), b.hash_function("x", 1 << 20)
        assert any(fa(i) != fb(i) for i in range(50))

    def test_node_rng_streams_independent(self):
        s = SharedRandomness(NCCConfig(seed=1), 64)
        r1 = s.node_rng(0, "step").random()
        r2 = s.node_rng(1, "step").random()
        r1again = s.node_rng(0, "step").random()
        assert r1 == r1again
        assert r1 != r2

    def test_fresh_tags_unique(self):
        s = SharedRandomness(NCCConfig(seed=1), 64)
        tags = {s.fresh_tag("x") for _ in range(100)}
        assert len(tags) == 100

    def test_window_slot_one_round_draws_nothing(self):
        """randrange(1) is always 0: a one-round window builds no stream,
        a wider one draws from the node's private stream for the tag."""
        s = SharedRandomness(NCCConfig(seed=3), 16)
        built = []
        node_rng = s.node_rng

        def spy(node, tag):
            built.append(node)
            return node_rng(node, tag)

        s.node_rng = spy
        assert s.window_slot(4, ("t", "deliver", 9), 1) == 0
        assert built == []
        slots = [s.window_slot(4, ("t", "deliver", g), 5) for g in range(40)]
        assert slots == [node_rng(4, ("t", "deliver", g)).randrange(5) for g in range(40)]
        assert len(set(slots)) > 1
        assert built == [4] * 40


class TestSaltedKeys:
    def test_distinct_pairs_distinct_keys(self):
        seen = set()
        for nonce in range(20):
            for key in range(50):
                seen.add(SharedRandomness.salted_key(nonce, key))
        assert len(seen) == 20 * 50

    def test_large_keys_fold(self):
        big = 1 << 100
        k1 = SharedRandomness.salted_key(1, big)
        k2 = SharedRandomness.salted_key(1, big + 1)
        assert k1 != k2

    def test_negative_keys_keep_the_nonce(self):
        """A negative key has every high bit set; the nonce must survive
        the high-bit fold instead of being OR-ed away."""
        for key in (-1, -5, -(2**63)):
            assert SharedRandomness.salted_key(1, key) != SharedRandomness.salted_key(
                2, key
            ), key

    def test_golden_values_for_non_negative_keys(self):
        golden = {
            (1, 0): 18446744073709551616,
            (1, 5): 18446744073709551621,
            (3, 2**40 + 7): 55340233320640282631,
            (7, 2**64 + 3): 129127208515966861314,
            (2, 2**100): 36893488216138579968,
        }
        for (nonce, key), want in golden.items():
            assert SharedRandomness.salted_key(nonce, key) == want, (nonce, key)

    def test_nonce_counter_advances(self):
        s = SharedRandomness(NCCConfig(), 16)
        assert s.next_nonce() != s.next_nonce()


class TestAgreementCharging:
    def test_charge_called_once_per_tag(self):
        charges = []
        s = SharedRandomness(NCCConfig(seed=1), 64, charge=charges.append)
        s.hash_function("a", 100)
        s.hash_function("a", 100)
        s.hash_family("b", 4, 10)
        s.hash_family("b", 4, 10)
        assert len(charges) == 2
        assert s.agreement_bits == sum(charges)

    def test_charge_disabled_by_config(self):
        charges = []
        cfg = NCCConfig(seed=1, charge_hash_agreement=False)
        s = SharedRandomness(cfg, 64, charge=charges.append)
        s.hash_function("a", 100)
        assert charges == []
        assert s.agreement_bits > 0  # still accounted, just not charged

    def test_runtime_charges_real_broadcast_rounds(self):
        rt = NCCRuntime(32, NCCConfig(seed=1))
        before = rt.net.round_index
        rt.shared.hash_function("new-fn", 1000)
        assert rt.net.round_index > before
        assert rt.net.stats.phase("hash-agreement").rounds > 0

    def test_global_rank_function_agreed_once(self):
        rt = NCCRuntime(32, NCCConfig(seed=1))
        rt.shared.rank_function()
        rounds_after_first = rt.net.round_index
        rt.shared.rank_function()
        rt.shared.rank_function()
        assert rt.net.round_index == rounds_after_first
