"""Canonical bytes, pinned.

Every Table 1 runner's ``RunReport.to_json_line()`` is a deterministic
function of its spec (timing-free canonical JSON).  Performance work on the
routers, the engines and payload sizing must leave these bytes unchanged;
this test holds the SHA-256 of each line for a small grid, so any change to
rounds, messages, bits, per-phase stats or algorithm outputs shows up as a
failing digest instead of a by-hand diff.

A digest that changes on purpose (a deliberate protocol change) is re-pinned
together with a CHANGES.md entry that says why.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.api import RunSpec, Session

#: (algorithm, n, seed, engine) -> SHA-256 of the canonical JSON line.
PINNED = {
    ("mst", 32, 0, "reference"): "6392b63082defd7d458e5f1423990250ce077974cda3c9e6b3fbb4be97867ce2",
    ("mst", 32, 0, "batched"): "60acb8cddaed1cb6d66dbbf0295c5b8d5ae803eaccb4e5904a64ab28c069c4c0",
    ("mst", 32, 1, "reference"): "3db68d13e060376f931320935c9643682b1d8b725d800ce826ce947f039c9a06",
    ("mst", 32, 1, "batched"): "b69b81a17a5cd2535ce6485a4a999b30fc8d1ea75f1b002ae502db90e022ea47",
    ("components", 32, 0, "reference"): "c347d967ff155273ca8cb2dfa04f9830619f01cb47be8d5a07b7b35de26040f7",
    ("components", 32, 0, "batched"): "0e77762dd6588650cb2a5ac8218134242b43e87c44c5a5c510a3e1add60502e8",
    ("components", 32, 1, "reference"): "84ec71ae10d2ce8b52829b7365adbd8770cc1d91c43785621ddb86486696b08c",
    ("components", 32, 1, "batched"): "e22d469ff8f82903d7069bbebc82a773b4ca792806e09406a3efcc378fbd2274",
    ("bfs", 64, 0, "reference"): "5bf0861d9cff1a08e8f0349f85500b37e2aabea3ce56b0d3be469d40aaaa3abe",
    ("bfs", 64, 0, "batched"): "7568106a08696aa296309a99746afaf8aff744be81bbfec571b7768f1bb4919e",
    ("bfs", 64, 1, "reference"): "d1b33bdea2e2c48d0b57a9132eba6b9b4ac2ec3fabb160b4570015f065cdad4a",
    ("bfs", 64, 1, "batched"): "ff53fdb9bce06a9b0bb9fc50e3f64f51ce93a1a0646ab613b9ddd37da23197ed",
    ("mis", 64, 0, "reference"): "0afd196d55122bae1a8f8e95bf85906d0edc1e211454ed37e85edb675728dd95",
    ("mis", 64, 0, "batched"): "507eec7a40a8aa970eb75989766beadc38a0b9e3ded0ad86f26065a174786896",
    ("mis", 64, 1, "reference"): "47d40391cf75a7775d0d84014c3e9a3a1f7eba2bd19409da419849c456d2546b",
    ("mis", 64, 1, "batched"): "b586ed2a206df56439fdd5d67356c41179d7d39217b4a166aa7426498925b635",
    ("matching", 64, 0, "reference"): "496c04805d4b8d024eeedaa24773802cfe984c5794e5b2588b613ff1d224a5dd",
    ("matching", 64, 0, "batched"): "9b22382a10705c24966a36d5a561b0f3f9f1c0c80385e65f16af3ad7feaea5bb",
    ("matching", 64, 1, "reference"): "306c9ee0ecb305516151be1cdaf8cbd0ffaa0c3fb37280bde5b4bc31b6424d19",
    ("matching", 64, 1, "batched"): "aad11c5a009c5e062a3b22f8b24bea1253fa226c6592ac3fa211166a98ad8cb3",
    ("coloring", 64, 0, "reference"): "d79ffca27e50089d14c637a17756d46bcfeff095020a74352254366399e7f006",
    ("coloring", 64, 0, "batched"): "7448bd861fae677b3bebe40d972fa9b56607f5021d372d49d7a5afe23ef994a9",
    ("coloring", 64, 1, "reference"): "14ff7a12383451fa158c23cfdaba6d01bcc38669b2df3f2ac03eb744f27735b4",
    ("coloring", 64, 1, "batched"): "7de051deff0a4dd07813bbd753d0a832c2968e6f6e420498a86bf937102b56f6",
    ("identification", 64, 0, "reference"): "feeb5128938ae56b16ba35d4630c5f75c3b0b7219d5022edc755d1685af648f7",
    ("identification", 64, 0, "batched"): "3c8ed69c68fda0f2b3b431ecb036510d22f7f32ba39fceec4bc62e81d61f23de",
    ("identification", 64, 1, "reference"): "658d5dfb20eb25512865f72a3bd083c2f5a77094cd6fbf9158e9008f3de2d464",
    ("identification", 64, 1, "batched"): "18aaf4d296ce2b31c51d269a621f283b39a576c598f2a7ca7682cb79375aa3ff",
}


@pytest.fixture(scope="module")
def session() -> Session:
    return Session()


@pytest.mark.parametrize(
    "algorithm,n,seed,engine",
    list(PINNED),
    ids=[f"{a}-{n}-s{s}-{e}" for a, n, s, e in PINNED],
)
def test_canonical_line_digest(session, algorithm, n, seed, engine):
    report = session.run(RunSpec(algorithm, n, seed=seed, engine=engine))
    assert report.correct
    line = report.to_json_line()
    assert hashlib.sha256(line.encode()).hexdigest() == PINNED[
        (algorithm, n, seed, engine)
    ], line
