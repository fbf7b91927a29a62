"""The benchmark's workloads: seeded inputs, timed passes and output checks.

A *pass* is the unit a workload times; a *cycle* is the fixed list of
passes that one seed defines.  A run repeats whole cycles while its time
budget lasts, so the simulated counts (rounds, messages, bits) of a run
are a function of the seed alone, never of how fast the host is.

Only generated inputs cross into the program: the workloads call the
public API (``Session.run``, ``NCCRuntime.aggregation``) and check what
comes back.  The aggregation check recomputes every group sum here,
without ``repro`` code.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import traceback
from dataclasses import dataclass
from typing import Any

from repro.api import RunSpec, Session, get_algorithm
from repro.butterfly.topology import ButterflyGrid
from repro.primitives import SUM, AggregationProblem
from repro.registry import bench_config
from repro.runtime import NCCRuntime
from repro.telemetry import METRICS, MetricRegistry

ENGINE = "batched"


@dataclass
class PassResult:
    """What one timed pass did."""

    #: reference seconds of the timed program calls (``hostclock``).
    seconds: float
    #: host seconds of the same calls.
    host_seconds: float
    #: program calls made (each one an operation that can fail).
    ops: int
    #: failed operations: call index -> what went wrong.
    failures: dict[int, str]
    rounds: int
    messages: int
    bits: int
    #: per call, SHA-256 over its canonical output (which includes its
    #: rounds, messages and bits).
    digests: list[str]

    @property
    def digest(self) -> str:
        return _sha256("\n".join(self.digests))


def sub_seeds(workload: str, seed: int, count: int) -> list[int]:
    """Deterministic per-instance seeds drawn from the run seed."""
    rng = random.Random(f"perfbench|{workload}|{seed}")
    return [rng.randrange(1 << 30) for _ in range(count)]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _failure(what: str, exc: BaseException) -> str:
    traceback.print_exception(exc, file=sys.stderr)
    return f"{what}: {type(exc).__name__}: {exc}"


class SessionWorkload:
    """Table 1 rows through ``Session.run``.

    Each pass runs every algorithm once, each on its own seeded instance,
    so one pass averages over independent inputs; a cycle is
    ``passes`` such passes.
    """

    def __init__(self, name: str, n: int, algorithms: tuple[str, ...], passes: int):
        self.name = name
        self.n = n
        self.algorithms = algorithms
        self.passes = passes

    def inputs(self, seed: int) -> list[list[RunSpec]]:
        seeds = iter(sub_seeds(self.name, seed, self.passes * len(self.algorithms)))
        return [
            [RunSpec(alg, self.n, seed=next(seeds), engine=ENGINE) for alg in self.algorithms]
            for _ in range(self.passes)
        ]

    def build(self, specs: list[list[RunSpec]]) -> dict[str, Any]:
        """Set-up: every instance's workload graph, the butterfly grid and
        a runtime.  Each pass runs on a fresh ``Session``, whose
        ``Session.run`` builds its own graph and grid inside the timed
        call; building them here too times that construction on its own,
        so work moved into it shows in ``setup_s``."""
        for spec in (s for row in specs for s in row):
            get_algorithm(spec.algorithm).workload(spec.n, spec.a, spec.seed)
        bf = ButterflyGrid(self.n)
        NCCRuntime(self.n, bench_config(0, engine=ENGINE), bf=bf)
        return {"specs": specs}

    def run_pass(self, ctx: dict[str, Any], k: int, clock) -> PassResult:
        session = Session()
        seconds = host_seconds = 0.0
        failures: dict[int, str] = {}
        digests: list[str] = []
        rounds = messages = bits = 0
        specs = ctx["specs"][k]
        for i, spec in enumerate(specs):
            what = f"{spec.algorithm} n={spec.n} seed={spec.seed}"
            span = clock.span()
            try:
                with span:
                    report = session.run(spec)
            except Exception as exc:  # an operation that raised is counted, not fatal
                failures[i] = _failure(what, exc)
                digests.append("")
                continue
            finally:
                seconds += span.ref_s
                host_seconds += span.host_s
            if not report.correct:
                failures[i] = f"{what}: oracle check failed"
            rounds += report.rounds
            messages += report.messages
            bits += report.bits
            digests.append(_sha256(report.to_json_line()))
        return PassResult(
            seconds, host_seconds, len(specs), failures, rounds, messages, bits, digests
        )


class AggregationWorkload:
    """The paper's Aggregation Algorithm on the P-TYPED problem shape:
    eight memberships per node, n/2 groups, targets striped over the
    nodes, SUM.  The cycle is one problem; every pass runs it on a fresh
    runtime over the grid built in set-up."""

    passes = 1
    memberships_per_node = 8
    max_value = 1000

    def __init__(self, name: str, n: int):
        self.name = name
        self.n = n

    def inputs(self, seed: int) -> dict[str, Any]:
        (config_seed,) = sub_seeds(self.name, seed, 1)
        return {"seed": seed, "config_seed": config_seed}

    def build(self, inputs: dict[str, Any]) -> dict[str, Any]:
        """Set-up: problem generation, the butterfly grid and a runtime."""
        n = self.n
        rng = random.Random(f"perfbench|{self.name}|problem|{inputs['seed']}")
        groups = max(1, n // 2)
        per_node = min(self.memberships_per_node, groups)
        problem = AggregationProblem(
            memberships={
                u: {g: rng.randrange(1, self.max_value) for g in rng.sample(range(groups), per_node)}
                for u in range(n)
            },
            targets={g: g % n for g in range(groups)},
            fn=SUM,
        )
        config = bench_config(inputs["config_seed"], engine=ENGINE)
        bf = ButterflyGrid(n)
        NCCRuntime(n, config, bf=bf)
        return {"problem": problem, "config": config, "bf": bf}

    @staticmethod
    def expected_sums(problem: AggregationProblem) -> dict[int, int]:
        """Every group's sum, recomputed from the generated memberships."""
        sums: dict[int, int] = {}
        for groups in problem.memberships.values():
            for g, value in groups.items():
                sums[g] = sums.get(g, 0) + value
        return sums

    def run_pass(self, ctx: dict[str, Any], k: int, clock) -> PassResult:
        problem: AggregationProblem = ctx["problem"]
        if "expected" not in ctx:
            ctx["expected"] = self.expected_sums(problem)
        rt = NCCRuntime(self.n, ctx["config"], bf=ctx["bf"])
        before = METRICS.snapshot()
        span = clock.span()
        try:
            with span:
                out = rt.aggregation(problem)
        except Exception as exc:  # an operation that raised is counted, not fatal
            failure = {0: _failure("aggregation", exc)}
            return PassResult(span.ref_s, span.host_s, 1, failure, 0, 0, 0, [""])
        counters = MetricRegistry.delta(before, METRICS.snapshot())
        problems = self._check(ctx["expected"], problem.targets, out, rt, counters)
        failures = {0: "aggregation: " + "; ".join(problems)} if problems else {}
        values = sorted((int(g), int(v)) for g, v in out.values.items())
        stats = rt.net.stats
        digest = _sha256(json.dumps(
            {"values": values, "rounds": rt.net.round_index, "stats": stats.to_dict()},
            sort_keys=True, default=str,
        ))
        return PassResult(
            span.ref_s, span.host_s, 1, failures,
            rt.net.round_index, stats.messages, stats.bits, [digest],
        )

    @staticmethod
    def _check(expected, targets, out, rt, counters) -> list[str]:
        failures = []
        got = {int(g): int(v) for g, v in out.values.items()}
        wrong = [g for g in expected if got.get(g) != expected[g]]
        if wrong or len(got) != len(expected):
            failures.append(
                f"{len(wrong)} of {len(expected)} group sums wrong, "
                f"{len(got)} groups delivered"
            )
        misplaced = [
            g for g in expected
            if int(out.by_target.get(targets[g], {}).get(g, -1)) != expected[g]
        ]
        if misplaced:
            failures.append(f"{len(misplaced)} groups missing at their target")
        for name in ("ncc.messages_constructed", "ncc.payload_boxes"):
            if counters.get(name, 0):
                failures.append(f"{name} = {counters[name]}, expected 0")
        if rt.net.stats.violation_count:
            failures.append(f"{rt.net.stats.violation_count} capacity violations")
        return failures


WORKLOADS = {
    w.name: w
    for w in (
        SessionWorkload("mst-128", 128, ("mst",), passes=4),
        SessionWorkload("table1-512", 512, ("bfs", "mis", "matching", "coloring"), passes=4),
        AggregationWorkload("aggregation-16384", 16384),
    )
}
