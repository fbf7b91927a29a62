"""The benchmark's own tests.

Run from the repository root (not collected by the default test run)::

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import copy
import json
import random
import signal
import sys
from array import array
from time import perf_counter

import pytest

import hostclock
import run
import tracing

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402  (needs the program source on sys.path)

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------
#: (start, end, parent) of a synthetic tree:
#:   0 root   [0, 10]
#:   1 a      [1, 4]   child of root
#:   2 b      [3, 6]   child of root, overlaps a by 1
#:   3 c      [9, 12]  child of root, runs 2 past the root's end
#:   4 a1     [2, 3]   child of a
#:   5 other  [20, 25] a second root
SYNTHETIC = [(0, 10, -1), (1, 4, 0), (3, 6, 0), (9, 12, 0), (2, 3, 1), (20, 25, -1)]
#: root: 10 minus the union of [1,6] and [9,10]; a: 3 minus a1's 1.
SYNTHETIC_SELF = [4.0, 2.0, 3.0, 3.0, 1.0, 5.0]


def _columns(spans):
    return (
        array("d", [s for s, _, _ in spans]),
        array("d", [e for _, e, _ in spans]),
        array("q", [p for _, _, p in spans]),
    )


def test_self_times_on_synthetic_tree():
    assert tracing.self_times(*_columns(SYNTHETIC)) == pytest.approx(SYNTHETIC_SELF)


def test_self_times_ignore_record_order():
    order = list(range(len(SYNTHETIC)))
    random.Random(7).shuffle(order)
    where = {old: new for new, old in enumerate(order)}
    shuffled = [
        (SYNTHETIC[i][0], SYNTHETIC[i][1], where.get(SYNTHETIC[i][2], -1)) for i in order
    ]
    got = tracing.self_times(*_columns(shuffled))
    assert [got[where[i]] for i in range(len(SYNTHETIC))] == pytest.approx(SYNTHETIC_SELF)


def test_layer_selves_of_a_nested_tree_add_up_to_its_root():
    log = tracing.SpanLog()
    for name, s, e, p in (
        ("api.session", 0, 10, -1),
        ("algorithms", 1, 9, 0),
        ("primitives", 2, 5, 1),
        ("ncc.exchange", 3, 4, 2),
        ("hashing", 6, 7, 1),
    ):
        log.name.append(tracing._ID[name])
        log.start.append(s)
        log.end.append(e)
        log.parent.append(p)
    t = tracing.layer_totals(log)
    assert {k: row["self"] for k, row in t.items() if row["busy"]} == pytest.approx(
        {"api.session": 2.0, "algorithms": 4.0, "primitives": 2.0,
         "ncc.exchange": 1.0, "hashing": 1.0}
    )
    assert sum(row["self"] for row in t.values()) == pytest.approx(10.0)


# ----------------------------------------------------------------------
# Reference seconds
# ----------------------------------------------------------------------
def _spin(seconds: float) -> None:
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        pass


def test_span_scales_host_seconds_by_the_probes_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with hostclock.HostClock() as clock:
        span = clock.span()
        with span:
            _spin(0.2)
    assert signal.getsignal(signal.SIGALRM) is before
    # one probe on each side of the call, the timer's in between
    assert len(clock.probes) >= 2 + 0.2 / hostclock.TICK_S - 2
    speed = hostclock._speed_probes([d for _, d in clock.probes])
    mean = sum(speed) / len(speed)
    assert span.ref_s == pytest.approx(span.host_s * hostclock.PROBE_REF_S / mean)
    inside = sum(d for _, d in clock.probes[1:-1])
    assert 0.2 - inside <= span.host_s < 0.2 - inside + 0.05


def test_a_probe_cut_into_is_no_speed_sample():
    assert hostclock._speed_probes([1.0, 1.2, 0.9, 1.1, 9.0]) == [1.0, 1.2, 0.9, 1.1]


def test_span_is_timed_when_the_call_raises():
    with hostclock.HostClock() as clock:
        span = clock.span()
        with pytest.raises(ValueError), span:
            _spin(0.05)
            raise ValueError
    assert span.host_s >= 0.04 and span.ref_s > 0
    wall = hostclock.WallClock().span()
    with wall:
        _spin(0.05)
    assert wall.ref_s == wall.host_s >= 0.05


# ----------------------------------------------------------------------
# Tiny-n smoke runs
# ----------------------------------------------------------------------
def _tiny(workload):
    w = copy.copy(workload)
    if isinstance(w, workloads.AggregationWorkload):
        w.n = 64
    else:
        w.n, w.passes = 32, 1
    return w


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric_with_its_unit(name, trace, capsys):
    from repro.api import Session

    session_run = vars(Session)["run"]
    assert run.run(_tiny(workloads.WORKLOADS[name]), 3, 0.0, bool(trace)) == 0
    assert vars(Session)["run"] is session_run, "tracing left a wrapper installed"

    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if trace:
        assert any(line.startswith("tracing-invisible: OK") for line in lines)


def test_missing_program_source_exits_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "mst-128", "--seed", "0", "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""
