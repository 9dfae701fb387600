"""Tests of the benchmark itself: the tail rule, self time, timeouts, and
that every workload's check turns a wrong library result into a failed op.

Run with ``python -m pytest perfbench/tests``.
"""

import gc
import importlib
import json
import time
from pathlib import Path

import pytest

import harness
from harness import FAILED, OK, TIMEOUT, run_op, run_round, tail_percentile
from spans import LayerTracer, Recorder, Span, self_times, totals, trie_counts
from workloads import Carrier, Compare, Lowerbound

import treecap
from treecap import builder, disc

capacity = importlib.import_module("treecap.capacity")


# -- tail percentile -------------------------------------------------------


def test_tail_keeps_ten_samples_beyond():
    samples = list(range(100, 0, -1))  # 1..100, unsorted
    value, percentile, n = tail_percentile(samples)
    assert (value, percentile, n) == (90, 90.0, 100)
    assert sum(s > value for s in samples) == 10


def test_tail_percentile_with_eleven_samples_is_the_minimum():
    value, percentile, n = tail_percentile([5.0] + [9.0] * 10)
    assert value == 5.0 and n == 11
    assert percentile == pytest.approx(100.0 / 11)


def test_tail_with_too_few_samples_falls_back_to_the_maximum():
    assert tail_percentile([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_tail_rejects_no_samples():
    with pytest.raises(ValueError):
        tail_percentile([])


# -- self time ---------------------------------------------------------------


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        Span("a", 0, 100, -1),
        Span("b", 10, 30, 0),
        Span("c", 20, 50, 0),  # overlaps b: the shared part counts once
        Span("d", 90, 120, 0),  # sticks out of its parent: clipped
        Span("e", 12, 18, 1),  # grandchild: only reduces b
    ]
    assert self_times(spans) == [100 - 40 - 10, 20 - 6, 30, 30, 6]


def test_recorder_nests_wrapped_calls_and_counts_errors():
    recorder = Recorder()

    def inner(x):
        time.sleep(0.01)
        if x < 0:
            raise ValueError("negative")
        return x

    inner_traced = recorder.wrap("inner", inner)
    outer = recorder.wrap("outer", lambda x: inner_traced(x) + inner_traced(x))
    assert outer(2) == 4
    with pytest.raises(ValueError):
        outer(-1)
    t = totals(recorder.spans)
    assert t["outer"][1] == 2 and t["inner"][1] == 3
    assert t["outer"][2] == 1 and t["inner"][2] == 1
    assert t["inner"][0] >= 0.03
    assert t["outer"][0] < t["inner"][0]
    assert [s.parent for s in recorder.spans] == [-1, 0, 0, -1, 3]


def test_layer_tracer_restores_every_entry_point():
    before = (
        capacity.condenser_capacity,
        treecap.condenser_capacity,
        treecap.tree.BoundarySet.__dict__["full_leaves"],
        treecap.disc.CondenserProblem.__dict__["from_set"],
    )
    recorder = Recorder()
    with LayerTracer(recorder).installed():
        assert capacity.condenser_capacity is not before[0]
        assert treecap.condenser_capacity is capacity.condenser_capacity
        e = treecap.prefix_set(0.375)
        capacity.condenser_capacity(e, 3)
        disc.CondenserProblem.from_set(e, 0.5)
    after = (
        capacity.condenser_capacity,
        treecap.condenser_capacity,
        treecap.tree.BoundarySet.__dict__["full_leaves"],
        treecap.disc.CondenserProblem.__dict__["from_set"],
    )
    assert after == before
    names = {s.name for s in recorder.spans}
    assert {"capacity.condenser", "disc.problem", "tree.full_leaves"} <= names


def test_trie_counts_separate_sharing_from_size():
    carrier = builder.equal_split(0.25, 4).carrier
    nodes, positions = trie_counts(carrier)
    assert nodes == carrier.node_count() - 2  # the two shared leaf objects
    assert positions > 8 * nodes  # 16 copies of one piece below 4 levels
    # [0, 3/8]: a path trie, 3 internal nodes each reached once
    assert trie_counts(treecap.prefix_set(0.375)) == (3, 3)


# -- timeouts ---------------------------------------------------------------


def test_timeout_is_recorded_as_a_timeout_not_a_latency():
    def spin():
        while True:
            pass

    outcome, value = run_op("spin", spin, 0.05)
    assert outcome.status == TIMEOUT and outcome.seconds is None
    assert value is None
    fast, value = run_op("fast", lambda: 7, 1.0)
    assert fast.status == OK and value == 7


def test_round_counts_timeouts_and_stops_at_the_deadline():
    ops = [("spin", lambda: time.sleep(5)), ("ok", lambda: 1)] * 3
    outcomes, wall = run_round(ops, time.perf_counter() + 0.5, 0.1)
    assert [o.status for o in outcomes[:2]] == [TIMEOUT, OK]
    assert wall < 1.0


# -- reference scaling -----------------------------------------------------


def test_reference_scales_each_op_by_the_samples_around_it(monkeypatch):
    samples = iter([0.010, 0.030, 0.005, 0.020])
    monkeypatch.setattr(harness, "reference_seconds", lambda: next(samples))
    monkeypatch.setattr(harness.Reference, "WINDOW", 1)
    reference = harness.Reference()
    ops = [("a", lambda: 1), ("b", lambda: 2), ("c", lambda: 3)]
    outcomes, _ = run_round(ops, time.perf_counter() + 10.0, 1.0, reference=reference)
    assert [o.mark for o in outcomes] == [1, 2, 3]
    nominal = harness.REFERENCE_NOMINAL_S
    scales = [reference.scale(o.mark) for o in outcomes]
    assert scales == pytest.approx([nominal / 0.020, nominal / 0.0175, nominal / 0.0125])
    assert all(o.slot >= o.seconds for o in outcomes)


def test_reference_runs_without_the_collector_and_restores_it():
    assert gc.isenabled()
    assert harness.reference_seconds() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        harness.reference_seconds()
        assert not gc.isenabled()
    finally:
        gc.enable()


# -- checks reject wrong results -----------------------------------------------


def _first_op(workload, label_part):
    for label, fn in workload.round(0):
        if label_part in label:
            return label, fn
    raise AssertionError(label_part)


def test_lowerbound_check_rejects_condenser_below_the_bound(monkeypatch):
    label, fn = _first_op(Lowerbound(3), "eps=0.3")
    assert run_op(label, fn, 60)[0].status == OK
    real = capacity.condenser_capacity
    monkeypatch.setattr(
        capacity, "condenser_capacity", lambda e, n, exact=False: real(e, n) - 1e-3
    )
    outcome, _ = run_op(label, fn, 60)
    assert outcome.status == FAILED and "below the bound" in outcome.detail


def test_lowerbound_check_rejects_missed_capacity(monkeypatch):
    label, fn = _first_op(Lowerbound(3), "eps=0.3")
    real = capacity.capacity
    monkeypatch.setattr(capacity, "capacity", lambda e, exact=False: real(e) + 1e-6)
    outcome, _ = run_op(label, fn, 60)
    assert outcome.status == FAILED and "misses target" in outcome.detail


def test_compare_check_rejects_broken_green_identity(monkeypatch):
    label, fn = _first_op(Compare(3), "half@256x48,n=6")
    assert run_op(label, fn, 60)[0].status == OK
    real = disc.DiscSolution.flux_capacity
    monkeypatch.setattr(
        disc.DiscSolution, "flux_capacity", lambda self, gap: 1.01 * real(self, gap)
    )
    outcome, _ = run_op(label, fn, 60)
    assert outcome.status == FAILED and "flux" in outcome.detail


def test_compare_check_rejects_ratio_outside_bracket(monkeypatch):
    label, fn = _first_op(Compare(3), "cantor3@256x48,n=6")
    monkeypatch.setattr(
        capacity, "condenser_capacity", lambda e, n, exact=False: 1e6
    )
    outcome, _ = run_op(label, fn, 60)
    assert outcome.status == FAILED and "ratio" in outcome.detail


def test_compare_check_rejects_wrong_full_circle(monkeypatch):
    workload = Compare(3)
    fn = workload._op(workload.full, 6, disc.SolverGrid(256, 48), True)
    assert run_op("full", fn, 60)[0].status == OK
    real = disc.solve

    def scaled(problem, grid):
        solution = real(problem, grid)
        solution.capacity *= 1.05
        solution.potential = solution.potential * 1.05  # flux scales along
        return solution

    monkeypatch.setattr(disc, "solve", scaled)
    outcome, _ = run_op("full", fn, 60)
    assert outcome.status == FAILED and "within 2%" in outcome.detail


def test_carrier_check_rejects_wrong_exact_value(monkeypatch):
    workload = Carrier(3)
    fn = workload._op(0.25, 5, workload.shadows[0])
    assert run_op("carrier", fn, 60)[0].status == OK
    real = capacity.condenser_capacity
    monkeypatch.setattr(
        capacity,
        "condenser_capacity",
        lambda e, n, exact=False: real(e, n, exact) * (1 + 1e-6),
    )
    outcome, _ = run_op("carrier", fn, 60)
    assert outcome.status == FAILED and "exact condenser" in outcome.detail


def test_carrier_check_rejects_lost_leaves(monkeypatch):
    workload = Carrier(3)
    fn = workload._op(0.25, 5, workload.shadows[0])
    real = treecap.BoundarySet.full_leaves
    monkeypatch.setattr(
        treecap.BoundarySet, "full_leaves", lambda self: real(self)[:-1]
    )
    outcome, _ = run_op("carrier", fn, 60)
    assert outcome.status == FAILED


def test_carrier_check_rejects_unequal_copy(monkeypatch):
    workload = Carrier(3)
    fn = workload._op(0.4, 4, workload.shadows[0])
    monkeypatch.setattr(treecap.BoundarySet, "__eq__", lambda self, other: False)
    outcome, _ = run_op("carrier", fn, 60)
    assert outcome.status == FAILED and "not equal" in outcome.detail


@pytest.mark.parametrize("workload", [Lowerbound, Compare, Carrier])
def test_cli_check_rejects_a_false_verdict_or_wrong_value(workload):
    from harness import CheckFailed

    w = workload(3)
    with pytest.raises(CheckFailed):
        w.check_cli({"name": "lowerbound", "verdict": False, "rows": []})
    with pytest.raises(CheckFailed):
        w.check_cli({"name": "compare", "capacity": 0.3, "condenser_at_n": 0.0})


def test_inputs_come_only_from_the_seed():
    a, b = Carrier(11), Carrier(11)
    assert [s.full_leaves() for s in a.shadows] == [s.full_leaves() for s in b.shadows]
    assert Lowerbound(11).bases == Lowerbound(11).bases
    assert Compare(11).small_sets[3][1] == Compare(11).small_sets[3][1]
    assert Lowerbound(11).bases != Lowerbound(12).bases


def test_metric_names_and_units_match_benchmark_json():
    import run
    from spans import layer_metrics

    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    emitted = {name: unit for name, (_, unit) in layer_metrics(Recorder(), 0.0).items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == emitted
    assert {w["name"] for w in spec["workloads"]} == {"lowerbound", "compare", "carrier"}
