"""Tests of the benchmark's own accounting: tail-percentile selection,
failed-op accounting and span self time.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import math
from types import SimpleNamespace

import pytest

from conftest import ROOT
from layers import Recorder
from measure import (REFERENCE_KERNEL_S, OpLog, SpeedProbe, percentile,
                     samples_beyond, self_time, tail_percentile)
from workloads import Analyze, Tune


# -- tail percentile ----------------------------------------------------

def test_tail_leaves_ten_samples_beyond_and_is_the_highest():
    for n in range(20, 3000):
        p = tail_percentile(n)
        assert samples_beyond(n, p) >= 10
        assert p == 99 or samples_beyond(n, p + 1) < 10


def test_tail_percentile_counts_real_samples():
    samples = list(range(1, 101))
    p = tail_percentile(len(samples))
    value = percentile(samples, p)
    assert p == 90 and value == 90
    assert sum(1 for x in samples if x > value) == 10


def test_too_few_samples_for_a_tail():
    with pytest.raises(ValueError):
        tail_percentile(19)


# -- failed-op accounting -----------------------------------------------

def test_failed_op_misses_every_latency_limit():
    log = OpLog()
    for seconds in (0.1, 0.2, 0.3):
        log.record(seconds)
    log.record(0.01, "mismatch")
    log.fail(0, "loss/extra mismatch")
    assert (log.attempted, log.failed) == (4, 2)
    assert percentile(log.latencies(), 50) == 0.3
    assert math.isinf(percentile(log.latencies(), 75))


def test_busy_time_counts_failed_ops_and_probes_between_ops():
    probe = SpeedProbe(every=0.0)
    log = OpLog(probe=probe)
    log.record(0.25)
    log.record(0.5, "error")
    assert log.seconds == [0.25, 0.5] and log.failed == 1
    assert len(probe.samples) == 2


def test_slowdown_is_the_median_of_the_nearest_samples():
    probe = SpeedProbe()
    probe.times = [float(t) for t in range(10)]
    probe.samples = [REFERENCE_KERNEL_S * f
                     for f in (1, 1, 1, 1, 1, 2, 2, 3, 2, 2)]
    assert probe.slowdown_at(0.2) == 1.0
    assert probe.slowdown_at(7.0) == 2.0
    assert probe.slowdown_at(100.0) == 2.0
    log = OpLog(seconds=[1.0, 2.0, 4.0], times=[0.0, 1.0, 7.0])
    assert log.latencies(probe) == [1.0, 2.0, 2.0]
    assert log.scale(0, 3, probe) == 5.0 / 7.0


def _analyze_subset():
    workload = Analyze(ROOT, seed=3)
    workload.prepare()
    workload.ops = [op for op in workload.ops
                    if (op[0] == "pipeline" and op[1].name == "ADM")
                    or (op[0] == "corpus"
                        and op[1] == "carried_dependence.f")]
    workload.benchmarks = [b for b in workload.benchmarks
                           if b.name == "ADM"]
    return workload


def test_correct_reference_yields_no_failures():
    workload = _analyze_subset()
    log = OpLog()
    workload._pass(log)
    assert (log.attempted, log.failed) == (6, 0)


def test_corrupted_reference_yields_failed_ops():
    workload = _analyze_subset()
    workload.table2["ADM"]["annot:extra"] += 1
    workload.ablation["ADM"]["demand"] += 1
    for op in workload.ops:
        if op[0] == "corpus":
            op[3]["parallel_count"] += 1
    log = OpLog()
    workload._pass(log)
    assert log.attempted == 6
    assert log.failed == 3      # a nonzero failure share: 3 of 6
    assert sum(math.isinf(x) for x in log.latencies()) == 3


def test_corrupted_figure20_reference_fails_the_cell():
    workload = Tune(ROOT, seed=3)
    workload.figure20 = {("intel-mac", "ADM", "none"): "2.822"}
    cell = SimpleNamespace(machine="intel-mac", benchmark="ADM",
                           config="none", speedup=2.8221,
                           timings={"tune": 1.0})
    assert workload._check(cell) is None
    workload.figure20[("intel-mac", "ADM", "none")] = "2.823"
    assert "speedup" in workload._check(cell)


# -- self time ----------------------------------------------------------

def test_self_time_subtracts_the_union_of_children():
    # children overlap (1-3, 2-5) and one runs past the parent's end
    assert self_time((0, 10), [(1, 3), (2, 5), (7, 8), (9, 12)]) == 4
    assert self_time((0, 10), []) == 10


def test_recorder_self_time_uses_direct_children_only():
    rec = Recorder()
    rec.spans = [["pipeline", 0.0, 10.0, None],
                 ["polaris", 1.0, 3.0, 0],
                 ["parse", 2.0, 5.0, 0],
                 ["dependence", 3.5, 4.5, 2],   # inside a child
                 ["pipeline", 20.0, 30.0, None]]
    assert rec.self_time("pipeline") == 6.0 + 10.0
    assert rec.busy("pipeline") == 20.0
    assert rec.calls("pipeline") == 2


def test_wrappers_exist_only_while_installed():
    from repro.polaris import Polaris
    original = Polaris.run
    rec = Recorder().install()
    try:
        assert Polaris.run is not original
        assert Polaris.run.__wrapped__ is original
    finally:
        rec.uninstall()
    assert Polaris.run is original


# -- the record beside BENCHMARK.json ------------------------------------

def test_layer_record_matches_the_spec_and_the_workloads():
    import json
    import os
    from workloads import WORKLOADS
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(ROOT, "perfbench", "layers.json")) as fh:
        record = json.load(fh)
    mapped = [m for entry in record["layer_map"] for m in entry["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in spec["per_layer"])
    assert list(record["workloads"]) == [w["name"]
                                         for w in spec["workloads"]]
    for name, entry in record["workloads"].items():
        assert WORKLOADS[name].min_passes == entry["min_passes"]
        assert entry["tail_percentile"] == tail_percentile(
            entry["ops_per_pass"] * entry["min_passes"])
    for cls in (Analyze, Tune):
        workload = cls(ROOT, seed=1)
        workload.prepare()
        assert workload.pass_size == \
            record["workloads"][cls.name]["ops_per_pass"]
