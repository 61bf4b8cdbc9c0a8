#!/usr/bin/env python3
"""The repository benchmark: ``analyze``, ``tune`` and ``serve``.

One run measures one workload::

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 30 --trace 0

and prints, last on stdout, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` reports its
per-layer metrics, measured on alternate passes with wrappers installed
from outside the program (the passes in between give the tracing
overhead).  Every op's output is checked against a committed reference;
a mismatch or error is a failed op.

End-to-end times are reported as on a reference host: each op's time is
divided by how much slower than the reference the host ran a fixed
pure-Python kernel at that moment (``measure.SpeedProbe``), which keeps a
shared host's drift out of the comparison between two commits.  The
values as measured are printed on the line before the metrics.

``--summary`` runs every workload once untraced and twice traced on one
seed, prints every metric by name and unit, lists any count metric that
did not repeat exactly between the two traced runs, and writes the
record to ``perfbench/out/summary.json``.

Run from the repository root; the program is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: set-up is timed this many times per run; setup_s is the median
SETUP_REPEATS = 3

#: per-layer metrics that are times or time shares; every other one is a
#: count (or a ratio of counts) that must repeat exactly on one seed
TIME_UNITS = ("s", "ms", "%")


def load_spec() -> Dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def drive(workload, seconds: float, trace: bool, log, probe):
    """Time the set-up, then run passes until ``seconds`` have passed and
    at least the workload's minimum.  Returns the set-up repeats as
    (seconds, midpoint), the passes as (traced, busy seconds, first op,
    end op), and the peak RSS in KiB."""
    passes: List[Tuple[bool, float, int, int]] = []
    try:
        setup = []
        for rep in range(SETUP_REPEATS):
            if rep:
                workload.reset()
            probe.sample()
            t0 = perf_counter()
            workload.setup()
            t1 = perf_counter()
            setup.append((t1 - t0, (t0 + t1) / 2))
        probe.sample()
        min_passes = max(workload.min_passes, 2 if trace else 1)
        started = perf_counter()
        while True:
            # traced runs alternate: untraced, traced, untraced, ...
            traced = trace and len(passes) % 2 == 1
            first = log.attempted
            busy = workload.run_pass(log, traced)
            passes.append((traced, busy, first, log.attempted))
            if len(passes) == min_passes:
                # after a fixed op count, so it does not grow with the
                # number of passes a faster host fits into the run
                peak_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                           + workload.extra_peak_rss_kb())
            if (len(passes) >= min_passes
                    and perf_counter() - started >= seconds
                    and not (trace and len(passes) % 2)):
                probe.sample()
                return setup, passes, peak_kb
    finally:
        workload.close()


def measure(name: str, seed: int, seconds: float, trace: bool) -> Dict:
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise SystemExit(f"no program to measure: {src}/repro is missing")
    sys.path.insert(0, src)
    from measure import (OpLog, SpeedProbe, finite, percentile,
                         samples_beyond, tail_percentile)
    from workloads import WORKLOADS

    spec = load_spec()
    workload = WORKLOADS[name](ROOT, seed)
    workload.prepare()
    tail = tail_percentile(workload.pass_size * workload.min_passes)
    probe = SpeedProbe()
    log = OpLog(probe=probe)
    setup, passes, peak_kb = drive(workload, seconds, trace, log, probe)
    for problem in list(log.failures.values())[:10]:
        print(f"FAILED: {problem}", file=sys.stderr)
    if samples_beyond(log.attempted, tail) < 10:
        raise RuntimeError(f"p{tail} has fewer than 10 samples beyond it")

    # busy seconds per pass, as on the reference host
    busy = {flag: [b * log.scale(i, j, probe)
                   for traced, b, i, j in passes if traced == flag]
            for flag in (False, True)}
    if trace:
        values = workload.layer_metrics(len(busy[True]))
        values["tracing.overhead_pct"] = 100.0 * (
            statistics.fmean(busy[True]) / statistics.fmean(busy[False])
            - 1.0)
        wanted = spec["per_layer"]
    else:
        ok = log.attempted - log.failed
        raw_ms = [x * 1000.0 for x in log.latencies()]
        ms = [x * 1000.0 for x in log.latencies(probe)]
        print(f"{name}: as measured on this host: setup_s "
              f"{statistics.median(s for s, _ in setup):.6g}, ops_per_s "
              f"{ok / math.fsum(b for _, b, _, _ in passes):.6g}, "
              f"latency_p50_ms {percentile(raw_ms, 50):.6g}, "
              f"latency_tail_ms {percentile(raw_ms, tail):.6g}")
        values = {
            "setup_s": statistics.median(
                s / probe.slowdown_at(at) for s, at in setup),
            "ops_per_s": ok / math.fsum(busy[False]),
            "latency_p50_ms": finite(percentile(ms, 50)),
            "latency_tail_ms": finite(percentile(ms, tail)),
            "peak_rss_mb": peak_kb / 1024.0,
        }
        wanted = spec["end_to_end"]
    unknown = set(values) - {m["name"] for m in wanted}
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in wanted}
    for key, entry in metrics.items():
        print(f"{name} {key} = {entry['value']:.6g} {entry['unit']}")
    print(f"{name}: {log.attempted} ops in {len(passes)} passes, tail "
          f"percentile p{tail}, seed {seed}")
    return {"correct": log.failed == 0, "attempted": log.attempted,
            "failed": log.failed, "metrics": metrics}


def _run_child(name: str, seed: int, seconds: float, trace: int) -> Dict:
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def summary(seed: int, seconds: float) -> int:
    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    record: Dict = {"seed": seed, "seconds": seconds, "workloads": {}}
    ok = True
    for workload in spec["workloads"]:
        name = workload["name"]
        plain = _run_child(name, seed, seconds, 0)
        traced = [_run_child(name, seed, seconds, 1) for _ in range(2)]
        differ = sorted(
            key for key, unit in units.items() if unit not in TIME_UNITS
            and traced[0]["metrics"][key]["value"]
            != traced[1]["metrics"][key]["value"])
        for key in differ:
            print(f"{name}: count {key} did not repeat: "
                  f"{traced[0]['metrics'][key]['value']} vs "
                  f"{traced[1]['metrics'][key]['value']}")
        overhead = [r["metrics"]["tracing.overhead_pct"]["value"]
                    for r in traced]
        print(f"{name}: tracing overhead {overhead[0]:.2f} % and "
              f"{overhead[1]:.2f} %, {len(differ)} count metrics did not "
              f"repeat")
        ok &= all(r["correct"] for r in [plain] + traced) and not differ
        record["workloads"][name] = {
            "end_to_end": plain, "traced": traced,
            "counts_not_repeated": differ}
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "summary.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("summary: " + ("all outputs correct, all counts repeat" if ok
                         else "FAILED"))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("analyze", "tune", "serve"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--summary", action="store_true",
                        help="run every workload, traced twice, and "
                             "check that counts repeat")
    args = parser.parse_args(argv)
    if args.summary:
        return summary(args.seed, args.seconds)
    if not args.workload:
        parser.error("--workload or --summary is required")
    result = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
