"""Reference outputs the workloads are checked against.

Every reference is a file committed beside the code, not a value the code
under test computes during the run:

* Table II cells: ``benchmarks/out/table2.txt``;
* ``#par-loops`` under inferred and demand annotations: the ablation
  table in ``EXPERIMENTS.md`` (totals 103 / 107);
* tolerant-frontend verdicts: ``tests/fortran/corpus/*.expect.json``,
  compared as ``scripts/frontend_smoke.py`` compares them;
* Figure 20 speedups: ``benchmarks/out/figure20.txt``.

The ``serve`` workload's reference is the in-process ``execute_payload``
result for the same payload (see :mod:`workloads`).
"""

from __future__ import annotations

import glob
import json
import os
import re
from typing import Dict, List, Optional, Tuple

#: ablation-table totals recorded in EXPERIMENTS.md
INFERRED_TOTAL = 103
DEMAND_TOTAL = 107

#: Table II column names, in file order
TABLE2_COLUMNS = ("none:par", "none:lines", "conv:par", "conv:loss",
                  "conv:extra", "conv:lines", "annot:par", "annot:loss",
                  "annot:extra", "annot:lines")

#: corpus result keys compared against the expectations
CORPUS_KEYS = ("diagnostics", "loops", "parallel_count", "units")


def _rows(path: str, header_prefix: str) -> List[List[str]]:
    """The ``|``-separated data rows of the first table whose header line
    starts with ``header_prefix``."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.startswith(header_prefix))
    rows = []
    for line in lines[start + 2:]:
        if "|" not in line:
            break
        rows.append([cell.strip() for cell in line.split("|")])
    return rows


def load_table2(root: str) -> Dict[str, Dict[str, int]]:
    """Benchmark name -> Table II column -> value."""
    out = {}
    for cells in _rows(os.path.join(root, "benchmarks", "out", "table2.txt"),
                       "Application"):
        if cells[0] == "TOTAL":
            continue
        out[cells[0]] = {col: int(v)
                         for col, v in zip(TABLE2_COLUMNS, cells[1:])}
    return out


def load_ablation(root: str) -> Dict[str, Dict[str, int]]:
    """Benchmark name -> {"inferred": par, "demand": par}, from the
    annotations ablation table; checks the recorded totals."""
    rows = _rows(os.path.join(root, "EXPERIMENTS.md"),
                 "Application | hand:par")
    out = {}
    for cells in rows:
        out[cells[0]] = {"inferred": int(cells[2]), "demand": int(cells[5])}
    total = out.pop("TOTAL")
    if total != {"inferred": INFERRED_TOTAL, "demand": DEMAND_TOTAL}:
        raise ValueError(f"ablation totals {total} differ from "
                         f"{INFERRED_TOTAL} / {DEMAND_TOTAL}")
    for mode, want in total.items():
        if sum(row[mode] for row in out.values()) != want:
            raise ValueError(f"ablation {mode} rows do not sum to {want}")
    return out


_BAR = re.compile(r"^(\S+)\s+(\S+)\s+\|\s*#*\s*([0-9.]+)$")
_SECTION = re.compile(r"^FIGURE 20: speedups on (\S+) ")


def load_figure20(root: str) -> Dict[Tuple[str, str, str], str]:
    """(machine, BENCHMARK, config) -> speedup as printed (3 decimals)."""
    out = {}
    machine = None
    path = os.path.join(root, "benchmarks", "out", "figure20.txt")
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            section = _SECTION.match(line)
            if section:
                machine = section.group(1)
                continue
            bar = _BAR.match(line)
            if bar and machine:
                out[(machine, bar.group(1), bar.group(2))] = bar.group(3)
    return out


def load_corpus(root: str) -> List[Tuple[str, str, Dict]]:
    """(file name, fixed-form text, expectations) per corpus program."""
    out = []
    pattern = os.path.join(root, "tests", "fortran", "corpus", "*.f")
    for path in sorted(glob.glob(pattern)):
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        with open(path[:-2] + ".expect.json", encoding="utf-8") as fh:
            expect = json.load(fh)
        out.append((os.path.basename(path), text, expect))
    return out


def corpus_view(result: Dict) -> Dict:
    """The part of a ``parallelize_source`` result the expectations pin
    (same projection as ``scripts/frontend_smoke.py``)."""
    return {
        "diagnostics": [{"code": d["code"], "line": d["line"],
                         "severity": d["severity"]}
                        for d in result["diagnostics"]],
        "loops": [{"unit": rec["unit"], "var": rec["var"],
                   "parallel": rec["parallel"], "reason": rec["reason"]}
                  for rec in result["loops"]],
        "parallel_count": result["parallel_count"],
        "units": result["units"],
    }


def check_corpus(result: Dict, expect: Dict) -> Optional[str]:
    got = corpus_view(result)
    bad = [key for key in CORPUS_KEYS if got[key] != expect[key]]
    return f"corpus mismatch in {', '.join(bad)}" if bad else None


def comparable(result: Dict) -> Dict:
    """A service result minus its wall-clock ``timings``, normalized
    through JSON so tuples and lists compare equal."""
    return json.loads(json.dumps(
        {k: v for k, v in result.items() if k != "timings"},
        sort_keys=True))
