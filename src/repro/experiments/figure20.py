"""Figure 20 — runtime speedups of the automatically parallelized
benchmarks on the two machine models, under the three inlining
configurations, with empirical tuning applied (exactly the paper's
measurement protocol).

Speedup = serial simulated time / tuned parallel simulated time, per
benchmark x machine x configuration.

Each ``(benchmark x machine x config)`` cell is an independent executor
work unit (:class:`Figure20Task`): the worker runs the configuration's
pipeline (memoized per process, since both machines tune the same
optimized program) and then the tuning protocol on a fresh clone.  Cells
come back in task order, so the rendered figure is byte-identical for
any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments.executor import merge_task_traces, run_tasks
from repro.experiments.pipeline import (CONFIGS, Config, PipelineResult,
                                        run_config)
from repro.experiments.reporting import bar_chart
from repro.experiments.tuning import TuningResult, tune
from repro.perfect import all_benchmarks
from repro.perfect.suite import Benchmark
from repro.polaris.report import PHASES
from repro.runtime.machine import AMD_OPTERON, INTEL_MAC, MachineModel
from repro.trace import Tracer

MACHINES = (INTEL_MAC, AMD_OPTERON)


@dataclass
class SpeedupCell:
    benchmark: str
    machine: str
    config: str
    tuning: TuningResult
    #: per-phase wall-clock seconds this cell actually spent (pipeline
    #: phases only on the cell that ran them; 'tune' always)
    timings: Dict[str, float] = field(default_factory=dict)
    #: worker-local :meth:`repro.trace.Tracer.export`, when requested
    trace: Optional[Dict[str, Any]] = None

    @property
    def speedup(self) -> float:
        return self.tuning.speedup


@dataclass(frozen=True)
class Figure20Task:
    """One executor work unit: a (benchmark, machine, config) cell."""

    benchmark: Benchmark
    machine: MachineModel
    kind: str
    #: record a worker-local trace and ship it back with the cell
    trace: bool = False


#: (source digest, config kind) -> finished pipeline result, so the cells
#: for both machine models (and repeated calls) share one pipeline run
#: per process
_PIPELINE_CACHE: Dict[Tuple[str, str], PipelineResult] = {}


def clear_pipeline_cache() -> None:
    _PIPELINE_CACHE.clear()


def run_cell_task(task: Figure20Task) -> SpeedupCell:
    tracer = Tracer(enabled=task.trace,
                    label=f"figure20 {task.benchmark.name}/"
                          f"{task.machine.name}/{task.kind}")
    before = tracer.totals(PHASES)
    key = (task.benchmark.digest(), task.kind)
    result = _PIPELINE_CACHE.get(key)
    if result is None:
        # pipeline time lands on the first cell that needs the result
        result = run_config(task.benchmark, Config(task.kind),
                            tracer=tracer)
        _PIPELINE_CACHE[key] = result
    with tracer.span("tune", benchmark=task.benchmark.name,
                     machine=task.machine.name, config=task.kind):
        # tuning mutates the program: use a fresh clone per machine
        tuning = tune(result.program.clone(), task.machine,
                      task.benchmark.inputs)
    return SpeedupCell(task.benchmark.name, task.machine.name, task.kind,
                       tuning, tracer.totals_since(before),
                       tracer.export() if task.trace else None)


def figure20_cells(benchmark: Benchmark,
                   machines: Sequence[MachineModel] = MACHINES,
                   jobs: Optional[int] = None,
                   tracer: Optional[Tracer] = None) -> List[SpeedupCell]:
    return figure20_all(machines, [benchmark], jobs, tracer)


def figure20_all(machines: Sequence[MachineModel] = MACHINES,
                 benchmarks: Optional[List[Benchmark]] = None,
                 jobs: Optional[int] = None,
                 tracer: Optional[Tracer] = None) -> List[SpeedupCell]:
    benchmarks = benchmarks if benchmarks is not None else all_benchmarks()
    trace = tracer is not None and tracer.enabled
    tasks = [Figure20Task(b, machine, kind, trace=trace)
             for b in benchmarks
             for machine in machines for kind in CONFIGS]
    cells = run_tasks(run_cell_task, tasks, jobs=jobs,
                      tracer=tracer, label="figure20")
    merge_task_traces(tracer, [c.trace for c in cells])
    return cells


def render_figure20(cells: List[SpeedupCell]) -> str:
    by_machine: Dict[str, List[SpeedupCell]] = {}
    for c in cells:
        by_machine.setdefault(c.machine, []).append(c)
    sections: List[str] = []
    for machine, group in by_machine.items():
        labels = [f"{c.benchmark:8s} {c.config}" for c in group]
        values = [c.speedup for c in group]
        sections.append(bar_chart(
            labels, values,
            title=f"FIGURE 20: speedups on {machine} "
                  f"(serial time / tuned parallel time)"))
    return "\n\n".join(sections)
