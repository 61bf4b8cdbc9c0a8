"""Phase timings are projections of the spans a run closed.

``Report.timings`` and ``SpeedupCell.timings`` are read off the
tracer's span aggregate, so on a traced run each phase total must equal
the sum of the durations of that phase's span events; and every entry
point into the pipeline core (``run_config``, the CLI and
``parallelize_source``) reports the same phases.
"""

import os

import pytest

from repro.cli import main
from repro.experiments import figure20, pipeline
from repro.experiments.figure20 import figure20_all
from repro.experiments.pipeline import Config, run_config, summarize_result
from repro.experiments.table2 import table2_rows
from repro.fortran.fixedform import parallelize_source
from repro.perfect import get_benchmark, suite
from repro.perfect.suite import Benchmark
from repro.polaris.report import PHASES, merge_timings
from repro.trace import Tracer

CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "fortran",
                      "corpus")

RUNS = (("none", "hand"), ("conventional", "hand"), ("annotation", "hand"),
        ("annotation", "inferred"), ("annotation", "demand"))


def _clear_caches():
    suite.clear_program_cache()
    pipeline.clear_base_cache()
    figure20.clear_pipeline_cache()


def _assert_phases_match_spans(timings, tracer):
    """Each phase total equals its span durations, within 1 µs per span."""
    spans = {}
    for e in tracer.events:
        if e["ph"] == "X" and e["name"] in PHASES:
            total, count = spans.get(e["name"], (0.0, 0))
            spans[e["name"]] = (total + e["dur"], count + 1)
    assert set(timings) == set(spans)
    for phase, seconds in timings.items():
        dur_us, count = spans[phase]
        assert abs(seconds * 1e6 - dur_us) <= count, phase


@pytest.mark.parametrize("jobs", [1, 2])
def test_table2_phase_totals_equal_span_sums(jobs):
    _clear_caches()
    tracer = Tracer(label="test", pid=1)
    rows = table2_rows(benchmarks=[get_benchmark("adm"),
                                   get_benchmark("mg3d")],
                       jobs=jobs, tracer=tracer)
    timings = {}
    for row in rows:
        merge_timings(timings, row.timings)
    _assert_phases_match_spans(timings, tracer)


def test_figure20_phase_totals_equal_span_sums():
    _clear_caches()
    tracer = Tracer(label="test", pid=1)
    cells = figure20_all(benchmarks=[get_benchmark("adm")], jobs=1,
                         tracer=tracer)
    timings = {}
    for cell in cells:
        assert "tune" in cell.timings
        merge_timings(timings, cell.timings)
    _assert_phases_match_spans(timings, tracer)
    # each pipeline ran once, inside the first cell that needed it
    assert sum("dependence" in c.timings for c in cells) == 3


def test_disabled_tracer_still_times_phases():
    _clear_caches()
    result = run_config(get_benchmark("adm"), Config("annotation"))
    assert set(result.report.timings) == {
        "parse", "normalize", "summaries", "dependence", "inline",
        "reverse"}


def _adm_files(tmp_path):
    bench = get_benchmark("adm")
    sources = {os.path.basename(f): text
               for f, text in bench.sources.items()}
    for name, text in sources.items():
        (tmp_path / name).write_text(text)
    (tmp_path / "adm.ann").write_text(bench.annotations)
    return bench, sources, bench.annotations


def _corpus_files(tmp_path):
    name = "interproc_inferred.f"
    with open(os.path.join(CORPUS, name)) as fh:
        sources = {name: fh.read()}
    (tmp_path / name).write_text(sources[name])
    (tmp_path / "empty.ann").write_text("")
    return (Benchmark(name="interproc", description="corpus",
                      sources=sources),
            sources, "")


def _cli_phases(tmp_path, sources, annotations, kind, mode, capsys):
    ann = "adm.ann" if annotations else "empty.ann"
    argv = (["report"] + [str(tmp_path / n) for n in sources]
            + ["--annotations", str(tmp_path / ann), "--config", kind,
               "--annotations-mode", mode, "--profile"])
    assert main(argv) == 0
    err = capsys.readouterr().err
    return {line.split()[0] for line in err.splitlines()
            if line.split() and line.split()[0] in PHASES}


@pytest.mark.parametrize("files", [_adm_files, _corpus_files],
                         ids=["adm", "corpus"])
@pytest.mark.parametrize("kind,mode", RUNS)
def test_entry_points_report_the_same_phases(files, kind, mode, tmp_path,
                                              capsys):
    _clear_caches()
    bench, sources, annotations = files(tmp_path)
    config_phases = set(summarize_result(
        run_config(bench, Config(kind, annotations=mode)))["timings"])
    cli_phases = _cli_phases(tmp_path, sources, annotations, kind, mode,
                             capsys)
    tracer = Tracer()
    parallelize_source(sources, config=kind, annotations_mode=mode,
                       annotations_text=annotations, tracer=tracer)
    source_phases = {e["name"] for e in tracer.events
                     if e["ph"] == "X"} & set(PHASES)

    expected = config_phases - {"parse"}
    assert cli_phases - {"parse"} == expected
    assert source_phases - {"parse"} == expected
    if mode == "inferred" and kind == "annotation":
        assert {"infer", "inline"} <= expected
    if mode == "demand" and kind == "annotation":
        assert "infer" in expected and "inline" not in expected
