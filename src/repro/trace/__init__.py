"""``repro.trace`` — span-based structured tracing for the pipeline.

The paper's headline evidence is *per-loop* accounting: which loops each
inlining configuration parallelizes, and which are lost or extra
(Tables I/II).  This package mechanizes that attribution:

* a :class:`Tracer` records nested **spans** (parse, normalize,
  inline/annotate, dependence analysis, parallelize, reverse-inline,
  tune) and **per-loop decision records** (:class:`LoopDecision`: loop
  origin, which dependence tests fired, privatization/reduction
  verdicts, profitability outcome, final parallel/serial decision with
  its reason);
* traces export as Chrome trace-event JSON (loadable in
  ``chrome://tracing`` or Perfetto) and decisions as a compact JSONL
  log;
* child traces produced inside executor worker processes merge back
  into the parent trace (:meth:`Tracer.merge`), one process lane each.

Tracing is off by default: every instrumentation point accepts an
optional tracer.  Without one, code that reports phase timings runs a
``Tracer(enabled=False)``, which keeps only the span aggregate the
timings are read from; other code uses the shared no-op
:data:`NULL_TRACER` — the instrumented pipeline stays within noise of
the uninstrumented one.
"""

from repro.trace.chrome import validate_chrome_trace, write_chrome
from repro.trace.decisions import (LoopDecision, SiteDecision,
                                   count_parallel, read_decisions_jsonl,
                                   write_decisions_jsonl)
from repro.trace.tracer import NULL_TRACER, Tracer

__all__ = [
    "Tracer", "NULL_TRACER", "LoopDecision", "SiteDecision",
    "count_parallel",
    "read_decisions_jsonl", "write_decisions_jsonl",
    "validate_chrome_trace", "write_chrome",
]
