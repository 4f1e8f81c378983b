"""Observability: per-rank span tracing, rank-aware logging, trace
merge/export, and the measured-vs-modeled analyzer.  (Counters live in
:class:`repro.comm.stats.CommStats`; its ``snapshot()`` rides in the trace.)

Heavy pieces (``export``, ``analyze``) are imported lazily by their users
to keep ``repro.comm`` -> ``repro.obs`` import cost near zero.
"""

from repro.obs import tracer
from repro.obs.logging import configure as configure_logging
from repro.obs.logging import get_logger
from repro.obs.tracer import TRACE_ENV, TraceConfig, span

__all__ = [
    "tracer",
    "span",
    "TraceConfig",
    "TRACE_ENV",
    "get_logger",
    "configure_logging",
]
