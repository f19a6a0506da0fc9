"""repro.search — policy search over controller-aware colorings.

The subsystem that *tunes* TintMalloc instead of just reproducing it:
a serializable genome over bank/LLC color assignments plus allocator
flags (:mod:`repro.search.space`), budgeted grid and evolutionary
drivers with successive-halving early stopping
(:mod:`repro.search.drivers`), an incremental runtime-vs-divergence
Pareto front (:mod:`repro.search.pareto`), and a replayable search log
with Markdown reporting against the paper's baselines
(:mod:`repro.search.report`).

Every candidate evaluation is a content-addressed
:class:`~repro.service.JobSpec` submitted through
:class:`~repro.service.ServiceClient`, so searches dedup repeated
genomes, survive worker crashes via the service's retry machinery,
and replay from the result cache for free.

Entry point: ``python -m repro.experiments tune --bench <name>``.
"""

from repro.search.drivers import (
    EvalResult,
    Evaluator,
    EvolutionDriver,
    GridDriver,
    SearchSettings,
    ServiceEvaluator,
)
from repro.search.pareto import ParetoFront, dominates
from repro.search.report import render_report, search_log_json
from repro.search.space import GENOME_SCHEMA, Genome, SearchSpace

__all__ = [
    "GENOME_SCHEMA",
    "EvalResult",
    "Evaluator",
    "EvolutionDriver",
    "Genome",
    "GridDriver",
    "ParetoFront",
    "SearchSettings",
    "SearchSpace",
    "ServiceEvaluator",
    "dominates",
    "render_report",
    "search_log_json",
]
