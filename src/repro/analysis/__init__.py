"""Analysis utilities: the paper's closed-form cost models, run metrics and tables.

* :mod:`~repro.analysis.theory` — time models, isoefficiency functions and
  startup bounds of the paper's analysis,
* :mod:`~repro.analysis.metrics` — slowdown and repeated-run summaries for
  the campaign,
* :mod:`~repro.analysis.tables` — aligned plain-text tables.
"""

from repro.analysis.theory import (
    ams_sort_time_model,
    rlm_sort_time_model,
    single_level_sample_sort_time_model,
    exch_lower_bound,
    isoefficiency_ams,
    isoefficiency_rlm,
    isoefficiency_single_level,
    startup_bound_multilevel,
)
from repro.analysis.metrics import (
    slowdown,
    summarize_runs,
)
from repro.analysis.tables import format_table

__all__ = [
    "ams_sort_time_model",
    "rlm_sort_time_model",
    "single_level_sample_sort_time_model",
    "exch_lower_bound",
    "isoefficiency_ams",
    "isoefficiency_rlm",
    "isoefficiency_single_level",
    "startup_bound_multilevel",
    "slowdown",
    "summarize_runs",
    "format_table",
]
