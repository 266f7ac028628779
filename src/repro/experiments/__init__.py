"""The paper's evaluation (Section 7, Appendix E) as one experiment campaign.

* :mod:`repro.experiments.campaign` — the only definition of every
  experiment: Table 1 (group counts per level), Table 2 and Figure 8 (weak
  scaling of AMS-sort with 1-3 levels and its phase breakdown), Figure 7
  (RLM-sort vs AMS-sort), Figures 10 and 11 (oversampling and
  overpartitioning), Figure 12 (distribution of wall-times), Section 7.3
  (single-level baselines) and the degradation under injected faults.  Each
  experiment expands into cells, which run serially or sharded with an
  on-disk cache and aggregate into the paper's rows.
* :mod:`repro.experiments.harness` — the scale profiles, the paper's
  reference tables and the per-cell algorithm configuration.
* :mod:`repro.experiments.cli` — ``campaign`` runs the whole evaluation; the
  serial names (``table1`` ... ``sec73``, ``faults``) run the experiments
  behind them as one serial campaign and print its sections next to the
  paper's reference tables.

The paper's machine (up to 32768 MPI ranks with up to ``10^7`` elements
each) does not fit into a pure-Python simulation, so every experiment runs a
*scaled* configuration, chosen by a scale profile (``tiny``, ``quick``
[default, or ``$REPRO_SCALE``], ``medium``, ``large``, ``paper``,
``beyond``).
"""

from repro.experiments.harness import scale_profile, SCALE_PROFILES
from repro.experiments import campaign

__all__ = [
    "scale_profile",
    "SCALE_PROFILES",
    "campaign",
]
