"""SLO-aware self-tuning: declarative objectives driving live knobs.

The serving stack's knobs (batch size, wait deadline, hedge delay,
admission limit, replica count) were hand-set per benchmark; this package
closes the loop from the stack's own signals back to those knobs:

* :class:`~repro.control.slo.SLO` — a declarative objective spec (p99
  bound, shed-rate ceiling, throughput floor, per-tenant priority
  weights), serializable next to the configs it is enforced against;
* :class:`~repro.control.autoscale.AutoscalePolicy` — a declarative
  reactive-autoscaling spec (replica-count rails, per-signal scale-out /
  scale-in thresholds with hysteresis, per-direction cooldowns),
  serializable the same way;
* :class:`~repro.control.controller.Controller` — the online loop: window
  the metrics via :meth:`~repro.obs.metrics.MetricsSnapshot.delta`,
  compare against the SLO, retune through the services'
  ``apply_tuning()`` seam at a flush boundary, and (with a policy
  attached) drive ``n_replicas`` through the cluster's
  drain-before-retire ``scale_to()`` transition.  Retuning never changes
  answers — only when batches flush, what they cost, and how many
  replicas serve them.

``repro.workloads.replay(..., controller=...)`` runs the loop during a
scenario replay; ``benchmarks/modeled.py`` measures knob tuning against the
best static configuration across the named scenario library (suite
``adaptive``) and reactive scaling against every static replica count on the
flash crowd (suite ``autoscale``).
"""

from .autoscale import AUTOSCALE_SIGNALS, AutoscalePolicy
from .controller import WINDOW_BUCKETS_S, Controller, TuningDecision
from .slo import SLO

__all__ = [
    "AUTOSCALE_SIGNALS",
    "AutoscalePolicy",
    "SLO",
    "Controller",
    "TuningDecision",
    "WINDOW_BUCKETS_S",
]
