"""Supervised runtime: budgets, watchdogs and memory governance.

PR 2's resilience layer handles *failures* — crashed workers, dirty rows,
starved slices. This package handles *degradation that never fails*: a
run that would blow past its wall-clock budget, a worker that hangs
without dying, a sweep whose working set outgrows memory. Three
concerns, one composition point:

- :mod:`repro.runtime.deadline` — wall-clock budgets with cooperative
  cancellation checkpoints through the pipeline's expensive stages.
- :mod:`repro.runtime.watchdog` — heartbeat-based detection (and
  SIGKILL + requeue) of live-but-stuck process workers.
- :mod:`repro.runtime.memory` — working-set estimation, sweep admission
  control, and LRU disk spill of completed slices.

:class:`~repro.runtime.supervisor.Supervisor` composes any subset and
plugs into the degrade/manifest machinery so every shed slice, killed
worker and spilled result is *recorded*, never silent.
With no supervisor installed, every hook in the pipeline is a no-op and
behavior (including obs artifacts) is byte-identical to an unsupervised
build.
"""

from repro.runtime.deadline import (
    Deadline,
    active_deadline,
    check_deadline,
    deadline_scope,
)
from repro.runtime.memory import (
    MemoryGovernor,
    estimate_counts_bytes,
    estimate_nbytes,
)
from repro.runtime.supervisor import Supervisor, active_supervisor
from repro.runtime.watchdog import HeartbeatWriter, TaskHeartbeat, Watchdog

__all__ = [
    "Deadline",
    "deadline_scope",
    "active_deadline",
    "check_deadline",
    "Watchdog",
    "HeartbeatWriter",
    "TaskHeartbeat",
    "MemoryGovernor",
    "estimate_nbytes",
    "estimate_counts_bytes",
    "Supervisor",
    "active_supervisor",
]
