"""repro.resilience — fault injection, containment, and degradation.

Three pieces, all stdlib-only:

* :mod:`repro.resilience.faults` — a seeded, env/CLI-configurable fault
  plan (``REPRO_FAULTS`` / ``--faults plan.json``) with injection points
  registered at the real seams (worker entry, cache read/write, HTTP
  accept/read/write, job-queue admission) that can raise, delay, corrupt
  bytes, or kill the worker process — deterministic per seed, so
  failures reproduce in CI;
* :mod:`repro.resilience.containment` — the scheduler's failure policy:
  per-unit retry budgets with exponential backoff, bisection quarantine of
  poison units, and a consecutive-crash circuit breaker that degrades
  ``jobs=N`` to serial in-process execution instead of dying;
* :mod:`repro.resilience.ratelimit` — token-bucket per-client rate
  limiting for the service edge (429 + ``Retry-After``).

:mod:`repro.resilience.chaos` drives a seeded fault plan against a live
server and asserts the invariants the ``repro-experiments chaos``
subcommand reports: no hang, no wrong bytes, bounded error rate.
"""

from .containment import (
    PoolCrashError,
    PoolHealth,
    RetryPolicy,
    UnitFailure,
    resilient_map,
)
from .faults import (
    FAULTS_ENV,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    active_plan,
    install,
    install_from_env,
)
from .ratelimit import RateLimiter, TokenBucket

__all__ = [
    "FAULTS_ENV",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "PoolCrashError",
    "PoolHealth",
    "RateLimiter",
    "RetryPolicy",
    "TokenBucket",
    "UnitFailure",
    "active_plan",
    "install",
    "install_from_env",
    "resilient_map",
]
