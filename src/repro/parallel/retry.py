"""Retry-with-backoff and per-task timeout semantics.

A :class:`RetryPolicy` says how often to re-attempt a failed task and how
long to wait between attempts (exponential backoff, capped). Delays are
deterministic by default; the opt-in ``jitter="decorrelated"`` mode adds
*seed-derived* decorrelated jitter — still a pure function of the policy's
``jitter_seed``, so reproducibility survives while fleet-wide retries stop
synchronizing into thundering herds. The sleep function is injectable so
tests run instantly.

Data errors (:class:`~repro.errors.ReproError`) are *not* retried by
default: a slice that is too sparse stays too sparse, and retrying it only
burns time. The retryable set targets infrastructure faults — crashed
workers, broken pools, timeouts, transient OS errors.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional, Tuple, Type

import repro.obs as obs
from repro.errors import ConfigError, ReproError, TaskFailedError

__all__ = ["RetryPolicy", "call_with_retry", "is_retryable", "JITTER_MODES"]

#: Accepted ``RetryPolicy.jitter`` values.
JITTER_MODES = ("none", "decorrelated")


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to attempt a task and how long to back off.

    ``timeout_s`` is a *per-attempt* budget enforced by executors that can
    bound a task (the process backend); in-process callers cannot preempt
    a running function, so they ignore it. ``max_attempts=1`` means "no
    retries" — the first failure is final.

    ``jitter="decorrelated"`` switches :meth:`delays` to the decorrelated
    jitter scheme (each delay drawn uniformly from ``[base, 3 × previous]``,
    capped): retries across a fleet de-synchronize, yet the sequence is a
    pure function of ``jitter_seed`` — identical seeds give identical delay
    sequences, so chaos tests stay reproducible.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    max_backoff_s: float = 5.0
    timeout_s: Optional[float] = None
    jitter: str = "none"
    jitter_seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_base_s < 0:
            raise ConfigError(f"backoff_base_s must be >= 0, got {self.backoff_base_s}")
        if self.backoff_factor < 1.0:
            raise ConfigError(f"backoff_factor must be >= 1, got {self.backoff_factor}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ConfigError(f"timeout_s must be positive, got {self.timeout_s}")
        if self.jitter not in JITTER_MODES:
            raise ConfigError(
                f"jitter must be one of {JITTER_MODES}, got {self.jitter!r}"
            )

    def delays(self) -> Iterator[float]:
        """The backoff sequence, one delay per retry.

        Deterministic capped-exponential by default; under
        ``jitter="decorrelated"`` each delay is drawn from a private
        ``random.Random(jitter_seed)`` stream, so the sequence is
        reproducible yet uncorrelated across differently-seeded policies.
        """
        if self.jitter == "decorrelated":
            rng = random.Random(self.jitter_seed)
            delay = self.backoff_base_s
            for _ in range(self.max_attempts - 1):
                delay = min(
                    self.max_backoff_s,
                    rng.uniform(self.backoff_base_s, max(
                        self.backoff_base_s, delay * 3.0)),
                )
                yield delay
            return
        delay = self.backoff_base_s
        for _ in range(self.max_attempts - 1):
            yield min(delay, self.max_backoff_s)
            delay *= self.backoff_factor


#: Exception types worth a retry: infrastructure, not data.
_RETRYABLE: Tuple[Type[BaseException], ...] = (OSError, TimeoutError)


def is_retryable(exc: BaseException) -> bool:
    """Should this failure be re-attempted?

    Library data errors are deterministic — never retried. Everything that
    smells like infrastructure (broken pools inherit from OSError or
    RuntimeError raised by concurrent.futures, timeouts, pickling hiccups
    under memory pressure) is.
    """
    if isinstance(exc, ReproError):
        return False
    if isinstance(exc, _RETRYABLE):
        return True
    try:  # BrokenExecutor covers BrokenProcessPool
        from concurrent.futures import BrokenExecutor

        if isinstance(exc, BrokenExecutor):
            return True
    except ImportError:  # pragma: no cover - always available on 3.8+
        pass
    return False


def call_with_retry(
    fn: Callable[..., Any],
    *args: Any,
    policy: Optional[RetryPolicy] = None,
    task_name: str = "task",
    sleep: Callable[[float], None] = time.sleep,
    retryable: Callable[[BaseException], bool] = is_retryable,
) -> Any:
    """Invoke ``fn(*args)`` under a retry policy.

    Non-retryable exceptions propagate unchanged on first occurrence.
    Retryable ones are re-attempted with backoff; once attempts are
    exhausted a :class:`~repro.errors.TaskFailedError` is raised carrying
    the task name, the attempt count and the last cause.
    """
    policy = policy or RetryPolicy()
    delays = policy.delays()
    last: Optional[BaseException] = None
    for attempt in range(1, policy.max_attempts + 1):
        try:
            return fn(*args)
        except BaseException as exc:
            if not retryable(exc):
                raise
            last = exc
            if attempt < policy.max_attempts:
                obs.inc("autosens_task_retries_total",
                        error=type(exc).__name__)
                sleep(next(delays))
    obs.inc("autosens_task_failures_total", error=type(last).__name__)
    raise TaskFailedError(task_name, policy.max_attempts, last) from last
