"""A fault-tolerant wrapper around any executor backend.

:class:`ResilientExecutor` composes three orthogonal behaviors on top of an
inner executor's ``map_ordered``:

1. **Checkpointing** — with a :class:`~repro.parallel.checkpoint.CheckpointJournal`
   attached, every completed task result is journaled *as it finishes*
   (tasks are wrapped in a picklable journaling shim, so process workers
   checkpoint too); a re-run serves finished tasks from disk and only
   executes the remainder, even when the previous run died mid-sweep.
2. **Crash recovery** — if the inner backend fails with an infrastructure
   error (a crashed worker, a broken pool, a timeout), the missing tasks
   are re-executed on the in-process serial path. Tasks are pure in their
   payloads, so the recomputed results are bit-identical.
3. **Retries** — each serial re-execution runs under a
   :class:`~repro.parallel.retry.RetryPolicy`; exhausting it raises
   :class:`~repro.errors.TaskFailedError` with the task name, attempt
   count and last cause.

An ambient :class:`~repro.runtime.deadline.Deadline` bounds the recovery
loop at every task boundary.

Determinism is preserved throughout: results always come back in input
order, and which backend (or journal) produced a result is unobservable.
"""

from __future__ import annotations

import time
from typing import Any, Callable, List, Optional, Sequence

import repro.obs as obs
from repro.parallel.checkpoint import CheckpointJournal
from repro.parallel.executor import Executor, SerialExecutor, _task_name
from repro.parallel.retry import RetryPolicy, call_with_retry, is_retryable
from repro.runtime.deadline import check_deadline

__all__ = ["ResilientExecutor"]

_PENDING = object()


def _task_key(checkpoint: CheckpointJournal, fn: Callable[[Any], Any], item: Any) -> str:
    """Content hash of one task's identity (function + payload)."""
    name = getattr(fn, "__qualname__", repr(fn))
    module = getattr(fn, "__module__", "")
    return checkpoint.key_for(f"{module}.{name}", item)


class _Journaled:
    """Picklable shim: run the task, journal its result, return it.

    Keys are derived from the *wrapped* function, so a resumed run (which
    wraps the same function again) finds the same entries. Journaling
    happens inside the task itself — in a process worker that means the
    checkpoint lands on disk the moment the task finishes, so a run killed
    mid-sweep still leaves its completed tasks behind.
    """

    def __init__(self, fn: Callable[[Any], Any], checkpoint: CheckpointJournal) -> None:
        self.fn = fn
        self.checkpoint = checkpoint
        # Mirror the wrapped function's identity so span keys (derived from
        # the qualname) are identical whether a task runs wrapped on a cold
        # run or is re-keyed on a resumed one.
        self.__qualname__ = getattr(fn, "__qualname__", type(fn).__name__)
        self.__module__ = getattr(fn, "__module__", "")

    def __call__(self, item: Any) -> Any:
        value = self.fn(item)
        self.checkpoint.put(_task_key(self.checkpoint, self.fn, item), value)
        return value


class ResilientExecutor:
    """Wrap ``inner`` with retry, crash-fallback and checkpoint semantics."""

    def __init__(
        self,
        inner: Optional[Executor] = None,
        retry: Optional[RetryPolicy] = None,
        checkpoint: Optional[CheckpointJournal] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.inner = inner if inner is not None else SerialExecutor()
        self.retry = retry or RetryPolicy()
        self.checkpoint = checkpoint
        self._sleep = sleep

    def map_ordered(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        chunk_size: Optional[int] = None,
    ) -> List[Any]:
        items = list(items)
        if not items:
            return []
        results: List[Any] = [_PENDING] * len(items)

        # Serve journaled results first; only the rest run.
        pending: List[int] = []
        work_fn: Callable[[Any], Any] = fn
        if self.checkpoint is not None:
            traced = obs.enabled()
            name = _task_name(fn)
            work_fn = _Journaled(fn, self.checkpoint)
            for i, item in enumerate(items):
                hit, value = self.checkpoint.fetch(_task_key(self.checkpoint, fn, item))
                if hit:
                    results[i] = value
                    obs.inc("autosens_checkpoint_total", outcome="hit")
                    if traced:
                        # A zero-work span with the task's canonical key, so
                        # a resumed run's trace shows the cached task under
                        # the *same* span id the cold run used.
                        with obs.span("task", key=f"{name}[{i}]", task=name,
                                      index=i, cached=True):
                            pass
                else:
                    pending.append(i)
                    obs.inc("autosens_checkpoint_total", outcome="miss")
        else:
            pending = list(range(len(items)))

        if pending:
            try:
                fresh = self.inner.map_ordered(
                    work_fn, [items[i] for i in pending], chunk_size=chunk_size
                )
            except BaseException as exc:
                if not is_retryable(exc):
                    raise
                # The whole backend failed (e.g. BrokenProcessPool killed
                # every in-flight future). Recover task by task on the
                # serial path — purity makes the results bit-identical.
                # Tasks the dying pool did finish are already journaled, so
                # check the journal before recomputing each one.
                obs.inc("autosens_crash_recoveries_total",
                        error=type(exc).__name__)
                fresh = []
                for i in pending:
                    check_deadline(f"resilient recovery task[{i}]")
                    if self.checkpoint is not None:
                        hit, value = self.checkpoint.fetch(
                            _task_key(self.checkpoint, fn, items[i])
                        )
                        if hit:
                            fresh.append(value)
                            continue
                    fresh.append(call_with_retry(
                        work_fn, items[i],
                        policy=self.retry,
                        task_name=f"task[{i}]",
                        sleep=self._sleep,
                    ))
            for i, value in zip(pending, fresh):
                results[i] = value
        return results

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ResilientExecutor(inner={self.inner!r}, retry={self.retry!r}, "
                f"checkpoint={'on' if self.checkpoint else 'off'})")
