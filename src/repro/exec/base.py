"""The executor protocol: one contract, four dispatch strategies.

Every campaign in this repo — a :func:`repro.api.run_sweep` grid, a
:func:`repro.sim.chaos.run_chaos` seed batch, a
:func:`repro.sim.resilience.run_resilience_spec` replicate fan-out, a
:func:`repro.risk.evaluate.evaluate_designs` (design × scenario) grid —
is the same shape: a list of independent, picklable tasks evaluated by
one module-level function, whose results must come back **in stable
task order** and **bit-identical** no matter where the work physically
ran.  All four run through :func:`repro.exec.run_campaign`, which wraps
each task in private collectors and calls :meth:`Executor.submit_map`;
the dispatch strategy is a plugin:

* :class:`~repro.exec.local.SerialExecutor` — the in-process reference
  implementation every other backend must match bit-for-bit;
* :class:`~repro.exec.local.ThreadExecutor` — a thread pool (the
  evaluation hot paths are numpy-heavy, so threads overlap real work);
* :class:`~repro.exec.local.ProcessExecutor` — chunked dispatch over a
  fork-prewarmed ``ProcessPoolExecutor`` (the PR 7 fast path);
* :class:`~repro.exec.jobfile.JobFileExecutor` — a shared job directory
  of claimable task files drained cooperatively by N ``repro worker``
  processes on one or many hosts, with crash-safe re-claim.

The contract of :meth:`Executor.submit_map`:

* ``fn`` is a **module-level picklable** callable; ``fn(task.payload)``
  evaluates one task.  Determinism is the caller's promise — given that,
  every backend returns byte-equal results.
* results return as a list aligned with ``tasks`` (stable order), no
  matter the completion order.
* a task that raises is retried up to ``retries`` times; when the
  budget is exhausted the exception propagates (after the campaign is
  told via ``point_error``), aborting the campaign like the historical
  loops did.
* ``task_timeout`` bounds a single task's runtime.  Pool backends
  enforce it while waiting (the campaign aborts with
  :class:`TaskTimeoutError`; in-flight work is abandoned);
  :class:`SerialExecutor` can only detect the overrun after the task
  returns; the jobfile backend maps it onto the claim lease, where an
  expired task is *re-claimed* rather than fatal.
* ``campaign`` (a :class:`repro.obs.progress.Campaign` or ``None``)
  receives ``point_started`` / ``point_finished`` / ``point_error``
  calls and, for process backends, worker heartbeats — feeding the run
  journal and the live progress view.  Telemetry is observation-only:
  results are bit-identical with or without it.
* ``prewarm`` is an optional zero-arg callable that backends running
  tasks in **forked** children invoke once, pre-fork, so expensive
  caches (the fingerprint-keyed instance cache) are inherited through
  copy-on-write memory.  In-process backends skip it: their caches warm
  lazily on first use.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Sequence

__all__ = [
    "Task",
    "TaskError",
    "TaskTimeoutError",
    "Executor",
    "fragment_describer",
]


class TaskError(RuntimeError):
    """A task failed permanently (retry budget exhausted or unrecoverable)."""


class TaskTimeoutError(TaskError):
    """A task exceeded the executor's per-task timeout."""


@dataclass(frozen=True)
class Task:
    """One unit of campaign work: a stable index, a label, a payload.

    ``index`` is the campaign-wide point index (what the journal and
    progress view key on); ``label`` is the human-readable point name;
    ``payload`` is the picklable argument handed to the campaign's
    worker function.
    """

    index: int
    label: str
    payload: Any


def fragment_describer(task: Task, outcome: Any) -> dict:
    """Finish-record fields for the repo's ``(result, registry, fragment)``
    worker convention.

    Every campaign task run by :func:`repro.exec.run_campaign` returns
    its result alongside a private
    :class:`~repro.obs.metrics.MetricsRegistry` and a
    :class:`~repro.obs.manifest.RunManifest` fragment; this shared
    describer extracts the point's wall-clock (the fragment's phase
    keyed by the task label) and counter snapshot for the journal's
    authoritative finish record.
    """
    try:
        _result, registry, fragment = outcome
    except (TypeError, ValueError):
        return {}
    fields: dict = {}
    phases = getattr(fragment, "phases", None)
    if phases and task.label in phases:
        fields["seconds"] = phases[task.label]
    elif getattr(fragment, "total_seconds", None):
        fields["seconds"] = fragment.total_seconds
    snapshot = getattr(registry, "snapshot", None)
    if snapshot is not None:
        fields["counters"] = snapshot()["counters"]
    return fields


class Executor(ABC):
    """The pluggable dispatch strategy behind every campaign runner.

    Subclasses implement :meth:`submit_map`; the base class provides the
    retrying serial loop (:meth:`_run_serial`) that doubles as the
    reference semantics — every backend is required to reproduce its
    results bit-for-bit.
    """

    #: Registry name ("serial", "thread", "process", "jobfile").
    name: str = "executor"
    #: True when tasks run in forked children (prewarm hook applies).
    forks: bool = False

    def __init__(self, retries: int = 0,
                 task_timeout: float | None = None) -> None:
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError(
                f"task_timeout must be positive, got {task_timeout}"
            )
        self.retries = retries
        self.task_timeout = task_timeout

    @abstractmethod
    def submit_map(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[Task],
        *,
        campaign=None,
        prewarm: Callable[[], None] | None = None,
        describe: Callable[[Task, Any], dict] | None = None,
    ) -> list:
        """Evaluate ``fn(task.payload)`` for every task; results in task
        order.  See the module docstring for the full contract."""

    # --- shared serial reference loop ----------------------------------------

    def _run_serial(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[Task],
        campaign=None,
        describe: Callable[[Task, Any], dict] | None = None,
    ) -> list:
        """The reference implementation: in-process, in order, retrying.

        Used directly by :class:`SerialExecutor` and as the pool
        backends' short-circuit for trivially small batches (one task,
        or one worker) where pool overhead buys nothing.
        """
        results = []
        for task in tasks:
            if campaign is not None:
                campaign.point_started(task.index, task.label)
            try:
                result, elapsed = self._call_with_retries(fn, task)
            except BaseException as exc:
                if campaign is not None:
                    campaign.point_error(task.index, task.label, exc)
                raise
            results.append(result)
            if campaign is not None:
                fields = dict(describe(task, result)) if describe else {}
                fields.setdefault("seconds", elapsed)
                campaign.point_finished(task.index, task.label, **fields)
        return results

    def _call_with_retries(self, fn: Callable[[Any], Any],
                           task: Task) -> tuple[Any, float]:
        """``(result, seconds)`` of one task under the retry budget.

        The per-task timeout is checked after the call returns — an
        in-process executor cannot preempt running Python — so a serial
        overrun aborts the campaign *at* the slow task rather than
        silently blowing the bound.
        """
        attempt = 0
        while True:
            started = time.perf_counter()
            try:
                result = fn(task.payload)
            except Exception:
                if attempt >= self.retries:
                    raise
                attempt += 1
                continue
            elapsed = time.perf_counter() - started
            if self.task_timeout is not None and elapsed > self.task_timeout:
                raise TaskTimeoutError(
                    f"task {task.index} ({task.label}) took {elapsed:.2f}s, "
                    f"exceeding the {self.task_timeout:.2f}s task timeout"
                )
            return result, elapsed
