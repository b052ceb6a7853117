"""Pluggable campaign executors and the one runner every campaign uses.

See :mod:`repro.exec.base` for the :class:`Executor` protocol and
:func:`make_executor` for the name → backend resolution the specs and
the CLI share.  :func:`run_campaign` is the plumbing around a dispatch
that :func:`repro.api.run_sweep`, :func:`repro.sim.chaos.run_chaos`,
:func:`repro.sim.resilience.run_resilience_spec` and
:func:`repro.risk.evaluate.evaluate_designs` all share: backend
resolution, the journal/progress campaign, per-task private collectors,
and the task-order fold of registries and manifest fragments.  Each
runner keeps only the building of its tasks and the assembly of its
results.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

from ..obs.manifest import RunManifest, config_fingerprint, git_revision
from ..obs.metrics import MetricsRegistry, use_registry
from ..obs.progress import start_campaign
from .base import Executor, Task, TaskError, TaskTimeoutError, fragment_describer
from .jobfile import JobFileExecutor, run_worker
from .local import ProcessExecutor, SerialExecutor, ThreadExecutor

__all__ = [
    "Executor",
    "Task",
    "TaskError",
    "TaskTimeoutError",
    "fragment_describer",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "JobFileExecutor",
    "run_worker",
    "make_executor",
    "check_executor_name",
    "EXECUTOR_NAMES",
    "CampaignRun",
    "run_campaign",
]

#: The names ``--executor`` and the spec ``executor`` fields accept.
EXECUTOR_NAMES = ("serial", "thread", "process", "jobfile")


def check_executor_name(name: str | None) -> str | None:
    """``name`` if it is ``None`` or one of :data:`EXECUTOR_NAMES`.

    The one validation the spec ``executor`` fields and
    :func:`make_executor` share; anything else raises a ``ValueError``
    that names the executor.
    """
    if name is not None and name not in EXECUTOR_NAMES:
        raise ValueError(
            f"unknown executor {name!r}; expected one of "
            f"{', '.join(EXECUTOR_NAMES)} or None"
        )
    return name


def make_executor(
    executor: "Executor | str | None" = None,
    *,
    jobs: int | None = None,
    jobdir=None,
    retries: int = 0,
    task_timeout: float | None = None,
    lease: float | None = None,
):
    """Resolve an executor name (or pass an instance through) to a backend.

    The resolution rule shared by the specs and the CLI:

    * an :class:`Executor` instance is returned unchanged;
    * ``None`` keeps the historical semantics — ``jobs`` > 1 implies
      ``process`` (the documented "``--jobs`` without ``--executor``"
      rule), anything else runs ``serial``;
    * ``"serial" | "thread" | "process" | "jobfile"`` select explicitly.

    ``jobs=0`` is only meaningful for ``jobfile`` (the job waits for
    external ``repro worker`` processes); every other backend needs at
    least one lane.
    """
    if isinstance(executor, Executor):
        return executor
    if jobs is not None and jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    if executor is None:
        executor = "process" if jobs is not None and jobs > 1 else "serial"
    name = check_executor_name(str(executor).lower())
    if name != "jobfile" and jobs == 0:
        raise ValueError(
            "jobs=0 means 'external workers only' and requires "
            "executor='jobfile'"
        )
    if name == "serial":
        return SerialExecutor(retries=retries, task_timeout=task_timeout)
    if name == "thread":
        return ThreadExecutor(jobs=jobs, retries=retries,
                              task_timeout=task_timeout)
    if name == "process":
        return ProcessExecutor(jobs=jobs, retries=retries,
                               task_timeout=task_timeout)
    return JobFileExecutor(
        jobdir=jobdir, workers=1 if jobs is None else jobs,
        retries=retries, task_timeout=task_timeout, lease=lease,
    )


@dataclass
class CampaignRun:
    """A finished campaign: task results plus the merged observability record.

    ``results`` align with the campaign's points; ``registry`` and
    ``manifest`` are folded from the per-task collectors in point order.
    ``registry`` is *not* absorbed into the ambient registry — callers
    that report metrics absorb it themselves.
    """

    results: list
    registry: MetricsRegistry
    manifest: RunManifest
    jobs: int


def _run_collected(payload: tuple) -> tuple:
    """Evaluate one task under private collectors.

    ``payload`` is ``(fn, label, arg)``: the runner's bare evaluation
    function, the task label that names the manifest fragment and its
    phase, and the argument.  Returns the repo's ``(result, registry,
    fragment)`` task convention, which :func:`fragment_describer` reads
    for the journal's finish records.  Module-level so every backend can
    ship it: process pools pickle it by reference and the jobfile
    backend resolves it as ``repro.exec:_run_collected``.
    """
    fn, label, arg = payload
    registry = MetricsRegistry()
    fragment = RunManifest(name=label)
    with use_registry(registry):
        with fragment.phase(label):
            result = fn(arg)
    fragment.finish()
    return result, registry, fragment


def run_campaign(
    name: str,
    fn: Callable[[Any], Any],
    points: Sequence[tuple[str, Any, dict]],
    *,
    config: Any = None,
    seed: Any = None,
    header_extra: dict | None = None,
    manifest_extra: dict | None = None,
    prewarm: Callable[[], None] | None = None,
    executor: Executor | str | None = None,
    jobs: int | None = None,
    jobdir: str | Path | None = None,
    retries: int = 0,
    task_timeout: float | None = None,
    journal=None,
    progress=None,
) -> CampaignRun:
    """Evaluate ``fn(arg)`` for every ``(label, arg, detail)`` point.

    The one runner behind the sweep, chaos, resilience and risk-design
    campaigns.  It resolves the backend through :func:`make_executor`,
    opens the journal/progress campaign (header: one plan row per point
    with ``detail`` verbatim, the fingerprint of ``config``, the git
    revision, ``seed``, the backend name and ``header_extra``), and runs
    point *i* as ``Task(i, label, ...)`` under a private registry and
    manifest fragment.  A dispatch that raises ends the campaign with
    ``status="error"`` and re-raises.  The fragments fold in point order
    into a manifest named ``name`` carrying ``manifest_extra`` plus the
    backend's ``jobs`` and name.  The git revision is read once, for
    both header and manifest.  ``fn`` must be module-level for the
    process and jobfile backends; ``prewarm`` goes to
    :meth:`Executor.submit_map`.
    """
    backend = make_executor(executor, jobs=jobs, jobdir=jobdir,
                            retries=retries, task_timeout=task_timeout)
    config_hash = None if config is None else config_fingerprint(config)
    git_rev = git_revision(Path(__file__).resolve().parent)
    campaign = start_campaign(
        journal, progress,
        name=name, total=len(points), jobs=backend.jobs,
        plan=[{"index": i, "label": label, "detail": detail}
              for i, (label, _arg, detail) in enumerate(points)],
        config_hash=config_hash, git_rev=git_rev, seed=seed,
        extra={"executor": backend.name, **(header_extra or {})},
    )
    tasks = [Task(i, label, (fn, label, arg))
             for i, (label, arg, _detail) in enumerate(points)]
    try:
        outcomes = backend.submit_map(
            _run_collected, tasks,
            campaign=campaign, prewarm=prewarm, describe=fragment_describer,
        )
    except BaseException:
        if campaign is not None:
            campaign.finish(status="error")
        raise
    if campaign is not None:
        campaign.finish()

    manifest = RunManifest(
        name=name, config_hash=config_hash, git_rev=git_rev, seed=seed,
        extra={**(manifest_extra or {}), "jobs": backend.jobs,
               "executor": backend.name},
    )
    registry = MetricsRegistry()
    results = []
    for result, task_registry, fragment in outcomes:
        registry.absorb(task_registry)
        manifest = manifest.merge(fragment, name=name)
        results.append(result)
    manifest.finish(registry)
    return CampaignRun(results=results, registry=registry,
                       manifest=manifest, jobs=backend.jobs)
