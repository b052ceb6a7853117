"""The four benchmark workloads: inputs, one pass, and checked outputs.

Each workload is a :class:`Workload` with three hooks:

* ``build(seed, warm)`` makes the inputs of one pass.  ``warm=True``
  gives the reduced warm-up variant, which runs the same code paths on
  a different seed at a smaller size, so it fills lazy imports and
  first-call costs without memoising anything a timed pass could reuse.
* ``run(inputs)`` is the timed call into the program.
* ``outputs(result)`` reduces the result to the values checked against
  ``reference.json``; ``operations(result)`` counts the sweep points,
  simulation runs, resilience runs or risk cells a pass attempted.

``repro`` is imported only inside these hooks, so a fresh process can
time "import repro + build the inputs" as the workload's set-up.
"""

from __future__ import annotations

import dataclasses
import inspect
import math
import sys
from dataclasses import dataclass
from typing import Any, Callable

#: Relative tolerance for floats, the same as the golden files.
FLOAT_RTOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Workload seeds that ``run.py --seed`` cycles through, and the
    #: seed of the warm-up that goes with each.  Every one of them has a
    #: recorded reference.
    seeds: tuple[int, ...]
    warm_seeds: tuple[int, ...]
    build: Callable[[int, bool], Any]
    run: Callable[[Any], Any]
    outputs: Callable[[Any], dict]
    operations: Callable[[Any], int]
    #: True when ``outputs`` has one key per operation, so a mismatch
    #: fails only that operation; otherwise it fails the whole pass.
    keyed_by_operation: bool = False
    #: Registry counters checked in traced passes, besides ``outputs``.
    counters: tuple[str, ...] = ()

    def seeds_for(self, seed_arg: int) -> tuple[int, int]:
        """``(timed seed, warm-up seed)`` for ``run.py --seed seed_arg``."""
        i = seed_arg % len(self.seeds)
        return self.seeds[i], self.warm_seeds[i]


def reference_key(seed: int, warm: bool) -> str:
    return f"{'warm' if warm else 'full'}-{seed}"


def clear_program_caches() -> None:
    """Drop results the program memoises across calls in one process.

    A user runs one sweep or design per invocation, so no timed pass may
    reuse results of an earlier pass.  Every loaded ``repro`` module is
    searched for ``functools`` caches and for zero-argument functions
    named ``clear_*cache*`` (``clear_instance_cache`` today), so a cache
    added later is cleared as long as it follows either convention.
    """
    for name, module in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        for attr, value in list(vars(module).items()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
            elif (inspect.isfunction(value) and value.__module__ == name
                    and attr.startswith("clear_") and "cache" in attr
                    and not inspect.signature(value).parameters):
                value()


# --- analyze-sweep -----------------------------------------------------------

#: Fig. 4-6 cluster sizes at 10,000 peers, at the default and at
#: Appendix C's low query rate.
SWEEP_CLUSTER_SIZES = (2, 5, 10, 20, 50, 100, 200, 500, 1000)
SWEEP_QUERY_RATES = (9.26e-3, 9.26e-4)


def _sweep_build(seed: int, warm: bool):
    from repro import Configuration
    from repro.api import SweepSpec

    sizes = SWEEP_CLUSTER_SIZES[-3:] if warm else SWEEP_CLUSTER_SIZES
    return SweepSpec(
        name="analyze-sweep",
        base=Configuration(graph_size=10_000, avg_outdegree=3.1, ttl=7),
        grid={"cluster_size": sizes, "query_rate": SWEEP_QUERY_RATES},
        trials=2, max_sources=120, seed=seed, executor="serial",
    )


def _sweep_run(spec):
    from repro.api import run_sweep

    return run_sweep(spec)


def _sweep_outputs(result) -> dict:
    return {
        point.label: {
            metric: [ci.mean, ci.half_width]
            for metric, ci in sorted(point.summary.intervals.items())
        }
        for point in result.points
    }


# --- simulate ------------------------------------------------------------------

SIM_PEERS = 20_000
SIM_DURATION = 600.0


def _sim_build(seed: int, warm: bool):
    from repro import Configuration
    from repro.topology.builder import build_instance

    instance = build_instance(Configuration(graph_size=SIM_PEERS), seed=seed)
    return instance, seed + 1, (60.0 if warm else SIM_DURATION)


def _sim_run(inputs):
    from repro.sim.network import simulate_instance

    instance, rng, duration = inputs
    # A field-for-field copy starts without the instance's cached
    # properties, so no pass reuses another's derived arrays.
    return simulate_instance(dataclasses.replace(instance), duration=duration,
                             rng=rng, engine="array")


def _sim_outputs(report) -> dict:
    return {
        "num_queries": report.num_queries,
        "num_joins": report.num_joins,
        "num_updates": report.num_updates,
        "mean_reach_clusters": report.mean_reach_clusters,
    }


# --- resilience-gossip ---------------------------------------------------------

def _resilience_build(seed: int, warm: bool):
    from repro import Configuration
    from repro.sim import (
        CrashSpec, DetectorSpec, FaultPlan, RecoveryPolicy, ResilienceSpec,
    )

    return ResilienceSpec(
        config=Configuration(graph_size=1_000, cluster_size=10,
                             redundancy=True),
        plan=FaultPlan(message_loss=0.03,
                       crash=CrashSpec(mean_recovery=90.0)),
        duration=60.0 if warm else 240.0,
        seed=seed,
        recovery=RecoveryPolicy(detector=DetectorSpec(mode="gossip")),
        engine="array",
        executor="serial",
    )


def _resilience_run(spec):
    from repro.sim import run_resilience_spec

    return run_resilience_spec(spec)


def _resilience_outputs(result) -> dict:
    report = result.report
    return {
        "gossip_rumors": report.outcome.gossip_rumors_sent,
        "gossip_suspicions": report.outcome.gossip_suspicions,
        "gossip_refutations": report.outcome.gossip_refutations,
        "num_queries": report.degraded.num_queries,
    }


# --- design-risk ---------------------------------------------------------------

def _risk_build(seed: int, warm: bool):
    from repro.core.design import DesignConstraints
    from repro.risk import RiskSpec

    constraints = DesignConstraints(
        num_users=600,
        desired_reach_peers=300,
        max_incoming_bps=200_000.0,
        max_outgoing_bps=200_000.0,
        max_processing_hz=20_000_000.0,
        max_connections=80,
    )
    spec = RiskSpec(
        cutoff=0.05, alpha=0.9, availability_target=0.9, duration=60.0,
        seed=seed, max_candidates=1 if warm else 3, mean_recovery=30.0,
        executor="serial",
    )
    return constraints, spec


def _risk_run(inputs):
    from repro.core.design import design_topology

    constraints, spec = inputs
    return design_topology(constraints, trials=1, max_sources=60, risk=spec)


def _risk_outputs(outcome) -> dict:
    return {
        "ranked": [a.label for a in outcome.assessments],
        "chosen": None if outcome.chosen is None else outcome.chosen.label,
    }


def _risk_cells(outcome) -> int:
    # One fault-free baseline cell per design plus one per failure
    # scenario (the nominal scenario reuses the baseline).
    return sum(1 + sum(1 for s in a.scenarios if s.failed)
               for a in outcome.assessments)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="analyze-sweep",
            why="the paper's Fig. 4-6 sweep at two query rates: MVA floods "
                "and reverse-path sums, half of the floods repeated",
            seeds=(0, 1, 2, 3, 4, 5, 6, 7),
            warm_seeds=(1, 2, 3, 4, 5, 6, 7, 0),
            build=_sweep_build, run=_sweep_run, outputs=_sweep_outputs,
            operations=lambda result: len(result.points),
            keyed_by_operation=True,
        ),
        Workload(
            name="simulate",
            why="fault-free array-engine run of 20,000 peers: batched "
                "floods only, no MVA, faults or gossip",
            seeds=(0, 1, 2, 3, 4, 5, 6, 7),
            warm_seeds=(1, 2, 3, 4, 5, 6, 7, 0),
            build=_sim_build, run=_sim_run, outputs=_sim_outputs,
            operations=lambda report: 1,
            counters=("sim.queries", "sim.query_messages"),
        ),
        Workload(
            name="resilience-gossip",
            why="faulty gossip-detector run: fault sampling and rumor "
                "merging on the event core",
            seeds=(2, 3, 4, 5, 6, 7, 8, 9),
            warm_seeds=(3, 4, 5, 6, 7, 8, 9, 2),
            build=_resilience_build, run=_resilience_run,
            outputs=_resilience_outputs,
            operations=lambda result: len(result.reports),
        ),
        Workload(
            name="design-risk",
            why="risk-aware design: many short faulty runs without gossip, "
                "and the only workload through the risk layer",
            # Only spec seed 0 yields the stated 49 scenario cells; seeds
            # 1-39 of this population enumerate 93 to 1,463, so every
            # timed pass runs seed 0 and the warm-up runs seed 1.
            seeds=(0,),
            warm_seeds=(1,),
            build=_risk_build, run=_risk_run, outputs=_risk_outputs,
            operations=_risk_cells,
        ),
    )
}


def _close(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None:
        return a == b
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return math.isclose(a, b, rel_tol=FLOAT_RTOL, abs_tol=0.0) or a == b
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    return a == b


def mismatches(got: dict, want: dict) -> list[str]:
    """Top-level output keys whose values differ from the reference.

    Integers and labels must match exactly and floats within
    :data:`FLOAT_RTOL`; a missing or extra key is a mismatch.
    """
    keys = sorted(set(got) | set(want))
    return [k for k in keys
            if k not in got or k not in want or not _close(got[k], want[k])]
