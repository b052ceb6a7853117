"""Which layers the traced run times, and what each should move.

This is the benchmark's prediction table: for every layer it names the
public binding that callers use, the end-to-end metric the layer should
move, the workloads where it must do work and the workloads where it
must do none.  The traced run checks both kinds of prediction and fails
when a layer is silent where work is predicted (a refactor moved the
call) or busy where none is.

``share`` is the layer's share of the workload's ``wall_s`` as profiled
on a 2-core x86-64 container with Python 3.11, numpy 2 and the default
sizes; it is context for later changes, not a check.
"""

from __future__ import annotations

from dataclasses import dataclass

SWEEP, SIM, GOSSIP, RISK = (
    "analyze-sweep", "simulate", "resilience-gossip", "design-risk",
)


@dataclass(frozen=True)
class Layer:
    #: Layer name, ``<module path under repro>.<function>``.
    name: str
    #: The wrapped binding: ``module:function`` or ``module:Class.method``.
    target: str
    #: End-to-end metrics a change to the layer should move.
    moves: tuple[str, ...]
    #: Workloads whose traced pass must call the layer at least once.
    work: tuple[str, ...]
    #: Workloads whose traced pass must not call the layer.
    idle: tuple[str, ...]
    share: str = ""


LAYERS = (
    Layer("topology.build_instance", "repro.topology.builder:build_instance",
          ("wall_s",), (SWEEP, GOSSIP, RISK), (SIM,),
          "analyze-sweep ~3%"),
    Layer("querymodel.cluster_expectations",
          "repro.querymodel.expectation:cluster_expectations",
          ("wall_s",), (SWEEP, RISK), (SIM, GOSSIP),
          "analyze-sweep ~5%"),
    Layer("core.routing.propagate_query",
          "repro.core.routing:propagate_query",
          ("wall_s",), (SWEEP, RISK), (SIM, GOSSIP),
          "analyze-sweep ~46%"),
    Layer("core.routing.accumulate_to_source",
          "repro.core.routing:QueryPropagation.accumulate_to_source",
          ("wall_s",), (SWEEP, RISK), (SIM, GOSSIP),
          "analyze-sweep ~21%"),
    Layer("core.load.evaluate_instance", "repro.core.load:evaluate_instance",
          ("wall_s",), (SWEEP, RISK), (SIM, GOSSIP),
          "analyze-sweep ~20% self time"),
    Layer("sim.schedule.generate_workload",
          "repro.sim.schedule:generate_workload",
          ("wall_s",), (SIM, GOSSIP, RISK), (SWEEP,)),
    Layer("sim.fastcore.flood_block", "repro.sim.fastcore:flood_block",
          ("wall_s",), (SIM, GOSSIP, RISK), (SWEEP,),
          "simulate ~93% (sim.array.flood)"),
    Layer("sim.faults.sampled_propagation",
          "repro.sim.faults:sampled_propagation",
          ("wall_s",), (GOSSIP, RISK), (SWEEP, SIM),
          "resilience-gossip ~25% with lossy_accumulate"),
    Layer("sim.faults.lossy_accumulate", "repro.sim.faults:lossy_accumulate",
          ("wall_s",), (GOSSIP, RISK), (SWEEP, SIM)),
    Layer("sim.gossip.on_flood", "repro.sim.gossip:GossipDetector.on_flood",
          ("wall_s", "peak_rss_mb"), (GOSSIP,), (SWEEP, SIM, RISK),
          "resilience-gossip ~57%"),
    Layer("sim.engine.run_until", "repro.sim.engine:Simulator.run_until",
          ("wall_s",), (GOSSIP, RISK), (SWEEP, SIM)),
    Layer("exec.submit_map", "repro.exec.local:SerialExecutor.submit_map",
          ("wall_s",), (SWEEP, GOSSIP, RISK), (SIM,)),
    Layer("risk.build_scenario_set",
          "repro.risk.evaluate:build_scenario_set",
          ("wall_s",), (RISK,), (SWEEP, SIM, GOSSIP)),
    Layer("risk.cell", "repro.risk.evaluate:RiskCell.run",
          ("wall_s",), (RISK,), (SWEEP, SIM, GOSSIP)),
)

#: Registry timers and counters the program already emits, read as-is.
REGISTRY_TIMERS = (
    "load.expectations", "load.queries", "load.joins", "load.updates",
    "sim.array.churn", "sim.array.updates", "sim.array.flood",
    "sim.array.delivery", "sim.engine.run",
)
REGISTRY_COUNTERS = (
    "sim.queries", "sim.query_messages", "sim.engine.events",
    "sim.gossip_rumors", "sim.gossip_suspicions", "sim.gossip_refutations",
    "load.query_sources_evaluated",
)

#: Every per-layer metric as ``(name, unit)``, in report order.  A
#: ``<layer>.<field>`` name reads the field of a wrapped layer: ``calls``
#: and extra counts are per pass, ``s`` is busy time and ``self_s`` busy
#: time minus the time spent in other wrapped layers it called.
PER_LAYER = (
    ("topology.build_instance.calls", "count"),
    ("topology.build_instance.s", "s"),
    ("querymodel.cluster_expectations.calls", "count"),
    ("querymodel.cluster_expectations.s", "s"),
    ("core.routing.propagate_query.calls", "count"),
    ("core.routing.propagate_query.s", "s"),
    ("core.routing.accumulate_to_source.calls", "count"),
    ("core.routing.accumulate_to_source.s", "s"),
    # Share of propagate_query calls whose (topology, source, TTL) was
    # already flooded earlier in the same pass: what a flood cache could
    # remove.  Topologies are compared by content, not object identity.
    ("core.routing.repeat_share", "ratio"),
    ("core.load.evaluate_instance.calls", "count"),
    ("core.load.evaluate_instance.self_s", "s"),
    ("sim.schedule.generate_workload.calls", "count"),
    ("sim.schedule.generate_workload.s", "s"),
    ("sim.fastcore.flood_block.calls", "count"),
    ("sim.fastcore.flood_block.sources", "count"),
    ("sim.fastcore.flood_block.s", "s"),
    # flood_block busy time per simulated query message (the
    # sim.query_messages counter); meaningful on simulate, where every
    # message comes from flood_block.
    ("sim.fastcore.ns_per_message", "ns"),
    ("sim.faults.sampled_propagation.calls", "count"),
    ("sim.faults.sampled_propagation.s", "s"),
    ("sim.faults.lossy_accumulate.calls", "count"),
    ("sim.faults.lossy_accumulate.s", "s"),
    ("sim.gossip.on_flood.calls", "count"),
    ("sim.gossip.on_flood.s", "s"),
    ("sim.engine.run_until.calls", "count"),
    ("sim.engine.run_until.self_s", "s"),
    ("exec.submit_map.tasks", "count"),
    # submit_map call time minus the time inside its tasks.
    ("exec.submit_map.overhead_s", "s"),
    ("risk.build_scenario_set.calls", "count"),
    ("risk.build_scenario_set.scenarios", "count"),
    ("risk.build_scenario_set.s", "s"),
    ("risk.cells", "count"),
    *((f"timer.{name}", "s") for name in REGISTRY_TIMERS),
    *((f"counter.{name}", "count") for name in REGISTRY_COUNTERS),
    # Traced wall_s over untraced wall_s of the same workload and seed.
    ("trace.overhead", "ratio"),
)
