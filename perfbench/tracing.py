"""Per-layer tracing from outside the program.

:class:`LayerTracer` replaces, for the length of one pass, every binding
of each layer's public function in the loaded ``repro`` modules with a
timing wrapper, and restores the originals afterwards.  Wrappers keep a
span stack, so each layer gets its busy time and its self time (busy
time minus the time of wrapped layers it called).  The tracer also
collects the program's own registry timers and counters: campaign tasks
record into private registries that their results carry, which the
wrapper around ``submit_map`` collects; everything else records into a
registry scoped around the pass.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

from layers import LAYERS, PER_LAYER, REGISTRY_COUNTERS, REGISTRY_TIMERS


class LayerTracer:
    def __init__(self) -> None:
        from repro.obs.metrics import MetricsRegistry

        self.registry = MetricsRegistry()
        self.stats = defaultdict(lambda: defaultdict(float))
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []
        self._graphs: dict[int, tuple[object, bytes]] = {}
        self._floods: set[tuple] = set()
        self._task_registries: list = []

    # --- installing and removing the wrappers -------------------------------

    def __enter__(self) -> "LayerTracer":
        from repro.obs.metrics import use_registry

        for layer in LAYERS:
            try:
                self._install(layer)
            except (AttributeError, ImportError, KeyError) as exc:
                self._restore()
                raise RuntimeError(
                    f"layer {layer.name}: cannot wrap {layer.target} ({exc}); "
                    f"update the binding in layers.py") from exc
        self._scope = use_registry(self.registry)
        self._scope.__enter__()
        return self

    def __exit__(self, *exc) -> None:
        self._scope.__exit__(*exc)
        self._restore()

    def _restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _install(self, layer) -> None:
        module_name, qualname = layer.target.split(":")
        module = importlib.import_module(module_name)
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            owner = getattr(module, cls_name)
            self._patch(owner, attr, self._wrapper(layer.name,
                                                   vars(owner)[attr]))
            return
        original = getattr(module, qualname)
        wrapper = self._wrapper(layer.name, original)
        # Callers bind the function under their own module's name, so
        # every loaded repro module holding the same object is patched.
        for name, mod in list(sys.modules.items()):
            if name == "repro" or name.startswith("repro."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrapper(self, layer: str, fn):
        # Layers with counts beyond calls and time get a hook that sees
        # each call's bound arguments and result.
        after = {
            "core.routing.propagate_query": self._count_repeat,
            "sim.fastcore.flood_block": self._count_sources,
            "risk.build_scenario_set": self._count_scenarios,
        }.get(layer)
        if layer == "exec.submit_map":
            fn = self._submit_map(fn)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += elapsed
                stat = self.stats[layer]
                stat["calls"] += 1
                stat["s"] += elapsed
                stat["self_s"] += elapsed - frame[0]
            if after is not None:
                after(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    # --- layer-specific counts ----------------------------------------------

    def _submit_map(self, submit_map):
        """Time the tasks inside ``submit_map`` and absorb their registries."""
        from repro.obs.metrics import MetricsRegistry

        stat = self.stats["exec.submit_map"]

        def wrapped(executor, fn, tasks, *args, **kwargs):
            def timed(payload):
                start = perf_counter()
                result = fn(payload)
                stat["task_s"] += perf_counter() - start
                self._task_registries.extend(
                    part for part in
                    (result if isinstance(result, tuple) else ())
                    if isinstance(part, MetricsRegistry))
                return result

            stat["tasks"] += len(tasks)
            return submit_map(executor, timed, tasks, *args, **kwargs)

        return wrapped

    def _count_repeat(self, args, result) -> None:
        blocked = args.get("blocked")
        key = (self._topology_key(args["graph"]), int(args["source"]),
               int(args["ttl"]),
               None if blocked is None else bytes(blocked.tobytes()))
        if key in self._floods:
            self.stats["core.routing.propagate_query"]["repeats"] += 1
        self._floods.add(key)

    def _topology_key(self, graph) -> bytes:
        # Keep the graph alive so its id cannot be reused within the pass.
        held = self._graphs.get(id(graph))
        if held is None or held[0] is not graph:
            digest = hashlib.blake2b(repr(graph.num_nodes).encode())
            for field in ("indptr", "indices"):
                array = getattr(graph, field, None)
                if array is not None:
                    digest.update(array.tobytes())
            held = self._graphs[id(graph)] = (graph, digest.digest())
        return held[1]

    def _count_sources(self, args, result) -> None:
        self.stats["sim.fastcore.flood_block"]["sources"] += len(result.sources)

    def _count_scenarios(self, args, result) -> None:
        self.stats["risk.build_scenario_set"]["scenarios"] += len(
            result.scenarios)

    # --- the report ---------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except ``trace.overhead``."""
        while self._task_registries:
            self.registry.absorb(self._task_registries.pop())
        snapshot = self.registry.snapshot()
        values: dict[str, float] = {}
        for layer in LAYERS:
            for field, value in self.stats[layer.name].items():
                values[f"{layer.name}.{field}"] = value
        for name in REGISTRY_TIMERS:
            timer = snapshot["timers"].get(name)
            values[f"timer.{name}"] = timer["total_seconds"] if timer else 0.0
        for name in REGISTRY_COUNTERS:
            values[f"counter.{name}"] = snapshot["counters"].get(name, 0.0)

        floods = values.get("core.routing.propagate_query.calls", 0.0)
        values["core.routing.repeat_share"] = (
            values.get("core.routing.propagate_query.repeats", 0.0) / floods
            if floods else 0.0
        )
        messages = values["counter.sim.query_messages"]
        values["sim.fastcore.ns_per_message"] = (
            values.get("sim.fastcore.flood_block.s", 0.0) * 1e9 / messages
            if messages else 0.0
        )
        submit = self.stats["exec.submit_map"]
        values["exec.submit_map.overhead_s"] = submit["s"] - submit["task_s"]
        values["risk.cells"] = self.stats["risk.cell"]["calls"]
        return {name: float(values.get(name, 0.0))
                for name, _unit in PER_LAYER if name != "trace.overhead"}

    def prediction_failures(self, workload: str) -> list[str]:
        """Layers silent where the table predicts work, or busy where
        it predicts none."""
        failures = []
        for layer in LAYERS:
            calls = self.stats[layer.name]["calls"]
            if workload in layer.work and calls == 0:
                failures.append(
                    f"{layer.name}: 0 calls on {workload}, where the layer "
                    f"table predicts work; did a refactor move the call "
                    f"away from {layer.target}?")
            if workload in layer.idle and calls != 0:
                failures.append(
                    f"{layer.name}: {calls:.0f} calls on {workload}, where "
                    f"the layer table predicts none")
        return failures
