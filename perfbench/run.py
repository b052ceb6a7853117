#!/usr/bin/env python3
"""The repository benchmark: run one workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload analyze-sweep --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --all            # every workload, as a table
    python3 perfbench/run.py --record         # rewrite reference.json

The last line of a workload run is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``:

* ``setup_s`` - median over fresh processes of the time to import
  ``repro`` and build the workload's inputs;
* ``wall_s`` - median wall-clock of one warm pass;
* ``peak_rss_mb`` - peak resident memory of the process running the
  passes.

Both times are wall-clock scaled to a reference host speed by the
calibration loop of ``calibration.py``, which runs next to every timing;
the raw pass times go to standard error.

``attempted`` counts the operations of every checked pass (sweep
points, simulation runs, resilience runs, risk cells) and ``failed``
those that raised or whose outputs differ from ``reference.json``;
``failed / attempted`` is the ``failed_frac`` that ``--all`` prints.

With ``--trace 1`` the run alternates untraced and traced passes and
reports the per-layer metrics of ``layers.py`` from the traced ones.
It exits with status 1, printing no result, when a layer's call count
contradicts the prediction table.

Each run clears the program's caches before every pass (see
``workloads.clear_program_caches``) and warms up on another seed, so no
timed pass reuses results of an earlier one.  Without a ``src/repro``
package next to ``perfbench/`` the run exits with status 2.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import resource
import subprocess
import sys
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference.json"

#: Fresh processes timed for ``setup_s``, this one included.
SETUP_PROBES = 3
#: Fewest timed passes of a ``--trace 0`` run, however long they take.
MIN_PASSES = 3
#: A run whose last line is not a result ends with this status.
EXIT_ERROR = 2


def _use_checkout() -> bool:
    """Put the checkout's ``src`` on the path; False when it has none."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    return True


class Checker:
    """Counts attempted and failed operations against ``reference.json``."""

    def __init__(self, workload, references: dict) -> None:
        self.workload = workload
        self.references = references
        self.attempted = 0
        self.failed = 0

    def check(self, key: str, result, error: BaseException | None,
              counters: dict | None = None) -> None:
        from workloads import mismatches

        want = self.references[key]
        if error is not None:
            self._fail(want["operations"], f"{key}: raised {error!r}")
            return
        ops = self.workload.operations(result)
        self.attempted += ops
        bad = mismatches(self.workload.outputs(result), want["outputs"])
        if counters is not None:
            bad += [f"counter.{name}" for name in mismatches(
                counters, want["counters"])]
        if ops != want["operations"]:
            bad.append(f"{ops} operations, reference has "
                       f"{want['operations']}")
        if not bad:
            return
        failed = (len(bad) if self.workload.keyed_by_operation
                  else ops)
        self.failed += min(ops, failed)
        print(f"{self.workload.name} {key}: outputs differ from the "
              f"reference at {bad[:5]}", file=sys.stderr)

    def _fail(self, ops: int, message: str) -> None:
        self.attempted += ops
        self.failed += ops
        print(f"{self.workload.name} {message}", file=sys.stderr)


def _fresh_heap() -> None:
    """Collect garbage and hand freed heap pages back to the system.

    Without the trim, heap fragments left by earlier passes raise the
    next pass's peak: ``peak_rss_mb`` then drifts from 229 to 264 MB on
    simulate depending on pass order, instead of reading one pass's own
    peak as a fresh process would.
    """
    gc.collect()
    try:
        trim = ctypes.CDLL(None).malloc_trim  # glibc only
    except AttributeError:
        return
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    trim(0)


def _timed_pass(workload, inputs):
    """``(wall seconds, result, error)`` of one pass on cleared caches."""
    from workloads import clear_program_caches

    clear_program_caches()
    _fresh_heap()
    start = perf_counter()
    try:
        result = workload.run(inputs)
    except Exception as exc:  # counted as failed operations, run goes on
        traceback.print_exc()
        return perf_counter() - start, None, exc
    return perf_counter() - start, result, None


def _traced_pass(workload, inputs):
    """A timed pass under the layer tracer: ``(wall, result, error,
    tracer)``."""
    from tracing import LayerTracer
    from workloads import clear_program_caches

    clear_program_caches()
    _fresh_heap()
    with LayerTracer() as tracer:
        start = perf_counter()
        try:
            result = workload.run(inputs)
        except Exception as exc:
            traceback.print_exc()
            return perf_counter() - start, None, exc, tracer
        wall = perf_counter() - start
    return wall, result, None, tracer


def _setup(workload, seed: int):
    """``(seconds, inputs)``: import ``repro`` and build the inputs.

    The seconds are calibrated by two loops run right after, because
    the calibration loop needs numpy, whose import is part of set-up.
    """
    start = perf_counter()
    import repro  # noqa: F401 - the import is what is timed

    inputs = workload.build(seed, False)
    elapsed = perf_counter() - start
    from calibration import loop_seconds, scale

    return elapsed * scale((loop_seconds() + loop_seconds()) / 2), inputs


class _CalibratedPasses:
    """Pass timings, each scaled by the calibration loops run just
    before and just after it (see ``calibration.py``)."""

    def __init__(self) -> None:
        from calibration import loop_seconds

        self.raw: list[float] = []
        self.seconds: list[float] = []
        self.loops = [loop_seconds()]

    def add(self, wall: float) -> None:
        from calibration import loop_seconds, scale

        self.loops.append(loop_seconds())
        self.raw.append(wall)
        self.seconds.append(wall * scale(sum(self.loops[-2:]) / 2))


def _setup_probes(args) -> list[float]:
    """Set-up times of :data:`SETUP_PROBES` - 1 more fresh processes."""
    times = []
    for _ in range(SETUP_PROBES - 1):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def _load_references(name: str) -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)[name]


def run_workload(args) -> int:
    from workloads import WORKLOADS, reference_key

    workload = WORKLOADS[args.workload]
    seed, warm_seed = workload.seeds_for(args.seed)
    # This process is fresh too: its own set-up is the first sample.
    setup_s, inputs = _setup(workload, seed)
    if args.setup_probe:
        print(repr(setup_s))
        return 0
    checker = Checker(workload, _load_references(workload.name))
    key = reference_key(seed, False)

    warm_inputs = workload.build(warm_seed, True)
    _wall, result, error = _timed_pass(workload, warm_inputs)
    checker.check(reference_key(warm_seed, True), result, error)
    del warm_inputs, result

    if not args.trace:
        passes = _CalibratedPasses()
        start = perf_counter()
        while (len(passes.seconds) < MIN_PASSES
               or perf_counter() - start < args.seconds):
            wall, result, error = _timed_pass(workload, inputs)
            passes.add(wall)
            checker.check(key, result, error)
            del result
        print("raw pass walls: " + " ".join(f"{w:.3f}" for w in passes.raw)
              + "; calibration loops: "
              + " ".join(f"{w:.3f}" for w in passes.loops), file=sys.stderr)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": (median([setup_s, *_setup_probes(args)]), "s"),
            "wall_s": (median(passes.seconds), "s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
    else:
        metrics = _traced_metrics(args, workload, inputs, key, checker)
        if metrics is None:
            return 1
    print(json.dumps({
        "correct": checker.failed == 0 and checker.attempted > 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def _traced_metrics(args, workload, inputs, key, checker):
    """Alternate untraced and traced passes; per-layer medians, or None
    when a layer contradicts the prediction table."""
    from layers import PER_LAYER

    plain, traced, samples = _CalibratedPasses(), _CalibratedPasses(), []
    start = perf_counter()
    while not samples or perf_counter() - start < args.seconds:
        wall, result, error = _timed_pass(workload, inputs)
        plain.add(wall)
        checker.check(key, result, error)
        del result
        wall, result, error, tracer = _traced_pass(workload, inputs)
        traced.add(wall)
        values = tracer.metrics()
        counters = ({name: values[f"counter.{name}"]
                     for name in workload.counters}
                    if workload.counters else None)
        checker.check(key, result, error, counters)
        del result
        failures = tracer.prediction_failures(workload.name)
        if failures:
            for line in failures:
                print(f"error: {line}", file=sys.stderr)
            return None
        samples.append(values)
    units = dict(PER_LAYER)
    metrics = {name: (median([s[name] for s in samples]), units[name])
               for name in samples[0]}
    metrics["trace.overhead"] = (
        median(traced.seconds) / median(plain.seconds), "ratio")
    return metrics


# --- every workload in one command ------------------------------------------

def run_all(args) -> int:
    from workloads import WORKLOADS

    status = 0
    rows = []
    for name in WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"{name}: failed with status {out.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        status |= 0 if result["correct"] else 1
        for metric, entry in result["metrics"].items():
            rows.append((name, metric, entry["value"], entry["unit"]))
        rows.append((name, "failed_frac",
                     result["failed"] / result["attempted"], "ratio"))
    width = max((len(r[1]) for r in rows), default=10)
    for name, metric, value, unit in rows:
        print(f"{name:<18} {metric:<{width}} {value:>14.6g} {unit}")
    return status


# --- recording the reference outputs ----------------------------------------

def record(args) -> int:
    """Write every workload's outputs for all its seeds to reference.json.

    Run only on a commit whose outputs are known good: the benchmark
    then holds every later commit to them.
    """
    from repro.obs.metrics import MetricsRegistry, use_registry
    from workloads import WORKLOADS, clear_program_caches, reference_key

    references = {}
    if REFERENCE.exists():
        with open(REFERENCE) as fh:
            references = json.load(fh)
    names = [args.workload] if args.workload else list(WORKLOADS)
    for name in names:
        workload = WORKLOADS[name]
        entries = {}
        for warm in (False, True):
            for seed in (workload.warm_seeds if warm else workload.seeds):
                clear_program_caches()
                registry = MetricsRegistry()
                with use_registry(registry):
                    result = workload.run(workload.build(seed, warm))
                counters = registry.snapshot()["counters"]
                entries[reference_key(seed, warm)] = {
                    "operations": workload.operations(result),
                    "outputs": workload.outputs(result),
                    "counters": {c: counters.get(c, 0.0)
                                 for c in workload.counters},
                }
                print(f"recorded {name} {reference_key(seed, warm)}",
                      file=sys.stderr)
        references[name] = entries
    # One line per recorded pass keeps the file diffable.
    workloads = []
    for name, entries in sorted(references.items()):
        lines = ",\n".join(f"  {json.dumps(key)}: "
                            f"{json.dumps(entry, sort_keys=True)}"
                            for key, entry in sorted(entries.items()))
        workloads.append(f" {json.dumps(name)}: {{\n{lines}\n }}")
    with open(REFERENCE, "w") as fh:
        fh.write("{\n" + ",\n".join(workloads) + "\n}\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload and print a table")
    parser.add_argument("--record", action="store_true",
                        help="rewrite reference.json from this commit")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not _use_checkout():
        print(f"error: no repro package at {SRC}; run the benchmark from "
              f"the root of a checkout of the repository", file=sys.stderr)
        return EXIT_ERROR
    if args.all:
        return run_all(args)
    if args.record:
        return record(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
