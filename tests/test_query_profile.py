"""The unit-rate query profile and its per-instance cache (core/load.py).

Every query cost is proportional to the per-user query rate, so
``evaluate_instance`` computes the query component once per topology at
unit rate and multiplies it by ``config.query_rate``.  These tests pin
the contract of the cache behind that: outputs never depend on whether
it hit, no input of the pass other than the rate is ever shared, the
clear functions empty it, and attribution still re-sums exactly.
"""

import gc
import threading
from dataclasses import fields, replace

import numpy as np
import pytest

from repro.config import Configuration, GraphType
from repro.core import load
from repro.core.load import clear_query_profile_cache, evaluate_instance
from repro.obs.attribution import LoadAttribution, profile_instance
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.querymodel.distributions import make_query_model
from repro.topology.builder import (
    build_instance,
    build_instance_cached,
    clear_instance_cache,
)

RATES = (9.26e-3, 9.26e-4)


@pytest.fixture(autouse=True)
def empty_cache():
    clear_query_profile_cache()
    yield
    clear_query_profile_cache()


@pytest.fixture
def builds(monkeypatch):
    """Counts the profile builds (cache misses and attributed passes)."""
    calls = []
    original = load._build_query_profile

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(load, "_build_query_profile", counting)
    return calls


def at_rate(instance, rate):
    """The same arrays under another query rate (as a rate sweep sees them)."""
    return replace(instance, config=instance.config.with_changes(query_rate=rate))


def report_arrays(report) -> dict:
    arrays = {
        f.name: getattr(report, f.name)
        for f in fields(report)
        if isinstance(getattr(report, f.name), np.ndarray)
    }
    for f in fields(report.expectations):
        value = getattr(report.expectations, f.name)
        arrays[f"expectations.{f.name}"] = np.asarray(value)
    return arrays


def assert_reports_equal(a, b) -> None:
    left, right = report_arrays(a), report_arrays(b)
    assert left.keys() == right.keys()
    for name in left:
        assert np.array_equal(left[name], right[name], equal_nan=True), name
    assert a.source_scale == b.source_scale


POWER = Configuration(graph_size=300, cluster_size=10, avg_outdegree=4.0, ttl=4)
STRONG = Configuration(graph_type=GraphType.STRONG, graph_size=200,
                       cluster_size=10, ttl=2)
CASES = [
    pytest.param(config, mode, max_sources, id=f"{name}-{mode}-{label}")
    for name, config in (("power-law", POWER), ("strong", STRONG))
    for mode in ("reverse-path", "direct")
    for label, max_sources in (("exact", None), ("sampled", 8))
]


@pytest.mark.parametrize("config,mode,max_sources", CASES)
def test_warm_cache_is_bit_identical_to_cold(builds, config, mode, max_sources):
    base = build_instance(config, seed=3)
    kwargs = dict(response_mode=mode, max_sources=max_sources, rng=7)
    cold = {}
    for rate in RATES:
        clear_query_profile_cache()
        cold[rate] = evaluate_instance(at_rate(base, rate), **kwargs)
    assert len(builds) == len(RATES)
    clear_query_profile_cache()
    warm = {rate: evaluate_instance(at_rate(base, rate), **kwargs) for rate in RATES}
    assert len(builds) == len(RATES) + 1  # one flood for both rates
    for rate in RATES:
        assert_reports_equal(cold[rate], warm[rate])


def test_loads_scale_with_query_rate():
    base = build_instance(POWER, seed=3)
    only_queries = dict(components=("query",))
    low = evaluate_instance(at_rate(base, RATES[1]), **only_queries)
    high = evaluate_instance(at_rate(base, RATES[0]), **only_queries)
    ratio = RATES[0] / RATES[1]
    np.testing.assert_allclose(high.superpeer_incoming_bps,
                               ratio * low.superpeer_incoming_bps, rtol=1e-12)
    np.testing.assert_allclose(high.client_processing_hz,
                               ratio * low.client_processing_hz, rtol=1e-12)
    assert np.array_equal(high.results_per_query, low.results_per_query)
    zero = evaluate_instance(at_rate(base, 0.0), **only_queries)
    assert not zero.superpeer_incoming_bps.any()
    assert not zero.client_outgoing_bps.any()


def test_report_does_not_expose_cached_arrays():
    base = build_instance(POWER, seed=3)
    first = evaluate_instance(base)
    first.results_per_query[:] = -1.0
    first.evaluated_sources[:] = 0
    second = evaluate_instance(base)
    assert (second.results_per_query > 0).all()
    assert np.array_equal(second.evaluated_sources, np.arange(base.num_clusters))


#: One input of the pass changed, the rate kept: ``base -> (instance, kwargs)``.
VARIANTS = {
    "ttl": lambda base: (replace(base, config=base.config.with_changes(ttl=2)), {}),
    "response_mode": lambda base: (base, {"response_mode": "direct"}),
    "sources": lambda base: (base, {"rng": 11}),
    "model": lambda base: (base, {"model": make_query_model(num_classes=50)}),
    "clients": lambda base: (replace(base, clients=base.clients.copy()), {}),
}


@pytest.mark.parametrize("what", sorted(VARIANTS))
def test_changed_input_never_reuses_an_entry(builds, what):
    base = build_instance(POWER, seed=3)
    common = {"max_sources": 8, "rng": 5}
    first = evaluate_instance(base, **common)
    variant, kwargs = VARIANTS[what](base)
    call = {**common, **kwargs}
    warm = evaluate_instance(variant, **call)
    assert len(builds) == 2
    if what == "sources":
        assert not np.array_equal(first.evaluated_sources, warm.evaluated_sources)
    clear_query_profile_cache()
    cold = evaluate_instance(variant, **call)
    assert_reports_equal(cold, warm)


def test_identical_inputs_reuse_the_entry(builds):
    base = build_instance(POWER, seed=3)
    evaluate_instance(base, max_sources=8, rng=5)
    evaluate_instance(at_rate(base, 0.5), max_sources=8, rng=5)
    evaluate_instance(base, max_sources=8, rng=5, components=("query",))
    assert len(builds) == 1


def test_clear_functions_empty_the_cache(builds):
    base = build_instance(POWER, seed=3)
    for clear in (clear_query_profile_cache, clear_instance_cache):
        evaluate_instance(base)
        assert load._PROFILES
        clear()
        assert not load._PROFILES
    assert len(builds) == 2


def test_entries_die_with_their_topology():
    for seed in range(4):
        evaluate_instance(build_instance(POWER, seed=seed))
        gc.collect()
    evaluate_instance(build_instance(POWER, seed=9))
    assert len(load._PROFILES) == 1


def test_recycled_ids_never_match(builds, monkeypatch):
    # Every object gets the same id, as if each were freed and its
    # address reused: only the identity check tells the entries apart.
    monkeypatch.setattr(load, "id", lambda obj: 0, raising=False)
    evaluate_instance(build_instance(POWER, seed=1))
    other = build_instance(POWER, seed=2)
    warm = evaluate_instance(other)
    assert len(builds) == 2
    clear_query_profile_cache()
    assert_reports_equal(evaluate_instance(other), warm)


def test_cached_instances_share_one_profile_across_rates(builds):
    clear_instance_cache()
    for rate in RATES:
        instance = build_instance_cached(POWER.with_changes(query_rate=rate), seed=3)
        evaluate_instance(instance)
    clear_instance_cache()
    assert len(builds) == 1


def test_counters_do_not_depend_on_cache_hits():
    base = build_instance(POWER, seed=3)

    def snapshot(warm: bool) -> dict:
        clear_query_profile_cache()
        if warm:
            evaluate_instance(at_rate(base, RATES[1]), max_sources=8, rng=5)
        registry = MetricsRegistry()
        with use_registry(registry):
            evaluate_instance(at_rate(base, RATES[0]), max_sources=8, rng=5)
            evaluate_instance(at_rate(base, RATES[1]), max_sources=8, rng=5)
        return registry.snapshot()["counters"]

    cold, warm = snapshot(False), snapshot(True)
    assert cold == warm
    assert cold["load.query_sources_evaluated"] == 16


def test_racing_threads_compute_identical_bits():
    base = build_instance(POWER, seed=3)
    rates = [RATES[i % 2] * (1 + i) for i in range(8)]
    serial = {}
    for rate in rates:
        clear_query_profile_cache()
        serial[rate] = evaluate_instance(at_rate(base, rate))
    clear_query_profile_cache()
    threaded = {}
    barrier = threading.Barrier(len(rates))

    def work(rate):
        barrier.wait()
        threaded[rate] = evaluate_instance(at_rate(base, rate))

    threads = [threading.Thread(target=work, args=(r,)) for r in rates]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for rate in rates:
        assert_reports_equal(serial[rate], threaded[rate])
    assert len(load._PROFILES) == 1


@pytest.mark.parametrize("config", [POWER, STRONG], ids=["power-law", "strong"])
@pytest.mark.parametrize("mode", ["reverse-path", "direct"])
def test_attribution_resums_at_two_rates_with_warm_cache(builds, config, mode):
    base = build_instance(config.with_changes(redundancy=True), seed=3)
    for rate in RATES:
        evaluate_instance(at_rate(base, rate), response_mode=mode)
    assert len(builds) == 1
    for rate in RATES:
        instance = at_rate(base, rate)
        report, attribution = profile_instance(instance, response_mode=mode)
        errors = attribution.verify(report, rtol=1e-9)
        assert max(errors.values()) <= 1e-9
        # Observation-only: the attributed pass gives the cached bits.
        assert_reports_equal(report, evaluate_instance(instance, response_mode=mode))
    assert len(builds) == 1 + len(RATES)  # attributed passes never hit


def test_attributed_edges_scale_with_query_rate():
    base = build_instance(POWER, seed=3)
    edges = {}
    for rate in RATES:
        attribution = LoadAttribution()
        evaluate_instance(at_rate(base, rate), attribution=attribution)
        edges[rate] = attribution._edges
    ratio = RATES[0] / RATES[1]
    for name in ("flood_messages", "response_bytes"):
        assert edges[RATES[1]][name].any()
        np.testing.assert_allclose(edges[RATES[0]][name],
                                   ratio * edges[RATES[1]][name], rtol=1e-12)
