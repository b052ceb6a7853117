"""Property-based tests for the gossip view lattice, the flood piggyback
and the neutrality of the ``detector`` switch.

The membership view merge must be a join-semilattice operation — that is
the whole correctness argument for "rumors may arrive in any order, any
number of times, over any path, and every view still converges".
Hypothesis drives the packed-entry arrays directly.  The flood piggyback
(``GossipDetector.on_flood``) is pinned bit for bit to the level-by-level
walk in ``_gossip_oracle`` on random flood trees and views.
"""

import types

import numpy as np
import pytest
from _gossip_oracle import oracle_on_flood
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import Configuration
from repro.core.routing import QueryPropagation
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.sim import gossip as gossip_module
from repro.sim.faults import CrashSpec, FaultPlan
from repro.sim.gossip import (
    _STATE_MASK,
    ALIVE,
    DEAD,
    SUSPECT,
    GossipDetector,
    entry_inc,
    entry_state,
    merge_views,
    pack_entry,
)
from repro.sim.monitor import DetectorSpec
from repro.sim.resilience import run_resilience
from repro.topology.builder import build_instance

entries = st.builds(
    pack_entry,
    st.integers(min_value=0, max_value=2**40),
    st.sampled_from((ALIVE, SUSPECT, DEAD)),
)


def views(size: int = 8):
    return st.lists(entries, min_size=size, max_size=size).map(
        lambda xs: np.asarray(xs, dtype=np.int64)
    )


class TestMergeSemilattice:
    @given(views(), views())
    @settings(max_examples=200, deadline=None)
    def test_commutative(self, a, b):
        np.testing.assert_array_equal(merge_views(a, b), merge_views(b, a))

    @given(views())
    @settings(max_examples=100, deadline=None)
    def test_idempotent(self, a):
        np.testing.assert_array_equal(merge_views(a, a), a)

    @given(views(), views(), views())
    @settings(max_examples=200, deadline=None)
    def test_associative(self, a, b, c):
        np.testing.assert_array_equal(
            merge_views(merge_views(a, b), c),
            merge_views(a, merge_views(b, c)),
        )

    @given(views(), views())
    @settings(max_examples=200, deadline=None)
    def test_incarnation_monotone(self, a, b):
        # Merging never loses incarnation progress: the joined view's
        # incarnations dominate both inputs', and where an input already
        # holds the winning incarnation its claim is never weakened.
        merged = merge_views(a, b)
        assert (entry_inc(merged) >= entry_inc(a)).all()
        assert (entry_inc(merged) >= entry_inc(b)).all()
        for source in (a, b):
            at = (entry_inc(merged) == entry_inc(source))
            assert (entry_state(merged)[at] >= entry_state(source)[at]).all()

    @given(views(), views())
    @settings(max_examples=200, deadline=None)
    def test_fresh_alive_beats_stale_rumors(self, a, b):
        # The refutation rule: an ALIVE claim at a strictly higher
        # incarnation out-versions every SUSPECT/DEAD rumor below it.
        refuted = pack_entry(entry_inc(np.maximum(a, b)) + 1, ALIVE)
        merged = merge_views(merge_views(a, b), refuted)
        assert (entry_state(merged) == ALIVE).all()

    @given(st.lists(views(), min_size=1, max_size=6), st.randoms())
    @settings(max_examples=100, deadline=None)
    def test_any_rumor_order_converges(self, rumor_sets, rnd):
        # Fold the same rumor sets in two shuffled orders (with a
        # duplicated delivery thrown in): both folds must converge to
        # the same view — the property piggybacking relies on.
        def fold(sets):
            acc = np.zeros_like(sets[0])
            for s in sets:
                acc = merge_views(acc, s)
            return acc

        once = fold(rumor_sets)
        shuffled = list(rumor_sets) + [rnd.choice(rumor_sets)]
        rnd.shuffle(shuffled)
        np.testing.assert_array_equal(once, fold(shuffled))


class TestDetectorNeutrality:
    """``detector=`` without a recovery policy must change nothing."""

    @pytest.mark.slow
    def test_gossip_switch_is_bit_identical_without_recovery(self):
        instance = build_instance(
            Configuration(graph_size=150, cluster_size=10, redundancy=True),
            seed=5,
        )
        plan = FaultPlan(message_loss=0.04,
                         crash=CrashSpec(mean_recovery=90.0))
        base = run_resilience(instance, plan, duration=300.0, rng=7)
        switched = run_resilience(instance, plan, duration=300.0, rng=7,
                                  baseline=base.baseline, detector="gossip")
        for name in ("superpeer_incoming_bps", "superpeer_outgoing_bps",
                     "superpeer_processing_hz", "client_incoming_bps",
                     "client_outgoing_bps", "client_processing_hz"):
            np.testing.assert_array_equal(getattr(base.degraded, name),
                                          getattr(switched.degraded, name))
        for name in ("queries_attempted", "queries_failed",
                     "flood_messages_attempted", "partner_crashes",
                     "gossip_rumors_sent", "gossip_bytes"):
            assert (getattr(base.outcome, name)
                    == getattr(switched.outcome, name))
        assert switched.outcome.gossip_rumors_sent == 0


# --- flood piggyback vs the level-by-level oracle ------------------------------

_NO_NEIGHBOURS = types.SimpleNamespace(
    neighbors=lambda c: np.empty(0, dtype=np.int64)
)


def _detector(view, k, charged, meter_seed):
    """A detector over ``view`` with random meters, outside any simulation."""
    n = view.shape[0]
    runtime = types.SimpleNamespace(
        n=n, k=k, tracer=None,
        instance=types.SimpleNamespace(graph=_NO_NEIGHBOURS),
    )
    rng = np.random.default_rng(meter_seed)
    state = None
    if charged:
        state = types.SimpleNamespace(sp_in=rng.random(n),
                                      sp_out=rng.random(n),
                                      sp_proc=rng.random(n))
    det = GossipDetector(DetectorSpec(mode="gossip"), state, runtime,
                         np.random.default_rng(0), lambda c, p: None)
    det.view[:] = view
    det._active[:] = np.count_nonzero(view & _STATE_MASK, axis=1)
    det._gos_in[:] = rng.random(n)
    det._gos_out[:] = rng.random(n)
    det._gos_units[:] = rng.random(n)
    det._quiet = False
    return det


def _flood(n, source, parents):
    """A flood tree: ``parents[i]`` indexes the earlier node feeding node i+1.

    Node 0 of the order is the source; nodes are laid out in ``order``
    and each later one hangs one level below an earlier one, like a BFS
    tree (predecessor one level up).
    """
    order = [source] + [v for v in range(n) if v != source]
    depth = np.full(n, -1, dtype=np.int64)
    pred = np.full(n, -1, dtype=np.int64)
    depth[source] = 0
    for i, p in enumerate(parents, start=1):
        v, u = order[i], order[p]
        depth[v], pred[v] = depth[u] + 1, u
    zeros = np.zeros(n)
    return QueryPropagation(source=source, ttl=n, depth=depth, pred=pred,
                            transmissions=zeros, receipts=zeros)


def _run_both(view, k, prop, edge_pass, charged=True, meter_seed=0):
    """Run the kernel and the oracle on twin detectors; return both."""
    out = []
    for run in (lambda d: d.on_flood(prop, edge_pass),
                lambda d: oracle_on_flood(d, prop, edge_pass)):
        registry = MetricsRegistry()
        with use_registry(registry):
            det = _detector(view, k, charged, meter_seed)
            run(det)
        out.append((det, registry.counter("sim.gossip_rumors").value))
    return out


def _assert_same(pair):
    (got, got_counter), (want, want_counter) = pair
    for name in ("view", "_active", "_gos_in", "_gos_out", "_gos_units"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    if want.st is None:
        assert got.st is None
    else:
        for name in ("sp_in", "sp_out", "sp_proc"):
            assert np.array_equal(getattr(got.st, name),
                                  getattr(want.st, name)), name
    assert got.rumors_sent == want.rumors_sent
    assert got_counter == want_counter


@st.composite
def flood_cases(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    k = draw(st.integers(min_value=1, max_value=3))
    source = draw(st.integers(min_value=0, max_value=n - 1))
    reach = draw(st.integers(min_value=1, max_value=n))
    parents = [draw(st.integers(min_value=0, max_value=i - 1))
               for i in range(1, reach)]
    # Few distinct entries, so rows often agree on some or all columns.
    cells = st.builds(pack_entry, st.integers(0, 2),
                      st.sampled_from((ALIVE, SUSPECT, DEAD)))
    if draw(st.booleans()):
        row = draw(st.lists(cells, min_size=n * k, max_size=n * k))
        view = np.tile(np.asarray(row, dtype=np.int64), (n, 1))
    else:
        flat = draw(st.lists(cells, min_size=n * n * k, max_size=n * n * k))
        view = np.asarray(flat, dtype=np.int64).reshape(n, n * k)
    edge_pass = np.asarray(draw(st.lists(st.booleans(), min_size=n,
                                         max_size=n)), dtype=bool)
    return (view, k, _flood(n, source, parents), edge_pass,
            draw(st.booleans()), draw(st.integers(0, 2**32 - 1)))


class TestFloodPiggybackOracle:
    """``on_flood`` leaves every view, count and meter as the oracle does."""

    @given(flood_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_level_walk(self, case):
        view, k, prop, edge_pass, charged, meter_seed = case
        _assert_same(_run_both(view, k, prop, edge_pass, charged, meter_seed))

    def test_rows_that_agree_merge_nothing(self):
        row = pack_entry(np.arange(12) % 3, np.arange(12) % 2)
        view = np.tile(row, (6, 1))
        prop = _flood(6, 2, [0, 0, 1, 1, 3])
        pair = _run_both(view, 2, prop, np.ones(6, dtype=bool))
        _assert_same(pair)
        assert np.array_equal(pair[0][0].view, view)
        assert pair[0][0].rumors_sent == 5 + 5

    def test_repeated_parents_on_the_way_up(self):
        # A star under the source plus one grandchild: four children
        # send up to one parent in one level, with different rumors.
        rng = np.random.default_rng(3)
        view = pack_entry(rng.integers(0, 3, (6, 12)),
                          rng.integers(0, 3, (6, 12)))
        prop = _flood(6, 0, [0, 0, 0, 0, 1])
        pair = _run_both(view, 2, prop, np.ones(6, dtype=bool))
        _assert_same(pair)
        assert not np.array_equal(pair[0][0].view, view)

    def test_no_passing_edges(self):
        rng = np.random.default_rng(4)
        view = pack_entry(rng.integers(0, 3, (5, 5)),
                          rng.integers(0, 3, (5, 5)))
        prop = _flood(5, 4, [0, 1, 2, 0])
        pair = _run_both(view, 1, prop, np.zeros(5, dtype=bool))
        _assert_same(pair)
        assert pair[0][0].rumors_sent == 4

    def test_without_simulation_state(self):
        rng = np.random.default_rng(5)
        view = pack_entry(rng.integers(0, 3, (7, 14)),
                          rng.integers(0, 3, (7, 14)))
        prop = _flood(7, 3, [0, 0, 1, 2, 2, 4])
        _assert_same(_run_both(view, 2, prop, rng.random(7) < 0.6,
                               charged=False))

    def test_one_charge_per_meter_whatever_the_depth(self, monkeypatch):
        # A path 12 levels deep: the level walk would call np.add.at
        # eight times per level, the kernel six times per flood.
        calls = []

        class _Add:
            def at(self, *args):
                calls.append(args[0])
                np.add.at(*args)

        proxy = types.SimpleNamespace(
            **{name: getattr(np, name) for name in dir(np)
               if not name.startswith("__")}
        )
        proxy.add = _Add()
        monkeypatch.setattr(gossip_module, "np", proxy)
        rng = np.random.default_rng(6)
        view = pack_entry(rng.integers(0, 3, (13, 26)),
                          rng.integers(0, 3, (13, 26)))
        det = _detector(view, 2, charged=True, meter_seed=1)
        det.on_flood(_flood(13, 0, list(range(12))), np.ones(13, dtype=bool))
        assert len(calls) == 6
