"""Property tests for the shared flood kernel.

``repro.core.routing`` runs every deterministic flood through one
batched kernel: ``propagate_query`` is its one-source entry and
``repro.sim.fastcore.flood_block`` its many-source entry.  These tests
pin both entries to the scalar reference BFS in ``_flood_oracle`` and
check the kernel's structural invariants on hypothesis-generated graphs:

* **bit-identity** — every field (depth, pred, transmissions, receipts)
  equals the oracle's, for every source, with and without a ``blocked``
  mask, and for the K_n closed form against a BFS over the materialized
  complete graph;
* **message conservation per hop** — the transmissions sent by depth-d
  forwarders equal the receipts their edges deliver, recomputed
  independently from the raw edge arrays;
* **TTL monotone coupling** — a TTL-1 flood is a prefix of the TTL
  flood: nested reached sets, identical depths/preds on the smaller
  set, monotone message totals;
* **frontier bound** — per-depth frontier sizes partition the reached
  set, so no frontier can exceed the reachable-set size.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from _flood_oracle import oracle_flood
from repro.core.routing import propagate_query
from repro.sim.fastcore import flood_block
from repro.topology.graph import OverlayGraph
from repro.topology.strong import CompleteGraph


@st.composite
def _graphs(draw):
    """Small random simple graphs, connected or not (the kernel must not
    assume connectivity)."""
    n = draw(st.integers(min_value=2, max_value=24))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True,
                          max_size=min(len(possible), 60)))
    return OverlayGraph.from_edges(n, edges)


_TTLS = st.integers(min_value=1, max_value=5)


def _assert_rows_match_oracle(graph, oracle_graph, sources, ttl, blocked=None):
    """flood_block row i and propagate_query(sources[i]) both equal the
    oracle's flood from sources[i] on every field, dtype included."""
    fb = flood_block(graph, sources, ttl) if blocked is None else None
    for i, s in enumerate(sources.tolist()):
        expected = oracle_flood(oracle_graph, s, ttl, blocked)
        prop = propagate_query(graph, s, ttl, blocked=blocked)
        rows = [(prop.depth, prop.pred, prop.transmissions, prop.receipts)]
        if fb is not None:
            rows.append((fb.depth[i], fb.pred[i], fb.transmissions[i],
                         fb.receipts[i]))
        for row in rows:
            for got, want in zip(row, expected):
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(graph=_graphs(), ttl=_TTLS)
def test_bit_identity_vs_scalar_kernel(graph, ttl):
    """Both kernel entries equal the scalar oracle from every source."""
    _assert_rows_match_oracle(graph, graph, np.arange(graph.num_nodes), ttl)


@settings(max_examples=60, deadline=None)
@given(graph=_graphs(), ttl=_TTLS, data=st.data())
def test_bit_identity_with_blocked_mask(graph, ttl, data):
    """Truncated floods match the oracle; node 0 is always blocked, so
    every example also floods from a blocked source."""
    n = graph.num_nodes
    blocked = np.array(data.draw(st.lists(st.booleans(), min_size=n,
                                          max_size=n)))
    blocked[0] = True
    _assert_rows_match_oracle(graph, graph, np.arange(n), ttl, blocked)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=1, max_value=40), ttl=_TTLS,
       data=st.data())
def test_complete_closed_form_vs_oracle(n, ttl, data):
    """The K_n closed form equals the oracle's BFS over the materialized
    K_n, for one source (b=1) and for every source at once (b>1)."""
    graph = CompleteGraph(n)
    one = np.array([data.draw(st.integers(min_value=0, max_value=n - 1))])
    _assert_rows_match_oracle(graph, graph.materialize(), one, ttl)
    _assert_rows_match_oracle(graph, graph.materialize(), np.arange(n), ttl)


@settings(max_examples=60, deadline=None)
@given(graph=_graphs(), ttl=_TTLS)
def test_message_conservation_per_hop(graph, ttl):
    """Depth-d transmissions equal the receipts their edges deliver.

    Recomputed straight from the directed edge arrays: a forwarder at
    depth d re-sends over every out-edge except the one back to its
    predecessor, and each such copy is received at the head.  Nothing is
    created or lost at any hop, and only reached nodes ever receive.
    """
    sources = np.arange(graph.num_nodes)
    fb = flood_block(graph, sources, ttl)
    tails, heads = graph.directed_edge_arrays()
    for i in range(sources.size):
        depth, pred = fb.depth[i], fb.pred[i]
        reached = depth >= 0
        assert np.all(fb.receipts[i][~reached] == 0)
        forwarder = reached & (depth < ttl)
        live = forwarder[tails] & (pred[tails] != heads)
        max_d = int(depth.max(initial=0))
        sent_by_depth = np.bincount(
            depth[reached], weights=fb.transmissions[i][reached],
            minlength=max_d + 1,
        )
        recv_from_depth = np.bincount(
            depth[tails[live]], minlength=max_d + 1,
        ).astype(float)
        assert np.array_equal(sent_by_depth, recv_from_depth)
        assert fb.transmissions[i].sum() == fb.receipts[i].sum()


@settings(max_examples=60, deadline=None)
@given(graph=_graphs(), ttl=st.integers(min_value=2, max_value=5))
def test_ttl_monotone_coupling(graph, ttl):
    """The TTL-1 flood is a prefix of the TTL flood from every source."""
    sources = np.arange(graph.num_nodes)
    hi = flood_block(graph, sources, ttl)
    lo = flood_block(graph, sources, ttl - 1)
    reach_lo = lo.reached
    # Nested reached sets, identical BFS structure on the common part.
    assert np.all(hi.reached[reach_lo])
    assert np.array_equal(lo.depth[reach_lo], hi.depth[reach_lo])
    assert np.array_equal(lo.pred[reach_lo], hi.pred[reach_lo])
    # More TTL can only add traffic and reach.
    assert np.all(hi.transmissions.sum(axis=1) >= lo.transmissions.sum(axis=1))
    assert np.all(hi.reach() >= lo.reach())


@settings(max_examples=60, deadline=None)
@given(graph=_graphs(), ttl=_TTLS)
def test_frontier_bounded_by_reachable_set(graph, ttl):
    """Per-depth frontiers partition the reached set: each frontier is at
    most the reachable-set size and together they exhaust it exactly."""
    sources = np.arange(graph.num_nodes)
    fb = flood_block(graph, sources, ttl)
    reach = fb.reach()
    for i in range(sources.size):
        depth = fb.depth[i]
        frontier_sizes = np.bincount(depth[depth >= 0])
        assert frontier_sizes.sum() == reach[i]
        assert np.all(frontier_sizes <= reach[i])
        # Depths never exceed the TTL and the source owns depth zero.
        assert depth.max(initial=0) <= ttl
        assert frontier_sizes[0] == 1
