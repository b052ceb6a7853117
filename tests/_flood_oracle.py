"""Reference flood for the kernel tests: the scalar one-source BFS.

A direct transcription of Section 4.1's breadth-first traversal, kept
deliberately naive (one Python step per level, receipts recounted over
every directed edge) so that ``repro.core.routing``'s batched kernel has
an independent oracle.  Returns ``(depth, pred, transmissions,
receipts)`` for one source; ``blocked`` nodes never receive or forward.
"""

from __future__ import annotations

import numpy as np


def oracle_flood(graph, source: int, ttl: int, blocked=None):
    n = graph.num_nodes
    blocked = np.zeros(n, bool) if blocked is None else np.asarray(blocked, bool)
    depth = np.full(n, -1, dtype=np.int64)
    pred = np.full(n, -1, dtype=np.int64)
    frontier = [] if blocked[source] else [source]
    if frontier:
        depth[source] = 0
    for d in range(ttl):
        fresh = []
        for v in frontier:  # ascending, so the first writer is the lowest sender
            for u in graph.indices[graph.indptr[v]:graph.indptr[v + 1]].tolist():
                if depth[u] == -1 and not blocked[u]:
                    depth[u], pred[u] = d + 1, v
                    fresh.append(u)
        frontier = sorted(fresh)
    degrees = np.diff(graph.indptr)
    forwarder = (depth >= 0) & (depth < ttl)
    transmissions = np.where(forwarder, degrees - 1, 0).astype(np.float64)
    if forwarder[source]:
        transmissions[source] = degrees[source]
    tails, heads = graph.directed_edge_arrays()
    live = forwarder[tails] & (pred[tails] != heads) & ~blocked[heads]
    receipts = np.bincount(heads[live], minlength=n).astype(np.float64)
    return depth, pred, transmissions, receipts
