"""Query propagation: BFS flooding with TTL and reverse-path responses.

Section 4.1, step 2: "We use a breadth-first traversal over the network to
determine which nodes receive the query, where the source of the traversal
is the query source S, and the depth is equal to the TTL of the query
message.  Any response message will then travel along the reverse path of
the query, meaning it will travel up the predecessor graph of the
breadth-first traversal until it reaches the source S."

Flooding semantics (baseline Gnutella search, Section 3.1):

* the source sends the query to **all** of its neighbours;
* a node receiving the query for the first time at depth d forwards it to
  all neighbours except the sender, provided d < TTL;
* duplicate receipts are received (incurring receive cost) and dropped.

Every deterministic flood in the library runs through one private
kernel, :func:`_flood`: a frontier-sparse BFS over many sources at once
(the K_n closed form for complete overlays).  :func:`propagate_query` is
its one-source entry and :func:`repro.sim.fastcore.flood_block` its
many-source entry.  Likewise every reverse-path sum runs through
:func:`_fold`, behind :meth:`QueryPropagation.accumulate_to_source`,
:func:`repro.sim.faults.lossy_accumulate` and the array engine's
response pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..topology.graph import OverlayGraph
from ..topology.strong import CompleteGraph


@dataclass(frozen=True)
class QueryPropagation:
    """One query's breadth-first flood from ``source`` with the given TTL."""

    source: int
    ttl: int
    depth: np.ndarray          # (n,) BFS depth; -1 if not reached
    pred: np.ndarray           # (n,) BFS predecessor (first sender); -1 at source/unreached
    transmissions: np.ndarray  # (n,) query messages sent by each node
    receipts: np.ndarray       # (n,) query messages received by each node

    # --- reach ----------------------------------------------------------------

    @property
    def reached(self) -> np.ndarray:
        """Mask of nodes that process the query (source included)."""
        return self.depth >= 0

    @property
    def reach(self) -> int:
        """Number of nodes that process the query (the paper's *reach*)."""
        return int(np.count_nonzero(self.reached))

    @property
    def max_depth(self) -> int:
        return int(self.depth.max(initial=0))

    def total_query_messages(self) -> float:
        """Total query transmissions (equals total receipts by conservation)."""
        return float(self.transmissions.sum())

    def messages_per_hop(self) -> list[float]:
        """Query transmissions summed by sender depth, one entry per hop."""
        mask = self.reached
        counts = np.bincount(self.depth[mask], weights=self.transmissions[mask])
        return [float(x) for x in counts]

    # --- reverse-path accumulation ---------------------------------------------

    def accumulate_to_source(self, weights: np.ndarray) -> np.ndarray:
        """Sum ``weights`` up the predecessor forest toward the source.

        Returns ``forwarded`` where ``forwarded[v]`` is the total weight
        originating in the predecessor subtree rooted at ``v`` (``v``'s own
        weight included).  Interpreting ``weights[v]`` as the expected
        Response messages (or result records, or addresses) originated by
        ``v``, then for every node ``v != source``:

        * ``forwarded[v]`` is what ``v`` *sends* toward its predecessor;
        * ``forwarded[v] - weights[v]`` is what ``v`` *receives* from its
          subtree children.

        At the source, ``forwarded[source] - weights[source]`` is the total
        weight arriving over the overlay.  Weights at unreached nodes must
        be zero (they never respond).  ``weights`` may also be ``(n, C)``,
        one column per channel; each column folds exactly as it would alone.
        """
        weights = np.asarray(weights, dtype=float)
        if weights.ndim not in (1, 2) or weights.shape[0] != self.depth.size:
            raise ValueError("weights must have one entry per node")
        if np.any(weights[~self.reached] != 0.0):
            raise ValueError("unreached nodes cannot carry response weight")
        sent = np.array(weights.T, order="C", ndmin=2)
        _fold(self.depth, self.pred, sent)
        return sent.T if weights.ndim == 2 else sent[0]

    def response_path_lengths(self) -> np.ndarray:
        """Hop count of each reached node's response path (its BFS depth)."""
        return self.depth[self.reached]


def _fold(depth, pred, sent, edge_pass=None, received=None) -> None:
    """Fold each channel of ``sent`` up the predecessor forest in place.

    ``sent`` holds one 1-D array per channel (a ``(C, n)`` array works).
    Levels go bottom-up: the nodes at depth d add what they send into
    their predecessors at depth d-1 (``np.add.at`` handles shared
    predecessors), so afterwards ``sent[c][v]`` is the weight of ``v``'s
    whole subtree.  A node whose ``edge_pass`` entry is False still sends
    but its predecessor receives nothing; ``received``, when given,
    collects per channel what arrives at each node.  ``depth``/``pred``
    may be flattened blocks of floods whose predecessors are flat
    indices.
    """
    for d in range(int(depth.max(initial=0)), 0, -1):
        level = np.flatnonzero(depth == d)
        if edge_pass is not None:
            level = level[edge_pass[level]]
        if level.size:
            up = pred[level]
            for c, channel in enumerate(sent):
                moving = channel[level]
                if received is not None:
                    np.add.at(received[c], up, moving)
                np.add.at(channel, up, moving)


def _gather(graph: OverlayGraph, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Out-edges of ``nodes`` in CSR order: (edges per node, heads)."""
    starts = graph.indptr[nodes]
    counts = graph.indptr[nodes + 1] - starts
    # offsets walk each node's adjacency range consecutively.
    offsets = (starts - counts.cumsum() + counts).repeat(counts)
    offsets += np.arange(offsets.size)
    return counts, graph.indices[offsets]


def _flood(graph, sources: np.ndarray, ttl: int,
           blocked: np.ndarray | None = None):
    """BFS floods from every source at once: (depth, pred, transmissions,
    receipts), each of shape ``(len(sources), n)``.

    Row ``i`` is the flood from ``sources[i]``.  The frontier is a sorted
    array of flat ``row * n + node`` keys, so each level gathers only the
    frontier's CSR slices, and ``np.unique`` picks every newly reached
    node's first writer: the lowest-id sender on that row's frontier.
    Forwarders (reached at depth < TTL) send to every neighbour but their
    predecessor, the source to all of them; each such copy is received
    unless the head is ``blocked``.  A blocked node never receives,
    processes or forwards, and a blocked source floods nothing.
    Complete overlays without a mask take the K_n closed form.
    """
    n = graph.num_nodes
    if sources.size and (sources.min() < 0 or sources.max() >= n):
        bad = sources[(sources < 0) | (sources >= n)][0]
        raise IndexError(f"source {bad} out of range [0, {n})")
    if ttl < 1:
        raise ValueError("ttl must be >= 1")
    if blocked is not None:
        blocked = np.asarray(blocked, dtype=bool)
        if blocked.shape != (n,):
            raise ValueError("blocked must have one entry per node")
    if isinstance(graph, CompleteGraph):
        if blocked is None:
            return _complete_flood(n, sources, ttl)
        graph = graph.materialize()

    b = sources.size
    rows = np.arange(b)
    depth = np.full(b * n, -1, dtype=np.int64)
    pred = np.full(b * n, -1, dtype=np.int64)  # flat sender keys until the end
    roots = rows * n + sources
    keys = roots if blocked is None else roots[~blocked[sources]]
    depth[keys] = 0
    heard = []
    for d in range(ttl):
        nodes = keys if b == 1 else keys % n
        counts, heads = _gather(graph, nodes)
        senders = keys.repeat(counts)
        targets = heads if b == 1 else (keys - nodes).repeat(counts) + heads
        # A forwarder skips the hop back to its own predecessor.
        live = pred[senders] != targets
        fresh = depth[targets] == -1
        if blocked is not None:
            ok = ~blocked[heads]
            live &= ok
            fresh &= ok
        heard.append(targets[live])
        keys, first = np.unique(targets[fresh], return_index=True)
        if keys.size == 0:
            break
        depth[keys] = d + 1
        pred[keys] = senders[fresh][first]

    forwarder = (depth >= 0) & (depth < ttl)
    # Forwarders skip their predecessor; the source has none to skip.
    transmissions = np.where(forwarder.reshape(b, n), graph.degrees - 1.0, 0.0)
    transmissions.reshape(-1)[roots] += forwarder[roots]
    receipts = np.bincount(np.concatenate(heard), minlength=b * n)
    pred = pred.reshape(b, n)
    if b > 1:
        pred -= np.where(pred >= 0, rows[:, np.newaxis] * n, 0)
    return (depth.reshape(b, n), pred, transmissions,
            receipts.astype(np.float64).reshape(b, n))


def _complete_flood(n: int, sources: np.ndarray, ttl: int):
    """The K_n closed form of :func:`_flood` (no adjacency needed).

    With TTL = 1 the source sends n-1 queries and every other node receives
    exactly one.  With TTL >= 2, every non-source node additionally
    forwards to its n-2 non-predecessor neighbours, so each non-source node
    receives 1 + (n-2) copies (all duplicates dropped) and the source
    receives none (every node's predecessor is the source itself, and
    flooding skips the predecessor).
    """
    b = sources.size
    rows = np.arange(b)
    depth = np.ones((b, n), dtype=np.int64)
    depth[rows, sources] = 0
    pred = np.repeat(sources[:, np.newaxis], n, axis=1)
    pred[rows, sources] = -1
    transmissions = np.zeros((b, n))
    receipts = np.zeros((b, n))
    if n > 1:
        relay = ttl >= 2 and n > 2
        transmissions[:] = n - 2.0 if relay else 0.0
        transmissions[rows, sources] = n - 1.0
        receipts[:] = n - 1.0 if relay else 1.0
        receipts[rows, sources] = 0.0
    return depth, pred, transmissions, receipts


def propagate_query(
    graph, source: int, ttl: int, blocked: np.ndarray | None = None
) -> QueryPropagation:
    """Breadth-first flood of a query from ``source`` with the given TTL.

    Works on :class:`OverlayGraph` and on :class:`CompleteGraph` of any
    size (in closed form; materialized only under a ``blocked`` mask).

    ``blocked`` (optional boolean mask, one entry per node) marks dead
    relays: a blocked node never receives, processes, or forwards the
    query, so floods are truncated around it.  Messages *to* a blocked
    node are still transmitted (the sender cannot know the target is
    down) but are never received.  A blocked source yields an empty
    propagation (nothing is reached, nothing is sent).
    """
    depth, pred, transmissions, receipts = _flood(
        graph, np.array([source], dtype=np.int64), ttl, blocked
    )
    return QueryPropagation(
        source=source,
        ttl=ttl,
        depth=depth[0],
        pred=pred[0],
        transmissions=transmissions[0],
        receipts=receipts[0],
    )
