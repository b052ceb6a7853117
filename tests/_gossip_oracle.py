"""Reference gossip piggyback for the property tests: the level-by-level walk.

The flood-tree digest exchange in its plainest form: one merge and one
set of ``np.add.at`` charges per depth level, down the tree and then back
up the surviving response edges, with ``np.maximum.at`` absorbing the
repeated response-path parents.  ``GossipDetector.on_flood`` must leave
a detector exactly as this walk does, bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro import constants
from repro.core import costs
from repro.sim.gossip import _STATE_MASK


def oracle_on_flood(det, prop, edge_pass) -> None:
    if det._quiet:
        return
    nodes = np.nonzero(prop.reached)[0]
    nodes = nodes[nodes != prop.source]
    preds, depths = prop.pred[nodes], prop.depth[nodes]
    passing = edge_pass[nodes]
    for d in np.unique(depths):
        _merge_rows(det, preds[depths == d], nodes[depths == d])
    for d in np.unique(depths[passing])[::-1]:
        at = passing & (depths == d)
        _merge_rows(det, nodes[at], preds[at])


def _merge_rows(det, senders, receivers) -> None:
    sizes = (constants.GOSSIP_DIGEST_BASE
             + constants.GOSSIP_RUMOR_SIZE * det._active[senders]) / det.k
    send_u = costs.SEND_UPDATE_UNITS / det.k
    recv_u = (costs.RECV_UPDATE_UNITS + costs.PROCESS_UPDATE_UNITS) / det.k
    if det.st is not None:
        np.add.at(det.st.sp_out, senders, sizes)
        np.add.at(det.st.sp_proc, senders, send_u)
        np.add.at(det.st.sp_in, receivers, sizes)
        np.add.at(det.st.sp_proc, receivers, recv_u)
    np.add.at(det._gos_out, senders, sizes)
    np.add.at(det._gos_units, senders, send_u)
    np.add.at(det._gos_in, receivers, sizes)
    np.add.at(det._gos_units, receivers, recv_u)
    np.maximum.at(det.view, receivers, det.view[senders])
    uniq = np.unique(receivers)
    det._active[uniq] = np.count_nonzero(det.view[uniq] & _STATE_MASK, axis=1)
    det.rumors_sent += int(senders.size)
    det._m_rumors.add(float(senders.size))
