"""Hot-Spot-Degree (HSD) analysis -- the paper's ibdm-based tool.

Given a topology, forwarding tables and a traffic pattern, compute for
every directed link the number of flows crossing it ("HSD" = flows per
link).  The paper's Figure 3 and Table 3 metrics are built from this:

* per stage: the **maximum** HSD over all links (worst contention when
  all end-ports move through stages synchronously);
* per sequence: the **average** of the per-stage maxima;
* per topology/CPS: statistics of that average over many random
  MPI-node-orders.

``HSD == 1`` for every stage is the paper's congestion-free criterion:
no link ever carries two concurrent flows, so every message runs at
full wire speed and cut-through latency.

Everything is vectorised: a whole stage of flows is walked through the
forwarding tables simultaneously (paths in an ``h``-level tree have at
most ``2h + 1`` hops).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..collectives.cps import CPS
from ..collectives.schedule import stage_flows, stage_flows_batch
from ..fabric.lft import ForwardingTables

__all__ = [
    "walk_flow_links",
    "stage_link_loads",
    "stage_class_link_loads",
    "stage_max_hsd",
    "sequence_hsd",
    "HSDReport",
    "BatchedHSDReport",
    "batched_sequence_hsd",
    "MultiTableHSDReport",
    "multi_table_sequence_hsd",
    "destination_link_usage",
    "down_port_destination_counts",
]


def _max_hops(tables: ForwardingTables) -> int:
    h = int(tables.fabric.node_level.max())
    return 2 * h + 2


def _raise_at(bad: np.ndarray, template: str, *cols: np.ndarray) -> None:
    """Raise ``ValueError`` for the first flagged entry of ``bad``,
    formatting ``template`` with that entry of each array in ``cols``."""
    if bad.any():
        b = int(np.flatnonzero(bad)[0])
        raise ValueError(template.format(*(int(c[b]) for c in cols)))


def walk_flow_links(
    tables: ForwardingTables, src: np.ndarray, dst: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Walk every flow ``src[i] -> dst[i]`` through the tables.

    Returns ``(flow_idx, gports)``: parallel arrays listing, for each
    traversed directed link (identified by its source global port id),
    which flow crossed it.  Flows with ``src == dst`` contribute nothing.

    Raises ``ValueError`` when a flow walks into a dead cable, hits a
    ``-1`` entry, is delivered to an end-port other than its
    destination, or is still moving after the hop limit.
    """
    fab = tables.fabric
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.shape != dst.shape:
        raise ValueError("src/dst shape mismatch")
    flows_idx: list[np.ndarray] = []
    ports: list[np.ndarray] = []

    active = src != dst
    idx = np.flatnonzero(active)
    if len(idx) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    gp = tables.host_out_port(src[idx], dst[idx])
    flows_idx.append(idx)
    ports.append(gp)
    cur = fab.peer_node[gp].astype(np.int64)
    tgt = dst[idx]

    for _ in range(_max_hops(tables)):
        moving = cur != tgt
        if not moving.any():
            break
        idx = idx[moving]
        cur = cur[moving]
        tgt = tgt[moving]
        # A moving flow below the switch ids walked into a dead cable
        # (-1) or reached the wrong end-port; it must not index the
        # switch rows.  One test per hop covers both.
        stray = cur < fab.num_endports
        if stray.any():
            _raise_at(cur < 0, "flow {} walked into a dead cable", idx)
            _raise_at(stray, "flow {} delivered to end-port {} instead of {}",
                      idx, cur, tgt)
        gp = tables.out_port(cur, tgt)
        _raise_at(gp < 0, "flow {} hit an unrouted destination", idx)
        flows_idx.append(idx)
        ports.append(gp)
        cur = fab.peer_node[gp].astype(np.int64)
    else:
        if (cur != tgt).any():
            raise ValueError("routing loop: flows did not terminate")

    return np.concatenate(flows_idx), np.concatenate(ports)


def stage_link_loads(
    tables: ForwardingTables, src: np.ndarray, dst: np.ndarray
) -> np.ndarray:
    """Flows per directed link (array over global port ids) for one stage."""
    _, gports = walk_flow_links(tables, src, dst)
    loads = np.zeros(tables.fabric.num_ports, dtype=np.int64)
    np.add.at(loads, gports, 1)
    return loads


def stage_class_link_loads(
    tables: ForwardingTables,
    src: np.ndarray,
    dst: np.ndarray,
    flow_class: np.ndarray,
    num_classes: int | None = None,
) -> np.ndarray:
    """Per-traffic-class flows per directed link for one stage.

    ``flow_class[i]`` is the class index of flow ``i``; the result has
    shape ``(num_classes, num_ports)`` and sums over classes to
    :func:`stage_link_loads`.  One table walk serves every class: loads
    are recovered with a single ``bincount`` over
    ``(class, port)`` keys, the same trick
    :func:`batched_sequence_hsd` uses for placements.  This is the
    dynamic (table-walking) side of the isolation analyzer's per-class
    accounting; the symbolic side never touches tables at all.
    """
    flow_class = np.asarray(flow_class, dtype=np.int64)
    src = np.asarray(src, dtype=np.int64)
    if flow_class.shape != src.shape:
        raise ValueError("flow_class/src shape mismatch")
    C = int(num_classes) if num_classes is not None \
        else int(flow_class.max()) + 1 if len(flow_class) else 1
    if len(flow_class) and (flow_class.min() < 0 or flow_class.max() >= C):
        raise ValueError("flow_class references a class index out of range")
    num_ports = tables.fabric.num_ports
    flow_idx, gports = walk_flow_links(tables, src, dst)
    keys = flow_class[flow_idx] * num_ports + gports
    return np.bincount(keys, minlength=C * num_ports).reshape(C, num_ports)


def stage_max_hsd(
    tables: ForwardingTables,
    src: np.ndarray,
    dst: np.ndarray,
    switch_links_only: bool = False,
) -> int:
    """Maximum HSD over links for one synchronous stage.

    ``switch_links_only`` ignores host injection/ejection links (where a
    rank sending and receiving simultaneously is not network contention).
    By default all links count, matching the worst-case analysis.
    """
    loads = stage_link_loads(tables, src, dst)
    if switch_links_only:
        loads = loads[_switch_link_mask(tables)]
    return int(loads.max()) if len(loads) else 0


@dataclass(frozen=True)
class HSDReport:
    """Per-stage maxima and their summary for one (tables, CPS, placement)."""

    cps_name: str
    stage_max: np.ndarray  # (num_stages,) max HSD per stage

    @property
    def avg_max(self) -> float:
        """Figure-3 metric: average over stages of the per-stage max."""
        return float(self.stage_max.mean()) if len(self.stage_max) else 0.0

    @property
    def worst(self) -> int:
        return int(self.stage_max.max()) if len(self.stage_max) else 0

    @property
    def congestion_free(self) -> bool:
        return self.worst <= 1


def sequence_hsd(
    tables: ForwardingTables,
    cps: CPS,
    rank_to_port: np.ndarray,
    switch_links_only: bool = False,
) -> HSDReport:
    """Per-stage max HSD for a CPS under a placement (the Table 3 row)."""
    maxima = []
    for st in cps:
        src, dst = stage_flows(st, rank_to_port)
        if len(src) == 0:
            continue
        maxima.append(stage_max_hsd(tables, src, dst, switch_links_only))
    return HSDReport(cps_name=cps.name, stage_max=np.asarray(maxima, dtype=np.int64))


def _switch_link_mask(tables: ForwardingTables) -> np.ndarray:
    """Ports whose directed link touches no host (the
    ``switch_links_only`` filter of :func:`stage_max_hsd`)."""
    fab = tables.fabric
    owner_is_host = fab.port_owner < fab.num_endports
    peer_is_host = (fab.peer_node >= 0) & (fab.peer_node < fab.num_endports)
    return ~(owner_is_host | peer_is_host)


@dataclass(frozen=True)
class BatchedHSDReport:
    """Per-stage maxima for *many* placements of one (tables, CPS) pair.

    ``stage_max[t, s]`` is the stage-``s`` max HSD under placement ``t``,
    or ``-1`` when that placement produced no flows in the stage (the
    serial path skips such stages entirely).
    """

    cps_name: str
    stage_max: np.ndarray  # (num_orders, num_stages) int64; -1 = skipped

    @property
    def num_orders(self) -> int:
        return self.stage_max.shape[0]

    @property
    def avg_max(self) -> np.ndarray:
        """Figure-3 metric per placement, identical to running
        :class:`HSDReport` ``.avg_max`` order by order."""
        vals = np.empty(self.num_orders, dtype=np.float64)
        for t in range(self.num_orders):
            row = self.stage_max[t]
            row = row[row >= 0]
            vals[t] = float(row.mean()) if len(row) else 0.0
        return vals

    def report(self, t: int) -> HSDReport:
        """The serial-equivalent :class:`HSDReport` of placement ``t``."""
        row = self.stage_max[t]
        return HSDReport(cps_name=self.cps_name, stage_max=row[row >= 0])


def batched_sequence_hsd(
    tables: ForwardingTables,
    cps: CPS,
    placements: np.ndarray,
    switch_links_only: bool = False,
) -> BatchedHSDReport:
    """Vectorised :func:`sequence_hsd` over a placement matrix.

    ``placements`` is ``(num_orders, L)``: each row a ``rank_to_port``
    vector.  All rows of a stage are walked through the forwarding
    tables in one pass and the per-row link loads recovered with a
    single ``bincount`` over ``(order, port)`` keys, so the cost per
    placement is a small fraction of the one-at-a-time path while the
    resulting per-row reports match :func:`sequence_hsd` exactly.
    """
    placements = np.asarray(placements, dtype=np.int64)
    if placements.ndim == 1:
        placements = placements[None, :]
    num_orders = placements.shape[0]
    num_ports = tables.fabric.num_ports
    keep_ports = _switch_link_mask(tables) if switch_links_only else None

    stage_max = np.full((num_orders, len(cps.stages)), -1, dtype=np.int64)
    for s_i, st in enumerate(cps):
        src, dst, order = stage_flows_batch(st, placements)
        if len(src) == 0:
            continue
        present = np.bincount(order, minlength=num_orders) > 0
        flow_idx, gports = walk_flow_links(tables, src, dst)
        keys = order[flow_idx] * num_ports + gports
        loads = np.bincount(
            keys, minlength=num_orders * num_ports
        ).reshape(num_orders, num_ports)
        if keep_ports is not None:
            loads = loads[:, keep_ports]
        if loads.shape[1]:
            maxima = loads.max(axis=1)
        else:
            maxima = np.zeros(num_orders, dtype=np.int64)
        stage_max[present, s_i] = maxima[present]
    return BatchedHSDReport(cps_name=cps.name, stage_max=stage_max)


@dataclass(frozen=True)
class MultiTableHSDReport:
    """Per-stage maxima for one (CPS, placement) across *many* tables.

    The transpose of :class:`BatchedHSDReport`: there the placement
    varies and the tables are fixed, here the placement is fixed and
    the forwarding state varies (one entry per degraded/repaired
    fabric).  ``stage_max[c, s]`` is the stage-``s`` max HSD under
    tables ``c``, or ``-1`` when the stage produced no flows (the
    serial path skips such stages entirely).
    """

    cps_name: str
    stage_max: np.ndarray  # (num_cases, num_stages) int64; -1 = skipped

    @property
    def num_cases(self) -> int:
        return self.stage_max.shape[0]

    @property
    def worst(self) -> np.ndarray:
        """Per-case worst stage maximum, identical to running
        :class:`HSDReport` ``.worst`` table by table."""
        vals = np.zeros(self.num_cases, dtype=np.int64)
        for c in range(self.num_cases):
            row = self.stage_max[c]
            row = row[row >= 0]
            if len(row):
                vals[c] = int(row.max())
        return vals

    def report(self, c: int) -> HSDReport:
        """The serial-equivalent :class:`HSDReport` of case ``c``."""
        row = self.stage_max[c]
        return HSDReport(cps_name=self.cps_name, stage_max=row[row >= 0])


def multi_table_sequence_hsd(
    tables_list: list[ForwardingTables],
    cps: CPS,
    rank_to_port: np.ndarray,
    switch_links_only: bool = False,
) -> MultiTableHSDReport:
    """Vectorised :func:`sequence_hsd` over many forwarding tables.

    All tables must describe fabrics with identical port geometry
    (same ``num_ports``/``num_endports``/``port_start``) -- the
    degraded-fabric case, where each entry is the same physical tree
    with different cables killed and different repaired routes.  Every
    case's flows walk the stacked ``switch_out`` tensor simultaneously
    and the per-case link loads are recovered with one ``bincount``
    over ``(case, port)`` keys, so the cost per case is a small
    fraction of the one-at-a-time path while the per-case reports
    match :func:`sequence_hsd` exactly.

    Raises ``ValueError`` on the same route anomalies as
    :func:`walk_flow_links` (dead cable, unrouted destination, wrong
    end-port, loop), naming the offending case; filter disconnected
    repairs out first.
    """
    C = len(tables_list)
    num_stages = len(cps.stages)
    if C == 0:
        return MultiTableHSDReport(
            cps_name=cps.name,
            stage_max=np.empty((0, num_stages), dtype=np.int64))
    base = tables_list[0]
    fab0 = base.fabric
    num_ports = fab0.num_ports
    for t in tables_list[1:]:
        if (t.fabric.num_ports != num_ports
                or t.fabric.num_endports != fab0.num_endports
                or not np.array_equal(t.fabric.port_start, fab0.port_start)):
            raise ValueError(
                "multi_table_sequence_hsd needs tables over one port "
                "geometry (same fabric with different failures/routes)")
    switch_out = np.stack([t.switch_out for t in tables_list])
    peer = np.stack([t.fabric.peer_node for t in tables_list]
                    ).astype(np.int64)
    keep_ports = _switch_link_mask(base) if switch_links_only else None
    rank_to_port = np.asarray(rank_to_port, dtype=np.int64)

    stage_max = np.full((C, num_stages), -1, dtype=np.int64)
    for s_i, st in enumerate(cps):
        src, dst = stage_flows(st, rank_to_port)
        if len(src) == 0:
            continue
        loads = _multi_walk_loads(tables_list, switch_out, peer, src, dst)
        if keep_ports is not None:
            loads = loads[:, keep_ports]
        if loads.shape[1]:
            stage_max[:, s_i] = loads.max(axis=1)
        else:
            stage_max[:, s_i] = 0
    return MultiTableHSDReport(cps_name=cps.name, stage_max=stage_max)


def _multi_walk_loads(
    tables_list: list[ForwardingTables],
    switch_out: np.ndarray,
    peer: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
) -> np.ndarray:
    """Link loads ``(num_cases, num_ports)`` of one stage walked through
    every case's tables at once (core of
    :func:`multi_table_sequence_hsd`)."""
    C = len(tables_list)
    num_ports = peer.shape[1]
    num_endports = tables_list[0].fabric.num_endports
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    f = np.flatnonzero(src != dst)
    if len(f) == 0:
        return np.zeros((C, num_ports), dtype=np.int64)
    # Host injection may differ per case (multi-cable hosts re-routed
    # around a dead up-cable), so resolve it table by table.
    gp = np.concatenate(
        [t.host_out_port(src[f], dst[f]) for t in tables_list])
    case = np.repeat(np.arange(C, dtype=np.int64), len(f))
    flow = np.tile(f, C)
    keys_acc = [case * num_ports + gp]
    cur = peer[case, gp]
    tgt = np.tile(dst[f], C)
    for _ in range(_max_hops(tables_list[0])):
        moving = cur != tgt
        if not moving.any():
            break
        case = case[moving]
        flow = flow[moving]
        cur = cur[moving]
        tgt = tgt[moving]
        stray = cur < num_endports   # dead cable or wrong end-port
        if stray.any():
            _raise_at(cur < 0, "case {}: flow {} walked into a dead cable",
                      case, flow)
            _raise_at(stray, "case {}: flow {} delivered to end-port {} "
                      "instead of {}", case, flow, cur, tgt)
        gp = switch_out[case, cur - num_endports, tgt]
        _raise_at(gp < 0, "case {}: flow {} hit an unrouted destination",
                  case, flow)
        keys_acc.append(case * num_ports + gp)
        cur = peer[case, gp]
    else:
        if (cur != tgt).any():
            raise ValueError("routing loop: flows did not terminate")
    return np.bincount(
        np.concatenate(keys_acc), minlength=C * num_ports
    ).reshape(C, num_ports)


#: Destinations propagated together by :func:`destination_link_usage`;
#: bounds its working set to O(nodes x chunk) whatever the fabric size.
_DEST_CHUNK = 128


def destination_link_usage(tables: ForwardingTables,
                           ends: np.ndarray) -> np.ndarray:
    """Which directed links carry traffic toward each destination.

    ``used[gp, j]`` is true when some flow ``s -> ends[j]`` with ``s``
    in ``ends`` and ``s != ends[j]`` crosses the link leaving global
    port ``gp``; the result has shape ``(num_ports, len(ends))``.

    Destination-based tables make this per-destination reachability:
    hop 0 is every source's host link, and each later hop follows one
    LFT entry from the de-duplicated frontier of ``(node, destination)``
    states, so the cost is O(hops x nodes x N) with no N^2 flow list.
    Destinations are propagated in fixed-size chunks.

    Raises ``ValueError`` exactly when :func:`walk_flow_links` would
    over the same all-to-all flows: a dead cable, a ``-1`` entry,
    delivery to the wrong end-port, or routes still moving after the
    hop limit.
    """
    fab = tables.fabric
    N = fab.num_endports
    ends = np.asarray(ends, dtype=np.int64)
    peer = fab.peer_node.astype(np.int64)
    max_hops = _max_hops(tables)
    used = np.zeros((fab.num_ports, len(ends)), dtype=bool)
    for c0 in range(0, len(ends), _DEST_CHUNK):
        dest = ends[c0:c0 + _DEST_CHUNK]
        front = np.zeros((fab.num_nodes, len(dest)), dtype=bool)
        gp = tables.host_out_port(ends[:, None], dest[None, :])
        off_diag = ends[:, None] != dest[None, :]
        col = np.broadcast_to(np.arange(len(dest)), gp.shape)[off_diag]
        gp = gp[off_diag]
        for hop in range(max_hops + 1):
            used[gp, c0 + col] = True
            node = peer[gp]
            _raise_at(node < 0, "a route leaves port {} into a dead cable",
                      gp)
            front[node, col] = True
            node, col = np.nonzero(front)
            front[node, col] = False
            moving = node != dest[col]
            node, col = node[moving], col[moving]
            if not len(node):
                break
            if hop == max_hops:
                raise ValueError("routing loop: flows did not terminate")
            d = dest[col]
            _raise_at(node < N, "route toward {} delivered to end-port {}",
                      d, node)
            gp = tables.switch_out[node - N, d]
            _raise_at(gp < 0, "route toward {} hit an unrouted entry", d)
    return used


def down_port_destination_counts(tables: ForwardingTables,
                                 active: np.ndarray | None = None,
                                 ) -> np.ndarray:
    """Distinct destinations per down-going directed link under all-to-all
    traffic (vectorised theorem-2 check; see
    :func:`repro.routing.validate.down_port_destinations` for the
    reference implementation).  ``active`` restricts the all-to-all to a
    job's active end-ports (theorem 2 only binds the traffic a
    partially populated job can generate).

    The counts are the row sums of :func:`destination_link_usage` with
    up-going links zeroed.  Raises ``ValueError`` on broken routes."""
    fab = tables.fabric
    ends = np.arange(fab.num_endports, dtype=np.int64) if active is None \
        else np.unique(np.asarray(active, dtype=np.int64))
    counts = destination_link_usage(tables, ends).sum(axis=1,
                                                      dtype=np.int64)
    counts[fab.port_goes_up()] = 0
    return counts
