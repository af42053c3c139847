"""Reference LFT walk used by every correctness check of the benchmark.

It follows flows hop by hop through the raw forwarding-table arrays
(``switch_out``, ``host_up``) and the fabric's port arrays
(``port_start``, ``peer_node``) with plain NumPy.  It deliberately calls
nothing in ``repro.analysis`` or ``repro.check``: those are the code
under test, so a shared bug would otherwise certify itself.
"""

from __future__ import annotations

import numpy as np


def placement_flows(pairs: np.ndarray, placement: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Physical ``(src, dst)`` end-ports of one stage's rank pairs.

    Pairs that name ranks outside the placement, unplaced (-1) slots or
    a rank sending to its own port carry no traffic.
    """
    placement = np.asarray(placement, dtype=np.int64)
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    n = len(placement)
    inside = (pairs[:, 0] < n) & (pairs[:, 1] < n)
    src = placement[pairs[inside, 0]]
    dst = placement[pairs[inside, 1]]
    live = (src >= 0) & (dst >= 0) & (src != dst)
    return src[live], dst[live]


def walk(tables, src, dst) -> tuple[np.ndarray, np.ndarray]:
    """Directed links crossed by each flow ``src[i] -> dst[i]``.

    Returns parallel ``(flow, gport)`` arrays: flow ``flow[k]`` leaves
    through global port ``gport[k]``.  Raises ``RuntimeError`` on a
    loop, a dead cable or an unrouted destination.
    """
    fab = tables.fabric
    n_end = int(fab.num_endports)
    switch_out = np.asarray(tables.switch_out)
    port_start = np.asarray(fab.port_start, dtype=np.int64)
    peer_node = np.asarray(fab.peer_node, dtype=np.int64)
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)

    flow = np.flatnonzero(src != dst)
    node = src[flow]
    target = dst[flow]
    local = (np.zeros(len(flow), dtype=np.int64) if tables.host_up is None
             else np.asarray(tables.host_up)[node, target].astype(np.int64))
    port = port_start[node] + local
    flows, ports = [flow], [port]
    # A fat-tree path has at most 2h switch hops; allow generous slack.
    for _ in range(4 * int(np.max(fab.node_level)) + 4):
        node = peer_node[port]
        if (node < 0).any():
            raise RuntimeError("reference walk reached a dead cable")
        moving = node != target
        flow, node, target = flow[moving], node[moving], target[moving]
        if len(flow) == 0:
            return np.concatenate(flows), np.concatenate(ports)
        if (node < n_end).any():
            raise RuntimeError("reference walk reached the wrong end-port")
        port = switch_out[node - n_end, target].astype(np.int64)
        if (port < 0).any():
            raise RuntimeError("reference walk hit an unrouted destination")
        flows.append(flow)
        ports.append(port)
    raise RuntimeError("reference walk did not terminate (routing loop)")


def link_loads(tables, src, dst) -> np.ndarray:
    """Flows per directed link (indexed by global port id)."""
    _, ports = walk(tables, src, dst)
    return np.bincount(ports, minlength=int(tables.fabric.num_ports))


def stage_maxima(tables, stages, placement) -> list[int]:
    """Per-stage maximum link load of a schedule under a placement.

    ``stages`` is a sequence of ``(k, 2)`` rank-pair arrays.  Stages
    without traffic are skipped, as in the paper's HSD average.
    """
    out = []
    for pairs in stages:
        src, dst = placement_flows(pairs, placement)
        if len(src):
            out.append(int(link_loads(tables, src, dst).max()))
    return out


def link_capacities(fabric, link_bandwidth: float,
                    host_bandwidth: float) -> np.ndarray:
    """Serialisation rate of every directed link: a host's injection
    link runs at the host (PCIe) rate, a link into a host at the slower
    of the two rates, a switch-to-switch link at wire speed."""
    n_end = int(fabric.num_endports)
    owner = np.repeat(np.arange(len(fabric.port_start) - 1),
                      np.diff(np.asarray(fabric.port_start)))
    peer = np.asarray(fabric.peer_node)
    cap = np.full(len(owner), float(link_bandwidth))
    into_host = (peer >= 0) & (peer < n_end)
    cap[into_host] = min(link_bandwidth, host_bandwidth)
    cap[owner < n_end] = host_bandwidth
    return cap


def byte_bound(tables, sequences, capacities) -> float:
    """Lower bound on a packet run's makespan: every byte that crosses a
    link must be serialised on it, so no run can finish before the
    busiest link has carried all its bytes."""
    src, dst, size = [], [], []
    for p, seq in enumerate(sequences):
        for d, s in seq:
            src.append(p)
            dst.append(d)
            size.append(s)
    flow, ports = walk(tables, np.asarray(src), np.asarray(dst))
    size = np.asarray(size, dtype=np.float64)
    per_link = np.bincount(ports, weights=size[flow],
                           minlength=len(capacities))
    return float((per_link / capacities).max())
