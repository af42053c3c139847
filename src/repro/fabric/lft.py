"""Linear forwarding tables (LFTs).

In InfiniBand every switch forwards by a linear table indexed by
destination LID.  We keep the same structure with destination *end-port
index* as the key (end-port node id == end-port index == LID here):

* ``switch_out[row, dest]`` -- the **global port id** a switch sends
  through toward ``dest`` (``-1`` = unreachable / self), where
  ``row = switch_node - num_endports``;
* ``host_up[src, dest]`` -- the local up-port a host uses toward
  ``dest``; omitted (``None``) when every host has a single cable
  (the RLFT case), meaning local port 0.

The tables are the hand-off point between routing engines and the
consumers (HSD analysis, simulators): any router that fills a
:class:`ForwardingTables` plugs into the rest of the library.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Fabric

__all__ = ["ForwardingTables"]


@dataclass
class ForwardingTables:
    """Destination-based forwarding state for a whole fabric."""

    fabric: Fabric
    switch_out: np.ndarray            # (num_switches, N) int64, global port ids
    host_up: np.ndarray | None = None  # (N, N) int32 local ports, or None

    def __post_init__(self) -> None:
        ns, nd = self.switch_out.shape
        if ns != self.fabric.num_switches or nd != self.fabric.num_endports:
            raise ValueError(
                f"switch_out shape {self.switch_out.shape} does not match "
                f"fabric ({self.fabric.num_switches} switches, "
                f"{self.fabric.num_endports} end-ports)"
            )

    # -- queries ----------------------------------------------------------
    def out_port(self, node: np.ndarray | int, dest: np.ndarray | int) -> np.ndarray:
        """Global out-port id used by switch ``node`` toward ``dest``."""
        row = np.asarray(node) - self.fabric.num_endports
        return self.switch_out[row, np.asarray(dest)]

    def host_out_port(self, src: np.ndarray | int, dest: np.ndarray | int) -> np.ndarray:
        """Global out-port id used by host ``src`` toward ``dest``."""
        src = np.asarray(src)
        if self.host_up is None:
            local = np.zeros(np.broadcast_shapes(src.shape, np.asarray(dest).shape),
                             dtype=np.int64)
        else:
            local = self.host_up[src, np.asarray(dest)]
        return self.fabric.port_start[src] + local

    def next_node(self, node: np.ndarray | int, dest: np.ndarray | int) -> np.ndarray:
        """Node reached from switch ``node`` forwarding toward ``dest``."""
        gp = self.out_port(node, dest)
        return self.fabric.peer_node[gp]

    # -- serialisation (OpenSM ``dump_lfts``-like text) ---------------------
    def dump(self) -> str:
        """Readable dump: one block per switch, ``dest -> local port``."""
        fab = self.fabric
        lines = []
        for row in range(fab.num_switches):
            node = fab.num_endports + row
            lines.append(f"Switch {fab.node_names[node]} (node {node})")
            for dest in range(fab.num_endports):
                gp = self.switch_out[row, dest]
                local = "-" if gp < 0 else str(int(gp - fab.port_start[node]))
                lines.append(f"  {dest:6d} : {local}")
        return "\n".join(lines) + "\n"

    def paths_matrix(self, max_hops: int | None = None) -> np.ndarray:
        """Hop count between every (src, dst) end-port pair; ``-1`` when a
        destination is unreachable.  Mostly a validation helper."""
        fab = self.fabric
        N = fab.num_endports
        src = np.repeat(np.arange(N), N)
        dst = np.tile(np.arange(N), N)
        hops = np.zeros(N * N, dtype=np.int32)
        cur = src.copy()
        limit = max_hops or (2 * (int(fab.node_level.max()) + 1) + 2)
        gp = self.host_out_port(src, dst)
        active = src != dst
        cur[active] = fab.peer_node[gp[active]]
        hops[active] = 1
        for _ in range(limit):
            # Routes that walked into a dead cable (next node -1, e.g.
            # stale tables on a degraded fabric) or were delivered to
            # another end-port are unreachable -- they must not index
            # the switch rows.
            dead = active & (cur < N) & (cur != dst)
            if dead.any():
                hops[dead] = -1
                active &= ~dead
            active &= cur != dst
            if not active.any():
                break
            gp = self.out_port(cur[active], dst[active])
            bad = gp < 0
            nxt = np.where(bad, cur[active], fab.peer_node[np.where(bad, 0, gp)])
            cur[active] = nxt
            hops[active] += 1
            if bad.any():
                idx = np.flatnonzero(active)[bad]
                hops[idx] = -1
                active[idx] = False
        hops[(cur != dst) & (src != dst)] = -1
        return hops.reshape(N, N)
