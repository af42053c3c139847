"""The table-level lints against their per-flow references.

``destination_link_usage`` derives per-destination link usage from the
forwarding tables without enumerating flows; ``channel_dependencies``
and ``down_port_destination_counts`` are built on it.  Each is compared
here against a reference that traces every (src, dst) pair: the scalar
``trace_route`` walker for the CDG and the theorem-2 counts, and the
vectorised ``walk_flow_links`` for the raw usage matrix and for which
broken tables must be rejected.
"""

import numpy as np
import pytest

from repro.analysis.hsd import (
    destination_link_usage,
    down_port_destination_counts,
    walk_flow_links,
)
from repro.fabric import ForwardingTables, build_fabric
from repro.routing import (
    channel_dependencies,
    route_dmodk,
    route_minhop,
    route_random,
    trace_route,
)
from repro.routing.validate import down_port_destinations
from repro.topology import pgft

from ..conftest import SPECS

ROUTERS = {
    "dmodk": route_dmodk,
    "minhop-rr": lambda f: route_minhop(f, "roundrobin"),
    "minhop-random": lambda f: route_minhop(f, "random", seed=1),
    "random": lambda f: route_random(f, seed=2),
}

# Multi-rail hosts, so the tables carry a per-destination ``host_up``.
MULTIRAIL = {
    "host-par2": pgft(2, [4, 4], [1, 2], [2, 1]),
    "host-w2": pgft(2, [4, 4], [2, 2], [1, 1]),
}
ALL_SPECS = {**SPECS, **MULTIRAIL}


def scalar_cdg(tables):
    """Consecutive link pairs of every all-pairs route, one at a time."""
    n = tables.fabric.num_endports
    deps = set()
    for s in range(n):
        for d in range(n):
            path = trace_route(tables, s, d)
            deps.update(zip(path, path[1:]))
    return deps


def walked_usage(tables, ends):
    """``destination_link_usage`` rebuilt from the all-pairs flow walk."""
    src = np.repeat(ends, len(ends))
    col = np.tile(np.arange(len(ends)), len(ends))
    flow, gports = walk_flow_links(tables, src, ends[col])
    used = np.zeros((tables.fabric.num_ports, len(ends)), dtype=bool)
    used[gports, col[flow]] = True
    return used


def walk_raises(tables, ends):
    try:
        walked_usage(tables, ends)
    except ValueError:
        return True
    return False


def kernel_raises(tables, ends):
    try:
        destination_link_usage(tables, ends)
    except ValueError:
        return True
    return False


def copy_tables(tables, switch_out=None, fabric=None):
    return ForwardingTables(
        fabric=fabric if fabric is not None else tables.fabric,
        switch_out=(switch_out if switch_out is not None
                    else tables.switch_out.copy()),
        host_up=tables.host_up)


@pytest.fixture(params=sorted(ALL_SPECS), ids=sorted(ALL_SPECS))
def spec_name(request):
    return request.param


@pytest.fixture(params=sorted(ROUTERS), ids=sorted(ROUTERS))
def routed(request, spec_name):
    return ROUTERS[request.param](build_fabric(ALL_SPECS[spec_name]))


class TestAgreesWithReferences:
    def test_channel_dependencies(self, routed):
        assert channel_dependencies(routed) == scalar_cdg(routed)

    def test_down_port_counts(self, routed):
        counts = down_port_destination_counts(routed)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, down_port_destinations(routed))

    def test_usage_matches_flow_walk(self, routed):
        ends = np.arange(routed.fabric.num_endports)
        assert np.array_equal(destination_link_usage(routed, ends),
                              walked_usage(routed, ends))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_partial_active_set(self, routed, seed):
        n = routed.fabric.num_endports
        rng = np.random.default_rng(seed)
        active = np.sort(rng.choice(n, max(2, 2 * n // 3), replace=False))
        used = walked_usage(routed, active)
        assert np.array_equal(destination_link_usage(routed, active), used)
        want = used.sum(axis=1)
        want[routed.fabric.port_goes_up()] = 0
        got = down_port_destination_counts(routed, active=rng.permutation(
            np.concatenate([active, active[:1]])))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("k", [0, 1])
    def test_degenerate_active_sets(self, fig1_tables, k):
        fab = fig1_tables.fabric
        active = np.arange(k)
        assert destination_link_usage(fig1_tables, active).shape == (
            fab.num_ports, k)
        assert not down_port_destination_counts(
            fig1_tables, active=active).any()

    def test_dest_chunks_agree(self):
        # More end-ports than one propagation chunk.
        tables = route_dmodk(build_fabric(pgft(2, [16, 16], [1, 8],
                                               [1, 1])))
        ends = np.arange(tables.fabric.num_endports)
        assert np.array_equal(destination_link_usage(tables, ends),
                              walked_usage(tables, ends))


def _dead_cable(tables):
    fab = tables.fabric
    ups = np.flatnonzero(fab.port_goes_up()
                         & (fab.port_owner >= fab.num_endports))
    return copy_tables(tables, fabric=fab.with_failed_cables(ups[[0]]))


def _unrouted(tables):
    broken = copy_tables(tables)
    broken.switch_out[0, tables.fabric.num_endports - 1] = -1
    return broken


def _loop(tables):
    # The top switch sends the last destination back down to leaf 0.
    broken = copy_tables(tables)
    n = tables.fabric.num_endports
    broken.switch_out[-1, n - 1] = broken.switch_out[-1, 0]
    return broken


def _wrong_endport(tables):
    # Leaf 0 hands destination 1's traffic to host 2.
    broken = copy_tables(tables)
    broken.switch_out[0, 1] = broken.switch_out[0, 2]
    return broken


def _wrapping_endport(tables):
    # A host id past N - num_switches: a negative switch row would wrap.
    broken = copy_tables(tables)
    broken.switch_out[3, 13] = broken.switch_out[3, 14]
    return broken


BREAKERS = {"dead-cable": _dead_cable, "unrouted": _unrouted,
            "loop": _loop, "wrong-endport": _wrong_endport,
            "wrapping-endport": _wrapping_endport}


class TestBrokenTables:
    @pytest.mark.parametrize("name", sorted(BREAKERS))
    def test_raises_exactly_when_walk_does(self, fig1_tables, name):
        broken = BREAKERS[name](fig1_tables)
        ends = np.arange(broken.fabric.num_endports)
        assert walk_raises(broken, ends)
        assert kernel_raises(broken, ends)
        with pytest.raises(ValueError):
            channel_dependencies(broken)
        with pytest.raises(ValueError):
            down_port_destination_counts(broken)

    @pytest.mark.parametrize("name", sorted(BREAKERS))
    def test_inactive_breakage_is_ignored_like_the_walk(self, fig1_tables,
                                                        name):
        broken = BREAKERS[name](fig1_tables)
        for active in (np.arange(4, 12), np.arange(0, 16, 2),
                       np.array([1, 2, 13, 14])):
            assert kernel_raises(broken, active) == walk_raises(
                broken, active), active
            if not walk_raises(broken, active):
                assert np.array_equal(
                    destination_link_usage(broken, active),
                    walked_usage(broken, active))

    @pytest.mark.parametrize("seed", range(12))
    def test_random_corruption(self, spec_name, seed):
        tables = route_dmodk(build_fabric(ALL_SPECS[spec_name]))
        fab = tables.fabric
        rng = np.random.default_rng(seed)
        sw = tables.switch_out.copy()
        for _ in range(1 + seed % 3):
            row = int(rng.integers(fab.num_switches))
            ports = fab.ports_of(fab.num_endports + row)
            choice = np.r_[ports, -1]
            sw[row, int(rng.integers(fab.num_endports))] = int(
                rng.choice(choice))
        broken = copy_tables(tables, switch_out=sw)
        ends = np.arange(fab.num_endports)
        raises = walk_raises(broken, ends)
        assert kernel_raises(broken, ends) == raises
        if not raises:
            assert np.array_equal(destination_link_usage(broken, ends),
                                  walked_usage(broken, ends))
            assert channel_dependencies(broken) == scalar_cdg(broken)
