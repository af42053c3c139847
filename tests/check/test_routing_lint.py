"""Forwarding-table lint (RTE0xx) over corrupted tables."""

import numpy as np
import pytest

from repro.check import (
    CdgCyclePass,
    CheckContext,
    DiagnosticReport,
    DmodkConformancePass,
    DownPortBalancePass,
    MinimalityPass,
    ReachabilityPass,
    UpDownPass,
    UpPortBalancePass,
    run_check,
)
from repro.analysis.hsd import walk_flow_links
from repro.fabric import ForwardingTables, build_fabric
from repro.routing import (
    RoutingError,
    route_dmodk,
    route_minhop,
    route_random,
    trace_route,
)
from repro.topology import pgft


def lint(tables, passes, routing_name=""):
    ctx = CheckContext.for_tables(tables, routing_name=routing_name)
    report = DiagnosticReport()
    for p in passes:
        if p.applicable(ctx):
            p.run(ctx, report)
    return ctx, report


def copy_tables(tables):
    return ForwardingTables(fabric=tables.fabric,
                            switch_out=tables.switch_out.copy(),
                            host_up=tables.host_up)


@pytest.fixture
def fabric():
    return build_fabric(pgft(2, [4, 4], [1, 4], [1, 1]))


@pytest.fixture
def tables(fabric):
    return route_dmodk(fabric)


class TestCleanTables:
    def test_dmodk_clean_everywhere(self, any_spec):
        tables = route_dmodk(build_fabric(any_spec))
        result = run_check(
            CheckContext.for_tables(tables, routing_name="dmodk"))
        assert result.exit_code() == 0, result.report.render_text()

    def test_hops_artifact_published(self, tables):
        ctx, _ = lint(tables, [ReachabilityPass()])
        hops = ctx.artifacts["hops"]
        n = tables.fabric.num_endports
        assert hops.shape == (n, n)
        assert (np.diagonal(hops) == 0).all()


class TestReachability:
    def test_dead_end_is_rte001(self, tables):
        broken = copy_tables(tables)
        broken.switch_out[0, 15] = -1
        _, report = lint(broken, [ReachabilityPass()])
        assert "RTE001" in report.codes()
        assert "dead-end" in report.by_code("RTE001")[0].message

    def test_loop_is_rte002(self, fabric, tables):
        broken = copy_tables(tables)
        spine_row = fabric.num_switches - 1
        broken.switch_out[spine_row, 15] = broken.switch_out[spine_row, 0]
        _, report = lint(broken, [ReachabilityPass()])
        assert "RTE002" in report.codes()
        assert "loop" in report.by_code("RTE002")[0].message

    # fig1 has 16 hosts and 6 switches.  Host 2 as a switch row would be
    # -14 (out of bounds); host 14 would wrap to a real row (-2).
    @pytest.mark.parametrize("leaf,dst,via", [(0, 1, 2), (3, 13, 14)],
                             ids=["out-of-range", "wrapping"])
    def test_wrong_endport_is_rte001(self, fig1_tables, leaf, dst, via):
        broken = copy_tables(fig1_tables)
        broken.switch_out[leaf, dst] = broken.switch_out[leaf, via]
        hops = broken.paths_matrix()
        assert hops[5, dst] == -1 and hops[5, via] > 0
        with pytest.raises(ValueError, match="delivered to end-port"):
            walk_flow_links(broken, np.array([5]), np.array([dst]))
        with pytest.raises(RoutingError, match="delivered to end-port"):
            trace_route(broken, 5, dst)
        result = run_check(CheckContext.for_tables(broken,
                                                   routing_name="dmodk"),
                           certify=False)
        codes = result.report.codes()
        assert "RTE001" in codes and "RTE002" not in codes
        assert (f"route 5->{dst} delivered to end-port {via} instead of "
                f"{dst}") in {d.message for d in result.report.by_code(
                    "RTE001")}


class TestUpDown:
    def test_clean(self, tables):
        _, report = lint(tables, [UpDownPass(sample=None)])
        assert len(report) == 0

    def test_sampled_subset_clean(self, tables):
        _, report = lint(tables, [UpDownPass(sample=16, seed=3)])
        assert len(report) == 0

    def test_valley_is_rte010(self, fabric, tables):
        # Build a terminating valley: spine0 sends dest 0 down into
        # leaf1 (wrong leaf), and leaf1's up entry for dest 0 is moved
        # to spine1, which still routes correctly.  Routes from leaf2/3
        # now go up-down-up-down: a valley that reaches its target.
        broken = copy_tables(tables)
        n = fabric.num_endports
        spine0_row = int(
            fabric.peer_node[tables.switch_out[2, 0]]) - n
        # spine0's down port toward leaf1 is its entry for host 4
        broken.switch_out[spine0_row, 0] = broken.switch_out[spine0_row, 4]
        leaf1 = n + 1
        ports = fabric.ports_of(leaf1)
        ups = ports[fabric.port_goes_up()[ports]]
        cur = int(broken.switch_out[1, 0])
        other = [int(p) for p in ups if int(p) != cur]
        broken.switch_out[1, 0] = other[0]
        _, report = lint(broken, [UpDownPass(sample=None)])
        assert "RTE010" in report.codes(), report.render_text()

    def test_strict_raises_on_broken_walk(self, tables):
        broken = copy_tables(tables)
        broken.switch_out[0, 15] = -1
        with pytest.raises(ValueError):
            lint(broken, [UpDownPass(sample=None, strict=True)])


class TestCdg:
    def test_clean_fabric_acyclic(self, tables):
        ctx, report = lint(tables, [CdgCyclePass()])
        assert len(report) == 0
        assert ctx.artifacts["cdg_dependencies"] > 0

    def test_valley_tables_have_cycle(self):
        deep = build_fabric(pgft(3, [2, 2, 2], [1, 2, 2], [1, 1, 1]))
        tables = route_dmodk(deep)
        broken = copy_tables(tables)
        n = deep.num_endports
        lvl = deep.node_level
        top_rows = [int(v) - n for v in range(n, len(lvl))
                    if lvl[v] == lvl.max()]
        for row in top_rows:
            node = n + row
            ports = deep.ports_of(node)
            down = ports[~deep.port_goes_up()[ports]]
            cur = int(broken.switch_out[row, 0])
            other = [int(p) for p in down if int(p) != cur]
            broken.switch_out[row, 0] = other[0]
        _, report = lint(broken, [CdgCyclePass()])
        # valleys on every top switch induce up-down-up dependencies
        if "RTE020" in report.codes():
            diag = report.by_code("RTE020")[0]
            assert diag.data["cycle_gports"]


class TestDmodkConformance:
    def test_skipped_for_other_engines(self, tables):
        ctx = CheckContext.for_tables(tables, routing_name="minhop")
        assert not DmodkConformancePass().applicable(ctx)

    def test_always_flag_forces_run(self, tables):
        ctx = CheckContext.for_tables(tables, routing_name="minhop")
        assert DmodkConformancePass(always=True).applicable(ctx)

    def test_clean_dmodk_conforms(self, tables):
        ctx, report = lint(tables, [DmodkConformancePass()],
                           routing_name="dmodk")
        assert len(report) == 0
        assert ctx.artifacts["dmodk_mismatches"] == 0

    def test_swapped_entry_is_rte030(self, tables):
        broken = copy_tables(tables)
        row = 0
        a, b = 8, 9  # two dests reached via different up ports from leaf 0
        broken.switch_out[row, a], broken.switch_out[row, b] = (
            broken.switch_out[row, b], broken.switch_out[row, a])
        _, report = lint(broken, [DmodkConformancePass()],
                         routing_name="dmodk")
        assert report.counts.get("RTE030", 0) == 2

    def test_minhop_differs_from_closed_form(self, fabric):
        tables = route_minhop(fabric, "first")
        _, report = lint(tables, [DmodkConformancePass(always=True)])
        assert "RTE030" in report.codes()


class TestBalance:
    def test_dmodk_balanced(self, tables):
        ctx, report = lint(tables, [DownPortBalancePass(),
                                    UpPortBalancePass()])
        assert len(report) == 0
        assert ctx.artifacts["theorem2_violations"] == 0
        assert ctx.artifacts["up_balance_worst"] == 0.0

    def test_random_router_flagged(self, fabric):
        tables = route_random(fabric, seed=1)
        ctx, report = lint(tables, [DownPortBalancePass(),
                                    UpPortBalancePass()])
        assert "RTE040" in report.codes()
        assert ctx.artifacts["theorem2_violations"] > 0

    def test_minhop_first_skew_is_rte041(self, fabric):
        tables = route_minhop(fabric, "first")
        _, report = lint(tables, [UpPortBalancePass()])
        assert "RTE041" in report.codes()


class TestMinimality:
    def test_dmodk_minimal(self, tables):
        ctx, report = lint(tables, [MinimalityPass()])
        assert len(report) == 0
        assert ctx.artifacts["non_minimal_entries"] == 0
        assert ctx.artifacts["unreachable_entries"] == 0

    def test_unreachable_entry_counted(self, tables):
        broken = copy_tables(tables)
        broken.switch_out[0, 15] = -1
        ctx, _ = lint(broken, [MinimalityPass()])
        assert ctx.artifacts["unreachable_entries"] == 1

    def test_detour_is_rte050(self, fabric, tables):
        broken = copy_tables(tables)
        # Send dest 0 from one spine down into the wrong leaf: the next
        # hop no longer reduces the BFS distance.
        spine_row = fabric.num_switches - 1
        broken.switch_out[spine_row, 0] = broken.switch_out[spine_row, 15]
        _, report = lint(broken, [MinimalityPass()])
        assert "RTE050" in report.codes()
