"""The benchmark's four workloads: certify, sweep, simulate and serve.

Each workload drives ``repro`` in-process through its public API, the
way ``python -m repro.check``, ``repro-experiments`` and
``repro-serve`` do, and checks its outputs against properties of the
method or against the reference walk in :mod:`refwalk`.  No workload
uses a ``ResultCache``, so every op does real work.

Interface shared by the sequential workloads (certify, sweep,
simulate): ``setup()``, ``round()`` (the ops of one round),
``execute(op)``, ``check(ops)`` and ``install_tracing(tracer)``.  Serve
is a closed loop and has its own ``run``.
"""

from __future__ import annotations

import asyncio
import contextlib
import io
import json
import os
import re
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

import refwalk

CERTIFY_TOPO = "n324"
#: (CPS, order) cases of one certify round: six that D-Mod-K with
#: topology order must certify, three that random orders must refute.
CERTIFY_CASES = (
    ("shift", "topology"), ("ring", "topology"), ("binomial", "topology"),
    ("tournament", "topology"), ("dissemination", "topology"),
    ("pairwise-exchange", "topology"),
    ("shift", "random"), ("ring", "random"), ("dissemination", "random"),
)
#: the CLI's default shift sampling (``--max-shift-stages``)
MAX_SHIFT_STAGES = 64

SIM_CREDITS = 4
#: (topology, series, message KB): one Figure 2 column on n128 plus the
#: contention-free point on n324 at a size where the fast path carries
#: a real share of the op.
SIM_POINTS = (
    ("n128", "shift/random", 16),
    ("n128", "recdbl/random", 16),
    ("n128", "shift/ordered", 16),
    ("n324", "shift/ordered", 256),
)
SIM_SHIFT_STAGES = 16

SERVE_TOPO = "n324"
SERVE_WORKERS = 2
SERVE_CLIENTS = 2
SERVE_REPLAY_MAX = 60
SERVE_SAMPLED_CHECKS = 5

#: per-layer metrics (name, unit), emitted by every traced run; a layer
#: a workload never enters reads 0 there.
PER_LAYER = (
    ("fabric.build_s", "s"), ("routing.dmodk_s", "s"),
    ("check.wiring_s", "s"), ("check.reachability_s", "s"),
    ("check.up_down_s", "s"), ("check.cdg_s", "s"),
    ("check.down_balance_s", "s"), ("check.minimality_s", "s"),
    ("check.schedule_lint_s", "s"), ("check.certify_s", "s"),
    ("check.other_passes_s", "s"), ("check.report_s", "s"),
    ("routing.channel_dependencies_s", "s"),
    ("analysis.down_port_destination_counts_s", "s"),
    ("analysis.walk_flow_links_s", "s"),
    ("check.flows_certified", "count"), ("check.passes_run", "count"),
    ("ordering.random_order_s", "s"), ("collectives.stage_flows_s", "s"),
    ("analysis.batched_hsd_self_s", "s"),
    ("analysis.sequence_hsd_self_s", "s"),
    ("runtime.order_sweep_self_s", "s"), ("experiments.render_s", "s"),
    ("analysis.flows_walked", "count"), ("analysis.placements", "count"),
    ("sim.workload_build_s", "s"), ("sim.vector_s", "s"),
    ("sim.event_core_s", "s"), ("sim.event_core_packets_per_s", "packets/s"),
    ("sim.packets", "count"), ("sim.fallback_runs", "count"),
    ("sim.conflicts", "count"),
    ("serve.admission_s", "s"), ("serve.dispatch_s", "s"),
    ("serve.compute_s", "s"), ("serve.journal_s", "s"),
    ("check.symbolic_recertify_s", "s"), ("serve.start_s", "s"),
    ("serve.warm_s", "s"), ("serve.flows_recomputed", "count"),
    ("serve.base_cache_hits", "count"),
)

#: per-layer times that are not a share of one op: set-up, time nested
#: inside ``serve.dispatch_s`` and the in-process replay
UNNESTED = ("serve.start_s", "serve.warm_s", "serve.journal_s",
            "check.symbolic_recertify_s")

#: pass name -> span of the certify breakdown
PASS_SPANS = {
    "wiring": "check.wiring", "reachability": "check.reachability",
    "up-down": "check.up_down", "cdg": "check.cdg",
    "down-balance": "check.down_balance", "minimality": "check.minimality",
    "placement": "check.schedule_lint", "stage": "check.schedule_lint",
    "certify": "check.certify",
}


class CheckFailed(Exception):
    """A workload output that violates a property of the method."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _tables(topo: str):
    from repro.fabric import build_fabric
    from repro.routing import route_dmodk
    from repro.topology import paper_topologies

    return route_dmodk(build_fabric(paper_topologies()[topo]))


def _shift_stages(n: int, displacements) -> list[np.ndarray]:
    """Rank pairs of a shift schedule: ``r -> (r + d) mod n``."""
    r = np.arange(n, dtype=np.int64)
    return [np.stack([r, (r + d) % n], axis=1) for d in displacements]


def _cli_shift_displacements(n: int) -> range:
    """The stride the CLI and the service sample shift stages with."""
    if n - 1 <= MAX_SHIFT_STAGES:
        return range(1, n)
    return range(1, n, (n - 1) // MAX_SHIFT_STAGES)


def _stage_pairs(cps) -> list[np.ndarray]:
    return [np.asarray(st.pairs) for st in cps.stages]


def _count_walked(in_span: str | None, counter: str):
    def hook(tracer, args, kwargs, out):
        if in_span is None or tracer.in_span(in_span):
            tracer.counts[counter] += len(args[1])
    return hook


class Workload:
    """Base of the workloads: by default every per-layer value comes
    from span self times and counters."""

    def layer_extras(self, traced, tracer) -> dict:
        return {}

    def close(self) -> None:
        """Release what ``setup`` started (nothing, by default)."""


# ----------------------------------------------------------------------
class Certify(Workload):
    """Cold ``python -m repro.check`` certifications of the n324 PGFT."""

    name = "certify"

    def __init__(self, seed: int, quick: bool) -> None:
        rng = np.random.default_rng(seed)
        self.order_seeds = {cps: int(rng.integers(2**31))
                            for cps, order in CERTIFY_CASES
                            if order == "random"}
        self.cases = CERTIFY_CASES if not quick else CERTIFY_CASES[::6]

    def setup(self) -> None:
        from repro.check import cli

        self.cli = cli

    def round(self):
        return self.cases

    def execute(self, case):
        cps, order = case
        argv = ["--topo", CERTIFY_TOPO, "--routing", "dmodk", "--cps", cps,
                "--order", order, "--json"]
        if order == "random":
            argv += ["--order-seed", str(self.order_seeds[cps])]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(argv)
        return code, out.getvalue()

    def check(self, ops) -> None:
        from repro.collectives import by_name

        tables = _tables(CERTIFY_TOPO)
        n = tables.fabric.num_endports
        first: dict = {}
        for op in ops:
            if op.ok:
                first.setdefault(op.item, op.out)
                _require(op.out == first[op.item],
                         f"{op.item}: repeated certification differs")
        for (cps_name, order), (code, text) in first.items():
            label = f"{cps_name}/{order}"
            if cps_name == "shift":
                stages = _shift_stages(n, _cli_shift_displacements(n))
            else:
                stages = _stage_pairs(by_name(cps_name, n))
            placement = (np.arange(n, dtype=np.int64) if order == "topology"
                         else np.random.default_rng(
                             self.order_seeds[cps_name]).permutation(n))
            report = json.loads(text)
            refutations = [d for d in report["diagnostics"]
                           if d["code"] == "CFC001"]
            certs = report["certificates"]
            if order == "topology":
                _require(code == 0 and not refutations and len(certs) == 1,
                         f"{label}: not certified (exit {code})")
                maxima = refwalk.stage_maxima(tables, stages, placement)
                flows = sum(len(refwalk.placement_flows(p, placement)[0])
                            for p in stages)
                _require(certs[0]["max_link_load"] == 1 and max(maxima) == 1,
                         f"{label}: max link load is not 1")
                _require(certs[0]["num_flows"] == flows,
                         f"{label}: certificate counts "
                         f"{certs[0]['num_flows']} flows, walk {flows}")
                continue
            _require(code == 2 and refutations and not certs,
                     f"{label}: random order was not refuted (exit {code})")
            for diag in refutations:
                data = diag["data"]
                src, dst = refwalk.placement_flows(stages[data["stage"]],
                                                   placement)
                flow, port = refwalk.walk(tables, src, dst)
                on_link = {(int(src[f]), int(dst[f]))
                           for f in flow[port == data["gport"]]}
                named = {tuple(p) for p in data["colliding_pairs"]}
                _require(len(on_link) == data["link_load"] >= 2
                         and named <= on_link,
                         f"{label}: counterexample link {data['gport']} "
                         f"does not carry the named flows")

    def install_tracing(self, tracer) -> None:
        from repro.check import CheckResult, default_pipeline

        _trace_tables(tracer)
        for p in default_pipeline().passes:
            tracer.patch_method(type(p), "run",
                                PASS_SPANS.get(p.name, "check.other_passes"))
        tracer.patch_method(CheckResult, "to_json", "check.report")
        tracer.patch_function("repro.routing.deadlock",
                              "channel_dependencies",
                              "routing.channel_dependencies")
        tracer.patch_function("repro.analysis.hsd",
                              "down_port_destination_counts",
                              "analysis.down_port_destination_counts")
        tracer.patch_function(
            "repro.analysis.hsd", "walk_flow_links",
            "analysis.walk_flow_links",
            _count_walked("check.certify", "check.flows_certified"))

        def passes_run(tracer, args, kwargs, out):
            tracer.counts["check.passes_run"] += len(out.passes_run)

        tracer.patch_function("repro.check", "run_check", "check.run",
                              passes_run)


def _trace_tables(tracer) -> None:
    tracer.patch_function("repro.fabric.model", "build_fabric",
                          "fabric.build")
    tracer.patch_function("repro.routing.dmodk", "route_dmodk",
                          "routing.dmodk")


# ----------------------------------------------------------------------
_ROW = re.compile(r"^(\S+)\s+(\d+)\s+(\S+)\s+([\d.]+)\s+([\d.]+)\s+([\d.]+)\s*$")
_T3_ROW = re.compile(r"^(\S+)\s+(full|Cont\.-\d+)\s+(\d+)\s+(\S+)\s+"
                     r"([\d.]+)\s+(\d+)\s+([\d.]+)\s+([\d.]+)\s*$")


class Sweep(Workload):
    """Figure 3 and Table 3 with their default topologies at ``jobs=1``."""

    name = "sweep"
    FIG3_ORDERS = 25

    def __init__(self, seed: int, quick: bool) -> None:
        self.rng = np.random.default_rng(seed)

    def setup(self) -> None:
        from repro.experiments import fig3, table3

        self.fig3, self.table3 = fig3, table3

    def round(self):
        return [int(self.rng.integers(2**31))]

    def execute(self, seed):
        return (self.fig3.run(seed=seed, jobs=1, use_cache=False),
                self.table3.run(seed=seed, jobs=1, use_cache=False))

    def check(self, ops) -> None:
        from repro.analysis import batched_sequence_hsd
        from repro.experiments.common import figure3_cps_factories
        from repro.ordering import random_order
        from repro.topology import paper_topologies

        factories = figure3_cps_factories()
        tables: dict = {}
        for op in (o for o in ops if o.ok):
            fig3_text, table3_text = op.out
            rows = {(m[1], m[3]): tuple(float(m[k]) for k in (4, 5, 6))
                    for m in map(_ROW.match, fig3_text.splitlines()) if m}
            _require(len(rows) == len(self.fig3.DEFAULT_TOPOS)
                     * len(factories), "fig3: rows missing")
            for key, (mean, lo, hi) in rows.items():
                _require(1.0 <= lo <= mean <= hi,
                         f"fig3 {key}: not 1 <= min <= mean <= max")
            t3 = [m for m in map(_T3_ROW.match, table3_text.splitlines())
                  if m]
            _require(len(t3) == 2 * len(self.table3.DEFAULT_CASES),
                     "table3: rows missing")
            for m in t3:
                _require(m[5] == "1.000" and m[6] == "1",
                         f"table3 {m[1]} {m[2]} {m[4]}: proposed HSD not 1")
            # One sampled (topology, CPS, order) against the reference.
            pick = np.random.default_rng(op.item)
            topo = str(pick.choice(self.fig3.DEFAULT_TOPOS))
            cps_name = str(pick.choice(sorted(factories)))
            t = int(pick.integers(self.FIG3_ORDERS))
            if topo not in tables:
                tables[topo] = _tables(topo)
            n = paper_topologies()[topo].num_endports
            cps = factories[cps_name](n)
            placement = random_order(n, seed=op.item + t)
            lib = batched_sequence_hsd(tables[topo], cps, placement[None])
            lib_max = [int(v) for v in lib.stage_max[0] if v >= 0]
            ref_max = refwalk.stage_maxima(tables[topo], _stage_pairs(cps),
                                           placement)
            _require(lib_max == ref_max,
                     f"{topo}/{cps_name}/order {t}: per-stage maxima "
                     "differ from the reference walk")
            mean, lo, hi = rows[(topo, cps_name)]
            _require(lo - 5e-4 <= np.mean(ref_max) <= hi + 5e-4,
                     f"{topo}/{cps_name}: order {t} lies outside the "
                     "reported min..max")

    def install_tracing(self, tracer) -> None:
        from repro.runtime import ParallelSweeper

        _trace_tables(tracer)
        tracer.patch_function("repro.ordering.orders", "random_order",
                              "ordering.random_order")
        for fn in ("stage_flows", "stage_flows_batch"):
            tracer.patch_function("repro.collectives.schedule", fn,
                                  "collectives.stage_flows")
        tracer.patch_function(
            "repro.analysis.hsd", "walk_flow_links",
            "analysis.walk_flow_links",
            _count_walked(None, "analysis.flows_walked"))

        def batched(tracer, args, kwargs, out):
            tracer.counts["analysis.placements"] += out.num_orders

        def serial(tracer, args, kwargs, out):
            tracer.counts["analysis.placements"] += 1

        tracer.patch_function("repro.analysis.hsd", "batched_sequence_hsd",
                              "analysis.batched_hsd_self", batched)
        tracer.patch_function("repro.analysis.hsd", "sequence_hsd",
                              "analysis.sequence_hsd_self", serial)
        tracer.patch_method(ParallelSweeper, "order_sweep",
                            "runtime.order_sweep_self")
        tracer.patch_function("repro.analysis.report", "render_table",
                              "experiments.render")


# ----------------------------------------------------------------------
class Simulate(Workload):
    """Figure 2 packet-model points, credits 4, fixed message sizes."""

    name = "simulate"

    def __init__(self, seed: int, quick: bool) -> None:
        self.rng = np.random.default_rng(seed)

    def setup(self) -> None:
        import repro.ordering
        import repro.sim
        from repro.collectives import recursive_doubling, shift

        # Called through their modules, so traced runs see the wrappers.
        self.ordering, self.sim = repro.ordering, repro.sim
        self.tables = {topo: _tables(topo) for topo in ("n128", "n324")}
        self.cps = {}
        for topo, tables in self.tables.items():
            n = tables.fabric.num_endports
            self.cps[topo, "shift"] = shift(
                n, displacements=range(1, SIM_SHIFT_STAGES + 1))
            self.cps[topo, "recdbl"] = recursive_doubling(n)

    def round(self):
        return [int(self.rng.integers(2**31))]

    def _placement(self, n: int, kind: str, seed: int) -> np.ndarray:
        return (np.arange(n, dtype=np.int64) if kind == "ordered"
                else self.ordering.random_order(n, seed=seed))

    def layer_extras(self, traced, tracer) -> dict:
        core_s = tracer.self_time.get("sim.event_core", 0.0)
        return {"sim.event_core_packets_per_s":
                tracer.counts["sim.fallback_packets"] / core_s if core_s
                else 0.0}

    def execute(self, seed):
        out = []
        for topo, series, kb in SIM_POINTS:
            tables = self.tables[topo]
            n = tables.fabric.num_endports
            cps_name, kind = series.split("/")
            wl = self.sim.cps_workload(self.cps[topo, cps_name],
                                   self._placement(n, kind, seed), n,
                                   kb * 1024.0)
            res = self.sim.PacketSimulator(
                tables, credit_limit=SIM_CREDITS,
                max_events=50_000_000).run_sequences(wl)
            out.append((res.total_bytes, res.makespan,
                        res.normalized_bandwidth, res.engine_stats,
                        res.calibration))
        return out

    def check(self, ops) -> None:
        for op in (o for o in ops if o.ok):
            ordered_bw: dict = {}
            random_bw: dict = {}
            for (topo, series, kb), (total, makespan, bw, stats, cal) in zip(
                    SIM_POINTS, op.out):
                label = f"{topo} {series} {kb}KB"
                tables = self.tables[topo]
                n = tables.fabric.num_endports
                cps_name, kind = series.split("/")
                placement = self._placement(n, kind, op.item)
                size = kb * 1024.0
                seqs: list[list] = [[] for _ in range(n)]
                for pairs in _stage_pairs(self.cps[topo, cps_name]):
                    src, dst = refwalk.placement_flows(pairs, placement)
                    for s, d in zip(src.tolist(), dst.tolist()):
                        seqs[s].append((d, size))
                _require(total == size * sum(map(len, seqs)),
                         f"{label}: delivered {total} bytes, workload has "
                         f"{size * sum(map(len, seqs))}")
                caps = refwalk.link_capacities(
                    tables.fabric, cal.link_bandwidth, cal.host_bandwidth)
                bound = refwalk.byte_bound(tables, seqs, caps)
                _require(makespan >= bound * (1 - 1e-9),
                         f"{label}: makespan {makespan} below the per-link "
                         f"byte bound {bound}")
                if kind == "ordered":
                    _require(stats.fast_path and stats.conflicts == 0,
                             f"{label}: ordered point left the fast path")
                (ordered_bw if kind == "ordered" else random_bw).setdefault(
                    (topo, kb), []).append(bw)
            for key, values in ordered_bw.items():
                rand = random_bw.get(key, [])
                _require(min(values) > max(rand, default=0.0),
                         f"{key}: ordered bandwidth {values} not above "
                         f"random {rand}")

    def install_tracing(self, tracer) -> None:
        from repro.sim import PacketSimulator

        tracer.patch_function("repro.ordering.orders", "random_order",
                              "ordering.random_order")
        tracer.patch_function("repro.sim.workload", "cps_workload",
                              "sim.workload_build")
        tracer.patch_function("repro.sim.packet_vector", "run_vectorized",
                              "sim.vector")

        def engine(tracer, args, kwargs, out):
            stats = out.engine_stats
            tracer.counts["sim.packets"] += stats.packets
            tracer.counts["sim.conflicts"] += stats.conflicts
            if stats.fallback:
                tracer.counts["sim.fallback_runs"] += 1
                tracer.counts["sim.fallback_packets"] += stats.packets
                return "sim.event_core"
            return "sim.fast_finalize"

        tracer.patch_method(PacketSimulator, "run_sequences",
                            "sim.run_sequences", engine)


# ----------------------------------------------------------------------
class Serve(Workload):
    """Closed loop of rotate deltas against ``CertificationService``."""

    name = "serve"

    def __init__(self, seed: int, root: str) -> None:
        rng = np.random.default_rng(seed)
        self.seed_base = int(rng.integers(2**30))
        self.sample_rng = rng
        self.root = root
        self.next_seed = 0
        self.workdir = None
        self.loop = None
        self.svc = None

    def _payload(self):
        self.next_seed += 1
        return {"topo": SERVE_TOPO, "kind": "delta", "order": "rotate",
                "order_seed": self.seed_base + self.next_seed}

    def setup(self) -> None:
        from repro.serve import CertificationService, ServiceConfig

        self.workdir = tempfile.mkdtemp(prefix="serve-", dir=self.root)
        self.loop = asyncio.new_event_loop()
        self.loop.run_until_complete(self._start(CertificationService(
            ServiceConfig(workers=SERVE_WORKERS, journal_path=os.path.join(
                self.workdir, "journal.jsonl")))))

    async def _start(self, svc) -> None:
        t0 = time.perf_counter()
        self.svc = svc
        await svc.start()
        t1 = time.perf_counter()
        base = await svc.submit({"topo": SERVE_TOPO})
        _require(base["status"] == "certified", "serve: base not certified")
        # One delta per worker caches the base state on both of them.
        warm = await asyncio.gather(
            *[svc.submit(self._payload()) for _ in range(SERVE_WORKERS)])
        _require(all(r["status"] == "certified" for r in warm),
                 "serve: warm-up delta not certified")
        self.start_s = t1 - t0
        self.warm_s = time.perf_counter() - t1

    def close(self) -> None:
        if self.svc is not None:
            self.loop.run_until_complete(self.svc.stop())
            self.svc = None
        if self.loop is not None:
            self.loop.close()
            self.loop = None
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)
            self.workdir = None

    def worker_peak_rss_mb(self) -> float:
        peak = 0.0
        for pid in self.svc.pool.pids():
            try:
                with open(f"/proc/{pid}/status") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            peak = max(peak, int(line.split()[1]) / 1024)
            except OSError:
                continue
        return peak

    def run(self, seconds: float, phase: str):
        """Closed loop for ``seconds``; returns ``(ops, wall_s)``."""
        ops: list = []

        async def client() -> None:
            while time.perf_counter() < stop:
                payload = self._payload()
                t = time.perf_counter()
                try:
                    resp = await self.svc.submit(payload)
                    ok = resp.get("status") == "certified"
                except Exception as exc:  # noqa: BLE001 - counted as failed
                    resp, ok = {"error": repr(exc)}, False
                ops.append(Op(item=payload, latency=time.perf_counter() - t,
                              ok=ok, out=resp, phase=phase))

        async def clients() -> None:
            await asyncio.gather(*[client() for _ in range(SERVE_CLIENTS)])

        start = time.perf_counter()
        stop = start + seconds
        self.loop.run_until_complete(clients())
        return ops, time.perf_counter() - start

    def check(self, ops) -> None:
        done = [op for op in ops if op.ok]
        for op in done:
            _require(op.out["maxima"] and set(op.out["maxima"]) == {1},
                     f"delta {op.item['order_seed']}: stage maxima are not "
                     "all 1")
        tables = _tables(SERVE_TOPO)
        n = tables.fabric.num_endports
        stages = _shift_stages(n, _cli_shift_displacements(n))
        picks = self.sample_rng.choice(
            len(done), size=min(SERVE_SAMPLED_CHECKS, len(done)),
            replace=False)
        for i in picks:
            op = done[int(i)]
            placement = np.roll(np.arange(n, dtype=np.int64),
                                op.item["order_seed"])
            ref = refwalk.stage_maxima(tables, stages, placement)
            _require(ref == op.out["maxima"],
                     f"delta {op.item['order_seed']}: maxima differ from "
                     "the reference walk")

    def layer_extras(self, traced, tracer) -> dict:
        """Request-latency split from the responses, set-up split, and
        the in-process replay of the traced requests."""
        done = [op for op in traced if op.ok]
        return {
            "serve.admission_s": statistics.fmean(
                op.latency - op.out["elapsed_s"] for op in done),
            "serve.dispatch_s": statistics.fmean(
                op.out["elapsed_s"] - op.out["compute_s"] for op in done),
            "serve.compute_s": statistics.fmean(
                op.out["compute_s"] for op in done),
            "serve.start_s": self.start_s,
            "serve.warm_s": self.warm_s,
            "serve.flows_recomputed": statistics.fmean(
                op.out["incremental"]["flows_recomputed"] for op in done),
            "serve.base_cache_hits": statistics.fmean(
                op.out["incremental"]["base_cached"] for op in done),
            "check.symbolic_recertify_s": self.replay(done),
        }

    def replay(self, ops) -> float:
        """Mean in-process ``execute_request`` time over (a sample of)
        ``ops``, through a base state warmed the way a worker's is."""
        from repro.serve.workers import execute_request

        states: dict = {}
        execute_request({"topo": SERVE_TOPO}, states)
        step = max(1, len(ops) // SERVE_REPLAY_MAX)
        sample = ops[::step][:SERVE_REPLAY_MAX]
        times, outs = [], []
        for op in sample:
            t = time.perf_counter()
            outs.append(execute_request(op.item, states))
            times.append(time.perf_counter() - t)
        for op, out in zip(sample, outs):
            _require(out.get("maxima") == op.out.get("maxima"),
                     "in-process replay disagrees with the service")
        return statistics.fmean(times)

    def install_tracing(self, tracer) -> None:
        from repro.serve import Journal

        tracer.patch_method(Journal, "accepted", "serve.journal")
        tracer.patch_method(Journal, "done", "serve.journal")


@dataclass
class Op:
    """One attempted op: its input, latency, success, output, and
    whether it ran traced."""

    item: Any
    latency: float
    ok: bool
    out: Any
    phase: str


SEQUENTIAL = {"certify": Certify, "sweep": Sweep, "simulate": Simulate}
