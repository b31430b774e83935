"""Gated benchmark: paper-scale fleets through the sharded class driver.

The paper runs Pingmesh on tens of thousands of servers; this suite holds
the simulator to that scale.  For each fleet size a full system (agents,
controller, DSA, stream plane) simulates one 10-minute probing window
through :class:`~repro.core.sharded.ShardedFleet` with closed-form class
rounds, and the wall-clock must stay inside a per-size budget — measured
headroom is ~4-5x on the reference machine, so a breach means a real
regression, not noise.  A second gate pins the class-round engine's edge
over the per-pair fast path at the 4k size: ≥3x per probe.  That gate is
a ratio of two legs timed on the same machine, so it does not depend on
the machine's speed.  The top rung is 64k servers — past the paper's
"tens of thousands" — whose window budget assumes the lazy pinglist path
(system start renders 64k pinglists; eager generation would blow the
suite's runtime long before the window starts).

Run via ``check_regressions.py --suite scale`` → ``BENCH_scale.json``.
"""

import time

import pytest

from repro.core.agent.agent import AgentConfig
from repro.core.controller.generator import GeneratorConfig
from repro.core.dsa.pipeline import DsaConfig
from repro.core.sharded import ShardedFleet
from repro.core.system import PingmeshSystem, PingmeshSystemConfig
from repro.netsim.topology import TopologySpec
from repro.stream.plane import StreamConfig

SIZES = {
    "1k-servers": TopologySpec(
        n_podsets=4, pods_per_podset=16, servers_per_pod=16, n_spines=8
    ),
    "4k-servers": TopologySpec(
        n_podsets=8, pods_per_podset=16, servers_per_pod=32, n_spines=16
    ),
    "16k-servers": TopologySpec(
        n_podsets=16, pods_per_podset=32, servers_per_pod=32, n_spines=32
    ),
    "64k-servers": TopologySpec(
        n_podsets=32, pods_per_podset=32, servers_per_pod=64, n_spines=64
    ),
}

# Wall-clock budget (seconds) for one simulated 10-minute window, per size.
# Topology build and fleet start are one-time costs outside the budget.
WINDOW_BUDGET_S = {
    "1k-servers": 5.0,
    "4k-servers": 20.0,
    "16k-servers": 110.0,
    "64k-servers": 300.0,  # measured ~75s on the reference machine
}

SPEEDUP_FLOOR = 3.0  # class rounds vs per-pair fast path, 4k servers
SPEEDUP_SPEC = SIZES["4k-servers"]
ROUNDS_PER_LEG = 3


def _build(spec, round_mode="class", shard_aggregation=True):
    system = PingmeshSystem(
        PingmeshSystemConfig(
            specs=(spec,),
            seed=1,
            generator=GeneratorConfig(max_peers_per_server=64),
            agent=AgentConfig(round_mode=round_mode, upload_period_s=600.0),
            dsa=DsaConfig(ingestion_delay_s=0.0, near_real_time_period_s=300.0),
            stream=StreamConfig(shard_aggregation=shard_aggregation),
        )
    )
    return system


@pytest.mark.parametrize("label", list(SIZES))
def bench_scale_window(benchmark, label):
    """One simulated 10-minute window, sharded class rounds, gated."""
    system = _build(SIZES[label])
    fleet = ShardedFleet(system)

    def window():
        start = time.perf_counter()
        fleet.run_for(600.0)
        return time.perf_counter() - start

    elapsed = benchmark.pedantic(window, rounds=1, iterations=1)
    budget = WINDOW_BUDGET_S[label]
    benchmark.extra_info["window_s"] = round(elapsed, 2)
    benchmark.extra_info["budget_s"] = budget
    benchmark.extra_info["probes"] = fleet.probes_sent
    assert fleet.probes_sent > 0
    assert elapsed <= budget, (
        f"{label}: simulated 10-minute window took {elapsed:.1f}s "
        f"(budget {budget:.0f}s)"
    )
    # Conservation must survive the scale: the stream plane's ledger is
    # exact even when every delta is shard-merged.
    ledger = system.stream.conservation()
    assert ledger["probes_folded"] == (
        ledger["probes_emitted"] + ledger["probes_pending"]
    )


def _timed_fleet_round(fleet, t):
    start = time.perf_counter()
    probes = fleet.run_round(t)
    return (time.perf_counter() - start) / probes


def _timed_agent_round(system, t):
    start = time.perf_counter()
    probes = sum(agent.run_probe_round(t) for agent in system.agents.values())
    return (time.perf_counter() - start) / probes


def bench_scale_class_vs_fast_speedup(benchmark):
    """The ≥3x gate at 4k servers: sharded class rounds vs per-agent
    per-pair fast rounds.  Matched interleaved best-of-N legs, as in
    ``bench_fleet_round_speedup``."""
    classed = _build(SPEEDUP_SPEC)
    fleet = ShardedFleet(classed)
    fast = _build(SPEEDUP_SPEC, round_mode="fast", shard_aggregation=False)
    fast.start()

    def measure():
        fleet.run_round(0.0)  # warm: compile + merge the shard plans
        _timed_agent_round(fast, 0.0)  # warm: pair/path caches
        class_times, fast_times = [], []
        for i in range(ROUNDS_PER_LEG):
            t = 60.0 * (1 + i)
            class_times.append(_timed_fleet_round(fleet, t))
            fast_times.append(_timed_agent_round(fast, t))
        return min(fast_times) / min(class_times)

    speedup = benchmark.pedantic(measure, rounds=1, iterations=1)
    benchmark.extra_info["speedup"] = round(speedup, 1)
    benchmark.extra_info["rounds_per_leg"] = ROUNDS_PER_LEG
    assert speedup >= SPEEDUP_FLOOR, (
        f"class rounds only {speedup:.1f}x over the per-pair fast path "
        f"at 4k servers (gate {SPEEDUP_FLOOR:.0f}x)"
    )
