"""Podset-sharded fleet execution for paper-scale deployments.

The per-agent scheduler (`PingmeshSystem._agent_round`) is the right model
for fidelity experiments, but at the paper's scale — tens of thousands of
servers, millions of probes per round — the per-agent event, counter and
delta overhead dominates.  :class:`ShardedFleet` replaces that orchestration
(and only that orchestration: the analytics planes are untouched) with one
driver that runs probe rounds a *shard* at a time:

* a shard is one (dc, podset) — the unit the pinglist generator, the
  heatmap, and the stream plane's roll-ups already think in;
* each shard's agents compile their pinglists into closed-form class plans
  (:meth:`~repro.netsim.fabric.Fabric.build_class_plan`), merged into one
  plan per shard — multinomial additivity makes the merge exact, so a
  16k-server round is a few numpy draws per shard, not 16k array calls;
* pairs the class engine cannot serve (faulted envelopes, payload probes,
  down endpoints) degrade to the per-pair fast path with full per-probe
  records, and VIP probes keep the scalar state machine, per agent;
* results feed shard-level :class:`~repro.core.agent.counters.LatencyCounters`,
  shard uploaders (per-probe rows on ``pingmesh/latency``, class summaries
  on ``pingmesh/latency-class``) and the stream plane's shard aggregator —
  everything mergeable, one merge at window close.

Shards run one after another, in (dc, podset) order.  Each shard draws
its class outcomes from its own RNG stream.
"""

from __future__ import annotations

import numpy as np

from repro.core.agent.agent import PingmeshAgent
from repro.core.agent.counters import LatencyCounters
from repro.core.agent.uploader import ResultUploader
from repro.core.dsa.records import (
    CLASS_STREAM,
    make_class_record,
    make_records,
)
from repro.core.system import PingmeshSystem
from repro.netsim.fabric import ClassRoundPlan, merge_class_plans

__all__ = ["FleetShard", "ShardedFleet"]


class FleetShard:
    """One (dc, podset) worth of agents, driven as a unit."""

    def __init__(
        self,
        fleet: "ShardedFleet",
        dc: int,
        podset: int,
        agents: list[PingmeshAgent],
    ) -> None:
        system = fleet.system
        self.fleet = fleet
        self.dc = dc
        self.podset = podset
        self.agents = agents
        self.shard_id = f"shard:dc{dc}/podset{podset}"
        config = system.config.agent
        self.counters = LatencyCounters(
            reservoir_size=config.reservoir_size,
            seed=(system.config.seed * 1_000_003 + dc * 4093 + podset) % 2**31,
        )
        self.rng = np.random.default_rng([system.config.seed, dc, podset])
        self.probe_uploader = ResultUploader(
            system.store,
            self.shard_id,
            flush_threshold_records=config.upload_threshold_records,
            retry_base_s=config.upload_retry_base_s,
            retry_cap_s=config.upload_retry_cap_s,
            spool_cap_records=config.upload_spool_cap_records,
        )
        self.class_uploader = ResultUploader(
            system.store,
            self.shard_id,
            stream=CLASS_STREAM,
            flush_threshold_records=config.upload_threshold_records,
            retry_base_s=config.upload_retry_base_s,
            retry_cap_s=config.upload_retry_cap_s,
            spool_cap_records=config.upload_spool_cap_records,
        )
        self.aggregator = (
            system.stream.shard_aggregator(dc, podset)
            if system.stream is not None
            else None
        )
        self._record_server_cache: dict = {}
        self._plan_key: tuple | None = None
        self._plan: ClassRoundPlan | None = None
        self._passthrough: list = []  # (agent, entries, tags) with entries left
        self._vip_agents: list = []  # (agent, vip_entries)
        self.last_upload_t = 0.0
        self.probes_sent = 0
        self.rounds_run = 0

    # -- plan compilation --------------------------------------------------

    def _active_agents(self) -> list[PingmeshAgent]:
        topology = self.fleet.system.topology
        return [
            agent
            for agent in self.agents
            if agent.probing and topology.server(agent.server_id).is_up
        ]

    def _compiled(self, active: list[PingmeshAgent]):
        """The shard's merged class plan + degraded work, memoized on the
        fabric generation and every agent's pinglist snapshot."""
        fabric = self.fleet.system.fabric
        key = (
            fabric.state_version,
            tuple(id(agent.pinglist) for agent in active),
        )
        if key == self._plan_key:
            return self._plan, self._passthrough, self._vip_agents
        passthrough: list = []
        vip_agents: list = []
        plans: list[ClassRoundPlan] = []
        for agent in active:
            vip_entries, probe_entries, tags = agent._round_entries()
            if vip_entries:
                vip_agents.append((agent, vip_entries))
            if not probe_entries:
                continue
            plan = fabric.build_class_plan(agent.server_id, probe_entries, tags)
            plans.append(plan)
            if plan.passthrough:
                passthrough.append(
                    (
                        agent,
                        [probe_entries[i] for i in plan.passthrough],
                        [tags[i] for i in plan.passthrough],
                    )
                )
        merged = merge_class_plans(plans)
        self._plan_key = key
        self._plan = merged
        self._passthrough = passthrough
        self._vip_agents = vip_agents
        return merged, passthrough, vip_agents

    # -- execution ---------------------------------------------------------

    def run_serial_part(self, t: float) -> int:
        """VIP probes + degraded per-pair probes (the scalar and fast
        engines draw from the fabric RNG).

        Degraded/faulted pairs feed the *agent's* pair-granularity stream
        aggregator, not the shard's class-granular one: these are exactly
        the outcomes detectors may need to localize per pod (black-hole
        candidates), while the healthy closed-form bulk stays
        class-granular in :meth:`fold_outcomes`.
        """
        active = self._active_agents()
        _plan, passthrough, vip_agents = self._compiled(active)
        fabric = self.fleet.system.fabric
        launched = 0
        for agent, vip_entries in vip_agents:
            for entry in vip_entries:
                launched += agent._probe_vip(entry, t)
        for agent, entries, tags in passthrough:
            results = fabric.probe_many(agent.server_id, entries, t=t)
            self.counters.add_many((r.success, r.rtt_s) for r in results)
            if agent.stream_aggregator is not None:
                agent.stream_aggregator.observe_round(
                    t,
                    (
                        (purpose, result.success, result.rtt_s * 1e6)
                        for result, (purpose, _qos) in zip(results, tags)
                    ),
                )
            self.probe_uploader.add_many(
                agent._tag_stale_many(
                    make_records(
                        fabric.topology,
                        [
                            (result, purpose, qos)
                            for result, (purpose, qos) in zip(results, tags)
                        ],
                        server_cache=self._record_server_cache,
                    )
                )
            )
            launched += len(results)
        return launched

    def run_class_part(self, t: float) -> list:
        """The closed-form draws of the shard's merged plan, from the
        shard's own RNG stream."""
        plan = self._plan
        if plan is None or not plan.groups:
            return []
        return self.fleet.system.fabric.run_class_plan(plan, t=t, rng=self.rng)

    def fold_outcomes(self, t: float, outcomes: list) -> int:
        """Fold class outcomes into the shard's planes."""
        launched = 0
        for outcome in outcomes:
            self.counters.add_class_round(outcome.failed, outcome.rtt_s)
            if self.aggregator is not None:
                self.aggregator.observe_class_round(
                    t, outcome.purpose, outcome.failed, outcome.rtt_s * 1e6
                )
            self.class_uploader.add(
                make_class_record(outcome, t, self.shard_id, self.dc, self.podset, -1)
            )
            launched += outcome.n
        return launched

    def maybe_upload(self, t: float) -> None:
        """The agents' upload discipline at shard granularity."""
        config = self.fleet.system.config.agent
        timer_due = (t - self.last_upload_t) >= config.upload_period_s
        replay_due = self.probe_uploader.replay_due(t) or self.class_uploader.replay_due(t)
        if (
            not timer_due
            and not self.probe_uploader.should_flush
            and not self.class_uploader.should_flush
            and not replay_due
        ):
            return
        self.probe_uploader.flush(t)
        self.class_uploader.flush(t)
        self.last_upload_t = t
        self.counters.reset_window()


class ShardedFleet:
    """Runs a :class:`PingmeshSystem`'s probe rounds shard at a time.

    Usage::

        system = PingmeshSystem(config)        # round_mode="class" advised
        fleet = ShardedFleet(system)
        fleet.run_for(600.0)                   # one simulated 10-min window

    The system is started with ``schedule_probe_rounds=False``; everything
    else (pinglist refreshes, DSA jobs, stream ticks, watchdogs, repairs)
    keeps its normal schedule, and the fleet installs one recurring
    fleet-round event in the same queue.
    """

    def __init__(self, system: PingmeshSystem) -> None:
        self.system = system
        self.shards: dict[tuple[int, int], FleetShard] = {}
        self._agent_count = -1
        self._scheduled = False
        self.probes_sent = 0
        self.rounds_run = 0
        # On-demand probes injected by an attached broker are accounted
        # separately so baseline probe streams stay bit-identical with the
        # broker idle (the no-interference gate).
        self.broker_probes_sent = 0
        if not system._started:
            system.start(schedule_probe_rounds=False)
        elif system._schedule_probe_rounds:
            raise RuntimeError(
                "system already runs per-agent rounds; build the fleet "
                "before starting the system"
            )

    # -- shard maintenance -------------------------------------------------

    def _refresh_shards(self) -> None:
        """(Re)group agents by (dc, podset); idempotent, growth-aware."""
        if len(self.system.agents) == self._agent_count:
            return
        topology = self.system.topology
        grouped: dict[tuple[int, int], list[PingmeshAgent]] = {}
        for agent in self.system.agents.values():
            server = topology.server(agent.server_id)
            grouped.setdefault(
                (server.dc_index, server.podset_index), []
            ).append(agent)
        for key, agents in grouped.items():
            shard = self.shards.get(key)
            if shard is None:
                self.shards[key] = FleetShard(self, key[0], key[1], agents)
            else:
                shard.agents = agents
                shard._plan_key = None  # membership changed: recompile
        self._agent_count = len(self.system.agents)

    # -- the round ---------------------------------------------------------

    def run_round(self, t: float | None = None) -> int:
        """One fleet-wide probe round: every shard's serial work, then every
        shard's class draws, then the folds."""
        if t is None:
            t = self.system.clock.now
        self._refresh_shards()
        ordered = [self.shards[key] for key in sorted(self.shards)]
        launched = 0
        serial_launched = []
        for shard in ordered:
            n = shard.run_serial_part(t)
            serial_launched.append(n)
            launched += n
        outcome_lists = [shard.run_class_part(t) for shard in ordered]
        for shard, outcomes, n_serial in zip(ordered, outcome_lists, serial_launched):
            n_class = shard.fold_outcomes(t, outcomes)
            launched += n_class
            shard.probes_sent += n_serial + n_class
            shard.rounds_run += 1
            shard.maybe_upload(t)
        for agent in self.system.agents.values():
            agent.maybe_upload(t)
        self.probes_sent += launched
        self.rounds_run += 1
        broker = self.system.broker
        if broker is not None:
            # On-demand work runs strictly after every baseline draw, with
            # the fabric's own RNG: an idle broker draws nothing, so
            # baseline streams are bit-identical either way.
            self.broker_probes_sent += broker.on_fleet_round(self, t)
        return launched

    def close(self) -> None:
        """Release the fleet's resources.  The fleet holds none (shards run
        in this process), so this does nothing; it is kept for callers
        that close what they build."""

    # -- scheduling --------------------------------------------------------

    def schedule(self) -> None:
        """Install the recurring fleet-round event (idempotent)."""
        if self._scheduled:
            return
        self._scheduled = True

        def fleet_round() -> None:
            self.run_round(self.system.clock.now)
            self.system.queue.schedule_after(
                self.system._round_interval(), fleet_round, name="fleet-round"
            )

        self.system.queue.schedule_after(0.0, fleet_round, name="fleet-round")

    def run_for(self, duration_s: float, max_events: int | None = None) -> int:
        """Schedule (if needed) and advance the deployment."""
        self.schedule()
        return self.system.run_for(duration_s, max_events=max_events)

    # -- roll-ups ----------------------------------------------------------

    def fleet_counters(self) -> LatencyCounters:
        """All shards' (and VIP agents') window counters, merged."""
        config = self.system.config.agent
        merged = LatencyCounters(
            reservoir_size=config.reservoir_size, seed=self.system.config.seed
        )
        for key in sorted(self.shards):
            merged.merge(self.shards[key].counters)
        for agent in self.system.agents.values():
            if agent.counters.probes_total:
                merged.merge(agent.counters)
        return merged
