"""The benchmark's workloads, each generated from a seed.

A workload turns ``--seed`` into inputs (a system config plus, for some,
fault times or tenant requests), then drives one fresh deployment through
its public API: set-up, a run of simulated 10-minute windows, and an
optional drain.  The program only ever sees the generated inputs.
"""

from __future__ import annotations

import bisect
import random
import time
from dataclasses import dataclass, field

from repro.broker import AdmissionConfig, BrokerConfig, MeasurementBroker, TenantQuota
from repro.broker.requests import RequestState
from repro.core.agent.agent import AgentConfig
from repro.core.controller.generator import GeneratorConfig
from repro.core.dsa.pipeline import DsaConfig
from repro.core.sharded import ShardedFleet
from repro.core.system import PingmeshSystem, PingmeshSystemConfig
from repro.netsim.faultschedule import FaultSchedule
from repro.netsim.topology import TopologySpec
from repro.stream.plane import StreamConfig

WINDOW_S = 600.0

SPEC_4K = TopologySpec(n_podsets=8, pods_per_podset=16, servers_per_pod=32, n_spines=16)
SPEC_1K = TopologySpec(n_podsets=4, pods_per_podset=16, servers_per_pod=16, n_spines=8)
SPEC_256 = TopologySpec(name="dc0", region="us-west", n_podsets=2,
                        pods_per_podset=8, servers_per_pod=16)


def _sharded_config(spec: TopologySpec, peers: int, seed: int) -> PingmeshSystemConfig:
    """The configuration the repo's scale and broker suites drive."""
    return PingmeshSystemConfig(
        specs=(spec,),
        seed=seed,
        generator=GeneratorConfig(max_peers_per_server=peers),
        agent=AgentConfig(round_mode="class", upload_period_s=600.0),
        dsa=DsaConfig(ingestion_delay_s=0.0, near_real_time_period_s=300.0),
        stream=StreamConfig(shard_aggregation=True),
    )


@dataclass
class Deployment:
    """One running system plus its round driver and workload extras."""

    system: PingmeshSystem
    fleet: ShardedFleet | None = None
    broker: MeasurementBroker | None = None
    channels: list = field(default_factory=list)  # broker result channels
    submit_s: dict = field(default_factory=dict)  # kind -> [wall seconds]
    round_times: list = field(default_factory=list)  # simulated fleet rounds
    inflight_max: int = 0
    prepare_s: float = 0.0

    def run_for(self, seconds: float) -> None:
        if self.fleet is not None:
            self.fleet.run_for(seconds)
        else:
            self.system.run_for(seconds)

    @property
    def probes_sent(self) -> int:
        if self.fleet is not None:
            return self.fleet.probes_sent + self.fleet.broker_probes_sent
        return self.system.total_probes_sent()


class Workload:
    name = ""
    why = ""
    windows = 1  # simulated 10-minute windows measured
    drain_s = 0.0  # extra simulated time after the windows (not a window)

    def inputs(self, seed: int) -> dict:
        return {"config": self.config(seed)}

    def config(self, seed: int) -> PingmeshSystemConfig:
        raise NotImplementedError

    def start(self, system: PingmeshSystem) -> Deployment:
        """Build the round driver (the end of set-up)."""
        return Deployment(system, fleet=ShardedFleet(system))

    def prepare(self, deployment: Deployment, inputs: dict) -> None:
        """Attach the workload's extra inputs after set-up."""

    def checks(self, deployment: Deployment, inputs: dict) -> list:
        """Workload-specific output checks: (name, ok, detail)."""
        return []


class Steady4k(Workload):
    name = "steady-4k"
    why = ("healthy 4096-server DC on class rounds: controller start, "
           "plan compile, class draws, fold, stream tick and PA carry it")
    windows = 6  # one cold window + warm windows up to the first hourly job

    def config(self, seed):
        return _sharded_config(SPEC_4K, 64, seed)


class Incident1k(Workload):
    name = "incident-1k"
    why = ("gray failures push pairs off the class engine: per-pair probes, "
           "per-probe rows, plan recompiles, DSA localization and alerts")
    windows = 3

    def inputs(self, seed):
        rng = random.Random(seed)
        return {
            "config": self.config(seed),
            "spine": rng.randrange(SPEC_1K.n_spines),
            "pod": rng.randrange(SPEC_1K.n_podsets * SPEC_1K.pods_per_podset),
        }

    def config(self, seed):
        return _sharded_config(SPEC_1K, 32, seed)

    def prepare(self, deployment, inputs):
        system = deployment.system
        schedule = FaultSchedule(system.fabric, system.queue)
        schedule.add("silent-spine", 120.0, 900.0, spine=inputs["spine"])
        schedule.add("tor-blackhole", 300.0, None, pod=inputs["pod"])

    def checks(self, deployment, inputs):
        system = deployment.system
        spine = system.topology.dc(0).spines[inputs["spine"]].device_id
        localized = [i.localized_switch for i in system.dsa.incidents]
        breaches = [
            alert.t
            for alert in system.alert_engine.history
            if alert.event == "breach" and 120.0 <= alert.t < 900.0
        ]
        return [
            ("silent-drop-localized", spine in localized,
             f"injected {spine}, localized {sorted(set(map(str, localized)))}"),
            ("alert-while-fault-active", bool(breaches),
             f"{len(breaches)} breach(es) in [120s, 900s)"),
        ]


# Request mix of tenants-1k: (kind, pairs per burst, share of requests).
TENANT_MIX = (("burst", 1, 0.70), ("burst", 4, 0.10), ("scope", 0, 0.10),
              ("stream", 0, 0.10))
N_TENANTS = 40_000
ARRIVAL_S = 1200.0  # open-loop arrivals over 20 simulated minutes
PROBES_PER_PAIR = 2


class Tenants1k(Workload):
    name = "tenants-1k"
    why = ("40k tenants' open-loop requests on a 1k fleet: broker admission, "
           "injected probes and Cosmos/stream reads beside the baseline")
    windows = 2
    drain_s = 180.0  # three more fleet rounds finish the last bursts

    def inputs(self, seed):
        rng = random.Random(seed)
        n_servers = (
            SPEC_1K.n_podsets * SPEC_1K.pods_per_podset * SPEC_1K.servers_per_pod
        )
        shapes = []
        for kind, n_pairs, share in TENANT_MIX:
            shapes.extend([(kind, n_pairs)] * round(share * N_TENANTS))
        rng.shuffle(shapes)
        times = sorted(rng.uniform(0.0, ARRIVAL_S) for _ in shapes)
        requests = []
        for i, ((kind, n_pairs), t) in enumerate(zip(shapes, times)):
            # Pairs are (src, dst) indices into the DC's server list.
            pairs = tuple(tuple(rng.sample(range(n_servers), 2)) for _ in range(n_pairs))
            requests.append((t, f"tenant-{i:05d}", kind, pairs))
        return {"config": self.config(seed), "requests": requests}

    def config(self, seed):
        return _sharded_config(SPEC_1K, 32, seed)

    def prepare(self, deployment, inputs):
        started = time.perf_counter()
        system = deployment.system
        # The default in-flight cap (1024) sheds load; this workload measures
        # admission and injection, so the cap sits above the peak backlog.
        broker = MeasurementBroker(
            system,
            BrokerConfig(admission=AdmissionConfig(max_inflight_requests=16_384)),
        )
        deployment.broker = broker
        quota = TenantQuota(credits_per_window=32)
        servers = [server.device_id for server in system.topology.dc(0).servers]
        for t, tenant, kind, indices in inputs["requests"]:
            pairs = [(servers[src], servers[dst]) for src, dst in indices]
            broker.register_tenant(tenant, quota)
            system.queue.schedule_at(
                t, lambda r=(tenant, kind, pairs): self._submit(deployment, *r),
                name="tenant-request",
            )
        on_fleet_round = broker.on_fleet_round

        def observed_round(fleet, t):
            launched = on_fleet_round(fleet, t)
            deployment.round_times.append(t)
            deployment.inflight_max = max(deployment.inflight_max, len(broker.inflight))
            return launched

        broker.on_fleet_round = observed_round
        deployment.prepare_s = time.perf_counter() - started

    @staticmethod
    def _submit(deployment, tenant, kind, pairs):
        broker = deployment.broker
        started = time.perf_counter()
        if kind == "burst":
            channel = broker.submit(tenant, pairs=pairs, probes_per_pair=PROBES_PER_PAIR)
        else:
            channel = broker.submit(tenant, kind=kind)
        deployment.submit_s.setdefault(kind, []).append(time.perf_counter() - started)
        deployment.channels.append(channel)


class PerAgent256(Workload):
    name = "per-agent-256"
    why = ("the quickstart's per-agent driver for one simulated hour: "
           "per-agent rounds, per-probe Cosmos rows and the hourly job")
    windows = 6

    def config(self, seed):
        # examples/quickstart.py, with the benchmark's seed.
        return PingmeshSystemConfig(
            specs=(SPEC_256,),
            seed=seed,
            dsa=DsaConfig(ingestion_delay_s=0.0, near_real_time_period_s=300.0),
            agent=AgentConfig(upload_period_s=120.0),
        )

    def start(self, system):
        system.start()
        return Deployment(system)


WORKLOADS = {w.name: w for w in (Steady4k(), Incident1k(), Tenants1k(), PerAgent256())}


def broker_request_failures(deployment: Deployment) -> int:
    """Requests refused, shed, failed closed, truncated or unfinished."""
    return sum(
        1
        for channel in deployment.channels
        if channel.state is not RequestState.COMPLETED
    )


def result_rounds(deployment: Deployment) -> list[int]:
    """Fleet rounds from submit to result, per finished burst."""
    rounds = deployment.round_times
    out = []
    for channel in deployment.channels:
        if channel.kind != "burst" or channel.terminal_t is None:
            continue
        out.append(
            bisect.bisect_right(rounds, channel.terminal_t)
            - bisect.bisect_left(rounds, channel.submitted_t)
        )
    return out
