"""The pinglist generation algorithm (§3.3.1).

Three levels of complete graphs:

1. **Intra-pod, server level** — "Within a Pod, we let all the servers under
   the same ToR switch form a complete graph": every server probes every
   other server in its pod.
2. **Intra-DC, ToR level** — "for any ToR-pair (ToRx, ToRy), let server i in
   ToRx ping server i in ToRy".  Every server therefore probes exactly one
   peer (its own host index) in every other pod — *all* servers participate
   and the probing load balances itself.
3. **Inter-DC, DC level** — "all the DCs form yet another complete graph.
   In each DC, we select a number of servers (with several servers selected
   from each Podset)"; only the selected servers probe across DCs.

On top, per §6.2 extensions: a low-priority QoS class duplicates the
ToR-level graph onto a second TCP port, payload pings duplicate a slice of
it with an 800–1200 B echo, and VIPs can be added as extra targets.

"The Pingmesh Controller uses threshold values to limit the total number of
probes of a server" — ``max_peers_per_server`` trims lowest-priority entries
first.  Even when two servers appear in each other's pinglists, each
measures independently (both directions are generated).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.core.controller.pinglist import PingParameters, Pinglist, PinglistEntry
from repro.netsim.topology import ClosTopology, MultiDCTopology

__all__ = ["GeneratorConfig", "PingmeshGenerator"]

# Trim order under ``max_peers_per_server``, most important first:
# intra-pod > tor-level (high qos) > inter-dc > vip > low-qos / payload
# duplicates, which share the last level whatever their purpose.
_TRIM_PRIORITY = {"intra-pod": 0, "tor-level": 1, "inter-dc": 2, "vip": 3}
_DUPLICATE_PRIORITY = len(_TRIM_PRIORITY)


def _priority(purpose: str, qos: str, payload_bytes: int) -> int:
    if qos == "low" or payload_bytes > 0:
        return _DUPLICATE_PRIORITY
    return _TRIM_PRIORITY[purpose]


class _Target(NamedTuple):
    """A peer known only by id and address: a frozen inter-DC pick or a VIP."""

    device_id: str
    ip: str


@dataclass(frozen=True)
class GeneratorConfig:
    """Tunables of the generation algorithm."""

    probe_interval_s: float = 60.0
    max_peers_per_server: int = 5000  # the paper's upper threshold
    inter_dc_servers_per_podset: int = 2  # "several servers ... each Podset"
    enable_qos_low: bool = False  # §6.2 QoS monitoring extension
    payload_bytes: int = 1000  # payload ping size (800-1200 B, §4.1)
    payload_every_nth_peer: int = 0  # 0 disables payload entries
    vip_targets: tuple[str, ...] = ()  # §6.2 VIP monitoring extension

    def __post_init__(self) -> None:
        if self.max_peers_per_server < 1:
            raise ValueError(
                f"max_peers_per_server must be >= 1: {self.max_peers_per_server}"
            )
        if self.inter_dc_servers_per_podset < 1:
            raise ValueError(
                "inter_dc_servers_per_podset must be >= 1: "
                f"{self.inter_dc_servers_per_podset}"
            )
        if self.payload_every_nth_peer < 0:
            raise ValueError(
                f"payload_every_nth_peer must be >= 0: {self.payload_every_nth_peer}"
            )
        if not 800 <= self.payload_bytes <= 65_536:
            raise ValueError(
                f"payload_bytes outside sane range [800, 65536]: {self.payload_bytes}"
            )


class PingmeshGenerator:
    """Computes every server's pinglist from the topology.

    Entry lists are memoized per server across generations: a generation
    bump alone (kill-switch lift, config-free regenerate) re-stamps cached
    entries into fresh XML without recomputing the graph, and a topology
    delta invalidates only the servers it actually dirties (the changed
    DCs, plus inter-DC participants when the frozen selection moves).
    ``entries_computed`` counts real graph computations — the controller's
    O(changed) refresh claim is asserted against it.
    """

    def __init__(
        self, topology: MultiDCTopology, config: GeneratorConfig | None = None
    ) -> None:
        self.topology = topology
        self.config = config or GeneratorConfig()
        self.entries_computed = 0
        # dc_index -> server_id -> post-threshold entry list
        self._entry_cache: dict[int, dict[str, list[PinglistEntry]]] = {}
        self._cached_config: GeneratorConfig | None = self.config
        # (purpose, qos, payload) -> peer id -> the one entry every cached
        # list naming it shares; bounded by peers x purposes in use.
        self._shared_entries: dict[tuple, dict[str, PinglistEntry]] = {}
        # dc_index -> (_Target(device_id, ip), ...): the inter-DC selection
        # frozen at regeneration time, so a GET-time (lazy) computation
        # cannot see a different liveness view than an eager regenerate
        # would have.
        self._inter_dc_frozen: dict[int, tuple] | None = None

    # -- cache maintenance ------------------------------------------------------

    def invalidate_all(self) -> None:
        self._entry_cache.clear()
        self._shared_entries.clear()

    def invalidate_dcs(self, dc_indices) -> None:
        for index in dc_indices:
            self._entry_cache.pop(index, None)

    def invalidate_servers(self, server_ids) -> None:
        for dc_cache in self._entry_cache.values():
            for server_id in server_ids:
                dc_cache.pop(server_id, None)

    def _inter_dc_live(self) -> dict[int, tuple]:
        return {
            dc.dc_index: tuple(
                _Target(server.device_id, str(server.ip))
                for server in self.inter_dc_selection(dc)
            )
            for dc in self.topology.dcs
        }

    def refresh_inter_dc_snapshot(self) -> set:
        """Freeze the inter-DC selection at the current liveness view.

        Returns the ids of servers whose pinglists the move dirties: every
        participant of a selection that changed — old and new, all DCs —
        because a changed selection in one DC rewrites the inter-DC target
        list of every selected server everywhere.
        """
        if len(self.topology.dcs) <= 1:
            self._inter_dc_frozen = {}
            return set()
        new = self._inter_dc_live()
        old = self._inter_dc_frozen
        self._inter_dc_frozen = new
        if old is None or old == new:
            return set()
        changed: set = set()
        for snapshot in (old, new):
            for selection in snapshot.values():
                changed.update(sid for sid, _ip in selection)
        return changed

    def note_topology_delta(self, changed_dcs=None) -> None:
        """Invalidate what one regeneration's delta dirties.

        ``changed_dcs=None`` means "unknown delta" and clears everything
        (safe default); an explicit iterable — possibly empty, e.g. a pure
        generation bump when the kill switch lifts — clears only those
        DCs' servers plus any inter-DC participants the refreshed
        selection snapshot moved.
        """
        if self.config is not self._cached_config:
            self._cached_config = self.config
            self.invalidate_all()
        if changed_dcs is None:
            self.invalidate_all()
        else:
            self.invalidate_dcs(changed_dcs)
        moved = self.refresh_inter_dc_snapshot()
        if moved:
            self.invalidate_servers(moved)

    # -- selection helpers ------------------------------------------------------

    def inter_dc_selection(self, dc: ClosTopology) -> list:
        """The servers of one DC that participate in inter-DC probing.

        Deterministic given one liveness view: the first
        ``inter_dc_servers_per_podset`` *live* servers of each podset, so a
        down pivot falls through to the next live server instead of
        silently blinding its podset's inter-DC coverage until it reboots.
        Determinism matters — every controller replica must generate
        identical pinglists to stay stateless behind the VIP, and replicas
        regenerating at the same instant see the same liveness.
        """
        selected = []
        for podset in range(dc.spec.n_podsets):
            live = [s for s in dc.servers_in_podset(podset) if s.is_up]
            selected.extend(live[: self.config.inter_dc_servers_per_podset])
        return selected

    # -- the algorithm -------------------------------------------------------------

    def generate_for(
        self, server_id: str, generation: int = 1, t: float = 0.0
    ) -> Pinglist:
        """Generate the pinglist of one server (memoized entry graph)."""
        server = self.topology.server(server_id)
        if self.config is not self._cached_config:
            self._cached_config = self.config
            self.invalidate_all()
        dc_cache = self._entry_cache.setdefault(server.dc_index, {})
        entries = dc_cache.get(server.device_id)
        if entries is None:
            entries = self._compute_entries(server)
            dc_cache[server.device_id] = entries
            self.entries_computed += 1
        return Pinglist(
            server_id=server.device_id,
            generation=generation,
            generated_at=t,
            parameters=PingParameters(probe_interval_s=self.config.probe_interval_s),
            entries=entries,
        )

    def _compute_entries(self, server) -> list[PinglistEntry]:
        """The three-level graph for one server, post-threshold.

        Candidates stay peer lists; only the entries the threshold keeps
        are looked up, each one shared by every pinglist naming it.
        """
        dc = self.topology.dc(server.dc_index)
        config = self.config

        # Level 1: intra-pod complete graph.
        pod_peers = [
            peer for peer in dc.servers_in_pod(server.pod_index) if peer is not server
        ]

        # Level 2: ToR-level complete graph — "server i in ToRx pings
        # server i in ToRy".  Servers are stored pod by pod, so one strided
        # slice holds host ``i`` of every pod.
        tor_peers = dc.servers[server.host_index :: dc.spec.servers_per_pod]
        del tor_peers[server.pod_index]

        # (peers, purpose, qos, payload bytes), in construction order.
        groups = [
            (pod_peers, "intra-pod", "high", 0),
            (tor_peers, "tor-level", "high", 0),
        ]

        # §6.2 QoS extension: the ToR-level graph again, low priority class.
        if config.enable_qos_low:
            groups.append((tor_peers, "tor-level", "low", 0))

        # §4.1 payload pings: every Nth ToR-level peer also gets a payload
        # probe, to catch length-dependent drops (FCS/SerDes errors).
        if config.payload_every_nth_peer > 0:
            groups.append(
                (
                    tor_peers[:: config.payload_every_nth_peer],
                    "tor-level",
                    "high",
                    config.payload_bytes,
                )
            )

        # Level 3: inter-DC complete graph over selected servers.  The
        # frozen regeneration-time snapshot wins over a live computation:
        # liveness may have drifted between regenerate and this (lazy) GET,
        # and eager/lazy byte parity requires one consistent view.
        if len(self.topology.dcs) > 1 and any(
            peer.device_id == server.device_id
            for peer in self._inter_dc_peers(server.dc_index)
        ):
            others = [
                peer
                for other in self.topology.dcs
                if other.dc_index != server.dc_index
                for peer in self._inter_dc_peers(other.dc_index)
            ]
            groups.append((others, "inter-dc", "high", 0))

        # §6.2 VIP monitoring: extra logical targets.
        groups.append(
            ([_Target(vip, vip) for vip in config.vip_targets], "vip", "high", 0)
        )

        entries: list[PinglistEntry] = []
        for peers, purpose, qos, payload in self._apply_threshold(groups):
            shared = self._shared_entries.setdefault((purpose, qos, payload), {})
            for peer in peers:
                entry = shared.get(peer.device_id)
                if entry is None:
                    entry = PinglistEntry(
                        peer.device_id, str(peer.ip), purpose, qos, payload
                    )
                    shared[peer.device_id] = entry
                entries.append(entry)
        return entries

    def _inter_dc_peers(self, dc_index: int):
        """One DC's inter-DC participants, from the frozen snapshot if any."""
        if self._inter_dc_frozen:
            return self._inter_dc_frozen.get(dc_index, ())
        return self.inter_dc_selection(self.topology.dc(dc_index))

    def _apply_threshold(self, groups: list[tuple]) -> list[tuple]:
        """Trim to ``max_peers_per_server``, dropping lowest priority first.

        Takes and returns ``(peers, purpose, qos, payload)`` groups.  Under
        the limit the groups come back in construction order; over it,
        level by level in ``_TRIM_PRIORITY`` order.  Within a level, a
        deterministic stride-sample over its groups' concatenated peers
        keeps coverage spread rather than truncating a prefix.
        """
        limit = self.config.max_peers_per_server
        if sum(len(peers) for peers, *_ in groups) <= limit:
            return groups
        levels: dict[int, list[tuple]] = {}
        for group in groups:
            _peers, purpose, qos, payload = group
            levels.setdefault(_priority(purpose, qos, payload), []).append(group)
        kept: list[tuple] = []
        room = limit
        for level in sorted(levels):
            if room <= 0:
                break
            level_groups = levels[level]
            size = sum(len(peers) for peers, *_ in level_groups)
            if size <= room:
                kept.extend(level_groups)
                room -= size
                continue
            stride = size / room
            picks = [int(i * stride) for i in range(room)]
            offset = 0
            for peers, *rest in level_groups:
                end = offset + len(peers)
                kept.append(
                    ([peers[j - offset] for j in picks if offset <= j < end], *rest)
                )
                offset = end
            room = 0
        return kept

    def generate_all(self, generation: int = 1, t: float = 0.0) -> dict[str, Pinglist]:
        """Pinglists for every server in every DC."""
        return {
            server.device_id: self.generate_for(server.device_id, generation, t)
            for server in self.topology.all_servers()
        }
