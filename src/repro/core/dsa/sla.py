"""Network SLA definition and tracking (§4.3).

"We define network SLA as a set of metrics including packet drop rate,
network latency at the 50th percentile and the 99th percentile.  Network SLA
can then be tracked at different scopes including per server, per
pod/podset, per service, per data center."

An SLA is computed from a window of latency records.  Services are mapped to
the servers they run on (§1: "The network SLAs for all the services and
applications are calculated by mapping the services and applications to the
servers they use").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Iterable

from repro.core.dsa.drop_inference import DROPPED_PROBE
from repro.cosmos.scope import RowSet, agg, as_rowset, col

__all__ = ["SlaScope", "NetworkSla", "ServiceDefinition", "SlaTracker"]

Row = dict[str, Any]
Rows = RowSet | Iterable[Row]


class SlaScope(enum.Enum):
    SERVER = "server"
    POD = "pod"
    PODSET = "podset"
    DATACENTER = "datacenter"
    DC_PAIR = "dc-pair"
    SERVICE = "service"


@dataclass(frozen=True)
class NetworkSla:
    """One scope's SLA over one window."""

    scope: SlaScope
    key: str
    window_start: float
    window_end: float
    probe_count: int
    drop_rate: float
    p50_us: float | None
    p99_us: float | None

    def as_row(self) -> Row:
        return {
            "scope": self.scope.value,
            "key": self.key,
            "window_start": self.window_start,
            "window_end": self.window_end,
            "t": self.window_end,
            "probe_count": self.probe_count,
            "drop_rate": self.drop_rate,
            "p50_us": self.p50_us,
            "p99_us": self.p99_us,
        }


@dataclass(frozen=True)
class ServiceDefinition:
    """A service is the set of servers it runs on."""

    name: str
    server_ids: frozenset[str]

    def __post_init__(self) -> None:
        if not self.server_ids:
            raise ValueError(f"service {self.name!r} has no servers")

    @classmethod
    def of(cls, name: str, server_ids: Iterable[str]) -> "ServiceDefinition":
        return cls(name=name, server_ids=frozenset(server_ids))


# Per scope: the columns a record aggregates on (source-side attribution:
# each server measures its own view of the network, §3.3.1) and how one
# group's values spell its key.
_SCOPE_KEYS: dict[SlaScope, tuple[tuple[str, ...], str]] = {
    SlaScope.SERVER: (("src",), "{0}"),
    SlaScope.POD: (("src_dc", "src_pod"), "dc{0}/pod{1}"),
    SlaScope.PODSET: (("src_dc", "src_podset"), "dc{0}/ps{1}"),
    SlaScope.DATACENTER: (("src_dc",), "dc{0}"),
    SlaScope.DC_PAIR: (("src_dc", "dst_dc"), "dc{0}->dc{1}"),
}

# Rows without a ``dst_dc`` column (older fixtures, synthetic rows) are
# treated as intra-DC.
_INTRA_DC = col("dst_dc", default=col("src_dc")) == col("src_dc")
_CROSSES_DC = ~_INTRA_DC

# (probe_count, drop_rate, p50_us, p99_us) of one group of records, in
# NetworkSla's field order.
_Stats = tuple[int, float, float | None, float | None]
_NO_PROBES: _Stats = (0, 0.0, None, None)


def _group_stats(rows: RowSet, keys: tuple[str, ...]) -> dict[tuple, _Stats]:
    """SLA metrics per distinct value of ``keys``, in one grouped query.

    Groups split on ``success`` as well: only successful probes carry a
    latency and form the drop heuristic's denominator (§4.2), so the
    successful half gives the percentiles and the rate, and both halves
    add to the probe count.
    """
    if not rows:
        return {}
    halves = (
        rows.group_by(*keys, "success")
        .aggregate(
            probes=agg.count(),
            dropped=agg.count_if(DROPPED_PROBE),
            p50_us=agg.percentile("rtt_us", 50),
            p99_us=agg.percentile("rtt_us", 99),
        )
        .output()
    )
    stats: dict[tuple, _Stats] = {}
    for half in halves:
        key = tuple(half[name] for name in keys)
        count, *metrics = stats.get(key, _NO_PROBES)
        if half["success"]:
            metrics = [half["dropped"] / half["probes"], half["p50_us"], half["p99_us"]]
        stats[key] = (count + half["probes"], *metrics)
    return stats


def compute_sla(
    rows: Rows,
    scope: SlaScope,
    key: str,
    window_start: float,
    window_end: float,
) -> NetworkSla:
    """Aggregate one group of records into an SLA."""
    stats = _group_stats(as_rowset(rows), ()).get((), _NO_PROBES)
    return NetworkSla(scope, key, window_start, window_end, *stats)


class SlaTracker:
    """Computes SLAs over latency-record windows at every scope."""

    def __init__(self, services: Iterable[ServiceDefinition] = ()) -> None:
        self._services: dict[str, ServiceDefinition] = {}
        for service in services:
            self.register_service(service)

    def register_service(self, service: ServiceDefinition) -> None:
        if service.name in self._services:
            raise ValueError(f"service already registered: {service.name}")
        self._services[service.name] = service

    def services(self) -> list[str]:
        return sorted(self._services)

    # -- computation --------------------------------------------------------
    #
    # Each method is a SCOPE query over a rowset: the DSA pipeline hands in
    # its shared column-backed window, and a plain list of rows runs the
    # same query on the engine's row path.

    def track_scope(
        self,
        rows: Rows,
        scope: SlaScope,
        window_start: float,
        window_end: float,
    ) -> list[NetworkSla]:
        """One SLA per distinct key at ``scope``, sorted by key.

        Inter-DC records belong exclusively to the DC_PAIR scope: a healthy
        long-haul probe pays ~10-400 ms of speed-of-light RTT, so merging it
        into an intra-DC percentile would trip the 5 ms threshold on a
        perfectly healthy fabric.  Every other scope sees intra-DC rows only.
        """
        if scope == SlaScope.SERVICE:
            return self.track_services(rows, window_start, window_end)
        in_scope = _CROSSES_DC if scope == SlaScope.DC_PAIR else _INTRA_DC
        keys, spelling = _SCOPE_KEYS[scope]
        groups = _group_stats(as_rowset(rows).where(in_scope), keys)
        slas = [
            NetworkSla(scope, spelling.format(*key), window_start, window_end, *stats)
            for key, stats in groups.items()
        ]
        return sorted(slas, key=lambda sla: sla.key)

    def track_services(
        self, rows: Rows, window_start: float, window_end: float
    ) -> list[NetworkSla]:
        """Per-service SLAs: a record belongs to a service when its *source*
        server runs that service.  Inter-DC rows are excluded — the service
        threshold is the intra-DC one, and a service whose pivot servers
        probe across DCs would otherwise read as breached while healthy."""
        intra = as_rowset(rows).where(_INTRA_DC)
        slas = []
        for name, service in sorted(self._services.items()):
            served = intra.where(col("src").isin(service.server_ids))
            stats = _group_stats(served, ()).get(())
            if stats is not None:
                slas.append(
                    NetworkSla(SlaScope.SERVICE, name, window_start, window_end, *stats)
                )
        return slas

    def track_all(
        self, rows: Rows, window_start: float, window_end: float
    ) -> list[NetworkSla]:
        """Every scope, one pass — the macro and micro levels of §1."""
        rows = as_rowset(rows)
        slas: list[NetworkSla] = []
        for scope in (
            SlaScope.DATACENTER,
            SlaScope.DC_PAIR,
            SlaScope.PODSET,
            SlaScope.POD,
            SlaScope.SERVER,
        ):
            slas.extend(self.track_scope(rows, scope, window_start, window_end))
        slas.extend(self.track_services(rows, window_start, window_end))
        return slas
