"""Column-backed windows and plain row lists give equal DSA analytics.

The SLA tracker, the heatmap and the silent-drop watch are SCOPE queries:
the pipeline hands them its column-backed window, and callers with a list
of dicts run the same query on the engine's row path.  Both must agree
exactly (``==``, no tolerance) on every scope and every edge the windows
of a real run contain: failed probes, inter-DC rows, VIP rows with no
destination pod, RTTs on either side of the 3 s and 9 s signatures,
registered services and empty windows.  The list results are further
held to the per-row loops the queries replaced, kept here as references.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.dsa.drop_inference import estimate_drop_rate
from repro.core.dsa.silentdrop import SilentDropDetector
from repro.core.dsa.sla import NetworkSla, ServiceDefinition, SlaScope, SlaTracker
from repro.core.dsa.visualization import LatencyHeatmap
from repro.cosmos.scope import col, extract
from repro.cosmos.store import CosmosStore

N_PODS = 4
PODS_PER_PODSET = 2
SERVERS = [f"dc{dc}/s{i}" for dc in (0, 1) for i in range(6)]

# RTTs (us) on both sides of the one-drop (3 s) and two-drop (9 s)
# signatures, plus a successful probe past the 21 s failed-probe wait.
EDGE_RTTS = [2.9999999e6, 3.0e6, 3.0000001e6, 8.9999999e6, 9.0e6, 9.2e6, 21.5e6]
RTTS = st.one_of(
    st.floats(min_value=50.0, max_value=5_000.0),
    st.sampled_from(EDGE_RTTS),
    st.floats(min_value=2.5e6, max_value=9.5e6),
)

PROBES = st.tuples(
    st.integers(min_value=0, max_value=len(SERVERS) - 1),  # source
    st.integers(min_value=0, max_value=len(SERVERS) - 1),  # destination
    st.sampled_from(["tor-level", "intra-pod", "vip"]),
    st.booleans(),  # success
    RTTS,
    st.integers(min_value=0, max_value=3),  # healthy probes of the same pair
)


def _server(index):
    dc, rest = SERVERS[index].split("/")
    host = int(rest[1:])
    pod = host % N_PODS
    return int(dc[2:]), pod // PODS_PER_PODSET, pod


def _record(t, src, dst, purpose, success, rtt_us):
    src_dc, src_podset, src_pod = _server(src)
    dst_dc, dst_podset, dst_pod = _server(dst)
    vip = purpose == "vip"
    if vip:  # a VIP has no DIP, hence no destination coordinates
        dst_dc, dst_podset, dst_pod = src_dc, -1, -1
    return {
        "t": float(t),
        "src": SERVERS[src],
        "dst": f"vip{dst}" if vip else SERVERS[dst],
        "src_dc": src_dc,
        "dst_dc": dst_dc,
        "src_podset": src_podset,
        "dst_podset": dst_podset,
        "src_pod": src_pod,
        "dst_pod": dst_pod,
        "purpose": "inter-dc" if dst_dc != src_dc else purpose,
        "qos": "high",
        "success": success,
        "rtt_us": rtt_us,
        "syn_drops": 0 if rtt_us < 3e6 else (1 if rtt_us < 9e6 else 2),
        "payload_rtt_us": None,
        "error": None if success else "timeout",
    }


def _both(probes, empty=False):
    """The same records as a list and as a column-backed window."""
    records = []
    for src, dst, purpose, success, rtt_us, healthy in probes:
        # Healthy repeats make partially lossy pairs: traceroute candidates.
        for outcome in [(success, rtt_us)] + [(True, 250.0)] * healthy:
            records.append(_record(len(records), src, dst, purpose, *outcome))
    store = CosmosStore(extent_max_records=7)
    store.append("s", records, t=0.0)
    window = extract(store, "s")
    assert window.is_columnar
    if empty:
        window = window.where(col("t") < 0.0)
        assert window.is_columnar and len(window) == 0
        records = []
    return records, window


def _tracker(services):
    return SlaTracker(
        ServiceDefinition.of(f"svc{i}", [SERVERS[j] for j in members])
        for i, members in enumerate(services)
    )


# -- the per-row loops the queries replaced, kept as references -------------

_REFERENCE_KEYS = {
    SlaScope.DATACENTER: lambda row: f"dc{row['src_dc']}",
    SlaScope.DC_PAIR: lambda row: f"dc{row['src_dc']}->dc{row['dst_dc']}",
    SlaScope.PODSET: lambda row: f"dc{row['src_dc']}/ps{row['src_podset']}",
    SlaScope.POD: lambda row: f"dc{row['src_dc']}/pod{row['src_pod']}",
    SlaScope.SERVER: lambda row: row["src"],
}


def _reference_sla(rows, scope, key):
    ok_rtts = [row["rtt_us"] for row in rows if row["success"]]
    return NetworkSla(
        scope,
        key,
        0.0,
        600.0,
        len(rows),
        estimate_drop_rate(rows).rate,
        float(np.percentile(ok_rtts, 50)) if ok_rtts else None,
        float(np.percentile(ok_rtts, 99)) if ok_rtts else None,
    )


def _reference_track_all(tracker, rows):
    def crosses(row):
        return row.get("dst_dc", row["src_dc"]) != row["src_dc"]

    slas = []
    for scope, key_of in _REFERENCE_KEYS.items():
        groups = {}
        for row in rows:
            if crosses(row) == (scope == SlaScope.DC_PAIR):
                groups.setdefault(key_of(row), []).append(row)
        slas += [
            _reference_sla(group, scope, key) for key, group in sorted(groups.items())
        ]
    for name, service in sorted(tracker._services.items()):
        served = [
            row for row in rows if row["src"] in service.server_ids and not crosses(row)
        ]
        if served:
            slas.append(_reference_sla(served, SlaScope.SERVICE, name))
    return slas


def _reference_heatmap(rows, dc):
    p99 = np.full((N_PODS, N_PODS), np.nan)
    cells = {}
    for row in rows:
        if row["src_dc"] != dc or row["dst_dc"] != dc or not row.get("success", True):
            continue
        src_pod, dst_pod = row["src_pod"], row["dst_pod"]
        if 0 <= src_pod < N_PODS and 0 <= dst_pod < N_PODS:
            cells.setdefault((src_pod, dst_pod), []).append(row["rtt_us"])
    for (src_pod, dst_pod), rtts in cells.items():
        p99[src_pod, dst_pod] = float(np.percentile(rtts, 99))
    return p99


def _reference_incident_rates(rows, threshold):
    by_dc = {}
    for row in rows:
        if row["src_dc"] == row["dst_dc"]:
            by_dc.setdefault(row["src_dc"], []).append(row)
    rates = []
    for dc, dc_rows in sorted(by_dc.items()):
        estimate = estimate_drop_rate(dc_rows)
        if estimate.successful and estimate.rate >= threshold:
            rates.append((dc, estimate.rate))
    return rates


WINDOWS = st.lists(PROBES, min_size=1, max_size=80)
# Every edge at once, run on each test run: each signature RTT from a
# partially lossy pair, plus an inter-DC, a VIP and a failed probe.
EDGE_WINDOW = [(0, 1, "tor-level", True, rtt, 1) for rtt in EDGE_RTTS] + [
    (0, 7, "tor-level", True, 54_000.0, 0),
    (2, 3, "vip", False, 0.0, 0),
    (3, 2, "tor-level", False, 21e6, 2),
]
SERVICES = st.lists(
    st.sets(st.integers(min_value=0, max_value=len(SERVERS) - 1), min_size=1),
    max_size=3,
)


class TestSlaParity:
    @settings(deadline=None, max_examples=60)
    @given(probes=WINDOWS, services=SERVICES, empty=st.booleans())
    @example(probes=EDGE_WINDOW, services=[{0, 2}], empty=False)
    def test_track_all(self, probes, services, empty):
        records, window = _both(probes, empty)
        tracker = _tracker(services)
        from_list = tracker.track_all(records, 0.0, 600.0)
        assert tracker.track_all(window, 0.0, 600.0) == from_list
        assert from_list == _reference_track_all(tracker, records)

    @settings(deadline=None, max_examples=40)
    @given(probes=WINDOWS, services=SERVICES, empty=st.booleans())
    @example(probes=EDGE_WINDOW, services=[{0, 2}], empty=False)
    def test_track_scope_at_every_scope(self, probes, services, empty):
        records, window = _both(probes, empty)
        tracker = _tracker(services)
        for scope in SlaScope:
            assert tracker.track_scope(window, scope, 0.0, 600.0) == (
                tracker.track_scope(records, scope, 0.0, 600.0)
            ), scope

    @settings(deadline=None, max_examples=40)
    @given(probes=WINDOWS, services=SERVICES)
    def test_track_services(self, probes, services):
        records, window = _both(probes)
        tracker = _tracker(services)
        assert tracker.track_services(window, 0.0, 600.0) == (
            tracker.track_services(records, 0.0, 600.0)
        )

    def test_window_without_dst_dc_counts_as_intra(self):
        records, _ = _both([(0, 1, "tor-level", True, 250.0, 2)])
        for record in records:
            del record["dst_dc"]
        store = CosmosStore()
        store.append("s", records, t=0.0)
        window = extract(store, "s")
        assert window.is_columnar
        tracker = SlaTracker()
        for scope in (SlaScope.DC_PAIR, SlaScope.DATACENTER, SlaScope.SERVER):
            assert tracker.track_scope(window, scope, 0.0, 600.0) == (
                tracker.track_scope(records, scope, 0.0, 600.0)
            )
        assert tracker.track_scope(window, SlaScope.DC_PAIR, 0.0, 600.0) == []


class TestHeatmapParity:
    @settings(deadline=None, max_examples=60)
    @given(probes=WINDOWS, empty=st.booleans())
    @example(probes=EDGE_WINDOW, empty=False)
    def test_from_records(self, probes, empty):
        records, window = _both(probes, empty)
        for dc in (0, 1):
            from_window = LatencyHeatmap.from_records(
                window, N_PODS, PODS_PER_PODSET, dc=dc
            )
            from_list = LatencyHeatmap.from_records(
                records, N_PODS, PODS_PER_PODSET, dc=dc
            )
            assert np.array_equal(from_window.p99_us, from_list.p99_us, equal_nan=True)
            assert np.array_equal(
                from_list.p99_us, _reference_heatmap(records, dc), equal_nan=True
            )


class TestSilentDropParity:
    @settings(deadline=None, max_examples=60)
    @given(
        probes=WINDOWS,
        empty=st.booleans(),
        threshold=st.sampled_from([1e-3, 0.05, 0.3]),
    )
    @example(probes=EDGE_WINDOW, empty=False, threshold=1e-3)
    def test_detect(self, probes, empty, threshold):
        records, window = _both(probes, empty)
        detector = SilentDropDetector(incident_drop_rate=threshold)
        from_list = detector.detect(records, t=5.0)
        assert detector.detect(window, t=5.0) == from_list
        assert [(i.dc, i.measured_drop_rate) for i in from_list] == (
            _reference_incident_rates(records, threshold)
        )
