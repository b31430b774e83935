"""Output checks, the seeded-output digest and the operation ledger."""

from __future__ import annotations

import gc
import hashlib
import json

from perfbench.workloads import Deployment, broker_request_failures


def uploaders(deployment: Deployment) -> list:
    """Every result uploader in the deployment: agents' and shards'."""
    found = []
    for agent in deployment.system.agents.values():
        found.append(agent.uploader)
        if agent.class_uploader is not None:
            found.append(agent.class_uploader)
    if deployment.fleet is not None:
        for key in sorted(deployment.fleet.shards):
            shard = deployment.fleet.shards[key]
            found.extend((shard.probe_uploader, shard.class_uploader))
    return found


def common_checks(deployment: Deployment) -> list:
    """The ledgers every workload must balance: (name, ok, detail)."""
    system = deployment.system
    results = []

    ledger = system.stream.conservation()
    folded_ok = ledger["probes_folded"] == ledger["probes_emitted"] + ledger["probes_pending"]
    emitted_ok = ledger["probes_emitted"] == (
        ledger["probes_ingested"] + ledger["probes_dropped"] + ledger["probes_rejected"]
    )
    results.append(("stream-conservation", folded_ok and emitted_ok,
                    " ".join(f"{k}={v}" for k, v in ledger.items())))

    fabric = system.fabric
    entered = fabric.probes_carried + fabric.probes_refused
    results.append(("fabric-probe-ledger", entered == deployment.probes_sent,
                    f"carried+refused={entered} launched={deployment.probes_sent}"))

    broken = []
    for uploader in uploaders(deployment):
        stats = uploader.stats
        held = (stats.records_uploaded + stats.records_discarded
                + uploader.buffered_records + uploader.spooled_records)
        if stats.records_added != held:
            broken.append(uploader.server_id)
    results.append(("uploader-ledgers", not broken,
                    f"{len(broken)} unbalanced {broken[:3]}"))

    broker = deployment.broker
    if broker is not None:
        unconserved = [t for t, a in broker.accounts.items() if not a.conserved()]
        results.append(("tenant-ledgers", not unconserved,
                        f"{len(unconserved)} of {len(broker.accounts)} unconserved"))
        results.append(("broker-launched-delivered",
                        broker.probes_launched == broker.probes_delivered
                        == deployment.fleet.broker_probes_sent,
                        f"launched={broker.probes_launched} "
                        f"delivered={broker.probes_delivered} "
                        f"fleet={deployment.fleet.broker_probes_sent}"))
    results.append(("probes-sent", deployment.probes_sent > 0,
                    f"{deployment.probes_sent} probes"))
    return results


def operations(deployment: Deployment) -> tuple[int, int]:
    """(attempted, failed) over broker requests, pinglist downloads and
    upload batches."""
    downloads = deployment.system.controller.download_stats()
    attempted = downloads["requests"] + downloads["responses_timeout"]
    failed = downloads["responses_404"] + downloads["responses_timeout"]
    for uploader in uploaders(deployment):
        attempted += uploader.stats.upload_attempts
        failed += uploader.stats.failed_flushes
    attempted += len(deployment.channels)
    failed += broker_request_failures(deployment)
    return attempted, failed


def summary(deployment: Deployment) -> dict:
    """The seeded outputs: probes, alert episodes, row counts per table and
    stream.  Equal seeds must give equal summaries."""
    system = deployment.system
    store = system.store
    return {
        "probes_sent": deployment.probes_sent,
        "probes_carried": system.fabric.probes_carried,
        "alerts": [
            [a.t, a.scope, a.key, a.metric, a.event, a.plane]
            for a in system.alert_engine.history
        ],
        "tables": {name: system.database.row_count(name)
                   for name in system.database.tables()},
        "streams": {name: store.stream(name).record_count
                    for name in store.list_streams()},
        "stream_plane": system.stream.conservation(),
        "broker": deployment.broker.stats() if deployment.broker else None,
    }


def digest(summary_: dict) -> str:
    text = json.dumps(summary_, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def growth_point(deployment: Deployment) -> dict:
    """Sizes of the structures that must stay bounded, at a window end."""
    system = deployment.system
    store = system.store
    return {
        "pa.samples_held": sum(map(len, system.env.perfcounter._series.values())),
        "cosmos.records": sum(store.stream(n).record_count for n in store.list_streams()),
        "stream.memory_buckets": system.stream.memory_buckets,
        "broker.inflight_max": deployment.inflight_max,
        "runtime.gc_gen2_collections": gc.get_stats()[2]["collections"],
    }
