#!/usr/bin/env python3
"""The repo benchmark: one workload, timed end to end or layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload steady-4k --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload steady-4k --seed 1 --seconds 10 --trace 1

``--trace 0`` runs whole passes of the workload (fresh deployment, the same
seeded inputs) until ``--seconds`` of wall time have gone, at least one,
then extra set-ups until set-up has been timed at least three times; it
reports medians.  ``--trace 1`` runs one pass with spans around every
layer boundary (see ``perfbench/trace.py``), then one untraced pass, and
reports per-layer metrics plus the tracing overhead.  Each run checks the
program's outputs, prints every metric by name and unit, writes its
results (and spans) under ``perfbench/out/``, and ends with one JSON line.
It exits 1 when an output check fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

MIN_SETUPS = 3  # set-up is timed at least this often per untraced run
SETUP_BUDGET_S = 2.0  # ... and more often while set-ups are this cheap
MAX_SETUPS = 15

END_TO_END_UNITS = {
    "setup_s": "s",
    "first_report_s": "s",
    "first_alert_s": "s",
    "cold_window_s": "s",
    "warm_window_s": "s",
    "probes_per_s": "probes/s",
    "peak_rss_mb": "MB",
    "error_rate": "ratio",
    "submit_p50_us": "us",
    "submit_p99_us": "us",
    "result_rounds_p99": "rounds",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _percentile(values, q: float) -> float | None:
    if not values:
        return None
    return float(np.percentile(values, q))


class Milestones:
    """Wall time from ``PingmeshSystem(...)`` to the first pod-pair report
    rows and the first alert episode, hooked on the system's own objects."""

    def __init__(self, system, t0: float) -> None:
        self.first_report = None  # (wall s since t0, simulated t)
        self.first_alert = None
        insert = system.database.insert
        update = system.alert_engine.update_episode

        def insert_hook(table, rows):
            n = insert(table, rows)
            if n and table == "podpair_10min" and self.first_report is None:
                self.first_report = (time.perf_counter() - t0, system.clock.now)
            return n

        def update_hook(*args, **kwargs):
            alert = update(*args, **kwargs)
            if alert is not None and alert.event == "breach" and self.first_alert is None:
                self.first_alert = (time.perf_counter() - t0, system.clock.now)
            return alert

        system.database.insert = insert_hook
        system.alert_engine.update_episode = update_hook


def run_pass(workload, inputs, tracer=None) -> dict:
    """One fresh deployment through set-up, the windows and the drain."""
    from perfbench import checks
    from perfbench.workloads import WINDOW_S, result_rounds
    from repro.core.system import PingmeshSystem

    gc.collect()
    clock = time.perf_counter
    t0 = clock()
    if tracer is not None:
        tracer.begin("setup")
    system = PingmeshSystem(inputs["config"])
    marks = Milestones(system, t0)
    deployment = workload.start(system)
    setup_s = clock() - t0
    if tracer is not None:
        tracer.end()
    workload.prepare(deployment, inputs)

    window_s, series = [], []
    for index in range(workload.windows):
        if tracer is not None:
            tracer.begin(f"window{index}")
        started = clock()
        deployment.run_for(WINDOW_S)
        window_s.append(clock() - started)
        if tracer is not None:
            tracer.end()
        series.append(checks.growth_point(deployment))
    drain_s = 0.0
    if workload.drain_s:
        if tracer is not None:
            tracer.begin("drain")
        started = clock()
        deployment.run_for(workload.drain_s)
        drain_s = clock() - started
        if tracer is not None:
            tracer.end()

    results = checks.common_checks(deployment) + workload.checks(deployment, inputs)
    attempted, failed = checks.operations(deployment)
    submit = [s for samples in deployment.submit_s.values() for s in samples]
    rounds = result_rounds(deployment)
    summary = checks.summary(deployment)
    out = {
        "setup_s": setup_s,
        "window_s": window_s,
        "drain_s": drain_s,
        "first_report": marks.first_report,
        "first_alert": marks.first_alert,
        "probes": deployment.probes_sent,
        "peak_rss_mb": _peak_rss_mb(),
        "checks": results,
        "attempted": attempted,
        "failed": failed,
        "submit_us": [s * 1e6 for s in submit],
        "submit_s_by_kind": {k: sum(v) for k, v in deployment.submit_s.items()},
        "result_rounds": rounds,
        "prepare_s": deployment.prepare_s,
        "series": series,
        "summary": summary,
        "digest": checks.digest(summary),
        "state": _layer_state(deployment),
    }
    if deployment.fleet is not None:
        deployment.fleet.close()
    return out


def setup_only(workload, inputs) -> float:
    """Time one more set-up of the same inputs, then drop the deployment."""
    from repro.core.system import PingmeshSystem

    gc.collect()
    t0 = time.perf_counter()
    system = PingmeshSystem(inputs["config"])
    deployment = workload.start(system)
    setup_s = time.perf_counter() - t0
    if deployment.fleet is not None:
        deployment.fleet.close()
    return setup_s


def _layer_state(deployment) -> dict:
    """Per-layer counters read off the deployment at pass end."""
    from perfbench.checks import uploaders
    from repro.broker.requests import RequestState

    system = deployment.system
    downloads = system.controller.download_stats()
    router = system.fabric.router
    lookups = router.cache_hits + router.cache_misses
    store = system.store
    stream = system.stream
    state = {
        "controller.downloads": downloads["requests"],
        "controller.not_modified_ratio": (
            downloads["responses_304"] / downloads["requests"]
            if downloads["requests"] else 0.0
        ),
        "uploader.records_uploaded": sum(
            u.stats.records_uploaded for u in uploaders(deployment)),
        "uploader.records_spooled": sum(
            u.stats.records_spooled for u in uploaders(deployment)),
        "routing.path_cache_hit_ratio": router.cache_hits / lookups if lookups else 0.0,
        "fabric.probes_carried": system.fabric.probes_carried,
        "stream.ticks": stream.ticks,
        "stream.deltas_delivered": stream.deltas_delivered,
        "stream.deltas_dropped": stream.deltas_dropped,
        "stream.memory_buckets": stream.memory_buckets,
        "pa.collections": system.env.perfcounter.collections_run,
        "pa.samples_held": sum(map(len, system.env.perfcounter._series.values())),
        "cosmos.records": sum(store.stream(n).record_count for n in store.list_streams()),
        "cosmos.bytes": store.total_bytes(),
        "dsa.alerts": sum(1 for a in system.alert_engine.history if a.event == "breach"),
        "broker.admitted": 0,
        "broker.refused": 0,
        "broker.truncated": 0,
        "broker.probes_injected": 0,
        "broker.inflight_max": deployment.inflight_max,
    }
    broker = deployment.broker
    if broker is not None:
        state["broker.admitted"] = broker.requests_admitted
        state["broker.refused"] = broker.requests_rejected
        state["broker.truncated"] = sum(
            1 for c in deployment.channels if c.state is RequestState.TRUNCATED)
        state["broker.probes_injected"] = broker.probes_launched
    return state


def _slope(values) -> float:
    """Least-squares growth per window."""
    if len(values) < 2:
        return 0.0
    return statistics.linear_regression(range(len(values)), values).slope


def end_to_end(passes: list, setups: list) -> dict:
    """Medians over passes and set-ups; ``None`` where a metric is not
    defined."""
    first = passes[0]

    def median(key):
        values = [key(p) for p in passes]
        values = [v for v in values if v is not None]
        return statistics.median(values) if values else None

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return {
        "setup_s": statistics.median(setups),
        "first_report_s": median(lambda p: p["first_report"] and p["first_report"][0]),
        "first_alert_s": median(lambda p: p["first_alert"] and p["first_alert"][0]),
        "cold_window_s": median(lambda p: p["window_s"][0]),
        "warm_window_s": median(lambda p: statistics.median(p["window_s"][1:])),
        "probes_per_s": median(
            lambda p: p["probes"] / (sum(p["window_s"]) + p["drain_s"])),
        "peak_rss_mb": first["peak_rss_mb"],
        "error_rate": failed / attempted if attempted else 0.0,
        "submit_p50_us": median(lambda p: _percentile(p["submit_us"], 50)),
        "submit_p99_us": median(lambda p: _percentile(p["submit_us"], 99)),
        "result_rounds_p99": median(lambda p: _percentile(p["result_rounds"], 99)),
    }


def per_layer(traced: dict, tracer, untraced: dict) -> dict:
    """Per-layer metrics of the traced pass."""
    inclusive, calls, self_s = tracer.totals()
    state = traced["state"]
    round_spans = sorted(
        s[2] - s[1] for s in tracer.spans if s[0] == "fleet.round")
    reused, shard_rounds = tracer.reused_plans()
    flushes = calls.get("uploader.flush", 0)
    class_probes = tracer.counts.get("fabric.class_draw", 0)
    pair_probes = tracer.counts.get("fabric.per_pair", 0)
    by_kind = traced["submit_s_by_kind"]
    series = traced["series"]
    metrics = {
        "controller.generate_s": inclusive.get("controller.generate", 0.0),
        "controller.generate_calls": calls.get("controller.generate", 0),
        "pinglist.render_s": inclusive.get("pinglist.render", 0.0),
        "pinglist.parse_s": inclusive.get("pinglist.parse", 0.0),
        "pinglist.bytes": tracer.counts.get("pinglist.render", 0),
        "controller.downloads": state["controller.downloads"],
        "controller.not_modified_ratio": state["controller.not_modified_ratio"],
        "agent.deploy_s": inclusive.get("agent.deploy", 0.0),
        "agent.refresh_s": inclusive.get("agent.refresh", 0.0),
        "agent.round_s": inclusive.get("agent.round", 0.0),
        "agent.rounds": calls.get("agent.round", 0),
        "agent.upload_s": inclusive.get("agent.upload", 0.0),
        "uploader.flushes": flushes,
        "uploader.empty_flush_ratio": (
            tracer.empty_flushes() / flushes if flushes else 0.0),
        "uploader.records_uploaded": state["uploader.records_uploaded"],
        "uploader.records_spooled": state["uploader.records_spooled"],
        "fleet.round_s.median": (
            statistics.median(round_spans) if round_spans else 0.0),
        "fleet.round_s.max": round_spans[-1] if round_spans else 0.0,
        "fleet.rounds": len(round_spans),
        "shard.serial_part_s": inclusive.get("shard.serial_part", 0.0),
        "shard.class_part_s": inclusive.get("shard.class_part", 0.0),
        "shard.fold_s": inclusive.get("shard.fold", 0.0),
        "shard.upload_s": inclusive.get("shard.upload", 0.0),
        "fleet.plan_reuse_ratio": reused / shard_rounds if shard_rounds else 0.0,
        "fabric.class_plan_build_s": inclusive.get("fabric.class_plan_build", 0.0),
        "fabric.class_plan_builds": calls.get("fabric.class_plan_build", 0),
        "fabric.class_draw_s": inclusive.get("fabric.class_draw", 0.0),
        "fabric.class_probes": class_probes,
        "fabric.per_pair_s": inclusive.get("fabric.per_pair", 0.0),
        "fabric.per_pair_probes": pair_probes,
        "fabric.per_pair_ratio": (
            pair_probes / (pair_probes + class_probes)
            if pair_probes + class_probes else 0.0),
        "routing.path_cache_hit_ratio": state["routing.path_cache_hit_ratio"],
        "fabric.probes_carried": state["fabric.probes_carried"],
        "stream.tick_s": inclusive.get("stream.tick", 0.0),
        "stream.ticks": state["stream.ticks"],
        "stream.deltas_delivered": state["stream.deltas_delivered"],
        "stream.deltas_dropped": state["stream.deltas_dropped"],
        "stream.memory_buckets": state["stream.memory_buckets"],
        "pa.collect_s": inclusive.get("pa.collect", 0.0),
        "pa.collections": state["pa.collections"],
        "pa.samples_held": state["pa.samples_held"],
        "cosmos.append_s": inclusive.get("cosmos.append", 0.0),
        "cosmos.records": state["cosmos.records"],
        "cosmos.bytes": state["cosmos.bytes"],
        "dsa.job_10min_s": inclusive.get("dsa.job_10min", 0.0),
        "dsa.job_hourly_s": inclusive.get("dsa.job_hourly", 0.0),
        "dsa.localize_s": inclusive.get("dsa.localize", 0.0),
        "dsa.alerts": state["dsa.alerts"],
        "broker.submit_s.burst": by_kind.get("burst", 0.0),
        "broker.submit_s.scope": by_kind.get("scope", 0.0),
        "broker.submit_s.stream": by_kind.get("stream", 0.0),
        "broker.inject_s": inclusive.get("broker.inject", 0.0),
        "broker.tick_s": inclusive.get("broker.tick", 0.0),
        "broker.admitted": state["broker.admitted"],
        "broker.refused": state["broker.refused"],
        "broker.truncated": state["broker.truncated"],
        "broker.probes_injected": state["broker.probes_injected"],
        "broker.inflight_max": state["broker.inflight_max"],
        "runtime.gc_pause_s": tracer.gc_pause_s,
        "runtime.gc_gen2_collections": tracer.gc_gen2_collections,
        "trace.overhead": (
            (sum(traced["window_s"]) + traced["drain_s"])
            / (sum(untraced["window_s"]) + untraced["drain_s"]) - 1.0),
    }
    for layer, seconds in self_s.items():
        metrics[f"self_s.{layer}"] = seconds
    for name in ("pa.samples_held", "cosmos.records", "stream.memory_buckets"):
        metrics[f"{name}_per_window"] = _slope([point[name] for point in series])
    return metrics


def _report_checks(passes: list) -> list:
    """Every pass's checks, plus: equal seeds gave equal digests."""
    results = [c for p in passes for c in p["checks"]]
    digests = sorted({p["digest"] for p in passes})
    results.append(("digest-repeat", len(digests) == 1,
                    f"{len(passes)} pass(es), digest(s) {digests}"))
    return results


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.trace import Tracer
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = _benchmark_spec()
    inputs = workload.inputs(args.seed)
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}")
    print(f"  why: {workload.why}")

    tracer = None
    if args.trace:
        # The traced pass goes first, like the end-to-end runs' first pass;
        # the untraced pass after it is the overhead baseline.  A second
        # pass in a process runs a little faster, so the overhead reads high.
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(workload, inputs, tracer)
        finally:
            tracer.remove()
        untraced = run_pass(workload, inputs)
        passes = [traced, untraced]
        metrics = per_layer(traced, tracer, untraced)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        passes = []
        started = time.perf_counter()
        while not passes or time.perf_counter() - started < args.seconds:
            passes.append(run_pass(workload, inputs))
        setups = [p["setup_s"] for p in passes]
        while len(setups) < MIN_SETUPS or (
            sum(setups) < SETUP_BUDGET_S and len(setups) < MAX_SETUPS
        ):
            setups.append(setup_only(workload, inputs))
        metrics = end_to_end(passes, setups)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        print(f"  {len(passes)} pass(es), {len(setups)} set-up(s)")

    results = _report_checks(passes)
    undefined = [name for name in units if metrics.get(name) is None]
    results.append(("metrics-defined", not undefined,
                    f"{len(units)} reported, undefined: {undefined}"))
    correct = all(ok for _, ok, _ in results)
    attempted = sum(p["attempted"] for p in passes) + len(results)
    failed = sum(p["failed"] for p in passes) + sum(1 for _, ok, _ in results if not ok)

    first = passes[0]
    print("digest", first["digest"], json.dumps(first["summary"], sort_keys=True))
    if first["first_report"]:
        print("  first pod-pair report at simulated t=%.0fs" % first["first_report"][1])
    if first["first_alert"]:
        print("  first alert episode at simulated t=%.0fs" % first["first_alert"][1])
    if first["prepare_s"]:
        print("  workload inputs attached after set-up in %.3f s" % first["prepare_s"])
    print("growth per window:")
    for point in first["series"]:
        print("  " + " ".join(f"{k}={v}" for k, v in point.items()))
    print("checks:")
    for name, ok, detail in results:
        print(f"  {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    print("metrics (tracing %s):" % ("on" if args.trace else "off"))
    all_units = dict(END_TO_END_UNITS)
    all_units.update(units)
    for name, value in metrics.items():
        shown = "n/a (not defined on this workload)" if value is None else value
        print(f"  {name:34s} {shown} {all_units.get(name, '')}")

    reported = {
        name: {"value": metrics.get(name), "unit": unit} for name, unit in units.items()
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "metrics": metrics, "checks": results, "digest": first["digest"],
        "summary": first["summary"], "series": [p["series"] for p in passes],
        "window_s": [p["window_s"] for p in passes],
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.jsonl.gz")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": reported,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
