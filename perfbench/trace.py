"""Spans around the public calls of each layer, installed from outside.

The traced run wraps one method per layer boundary on its class (never the
per-probe ``Fabric.probe``), records one span per call in memory, and puts
the methods back when the pass ends.  A span is ``[name, start, end,
parent, window]``: ``parent`` is the index of the enclosing span (-1 at the
root) and ``window`` the id of the harness span (setup or one simulated
10-minute window) it ran under, so every span of one window shares an id.
"""

from __future__ import annotations

import gc
import gzip
import json
import time
from collections import defaultdict

from repro.autopilot.environment import AutopilotEnvironment
from repro.autopilot.perfcounter import PerfcounterAggregator
from repro.broker.broker import MeasurementBroker
from repro.core.agent.agent import PingmeshAgent
from repro.core.agent.uploader import ResultUploader
from repro.core.controller.generator import PingmeshGenerator
from repro.core.controller.pinglist import Pinglist
from repro.core.controller.service import PingmeshControllerService
from repro.core.dsa.pipeline import DsaPipeline
from repro.core.dsa.silentdrop import SilentDropDetector
from repro.core.sharded import FleetShard, ShardedFleet
from repro.cosmos.store import CosmosStore
from repro.netsim.fabric import Fabric
from repro.stream.plane import StreamPlane

# (owner, method, span name, layer, probe count of the result or None).
BOUNDARIES = (
    (PingmeshGenerator, "generate_for", "controller.generate", "controller", None),
    (Pinglist, "to_xml", "pinglist.render", "controller", len),
    (Pinglist, "from_xml", "pinglist.parse", "controller", None),
    (PingmeshControllerService, "get_pinglist", "controller.get_pinglist", "controller", None),
    (AutopilotEnvironment, "deploy_shared_service", "agent.deploy", "agent", None),
    (PingmeshAgent, "refresh_pinglist", "agent.refresh", "agent", None),
    (PingmeshAgent, "run_probe_round", "agent.round", "agent", None),
    (PingmeshAgent, "maybe_upload", "agent.upload", "agent", None),
    (ResultUploader, "flush", "uploader.flush", "agent", None),
    (ShardedFleet, "run_round", "fleet.round", "sharded", None),
    (FleetShard, "run_serial_part", "shard.serial_part", "sharded", None),
    (FleetShard, "run_class_part", "shard.class_part", "sharded", None),
    (FleetShard, "fold_outcomes", "shard.fold", "sharded", None),
    (FleetShard, "maybe_upload", "shard.upload", "sharded", None),
    (Fabric, "build_class_plan", "fabric.class_plan_build", "netsim", None),
    (Fabric, "run_class_plan", "fabric.class_draw", "netsim",
     lambda outcomes: sum(outcome.n for outcome in outcomes)),
    (Fabric, "probe_many", "fabric.per_pair", "netsim", len),
    (StreamPlane, "tick", "stream.tick", "stream", None),
    (PerfcounterAggregator, "_collect", "pa.collect", "autopilot", None),
    (CosmosStore, "append", "cosmos.append", "cosmos", None),
    (DsaPipeline, "run_10min_job", "dsa.job_10min", "dsa", None),
    (DsaPipeline, "run_hourly_job", "dsa.job_hourly", "dsa", None),
    (SilentDropDetector, "localize", "dsa.localize", "dsa", None),
    (MeasurementBroker, "submit", "broker.submit", "broker", None),
    (MeasurementBroker, "on_fleet_round", "broker.inject", "broker", None),
    (MeasurementBroker, "tick", "broker.tick", "broker", None),
)

LAYER_OF = {name: layer for _, _, name, layer, _ in BOUNDARIES}
LAYERS = ("controller", "agent", "sharded", "netsim", "stream", "autopilot",
          "cosmos", "dsa", "broker")

_NAME, _START, _END, _PARENT, _WINDOW = range(5)


class Tracer:
    """In-memory span recorder; :meth:`install` patches, :meth:`remove` restores."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.window = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self.gc_pause_s = 0.0
        self.gc_gen2_collections = 0
        self._gc_started = 0.0

    # -- harness spans -----------------------------------------------------

    def begin(self, name: str) -> int:
        """Open a root span (setup or one window); its index is the window id."""
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, -1, index])
        self.window = index
        self._stack.append(index)
        return index

    def end(self) -> None:
        index = self._stack.pop()
        self.spans[index][_END] = time.perf_counter()

    # -- layer spans ---------------------------------------------------------

    def _wrap(self, function, name: str, count):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, tracer.window]
            spans.append(span)
            stack.append(index)
            try:
                result = function(*args, **kwargs)
            finally:
                stack.pop()
                span[_END] = clock()
            if count is not None:
                counts[name] += count(result)
            return result

        traced.__wrapped__ = function
        return traced

    def install(self) -> None:
        for owner, attr, name, _layer, count in BOUNDARIES:
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                patched = classmethod(self._wrap(original.__func__, name, count))
            else:
                patched = self._wrap(original, name, count)
            setattr(owner, attr, patched)
            self._patched.append((owner, attr, original))
        gc.callbacks.append(self._on_gc)

    def remove(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
            return
        self.gc_pause_s += time.perf_counter() - self._gc_started
        if info.get("generation") == 2:
            self.gc_gen2_collections += 1

    # -- reduction -----------------------------------------------------------

    def totals(self) -> tuple[dict, dict, dict]:
        """(inclusive seconds per span name, calls per name, self seconds
        per layer).  Self time is a span's duration minus its children's;
        harness spans' self time is work outside every wrapped layer."""
        spans = self.spans
        inclusive: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        children = [0.0] * len(spans)
        for span in spans:
            duration = span[_END] - span[_START]
            inclusive[span[_NAME]] += duration
            calls[span[_NAME]] += 1
            if span[_PARENT] >= 0:
                children[span[_PARENT]] += duration
        self_s: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self_s["other"] = 0.0
        for span, child_s in zip(spans, children):
            layer = LAYER_OF.get(span[_NAME], "other")
            self_s[layer] += span[_END] - span[_START] - child_s
        return inclusive, calls, self_s

    def reused_plans(self) -> tuple[int, int]:
        """(shard rounds that reused their compiled plan, shard rounds).

        A shard round recompiles exactly when its serial part called
        ``Fabric.build_class_plan``."""
        spans = self.spans
        serial = [i for i, s in enumerate(spans) if s[_NAME] == "shard.serial_part"]
        compiled = {
            s[_PARENT] for s in spans if s[_NAME] == "fabric.class_plan_build"
        }
        return sum(1 for i in serial if i not in compiled), len(serial)

    def empty_flushes(self) -> int:
        """Uploader flushes that appended nothing to Cosmos."""
        spans = self.spans
        appended = {s[_PARENT] for s in spans if s[_NAME] == "cosmos.append"}
        return sum(
            1
            for i, s in enumerate(spans)
            if s[_NAME] == "uploader.flush" and i not in appended
        )

    def write(self, path) -> None:
        """Spans as gzipped JSON lines: name, start, end, parent, window."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span, separators=(",", ":")))
                out.write("\n")
