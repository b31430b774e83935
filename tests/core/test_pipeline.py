"""Tests for the DSA pipeline cadences and wiring."""

import random

import pytest

from repro.core.dsa import pipeline as pipeline_module
from repro.core.dsa.database import ResultsDatabase
from repro.core.dsa.pipeline import DsaConfig, DsaPipeline
from repro.core.dsa.records import LATENCY_STREAM
from repro.core.dsa.scope_jobs import window_rows
from repro.core.dsa.sla import ServiceDefinition, SlaTracker
from repro.cosmos.jobs import JobManager
from repro.cosmos.scope import RowSet
from repro.cosmos.store import CosmosStore
from repro.netsim.simclock import EventQueue, SimClock
from repro.netsim.topology import MultiDCTopology, TopologySpec


def _record(t, src_pod=0, dst_pod=1, rtt_us=250.0, success=True):
    return {
        "t": t,
        "src": f"dc0/s{src_pod}",
        "dst": f"dc0/d{dst_pod}",
        "src_dc": 0,
        "dst_dc": 0,
        "src_podset": src_pod // 4,
        "dst_podset": dst_pod // 4,
        "src_pod": src_pod,
        "dst_pod": dst_pod,
        "success": success,
        "rtt_us": rtt_us,
        "syn_drops": 0,
        "purpose": "tor-level",
        "qos": "high",
    }


@pytest.fixture()
def world():
    clock = SimClock()
    queue = EventQueue(clock)
    store = CosmosStore()
    db = ResultsDatabase()
    topology = MultiDCTopology.single(TopologySpec())
    pipeline = DsaPipeline(
        store=store,
        database=db,
        job_manager=JobManager(queue),
        topology=topology,
        config=DsaConfig(ingestion_delay_s=0.0),
    )
    pipeline.register_jobs()
    return clock, queue, store, db, pipeline


def _seed_records(store, until_t, every=60.0):
    records = []
    t = 0.0
    while t < until_t:
        for src_pod in range(8):
            for dst_pod in range(8):
                records.append(_record(t, src_pod, dst_pod))
        t += every
    store.append(LATENCY_STREAM, records, t=until_t)


class TestCadences:
    def test_jobs_registered(self, world):
        _clock, _queue, _store, _db, pipeline = world
        assert pipeline.job_manager.jobs() == ["dsa-10min", "dsa-1day", "dsa-1hour"]

    def test_ten_minute_job_produces_podpair_rows(self, world):
        clock, queue, store, db, pipeline = world
        _seed_records(store, 600.0)
        queue.run_for(600.0)
        assert db.row_count("podpair_10min") == 64
        assert db.row_count("patterns_10min") == 1

    def test_hourly_job_produces_slas(self, world):
        clock, queue, store, db, pipeline = world
        _seed_records(store, 3600.0)
        queue.run_for(3600.0)
        rows = db.query("sla_hourly")
        assert rows
        scopes = {row["scope"] for row in rows}
        assert "datacenter" in scopes and "server" in scopes

    def test_daily_job_produces_drop_table(self, world):
        clock, queue, store, db, pipeline = world
        _seed_records(store, 600.0)
        queue.run_for(86_400.0)
        rows = db.query("drop_daily")
        assert len(rows) == 1  # first daily window [0, 86400) has the data
        assert rows[0]["intra_pod_probes"] > 0
        assert db.query("blackhole_daily")  # the daily detector also ran

    def test_ingestion_delay_shifts_window(self):
        clock = SimClock()
        queue = EventQueue(clock)
        store = CosmosStore()
        db = ResultsDatabase()
        pipeline = DsaPipeline(
            store=store,
            database=db,
            job_manager=JobManager(queue),
            topology=MultiDCTopology.single(TopologySpec()),
            config=DsaConfig(ingestion_delay_s=600.0),
        )
        pipeline.register_jobs()
        # Records only exist in [0, 600); with a 600 s delay the job at
        # t=1200 processes exactly [0, 600).
        store.append(
            LATENCY_STREAM, [_record(float(t)) for t in range(0, 600, 10)], t=600.0
        )
        queue.run_for(600.0)
        assert db.row_count("podpair_10min") == 0  # window [−600, 0) empty
        queue.run_for(600.0)
        assert db.row_count("podpair_10min") == 1

    def test_near_real_time_latency_about_20_minutes(self):
        """§3.5: generation → consumption ≈ 20 min for the 10-min jobs."""
        config = DsaConfig(ingestion_delay_s=600.0)
        # A record generated just after a window opens waits period+delay.
        worst_case = config.near_real_time_period_s + config.ingestion_delay_s
        assert worst_case == pytest.approx(1200.0)  # 20 minutes


class TestPatternsAndQueries:
    def test_normal_pattern_recorded(self, world):
        clock, queue, store, db, pipeline = world
        _seed_records(store, 600.0)
        queue.run_for(600.0)
        pattern = pipeline.latest_pattern(0)
        assert pattern["pattern"] == "normal"

    def test_latest_pattern_none_before_first_job(self, world):
        assert world[4].latest_pattern(0) is None

    def test_latest_heatmap_on_demand(self, world):
        clock, queue, store, db, pipeline = world
        _seed_records(store, 600.0)
        clock.advance_to(600.0)
        heatmap = pipeline.latest_heatmap(0, t=600.0)
        assert heatmap.n_pods == 8

    def test_retention_expires_old_data(self):
        clock = SimClock()
        queue = EventQueue(clock)
        store = CosmosStore(extent_max_records=10)
        db = ResultsDatabase()
        pipeline = DsaPipeline(
            store=store,
            database=db,
            job_manager=JobManager(queue),
            topology=MultiDCTopology.single(TopologySpec()),
            config=DsaConfig(ingestion_delay_s=0.0, retention_s=3600.0),
        )
        pipeline.register_jobs()
        store.append(LATENCY_STREAM, [_record(1.0)] * 10, t=1.0)
        queue.run_for(2 * 86_400.0)
        assert store.stream(LATENCY_STREAM).record_count == 0


class TestSingleExtraction:
    def test_10min_tick_scans_store_once(self, world):
        clock, queue, store, db, pipeline = world
        _seed_records(store, 600.0)
        before = store.read_count
        pipeline.run_10min_job(600.0)
        # One EXTRACT shared by podpair job, heatmaps, SLA and silent-drop.
        assert store.read_count == before + 1

    def test_hourly_tick_scans_store_once(self, world):
        clock, queue, store, db, pipeline = world
        _seed_records(store, 3600.0)
        before = store.read_count
        pipeline.run_hourly_job(3600.0)
        assert store.read_count == before + 1

    def test_daily_tick_scans_store_once(self, world):
        clock, queue, store, db, pipeline = world
        _seed_records(store, 600.0)
        before = store.read_count
        pipeline.run_daily_job(86_400.0)
        assert store.read_count == before + 1

    def test_coinciding_ticks_share_no_window(self, world):
        # 10-min and hourly windows differ, but each is extracted once even
        # when both cadences fire back to back at the same t.
        clock, queue, store, db, pipeline = world
        _seed_records(store, 3600.0)
        before = store.read_count
        pipeline.run_10min_job(3600.0)
        pipeline.run_hourly_job(3600.0)
        assert store.read_count == before + 2
        # Re-running an identical window hits the cache: no extra scan.
        pipeline.run_10min_job(3600.0)
        assert store.read_count == before + 2

    def test_append_invalidates_window_cache(self, world):
        clock, queue, store, db, pipeline = world
        _seed_records(store, 600.0)
        pipeline.run_10min_job(600.0)
        before = store.read_count
        store.append(LATENCY_STREAM, [_record(599.0)], t=600.0)
        pipeline.run_10min_job(600.0)
        assert store.read_count == before + 1  # fresh data, fresh extract


def _seed_noisy_records(store, until_t, seed=13):
    """A pod mesh with spread latencies, drop signatures, failures and
    VIP probes, appended in several uploads (several column blocks)."""
    rng = random.Random(seed)
    t = 0.0
    while t < until_t:
        records = []
        for src_pod in range(8):
            for dst_pod in range(8):
                rtt_us = rng.lognormvariate(5.5, 0.6)
                if rng.random() < 0.02:
                    rtt_us += 3e6  # one SYN retransmission
                records.append(
                    _record(t, src_pod, dst_pod, rtt_us, success=rng.random() > 0.01)
                )
            vip = _record(t, src_pod, 0, 0.0, success=False)
            vip.update(dst="vip0", dst_podset=-1, dst_pod=-1, purpose="vip")
            records.append(vip)
        store.append(LATENCY_STREAM, records, t=t)
        t += 60.0


class TestNoRowMaterialization:
    """The 10-minute and hourly jobs read the window's columns: no row dict
    of a window is built, and the tables equal the row path's."""

    @staticmethod
    def _run(store):
        db = ResultsDatabase()
        pipeline = DsaPipeline(
            store=store,
            database=db,
            job_manager=JobManager(EventQueue(SimClock())),
            topology=MultiDCTopology.single(TopologySpec()),
            sla_tracker=SlaTracker([ServiceDefinition.of("svc", ["dc0/s1", "dc0/s2"])]),
            config=DsaConfig(ingestion_delay_s=0.0),
        )
        for t in (600.0, 1800.0, 3600.0):
            pipeline.run_10min_job(t)
        pipeline.run_hourly_job(3600.0)
        return {
            table: db.query(table)
            for table in ("podpair_10min", "patterns_10min", "sla_hourly")
        }

    def test_jobs_never_build_window_rows(self, monkeypatch):
        store = CosmosStore()
        _seed_noisy_records(store, 3600.0)
        assert window_rows(store, 0.0, 3600.0).is_columnar

        with monkeypatch.context() as patch:
            patch.setattr(
                pipeline_module,
                "window_rows",
                lambda *args: RowSet(window_rows(*args).output()),
            )
            row_path = self._run(store)

        def refuse(columns):
            raise AssertionError("a window was materialized as row dicts")

        monkeypatch.setattr("repro.cosmos.scope._rows_from_columns", refuse)
        columnar = self._run(store)
        assert all(columnar.values())
        assert columnar == row_path


class TestConfigValidation:
    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            DsaConfig(ingestion_delay_s=-1.0)
        with pytest.raises(ValueError):
            DsaConfig(hourly_period_s=0)
