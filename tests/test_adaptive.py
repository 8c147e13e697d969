"""Tests for the adaptive serving loop (:mod:`repro.adaptive`).

Covers each stage in isolation — observation log, drift monitor, model
registry, retrain controller — plus the assembled :class:`AdaptiveLoop`
plumbing.  The full closed-loop story (drift trips, background refit,
canary-checked hot-swap, error recovers) is asserted end to end by
``benchmarks/test_adaptive_loop.py``.
"""

from __future__ import annotations

import hashlib
import json
import struct
import threading

import pytest

from repro.adaptive import (
    AdaptiveLoop,
    DriftConfig,
    DriftEvent,
    DriftMonitor,
    ModelRegistry,
    Observation,
    ObservationLog,
    RegistryError,
    RetrainConfig,
    RetrainController,
    RetrainOutcome,
    corpus_fingerprint,
    manifest_for_artifact,
)
from repro.api.protocol import TrainingCorpus
from repro.api.service import EstimationService
from repro.core.serialization import ARTIFACT_MAGIC
from repro.features.definitions import FeatureMode


def _fake_observation(
    sequence: int, rel_err: float, resources: tuple[str, ...] = ("cpu",)
) -> Observation:
    """An Observation with exact relative error ``rel_err`` per resource."""
    return Observation(
        sequence=sequence,
        query_name=f"q{sequence}",
        template="fake",
        predicted={r: 100.0 for r in resources},
        actual={r: 100.0 * (1.0 + rel_err) for r in resources},
        operator_predicted={r: {} for r in resources},
        observed=None,  # type: ignore[arg-type]  # never touched: no operator predictions
    )


_EVENT = DriftEvent(
    sequence=0,
    resource="cpu",
    median_relative_error=0.4,
    band_hit_rate=0.4,
    n=24,
    trip_threshold=0.25,
    reason="relative-error",
)


@pytest.fixture()
def service(trained_estimator):
    return EstimationService(trained_estimator)


class TestObservationLog:
    def test_attach_serve_complete_roundtrip(self, service, tpch_plans, executor):
        log = ObservationLog(capacity=8).attach(service)
        plans = tpch_plans[:3]
        estimate = service.estimate_workload(plans)
        assert log.pending_count == 3
        for index, plan in enumerate(plans):
            observation = log.complete(plan, executor.execute(plan))
            assert observation is not None
            assert observation.predicted["cpu"] == pytest.approx(
                estimate.query(index, "cpu")
            )
            assert observation.actual["cpu"] == pytest.approx(
                observation.observed.actual("cpu")
            )
            assert observation.relative_error("cpu") >= 0.0
            assert observation.ratio_error("cpu") >= 1.0
        assert log.pending_count == 0
        assert len(log) == 3 and log.sequence == 3

    def test_detach_stops_recording(self, service, tpch_plans):
        log = ObservationLog().attach(service)
        log.detach(service)
        service.estimate_workload(tpch_plans[:2])
        assert log.pending_count == 0

    def test_ring_keeps_newest(self, service, tpch_plans, executor):
        log = ObservationLog(capacity=2).attach(service)
        plans = tpch_plans[:4]
        service.estimate_workload(plans)
        for plan in plans:
            log.complete(plan, executor.execute(plan))
        assert len(log) == 2 and log.sequence == 4
        assert [obs.sequence for obs in log.snapshot()] == [2, 3]

    def test_same_plan_served_twice_joins_fifo(self, service, tpch_plans, executor):
        log = ObservationLog().attach(service)
        plan = tpch_plans[0]
        service.estimate_workload([plan])
        service.estimate_workload([plan])
        assert log.pending_count == 2
        result = executor.execute(plan)
        assert log.complete(plan, result) is not None
        assert log.complete(plan, result) is not None
        assert log.complete(plan, result) is None
        assert log.unmatched_completions == 1

    def test_pending_eviction_drops_oldest(self, service, tpch_plans, executor):
        log = ObservationLog(pending_capacity=2).attach(service)
        plans = tpch_plans[:3]
        service.estimate_workload(plans)
        assert log.pending_count == 2
        assert log.dropped_pending == 1
        # The oldest parked prediction (first plan) was the one evicted.
        assert log.complete(plans[0], executor.execute(plans[0])) is None
        assert log.complete(plans[1], executor.execute(plans[1])) is not None

    def test_spill_writes_deterministic_jsonl(
        self, service, tpch_plans, executor, tmp_path
    ):
        spill = tmp_path / "observations.jsonl"
        with ObservationLog(spill_path=spill) as log:
            log.attach(service)
            plans = tpch_plans[:2]
            service.estimate_workload(plans)
            for plan in plans:
                log.complete(plan, executor.execute(plan))
        lines = spill.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        for sequence, line in enumerate(lines):
            record = json.loads(line)
            assert record["sequence"] == sequence
            assert set(record["resources"]) == {"cpu", "io"}
            assert line == json.dumps(record, sort_keys=True)

    def test_observed_queries_are_refit_ready(self, service, tpch_plans, executor):
        log = ObservationLog().attach(service)
        service.estimate_workload(tpch_plans[:4])
        for plan in tpch_plans[:4]:
            log.complete(plan, executor.execute(plan))
        queries = log.observed_queries(limit=3)
        assert len(queries) == 3
        assert all(query.operators for query in queries)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ObservationLog(capacity=0)
        with pytest.raises(ValueError):
            ObservationLog(pending_capacity=0)


class TestDriftMonitor:
    def test_no_trip_below_min_observations(self):
        monitor = DriftMonitor(
            DriftConfig(window=16, min_observations=8, cooldown=0, resources=("cpu",))
        )
        for sequence in range(7):
            assert monitor.observe(_fake_observation(sequence, 0.9)) is None
        assert monitor.events == 0

    def test_trips_once_on_high_relative_error(self):
        monitor = DriftMonitor(
            DriftConfig(window=16, min_observations=4, cooldown=0, resources=("cpu",))
        )
        events = [
            monitor.observe(_fake_observation(sequence, 0.6)) for sequence in range(12)
        ]
        fired = [event for event in events if event is not None]
        assert len(fired) == 1
        assert fired[0].reason == "relative-error"
        assert fired[0].median_relative_error == pytest.approx(0.6)
        assert monitor.tripped("cpu") and monitor.any_tripped
        assert monitor.events == 1

    def test_hysteresis_clears_then_retrips(self):
        monitor = DriftMonitor(
            DriftConfig(window=8, min_observations=4, cooldown=0, resources=("cpu",))
        )
        sequence = 0
        for _ in range(8):
            monitor.observe(_fake_observation(sequence, 0.6))
            sequence += 1
        assert monitor.tripped("cpu")
        # Recovery: low errors push the rolling median below clear_threshold.
        for _ in range(8):
            assert monitor.observe(_fake_observation(sequence, 0.01)) is None
            sequence += 1
        assert not monitor.tripped("cpu")
        for _ in range(8):
            monitor.observe(_fake_observation(sequence, 0.6))
            sequence += 1
        assert monitor.events == 2

    def test_band_hit_rate_trip_reason(self):
        # Ratio error 100/30 > 2 misses the band while the relative error
        # (0.7) stays below the (loose) trip threshold.
        monitor = DriftMonitor(
            DriftConfig(
                window=8,
                min_observations=4,
                trip_threshold=5.0,
                clear_threshold=1.0,
                cooldown=0,
                resources=("cpu",),
            )
        )
        fired = None
        for sequence in range(6):
            fired = fired or monitor.observe(_fake_observation(sequence, -0.7))
        assert fired is not None
        assert fired.reason == "band-hit-rate"
        assert fired.band_hit_rate == pytest.approx(0.0)

    def test_reset_with_cooldown_suppresses_events(self):
        config = DriftConfig(
            window=8, min_observations=2, cooldown=5, resources=("cpu",)
        )
        monitor = DriftMonitor(config)
        monitor.reset(cooldown=True)
        events = [
            monitor.observe(_fake_observation(sequence, 0.9)) for sequence in range(10)
        ]
        assert all(event is None for event in events[:5])
        assert any(event is not None for event in events[5:])

    def test_metrics_report_rolling_window(self):
        monitor = DriftMonitor(
            DriftConfig(window=4, min_observations=2, cooldown=0, resources=("cpu",))
        )
        for sequence, rel_err in enumerate([0.1, 0.2, 0.3, 0.4, 0.5]):
            monitor.observe(_fake_observation(sequence, rel_err))
        metrics = monitor.metrics()["cpu"]
        assert metrics.n == 4  # window evicted the first observation
        assert metrics.median_relative_error == pytest.approx(0.35)
        assert metrics.band_hit_rate == pytest.approx(1.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DriftConfig(clear_threshold=0.3, trip_threshold=0.25)
        with pytest.raises(ValueError):
            DriftConfig(min_observations=100, window=48)
        with pytest.raises(ValueError):
            DriftConfig(resources=())


class TestModelRegistry:
    def test_register_writes_immutable_manifest(self, tmp_path, trained_estimator):
        registry = ModelRegistry(tmp_path / "registry")
        manifest = registry.register(trained_estimator, note="seed")
        assert manifest.version == "v0001"
        assert manifest.status == "candidate"
        artifact = registry.artifact_path("v0001")
        assert manifest.checksum == hashlib.sha256(artifact.read_bytes()).hexdigest()
        # The format version is the u16 right after the magic.
        (header_version,) = struct.unpack_from(
            "<H", artifact.read_bytes(), len(ARTIFACT_MAGIC)
        )
        assert manifest.artifact_version == header_version

    def test_promote_retires_previous_active(self, tmp_path, trained_estimator):
        registry = ModelRegistry(tmp_path / "registry")
        registry.register(trained_estimator)
        registry.promote("v0001")
        registry.register(trained_estimator, parent="v0001")
        registry.promote("v0002")
        assert registry.active == "v0002"
        assert registry.manifest("v0001").status == "retired"
        assert registry.manifest("v0002").parent == "v0001"

    def test_rejection_is_recorded_not_deleted(self, tmp_path, trained_estimator):
        registry = ModelRegistry(tmp_path / "registry")
        registry.register(trained_estimator)
        registry.record_rejection("v0001", "canary failed")
        manifest = registry.manifest("v0001")
        assert manifest.status == "rejected"
        assert manifest.note == "canary failed"
        assert registry.artifact_path("v0001").exists()
        with pytest.raises(RegistryError):
            registry.promote("v0001")

    def test_cannot_reject_the_active_version(self, tmp_path, trained_estimator):
        registry = ModelRegistry(tmp_path / "registry")
        registry.register(trained_estimator)
        registry.promote("v0001")
        with pytest.raises(RegistryError):
            registry.record_rejection("v0001", "no")

    def test_unknown_versions_raise(self, tmp_path, trained_estimator):
        registry = ModelRegistry(tmp_path / "registry")
        registry.register(trained_estimator)
        for call in (registry.manifest, registry.artifact_path, registry.promote):
            with pytest.raises(RegistryError):
                call("v9999")
        with pytest.raises(RegistryError):
            registry.register(trained_estimator, parent="v9999")

    def test_reload_from_disk_preserves_state(self, tmp_path, trained_estimator):
        root = tmp_path / "registry"
        first = ModelRegistry(root)
        first.register(trained_estimator, metrics={"cpu": {"err": 0.1}})
        first.promote("v0001")
        reloaded = ModelRegistry(root)
        assert reloaded.versions() == ("v0001",)
        assert reloaded.active == "v0001"
        assert reloaded.manifest("v0001") == first.manifest("v0001")
        kinds = [event["event"] for event in reloaded.events()]
        assert kinds == ["register", "promote"]

    def test_diff_deltas_on_shared_metrics_only(self, tmp_path, trained_estimator):
        registry = ModelRegistry(tmp_path / "registry")
        registry.register(trained_estimator, metrics={"cpu": {"err": 0.10}})
        registry.register(
            trained_estimator,
            metrics={"cpu": {"err": 0.04, "hit": 0.9}},
            parent="v0001",
        )
        diff = registry.diff("v0001", "v0002")
        assert diff["metrics_delta"]["cpu"] == {"err": pytest.approx(-0.06)}
        assert diff["metrics"]["b"]["cpu"]["hit"] == pytest.approx(0.9)
        assert diff["lineage"] == {"a_parent": None, "b_parent": "v0001"}
        assert diff["corpus_changed"] is False

    def test_manifest_for_artifact(self, tmp_path, trained_estimator):
        registry = ModelRegistry(tmp_path / "registry")
        registry.register(trained_estimator)
        found = manifest_for_artifact(registry.artifact_path("v0001"))
        assert found is not None and found.version == "v0001"
        plain = tmp_path / "plain.bin"
        trained_estimator.save(plain)
        assert manifest_for_artifact(plain) is None

    def test_corpus_fingerprint_is_deterministic(self, small_workload):
        corpus = TrainingCorpus.from_workload(
            small_workload, FeatureMode.EXACT, ("cpu", "io")
        )
        first = corpus_fingerprint(corpus)
        again = corpus_fingerprint(corpus)
        assert first == again
        assert first["n_queries"] == len(corpus.queries)
        truncated = corpus_fingerprint(
            corpus.queries[:-1], mode=corpus.mode, name="other"
        )
        assert truncated["digest"] != first["digest"]


@pytest.fixture()
def observed_service(trained_estimator, tpch_plans, executor):
    """A service with an attached log holding 36 completed observations."""
    service = EstimationService(trained_estimator)
    log = ObservationLog(capacity=64).attach(service)
    for _ in range(2):
        for plan in tpch_plans:
            service.estimate_workload([plan])
            assert log.complete(plan, executor.execute(plan)) is not None
    return service, log


class TestRetrainController:
    def test_insufficient_data_is_a_recorded_outcome(
        self, service, tmp_path
    ):
        controller = RetrainController(
            service,
            ObservationLog(),
            ModelRegistry(tmp_path / "registry"),
            RetrainConfig(min_observations=48),
        )
        outcome = controller.retrain_now(_EVENT)
        assert outcome.status == "insufficient-data"
        assert controller.history() == (outcome,)

    def test_retrain_promotes_and_hot_swaps(
        self, observed_service, trained_estimator, tmp_path
    ):
        service, log = observed_service
        registry = ModelRegistry(tmp_path / "registry")
        registry.register(trained_estimator, note="seed")
        registry.promote("v0001")
        promoted: list[RetrainOutcome] = []
        controller = RetrainController(
            service,
            log,
            registry,
            RetrainConfig(min_observations=24, max_holdout_error=None, seed=5),
            on_promote=promoted.append,
        )
        outcome = controller.retrain_now(_EVENT)
        assert outcome.promoted and outcome.version == "v0002"
        assert set(outcome.holdout_error) == {"cpu", "io"}
        assert registry.active == "v0002"
        assert registry.manifest("v0002").parent == "v0001"
        assert registry.manifest("v0002").corpus["n_queries"] > 0
        assert service.estimator is not trained_estimator
        assert service.stats.snapshot().swaps == 1
        assert promoted == [outcome]

    def test_validation_gate_rejects_and_backs_off(
        self, observed_service, trained_estimator, tmp_path
    ):
        service, log = observed_service
        registry = ModelRegistry(tmp_path / "registry")
        controller = RetrainController(
            service,
            log,
            registry,
            RetrainConfig(
                min_observations=24,
                max_holdout_error=1e-6,  # unattainable: force the gate
                seed=5,
                backoff_events=2,
            ),
        )
        outcome = controller.retrain_now(_EVENT)
        assert outcome.status == "validation-failed"
        assert outcome.version is not None
        assert registry.manifest(outcome.version).status == "rejected"
        assert service.estimator is trained_estimator  # incumbent untouched
        assert service.stats.snapshot().swaps == 0
        # Exponential backoff: the next two drift events are skipped.
        assert controller.handle_drift(_EVENT) is None
        assert controller.handle_drift(_EVENT) is None
        statuses = [o.status for o in controller.history()]
        assert statuses == [
            "validation-failed", "skipped-backoff", "skipped-backoff",
        ]

    def test_single_refit_in_flight(
        self, observed_service, trained_estimator, tmp_path, monkeypatch
    ):
        service, log = observed_service
        registry = ModelRegistry(tmp_path / "registry")
        controller = RetrainController(
            service,
            log,
            registry,
            RetrainConfig(min_observations=24, max_holdout_error=None, seed=5),
        )
        started, release = threading.Event(), threading.Event()
        original = controller._fit_candidate

        def blocking_fit(corpus):
            started.set()
            assert release.wait(timeout=30.0)
            return original(corpus)

        monkeypatch.setattr(controller, "_fit_candidate", blocking_fit)
        thread = controller.handle_drift(_EVENT)
        assert thread is not None
        assert started.wait(timeout=30.0)
        assert controller.in_flight
        # A second event while the refit is in flight is dropped silently.
        assert controller.handle_drift(_EVENT) is None
        release.set()
        controller.join(timeout=60.0)
        assert [o.status for o in controller.history()] == ["promoted"]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RetrainConfig(min_observations=1)
        with pytest.raises(ValueError):
            RetrainConfig(min_observations=64, max_observations=32)
        with pytest.raises(ValueError):
            RetrainConfig(holdout_fraction=1.0)


class TestAdaptiveLoop:
    def test_complete_feeds_monitor_without_tripping(
        self, service, tpch_plans, executor, tmp_path
    ):
        registry = ModelRegistry(tmp_path / "registry")
        drift = DriftConfig(
            window=8,
            min_observations=4,
            trip_threshold=10.0,
            clear_threshold=5.0,
            cooldown=0,
        )
        retrain = RetrainConfig(min_observations=1000, max_observations=None)
        with AdaptiveLoop(service, registry, drift, retrain) as loop:
            for plan in tpch_plans[:6]:
                service.estimate_workload([plan])
                assert loop.complete(plan, executor.execute(plan)) is not None
            assert loop.monitor.metrics()["cpu"].n == 6
            assert loop.monitor.events == 0
            assert loop.controller.history() == ()

    def test_drift_event_reaches_the_controller(
        self, service, tpch_plans, executor, tmp_path, monkeypatch
    ):
        registry = ModelRegistry(tmp_path / "registry")
        with AdaptiveLoop(service, registry) as loop:
            handled: list[DriftEvent] = []
            monkeypatch.setattr(loop.monitor, "observe", lambda obs: _EVENT)
            monkeypatch.setattr(
                loop.controller, "handle_drift", lambda event: handled.append(event)
            )
            plan = tpch_plans[0]
            service.estimate_workload([plan])
            assert loop.complete(plan, executor.execute(plan)) is not None
            assert handled == [_EVENT]

    def test_unserved_plan_completes_to_none(
        self, service, tpch_plans, executor, tmp_path
    ):
        registry = ModelRegistry(tmp_path / "registry")
        with AdaptiveLoop(service, registry) as loop:
            plan = tpch_plans[0]
            assert loop.complete(plan, executor.execute(plan)) is None

    def test_promotion_resets_the_monitor_with_cooldown(self, service, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        drift = DriftConfig(window=8, min_observations=2, cooldown=5)
        loop = AdaptiveLoop(service, registry, drift)
        try:
            for sequence in range(4):
                loop.monitor.observe(_fake_observation(sequence, 0.1))
            assert loop.monitor.metrics()["cpu"].n == 4
            loop._after_promote(
                RetrainOutcome(sequence=4, status="promoted", version="v0002")
            )
            assert loop.monitor.metrics()["cpu"].n == 0
            # Cooldown: even egregious errors cannot trip right after a swap.
            for sequence in range(5):
                assert loop.monitor.observe(_fake_observation(sequence, 5.0)) is None
        finally:
            loop.close()
