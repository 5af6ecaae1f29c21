"""Tests for the one signal evaluator shared by health rules, SLO sources
and the ``top`` console: parity of every rendered view of the site-ruleset
stall scenario with a recorded golden copy, one cluster-event replay per
evaluation, the union grammar, and snapshot-key parsing in ``top``."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import obs
from repro.obs import analysis
from repro.obs.analysis import TraceModel, profile_summary
from repro.obs.health import AlertRule, HealthError, HealthMonitor
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import PROFILER
from repro.obs.slo import SLO, BurnWindow, SLOEngine, TopView, render_top
from repro.obs.tracer import Tracer
from tests.test_obs_slo import run_stall

GOLDEN = Path(__file__).resolve().parent / "data" / "stall_parity.json"

PARITY_EVENTS = ("alert.fired", "alert.cleared", "slo.sample")


@pytest.fixture(autouse=True)
def _quiet_global_tracer():
    was_enabled = obs.TRACER.enabled
    yield
    if not was_enabled:
        obs.TRACER.disable()
    obs.TRACER.clear()


def stall_artifacts(tmp_dir: Path) -> dict:
    """Every rendered view of the site-ruleset stall scenario: the live
    ``top`` frame, the health summary, the ``top`` frame replayed from the
    exported JSONL, and the alert/SLO events in emission order."""
    assert not PROFILER.enabled
    monitor, _clock = run_stall(registry=MetricsRegistry())
    live = render_top(TopView.from_monitor(monitor))
    health = monitor.render()
    path = tmp_dir / "stall.jsonl"
    monitor.tracer.export_jsonl(str(path))
    replayed = render_top(TopView.from_trace(str(path)))
    events = [[e["name"], e["args"]] for e in monitor.tracer.events
              if e["name"] in PARITY_EVENTS]
    return {"live_top": "\n".join(live), "health": "\n".join(health),
            "trace_top": "\n".join(replayed).replace(str(path), "<trace>"),
            "events": json.dumps(events, sort_keys=True)}


def test_stall_views_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = stall_artifacts(tmp_path)
    for key in ("live_top", "health", "trace_top", "events"):
        assert got[key] == golden[key], key


# ---------------------------------------------------------- replay count


def test_one_replay_per_evaluation(monkeypatch):
    calls = []
    real = analysis.utilization

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(analysis, "utilization", counting)
    monitor, clock = run_stall(registry=MetricsRegistry())
    assert clock.now == 40.0

    calls.clear()
    clock.advance(5.0)
    monitor.evaluate(reason="count")
    assert len(calls) == 1

    calls.clear()
    clock.advance(5.0)
    TopView.from_monitor(monitor)
    assert len(calls) == 1

    # One gap figure, three readers: health's windowed signal (window
    # covering the whole run), the SLO's cumulative source, and the
    # offline profile summary of the same trace.
    monitor.gap_window = 1e9
    windowed, per_host = monitor.gap_signals()
    cumulative = monitor.slo_engine.source_value("trace:gap_seconds",
                                                 clock.now)
    offline = profile_summary(TraceModel(monitor.tracer.events))
    assert windowed == pytest.approx(20.0)
    assert cumulative == pytest.approx(windowed)
    assert offline["scheduler_gap_seconds"] == pytest.approx(windowed)
    assert per_host == {"ws01": pytest.approx(20.0)}


def test_replay_follows_new_cluster_events(clock):
    # The cached replay is reused only while the clock stands still and no
    # cluster event has been added (health/SLO events do not count).
    tracer = Tracer(clock=clock, enabled=True)
    monitor = HealthMonitor(rules=[], registry=MetricsRegistry(),
                            tracer=tracer, gap_window=8.0)
    signals = monitor.signals
    tracer.event("cluster.submit", cat="cluster", pid=1, host="a")
    tracer.event("cluster.submit", cat="cluster", pid=2, host="a")
    tracer.event("cluster.host", cat="cluster", host="b")
    clock.advance(10.0)
    replay = signals.replay(clock.now)
    assert signals.value("trace:gap_seconds", clock.now) == \
        pytest.approx(10.0)
    tracer.event("alert.fired", cat="health", rule="x")
    assert signals.replay(clock.now) is replay
    tracer.event("cluster.complete", cat="cluster", pid=2, host="a")
    assert signals.replay(clock.now) is not replay
    clock.advance(5.0)
    assert signals.value("trace:gap_seconds", clock.now) == \
        pytest.approx(10.0)
    # health's windowed reading ends at the latest cluster event (t=10)
    assert monitor.gap_signals(clock.now) == (pytest.approx(3.0),
                                              {"b": pytest.approx(3.0)})
    tracer.clear()
    tracer.event("cluster.host", cat="cluster", host="b")
    assert signals.value("trace:gap_seconds", clock.now) == 0.0
    tracer.clear()
    assert signals.value("trace:gap_seconds", clock.now) is None


# ------------------------------------------------------- union grammar


def test_rules_and_slos_share_one_grammar(clock):
    registry = MetricsRegistry()
    tracer = Tracer(clock=clock, enabled=True)
    histogram = registry.histogram("step.latency", tool="esim")
    for value in (1.0, 5.0, 50.0, 3000.0):
        histogram.observe(value)
    registry.counter("memo.hits").inc(3)
    registry.counter("memo.misses").inc(1)
    monitor = HealthMonitor(rules=[], registry=registry, tracer=tracer)
    monitor.clock = clock
    engine = monitor.attach_slos(SLOEngine([], registry=MetricsRegistry()))
    assert engine.registries is monitor.registries
    clock.advance(7.0)
    # SLO source kinds read the same in a health rule ...
    for signal, expected in (("over:step.latency:600", 1.0),
                             ("under:step.latency:600", 3.0),
                             ("sum:step.latency{tool=esim}", 3056.0),
                             ("elapsed", 7.0)):
        monitor.rules = [AlertRule("r", signal, expected - 0.5)]
        assert monitor.evaluate()["firing"][0]["value"] == \
            pytest.approx(expected), signal
    # ... and rule signal kinds in an SLO source.
    assert engine.source_value("frac:memo.hits/memo.misses", 7.0) == 0.75
    assert engine.source_value("ratio:memo.hits/memo.misses", 7.0) == 3.0
    assert engine.source_value("quantile:step.latency:0.5", 7.0) == \
        histogram.quantile(0.5)
    with pytest.raises(HealthError):
        engine.source_value("quantile:0.5", 7.0)


def test_rate_sources_keep_state_per_slo_and_field(clock):
    registry = MetricsRegistry()
    bad = registry.counter("svc.bad")
    monitor = HealthMonitor(
        rules=[AlertRule("bad_rate", "rate:svc.bad", 100.0)],
        registry=registry, tracer=Tracer(clock=clock))
    monitor.clock = clock
    engine = monitor.attach_slos(SLOEngine([
        SLO("a", bad="rate:svc.bad", total="elapsed", objective=0.9),
        SLO("b", bad="rate:svc.bad", total="elapsed", objective=0.9),
        SLO("c", bad="rate:svc.bad", good="rate:svc.bad", objective=0.9)]))
    for _ in range(4):
        bad.inc(2)
        clock.advance(5.0)
        summary = monitor.evaluate()
    assert "bad_rate" not in summary["skipped"]
    # Each field's first rate: read yields None and skips the sample; "c"
    # reads its good field first one evaluation after its bad field.
    for name, samples, total in (("a", 3, 20.0), ("b", 3, 20.0),
                                 ("c", 2, 0.8)):
        bad_series = engine.series.get("slo.series", slo=name, src="bad")
        total_series = engine.series.get("slo.series", slo=name, src="total")
        assert len(bad_series) == samples, name
        assert bad_series.latest == (20.0, pytest.approx(0.4)), name
        assert total_series.latest == (20.0, pytest.approx(total)), name


def test_rule_and_burn_transitions_share_one_path(clock):
    registry = MetricsRegistry()
    tracer = Tracer(clock=clock, enabled=True)
    bad = registry.counter("svc.bad")
    monitor = HealthMonitor(
        rules=[AlertRule("bad", "metric:svc.bad", 0.5)],
        registry=registry, tracer=tracer)
    monitor.clock = clock
    monitor.attach_slos(SLOEngine([SLO(
        "svc", bad="metric:svc.bad", total="elapsed", objective=0.9,
        windows=(BurnWindow(short=5.0, long=10.0, factor=1.0),))]))
    before = obs.METRICS.value("health.alerts_fired", severity="warn")
    monitor.evaluate()
    clock.advance(5.0)
    bad.inc(5)
    monitor.evaluate()
    fired = [e["args"]["rule"] for e in tracer.find("alert.fired")]
    assert fired == ["bad", "slo:svc:5s/10s"]
    assert obs.METRICS.value("health.alerts_fired", severity="warn") - \
        before == 2
    clock.advance(5.0)
    bad.value = 0.0
    monitor.evaluate()
    cleared = [e["args"]["rule"] for e in tracer.find("alert.cleared")]
    assert cleared == ["bad", "slo:svc:5s/10s"]


# ------------------------------------------------------ snapshot console


def test_from_metrics_matches_burns_by_exact_slo_name(tmp_path):
    path = tmp_path / "snapshot.json"
    path.write_text(json.dumps({"metrics": {
        "slo.budget_remaining{slo=gap}": 0.5,
        "slo.budget_remaining{slo=gap_long}": -1.0,
        "slo.burn_rate{slo=gap,window=5s/20s}": 2.0,
        "slo.burn_rate{slo=gap_long,window=60s/600s}": 7.0,
    }, "runtime": {"total_wall_seconds": 1.0, "sections": {}}}))
    view = TopView.from_metrics(str(path))
    rows = {row["name"]: row for row in view.slos}
    assert rows["gap"]["burns"] == {"5s/20s": 2.0}
    assert rows["gap_long"]["burns"] == {"60s/600s": 7.0}
    assert view.runtime == {"total_wall_seconds": 1.0, "sections": {}}
