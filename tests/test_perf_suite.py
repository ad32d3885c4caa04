"""Unit tests for the ``repro.perf`` suite runner, report schema and gate.

The suite itself is shrunk to toy op counts via monkeypatching so these
stay fast; the real sizes only run under ``repro perf`` / CI.
"""

import pytest

from repro.errors import ConfigurationError
from repro.perf import kernel, suite

SCENARIOS = ("event-dispatch", "timeout-churn", "acquire-release",
             "condition-fanin", "fig5-autoscale")


@pytest.fixture
def tiny_suite(monkeypatch):
    """Shrink every scenario so a full run takes milliseconds."""
    monkeypatch.setattr(kernel, "DISPATCH_BATCH", 100)
    monkeypatch.setattr(kernel, "SIZES", {
        "event-dispatch": (200, 100),
        "timeout-churn": (200, 100),
        "acquire-release": (100, 50),
        "condition-fanin": (20, 10),
    })
    monkeypatch.setattr(suite, "REPS", (1, 1))
    monkeypatch.setattr(suite, "CALIBRATION_OPS", (10_000, 10_000))
    monkeypatch.setattr(kernel, "bench_fig5", lambda quick: (1_000, 0.01, 40))
    monkeypatch.setattr(kernel, "bench_fig5_100k", lambda: (2_000, 0.01, 80))
    monkeypatch.setattr(kernel, "bench_fig5_1m", lambda: (20_000, 0.1, 800))


def _report(normalized, throughput=1_000_000.0, scale_normalized=None):
    """A v3 report; ``scale_normalized`` is the gated fig5-100k
    completed-requests headline."""
    headline = {"event_throughput": throughput, "normalized": normalized}
    if scale_normalized is not None:
        headline["scale_requests_normalized"] = scale_normalized
    return {"schema": suite.SCHEMA, "headline": headline}


def _v2_report(normalized, scale_normalized):
    """A schema-v2 baseline, whose scale headline counted events/s."""
    return {
        "schema": "repro-bench-kernel/2",
        "headline": {"event_throughput": 1_000_000.0,
                     "normalized": normalized,
                     "scale_normalized": scale_normalized},
    }


class TestRunSuite:
    def test_report_schema(self, tiny_suite):
        report = suite.run_suite(quick=True)
        assert report["schema"] == suite.SCHEMA
        assert report["quick"] is True
        assert set(report["suites"]) == {"disarmed", "armed"}
        for label in ("disarmed", "armed"):
            rows = report["suites"][label]
            assert set(rows) == set(SCENARIOS)
            for row in rows.values():
                assert row["ops"] > 0
                assert row["ops_per_sec"] > 0
        assert report["headline"]["event_throughput"] > 0
        assert report["headline"]["normalized"] > 0
        assert report["headline"]["scale_requests_normalized"] > 0
        assert "scale_normalized" not in report["headline"]
        assert set(report["scale"]) == {"fig5-100k"}  # quick: no fig5-1m

    def test_calibration_is_the_median_of_interleaved_samples(
        self, tiny_suite, monkeypatch
    ):
        order = []
        samples = iter([30.0, 10.0, 20.0])

        def sampler(ops):
            order.append("calibrate")
            return next(samples)

        def fig5(quick):
            order.append("fig5")
            return (1_000, 0.01, 40)

        monkeypatch.setattr(suite, "calibrate", sampler)
        monkeypatch.setattr(kernel, "bench_fig5", fig5)
        monkeypatch.setattr(kernel, "bench_fig5_100k",
                            lambda: order.append("scale") or (2_000, 0.01, 80))
        report = suite.run_suite(quick=True)
        # One sample after each bench group: disarmed, armed, scale.
        assert order == ["fig5", "calibrate", "fig5", "calibrate",
                         "scale", "calibrate"]
        assert report["calibration_mops"] == 20.0
        assert report["headline"]["scale_requests_normalized"] == (
            pytest.approx(80 / 0.01 / 20.0, rel=1e-3)
        )

    def test_end_to_end_rows_count_requests(self, tiny_suite):
        report = suite.run_suite(quick=True)
        rows = [report["suites"][label]["fig5-autoscale"]
                for label in ("disarmed", "armed")]
        rows.append(report["scale"]["fig5-100k"])
        for row, (ops, completed) in zip(rows, [(1_000, 40)] * 2
                                         + [(2_000, 80)]):
            assert row["completed"] == completed
            assert row["requests_per_sec"] == pytest.approx(completed / 0.01)
            assert row["events_per_req"] == pytest.approx(ops / completed)
        # Micro rows complete no requests.
        assert "completed" not in report["suites"]["disarmed"]["event-dispatch"]
        calibration = report["calibration_mops"]
        assert report["headline"]["scale_requests_normalized"] == (
            pytest.approx(8_000 / calibration, rel=1e-3)
        )

    def test_full_mode_includes_fig5_1m(self, tiny_suite):
        report = suite.run_suite(quick=False)
        assert set(report["scale"]) == {"fig5-100k", "fig5-1m"}
        assert report["scale"]["fig5-1m"]["ops"] == 20_000

    def test_render_mentions_every_scenario(self, tiny_suite):
        text = suite.render_report(suite.run_suite(quick=True))
        for name in SCENARIOS:
            assert name in text

    def test_save_load_roundtrip(self, tiny_suite, tmp_path):
        report = suite.run_suite(quick=True)
        path = tmp_path / "bench.json"
        suite.save_report(report, str(path))
        assert suite.load_report(str(path)) == report

    def test_v2_baseline_loads(self, tmp_path):
        path = tmp_path / "v2.json"
        suite.save_report(_v2_report(1.0, 0.007), str(path))
        assert suite.load_report(str(path))["schema"] == "repro-bench-kernel/2"

    def test_load_rejects_foreign_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "something-else/9"}')
        with pytest.raises(ConfigurationError):
            suite.load_report(str(path))


class TestCompareReports:
    def test_within_tolerance_passes(self):
        assert suite.compare_reports(_report(0.80), _report(1.0)) == []

    def test_equal_reports_pass(self):
        assert suite.compare_reports(_report(1.0), _report(1.0)) == []

    def test_improvement_passes(self):
        assert suite.compare_reports(_report(1.5), _report(1.0)) == []

    def test_regression_detected(self):
        problems = suite.compare_reports(_report(0.70), _report(1.0))
        assert len(problems) == 1
        assert "normalized event throughput regressed" in problems[0]

    def test_tolerance_is_respected(self):
        assert suite.compare_reports(_report(0.70), _report(1.0),
                                     tolerance=0.4) == []
        assert suite.compare_reports(_report(0.55), _report(1.0),
                                     tolerance=0.4)

    def test_scale_regression_detected(self):
        problems = suite.compare_reports(
            _report(1.0, scale_normalized=0.5),
            _report(1.0, scale_normalized=1.0),
        )
        assert len(problems) == 1
        assert "fig5-100k completed requests/s" in problems[0]

    def test_v2_baseline_compares_on_dispatch_headline_only(self):
        # The v2 scale headline counted events/s; serving the same requests
        # with fewer events must not read as a regression against it.
        current = _report(1.0, scale_normalized=100.0)
        assert suite.compare_reports(current, _v2_report(1.0, 1e9)) == []
        problems = suite.compare_reports(_report(0.5, scale_normalized=100.0),
                                         _v2_report(1.0, 1e9))
        assert len(problems) == 1
        assert "normalized event throughput" in problems[0]

    def test_scale_gate_skipped_without_baseline_scale(self):
        # A v2 current report vs a scale-less baseline: only the event
        # throughput is gated.
        assert suite.compare_reports(
            _report(1.0, scale_normalized=0.5), _report(1.0)
        ) == []
