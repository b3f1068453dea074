"""repro.obs.analyze: span stats, critical path, ledger rollup, diff."""

import json

from repro import obs
from repro.obs.analyze import (
    Analysis,
    SpanStats,
    analyze,
    build_forest,
    critical_path,
    diff,
    events_from_chrome_trace,
    ledger_rollup,
    load_events,
    main,
)
from repro.obs.export import chrome_trace
from repro.obs.ledger import TransferRecord
from repro.obs.tracer import TraceEvent


def _span(name, ts, dur, tid=0):
    return TraceEvent(
        name=name, kind="span", ts=ts, dur=dur, tid=tid, depth=0, parent=None
    )


def _instant(name, ts, tid=0, **args):
    return TraceEvent(
        name=name,
        kind="instant",
        ts=ts,
        dur=0.0,
        tid=tid,
        depth=0,
        parent=None,
        args=args,
    )


class TestForest:
    def test_containment_rebuilds_nesting(self):
        events = [
            _span("root", 0.0, 10.0),
            _span("child-a", 1.0, 3.0),
            _span("grandchild", 1.5, 1.0),
            _span("child-b", 5.0, 4.0),
            _span("other-root", 11.0, 2.0),
        ]
        roots = build_forest(events)
        assert [r.name for r in roots] == ["root", "other-root"]
        root = roots[0]
        assert [c.name for c in root.children] == ["child-a", "child-b"]
        assert [c.name for c in root.children[0].children] == ["grandchild"]
        # self time = 10 - (3 + 4); grandchild is *not* double-counted.
        assert root.self_s == 3.0

    def test_threads_build_separate_trees(self):
        events = [
            _span("main", 0.0, 10.0, tid=1),
            _span("worker", 0.5, 9.0, tid=2),
        ]
        roots = build_forest(events)
        assert len(roots) == 2
        assert all(not r.children for r in roots)

    def test_critical_path_follows_heaviest_chain(self):
        events = [
            _span("root", 0.0, 10.0),
            _span("light", 0.0, 2.0),
            _span("heavy", 2.0, 7.0),
            _span("leaf", 2.0, 6.0),
        ]
        path = critical_path(build_forest(events))
        assert [name for name, _, _ in path] == ["root", "heavy", "leaf"]


class TestSpanStats:
    def test_exact_percentiles(self):
        stats = SpanStats("s", durations=[1.0, 2.0, 3.0, 4.0])
        assert stats.percentile(0) == 1.0
        assert stats.percentile(100) == 4.0
        assert stats.percentile(50) == 2.5

    def test_single_sample_and_empty(self):
        assert SpanStats("s", durations=[7.0]).percentile(99) == 7.0
        assert SpanStats("s").percentile(50) == 0.0

    def test_analyze_aggregates_by_name(self):
        events = [
            _span("run", 0.0, 10.0),
            _span("step", 0.0, 4.0),
            _span("step", 4.0, 6.0),
            _instant("tick", 1.0),
            _instant("tick", 2.0),
        ]
        result = analyze(events)
        step = result.spans["step"]
        assert step.count == 2
        assert step.total_s == 10.0
        assert result.spans["run"].self_s == 0.0
        # All of the run's time is inside the steps -> steps top the
        # self-time breakdown (the computed bottleneck).
        assert result.breakdown[0] == ("step", 10.0)
        assert result.instants == {"tick": 2}
        assert result.wall_s == 10.0


class TestChromeRoundTrip:
    def test_analysis_matches_live_events(self, tmp_path):
        with obs.capture() as cap:
            with obs.span("outer"):
                with obs.span("inner"):
                    obs.instant("blip", nbytes=3)
        doc = chrome_trace(cap.events)
        reloaded = events_from_chrome_trace(doc)
        live, offline = analyze(cap.events), analyze(reloaded)
        assert set(live.spans) == set(offline.spans) == {"outer", "inner"}
        assert live.instants == offline.instants == {"blip": 1}
        # µs-quantized timestamps still produce the same nesting.
        assert [n for n, _, _ in offline.critical_path] == ["outer", "inner"]

    def test_load_events_reads_exported_file(self, tmp_path):
        with obs.capture() as cap:
            with obs.span("work"):
                pass
        paths = cap.write(str(tmp_path), stem="run")
        events = load_events(paths[0])
        assert [e.name for e in events if e.kind == "span"] == ["work"]


class TestLedgerRollup:
    def test_rollup_splits_moved_and_avoided_per_phase(self):
        entries = [
            TransferRecord("eager", "h2d", 100, True, "a", ts=1.0),
            TransferRecord("eager", "h2d", 50, True, "b", ts=12.0),
            TransferRecord("copy-back-skipped-const", "d2h", 70, False, "c", ts=1.5),
            TransferRecord("lazy-miss", "h2d", 9, True, "d", ts=99.0),
        ]
        events = [_span("warmup", 0.0, 5.0), _span("steady", 10.0, 5.0)]
        rollup = ledger_rollup(entries, events)
        assert rollup["eager"]["moved_bytes"] == 150
        assert rollup["eager"]["phases"] == {"warmup": 100, "steady": 50}
        skipped = rollup["copy-back-skipped-const"]
        assert skipped["avoided_bytes"] == 70 and skipped["moved_bytes"] == 0
        assert rollup["lazy-miss"]["phases"] == {"(untraced)": 9}


class TestDiff:
    def _analysis(self, **totals):
        out = Analysis()
        for name, total in totals.items():
            out.spans[name] = SpanStats(
                name, count=1, total_s=total, self_s=total, durations=[total]
            )
        return out

    def test_classifies_regressions_and_improvements(self):
        a = self._analysis(kernel=1.0, transfer=1.0, steady=1.0, gone=1.0)
        b = self._analysis(kernel=2.0, transfer=0.4, steady=1.01, new=1.0)
        result = diff(a, b, tolerance_pct=10.0)
        verdicts = {r["name"]: r["verdict"] for r in result["spans"]}
        assert verdicts == {
            "kernel": "regression",
            "transfer": "improvement",
            "steady": "unchanged",
            "gone": "removed",
            "new": "added",
        }
        assert result["regressions"] == 1 and result["improvements"] == 1


class TestGpusteerLadder:
    """The acceptance scenario: v4 vs v5 runs, diffed offline."""

    def _capture_run(self, version):
        from repro.gpusteer.pipeline import GpuBoidsRun

        # Warm-up run outside the capture: first-call costs (lazy numpy
        # allocations etc.) land in `gpusteer.run` self time and would
        # otherwise drown the step loop in a tiny benchmark.
        GpuBoidsRun(64, version=version, seed=7).run(steps=1)
        with obs.capture() as cap:
            GpuBoidsRun(64, version=version, seed=7).run(steps=8)
        return cap

    def test_diff_reports_per_span_deltas_and_critical_path(self, tmp_path):
        cap4, cap5 = self._capture_run(4), self._capture_run(5)
        a, b = analyze(cap4.events), analyze(cap5.events)
        # The known bottleneck of a gpusteer run is the per-frame step
        # loop: the critical-path breakdown must rank it first.
        assert a.breakdown[0][0] == "gpusteer.step"
        assert [n for n, _, _ in a.critical_path[:2]] == [
            "gpusteer.run",
            "gpusteer.step",
        ]
        result = diff(a, b)
        names = {r["name"] for r in result["spans"]}
        assert {"gpusteer.run", "gpusteer.step"} <= names
        row = next(r for r in result["spans"] if r["name"] == "gpusteer.step")
        assert row["count_a"] == row["count_b"] == 8
        assert "total_change_pct" in row
        assert result["critical_path_a"][0]["name"] == "gpusteer.run"

    def test_cli_diff_end_to_end(self, tmp_path, capsys):
        paths = []
        for version in (4, 5):
            cap = self._capture_run(version)
            paths.append(cap.write(str(tmp_path), stem=f"v{version}")[0])
        report = tmp_path / "diff.json"
        code = main(
            ["--diff", paths[0], paths[1], "--json", str(report)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "trace diff" in out and "gpusteer.step" in out
        payload = json.loads(report.read_text())
        assert payload["critical_path_a"][0]["name"] == "gpusteer.run"

    def test_cli_single_run_report(self, tmp_path, capsys):
        cap = self._capture_run(5)
        trace = cap.write(str(tmp_path), stem="v5")[0]
        assert main([trace]) == 0
        out = capsys.readouterr().out
        assert "span statistics" in out
        assert "critical path" in out

    def test_cli_argument_errors(self, tmp_path):
        cap = self._capture_run(5)
        trace = cap.write(str(tmp_path), stem="v5")[0]
        assert main(["--diff", trace]) == 2
        assert main([trace, trace]) == 2
