"""Unit tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_no_args_exits_2_with_usage(self, capsys):
        """``python -m repro`` must exit 2 and print usage, no traceback."""
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        assert "usage: repro" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        assert out.split()[1][0].isdigit()

    def test_curve_requires_selector(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["curve"])

    def test_curve_selectors_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["curve", "--size", "4", "--schedule", "H"])

    def test_partition_method_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["partition", "--ne", "4", "--nparts", "8", "--method", "magic"]
            )


class TestCurveCommand:
    def test_renders(self, capsys):
        assert main(["curve", "--size", "2"]) == 0
        out = capsys.readouterr().out
        assert "size=2" in out
        assert "0" in out and "3" in out

    def test_schedule_and_analyze(self, capsys):
        assert main(["curve", "--schedule", "PH", "--analyze"]) == 0
        out = capsys.readouterr().out
        assert "locality:" in out
        assert "bbox_aspect" in out

    def test_bad_size_errors(self):
        with pytest.raises(ValueError):
            main(["curve", "--size", "10"])


class TestPartitionCommand:
    def test_text_output(self, capsys):
        assert main(["partition", "--ne", "4", "--nparts", "12"]) == 0
        out = capsys.readouterr().out
        assert "LB(nelemd)   = 0.0000" in out
        assert "edgecut" in out

    def test_csv_output(self, capsys):
        assert main(
            ["partition", "--ne", "4", "--nparts", "8", "--csv"]
        ) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("method,nparts")
        assert out[1].startswith("sfc,8,")

    def test_metis_method(self, capsys):
        assert main(
            ["partition", "--ne", "4", "--nparts", "8", "--method", "rb"]
        ) == 0
        assert "method=rb" in capsys.readouterr().out

    def test_write_files(self, tmp_path, capsys):
        assign = tmp_path / "assign.csv"
        graph = tmp_path / "mesh.graph"
        assert main(
            [
                "partition",
                "--ne",
                "2",
                "--nparts",
                "4",
                "--write-assignment",
                str(assign),
                "--write-graph",
                str(graph),
            ]
        ) == 0
        lines = assign.read_text().splitlines()
        assert lines[0] == "gid,part"
        assert len(lines) == 25  # header + 24 elements
        from repro.graphs import read_metis_graph

        g = read_metis_graph(graph)
        assert g.nvertices == 24

    def test_write_assignment_creates_parents(self, tmp_path, capsys):
        target = tmp_path / "deep" / "nested" / "assign.csv"
        assert main(
            [
                "partition", "--ne", "2", "--nparts", "4",
                "--write-assignment", str(target),
            ]
        ) == 0
        assert target.read_text().splitlines()[0] == "gid,part"

    def test_write_assignment_unwritable_clean_error(self, tmp_path, capsys):
        # A parent that is a regular file is unwritable for any user
        # (including root), unlike chmod-based read-only directories.
        blocker = tmp_path / "blocker"
        blocker.write_text("i am a file")
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "partition", "--ne", "2", "--nparts", "4",
                    "--write-assignment", str(blocker / "sub" / "assign.csv"),
                ]
            )
        message = str(exc.value.code)
        assert "cannot write assignment" in message
        assert "Traceback" not in message

    def test_cache_dir_round_trip(self, tmp_path, capsys):
        argv = [
            "partition", "--ne", "2", "--nparts", "6", "--csv",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0  # served from the on-disk cache
        warm = capsys.readouterr().out
        assert warm == cold
        assert any((tmp_path / "cache").glob("*.npz"))


class TestBatchCommand:
    def write_requests(self, tmp_path):
        path = tmp_path / "reqs.json"
        path.write_text(
            json.dumps(
                [
                    {"ne": 2, "nparts": 4},
                    {"ne": 2, "nparts": 6, "method": "rb"},
                    {"ne": 2, "nparts": 4},  # duplicate: deduplicated
                ]
            )
        )
        return path

    def test_table_output(self, tmp_path, capsys):
        assert main(["batch", str(self.write_requests(tmp_path))]) == 0
        out = capsys.readouterr().out
        assert "Batch of 3 requests" in out
        assert "lb_nelemd" in out
        assert "rb" in out

    def test_csv_and_stats(self, tmp_path, capsys):
        assert main(
            ["batch", str(self.write_requests(tmp_path)), "--csv", "--stats"]
        ) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].startswith("ne,nparts,method,seed,source")
        assert len([ln for ln in lines if ln.startswith("2,")]) == 3
        assert "Partition service stats" in out

    def test_csv_request_file(self, tmp_path, capsys):
        path = tmp_path / "reqs.csv"
        path.write_text("ne,nparts,method\n2,4,sfc\n2,6,block\n")
        assert main(["batch", str(path), "--csv"]) == 0
        out = capsys.readouterr().out
        assert "2,6,block" in out

    def test_warm_cache_reports_hits(self, tmp_path, capsys):
        reqs = self.write_requests(tmp_path)
        cache = str(tmp_path / "cache")
        assert main(["batch", str(reqs), "--cache-dir", cache]) == 0
        capsys.readouterr()
        assert main(["batch", str(reqs), "--cache-dir", cache, "--csv"]) == 0
        out = capsys.readouterr().out
        assert "computed" not in out  # every request served from cache
        assert "disk" in out

    def test_write_assignments_match_partition_command(self, tmp_path, capsys):
        reqs = self.write_requests(tmp_path)
        outdir = tmp_path / "assignments"
        assert main(
            ["batch", str(reqs), "--write-assignments", str(outdir)]
        ) == 0
        files = sorted(outdir.glob("*.csv"))
        assert len(files) == 3
        serial = tmp_path / "serial.csv"
        assert main(
            [
                "partition", "--ne", "2", "--nparts", "4",
                "--write-assignment", str(serial),
            ]
        ) == 0
        assert files[0].read_text() == serial.read_text()

    def test_missing_file_clean_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["batch", str(tmp_path / "nope.json")])
        assert "not found" in str(exc.value.code)

    def test_bad_file_clean_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"nope": 1}')
        with pytest.raises(SystemExit) as exc:
            main(["batch", str(bad)])
        assert "expected a JSON list" in str(exc.value.code)


class TestSweepCommand:
    def test_table(self, capsys):
        assert main(
            ["sweep", "--ne", "2", "--methods", "sfc", "--nprocs", "2", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "Nproc" in out and "S(sfc)" in out

    def test_csv(self, capsys):
        assert main(
            [
                "sweep",
                "--ne",
                "2",
                "--methods",
                "sfc",
                "rb",
                "--nprocs",
                "4",
                "--csv",
            ]
        ) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "nproc,speedup_sfc,gflops_sfc,speedup_rb,gflops_rb"
        assert out[1].startswith("4,")


class TestTraceCommand:
    def test_renders_timeline(self, capsys):
        assert main(
            ["trace", "--ne", "4", "--nparts", "12", "--max-ranks", "6"]
        ) == 0
        out = capsys.readouterr().out
        assert "<== critical" in out
        assert "idle=" in out

    def test_method_choice(self, capsys):
        assert main(
            ["trace", "--ne", "4", "--nparts", "8", "--method", "rb"]
        ) == 0
        assert "method=rb" in capsys.readouterr().out


class TestReportCommand:
    def test_structural_report(self, capsys):
        assert main(["report", "--ne", "4", "--nparts", "12"]) == 0
        out = capsys.readouterr().out
        assert "fragmented parts" in out
        assert "Worst parts" in out

    def test_metis_report(self, capsys):
        assert main(
            ["report", "--ne", "4", "--nparts", "12", "--method", "kway"]
        ) == 0
        assert "method=kway" in capsys.readouterr().out


class TestTable2Command:
    def test_runs_small(self, capsys):
        assert main(["table2", "--ne", "4", "--nparts", "48"]) == 0
        out = capsys.readouterr().out
        assert "LB(nelemd)" in out
        assert "K=96" in out

    def test_nlev_scales_tcv(self, capsys):
        main(["table2", "--ne", "8", "--nparts", "96", "--nlev", "1"])
        tcv1 = capsys.readouterr().out
        main(["table2", "--ne", "8", "--nparts", "96", "--nlev", "16"])
        tcv16 = capsys.readouterr().out

        def tcv_value(text):
            for line in text.splitlines():
                if line.startswith("TCV"):
                    return float(line.split()[2])
            raise AssertionError("no TCV row")

        # Printed to 2 decimals, so compare loosely.
        assert tcv_value(tcv16) == pytest.approx(16 * tcv_value(tcv1), rel=0.05)


class TestProfileCommand:
    def test_stage_table(self, capsys):
        assert main(
            ["profile", "--ne", "2", "--nparts", "6", "--method", "rb"]
        ) == 0
        out = capsys.readouterr().out
        assert "K=24 method=rb nparts=6" in out
        assert "Stage profile: rb ne=2 nparts=6 x1" in out
        # The METIS pipeline stages and the engine stages all report.
        for name in ("coarsen", "refine", "compute", "cache"):
            assert name in out
        assert "cache_misses=1" in out

    def test_repeat_exercises_cache(self, capsys):
        assert main(
            ["profile", "--ne", "2", "--nparts", "6", "--repeat", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "cache_hits=2" in out
        assert "cache_misses=1" in out

    def test_json_output(self, tmp_path, capsys):
        outdir = tmp_path / "prof"
        assert main(
            [
                "profile", "--ne", "2", "--nparts", "6",
                "--method", "sfc", "--telemetry-dir", str(outdir),
            ]
        ) == 0
        payload = json.loads((outdir / "profile.json").read_text())
        assert payload["command"] == "profile"
        assert payload["method"] == "sfc"
        assert payload["repeat"] == 1
        assert payload["elapsed_s"] > 0
        assert "cache" in payload["stages"]
        assert payload["stages"]["cache"]["calls"] == 1
        assert payload["counters"]["cache_misses"] == 1

    def test_trace_events_share_one_trace_id(self, tmp_path, capsys):
        outdir = tmp_path / "tel"
        assert main(
            ["profile", "--ne", "2", "--nparts", "6", "--telemetry-dir", str(outdir)]
        ) == 0
        trace = json.loads((outdir / "trace.json").read_text())
        ids = {
            e["args"].get("trace_id")
            for e in trace["traceEvents"]
            if e["ph"] == "X"
        }
        assert len(ids) == 1
        assert ids.pop()

    def test_repeat_rejects_nonpositive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["profile", "--ne", "2", "--nparts", "6", "--repeat", "0"]
            )


class TestProfileFlags:
    def test_partition_profile_table(self, capsys):
        assert main(
            ["partition", "--ne", "2", "--nparts", "4", "--profile"]
        ) == 0
        out = capsys.readouterr().out
        assert "LB(nelemd)" in out  # normal output still printed
        assert "Stage profile: partition" in out

    def test_partition_profile_json(self, tmp_path, capsys):
        assert main(
            [
                "partition", "--ne", "2", "--nparts", "4",
                "--method", "kway", "--telemetry-dir", str(tmp_path),
            ]
        ) == 0
        payload = json.loads((tmp_path / "profile.json").read_text())
        assert payload["command"] == "partition"
        assert payload["method"] == "kway"
        assert "uncoarsen" in payload["stages"]

    def test_batch_profile_json(self, tmp_path, capsys):
        reqs = tmp_path / "reqs.json"
        reqs.write_text(json.dumps([{"ne": 2, "nparts": 4}]))
        outdir = tmp_path / "tel"
        assert main(
            ["batch", str(reqs), "--telemetry-dir", str(outdir)]
        ) == 0
        payload = json.loads((outdir / "profile.json").read_text())
        assert payload["command"] == "batch"
        assert payload["counters"]["cache_misses"] == 1
        assert "Stage profile" not in capsys.readouterr().out

    def test_no_flags_no_table(self, capsys):
        assert main(["partition", "--ne", "2", "--nparts", "4"]) == 0
        assert "Stage profile" not in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["partition", "--ne", "2", "--nparts", "4", "--trace-json", "t.json"],
            ["batch", "reqs.json", "--metrics"],
            ["profile", "--ne", "2", "--nparts", "6", "--profile-json", "p.json"],
        ],
    )
    def test_removed_flags_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestTelemetryFlags:
    def test_partition_trace_json(self, tmp_path, capsys):
        assert main(
            ["partition", "--ne", "2", "--nparts", "4",
             "--telemetry-dir", str(tmp_path)]
        ) == 0
        trace = json.loads((tmp_path / "trace.json").read_text())
        assert trace["schema"] == 1
        assert trace["meta"]["command"] == "partition"
        names = {e["name"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert {"engine_run", "cache", "compute"} <= names

    def test_partition_metrics_table(self, tmp_path, capsys):
        assert main(
            ["partition", "--ne", "2", "--nparts", "4",
             "--telemetry-dir", str(tmp_path)]
        ) == 0
        assert "LB(nelemd)" in capsys.readouterr().out  # normal output
        assert main(["metrics", str(tmp_path / "metrics.json")]) == 0
        out = capsys.readouterr().out
        assert "request_lb_nelemd" in out
        assert "cache_misses" in out

    def test_batch_trace_has_worker_spans(self, tmp_path):
        reqs = tmp_path / "reqs.json"
        reqs.write_text(
            json.dumps(
                [
                    {"ne": 2, "nparts": 4, "method": "sfc"},
                    {"ne": 2, "nparts": 4, "method": "rb"},
                    {"ne": 2, "nparts": 6, "method": "sfc"},
                ]
            )
        )
        outdir = tmp_path / "tel"
        assert main(
            ["batch", str(reqs), "--jobs", "2", "--telemetry-dir", str(outdir)]
        ) == 0
        trace = json.loads((outdir / "trace.json").read_text())
        events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        pool = [e for e in events if e["name"] == "pool"]
        assert len(pool) == 1
        pool_id = pool[0]["args"]["span_id"]
        worker = [e for e in events if "worker_pid" in e["args"]]
        assert worker, "no worker-side spans in the trace"
        computes = [e for e in worker if e["name"] == "compute"]
        assert computes
        assert all(e["args"]["parent_id"] == pool_id for e in computes)

    def test_batch_metrics_json_and_run_log(self, tmp_path):
        reqs = tmp_path / "reqs.json"
        reqs.write_text(json.dumps([{"ne": 2, "nparts": 4}]))
        outdir = tmp_path / "tel"
        mpath = outdir / "metrics.json"
        lpath = outdir / "run.jsonl"
        assert main(
            ["batch", str(reqs), "--telemetry-dir", str(outdir)]
        ) == 0
        snapshot = json.loads(mpath.read_text())
        assert snapshot["schema"] == 1
        names = {entry["name"] for entry in snapshot["metrics"]}
        assert {
            "request_lb_nelemd", "request_lb_spcv",
            "request_edgecut", "request_tcv_points",
        } <= names
        kinds = {json.loads(line)["kind"] for line in lpath.read_text().splitlines()}
        assert {"run", "span", "metric"} <= kinds

    def test_log_jsonl_shares_the_run_trace_id(self, tmp_path):
        assert main(
            ["partition", "--ne", "2", "--nparts", "4",
             "--telemetry-dir", str(tmp_path)]
        ) == 0
        records = [
            json.loads(line)
            for line in (tmp_path / "log.jsonl").read_text().splitlines()
        ]
        trace = json.loads((tmp_path / "trace.json").read_text())
        span_ids = {
            e["args"]["trace_id"] for e in trace["traceEvents"] if e["ph"] == "X"
        }
        assert records
        assert {r["trace_id"] for r in records} == span_ids

    def test_profile_with_trace_json(self, tmp_path, capsys):
        assert main(
            [
                "profile", "--ne", "2", "--nparts", "6",
                "--telemetry-dir", str(tmp_path),
            ]
        ) == 0
        assert "Stage profile" in capsys.readouterr().out
        assert json.loads((tmp_path / "trace.json").read_text())["traceEvents"]


class TestMetricsCommand:
    def test_reads_metrics_snapshot(self, tmp_path, capsys):
        mpath = tmp_path / "metrics.json"
        assert main(
            ["partition", "--ne", "2", "--nparts", "4",
             "--telemetry-dir", str(tmp_path)]
        ) == 0
        capsys.readouterr()
        assert main(["metrics", str(mpath)]) == 0
        out = capsys.readouterr().out
        assert "request_lb_nelemd" in out
        assert "request_edgecut" in out

    def test_prometheus_output(self, tmp_path, capsys):
        mpath = tmp_path / "metrics.json"
        main(["partition", "--ne", "2", "--nparts", "4",
              "--telemetry-dir", str(tmp_path)])
        capsys.readouterr()
        assert main(["metrics", str(mpath), "--prometheus"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE request_lb_nelemd histogram" in out
        assert 'request_lb_nelemd_bucket{le="+Inf",partitioner="sfc"} 1' in out

    def test_serves_request_file(self, tmp_path, capsys):
        reqs = tmp_path / "reqs.json"
        reqs.write_text(json.dumps([{"ne": 2, "nparts": 4}]))
        assert main(["metrics", str(reqs)]) == 0
        out = capsys.readouterr().out
        assert "served 1 requests" in out
        assert "request_tcv_points" in out

    def test_missing_source_errors(self, tmp_path):
        with pytest.raises(SystemExit, match="not found"):
            main(["metrics", str(tmp_path / "nope.json")])


class TestMethodsCommand:
    def test_lists_all_registered(self, capsys):
        from repro.partition.registry import available

        assert main(["methods"]) == 0
        out = capsys.readouterr().out
        assert "Registered partitioners" in out
        for name in available():
            assert name in out
        assert "2^n * 3^m" in out  # sfc's ne constraint surfaced

    def test_csv_output(self, capsys):
        assert main(["methods", "--csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith(
            "method,family,weighted,seeded,schedule,continuous"
        )
        assert len(lines) == 10  # header + nine methods
        assert lines[1].startswith("sfc,sfc,yes,no,yes,yes")
        assert lines[2].startswith("morton,sfc,yes,no,no,no")

    def test_choices_follow_registry(self):
        """--method choices come from the registry, not a literal list."""
        from repro.partition.registry import available

        parser = build_parser()
        args = parser.parse_args(
            ["partition", "--ne", "4", "--nparts", "8", "--method", "strided"]
        )
        assert args.method == "strided"
        assert "strided" in available()


class TestCacheCommand:
    def test_info_prints_versions(self, capsys):
        from repro.partition.pipeline import cache_version

        assert main(["cache", "info"]) == 0
        out = capsys.readouterr().out
        assert f"cache version: {cache_version()}" in out
        assert "stage versions:" in out
        assert "mesh=1" in out

    def test_info_scans_directory(self, tmp_path, capsys):
        assert main(["partition", "--ne", "2", "--nparts", "4",
                     "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries: 1 (current 1, stale 0, unreadable 0)" in out

    def test_help_documents_stale_policy(self, capsys):
        with pytest.raises(SystemExit):
            main(["cache", "--help"])
        out = capsys.readouterr().out
        assert "recomputed" in out
        assert "never served" in out
