"""Tests for the benchmark trajectory (:mod:`repro.bench`)."""

import json
from pathlib import Path

import pytest

from repro import bench
from repro.cli import main as cli_main


@pytest.fixture(scope="module")
def smoke_payload():
    return bench.run_benchmarks("smoke")


class TestRunBenchmarks:
    def test_smoke_profile_produces_valid_payload(self, smoke_payload):
        assert bench.validate_payload(smoke_payload) == []
        assert smoke_payload["schema"] == bench.SCHEMA
        assert smoke_payload["profile"] == "smoke"
        names = [entry["name"] for entry in smoke_payload["benchmarks"]]
        assert "monte_carlo_scalar" in names
        assert "monte_carlo_fast" in names
        assert "planner_reference" in names
        # The scalar row times the registry entry every float caller uses.
        assert "planner_heuristic" in names
        assert "planner_fast" not in names
        assert "runner_parallel" in names

    def test_unknown_profile_raises(self):
        with pytest.raises(ValueError):
            bench.run_benchmarks("huge")

    def test_derived_speedups_positive(self, smoke_payload):
        for value in smoke_payload["derived"].values():
            assert value > 0

    def test_batched_planner_rows_per_backend(self, smoke_payload):
        from repro.core import available_backends

        names = [entry["name"] for entry in smoke_payload["benchmarks"]]
        for backend in available_backends():
            assert f"planner_batch_{backend}" in names
        assert "planner_batch_speedup" in smoke_payload["derived"]
        assert "planner_speedup" not in smoke_payload["derived"]

    def test_service_rows_record_throughput_and_hit_rate(self, smoke_payload):
        rows = {
            entry["name"]: entry
            for entry in smoke_payload["benchmarks"]
            if entry["name"].startswith("service_")
        }
        assert set(rows) == {"service_cold_cache", "service_warm_cache"}
        for row in rows.values():
            assert row["params"]["hit_rate"] >= 0.0
            assert row["params"]["throughput_rps"] > 0.0
        # warmed caches answer the whole replayed stream
        assert rows["service_warm_cache"]["params"]["hit_rate"] == pytest.approx(1.0)
        assert "service_throughput" in smoke_payload["derived"]
        assert smoke_payload["derived"]["service_throughput"] > 0.0

    def test_contention_rows_record_blocking(self, smoke_payload):
        rows = {
            entry["name"]: entry
            for entry in smoke_payload["benchmarks"]
            if entry["name"].startswith("contention_")
        }
        assert set(rows) == {"contention_engine", "contention_legacy_path"}
        engine = rows["contention_engine"]["params"]
        assert engine["offered_calls"] > 0
        assert 0.0 <= engine["blocking_probability"] <= 1.0
        assert rows["contention_legacy_path"]["params"]["capacity"] is None
        assert "contention_setups_per_s" in smoke_payload["derived"]
        assert smoke_payload["derived"]["contention_setups_per_s"] > 0.0


class TestTrajectoryFiles:
    def test_index_increments(self, tmp_path, smoke_payload):
        assert bench.next_bench_index(tmp_path) == 0
        first = bench.write_trajectory(smoke_payload, root=tmp_path)
        assert first.name == "BENCH_0.json"
        assert bench.next_bench_index(tmp_path) == 1
        second = bench.write_trajectory(smoke_payload, root=tmp_path)
        assert second.name == "BENCH_1.json"
        payload = json.loads(second.read_text())
        assert payload["index"] == 1
        assert bench.validate_payload(payload) == []

    def test_explicit_out_path(self, tmp_path, smoke_payload):
        target = tmp_path / "custom.json"
        written = bench.write_trajectory(smoke_payload, path=target)
        assert written == target
        assert bench.validate_payload(json.loads(target.read_text())) == []


class TestValidatePayload:
    def test_rejects_non_object(self):
        assert bench.validate_payload([1, 2]) != []

    def test_rejects_wrong_schema(self, smoke_payload):
        broken = dict(smoke_payload)
        broken["schema"] = "other/9"
        assert any("schema" in problem for problem in bench.validate_payload(broken))

    def test_rejects_inconsistent_stats(self, smoke_payload):
        broken = json.loads(json.dumps(smoke_payload))
        broken["benchmarks"][0]["min_s"] = -1.0
        assert any("min_s" in problem for problem in bench.validate_payload(broken))

    def test_rejects_empty_benchmarks(self, smoke_payload):
        broken = dict(smoke_payload)
        broken["benchmarks"] = []
        assert bench.validate_payload(broken) != []


class TestCli:
    def test_bench_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "BENCH_0.json"
        assert cli_main(["bench", "--profile", "smoke", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "trajectory written" in stdout
        assert cli_main(["bench", "--validate", str(out)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_validate_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "nope"}))
        assert cli_main(["bench", "--validate", str(bad)]) == 1
        capsys.readouterr()

    def test_validate_missing_file(self, tmp_path, capsys):
        assert cli_main(["bench", "--validate", str(tmp_path / "none.json")]) == 2
        capsys.readouterr()


def _snapshot(index, mins, derived=None):
    """A minimal trajectory payload for diff tests."""
    return {
        "schema": bench.SCHEMA,
        "index": index,
        "benchmarks": [
            {"name": name, "min_s": value} for name, value in mins.items()
        ],
        "derived": derived or {},
    }


class TestDiffPayloads:
    def test_flags_slowdowns_beyond_threshold(self):
        diff = bench.diff_payloads(
            _snapshot(0, {"fast": 0.010, "slow": 0.010}),
            _snapshot(1, {"fast": 0.011, "slow": 0.013}),
        )
        assert diff["schema"] == "repro-bench-diff/1"
        assert diff["regressions"] == ["slow"]
        by_name = {row["name"]: row for row in diff["benchmarks"]}
        assert by_name["fast"]["regression"] is False
        assert by_name["slow"]["ratio"] == pytest.approx(1.3)

    def test_derived_speedups_regress_when_shrinking(self):
        diff = bench.diff_payloads(
            _snapshot(0, {}, {"speedup": 4.0}),
            _snapshot(1, {}, {"speedup": 3.0}),
        )
        assert diff["regressions"] == ["speedup"]
        diff = bench.diff_payloads(
            _snapshot(0, {}, {"speedup": 4.0}),
            _snapshot(1, {}, {"speedup": 3.5}),
        )
        assert diff["regressions"] == []

    def test_one_sided_metrics_are_listed_but_never_regressions(self):
        diff = bench.diff_payloads(
            _snapshot(0, {"old_only": 0.010}),
            _snapshot(1, {"new_only": 9.999}),
        )
        assert diff["regressions"] == []
        notes = {row["name"]: row.get("note") for row in diff["benchmarks"]}
        assert notes == {
            "old_only": "only in one snapshot",
            "new_only": "only in one snapshot",
        }

    def test_custom_threshold(self):
        prev, curr = _snapshot(0, {"b": 0.010}), _snapshot(1, {"b": 0.0115})
        assert bench.diff_payloads(prev, curr)["regressions"] == []
        loose = bench.diff_payloads(prev, curr, threshold=0.10)
        assert loose["regressions"] == ["b"]

    def test_committed_trajectory_drift_is_flagged(self):
        """BENCH_0 -> BENCH_1 carries the planner_reference slowdown."""
        root = Path(__file__).resolve().parents[1]
        previous = json.loads((root / "BENCH_0.json").read_text())
        current = json.loads((root / "BENCH_1.json").read_text())
        diff = bench.diff_payloads(previous, current)
        assert "planner_reference" in diff["regressions"]

    def test_render_diff_mentions_regressions(self):
        diff = bench.diff_payloads(
            _snapshot(0, {"b": 0.010}), _snapshot(1, {"b": 0.015})
        )
        text = bench.render_diff(diff)
        assert "REGRESSION" in text
        assert "1 regression(s): b" in text


class TestLatestBenchPath:
    def test_picks_highest_index(self, tmp_path):
        for index in (0, 2, 10):
            (tmp_path / f"BENCH_{index}.json").write_text("{}")
        assert bench.latest_bench_path(tmp_path).name == "BENCH_10.json"

    def test_empty_root(self, tmp_path):
        assert bench.latest_bench_path(tmp_path) is None


class TestDiffCli:
    def _write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return path

    def test_diff_exit_codes(self, tmp_path, capsys):
        prev = self._write(tmp_path, "BENCH_0.json", _snapshot(0, {"b": 0.010}))
        same = self._write(tmp_path, "BENCH_1.json", _snapshot(1, {"b": 0.010}))
        slow = self._write(tmp_path, "BENCH_2.json", _snapshot(2, {"b": 0.020}))
        assert cli_main(
            ["bench", "--diff", str(prev), "--against", str(same)]
        ) == 0
        assert cli_main(
            ["bench", "--diff", str(prev), "--against", str(slow)]
        ) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_diff_defaults_to_latest_snapshot(self, tmp_path, capsys):
        prev = self._write(tmp_path, "BENCH_0.json", _snapshot(0, {"b": 0.010}))
        self._write(tmp_path, "BENCH_3.json", _snapshot(3, {"b": 0.030}))
        assert cli_main(
            ["bench", "--diff", str(prev), "--root", str(tmp_path)]
        ) == 1
        assert "BENCH_0 -> BENCH_3" in capsys.readouterr().out

    def test_diff_unreadable_input(self, tmp_path, capsys):
        missing = tmp_path / "none.json"
        current = self._write(tmp_path, "BENCH_0.json", _snapshot(0, {}))
        assert cli_main(
            ["bench", "--diff", str(missing), "--against", str(current)]
        ) == 2
        capsys.readouterr()

    def test_fail_rows_gates_only_matching_regressions(self, tmp_path, capsys):
        prev = self._write(
            tmp_path, "BENCH_0.json",
            _snapshot(0, {"planner_heuristic": 0.010, "runner_parallel": 0.100}),
        )
        slow_runner = self._write(
            tmp_path, "BENCH_1.json",
            _snapshot(1, {"planner_heuristic": 0.010, "runner_parallel": 0.200}),
        )
        slow_planner = self._write(
            tmp_path, "BENCH_2.json",
            _snapshot(2, {"planner_heuristic": 0.020, "runner_parallel": 0.100}),
        )
        # runner regression exists but does not match the gate regex.
        assert cli_main(
            ["bench", "--diff", str(prev), "--against", str(slow_runner),
             "--fail-rows", "^planner"]
        ) == 0
        capsys.readouterr()
        # planner regression matches and is fatal.
        assert cli_main(
            ["bench", "--diff", str(prev), "--against", str(slow_planner),
             "--fail-rows", "^planner"]
        ) == 1
        capsys.readouterr()

    def test_script_wrapper_agrees(self, tmp_path):
        import subprocess
        import sys

        root = Path(__file__).resolve().parents[1]
        prev = self._write(tmp_path, "BENCH_0.json", _snapshot(0, {"b": 0.010}))
        slow = self._write(tmp_path, "BENCH_1.json", _snapshot(1, {"b": 0.020}))
        proc = subprocess.run(
            [sys.executable, str(root / "scripts" / "bench_diff.py"),
             str(prev), str(slow)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert "REGRESSION" in proc.stdout

    def test_script_wrapper_fail_rows(self, tmp_path):
        import subprocess
        import sys

        root = Path(__file__).resolve().parents[1]
        prev = self._write(tmp_path, "BENCH_0.json", _snapshot(0, {"b": 0.010}))
        slow = self._write(tmp_path, "BENCH_1.json", _snapshot(1, {"b": 0.020}))
        script = str(root / "scripts" / "bench_diff.py")
        gated = subprocess.run(
            [sys.executable, script, str(prev), str(slow),
             "--fail-rows", "^planner"],
            capture_output=True, text=True,
        )
        assert gated.returncode == 0  # regression on "b" does not match
        fatal = subprocess.run(
            [sys.executable, script, str(prev), str(slow), "--fail-rows", "^b"],
            capture_output=True, text=True,
        )
        assert fatal.returncode == 1
        assert "fatal regression" in fatal.stderr
