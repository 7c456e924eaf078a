"""Verdicts of bench/compare.py."""

import json

import compare

SPEC = {
    "end_to_end": [
        {"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.10},
    ],
    "per_layer": [],
}


def test_verdicts_follow_the_bound_and_direction():
    a = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(a, [102.0, 101.0, 103.0], better="higher", bound=0.10)[0] == "same"
    assert compare.verdict(a, [80.0, 81.0, 79.0], better="higher", bound=0.10)[0] == "worse"
    assert compare.verdict(a, [80.0, 81.0, 79.0], better="lower", bound=0.10)[0] == "better"
    wide = [60.0, 100.0, 140.0, 80.0, 120.0]
    assert compare.verdict(a, wide, better="higher", bound=0.10)[0] == "unresolved"
    assert compare.verdict(wide, [200.0, 210.0], better="higher", bound=0.10)[0] == "better"


def _write(directory, name, throughputs, *, seed=1, failed=0, exact=None):
    directory.mkdir(parents=True, exist_ok=True)
    for index, value in enumerate(throughputs):
        result = {
            "seed": seed,
            "correct": True,
            "attempted": 1000,
            "failed": failed,
            "exact": exact or {"calls": 10},
            "metrics": {"throughput_per_s": value},
        }
        payload = {"workloads": {name: result}}
        (directory / f"run-{index}.json").write_text(json.dumps(payload))


def test_exit_status_flags_worse_runs_failures_and_exact_mismatches(tmp_path, capsys):
    _write(tmp_path / "a", "w", [100.0, 100.5, 99.5])
    _write(tmp_path / "b", "w", [100.2, 99.8, 100.1])
    assert compare.compare(compare.load_set(tmp_path / "a"), compare.load_set(tmp_path / "b"), SPEC) == 0

    _write(tmp_path / "slow", "w", [70.0, 70.5, 69.5])
    assert compare.compare(compare.load_set(tmp_path / "a"), compare.load_set(tmp_path / "slow"), SPEC) == 1

    _write(tmp_path / "drift", "w", [100.0, 100.5, 99.5], exact={"calls": 11})
    assert compare.compare(compare.load_set(tmp_path / "a"), compare.load_set(tmp_path / "drift"), SPEC) == 1
    assert "exact statistics differ: w seed 1: calls" in capsys.readouterr().out

    _write(tmp_path / "lossy", "w", [100.0, 100.5, 99.5], failed=3)
    assert compare.compare(compare.load_set(tmp_path / "a"), compare.load_set(tmp_path / "lossy"), SPEC) == 1
    assert "w failed more operations" in capsys.readouterr().out
