"""One workload in one process: set up, warm up, time, check, trace.

``bench/run.py`` starts this script once per workload to measure it; the
script starts itself again with ``--setup-only``, between timed repeats,
to sample set-up time.  It prints one JSON object as the last line of
standard output; everything else goes to standard error.

Set-up time runs from the first statement of this file, before numpy or
repro are imported, until the workload's inputs and its simulator,
controller or matrix exist.  After set-up comes one untimed warm-up
repeat (it also builds the compiled planner backend on a fresh
checkout), then timed repeats for ``--seconds``, then the checks.  With
``--trace-out`` the workload runs a few more times with every layer hook
installed; the hooks are removed afterwards and every traced run must
reproduce the untimed statistics.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional, Sequence  # noqa: E402

import numpy as np  # noqa: E402

from layers import DRIVER, HOOKS, layer_metrics, layer_seconds  # noqa: E402
from spans import Tracer, calibrate, installed  # noqa: E402
from workloads import WORKLOADS, Check, Workload, fastest  # noqa: E402


def _first_difference(reference: Dict[str, Any], other: Dict[str, Any]) -> str:
    for key in sorted(set(reference) | set(other)):
        if reference.get(key) != other.get(key):
            return f"{key}: {reference.get(key)!r} != {other.get(key)!r}"
    return ""


def determinism_check(exacts: Sequence[Dict[str, Any]]) -> Check:
    """Every repeat (warm-up included) must produce identical statistics."""
    for index, exact in enumerate(exacts[1:], start=1):
        difference = _first_difference(exacts[0], exact)
        if difference:
            return ("repeats are identical", False, f"repeat {index}: {difference}")
    return ("repeats are identical", True, f"{len(exacts)} repeats")


#: Traced runs per workload; the least disturbed one is attributed.
TRACED_RUNS = 3


def traced_run(
    workload: Workload,
    state: Any,
    untraced_s: float,
    reference: Dict[str, Any],
    trace_path: Optional[Path],
) -> Dict[str, Any]:
    """Run the workload under every layer hook and attribute its time.

    ``untraced_s`` is the untraced repeat time at its fastest; of
    TRACED_RUNS traced runs the fastest is attributed, for the same reason.
    Every traced run must reproduce the untraced statistics.
    """
    cost = calibrate()
    tracer = None
    mismatches = []
    for _ in range(TRACED_RUNS):
        job = workload.prepare(state)
        candidate = Tracer(DRIVER, cost)
        with installed(candidate, HOOKS) as (hooked, missing):
            candidate_outcome = candidate.run(lambda: workload.execute(state, job))
        exact = workload.exact(state, candidate_outcome)
        if exact != reference:
            mismatches.append(_first_difference(reference, exact))
        if tracer is None or candidate.root_s < tracer.root_s:
            tracer, outcome = candidate, candidate_outcome
    unhooked = sorted(
        hook for hook in workload.expected_hooks if tracer.hook_calls.get(hook, 0) == 0
    )
    metrics = layer_metrics(
        tracer,
        workload.layer_stats(state, outcome),
        untraced_s=untraced_s,
        unhooked=len(unhooked),
    )
    seconds = layer_seconds(tracer)
    attributed = sum(seconds.values())
    if trace_path is not None:
        payload = tracer.to_json()
        payload.update({
            "workload": workload.name,
            "seed": state.seed,
            "untraced_s": untraced_s,
            "hooks_installed": hooked,
            "hooks_missing": missing,
            "unhooked": unhooked,
        })
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(json.dumps(payload) + "\n")
    return {
        "metrics": metrics,
        "layer_seconds": seconds,
        "traced_s": tracer.root_s,
        "self_sum_ratio": attributed / untraced_s,
        "wrapper_cost_s": tracer.cost.total_s,
        "unhooked": unhooked,
        "missing": missing,
        "check": (
            "traced runs reproduce the untraced statistics",
            not mismatches,
            "; ".join(mismatches) or f"{TRACED_RUNS} identical",
        ),
    }


#: Set-up time samples per run, this process's own included.
SETUP_SAMPLES = 10


def setup_sample(name: str, seed: int) -> float:
    """Set-up time of a fresh set-up-only process of this script."""
    command = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
               "--seconds", "0", "--setup-only"]
    completed = subprocess.run(command, stdout=subprocess.PIPE, timeout=120, check=True)
    return json.loads(completed.stdout.decode().strip().splitlines()[-1])["setup_s"]


def run(
    name: str,
    seed: Optional[int],
    seconds: float,
    trace_path: Optional[Path] = None,
    setup_only: bool = False,
) -> Dict[str, Any]:
    """The whole child-side measurement of one workload; traced with a path.

    Set-up counts imports, which a process makes only once, so set-up time
    is sampled in fresh processes, run one at a time between timed
    repeats at even intervals over the run, so that no one phase of the
    host covers them all.  ``setup_s`` is the median sample.
    """
    from repro.core.backends import resolve_backend

    workload = WORKLOADS[name]
    seed = workload.default_seed if seed is None else seed
    state = workload.setup(seed)
    setup_samples = [time.perf_counter() - T0]
    result: Dict[str, Any] = {"workload": name, "seed": seed, "setup_s": setup_samples[0]}
    if setup_only:
        return result

    def between(elapsed: float) -> None:
        due = (len(setup_samples) - 1) * seconds / (SETUP_SAMPLES - 1)
        if len(setup_samples) < SETUP_SAMPLES and elapsed >= due:
            setup_samples.append(setup_sample(name, seed))

    warm = workload.repeat(state)
    repeats = workload.measure(state, seconds, between)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reference = repeats[0].exact
    checks: List[Check] = [determinism_check([warm.exact] + [r.exact for r in repeats])]
    checks.extend(workload.checks(state, reference))
    checks.extend(workload.pin_checks(workload.pinned_exact(state, reference)))
    metrics = workload.end_to_end(state, repeats)
    metrics["setup_s"] = statistics.median(setup_samples)
    metrics["peak_rss_mb"] = peak_rss_mb
    attempted, failed = workload.attempted_failed(state, repeats)
    result.update({
        "setup_samples_s": setup_samples,
        "repeat_s": [r.wall_s for r in repeats],
        "units_per_repeat": repeats[0].units,
        "metrics": metrics,
        "extras": workload.extras(state, repeats),
        "exact": dict(reference, **workload.run_exact(state)),
        "attempted": attempted,
        "failed": failed,
        "backend": resolve_backend("auto"),
    })
    if trace_path is not None:
        untraced_s = fastest(repeats).total_s
        traced = traced_run(workload, state, untraced_s, reference, trace_path)
        checks.append(traced.pop("check"))
        result["trace"] = traced
    result["checks"] = [
        {"name": check_name, "ok": bool(ok), "detail": detail}
        for check_name, ok, detail in checks
    ]
    result["correct"] = all(check["ok"] for check in result["checks"])
    return result


def environment() -> Dict[str, Any]:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "threads": {
            key: os.environ.get(key)
            for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace-out", type=Path, default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, args.trace_out, args.setup_only)
    result["env"] = environment()
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
