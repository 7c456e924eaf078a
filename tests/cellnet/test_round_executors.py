"""The two executors of a contended paging round agree, round by round.

:class:`~repro.cellnet.engine.ChannelScheduler` keeps every queued call in
one set of slot arrays and serves a round over them with the compiled
``repro_serve_round`` or, when the library is missing or pages can be
lost, with the same loop in Python.  Here two schedulers get the same
seeded random calls, positions and outages; one serves every round with
the compiled kernel, the other with ``REPRO_DISABLE_COMPILED`` set, as a
host without a compiler runs.  After every round their slot arrays,
queues, parked calls, events (finds, call records, blocks, in order) and
metrics must be equal.  Without the compiled library both run the Python
executor, and the test still drives it through every state.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from repro.cellnet import (
    CellOutage,
    ChannelScheduler,
    ConferenceCallRequest,
    FaultInjector,
    FaultModel,
    LinkUsageMetrics,
    PendingCall,
    RecoveryPolicy,
)
from repro.core import compiled_available

#: The executors this host runs: the compiled round when it loads, and
#: always the Python one.
EXECUTORS = ("compiled", "python") if compiled_available() else ("python",)

#: ``(capacity, carriers)`` pairs giving 1 to 4 page slots per cell.
SLOT_SPLITS = [(1, 1), (2, 1), (1, 2), (3, 1), (1, 3), (2, 2), (4, 1), (1, 4)]

ROUNDS = 30


@contextmanager
def _executing(executor):
    """Serve the block's rounds with one executor, switched as CI switches it."""
    with pytest.MonkeyPatch.context() as patch:
        if executor == "python":
            patch.setenv("REPRO_DISABLE_COMPILED", "1")
        yield


class _LoggedMetrics(LinkUsageMetrics):
    """Metrics that also log each call record and block, in order."""

    def __init__(self, log):
        super().__init__(contention=True)
        self.log = log

    def record_call(self, record):
        self.log.append(("record", record))
        super().record_call(record)

    def record_blocked_call(self, waited_steps):
        self.log.append(("blocked", waited_steps))
        super().record_blocked_call(waited_steps)


def _random_calls(rng, num_cells, devices):
    """1-40 calls: (arrival step, request, candidates, schedule, sizes)."""
    calls = []
    for _ in range(int(rng.integers(1, 41))):
        time = int(rng.integers(1, 8))
        # Now and then a call with nobody to find: it completes unpaged.
        size = 0 if rng.random() < 0.05 else int(rng.integers(1, min(5, devices) + 1))
        participants = tuple(sorted(rng.choice(devices, size=size, replace=False).tolist()))
        c = int(rng.integers(1, min(num_cells, 12) + 1))
        candidates = rng.choice(num_cells, size=c, replace=False).tolist()
        groups = int(rng.integers(1, min(c, 3) + 1))
        if rng.random() < 0.7:
            # A pager's plan: the candidates cut into groups, each ascending.
            order = rng.permutation(candidates).tolist()
            cuts = sorted(rng.choice(np.arange(1, c), size=groups - 1, replace=False).tolist())
            bounds = [0, *cuts, c]
            schedule = [
                cell for g in range(groups) for cell in sorted(order[bounds[g] : bounds[g + 1]])
            ]
            sizes = np.diff(bounds).tolist()
        else:
            # Groups of global cells, candidates or not, in any order.
            sizes = rng.integers(1, 6, size=groups).tolist()
            schedule = rng.integers(num_cells, size=sum(sizes)).tolist()
        request = ConferenceCallRequest(time=time, participants=participants)
        calls.append((time, request, candidates, schedule, sizes))
    return calls


def _scheduler(config, positions, log):
    metrics = _LoggedMetrics(log)
    injector = None
    if config["outages"] or config["recovery"] is not None:
        injector = FaultInjector(
            FaultModel(outages=config["outages"]), np.random.default_rng(0), metrics
        )
    return ChannelScheduler(
        metrics,
        num_cells=config["num_cells"],
        capacity=config["capacity"],
        carriers=config["carriers"],
        max_wait=config["max_wait"],
        device_cells=lambda: positions[0],
        on_found=lambda device, cell, time: log.append(("found", device, cell, time)),
        injector=injector,
        recovery=config["recovery"],
        on_complete=lambda call, time: log.append(
            ("complete", call.request, sorted(call.found_cells.items()), time)
        ),
    )


def _state(scheduler):
    arrays = scheduler._arrays
    return (
        arrays.rows[:],
        arrays.queue[: arrays.state.nqueue],
        [call._slot for call in scheduler._parked],
        list(scheduler._free),
    )


def _metrics(scheduler):
    metrics = scheduler._metrics
    return (
        metrics.summary(),
        list(metrics.channel_occupancy.items()),
        list(metrics.setup_latency_histogram.items()),
    )


def _handles(calls):
    return [
        (
            call.cells_paged,
            call.rounds_used,
            call.waited,
            call.retries_used,
            call.used_fallback,
            call.retry_at,
            call.phase_kinds,
            call.found_cells,
            call.remaining,
        )
        for call in calls
    ]


def _scenario(seed):
    """A seeded random scheduler set-up, its calls, and the positions' stream."""
    rng = np.random.default_rng(seed)
    num_cells = int(rng.integers(3, 62))
    capacity, carriers = SLOT_SPLITS[int(rng.integers(len(SLOT_SPLITS)))]
    devices = int(rng.integers(1, 31))
    outages = []
    for _ in range(int(rng.integers(0, 4))):
        start = int(rng.integers(0, 20))
        outages.append(
            CellOutage(int(rng.integers(num_cells)), start, start + int(rng.integers(0, 15)))
        )
    recovery = None
    if rng.random() < 0.6:
        recovery = RecoveryPolicy(
            max_retries=int(rng.integers(0, 3)), backoff_base=int(rng.integers(1, 4))
        )
    config = dict(
        num_cells=num_cells,
        capacity=capacity,
        carriers=carriers,
        max_wait=int(rng.integers(0, 6)),
        outages=tuple(outages),
        recovery=recovery,
    )
    return config, _random_calls(rng, num_cells, devices), rng, devices


def _run(seed, executors):
    """Serve every round of scenario ``seed`` on each executor.

    Yields after every round (and once more after the drain) the
    schedulers, their event logs and the call handles, by executor.
    """
    config, arrivals, rng, devices = _scenario(seed)
    positions = [None]
    logs = {executor: [] for executor in executors}
    schedulers = {
        executor: _scheduler(config, positions, logs[executor]) for executor in executors
    }
    handles = {executor: [] for executor in executors}
    for time in range(1, ROUNDS + 1):
        positions[0] = rng.integers(config["num_cells"], size=devices)
        for executor, scheduler in schedulers.items():
            for arrival, request, candidates, schedule, sizes in arrivals:
                if arrival == time:
                    call = PendingCall(request, candidates, schedule, sizes)
                    scheduler.admit(call)
                    handles[executor].append(call)
        for executor, scheduler in schedulers.items():
            with _executing(executor):
                scheduler.serve_round(time)
        yield schedulers, logs, handles
    for scheduler in schedulers.values():
        scheduler.drain(ROUNDS)
    yield schedulers, logs, handles


@pytest.mark.parametrize("seed", range(40))
def test_executors_agree_round_by_round(seed):
    reference, *others = EXECUTORS
    for schedulers, logs, handles in _run(seed, EXECUTORS):
        for executor in others:
            assert _state(schedulers[executor]) == _state(schedulers[reference])
            assert logs[executor] == logs[reference]
            assert _metrics(schedulers[executor]) == _metrics(schedulers[reference])
            assert _handles(handles[executor]) == _handles(handles[reference])
    for scheduler in schedulers.values():
        metrics = scheduler._metrics
        assert metrics.calls_handled + metrics.blocked_calls == metrics.offered_calls


def test_states_cover_every_path():
    """The random states stretch, defer, block, retry, sweep and degrade."""
    seen = set()
    for seed in range(40):
        *_, (schedulers, logs, _handles_) = _run(seed, ("python",))
        metrics = schedulers["python"]._metrics
        seen.update(
            name
            for name, count in (
                ("block", metrics.blocked_calls),
                ("defer", metrics.deferred_steps),
                ("retry", metrics.retry_rounds),
                ("sweep", metrics.fallback_searches),
                ("degrade", metrics.degraded_calls),
                ("stretch", sum(r.rounds_used > 3 for _, r in _records(logs["python"]))),
            )
            if count
        )
    assert seen == {"block", "defer", "retry", "sweep", "degrade", "stretch"}


def _records(log):
    return [entry for entry in log if entry[0] == "record"]
