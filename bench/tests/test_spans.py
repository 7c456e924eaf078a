"""Self-time arithmetic, wrapper-cost correction and hook hygiene."""

import pytest

import spans
from layers import HOOKS
from spans import Hook, Tracer, WrapperCost, calibrate, cutting, expand, installed


class Job:
    """Stand-ins for a unit of work and a finer step inside it."""

    def unit(self, n):
        return sum(self.step(i) for i in range(n))

    def step(self, i):
        return i


class FakeClock:
    """A clock that moves only when a test says so."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _nested(monkeypatch, cost: WrapperCost):
    clock = FakeClock()
    monkeypatch.setattr(spans, "CLOCK", clock)
    tracer = Tracer("root", cost)
    leaf = tracer.wrap("leaf", "m:leaf", lambda: clock.advance(1.0))

    def middle() -> None:
        clock.advance(0.5)
        leaf()
        leaf()
        clock.advance(0.25)

    wrapped_middle = tracer.wrap("middle", "m:middle", middle)

    def root() -> None:
        wrapped_middle()
        clock.advance(0.125)

    tracer.run(root)
    return tracer


def test_self_time_is_duration_minus_children(monkeypatch):
    tracer = _nested(monkeypatch, WrapperCost())
    totals = tracer.layer_totals()
    assert totals["leaf"] == {"calls": 2, "self_s": 2.0}
    assert totals["middle"] == {"calls": 1, "self_s": 0.75}
    assert totals["root"]["self_s"] == pytest.approx(0.125)
    assert tracer.root_s == pytest.approx(2.875)
    assert sum(entry["self_s"] for entry in totals.values()) == pytest.approx(tracer.root_s)
    assert tracer.edges[("middle", "leaf")][:2] == [2, 2.0]
    assert tracer.hook_calls == {"m:leaf": 2, "m:middle": 1}


def test_wrapper_cost_is_taken_from_the_right_spans(monkeypatch):
    cost = WrapperCost(inside_s=0.01, outside_s=0.02)
    tracer = _nested(monkeypatch, cost)
    totals = tracer.layer_totals()
    # inside cost comes off each span itself, outside cost off its parent
    assert totals["leaf"]["self_s"] == pytest.approx(2.0 - 2 * 0.01)
    assert totals["middle"]["self_s"] == pytest.approx(0.75 - 0.01 - 2 * 0.02)
    assert totals["root"]["self_s"] == pytest.approx(0.125 - 0.02)
    spent = 3 * cost.total_s
    assert sum(e["self_s"] for e in totals.values()) == pytest.approx(tracer.root_s - spent)


def test_observer_time_is_excluded(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(spans, "CLOCK", clock)
    tracer = Tracer("root")

    def observe(tracer_, args, kwargs):
        tracer_.counters["seen"] += args[0]
        clock.advance(5.0)

    work = tracer.wrap("work", "m:work", lambda n: clock.advance(n), observe)
    tracer.run(lambda: work(1.0))
    totals = tracer.layer_totals()
    assert tracer.counters["seen"] == 1.0
    assert totals["work"]["self_s"] == 1.0
    assert totals["root"]["self_s"] == pytest.approx(0.0)


def test_calibration_is_small_and_consistent():
    cost = calibrate(trials=3, calls=5_000)
    assert 0.0 <= cost.inside_s <= cost.total_s
    assert cost.total_s < 1e-4


def test_hooks_are_restored_by_identity_even_on_error():
    resolved, missing = expand(HOOKS)
    assert not missing
    before = {(id(owner), name): vars(owner)[name] for _, owner, name in resolved}
    tracer = Tracer("root")
    with pytest.raises(RuntimeError):
        with installed(tracer, HOOKS) as (hooked, _):
            assert len(hooked) == len(resolved)
            assert all(
                vars(owner)[name] is not before[(id(owner), name)]
                for _, owner, name in resolved
            )
            raise RuntimeError("boom")
    assert all(
        vars(owner)[name] is before[(id(owner), name)] for _, owner, name in resolved
    )


def test_cutting_records_each_call_start_and_restores_the_originals(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(spans, "CLOCK", clock)
    before = (vars(Job)["unit"], vars(Job)["step"])
    probes = [(__name__, "Job.unit"), (__name__, "Job.step"), (__name__, "Job.gone")]
    with cutting(probes) as cuts:
        job = Job()
        for n in (2, 1):
            clock.advance(1.0)
            job.unit(n)
    # unit, step, step, then unit, step: units start at calls 0 and 3
    assert cuts.times == [1.0, 1.0, 1.0, 2.0, 2.0]
    assert cuts.unit_index == [0, 3]
    assert cuts.results == [1, 0]
    assert (vars(Job)["unit"], vars(Job)["step"]) == before
    with pytest.raises(LookupError, match="Job.gone"):
        with cutting([(__name__, "Job.gone")]):
            pass


def test_renamed_entry_point_is_reported_missing():
    hooks = (
        Hook("cellnet.engine.scheduler", "repro.cellnet.engine", "ChannelScheduler.admit"),
        Hook("cellnet.engine.scheduler", "repro.cellnet.engine", "ChannelScheduler.gone"),
        Hook("nowhere", "repro.no_such_module", "f"),
    )
    resolved, missing = expand(hooks)
    assert [hook.id for hook, _, _ in resolved] == ["repro.cellnet.engine:ChannelScheduler.admit"]
    assert missing == [
        "repro.cellnet.engine:ChannelScheduler.gone",
        "repro.no_such_module:f",
    ]


def test_wildcard_skips_functions_hooked_earlier():
    resolved, _ = expand(HOOKS)
    ids = [hook.id for hook, _, _ in resolved]
    assert ids.count("repro.cellnet.metrics:LinkUsageMetrics.record_call") == 1
    assert "repro.cellnet.metrics:LinkUsageMetrics.record_occupancy" in ids
