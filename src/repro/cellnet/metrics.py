"""Wireless-link usage accounting.

The paper's efficiency measure is usage of wireless links: uplink location
updates plus downlink paging messages.  :class:`LinkUsageMetrics` counts
both, broken down per call, so the end-to-end experiment can reproduce the
reporting/paging trade-off curve of Section 1.1.

Under the contention engine (:mod:`repro.cellnet.engine`) the same object
also carries the heavy-traffic outputs: offered vs blocked calls (blocking
probability), per-call setup-latency percentiles, and the per-cell channel
occupancy histogram.  Those keys appear in :meth:`LinkUsageMetrics.summary`
only when contention accounting is active (``contention=True``), so every
legacy configuration's summary stays byte-identical to the pre-engine
simulator.

Long runs can opt out of the unbounded per-call record list with
``record_calls=False``: every aggregate counter — and therefore
``summary()`` — stays exact, only the ``call_records`` detail is dropped
(``tests/cellnet/test_calls_metrics.py`` pins the equality).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence


@dataclass
class CallRecord:
    """Per-call search accounting."""

    time: int
    participants: int
    cells_paged: int
    rounds_used: int
    used_fallback: bool
    #: participants the search gave up on (0 outside fault injection)
    failed_devices: int = 0
    #: re-page retry rounds spent by the recovery policy
    retries: int = 0
    #: steps from arrival to completion (0 in the synchronous legacy path)
    setup_latency: int = 0


def _percentile_from_histogram(histogram: Dict[int, int], q: float) -> float:
    """Nearest-rank percentile over an integer-valued histogram."""
    total = sum(histogram.values())
    if total == 0:
        return 0.0
    rank = max(1, int(-(-q * total // 100)))  # ceil(q/100 * total)
    seen = 0
    for value in sorted(histogram):
        seen += histogram[value]
        if seen >= rank:
            return float(value)
    return float(max(histogram))


@dataclass
class LinkUsageMetrics:
    """Aggregated wireless-link usage over a simulation run."""

    report_messages: int = 0
    registration_messages: int = 0
    cells_paged: int = 0
    calls_handled: int = 0
    fallback_searches: int = 0
    #: calls that proceeded without at least one participant (fault injection)
    degraded_calls: int = 0
    #: total participants given up on across all degraded calls
    failed_device_count: int = 0
    #: re-page retry rounds spent by the recovery policy
    retry_rounds: int = 0
    #: downlink paging messages lost to injected faults
    pages_lost: int = 0
    #: uplink location updates lost to injected faults
    updates_lost: int = 0
    #: pages blocked because the target cell was in a scheduled outage
    outage_pages: int = 0
    #: registry lookups whose confirmed fix had aged past the staleness window
    stale_lookups: int = 0
    rounds_histogram: Dict[int, int] = field(default_factory=dict)
    call_records: List[CallRecord] = field(default_factory=list)
    #: keep the per-call record list (False: aggregates only, bounded memory)
    record_calls: bool = True
    #: contention accounting active (the engine's finite-capacity mode)
    contention: bool = False
    #: calls admitted to the shared channels (the blocking denominator)
    offered_calls: int = 0
    #: calls dropped after starving longer than the wait budget
    blocked_calls: int = 0
    #: call-steps in which a pending call acquired no slot at all
    deferred_steps: int = 0
    #: setup latency (steps from arrival to completion) -> completed calls
    setup_latency_histogram: Dict[int, int] = field(default_factory=dict)
    #: page slots used on one cell in one round -> cell-round occurrences
    channel_occupancy: Dict[int, int] = field(default_factory=dict)

    def record_report(self, count: int = 1) -> None:
        """``count`` uplink location updates sent (one step's reporters)."""
        self.report_messages += int(count)

    def record_registration(self) -> None:
        self.registration_messages += 1

    def record_call(self, record: CallRecord) -> None:
        self.calls_handled += 1
        self.cells_paged += record.cells_paged
        if record.used_fallback:
            self.fallback_searches += 1
        if record.failed_devices:
            self.degraded_calls += 1
            self.failed_device_count += record.failed_devices
        self.retry_rounds += record.retries
        self.rounds_histogram[record.rounds_used] = (
            self.rounds_histogram.get(record.rounds_used, 0) + 1
        )
        latency = int(record.setup_latency)
        self.setup_latency_histogram[latency] = (
            self.setup_latency_histogram.get(latency, 0) + 1
        )
        if self.record_calls:
            self.call_records.append(record)

    # -- fault accounting (driven by cellnet.faults.FaultInjector) ------
    def record_page_lost(self) -> None:
        self.pages_lost += 1

    def record_update_lost(self) -> None:
        self.updates_lost += 1

    def record_outage_page(self) -> None:
        self.outage_pages += 1

    def record_stale_lookup(self) -> None:
        self.stale_lookups += 1

    # -- contention accounting (driven by cellnet.engine) ---------------
    def record_offered_call(self) -> None:
        self.offered_calls += 1

    def record_blocked_call(self, waited_steps: int) -> None:
        self.blocked_calls += 1

    def record_deferred_step(self, count: int = 1) -> None:
        """``count`` call-steps that took no slot (one round's deferrals)."""
        self.deferred_steps += count

    def record_occupancy(
        self, slots_used: Sequence[int], cells: Optional[Sequence[int]] = None
    ) -> None:
        """Fold one round's per-cell slot usage into the histogram.

        One counting pass over the round; new keys enter the histogram in
        the order they first appear in ``slots_used``, as a per-cell loop
        would insert them.  With ``cells`` the round comes folded already:
        ``cells[k]`` cells used ``slots_used[k]`` slots, the distinct
        counts in the order they first appear.
        """
        occupancy = self.channel_occupancy
        folded = Counter(slots_used).items() if cells is None else zip(slots_used, cells)
        for used, count in folded:
            key = int(used)
            occupancy[key] = occupancy.get(key, 0) + count

    # ------------------------------------------------------------------
    @property
    def total_wireless_messages(self) -> int:
        """Uplink reports plus downlink pages — the paper's cost measure."""
        return self.report_messages + self.cells_paged

    @property
    def mean_cells_per_call(self) -> float:
        if self.calls_handled == 0:
            return 0.0
        return self.cells_paged / self.calls_handled

    @property
    def mean_rounds_per_call(self) -> float:
        if self.calls_handled == 0:
            return 0.0
        total = sum(rounds * count for rounds, count in self.rounds_histogram.items())
        return total / self.calls_handled

    @property
    def blocking_probability(self) -> float:
        """Blocked calls over offered calls (0 when nothing was offered)."""
        if self.offered_calls == 0:
            return 0.0
        return self.blocked_calls / self.offered_calls

    def setup_latency_percentile(self, q: float) -> float:
        """Nearest-rank percentile of completed calls' setup latencies."""
        return _percentile_from_histogram(self.setup_latency_histogram, q)

    @property
    def mean_channel_occupancy(self) -> float:
        """Mean page slots used per cell per round (contention mode)."""
        total = sum(self.channel_occupancy.values())
        if total == 0:
            return 0.0
        used = sum(slots * count for slots, count in self.channel_occupancy.items())
        return used / total

    def summary(self) -> Dict[str, float]:
        """A flat dict for tables and benchmark output.

        Contention keys are appended only when contention accounting is
        active, so legacy summaries stay byte-identical to the pre-engine
        simulator's output.
        """
        out = {
            "calls": float(self.calls_handled),
            "reports": float(self.report_messages),
            "cells_paged": float(self.cells_paged),
            "mean_cells_per_call": self.mean_cells_per_call,
            "mean_rounds_per_call": self.mean_rounds_per_call,
            "fallbacks": float(self.fallback_searches),
            "total_wireless": float(self.total_wireless_messages),
            "degraded_calls": float(self.degraded_calls),
            "failed_devices": float(self.failed_device_count),
            "retry_rounds": float(self.retry_rounds),
            "pages_lost": float(self.pages_lost),
            "updates_lost": float(self.updates_lost),
            "outage_pages": float(self.outage_pages),
            "stale_lookups": float(self.stale_lookups),
        }
        if self.contention:
            out["offered_calls"] = float(self.offered_calls)
            out["blocked_calls"] = float(self.blocked_calls)
            out["blocking_probability"] = self.blocking_probability
            out["deferred_steps"] = float(self.deferred_steps)
            out["setup_latency_p50"] = self.setup_latency_percentile(50)
            out["setup_latency_p95"] = self.setup_latency_percentile(95)
            out["setup_latency_p99"] = self.setup_latency_percentile(99)
            out["mean_channel_occupancy"] = self.mean_channel_occupancy
        return out
