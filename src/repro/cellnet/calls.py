"""Call arrival processes: what triggers a search.

Conference-call requests arrive over time and name the set of devices that
must be located before the call can be set up (the paper's motivating
operation).  :class:`PoissonConferenceCalls` supports two per-step arrival
modes with a configurable party-size distribution:

* ``mode="bernoulli"`` (default) — at most one arrival per step with
  probability ``rate``: the discrete-time Poisson analogue the simulator
  has always used, kept draw-for-draw identical for reproducibility.
* ``mode="poisson"`` — a true Poisson(``rate``) *count* of arrivals per
  step, so offered load is not silently capped at one call per step and
  ``rate`` may exceed 1.  This is the heavy-traffic mode the contention
  engine's blocking-probability experiments (E29) drive.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import SimulationError


@dataclass(frozen=True)
class ConferenceCallRequest:
    """One conference-call setup request."""

    time: int
    participants: Tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.participants)


#: Supported per-step arrival modes.
ARRIVAL_MODES = ("bernoulli", "poisson")


class PoissonConferenceCalls:
    """Per-step arrivals of conference calls (Bernoulli or true Poisson).

    Parameters
    ----------
    rate:
        In ``bernoulli`` mode, the probability of an arrival in each time
        step (``0 <= rate <= 1``).  In ``poisson`` mode, the mean number
        of arrivals per step (any finite ``rate >= 0`` — offered load
        above one call per step is the point of the mode).
    num_devices:
        Pool of devices participants are drawn from.
    size_weights:
        Unnormalized weights over party sizes ``2..len(weights)+1``; defaults
        to mostly 2-3 party calls with an occasional larger conference.
    mode:
        ``"bernoulli"`` (default, at most one arrival per step — every
        historic rng stream is preserved) or ``"poisson"`` (a seeded
        Poisson count of arrivals per step, drawn via :meth:`arrivals`).
    """

    def __init__(
        self,
        rate: float,
        num_devices: int,
        *,
        size_weights: Optional[Sequence[float]] = None,
        mode: str = "bernoulli",
    ) -> None:
        if mode not in ARRIVAL_MODES:
            raise SimulationError(
                f"unknown arrival mode {mode!r}; choose from {ARRIVAL_MODES}"
            )
        if mode == "bernoulli":
            if not 0.0 <= rate <= 1.0:
                raise SimulationError("rate must lie in [0, 1]")
        elif not (math.isfinite(rate) and rate >= 0.0):
            raise SimulationError("poisson rate must be finite and non-negative")
        if num_devices < 2:
            raise SimulationError("conference calls need at least 2 devices")
        self.mode = mode
        if size_weights is None:
            size_weights = (0.5, 0.3, 0.15, 0.05)
        weights = np.asarray(list(size_weights), dtype=float)
        if np.any(weights < 0) or weights.sum() <= 0:
            raise SimulationError("size_weights must be non-negative, not all zero")
        max_size = min(len(weights) + 1, num_devices)
        weights = weights[: max_size - 1]
        self._rate = rate
        self._num_devices = num_devices
        self._sizes = list(range(2, max_size + 1))
        # The CDF exactly as ``Generator.choice(sizes, p=...)`` builds it, so
        # one ``random()`` through it replays that call draw for draw.  Held
        # as Python floats: ``bisect_right`` on them makes the comparisons
        # ``searchsorted(side="right")`` makes, without the array call.
        cdf = np.cumsum(weights / weights.sum())
        cdf /= cdf[-1]
        self._size_cdf: List[float] = cdf.tolist()

    def _draw_request(
        self, time: int, rng: np.random.Generator
    ) -> ConferenceCallRequest:
        size = self._sizes[bisect_right(self._size_cdf, rng.random())]
        participants = tuple(
            sorted(rng.choice(self._num_devices, size=size, replace=False).tolist())
        )
        return ConferenceCallRequest(time=time, participants=participants)

    def maybe_arrival(
        self, time: int, rng: np.random.Generator
    ) -> Optional[ConferenceCallRequest]:
        """An arrival this step, or ``None`` (Bernoulli mode only).

        This is the legacy single-arrival entry point; its draw sequence
        (one uniform, then the party draws) is pinned by the simulator's
        bit-identity suite and must never change.
        """
        if self.mode != "bernoulli":
            raise SimulationError(
                "maybe_arrival is the Bernoulli entry point; "
                "poisson mode draws through arrivals()"
            )
        if rng.random() >= self._rate:
            return None
        return self._draw_request(time, rng)

    def arrivals(
        self, time: int, rng: np.random.Generator
    ) -> List[ConferenceCallRequest]:
        """Every arrival this step (0, 1, or — in poisson mode — many).

        In ``bernoulli`` mode this wraps :meth:`maybe_arrival` with the
        exact same draws, so switching call sites to ``arrivals()`` keeps
        historic rng streams intact.
        """
        if self.mode == "bernoulli":
            request = self.maybe_arrival(time, rng)
            return [] if request is None else [request]
        count = int(rng.poisson(self._rate))
        return [self._draw_request(time, rng) for _ in range(count)]

    def sample_schedule(
        self, horizon: int, rng: np.random.Generator
    ) -> List[ConferenceCallRequest]:
        """All arrivals over ``horizon`` steps (for replay-style experiments)."""
        out = []
        for time in range(horizon):
            out.extend(self.arrivals(time, rng))
        return out
