"""Bandwidth-limited paging: at most ``b`` cells per round (Section 5).

Real systems bound how many base stations can page simultaneously.  The paper
observes that its machinery survives the cap: Lemma 4.6 still yields an
approximate strategy in the restricted family, and the Lemma 4.7 dynamic
program simply restricts the range of the split variable ``x``.  The capped
planners are therefore the uncapped ones with ``max_group_size=b``: the
``heuristic`` and ``exact`` registry entries.  This module holds the
feasibility arithmetic of the cap.
"""

from __future__ import annotations

import math

from ..errors import InfeasibleError


def minimum_rounds(num_cells: int, max_group_size: int) -> int:
    """Fewest rounds that can cover ``c`` cells at ``b`` cells per round."""
    if max_group_size < 1:
        raise InfeasibleError("max_group_size must be at least 1")
    return math.ceil(num_cells / max_group_size)


def is_feasible(num_cells: int, num_rounds: int, max_group_size: int) -> bool:
    """Whether some strategy of length ``d`` obeys the per-round cap ``b``."""
    return (
        max_group_size >= 1
        and 1 <= num_rounds <= num_cells
        and num_rounds * max_group_size >= num_cells
    )
