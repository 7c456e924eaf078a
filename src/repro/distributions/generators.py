"""Synthetic location-probability distributions.

The paper models each mobile device as a probability vector over the cells of
a location area and cites profile-based estimation work [15, 16] for where
those vectors come from.  This module supplies the synthetic families used by
the experiments: uniform, Zipf-like, geometric, Dirichlet, hotspot (a home
cell plus decaying neighborhood), and two-tier home/roam mixtures — all
normalized, strictly positive unless asked otherwise, and reproducible via an
injected :class:`numpy.random.Generator`.
"""

from __future__ import annotations


import numpy as np

from ..core.instance import PagingInstance
from ..errors import InvalidInstanceError


def _normalize_rows(matrix: np.ndarray, floor: float) -> np.ndarray:
    if floor < 0:
        raise InvalidInstanceError("probability floor must be non-negative")
    matrix = np.asarray(matrix, dtype=float) + floor
    totals = matrix.sum(axis=1, keepdims=True)
    if np.any(totals <= 0):
        raise InvalidInstanceError("every row needs positive total mass")
    return matrix / totals


def uniform_instance(
    num_devices: int, num_cells: int, max_rounds: int
) -> PagingInstance:
    """All devices uniform over all cells."""
    return PagingInstance.uniform(num_devices, num_cells, max_rounds)


def dirichlet_instance(
    num_devices: int,
    num_cells: int,
    max_rounds: int,
    *,
    rng: np.random.Generator,
    concentration: float = 1.0,
) -> PagingInstance:
    """Rows drawn from a symmetric Dirichlet; low concentration = skewed."""
    if concentration <= 0:
        raise InvalidInstanceError("concentration must be positive")
    matrix = rng.dirichlet(np.full(num_cells, concentration), size=num_devices)
    return PagingInstance.from_array(_normalize_rows(matrix, 0.0), max_rounds)


def zipf_instance(
    num_devices: int,
    num_cells: int,
    max_rounds: int,
    *,
    rng: np.random.Generator,
    exponent: float = 1.0,
) -> PagingInstance:
    """Zipf-decaying cell popularity, independently permuted per device.

    Each device has its own favorite-cell ranking, producing the skewed but
    heterogeneous profiles that make the conference-call trade-off
    interesting (devices disagree on which cells are likely).
    """
    if exponent < 0:
        raise InvalidInstanceError("exponent must be non-negative")
    base = 1.0 / np.arange(1, num_cells + 1, dtype=float) ** exponent
    rows = []
    for _ in range(num_devices):
        ranking = rng.permutation(num_cells)
        row = np.empty(num_cells)
        row[ranking] = base
        rows.append(row)
    return PagingInstance.from_array(_normalize_rows(np.array(rows), 0.0), max_rounds)


def geometric_instance(
    num_devices: int,
    num_cells: int,
    max_rounds: int,
    *,
    rng: np.random.Generator,
    decay: float = 0.7,
) -> PagingInstance:
    """Geometrically decaying mass from a random per-device anchor cell."""
    if not 0 < decay < 1:
        raise InvalidInstanceError("decay must lie strictly between 0 and 1")
    rows = []
    for _ in range(num_devices):
        anchor = int(rng.integers(num_cells))
        distance = np.abs(np.arange(num_cells) - anchor)
        rows.append(decay**distance)
    return PagingInstance.from_array(_normalize_rows(np.array(rows), 0.0), max_rounds)


def hotspot_instance(
    num_devices: int,
    num_cells: int,
    max_rounds: int,
    *,
    rng: np.random.Generator,
    home_mass: float = 0.6,
    floor: float = 1e-6,
) -> PagingInstance:
    """A dominant home cell per device; the rest spread uniformly.

    The classic location-management profile: a commuter is most likely at
    home/work and rarely elsewhere.  ``floor`` keeps probabilities positive
    as the paper's model requires.
    """
    if not 0 < home_mass < 1:
        raise InvalidInstanceError("home_mass must lie strictly between 0 and 1")
    rows = []
    for _ in range(num_devices):
        row = np.full(num_cells, (1.0 - home_mass) / max(1, num_cells - 1))
        home = int(rng.integers(num_cells))
        row[home] = home_mass
        rows.append(row)
    return PagingInstance.from_array(_normalize_rows(np.array(rows), floor), max_rounds)


def two_tier_instance(
    num_devices: int,
    num_cells: int,
    max_rounds: int,
    *,
    rng: np.random.Generator,
    home_cells: int = 3,
    home_mass: float = 0.8,
    floor: float = 1e-6,
) -> PagingInstance:
    """Mass split between a small home zone and the roaming remainder.

    Mirrors the GSM location-area intuition: a device is usually inside a
    few registered cells and occasionally roaming anywhere else.
    """
    if not 1 <= home_cells <= num_cells:
        raise InvalidInstanceError("home_cells must lie between 1 and num_cells")
    rows = []
    for _ in range(num_devices):
        zone = rng.choice(num_cells, size=home_cells, replace=False)
        row = np.full(num_cells, (1.0 - home_mass) / num_cells)
        row[zone] += home_mass / home_cells
        rows.append(row)
    return PagingInstance.from_array(_normalize_rows(np.array(rows), floor), max_rounds)


def clustered_instance(
    num_devices: int,
    num_cells: int,
    max_rounds: int,
    *,
    rng: np.random.Generator,
    num_levels: int = 3,
) -> PagingInstance:
    """Cells share one of a few probability levels (the Section 5 subclass).

    Designed for the clustered exhaustive scheme (experiment E15): the
    probability values per device take at most ``num_levels`` distinct
    values, and cells are grouped so whole columns repeat.
    """
    if num_levels < 1:
        raise InvalidInstanceError("need at least one level")
    level_values = np.sort(rng.uniform(0.2, 1.0, size=num_levels))[::-1]
    column_levels = rng.integers(num_levels, size=num_cells)
    matrix = np.empty((num_devices, num_cells))
    for device in range(num_devices):
        # All devices share the column structure so columns cluster exactly.
        matrix[device] = level_values[column_levels] * (device + 1)
    return PagingInstance.from_array(_normalize_rows(matrix, 0.0), max_rounds)


def adversarial_instance(
    num_cells: int,
    max_rounds: int,
    *,
    rng: np.random.Generator,
    noise: float = 0.02,
) -> PagingInstance:
    """A randomized relative of the Section 4.3 lower-bound gadget.

    Two devices: one concentrates extra mass on a cell the other avoids, so
    the weight ordering is misled exactly as in the 320/317 example; noise
    varies the gadget across draws.
    """
    if num_cells < 4:
        raise InvalidInstanceError("the gadget needs at least 4 cells")
    c = num_cells
    device_one = np.full(c, 1.0 / c)
    device_two = np.full(c, 1.0 / c)
    heavy = int(rng.integers(c // 2))
    avoided = c - 1 - int(rng.integers(c // 4))
    device_one[heavy] += device_one[avoided]
    device_one[avoided] = 0.0
    device_two[heavy] = 0.0
    device_two += rng.uniform(0.0, noise, size=c)
    device_one += rng.uniform(0.0, noise, size=c)
    device_one[avoided] = 1e-9
    device_two[heavy] = 1e-9
    matrix = np.vstack([device_one, device_two])
    return PagingInstance.from_array(
        _normalize_rows(matrix, 0.0), max_rounds, allow_zero=True
    )


def instance_family(
    name: str,
    num_devices: int,
    num_cells: int,
    max_rounds: int,
    *,
    rng: np.random.Generator,
) -> PagingInstance:
    """Dispatch by family name — the experiments' single entry point."""
    factories = {
        "uniform": lambda: uniform_instance(num_devices, num_cells, max_rounds),
        "dirichlet": lambda: dirichlet_instance(
            num_devices, num_cells, max_rounds, rng=rng
        ),
        "skewed-dirichlet": lambda: dirichlet_instance(
            num_devices, num_cells, max_rounds, rng=rng, concentration=0.3
        ),
        "zipf": lambda: zipf_instance(num_devices, num_cells, max_rounds, rng=rng),
        "geometric": lambda: geometric_instance(
            num_devices, num_cells, max_rounds, rng=rng
        ),
        "hotspot": lambda: hotspot_instance(
            num_devices, num_cells, max_rounds, rng=rng
        ),
        "two-tier": lambda: two_tier_instance(
            num_devices, num_cells, max_rounds, rng=rng
        ),
        "clustered": lambda: clustered_instance(
            num_devices, num_cells, max_rounds, rng=rng
        ),
        "adversarial": lambda: adversarial_instance(num_cells, max_rounds, rng=rng),
    }
    if name not in factories:
        raise InvalidInstanceError(
            f"unknown family {name!r}; choose from {sorted(factories)}"
        )
    return factories[name]()


#: The family names accepted by :func:`instance_family`.
FAMILY_NAMES = (
    "uniform",
    "dirichlet",
    "skewed-dirichlet",
    "zipf",
    "geometric",
    "hotspot",
    "two-tier",
    "clustered",
    "adversarial",
)
