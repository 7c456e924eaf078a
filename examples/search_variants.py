"""The Section 5 search variants on one realistic scenario.

A dispatcher must reach field staff whose location profiles are hotspot-
shaped.  Depending on the task, the system needs:

* everyone on a call      -> Conference Call (find all m),
* any one responder       -> Yellow Pages (find 1 of m),
* a signing quorum of k   -> Signature problem (find k of m),

and may be bandwidth-capped or allowed to adapt between rounds.  This example
plans all of them on the same instance and prints the cost ladder.

Run:  python examples/search_variants.py
"""

import numpy as np

from repro.core import (
    adaptive_expected_paging,
    conference_call_heuristic,
    signature_heuristic,
    yellow_pages_greedy,
    yellow_pages_m_approximation,
)
from repro.distributions import hotspot_instance


def main() -> None:
    rng = np.random.default_rng(55)
    m, c, d = 4, 12, 3
    instance = hotspot_instance(m, c, d, rng=rng, home_mass=0.5)
    print(f"scenario: {m} field staff, {c} cells, delay budget {d} rounds\n")

    conference = conference_call_heuristic(instance)
    print(f"conference call (all {m}):     EP = "
          f"{float(conference.expected_paging):6.3f}  groups {conference.group_sizes}")

    adaptive = adaptive_expected_paging(instance)
    print(f"  adaptive replanning:         EP = {float(adaptive):6.3f}")

    for cap in (6, 4):
        capped = conference_call_heuristic(instance, max_group_size=cap)
        print(f"  bandwidth cap b={cap}:          EP = "
              f"{float(capped.expected_paging):6.3f}  groups {capped.group_sizes}")

    print()
    for quorum in range(m, 0, -1):
        plan = signature_heuristic(instance, quorum)
        label = {m: "= conference", 1: "= yellow pages"}.get(quorum, "")
        print(f"signature quorum k={quorum}:         EP = "
              f"{float(plan.expected_paging):6.3f}  {label}")

    print()
    greedy = yellow_pages_greedy(instance)
    single = yellow_pages_m_approximation(instance)
    print(f"yellow pages, hit-prob order:  EP = {float(greedy.expected_paging):6.3f}")
    print(f"yellow pages, m-approx order:  EP = {float(single.expected_paging):6.3f}")
    print("\nLower quorums stop earlier and page fewer cells; adaptivity and")
    print("looser bandwidth caps buy further savings within the same delay.")


if __name__ == "__main__":
    main()
