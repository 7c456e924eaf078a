"""Golden pin for E28, the time-varying experiment.

E28 replays one seeded workload under uniform, online and conditional
priors, then runs the Hajek–Mitzel–Yang fixed point for the timer and the
distance policy.  Both digests were recorded before the conditional priors
of ``evaluate_registration`` were planned as stacked arrays, so they show
that the change moved no cost.

``RENDERED`` hashes the table as ``repro experiments E28`` prints it.
``ROWS`` hashes ``repr`` of the raw rows, so a cost that moves only in the
last bit (below the four printed digits) breaks it too.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.experiments import run_e28_timevary

RENDERED = "0741e2c8e304896d3670966b3962253e2916f41e6922da39cf0c769d1c8ffbf8"
ROWS = "0d2eb9c9a812d28d179cb9476c834b28064a9780d4a5f909f5fceb5c3ad7c0e4"


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def tables():
    """E28 once per planner backend, shared by both digests."""
    return {}


def _table(tables, backend):
    if backend not in tables:
        tables[backend] = run_e28_timevary()
    return tables[backend]


def test_rendered_table(backend, tables):
    assert _digest(_table(tables, backend).render()) == RENDERED


def test_raw_rows(backend, tables):
    assert _digest(repr(_table(tables, backend).rows)) == ROWS
