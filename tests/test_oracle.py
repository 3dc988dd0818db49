"""The decision oracle: the fixed sweep of ``oracle_record.py`` must make the
decisions it recorded.

Actions and each ledger row's ``t``, ``outcome``, ``a`` and ``a_prime`` must
be equal, and its ``eps``, ``l2``, ``orig_*`` and ``pert_*`` equal to a
relative 1e-12, so arithmetic that only moves the last bits passes. A step
may differ only where the recording shows a top-two Q gap below 1e-12 there,
a tie that rounding may break either way; the rest of that run then follows
another path and is not compared.
"""

import json
import math

import pytest

import oracle_record

TIE = 1e-12
EXACT = 4  # t, outcome, a, a_prime; then eps and l2, then the orig and pert tuples


@pytest.fixture(scope="module")
def recorded():
    with open(oracle_record.RECORDING, encoding="utf-8") as handle:
        recording = json.load(handle)
    assert recording["columns"] == oracle_record.COLUMNS
    return recording["runs"]


@pytest.fixture(scope="module")
def played():
    return oracle_record.play()


def close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=TIE, abs_tol=0.0)


def floats(row) -> list:
    """A ledger row's eps, l2 and tuple entries; None where the row has none."""
    eps, l2, orig, pert = row[EXACT:]
    return [eps, l2, *orig, *(pert or [None] * len(orig))]


def rows_match(expected, actual) -> bool:
    want, got = floats(expected), floats(actual)
    return expected[:EXACT] == actual[:EXACT] and len(want) == len(got) and \
        all(map(close, want, got))


def first_difference(expected, actions, rows):
    """The first step at which ``actions`` or ``rows`` differ from the
    recording, or None."""
    want_rows = {row[0]: row for row in expected["ledger"]}
    got_rows = {row[0]: row for row in rows}
    steps = max(len(expected["actions"]), len(actions))
    for t in range(steps):
        want, got = want_rows.get(t), got_rows.get(t)
        if expected["actions"][t:t + 1] != actions[t:t + 1] or (want is None) != (got is None) \
                or (want is not None and not rows_match(want, got)):
            return t
    return None


def test_the_sweep_covers_every_attack_and_outcome(recorded):
    assert sorted(recorded) == sorted(run_id for run_id, *_ in oracle_record.runs())
    outcomes = {row[1] for run in recorded.values() for row in run["ledger"]}
    assert outcomes >= {"success", "non_target", "failure", "ncn", "delay"}
    assert all(len(run["gaps"]) == len(run["actions"]) for run in recorded.values())


def test_decisions_match_the_recording(recorded, played):
    assert sorted(played) == sorted(recorded)
    for run_id, (actions, rows) in played.items():
        t = first_difference(recorded[run_id], actions, rows)
        if t is not None:
            gaps = recorded[run_id]["gaps"]
            assert t < len(gaps) and gaps[t] < TIE, \
                f"{run_id} step {t}: the decision changed where the top-two Q gap is " \
                f"{gaps[t] if t < len(gaps) else 'unknown'}"


def test_a_moved_decision_away_from_a_tie_fails(recorded):
    run_id = next(r for r, run in recorded.items() if run["ledger"] and
                  run["ledger"][0][1] == "failure")
    expected = recorded[run_id]
    rows = [list(row) for row in expected["ledger"]]
    rows[0][5] = rows[0][5] * (1 + 1e-9)  # l2 off by more than the tolerance
    assert first_difference(expected, expected["actions"], rows) == 0
    assert expected["gaps"][0] >= TIE
    assert first_difference(expected, expected["actions"], expected["ledger"]) is None
