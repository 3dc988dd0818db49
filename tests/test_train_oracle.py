"""The training oracle: the fixed set of ``train_oracle_record.py`` must learn
what it recorded, up to the last bits.

Actions must be equal, and the sampled TD losses and every final parameter
equal to a relative 1e-9 (a parameter recorded as 0.0 must stay 0.0). A step
may differ only where the recording shows a greedy step with a top-two Q gap
below 1e-12, a tie that rounding may break either way; the run then follows
another path, so nothing from that step on is compared. Perturbing every
update's gradient by a relative 1e-12 moved the parameters of this set by at
most 8e-11 and no action; by 1e-9, by up to 8e-8, which fails.
"""

import json
import math

import pytest

import train_oracle_record

TIE = 1e-12
REL = 1e-9


@pytest.fixture(scope="module")
def recorded():
    with open(train_oracle_record.RECORDING, encoding="utf-8") as handle:
        recording = json.load(handle)
    assert recording["steps"] == train_oracle_record.STEPS
    assert set(recording["runs"]) == set(train_oracle_record.RUNS)
    return recording["runs"]


def close(a, b) -> bool:
    return math.isclose(a, b, rel_tol=REL, abs_tol=0.0)


def first_tie(gaps):
    """The first step whose greedy Q was a tie within rounding, or None."""
    return next((t for t, gap in enumerate(gaps) if gap is not None and gap < TIE), None)


@pytest.mark.parametrize("run_id", sorted(train_oracle_record.RUNS))
def test_training_matches_recording(recorded, run_id):
    expected = recorded[run_id]
    net, trace = train_oracle_record.train_run(run_id)
    cut = first_tie(expected["gaps"])
    steps = len(expected["actions"]) if cut is None else cut
    actions = [int(row[2]) for row in trace.rows]
    assert len(actions) == len(expected["actions"])
    first = next((t for t in range(steps) if actions[t] != expected["actions"][t]), None)
    assert first is None, f"{run_id}: step {first + 1} acted {actions[first]}, " \
                          f"recorded {expected['actions'][first]}"
    losses = train_oracle_record.sampled_losses(trace)
    for (t, want), (got_t, got) in zip(expected["losses"], losses):
        if t > steps:
            break
        assert got_t == t and close(got, want), f"{run_id}: loss at step {t} {got!r}, " \
                                                f"recorded {want!r}"
    if cut is None:
        assert len(losses) == len(expected["losses"])
        params = [float(p) for p in net.params]
        assert len(params) == len(expected["params"])
        bad = [i for i, (got, want) in enumerate(zip(params, expected["params"]))
               if not close(got, want)]
        assert not bad, f"{run_id}: {len(bad)} parameters off by more than {REL}, " \
                        f"first {bad[0]}: {params[bad[0]]!r}, recorded {expected['params'][bad[0]]!r}"


def test_recording_compares_every_step(recorded):
    # a recorded tie would end the comparison early; the set has none
    assert all(first_tie(run["gaps"]) is None for run in recorded.values())
