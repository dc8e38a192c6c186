"""The invariant driver: result fields, failure reports and the cached mask catalog."""

import inspect

import numpy as np
import pytest

from qreflect import io, properties, reflections, states


def payload(results):
    return [r.to_dict() for r in results]


@pytest.mark.parametrize("seed", [0, 3, 42])
def test_every_invariant_reports_requested_trials_and_non_negative_worst(seed):
    results = properties.run_suite(seed, 4)
    assert [r.name for r in results] == [name for name, _ in properties._CHECKS]
    for r in results:
        assert r.passed, r.to_dict()
        assert r.trials == 4, r.name
        assert r.worst >= 0, r.name


@pytest.mark.parametrize("trials", [True, 2.5, "3"], ids=["bool", "float", "string"])
def test_trial_counts_must_be_integers(trials):
    with pytest.raises(ValueError, match="trial counts must be integers"):
        properties.run_suite(42, trials)


def test_corrupted_run_leaves_the_cached_catalog_intact():
    clean = payload(properties.run_suite(7, 5))
    corrupted = properties.run_suite(7, 5, corrupt_mask=True)
    failed = [r for r in corrupted if not r.passed]
    assert [r.name for r in failed] == ["mask_involution"]
    assert failed[0].detail == "total_reflection[1,2,3]~corrupt failed to invert total_reflection[1,2,3]"
    assert payload(properties.run_suite(7, 5)) == clean


def test_run_stops_at_the_first_violation():
    rho = states.random_density(2, "mixed_dirichlet", 0)
    other = states.random_density(2, "mixed_dirichlet", 1)

    def invariant(rng, trials):
        gaps = np.full(trials, 0.1)
        gaps[[2, 5]] = 0.5, 0.9
        members = [rho if k == 2 else other for k in range(trials)]
        return [properties._within(gaps, 0.25, members, "gap over bound")]

    result = properties._run("demo", invariant, np.random.default_rng(0), 10)
    assert result.passed is False
    assert result.trials == 10
    assert result.worst == 0.5
    assert result.detail == "gap over bound"
    assert result.counterexample == io.state_to_dict(rho)


def test_the_earliest_trial_wins_across_qubit_count_groups():
    three = states.random_density(3, "mixed_dirichlet", 0, size=2)
    one = states.random_density(1, "mixed_dirichlet", 0, size=3)

    def invariant(rng, trials):
        # The n=3 group comes first in code order and holds the larger gap, at a later trial.
        return [
            properties._within([0.1, 0.9], 0.25, three, "n=3 over bound", np.array([1, 4])),
            properties._within([0.1, 0.5, 0.1], 0.25, one, "n=1 over bound", np.array([0, 2, 3])),
        ]

    result = properties._run("demo", invariant, None, 5)
    assert (result.passed, result.worst, result.detail) == (False, 0.5, "n=1 over bound")
    assert result.counterexample == io.state_to_dict(one[1])


def test_within_a_trial_the_first_check_in_code_order_wins():
    # Both checks first fail at trial 1; the second lists its trials in another order.
    checks = [
        properties._within([0.0, 0.3], 0.25, None, "first"),
        properties._within([0.9, 0.0], 0.25, None, "second", np.array([1, 0])),
    ]
    result = properties._run("demo", lambda rng, trials: checks, None, 2)
    assert (result.worst, result.detail) == (0.3, "first")
    result = properties._run("demo", lambda rng, trials: checks[::-1], None, 2)
    assert (result.worst, result.detail) == (0.9, "second")


def test_run_reports_the_largest_deviation_when_all_pass():
    def invariant(rng, trials):
        return [
            properties._within(np.arange(trials) / 10, 1.0, None, ""),
            properties._within(np.full(trials, 0.9), 1.0, None, "guard", counts=False),
        ]

    result = properties._run("demo", invariant, None, 4)
    assert (result.passed, result.trials, result.worst) == (True, 4, 0.3)


def test_nan_gap_fails():
    result = properties._run("demo", lambda rng, trials: [properties._within([0.0, np.nan], 1.0, None, "nan")], None, 2)
    assert not result.passed and result.detail == "nan" and result.counterexample is None


def test_partial_reflection_norm_guards_against_a_map_that_moves_nothing(monkeypatch):
    monkeypatch.setattr(reflections, "mask_total_reflection", lambda n, subset=None: reflections.SignMask(np.ones(4**n)))
    result = properties._run(
        "partial_reflection_norm", properties.partial_reflection_norm, np.random.default_rng(1), 5
    )
    assert not result.passed
    assert result.detail == "no spectrum change observed"
    assert result.counterexample["n"] == 3


def test_every_invariant_is_a_public_plain_function():
    # run_suite calls the functions listed here, so wrapping them by identity times each trial
    for name, fn in properties._CHECKS:
        assert getattr(properties, name) is fn
        assert inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn)
