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


def test_corrupted_run_leaves_the_cached_catalog_intact():
    clean = payload(properties.run_suite(7, 5))
    corrupted = properties.run_suite(7, 5, corrupt_mask=True)
    failed = [r for r in corrupted if not r.passed]
    assert [r.name for r in failed] == ["mask_involution"]
    assert failed[0].detail == "total_reflection[1,2,3]~corrupt failed to invert total_reflection[1,2,3]"
    assert payload(properties.run_suite(7, 5)) == clean


def test_run_stops_at_the_first_violation():
    rho = states.random_density(2, "mixed_dirichlet", 0)
    calls = []

    def trial(rng, k):
        calls.append(k)
        return properties._within(0.5 if k == 2 else 0.1, 0.25, rho, "gap over bound")

    result = properties._run("demo", trial, np.random.default_rng(0), 10)
    assert calls == [0, 1, 2]
    assert result.passed is False
    assert result.trials == 10
    assert result.worst == 0.5
    assert result.detail == "gap over bound"
    assert result.counterexample == io.state_to_dict(rho)


def test_run_reports_the_largest_deviation_when_all_pass():
    result = properties._run("demo", lambda rng, k: properties._within(k / 10, 1.0, None, ""), None, 4)
    assert (result.passed, result.trials, result.worst) == (True, 4, 0.3)


def test_nan_gap_fails():
    result = properties._run("demo", lambda rng, k: properties._within(float("nan"), 1.0, None, "nan"), None, 2)
    assert not result.passed and result.detail == "nan" and result.counterexample is None


def test_partial_reflection_norm_guards_against_a_map_that_moves_nothing(monkeypatch):
    monkeypatch.setattr(reflections, "mask_total_reflection", lambda n, subset=None: reflections.mask_identity(n))
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
