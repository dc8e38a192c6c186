"""The invariant driver: result fields, failure reports and the cached mask catalog."""

import functools
import inspect
import re

import numpy as np
import pytest

from qreflect import io, properties, reflections, states, stokes


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


@pytest.mark.parametrize(
    "seed, message",
    [
        (True, "seeds must be integers, got True"),
        (None, "seeds must be integers, got None"),
        (1.5, "seeds must be integers, got 1.5"),
        ("3", "seeds must be integers, got '3'"),
        # a one-entry array has __index__ but is no integer
        (np.array([3]), "seeds must be integers, got array([3])"),
        (-1, "seeds must be at least 0, got -1"),
    ],
)
def test_a_seed_that_is_not_an_integer_at_least_0_is_refused_before_any_draw(seed, message, monkeypatch):
    # a bool would run as seed 0 or 1, and None on fresh entropy: neither is reproducible from the call. The suite
    # draws every invariant's inputs before it runs any, so both steps fail if reached.
    drew = lambda *args, **kwargs: pytest.fail("drew before checking the seed")  # noqa: E731
    monkeypatch.setattr(properties, "_DRAWS", dict.fromkeys(properties._DRAWS, drew))
    monkeypatch.setattr(properties, "_run", drew)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        properties.run_suite(seed, 2)


@pytest.mark.parametrize("corrupt_mask", [False, True], ids=["clean", "corrupt"])
@pytest.mark.parametrize("seed, trials", [(0, 1), (7, 2), (3, 8), (42, 25)])
def test_the_suite_reports_what_each_invariant_reports_alone(seed, trials, corrupt_mask):
    # run_suite draws every invariant's inputs and builds all their states together; an invariant run alone draws
    # and builds its own from the same substream, so each state must keep its bits and each draw its place.
    children = np.random.SeedSequence(seed).spawn(len(properties._CHECKS))
    alone = []
    for (name, fn), child in zip(properties._CHECKS, children):
        if corrupt_mask and name == "mask_involution":
            fn = functools.partial(fn, corrupt_mask=True)
        alone.append(properties._run(name, fn, np.random.default_rng(child), trials).to_dict())
    assert payload(properties.run_suite(seed, trials, corrupt_mask)) == alone


def test_the_suite_builds_every_state_of_a_run_in_one_call(monkeypatch):
    draws, sizes = [], []
    draw, build = states._draw_density, states._build_densities
    monkeypatch.setattr(states, "_draw_density", lambda *args, **kwargs: draws.append(draw(*args, **kwargs)) or draws[-1])
    monkeypatch.setattr(states, "_build_densities", lambda given: sizes.append(len(given)) or build(given))
    monkeypatch.setattr(states, "random_density", lambda *args, **kwargs: pytest.fail("built a state alone"))
    assert all(r.passed for r in properties.run_suite(3, 8))
    # Every stack of every invariant, one per qubit-count group or drawn stack, goes into one build.
    assert len(draws) > len(properties._CHECKS) and sizes == [len(draws)]


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


# Each case: the checks of an n=3 and an n=1 group under a bound, and the detail of the failure at bound 0.25. The n=3
# group comes first in code order and holds the largest gap, at a later trial.
EARLIEST_TRIAL_CASES = {
    "one-row": (
        lambda three, one, bound: [
            properties._within([0.1, 0.9], bound, three, "n=3 over bound", np.array([1, 4])),
            properties._within([0.1, 0.5, 0.1], bound, one, "n=1 over bound", np.array([0, 2, 3])),
        ],
        "n=1 over bound",
    ),
    # One row per quantity: trial 2 fails on its second row only, trial 3 on both. A guard that does not count holds
    # a gap larger than any.
    "rows": (
        lambda three, one, bound: [
            properties._within([[0.0, 0.9], [0.0, 0.0]], bound, three, "n=3 over bound", np.array([1, 4])),
            properties._within(
                [[0.1, 0.0, 0.7], [0.1, 0.5, 0.6]],
                bound,
                one,
                functools.partial(properties._row_message, ["n=1 row 0", "n=1 row 1"]),
                np.array([0, 2, 3]),
            ),
            properties._within([np.full(5, 2.0)], 3.0, None, "guard", counts=False),
        ],
        "n=1 row 1",
    ),
}


@pytest.mark.parametrize("case", list(EARLIEST_TRIAL_CASES))
def test_the_earliest_trial_wins_across_qubit_count_groups(case):
    three = states.random_density(3, "mixed_dirichlet", 0, size=2)
    one = states.random_density(1, "mixed_dirichlet", 0, size=3)
    build, detail = EARLIEST_TRIAL_CASES[case]
    result = properties._run("demo", lambda rng, trials: build(three, one, 0.25), None, 5)
    assert (result.passed, result.worst, result.detail) == (False, 0.5, detail)
    assert result.counterexample == io.state_to_dict(one[1])
    # With every gap under its bound, worst is the largest gap of the checks that count.
    result = properties._run("demo", lambda rng, trials: build(three, one, 0.95), None, 5)
    assert (result.passed, result.worst, result.counterexample) == (True, 0.9, None)


# Each case: two checks that first fail at one trial, given three one-qubit states, and the (worst, detail, member
# whose state is the counterexample) reported for the checks in code order and reversed.
FIRST_CHECK_CASES = {
    # Both checks first fail at trial 1; the second lists its trials in another order.
    "one-row": (
        lambda members: [
            properties._within([0.0, 0.3], 0.25, None, "first"),
            properties._within([0.9, 0.0], 0.25, None, "second", np.array([1, 0])),
        ],
        ((0.3, "first", None), (0.9, "second", None)),
    ),
    # Both checks first fail at trial 0. The first lists trials 2, 1, 0 and fails at trial 0 on rows 1 and 2, the
    # larger gap on row 2; its row 0 holds the largest gap, at trial 1.
    "rows": (
        lambda members: [
            properties._within(
                [[0.0, 0.9, 0.0], [0.6, 0.0, 0.3], [0.0, 0.0, 0.8]],
                0.25,
                members,
                lambda row, j: f"row {row} at position {j}",
                np.array([2, 1, 0]),
            ),
            properties._within([[0.0, 0.7, 0.0], [0.4, 0.0, 0.0]], 0.25, None, "second"),
        ],
        ((0.3, "row 1 at position 2", 2), (0.4, "second", None)),
    ),
}


@pytest.mark.parametrize("case", list(FIRST_CHECK_CASES))
def test_within_a_trial_the_first_check_in_code_order_wins(case):
    members = states.random_density(1, "mixed_dirichlet", 0, size=3)
    build, reports = FIRST_CHECK_CASES[case]
    checks = build(members)
    for order, (worst, detail, member) in zip((checks, checks[::-1]), reports):
        result = properties._run("demo", lambda rng, trials: order, None, 3)
        counterexample = None if member is None else io.state_to_dict(members[member])
        assert not result.passed
        assert (result.worst, result.detail, result.counterexample) == (worst, detail, counterexample)


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


def test_a_random_hermitian_stack_is_what_the_full_check_keeps(monkeypatch):
    # The drawn stack skips the input checks; the full constructor keeps the same bits from the same draw.
    drawn = []
    built = stokes.HermitianOperator._built
    monkeypatch.setattr(
        stokes.HermitianOperator, "_built", classmethod(lambda cls, h, n: drawn.append(h.copy()) or built(h, n))
    )
    rng = np.random.default_rng(36)
    for n in (1, 2, 3):
        for size in range(1, 13):
            x = properties._random_hermitian(n, rng, size)
            m = x.matrix
            assert (x.n, m.shape) == (n, (size, 2**n, 2**n))
            assert np.array_equal(m, stokes.HermitianOperator(drawn.pop(), stack=True).matrix), (n, size)
            assert (m == m.conj().swapaxes(-1, -2)).all(), (n, size)
            assert np.abs(np.trace(m, axis1=1, axis2=2) - 1.0).max() <= stokes.TRACE_TOL, (n, size)


def test_classification_reports_the_flags_of_its_earliest_failing_trial(monkeypatch):
    # With a factorizable "total reflection" the three flags read off it fail in every trial.
    identity = lambda n, subset=None: reflections.SignMask(np.ones(4**n))  # noqa: E731
    monkeypatch.setattr(reflections, "mask_total_reflection", identity)
    result = properties._run("classification", properties.classification, np.random.default_rng(3), 6)
    assert (result.passed, result.worst) == (False, 1.0)
    assert result.detail == "n=3 checks=(True, True, False, False, False)"
    assert result.counterexample is None


def test_a_one_qubit_operator_sum_failure_reports_a_one_qubit_state(monkeypatch):
    # The identity map is no one-qubit transpose: the first trial fails, and its state is the one-qubit draw.
    monkeypatch.setattr(properties, "one_qubit_operator_sum", lambda kind, rho: rho)
    result = properties._run("operator_sums", properties.operator_sums, np.random.default_rng(0), 4)
    assert (result.passed, result.detail) == (False, "operator sum and mask disagreed")
    assert result.counterexample["n"] == 1


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


def counting_transforms(monkeypatch):
    """A dict counting the calls of ``to_stokes`` and ``from_stokes``, patched where ``stokes`` and ``reflections``
    bind them, filled as the calls happen."""
    calls = {"to_stokes": 0, "from_stokes": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    for name in calls:
        original = getattr(stokes, name)
        for module in (stokes, reflections):
            monkeypatch.setattr(module, name, counting(name, original))
    return calls


# (to_stokes, from_stokes) calls per invariant at 8 trials: one of each per drawn stack or qubit-count group, whatever
# the number of images it compares. operator_sums draws a one- and a two-qubit stack, and its one-qubit oracle,
# one_qubit_operator_sum, makes one more of each per kind.
TRANSFORMS_PER_INVARIANT = {
    "one_qubit_reflection_spectra": (1, 1),
    "operator_sums": (4, 4),
    "reflection_vs_ppt": (1, 1),
    "reflection_unitary_commutation": (2, 2),
    "mask_isometries": (3, 3),
    "hermitian_kernels": (3, 3),
}


@pytest.mark.parametrize("name", list(TRANSFORMS_PER_INVARIANT))
def test_the_images_an_invariant_compares_cross_one_transform(name, monkeypatch):
    seed, trials = 0, 8
    # At this seed a group-drawing invariant meets every qubit count it can draw.
    for low in (1, 2):
        groups = properties._qubit_groups(np.random.default_rng(seed), trials, low)
        assert [n for n, _ in groups] == list(range(low, properties._QUBITS_STOP))
    calls = counting_transforms(monkeypatch)
    result = properties._run(name, getattr(properties, name), np.random.default_rng(seed), trials)
    assert result.passed, result.to_dict()
    assert (calls["to_stokes"], calls["from_stokes"]) == TRANSFORMS_PER_INVARIANT[name]


# The invariants whose states take the shared transform, in suite order.
READ_AS_STOKES = [
    "stokes_round_trip",
    "norm_bridge",
    "one_qubit_spectrum",
    "stokes_matrix_choi",
    "mask_involution",
    "one_qubit_reflection_spectra",
    "pure_reflection_spectrum",
    "operator_sums",
    "ccn_dual_path",
    "reflection_vs_ppt",
    "partial_reflection_norm",
    "concurrence_lorentz",
    "hermitian_kernels",
]


def test_a_run_makes_one_shared_transform_per_qubit_count(monkeypatch):
    # Every state an invariant reads as Stokes values joins the others of its qubit count in one to_stokes.
    given, shared = [], []
    helper, transform = properties._stokes_values, stokes.to_stokes

    def counted(stacks):
        given.append(stacks)
        with monkeypatch.context() as patch:
            patch.setattr(stokes, "to_stokes", lambda op: shared.append((op.n, len(op.matrix))) or transform(op))
            return helper(stacks)

    monkeypatch.setattr(properties, "_stokes_values", counted)
    assert all(r.passed for r in properties.run_suite(0, 8))
    (stacks,) = given
    assert [name for (name, _), rhos in zip(properties._CHECKS, stacks) if rhos] == READ_AS_STOKES
    members = {n: sum(len(rho.matrix) for rhos in stacks for rho in rhos if rho.n == n) for n in (1, 2, 3)}
    assert sorted(shared) == list(members.items())


@pytest.mark.parametrize("seed", range(10))
def test_every_tensor_handed_to_an_invariant_is_the_transform_of_its_state_alone(seed, monkeypatch):
    handed = {}
    run = properties._run

    def recorded(name, invariant, rng, trials):
        handed[name] = invariant.keywords["inputs"]
        return run(name, invariant, rng, trials)

    monkeypatch.setattr(properties, "_run", recorded)
    properties.run_suite(seed, 8)
    assert list(handed) == [name for name, _ in properties._CHECKS]
    for name, (rhos, tensors, _) in handed.items():
        read = properties._read_as_stokes(name, rhos)
        assert len(tensors) == len(read) and bool(read) == (name in READ_AS_STOKES), name
        for rho, s in zip(read, tensors):
            assert np.array_equal(s.values, stokes.to_stokes(rho).values), name
