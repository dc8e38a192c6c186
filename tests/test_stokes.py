"""Representation layer: basis, conversions, reshuffling, reductions."""

import itertools
import json
import math
import re
import warnings

import numpy as np
import pytest
from conftest import (
    FIXTURES,
    oracle_basis,
    oracle_from_stokes,
    oracle_label,
    oracle_partial_trace,
    oracle_partial_transpose,
    oracle_stokes,
)

import qreflect as qr
from qreflect import properties, stokes
from qreflect.io import parse_density, state_from_dict, state_to_dict
from qreflect.reflections import SignMask
from qreflect.stokes import MAGNITUDE_LIMIT, TRACE_TOL, StokesTensor, identity_times_reduction, partial_transpose

SQ2 = math.sqrt(2.0)


def random_mixed(n, rng):
    return qr.random_density(n, "mixed_dirichlet", rng)


class TestBasisElement:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_orthonormality_exhaustive(self, n):
        elements = [oracle_basis(idx) for idx in itertools.product(range(4), repeat=n)]
        flat = np.array([e.conj().reshape(-1) for e in elements])
        gram = flat @ flat.conj().T
        np.testing.assert_allclose(gram, np.eye(4**n), atol=1e-13)


class TestStokesConversion:
    def test_maximally_mixed_one_qubit(self):
        s = qr.to_stokes(qr.maximally_mixed(1))
        np.testing.assert_allclose(s.values, [1 / SQ2, 0, 0, 0], atol=1e-15)

    def test_ground_state(self):
        s = qr.to_stokes(qr.pure_state("0"))
        np.testing.assert_allclose(s.values, [1 / SQ2, 0, 0, 1 / SQ2], atol=1e-15)

    def test_bell_values(self):
        # frozen from the trace oracle: nonzero at 00, 11, 22, 33
        expected = np.zeros(16)
        expected[[0, 5, 10, 15]] = [0.5, 0.5, -0.5, 0.5]
        s = qr.to_stokes(qr.bell_state())
        np.testing.assert_allclose(s.values, expected, atol=1e-14)
        np.testing.assert_allclose(oracle_stokes(qr.bell_state().matrix, 2), expected, atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_trace_oracle(self, n, rng):
        rho = random_mixed(n, rng)
        np.testing.assert_allclose(qr.to_stokes(rho).values, oracle_stokes(rho.matrix, n), atol=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_round_trip_both_ways(self, n, rng):
        rho = random_mixed(n, rng)
        s = qr.to_stokes(rho)
        assert np.abs(qr.from_stokes(s).matrix - rho.matrix).max() < 1e-12
        values = s.values.copy()
        values[1:] = rng.uniform(-0.3, 0.3, size=values.size - 1)
        t = StokesTensor(values)
        assert np.abs(qr.to_stokes(qr.from_stokes(t)).values - values).max() < 1e-12

    def test_zero_homogeneous_part(self):
        for n in (1, 2, 3):
            values = np.zeros(4**n)
            values[0] = 2.0 ** (-n / 2)
            op = qr.from_stokes(StokesTensor(values))
            np.testing.assert_allclose(op.matrix, np.eye(2**n) / 2**n, atol=1e-15)

    def test_bell_inverts(self):
        expected = np.zeros(16)
        expected[[0, 5, 10, 15]] = [0.5, 0.5, -0.5, 0.5]
        op = qr.from_stokes(StokesTensor(expected))
        np.testing.assert_allclose(op.matrix, qr.bell_state().matrix, atol=1e-14)
        np.testing.assert_allclose(oracle_from_stokes(expected, 2), qr.bell_state().matrix, atol=1e-14)

    def test_wrong_affine_component_rejected(self):
        values = np.zeros(16)
        values[0] = 0.3
        with pytest.raises(ValueError):
            StokesTensor(values)

    def test_non_hermitian_rejected(self):
        bad = np.eye(2, dtype=complex)
        bad[0, 1] = 0.5
        with pytest.raises(ValueError):
            qr.to_stokes(bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_entries_rejected(self, bad):
        matrix = np.eye(2, dtype=complex) / 2
        matrix[1, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            qr.HermitianOperator(matrix)
        values = np.array([1 / SQ2, 0.0, bad, 0.0])
        with pytest.raises(ValueError, match="finite"):
            StokesTensor(values)
        entries = np.eye(2)
        entries[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            qr.RealDensityMatrix(entries)

    def test_cancelling_trace_rejected_by_from_stokes(self):
        # Values within the magnitude limit with the right affine component whose trace cancels
        # to 0 in floating point: only the operator's trace check catches it.
        tensor = StokesTensor([2**-0.5, MAGNITUDE_LIMIT, MAGNITUDE_LIMIT, MAGNITUDE_LIMIT])
        with pytest.raises(ValueError, match="trace"):
            qr.from_stokes(tensor)

    @pytest.mark.parametrize("stack", [False, True], ids=["single", "stack"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_the_affine_bound_is_the_trace_bound_in_the_tensors_units(self, n, stack):
        # values[0] = 2**(-n/2) (1 + e) is the trace 1 + e: a tensor accepted here converts, and one
        # whose trace the conversions would refuse is refused itself, by its affine component.
        unit = 2.0 ** (-n / 2)
        for e in (0.9 * TRACE_TOL, -0.9 * TRACE_TOL, 1.1 * TRACE_TOL, -1.1 * TRACE_TOL):
            values = np.zeros((3, 4**n))
            values[:, 0] = unit
            values[1, 0] = unit * (1 + e)
            data = values if stack else values[1]
            if abs(e) < TRACE_TOL:
                tensor = StokesTensor(data, stack=stack)
                assert qr.from_stokes(tensor).is_stack == qr.to_real_density(tensor).is_stack == stack
            else:
                member = "member 1: " if stack else ""
                with pytest.raises(ValueError, match=rf"^{member}affine component must equal 2\*\*\(-{n}/2\), got "):
                    StokesTensor(data, stack=stack)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "entries,message",
        [
            ([[0.5, 1e150], [-1e150, 0.5]], r"not Hermitian \(defect 2\.000e\+150\)"),
            ([[0.5, 7e149 + 7e149j], [-7e149 + 7e149j, 0.5]], r"not Hermitian \(defect 1\.980e\+150\)"),
            (np.diag([1e150, 1e150, -1e150, -1e150]), "trace must equal 1, got 0"),
            (np.diag([1e150] * 4), r"trace must equal 1, got 4e\+150"),
        ],
        ids=["defect", "defect-modulus", "cancelling-trace", "trace"],
    )
    def test_finite_entries_cannot_overflow_the_checks(self, entries, message):
        with pytest.raises(ValueError, match=message):
            qr.HermitianOperator(entries)

    @pytest.mark.filterwarnings("error")
    def test_huge_hermitian_entries_keep_a_finite_hermitian_part(self):
        m = np.array([[0.5, 6e149 - 7e149j], [6e149 + 7e149j, 0.5]])
        assert np.array_equal(qr.HermitianOperator(m).matrix, m)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_the_kept_part_is_the_unscaled_hermitian_part(self, n, rng):
        m = qr.random_density(n, "mixed_dirichlet", rng).matrix
        m = m + 1e-11 * (rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape))
        m = m - np.eye(2**n) * (np.trace(m) - 1) / 2**n
        assert np.array_equal(qr.HermitianOperator(m).matrix, (m + m.conj().T) / 2)

    def test_the_trace_is_read_off_the_kept_matrix(self):
        # An imaginary diagonal within the Hermiticity bound is no part of the kept matrix, so it moves no trace.
        m = np.eye(64) / 64 + 1e-11j * np.eye(64)
        op = qr.HermitianOperator(m)
        assert np.array_equal(op.matrix, np.eye(64) / 64)
        assert op.matrix.trace() == 1
        stack = qr.HermitianOperator(np.stack([np.eye(64) / 64, m]), stack=True)
        assert np.array_equal(stack.matrix[1], op.matrix)
        # The trace is real, so a refusal names a real number.
        with pytest.raises(ValueError, match=r"^trace must equal 1, got 0$"):
            qr.from_stokes(StokesTensor([2**-0.5, MAGNITUDE_LIMIT, MAGNITUDE_LIMIT, MAGNITUDE_LIMIT]))
        with pytest.raises(ValueError, match=r"^trace must equal 1, got 2$"):
            qr.HermitianOperator(np.eye(2) + 1e-11j * np.eye(2))

    def test_qubit_limit_enforced(self):
        with pytest.raises(ValueError):
            qr.HermitianOperator(np.eye(2**7) / 2**7)
        with pytest.raises(ValueError):
            StokesTensor(np.zeros(4**7))


# Each checked type with a valid input for n qubits and the accessor of its stored array.
CHECKED_TYPES = {
    "HermitianOperator": (qr.HermitianOperator, lambda n: np.eye(2**n) / 2**n, "matrix"),
    "StokesTensor": (StokesTensor, lambda n: np.eye(1, 4**n)[0] * 2.0 ** (-n / 2), "values"),
    "RealDensityMatrix": (qr.RealDensityMatrix, lambda n: np.eye(2**n), "entries"),
    "SignMask": (SignMask, lambda n: np.ones(4**n), "signs"),
}


class TestCheckedCore:
    @pytest.mark.parametrize("kind", list(CHECKED_TYPES))
    def test_shared_checks(self, kind):
        cls, valid, accessor = CHECKED_TYPES[kind]
        wrong_size = [np.eye(3) / 3] if valid(1).ndim == 2 else [np.ones(8), np.ones(9)]
        for bad in [valid(1)[None], valid(1).reshape(-1, 1), *wrong_size, valid(7)]:
            with pytest.raises(ValueError):
                cls(bad)
        with_nan = valid(2)
        with_nan.flat[-1] = math.nan
        with pytest.raises(ValueError, match="finite"):
            cls(with_nan)
        for n in (1, 2, 3):
            obj = cls(valid(n))
            assert obj.n == n
            assert repr(obj).startswith(f"{kind}(n={n}")
            stored = getattr(obj, accessor)
            with pytest.raises(ValueError):
                stored.flat[0] = stored.flat[0]

    def test_operator_keeps_the_hermitian_part(self):
        doc = json.loads((FIXTURES / "near_hermitian_3q.json").read_text())
        op = state_from_dict(doc)
        assert np.abs(np.asarray(doc["re"]) - np.eye(8) / 8).max() > 0
        assert np.array_equal(op.matrix, np.eye(8) / 8)
        assert np.array_equal(qr.DensityState(op).spectrum, np.linalg.eigvalsh(op.matrix))


class TestRealDensity:
    def test_one_qubit_mixed(self):
        sigma = qr.to_real_density(qr.to_stokes(qr.maximally_mixed(1)))
        np.testing.assert_allclose(sigma.entries, [[1, 0], [0, 0]], atol=1e-15)

    def test_ground_state_unfolds_to_identity(self):
        sigma = qr.to_real_density(qr.to_stokes(qr.pure_state("0")))
        np.testing.assert_allclose(sigma.entries, np.eye(2), atol=1e-15)

    def test_top_left_entry_is_one(self, rng):
        for n in (1, 2, 3):
            sigma = qr.to_real_density(qr.to_stokes(random_mixed(n, rng)))
            assert abs(sigma.entries[0, 0] - 1.0) < 1e-12

    def test_multiplicative_over_factors(self, rng):
        for _ in range(20):
            a = random_mixed(1, rng)
            b = random_mixed(1, rng)
            left = qr.to_real_density(qr.to_stokes(qr.DensityState(np.kron(a.matrix, b.matrix)))).entries
            right = np.kron(
                qr.to_real_density(qr.to_stokes(a)).entries,
                qr.to_real_density(qr.to_stokes(b)).entries,
            )
            assert np.abs(left - right).max() < 1e-12

    def test_column_stacking_inverts(self, rng):
        # bit-exact for even n; odd n picks up one rounding of the sqrt(2) scale
        for n in (1, 2, 3):
            s = qr.to_stokes(random_mixed(n, rng))
            back = qr.real_density_to_stokes(qr.to_real_density(s))
            assert np.abs(back.values - s.values).max() < 1e-15

    def test_one_qubit_column_stack_literal(self, rng):
        # col(sigma) / sqrt(2) must reproduce the Stokes 4-vector directly
        s = qr.to_stokes(random_mixed(1, rng))
        sigma = qr.to_real_density(s).entries
        np.testing.assert_allclose(sigma.flatten(order="F") / SQ2, s.values, atol=1e-15)

    def test_norm_bridge(self, rng):
        for n in (1, 2, 3):
            rho = random_mixed(n, rng)
            sigma = qr.to_real_density(qr.to_stokes(rho)).entries
            assert abs(np.linalg.norm(sigma) / 2 ** (n / 2) - np.linalg.norm(rho.matrix)) < 1e-12


class TestStokesMatrix:
    def test_maximally_mixed(self):
        m = qr.stokes_as_matrix(qr.to_stokes(qr.maximally_mixed(2)))
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(m, expected, atol=1e-15)

    def test_bell_diagonal(self):
        m = qr.stokes_as_matrix(qr.to_stokes(qr.bell_state()))
        np.testing.assert_allclose(m, np.diag([1.0, 1.0, -1.0, 1.0]), atol=1e-14)

    def test_reshuffle_correspondence_exact(self, rng):
        # the reshuffled real density matrix is the transposed Stokes matrix
        for _ in range(20):
            s = qr.to_stokes(random_mixed(2, rng))
            lhs = qr.choi_reshuffle(qr.to_real_density(s).entries).T
            assert np.array_equal(lhs, qr.stokes_as_matrix(s))

class TestChoiReshuffle:
    def test_self_inverse(self, rng):
        for dim in (4, 16):
            m = rng.standard_normal((dim, dim))
            assert np.array_equal(qr.choi_reshuffle(qr.choi_reshuffle(m)), m)

    def test_defining_product_form(self, rng):
        a = random_mixed(1, rng).matrix
        b = random_mixed(1, rng).matrix
        reshuffled = qr.choi_reshuffle(np.kron(a.T, b))
        expected = np.outer(b.flatten(order="F"), a.T.flatten(order="F"))
        assert np.abs(reshuffled - expected).max() < 1e-14
        assert np.linalg.matrix_rank(reshuffled, tol=1e-10) == 1

    def test_identity_singular_values(self):
        vals = np.linalg.svd(qr.choi_reshuffle(np.eye(4) / 4), compute_uv=False)
        np.testing.assert_allclose(vals, [0.5, 0.0, 0.0, 0.0], atol=1e-14)

    def test_bad_dimension_rejected(self):
        with pytest.raises(ValueError):
            qr.choi_reshuffle(np.eye(6))
        # A scalar has no last axis to read a dimension from.
        with pytest.raises(ValueError, match=r"^expected a square matrix, got shape \(\)$"):
            qr.choi_reshuffle(5)


class TestProductsAndReductions:
    def test_stokes_of_product_is_outer_product(self, rng):
        a, b = random_mixed(1, rng), random_mixed(2, rng)
        left = qr.to_stokes(qr.DensityState(np.kron(a.matrix, b.matrix))).values
        right = np.outer(qr.to_stokes(a).values, qr.to_stokes(b).values).reshape(-1)
        assert np.abs(left - right).max() < 1e-13

    @pytest.mark.parametrize(
        "entry",
        [
            lambda rho: identity_times_reduction(rho, ()),
            lambda rho: qr.mask_total_reflection(rho.n, ()),
            lambda rho: qr.reflection_report(rho, ()),
        ],
        ids=["identity_times_reduction", "mask_total_reflection", "reflection_report"],
    )
    def test_empty_subset_rejected_everywhere(self, entry):
        with pytest.raises(ValueError, match="at least one qubit"):
            entry(qr.bell_state())

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_identity_times_reduction_matches_oracle(self, n, rng):
        rho = random_mixed(n, rng)
        dim = 2**n
        for size in range(1, n + 1):
            for subset in itertools.combinations(range(1, n + 1), size):
                kept = [q for q in range(1, n + 1) if q not in subset]
                reduced = oracle_partial_trace(rho.matrix, n, kept)
                explicit = np.zeros((dim, dim), dtype=complex)
                for r in range(dim):
                    for c in range(dim):
                        if oracle_label(r, n, subset) == oracle_label(c, n, subset):
                            explicit[r, c] = reduced[oracle_label(r, n, kept), oracle_label(c, n, kept)]
                lift = identity_times_reduction(rho, subset)
                assert np.abs(lift - explicit).max() < 1e-12
                reflected = qr.apply_mask(qr.mask_total_reflection(n, subset), rho).matrix
                assert np.abs(lift - 2 ** (size - 1) * (rho.matrix + reflected)).max() < 1e-12


class TestMatrixKernels:
    """The matrix kernels against the sign masks that define their images."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_kernels_match_the_sign_masks_on_every_subset(self, n, rng):
        rho = random_mixed(n, rng)
        for size in range(1, n + 1):
            for subset in itertools.combinations(range(1, n + 1), size):
                transposed = qr.apply_mask(qr.mask_partial_transpose(n, subset), rho).matrix
                assert np.abs(partial_transpose(rho, subset) - transposed).max() < 1e-12
                reflected = qr.apply_mask(qr.mask_total_reflection(n, subset), rho).matrix
                lifted = 2.0 ** (1 - size) * identity_times_reduction(rho, subset) - rho.matrix
                assert np.abs(lifted - reflected).max() < 1e-12

    def test_partial_transpose_matches_entrywise_oracle(self, rng):
        rho = random_mixed(3, rng)
        for subset in [(), (1,), (2,), (1, 3), (1, 2, 3)]:
            image = partial_transpose(rho, subset)
            assert type(image) is np.ndarray
            assert np.array_equal(image, oracle_partial_transpose(rho.matrix, 3, subset))

    def test_lift_acts_on_the_hermitian_part(self):
        dim = 8
        m = np.eye(dim) / dim + 0.45e-10 * (np.triu(np.ones((dim, dim)), 1) - np.tril(np.ones((dim, dim)), -1))
        op = qr.HermitianOperator(m)
        for subset in [(1,), (1, 2), (1, 2, 3)]:
            lift = identity_times_reduction(op, subset)
            assert np.array_equal(lift, lift.conj().T)
            assert np.array_equal(lift, identity_times_reduction((m + m.T) / 2, subset))

class TestPurityAndSpectrum:
    def test_bell_is_pure(self):
        assert abs(qr.purity(qr.to_stokes(qr.bell_state())) - 1.0) < 1e-12

    def test_maximally_mixed_two_qubits(self):
        assert abs(qr.purity(qr.to_stokes(qr.maximally_mixed(2))) - 0.25) < 1e-14

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_purity_matches_hermitian_route(self, n, rng):
        rho = random_mixed(n, rng)
        direct = np.trace(rho.matrix @ rho.matrix).real
        assert abs(qr.purity(qr.to_stokes(rho)) - direct) < 1e-12

    def test_one_qubit_eigenvalues_closed_form(self, rng):
        for _ in range(50):
            rho = random_mixed(1, rng)
            v = qr.to_stokes(rho).values
            radius = math.sqrt(v[1] ** 2 + v[2] ** 2 + v[3] ** 2)
            closed = sorted([(1 / SQ2) * (1 / SQ2 + radius), (1 / SQ2) * (1 / SQ2 - radius)])
            np.testing.assert_allclose(rho.spectrum, closed, atol=1e-12)


def stack_of(n, rng, size=5):
    return qr.random_density(n, "mixed_dirichlet", rng, size=size)


# Public functions that answer for one state, each called on a two-qubit stack and
# its Stokes values.
SCALAR_ONLY = {
    "ppt_test": lambda rho, s: qr.ppt_test(rho, (1,)),
    "ccn_report": lambda rho, s: qr.ccn_report(rho),
    "concurrence_report": lambda rho, s: qr.concurrence_report(rho),
    "reduction_criterion": lambda rho, s: qr.reduction_criterion(rho, (1,)),
    "total_reflection_feasible": lambda rho, s: qr.total_reflection_feasible(rho),
    "reflection_report": lambda rho, s: qr.reflection_report(rho, (1,)),
    "min_eig": lambda rho, s: qr.min_eig(rho),
    "min_eig_of_an_operator": lambda rho, s: qr.min_eig(qr.complement(rho)),
    "state_to_dict": lambda rho, s: state_to_dict(rho),
    "state_to_dict_stokes": lambda rho, s: state_to_dict(s),
}

# Witnesses that give one value per member, each with the qubit count of its stack and
# called on the stack of states and on its Stokes values.
STACKED_WITNESSES = {
    "ccn": (2, lambda rho, s: qr.ccn(rho)),
    "ccn_odd_block": (3, lambda rho, s: qr.ccn(rho, (2,))),
    "ccn_via_stokes": (2, lambda rho, s: qr.ccn_via_stokes(s)),
    "concurrence": (2, lambda rho, s: qr.concurrence(rho)),
    "lorentz_metric": (2, lambda rho, s: qr.lorentz_metric(s)),
    "purity": (3, lambda rho, s: qr.purity(s)),
}


class TestStacks:
    """A stack against a loop over the scalar API, member by member."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_conversions_match_the_scalar_loop(self, n, rng):
        rho = stack_of(n, rng)
        s = qr.to_stokes(rho)
        back = qr.from_stokes(s)
        sigma = qr.to_real_density(s)
        again = qr.real_density_to_stokes(sigma)
        assert s.is_stack and back.is_stack and sigma.is_stack and again.is_stack
        for k in range(5):
            one = qr.to_stokes(rho[k])
            assert np.abs(s.values[k] - one.values).max() <= 1e-15
            assert np.abs(back.matrix[k] - qr.from_stokes(one).matrix).max() <= 1e-15
            assert np.abs(sigma.entries[k] - qr.to_real_density(one).entries).max() <= 1e-15
            assert np.abs(again.values[k] - qr.real_density_to_stokes(qr.to_real_density(one)).values).max() <= 1e-15

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_kernels_match_the_scalar_loop(self, n, rng):
        rho = stack_of(n, rng)
        for size in range(1, n + 1):
            for subset in itertools.combinations(range(1, n + 1), size):
                transposed = partial_transpose(rho, subset)
                lifted = identity_times_reduction(rho, subset)
                for k in range(5):
                    assert np.abs(transposed[k] - partial_transpose(rho[k], subset)).max() <= 1e-15
                    assert np.abs(lifted[k] - identity_times_reduction(rho[k], subset)).max() <= 1e-15

    def test_two_qubit_matrices_match_the_scalar_loop(self, rng):
        s = qr.to_stokes(stack_of(2, rng))
        reshuffled = qr.choi_reshuffle(qr.to_real_density(s).entries)
        square = qr.stokes_as_matrix(s)
        for k in range(5):
            assert np.array_equal(reshuffled[k], qr.choi_reshuffle(qr.to_real_density(s[k]).entries))
            assert np.array_equal(square[k], qr.stokes_as_matrix(s[k]))

    def test_members_share_the_checked_storage(self, rng):
        rho = stack_of(2, rng)
        member = rho[3]
        assert type(member) is qr.DensityState and not member.is_stack and rho.is_stack
        assert np.shares_memory(member.matrix, rho.matrix)
        assert np.array_equal(member.spectrum, rho.spectrum[3])
        assert rho.spectrum.shape == (5, 4)
        for stored in (member.matrix, member.spectrum):
            with pytest.raises(ValueError):
                stored.flat[0] = stored.flat[0]
        picked = rho[np.array([4, 0])]
        assert picked.is_stack and np.array_equal(picked.matrix, rho.matrix[[4, 0]])
        assert repr(picked) == "DensityState(n=2, stack=2)"
        with pytest.raises(ValueError):
            picked.matrix[0, 0, 0] = 0
        with pytest.raises(TypeError):
            member[0]
        with pytest.raises(IndexError):
            rho[np.zeros((1, 1), dtype=int)]

    @pytest.mark.parametrize(
        "index",
        [True, np.True_, np.array([], dtype=int), [], np.array([True, False, True])],
        ids=["bool", "numpy-bool", "empty-array", "empty-list", "bool-array"],
    )
    def test_a_pick_is_an_integer_or_a_nonempty_index_array(self, index, rng):
        # numpy reads a bool as a new axis and an empty index array as an empty stack.
        rho = stack_of(2, rng, 3)
        with pytest.raises(IndexError, match="^index a stack with an integer or a nonempty 1-D integer index array$"):
            rho[index]

    @pytest.mark.parametrize("kind", [*CHECKED_TYPES, "DensityState"])
    def test_a_stack_holds_at_least_one_member(self, kind):
        cls, valid, _ = CHECKED_TYPES.get(kind, (qr.DensityState, CHECKED_TYPES["HermitianOperator"][1], None))
        with pytest.raises(ValueError, match=r"^expected a (square|flat 4\*\*n) array per member, got shape \(0, "):
            cls(np.empty((0, *valid(2).shape)), stack=True)

    def test_a_stack_is_declared_not_inferred(self):
        # One extra leading axis is a stack only when asked for.
        with pytest.raises(ValueError):
            qr.HermitianOperator((np.eye(2) / 2)[None])
        assert qr.HermitianOperator((np.eye(2) / 2)[None], stack=True).is_stack

    @pytest.mark.parametrize(
        "kind",
        ["non-hermitian", "trace", "nan", "negative-eigenvalue", "affine", "cancelled-trace", "remix", "complement"],
    )
    def test_one_bad_member_is_named(self, kind):
        ops = np.stack([np.eye(4, dtype=complex) / 4] * 4)
        values = np.zeros((4, 16))
        values[:, 0] = 0.5
        if kind == "non-hermitian":
            ops[2, 0, 1] = 0.1
            build, match = lambda: qr.HermitianOperator(ops, stack=True), "member 2: matrix is not Hermitian"
        elif kind == "trace":
            ops[2] *= 2
            build, match = lambda: qr.HermitianOperator(ops, stack=True), "member 2: trace must equal 1"
        elif kind == "nan":
            ops[2, 1, 1] = math.nan
            build, match = lambda: qr.DensityState(ops, stack=True), "member 2: entries must be finite"
        elif kind == "negative-eigenvalue":
            ops[2] = np.diag([0.5, 0.5, 0.25, -0.25])
            build, match = lambda: qr.DensityState(ops, stack=True), "member 2: matrix has a negative eigenvalue"
        elif kind == "affine":
            values[2, 0] = 0.0
            build, match = lambda: StokesTensor(values, stack=True), "member 2: affine component"
        elif kind == "cancelled-trace":
            # Right affine component, values within the magnitude limit, but the trace cancels to 0 in floating point.
            values[2, [1, 2, 3]] = MAGNITUDE_LIMIT
            build, match = lambda: qr.from_stokes(StokesTensor(values, stack=True)), "member 2: trace must equal 1"
        elif kind == "remix":
            ops[2] = np.diag([0.5, 0.5, 0.25, -0.25])
            build, match = (
                lambda: qr.remix(qr.HermitianOperator(ops, stack=True), 0.9),
                "member 2: matrix has a negative eigenvalue",
            )
        else:
            # Member 2 has trace 1; its total reflection diag(-1e150, 1e150, 0, 0) cancels its trace to 0.
            ops[2] = np.diag([MAGNITUDE_LIMIT, -MAGNITUDE_LIMIT, 0.5, 0.5])
            build, match = (
                lambda: qr.complement(qr.HermitianOperator(ops, stack=True)),
                "member 2: trace must equal 1, got 0$",
            )
        with pytest.raises(ValueError, match=match):
            build()

    @pytest.mark.parametrize("name", list(SCALAR_ONLY))
    def test_scalar_only_functions_refuse_a_stack(self, name, rng):
        rho = stack_of(2, rng)
        with pytest.raises(ValueError, match="expected one"):
            SCALAR_ONLY[name](rho, qr.to_stokes(rho))

    @pytest.mark.parametrize("name", list(STACKED_WITNESSES))
    def test_witnesses_match_the_scalar_loop(self, name, rng):
        n, witness = STACKED_WITNESSES[name]
        for size in (1, 5):
            rho = stack_of(n, rng, size)
            s = qr.to_stokes(rho)
            stacked = witness(rho, s)
            assert isinstance(stacked, np.ndarray) and stacked.shape == (size,)
            for k in range(size):
                one = witness(rho[k], s[k])
                assert type(one) is float
                assert abs(stacked[k] - one) <= 1e-15

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_classify_answers_a_mask_stack_per_member(self, n, rng):
        # Six random masks, at n >= 2 almost never factorizable, and six products of random per-qubit factors.
        signs = rng.choice([-1, 1], size=(6, 4**n))
        factors = rng.choice([-1, 1], size=(6, n, 4))
        factors[:, :, 0] = 1
        products = factors[:, 0]
        for q in range(1, n):
            products = (products[:, :, None] * factors[:, q, None, :]).reshape(6, -1)
        signs[:, 0] = 1
        signs = np.concatenate([signs, products])
        stacked = qr.classify(SignMask(signs, stack=True))
        assert stacked.local_factorizable[6:].all()
        for field, kind in (("orientation", str), ("local_factorizable", bool), ("sign_change_count", int)):
            column = getattr(stacked, field)
            assert isinstance(column, np.ndarray) and column.shape == (12,), field
            for k in range(12):
                one = getattr(qr.classify(SignMask(signs[k])), field)
                assert type(one) is kind and column[k] == one, (field, k)


class TestMemberBits:
    """A member's transform is the same bits whatever stack it is in: the Pauli kernels multiply exactly.

    ``array_equal`` rather than raw bytes, so -0.0 == 0.0.
    """

    # Fewer stacks where a member costs more: a transform of one member grows as 4**n.  One qubit is the cheapest and
    # gets the most: there a stack is the narrowest product, 4 x size, whose width most often picks another BLAS path.
    CASES = {1: 200, 2: 40, 3: 40, 4: 20, 5: 8, 6: 4}

    def draws(self, seed, smallest=1):
        """Fixed-seed stacks of ``smallest`` to 12 trace-one Hermitian operators at n = 1..6, each with its generator."""
        rng = np.random.default_rng(seed)
        for n, cases in self.CASES.items():
            for _ in range(cases):
                yield properties._random_hermitian(n, rng, int(rng.integers(smallest, 13))), rng

    def test_a_member_alone_gets_its_bits_in_the_stack(self):
        for x, _ in self.draws(2026):
            s = qr.to_stokes(x)
            back = qr.from_stokes(s)
            for k in range(len(x.matrix)):
                assert np.array_equal(s.values[k], qr.to_stokes(x[k]).values), (x.n, k)
                assert np.array_equal(back.matrix[k], qr.from_stokes(s[k]).matrix), (x.n, k)

    def test_a_split_stack_concatenates_to_the_whole(self):
        for x, rng in self.draws(2027, smallest=2):
            size = len(x.matrix)
            cut = int(rng.integers(1, size))
            parts = np.arange(cut), np.arange(cut, size)
            s = qr.to_stokes(x)
            assert np.array_equal(np.concatenate([qr.to_stokes(x[p]).values for p in parts]), s.values), x.n
            back = np.concatenate([qr.from_stokes(s[p]).matrix for p in parts])
            assert np.array_equal(back, qr.from_stokes(s).matrix), x.n

    def test_tiling_before_the_transform_is_tiling_after(self):
        for x, rng in self.draws(2028):
            # 7 to 13 copies, as many as a mask catalog holds.
            tiled = np.tile(np.arange(len(x.matrix)), int(rng.integers(7, 14)))
            s = qr.to_stokes(x)
            assert np.array_equal(qr.to_stokes(x[tiled]).values, s.values[tiled]), x.n
            assert np.array_equal(qr.from_stokes(s[tiled]).matrix, qr.from_stokes(s).matrix[tiled]), x.n

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_a_joined_stack_keeps_every_members_bits(self, n):
        # Two checked stacks joined into one computed image, as the invariant suite joins the images it compares.
        rng = np.random.default_rng(2029 + n)
        for _ in range(10):
            sizes = rng.integers(1, 7, size=2)
            operators = [properties._random_hermitian(n, rng, int(k)) for k in sizes]
            densities = [qr.random_density(n, "mixed_dirichlet", rng, size=int(k)) for k in sizes]
            for parts in (operators, densities, [qr.to_stokes(x) for x in operators]):
                joined = type(parts[0])._built(np.concatenate([x._array for x in parts]), n)
                assert np.array_equal(joined._array, np.concatenate([x._array for x in parts])), type(joined)
                if isinstance(joined, qr.DensityState):
                    assert np.array_equal(joined.spectrum, np.concatenate([x.spectrum for x in parts]))

    def test_two_masks_through_one_transform_give_each_images_bits(self):
        for x, rng in self.draws(2030):
            catalog = properties._mask_catalog(x.n)
            masks = tuple(catalog[k] for k in rng.choice(len(catalog), size=2, replace=False))
            s = qr.to_stokes(x)
            for mask, image in zip(masks, properties._images(masks, s)):
                assert np.array_equal(image, qr.from_stokes(qr.apply_mask(mask, s)).matrix), (x.n, mask.name)

    @pytest.mark.parametrize(
        "state",
        [
            qr.bell_state(),
            qr.maximally_mixed(2),
            qr.maximally_mixed(4),
            qr.maximally_mixed(6),
            qr.pure_state("0101"),
            qr.pure_state("0+"),
        ],
        ids=["bell", "mixed-2", "mixed-4", "mixed-6", "0101", "0+"],
    )
    def test_the_round_trip_is_exact_at_even_n(self, state):
        # At even n the scale 2**(n/2) is a power of two, and these states' sums of two terms are exact.
        assert np.array_equal(qr.from_stokes(qr.to_stokes(state)).matrix, state.matrix)

    def test_the_partial_transpose_mask_is_the_matrix_transpose_exactly(self):
        image = qr.apply_mask(qr.mask_partial_transpose(2, (1,)), qr.bell_state()).matrix
        assert np.array_equal(image, partial_transpose(qr.bell_state(), (1,)))


def built_images(n, rng, size):
    """Each image the library computes from checked values, by site, of random states (stacks of ``size`` if set)."""
    rho = qr.random_density(n, "mixed_dirichlet", rng, size=size)
    s = qr.to_stokes(rho)
    blocks = np.stack([np.eye(4)] * n)
    blocks[:, 1:, 1:] = qr.random_reflection(rng, n)
    images = {
        "haar_pure": qr.random_density(n, "haar_pure", rng, size=size),
        "mixed_dirichlet": rho,
        "bounded_spectrum": qr.random_density(n, "bounded_spectrum", rng, c=(1 + 2.0**-n) / 2, size=size),
        "remix": qr.remix(rho, 0.3),
        "to_stokes": s,
        "from_stokes": qr.from_stokes(s),
        "from_stokes-reflected": qr.apply_mask(qr.mask_total_reflection(n), rho),
        "to_real_density": qr.to_real_density(s),
        "real_density_to_stokes": qr.real_density_to_stokes(qr.to_real_density(s)),
        "complement": qr.complement(rho),
        "apply_local_orthogonal": qr.apply_local_orthogonal(qr.LocalOrthogonalMap(blocks), s),
    }
    if n >= 2:
        images["relaxed_reflection"] = qr.relaxed_reflection(rho)
    return images


class TestBuiltImages:
    """A computed image skips the input checks; each would have passed them, bit for bit."""

    @pytest.mark.parametrize("size", [None, 3], ids=["single", "stack"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_every_built_image_passes_its_types_full_check(self, n, size, rng):
        images = built_images(n, rng, size)
        assert len(images) == (11 if n == 1 else 12)
        for site, image in images.items():
            assert image.n == n and image.is_stack == (size is not None), site
            checked = type(image)(image._array, stack=image.is_stack)
            assert np.array_equal(checked._array, image._array), site
            assert checked._array.dtype == image._array.dtype and not image._array.flags.writeable, site
            if isinstance(image, qr.DensityState):
                assert np.array_equal(checked.spectrum, image.spectrum), site


class TestNumberRule:
    """Every array input must hold numbers: numpy would read bools as 0 and 1 and parse strings as numbers."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: qr.HermitianOperator([[True, False], [False, False]]),
            lambda: qr.DensityState([[True, False], [False, False]]),
            lambda: qr.HermitianOperator(np.eye(2, dtype=object) / 2),
            lambda: StokesTensor(["0.7071067811865476", "0", "0", "0"]),
            lambda: StokesTensor(np.array([[2**-0.5, 0, 0, 0]], dtype=object), stack=True),
            lambda: SignMask([True] * 4),
            lambda: qr.RealDensityMatrix(np.eye(2, dtype=bool)),
            lambda: qr.LocalOrthogonalMap([np.eye(4).astype(str)]),
            lambda: qr.LocalOrthogonalMap.single_qubit(1, 1, np.eye(3, dtype=bool)),
            lambda: qr.ket([True, False]),
            lambda: qr.ppt_test(np.diag([True, False, False, False]), (1,)),
        ],
        ids=[
            "hermitian-bool",
            "density-bool",
            "hermitian-object",
            "stokes-str",
            "stokes-stack-object",
            "mask-bool",
            "real-density-bool",
            "local-map-str",
            "single-qubit-rotation-bool",
            "ket-bool",
            "ppt-test-bool",
        ],
    )
    def test_bool_string_and_object_arrays_are_refused(self, build):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="entries must be numbers, got an array of dtype"):
                build()


class TestRealInput:
    """A real checked type refuses a nonzero imaginary part instead of dropping it."""

    @pytest.mark.parametrize("kind", ["StokesTensor", "RealDensityMatrix", "SignMask"])
    def test_complex_input_rejected(self, kind):
        cls, valid, accessor = CHECKED_TYPES[kind]
        data = valid(1).astype(complex)
        data.flat[1] += 0.3j
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="must be real"):
                cls(data)
            stack = np.stack([valid(1), data]).astype(complex)
            with pytest.raises(ValueError, match="member 1: entries must be real"):
                cls(stack, stack=True)
            # A zero imaginary part is a real number.
            assert np.array_equal(getattr(cls(valid(1).astype(complex)), accessor), valid(1))

    def test_a_local_map_block_is_a_real_input(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(qr.LocalOrthogonalMap([np.eye(4) + 0j]).blocks[0], np.eye(4))
            with pytest.raises(ValueError, match="must be real"):
                qr.LocalOrthogonalMap([np.eye(4) + 0.1j])

    def test_stokes_literal_from_the_report(self):
        with pytest.raises(ValueError, match="must be real"):
            StokesTensor([2**-0.5, 0.3j, 0, 0])

    def test_raw_real_density_rejected(self):
        entries = np.eye(2, dtype=complex)
        entries[1, 0] = 0.2j
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="must be real"):
                qr.real_density_to_stokes(entries)


# Each Stokes-side entry called on (a Stokes tensor, a sign mask, a local orthogonal map).
STOKES_SIDE_ENTRIES = {
    "from_stokes": lambda s, mask, lomap: qr.from_stokes(s),
    "to_real_density": lambda s, mask, lomap: qr.to_real_density(s),
    "stokes_as_matrix": lambda s, mask, lomap: qr.stokes_as_matrix(s),
    "purity": lambda s, mask, lomap: qr.purity(s),
    "ccn_via_stokes": lambda s, mask, lomap: qr.ccn_via_stokes(s),
    "lorentz_metric": lambda s, mask, lomap: qr.lorentz_metric(s),
    "classify": lambda s, mask, lomap: qr.classify(mask),
    "apply_mask": lambda s, mask, lomap: qr.apply_mask(mask, qr.bell_state()),
    "apply_local_orthogonal": lambda s, mask, lomap: qr.apply_local_orthogonal(lomap, qr.bell_state()),
}


class TestInputRule:
    """Every public entry takes its checked type or an array checked into it, and refuses another checked value."""

    @pytest.mark.parametrize("name", list(STOKES_SIDE_ENTRIES))
    def test_an_array_enters_where_its_checked_value_does(self, name):
        call = STOKES_SIDE_ENTRIES[name]
        s = qr.to_stokes(qr.bell_state())
        mask = qr.mask_partial_transpose(2, (1,))
        lomap = qr.LocalOrthogonalMap.single_qubit(2, 1, np.diag([1.0, -1.0, 1.0]))
        checked = call(s, mask, lomap)
        raw = call(s.values.tolist(), mask.signs.tolist(), [block.tolist() for block in lomap.blocks])
        assert type(raw) is type(checked)
        plain = lambda value: value._array if isinstance(value, stokes._Checked) else value  # noqa: E731
        assert np.array_equal(plain(raw), plain(checked))

    @pytest.mark.parametrize(
        "call, wanted",
        [
            (lambda: qr.HermitianOperator(qr.bell_state()), "a HermitianOperator"),
            (lambda: qr.to_stokes(qr.to_stokes(qr.bell_state())), "a HermitianOperator"),
            (lambda: qr.from_stokes(qr.bell_state()), "a StokesTensor"),
            (lambda: qr.DensityState(qr.to_stokes(qr.bell_state())), "a DensityState"),
            (lambda: qr.apply_local_orthogonal(qr.to_stokes(qr.bell_state()), qr.bell_state()), "a LocalOrthogonalMap"),
        ],
        ids=["HermitianOperator", "to_stokes", "from_stokes", "DensityState", "apply_local_orthogonal"],
    )
    def test_another_checked_value_is_a_type_error(self, call, wanted):
        with pytest.raises(TypeError, match=rf"^{wanted} is checked from .+, got a (DensityState|StokesTensor)$"):
            call()

    def test_a_density_state_honours_its_stack_flag(self):
        one = qr.HermitianOperator(np.eye(4) / 4)
        stack = qr.HermitianOperator(np.stack([np.eye(4) / 4] * 2), stack=True)
        with pytest.raises(ValueError, match=r"^stack=True needs a stack, got HermitianOperator\(n=2\)$"):
            qr.DensityState(one, stack=True)
        one_wanted = r"^stack=False needs one operator, got HermitianOperator\(n=2, stack=2\)$"
        with pytest.raises(ValueError, match=one_wanted):
            qr.DensityState(stack)
        assert qr.DensityState(stack, stack=True).is_stack and not qr.DensityState(one).is_stack


A = 1.7e308


def stokes_rows(n, components, value):
    """Three trace-one Stokes rows on ``n`` qubits; member 1 holds ``value`` at ``components``."""
    members = np.zeros((3, 4**n))
    members[:, 0] = 2 ** (-n / 2)
    members[1, components] = value
    return members


def operator_stack(entries, value, dim=4):
    """Three maximally mixed matrices; member 1 holds ``value`` at ``entries``."""
    members = np.stack([np.eye(dim, dtype=complex) / dim] * 3)
    for entry in entries:
        members[(1, *entry)] = value
    return members


def spectral_stack(first, second):
    ops = np.stack([np.eye(2, dtype=complex) / 2] * 4)
    ops[1], ops[2] = first, second
    return ops


SPECTRUM_PAST_THE_RANGE = np.array([[0.5, A + A * 1j], [A - A * 1j, 0.5]])
NEGATIVE = np.diag([1.5, -0.5])
# Diagonal blocks on qubits 2 and 3 that sum past the float range, and a lift whose images scale * lift - rho would.
LIFT_PAST_THE_RANGE = np.diag([0, 0, -A, -A, 0, 1, A, A])
IMAGE_PAST_THE_RANGE = np.eye(8) / 8
IMAGE_PAST_THE_RANGE[[0, 1, 2, 3], [4, 5, 6, 7]] = -A, A / 2, A, A / 2
IMAGE_PAST_THE_RANGE = np.triu(IMAGE_PAST_THE_RANGE) + np.triu(IMAGE_PAST_THE_RANGE, 1).T
LIFT_CALLS = {
    "reduction_criterion": lambda op: qr.reduction_criterion(op, (2, 3)),
    "reflection_report": lambda op: qr.reflection_report(op, (2, 3)),
    "relaxed_reflection": lambda op: qr.relaxed_reflection(op, (2, 3)),
    "identity_times_reduction": lambda op: identity_times_reduction(op, (2, 3)),
}
ROTATION = np.array([[0.5**0.5, -(0.5**0.5), 0], [0.5**0.5, 0.5**0.5, 0], [0, 0, 1]])
WIDE_BLOCK = np.eye(4)
WIDE_BLOCK[1, 1] = 1e200


def spectrum_past_the_range_in_member_two():
    ops = np.stack([np.eye(4, dtype=complex) / 4] * 4)
    ops[2, 0, 1], ops[2, 1, 0] = A + A * 1j, A - A * 1j
    return ops


HUGE_SPECTRUM_DOC = {"n": 1, "format": "hermitian", "re": [[0.5, A], [A, 0.5]], "im": [[0.0, A], [-A, 0.0]]}


def stack_of_blocks():
    blocks = np.stack([np.eye(4)] * 3)
    blocks[2] = WIDE_BLOCK
    return [blocks]


# Inputs with a finite entry past the magnitude limit: (call, the member named for a stack, *inputs).  Each used to
# reach a kernel that summed, squared or solved past the float range, or, for the last cases, warned of an overflow.
PAST_THE_LIMIT = {
    "cancelling-trace-from-stokes": (qr.from_stokes, None, [2**-0.5, A, A, A]),
    "to_stokes-single": (qr.to_stokes, None, operator_stack([(0, 1), (1, 0)], A, 2)[1]),
    "to_stokes-stack": (
        lambda m: qr.to_stokes(qr.HermitianOperator(m, stack=True)), 1, operator_stack([(0, 1), (1, 0)], A, 2)
    ),
    "from_stokes-single": (qr.from_stokes, None, stokes_rows(2, [3, 15], A)[1]),
    "from_stokes-stack": (lambda v: qr.from_stokes(StokesTensor(v, stack=True)), 1, stokes_rows(2, [3, 15], A)),
    "apply_local_orthogonal-single": (
        lambda v: qr.apply_local_orthogonal(qr.LocalOrthogonalMap.single_qubit(1, 1, ROTATION), StokesTensor(v)),
        None,
        stokes_rows(1, [1, 2], A)[1],
    ),
    "apply_local_orthogonal-stack": (
        lambda v: qr.apply_local_orthogonal(
            qr.LocalOrthogonalMap.single_qubit(1, 1, ROTATION), StokesTensor(v, stack=True)
        ),
        1,
        stokes_rows(1, [1, 2], A),
    ),
    "to_real_density-single": (qr.to_real_density, None, stokes_rows(1, [1], A)[1]),
    "to_real_density-stack": (lambda v: qr.to_real_density(StokesTensor(v, stack=True)), 1, stokes_rows(1, [1], A)),
    "spectrum-beyond-the-float-range": (qr.DensityState, None, SPECTRUM_PAST_THE_RANGE),
    "spectral-checks-negative-first": (
        lambda m: qr.DensityState(m, stack=True), 2, spectral_stack(NEGATIVE, SPECTRUM_PAST_THE_RANGE)
    ),
    "spectral-checks-non-finite-first": (
        lambda m: qr.DensityState(m, stack=True), 1, spectral_stack(SPECTRUM_PAST_THE_RANGE, NEGATIVE)
    ),
    "checks-defect": (qr.HermitianOperator, None, [[0.5, 1e308], [-1e308, 0.5]]),
    "checks-defect-modulus": (qr.HermitianOperator, None, [[0.5, A + A * 1j], [-A + A * 1j, 0.5]]),
    "checks-cancelling-trace": (qr.HermitianOperator, None, np.diag([A, A, -A, -A])),
    "checks-trace": (qr.HermitianOperator, None, np.diag([A] * 4)),
    "hermitian-part": (qr.HermitianOperator, None, [[0.5, 9e307 - A * 1j], [9e307 + A * 1j, 0.5]]),
    **{
        f"{witness}-{kind}": (
            (lambda v, w=witness: getattr(qr, w)(StokesTensor(v, stack=True)))
            if kind == "stack"
            else getattr(qr, witness),
            1 if kind == "stack" else None,
            stokes_rows(2, components, value) if kind == "stack" else stokes_rows(2, components, value)[1],
        )
        for witness, components, value in [
            ("stokes_as_matrix", [5], 1e308),
            ("lorentz_metric", [5], 1e200),
            ("ccn_via_stokes", [5, 10, 15], 8e307),
            ("purity", [5], 1e200),
        ]
        for kind in ("single", "stack")
    },
    **{
        f"{witness}-{kind}": (
            (lambda m, w=witness: getattr(qr, w)(qr.HermitianOperator(m, stack=True)))
            if kind == "stack"
            else getattr(qr, witness),
            1 if kind == "stack" else None,
            operator_stack(entries, A) if kind == "stack" else operator_stack(entries, A)[1],
        )
        for witness, entries in [
            ("ccn", [(0, 3), (3, 0), (1, 2), (2, 1)]),
            ("concurrence", [(0, 1), (1, 0), (0, 2), (2, 0)]),
        ]
        for kind in ("single", "stack")
    },
    **{
        f"eigenvalue-witness-{name}": (call, None, operator_stack([(0, 1), (1, 0), (0, 2), (2, 0)], A)[1])
        for name, call in [
            ("ppt", lambda m: qr.ppt_test(m, (1,))),
            ("reduction", lambda m: qr.reduction_criterion(m, (1,))),
            ("total_reflection", qr.total_reflection_feasible),
            ("feasibility", qr.feasibility),
            ("reflection_ab", lambda m: qr.reflection_report(m, (1, 2))),
            ("min_eig", qr.min_eig),
        ]
    },
    **{f"lift-{name}": (call, None, LIFT_PAST_THE_RANGE, IMAGE_PAST_THE_RANGE) for name, call in LIFT_CALLS.items()},
    **{
        f"lift-member-{name}": (
            lambda m, call=LIFT_CALLS[name]: call(qr.HermitianOperator(m, stack=True)),
            1,
            np.stack([np.eye(8) / 8, LIFT_PAST_THE_RANGE]),
        )
        for name in ("relaxed_reflection", "identity_times_reduction")
    },
    "stack-non-finite-spectrum": (lambda m: qr.DensityState(m, stack=True), 2, spectrum_past_the_range_in_member_two()),
    "stack-cancelled-trace": (
        lambda v: qr.from_stokes(StokesTensor(v, stack=True)), 2, stokes_rows(2, [1, 2, 3], A)[[0, 0, 1, 0]]
    ),
    "cli-load": (lambda doc: parse_density(json.dumps(doc).encode(), "state.json"), None, HUGE_SPECTRUM_DOC),
    "local-orthogonal-block": (lambda block: qr.LocalOrthogonalMap([block, np.eye(4)]), None, WIDE_BLOCK),
    "local-orthogonal-stack": (qr.LocalOrthogonalMap, 2, stack_of_blocks()),
    "single-qubit-rotation": (lambda r: qr.LocalOrthogonalMap.single_qubit(2, 1, r), None, np.diag([1e200, 1, 1])),
    "ket": (qr.ket, None, [1e200, 1e200]),
}


def finite_numbers(result):
    """Every number a kernel or witness returned, as one float array."""
    if isinstance(result, stokes._Checked):
        return np.abs(result._array)
    if isinstance(result, qr.CriterionReport):
        return np.array([result.witness, *result.extra.values()], dtype=float)
    if isinstance(result, tuple):
        return np.array([result[0], *result[1].values()], dtype=float)
    return np.abs(np.asarray(result))


def kernels_at_the_limit(n):
    """Every kernel and witness on ``n`` qubits, called on inputs whose entries sit at the magnitude limit."""
    dim, limit = 2**n, MAGNITUDE_LIMIT
    # Off-diagonal entries L and iL (modulus exactly L) above the diagonal, their conjugates below it.
    upper = np.triu(np.where(np.add.outer(np.arange(dim), np.arange(dim)) % 2, 1j, 1.0) * limit, 1)
    m = np.eye(dim) / dim + upper + upper.conj().T
    values = np.where(np.arange(4**n) % 3, limit, -limit)
    values[0] = 2 ** (-n / 2)
    entries = np.full((dim, dim), -limit)
    entries[0, 0] = 1.0
    op, s = qr.HermitianOperator(m), StokesTensor(values)
    stack = qr.HermitianOperator(np.stack([m, np.eye(dim) / dim]), stack=True)
    everything = tuple(range(1, n + 1))
    mask = qr.mask_total_reflection(n)
    lomap = qr.LocalOrthogonalMap.single_qubit(n, 1, ROTATION)
    calls = {
        "to_stokes": lambda: qr.to_stokes(op),
        "to_stokes-stack": lambda: qr.to_stokes(stack),
        "from_stokes": lambda: qr.from_stokes(s),
        "to_real_density": lambda: qr.to_real_density(s),
        "real_density_to_stokes": lambda: qr.real_density_to_stokes(entries),
        "density_state": lambda: qr.DensityState(m),
        "partial_transpose": lambda: partial_transpose(op, (1,)),
        "lift-one": lambda: identity_times_reduction(op, (1,)),
        "lift-all": lambda: identity_times_reduction(stack, everything),
        "complement": lambda: qr.complement(op),
        "min_eig": lambda: qr.min_eig(op),
        "purity": lambda: qr.purity(s),
        "feasibility": lambda: qr.feasibility(stack),
        "total_reflection_feasible": lambda: qr.total_reflection_feasible(op),
        "reflection_report-one": lambda: qr.reflection_report(op, (1,)),
        "reflection_report-all": lambda: qr.reflection_report(op, everything),
        "apply_mask-stokes": lambda: qr.apply_mask(mask, s),
        "apply_mask-operator": lambda: qr.apply_mask(mask, op),
        "apply_local_orthogonal-stokes": lambda: qr.apply_local_orthogonal(lomap, s),
        "apply_local_orthogonal-operator": lambda: qr.apply_local_orthogonal(lomap, op),
    }
    if n >= 2:
        calls.update(
            {
                "relaxed_reflection": lambda: qr.relaxed_reflection(stack),
                "ppt_test": lambda: qr.ppt_test(op, (1,)),
                "reduction_criterion": lambda: qr.reduction_criterion(op, (1,)),
                "ccn": lambda: qr.ccn(stack, (1,)),
                "ccn_report": lambda: qr.ccn_report(op, (1,)),
            }
        )
    if n >= 3:
        calls["lift-two"] = lambda: qr.reflection_report(op, (1, 2))
        calls["reduction_criterion-two"] = lambda: qr.reduction_criterion(op, (1, 2))
    if n == 2:
        calls.update(
            {
                "stokes_as_matrix": lambda: qr.stokes_as_matrix(s),
                "ccn_via_stokes": lambda: qr.ccn_via_stokes(s),
                "lorentz_metric": lambda: qr.lorentz_metric(s),
                "concurrence": lambda: qr.concurrence(stack),
                "concurrence_report": lambda: qr.concurrence_report(op),
            }
        )
    return calls


LIMIT_MESSAGE = f"entries must be at most {MAGNITUDE_LIMIT:g}"


class TestMagnitudeLimit:
    """A finite entry past the limit is refused where it enters, so no kernel can overflow on what it accepts."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case", list(PAST_THE_LIMIT))
    def test_an_entry_past_the_limit_is_refused_where_it_enters(self, case):
        call, member, *inputs = PAST_THE_LIMIT[case]
        prefix = "" if member is None else f"member {member}: "
        for data in inputs:
            with pytest.raises(ValueError, match=rf"^{prefix}entries must be at most 1e\+150 in magnitude, got "):
                call(data)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_every_kernel_and_witness_stays_finite_at_the_limit(self, n):
        # These eight calls refuse at every n, each with its message: an image of entries at the limit passes the
        # limit (from_stokes at n = 1 first cancels its trace), and the matrix at the limit is no state. Every
        # other call answers finite numbers.
        refused = {
            "to_stokes": LIMIT_MESSAGE,
            "to_stokes-stack": LIMIT_MESSAGE,
            "from_stokes": "trace must equal 1" if n == 1 else LIMIT_MESSAGE,
            "to_real_density": LIMIT_MESSAGE,
            "density_state": "negative eigenvalue",
            "apply_mask-operator": LIMIT_MESSAGE,
            "apply_local_orthogonal-stokes": LIMIT_MESSAGE,
            "apply_local_orthogonal-operator": LIMIT_MESSAGE,
        }
        calls = kernels_at_the_limit(n)
        for name, message in refused.items():
            with pytest.raises(ValueError, match=re.escape(message)):
                calls.pop(name)()
        for name, call in calls.items():
            assert np.isfinite(finite_numbers(call())).all(), name
        assert len(calls) == {1: 12, 2: 22}.get(n, 19)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_nan_and_infinity_keep_their_messages_beside_an_entry_past_the_limit(self, bad):
        values = np.array([2**-0.5, 1e200, bad, 0.0])
        with pytest.raises(ValueError, match="^entries must be finite$"):
            StokesTensor(values)
        with pytest.raises(ValueError, match="^member 1: entries must be finite$"):
            StokesTensor(np.stack([[2**-0.5, 0.0, 0.0, 0.0], values]), stack=True)
        # Every other caller of the finite pass, on a stack whose bad member follows a bounded one.
        square = np.array([[1.0, 1e200], [bad, 0.0]])
        block = np.eye(4)
        block[1, 2], block[2, 1] = 1e200, bad
        stacks = [
            (lambda m: qr.HermitianOperator(m, stack=True), [np.eye(2) / 2, square], ""),
            (lambda m: qr.RealDensityMatrix(m, stack=True), [np.diag([1.0, 0.0]), square], ""),
            (lambda s: SignMask(s, stack=True), [[1, -1, 1, -1], values], ""),
            (lambda b: qr.LocalOrthogonalMap([b]), [np.eye(4), block], "block "),
        ]
        for call, members, kind in stacks:
            with pytest.raises(ValueError, match=f"^member 1: {kind}entries must be finite$"):
                call(np.stack(members))
