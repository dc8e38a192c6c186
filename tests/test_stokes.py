"""Representation layer: basis, conversions, reshuffling, reductions."""

import itertools
import json
import math
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
from qreflect.io import state_from_dict, state_to_dict
from qreflect.reflections import SignMask
from qreflect.stokes import StokesTensor, identity_times_reduction, partial_transpose

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
        # Finite values with the right affine component whose trace cancels
        # to 0 in floating point: only the operator's trace check catches it.
        tensor = StokesTensor([2**-0.5, 1.7e308, 1.7e308, 1.7e308])
        with pytest.raises(ValueError, match="trace"):
            qr.from_stokes(tensor)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("stack", [False, True], ids=["single", "stack"])
    @pytest.mark.parametrize("transform", ["to_stokes", "from_stokes", "apply_local_orthogonal", "to_real_density"])
    def test_every_pauli_basis_transform_refuses_an_overflow_without_a_warning(self, transform, stack):
        # finite inputs whose transform sums or scales past the float range; member 1 of a stack overflows
        c = math.sqrt(0.5)
        if transform == "to_stokes":
            members = np.stack([np.eye(2) / 2, [[0.5, 1.7e308], [1.7e308, 0.5]], np.eye(2) / 2])
            build, run = qr.HermitianOperator, qr.to_stokes
        else:
            n = 2 if transform == "from_stokes" else 1
            members = np.zeros((3, 4**n))
            members[:, 0] = 2 ** (-n / 2)
            build = StokesTensor
            if transform == "from_stokes":
                members[1, [3, 15]] = 1.7e308
                run = qr.from_stokes
            elif transform == "apply_local_orthogonal":
                members[1, 1:3] = 1.7e308
                lomap = qr.LocalOrthogonalMap.single_qubit(1, 1, [[c, -c, 0], [c, c, 0], [0, 0, 1]])
                run = lambda tensor: qr.apply_local_orthogonal(lomap, tensor)  # noqa: E731
            else:
                members[1, 1] = 1.7e308
                run = qr.to_real_density
        value = build(members, stack=True) if stack else build(members[1])
        with pytest.raises(ValueError, match=("member 1: " if stack else "^") + "entries must be finite$"):
            run(value)

    @pytest.mark.filterwarnings("error")
    def test_a_spectrum_beyond_the_float_range_is_refused_as_such(self):
        # finite, Hermitian and of trace one, but the eigenvalues are +-2.4e308: eigvalsh answers nan
        m = np.array([[0.5, 1.7e308 + 1.7e308j], [1.7e308 - 1.7e308j, 0.5]])
        assert np.array_equal(qr.HermitianOperator(m).matrix, m)
        with pytest.raises(ValueError, match=r"^the spectrum is not finite \(beyond the float range\)$"):
            qr.DensityState(m)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "order,match",
        [
            (("negative", "non-finite"), "member 1: matrix has a negative eigenvalue"),
            (("non-finite", "negative"), "member 1: the spectrum is not finite"),
        ],
        ids=["negative-first", "non-finite-first"],
    )
    def test_a_stack_names_the_first_member_failing_either_spectral_check(self, order, match):
        ops = np.stack([np.eye(2, dtype=complex) / 2] * 4)
        bad = {
            "negative": np.diag([1.5, -0.5]),
            "non-finite": np.array([[0.5, 1.7e308 + 1.7e308j], [1.7e308 - 1.7e308j, 0.5]]),
        }
        ops[1], ops[2] = bad[order[0]], bad[order[1]]
        with pytest.raises(ValueError, match=match):
            qr.DensityState(ops, stack=True)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "entries,message",
        [
            ([[0.5, 1e308], [-1e308, 0.5]], r"not Hermitian \(defect inf\)"),
            ([[0.5, 1.7e308 + 1.7e308j], [-1.7e308 + 1.7e308j, 0.5]], r"not Hermitian \(defect inf\)"),
            (np.diag([1.7e308, 1.7e308, -1.7e308, -1.7e308]), "trace must equal 1, got 0"),
            (np.diag([1.7e308] * 4), "trace must equal 1, got inf"),
        ],
        ids=["defect", "defect-modulus", "cancelling-trace", "trace"],
    )
    def test_finite_entries_cannot_overflow_the_checks(self, entries, message):
        with pytest.raises(ValueError, match=message):
            qr.HermitianOperator(entries)

    @pytest.mark.filterwarnings("error")
    def test_huge_hermitian_entries_keep_a_finite_hermitian_part(self):
        m = np.array([[0.5, 9e307 - 1.7e308j], [9e307 + 1.7e308j, 0.5]])
        assert np.array_equal(qr.HermitianOperator(m).matrix, m)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_the_kept_part_is_the_unscaled_hermitian_part(self, n, rng):
        m = qr.random_density(n, "mixed_dirichlet", rng).matrix
        m = m + 1e-11 * (rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape))
        m = m - np.eye(2**n) * (np.trace(m) - 1) / 2**n
        assert np.array_equal(qr.HermitianOperator(m).matrix, (m + m.conj().T) / 2)

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

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError):
            qr.stokes_as_matrix(qr.to_stokes(qr.maximally_mixed(1)))

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
    "classify": lambda rho, s: qr.classify(SignMask(np.ones((2, 16)), stack=True)),
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

    def test_a_stack_is_declared_not_inferred(self):
        # One extra leading axis is a stack only when asked for.
        with pytest.raises(ValueError):
            qr.HermitianOperator((np.eye(2) / 2)[None])
        assert qr.HermitianOperator((np.eye(2) / 2)[None], stack=True).is_stack

    @pytest.mark.parametrize(
        "kind",
        ["non-hermitian", "trace", "nan", "negative-eigenvalue", "non-finite-spectrum", "affine", "cancelled-trace"],
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
        elif kind == "non-finite-spectrum":
            ops[2, 0, 1], ops[2, 1, 0] = 1.7e308 + 1.7e308j, 1.7e308 - 1.7e308j
            build, match = lambda: qr.DensityState(ops, stack=True), "member 2: the spectrum is not finite"
        elif kind == "affine":
            values[2, 0] = 0.0
            build, match = lambda: StokesTensor(values, stack=True), "member 2: affine component"
        else:
            # Right affine component, finite values, but the trace cancels to 0 in floating point.
            values[2, [1, 2, 3]] = 1.7e308
            build, match = lambda: qr.from_stokes(StokesTensor(values, stack=True)), "member 2: trace must equal 1"
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
