"""Sign masks, local orthogonal actions, operator sums, relaxed reflection."""

import numpy as np
import pytest
from conftest import oracle_partial_transpose
from hypothesis import given, settings
from hypothesis import strategies as st

import qreflect as qr
from qreflect.reflections import SignMask


def stokes_of(rho):
    return qr.to_stokes(rho)


class TestMaskConstructors:
    def test_partial_transpose_single_qubit(self):
        mask = qr.mask_partial_transpose(2, (1,))
        flipped = {i for i, s in enumerate(mask.signs) if s < 0}
        assert flipped == {8, 9, 10, 11}  # the 2k block of qubit A

    def test_partial_transpose_both(self):
        mask = qr.mask_partial_transpose(2, (1, 2))
        assert qr.classify(mask).sign_change_count == 6
        # minus exactly where one digit is 2 and the other is not
        for i, s in enumerate(mask.signs):
            j, k = divmod(i, 4)
            assert (s < 0) == ((j == 2) != (k == 2))

    def test_partial_transpose_empty_subset(self):
        assert np.all(qr.mask_partial_transpose(2, ()).signs == 1)

    def test_spin_flip_counts(self):
        assert qr.classify(qr.mask_spin_flip(2, (1,))).sign_change_count == 12
        both = qr.mask_spin_flip(2, (1, 2))
        assert qr.classify(both).sign_change_count == 6
        # the two-body block is untouched
        for i, s in enumerate(both.signs):
            j, k = divmod(i, 4)
            if j != 0 and k != 0:
                assert s == 1

    def test_spin_flip_negates_bloch_vector(self, rng):
        rho = qr.random_density(1, "mixed_dirichlet", rng)
        s = stokes_of(rho)
        flipped = qr.apply_mask(qr.mask_spin_flip(1, (1,)), s)
        np.testing.assert_allclose(flipped.values[1:], -s.values[1:])
        assert flipped.values[0] == s.values[0]

    def test_total_reflection_two_qubits(self):
        mask = qr.mask_total_reflection(2)
        assert qr.classify(mask).sign_change_count == 15
        assert mask.signs[0] == 1

    def test_total_reflection_three_qubits_formula(self, rng):
        rho = qr.random_density(3, "mixed_dirichlet", rng)
        image = qr.apply_mask(qr.mask_total_reflection(3), rho)
        assert np.abs(image.matrix - (np.eye(8) / 4 - rho.matrix)).max() < 1e-12

    def test_partial_reflection_fixes_reduced_block(self):
        mask = qr.mask_total_reflection(3, (1, 2))
        for i, s in enumerate(mask.signs):
            j, rest = divmod(i, 16)
            k, l = divmod(rest, 4)
            assert (s > 0) == (j == 0 and k == 0)

    def test_two_body_flip_is_composition(self):
        composed = qr.mask_spin_flip(2, (1, 2)).signs * qr.mask_total_reflection(2).signs
        assert np.array_equal(qr.mask_two_body_flip().signs, composed)
        for i, s in enumerate(qr.mask_two_body_flip().signs):
            j, k = divmod(i, 4)
            assert (s < 0) == (j != 0 and k != 0)


TABLE1_BUILDERS = [
    lambda: qr.mask_partial_transpose(2, (1,)),
    lambda: qr.mask_partial_transpose(2, (2,)),
    lambda: qr.mask_partial_transpose(2, (1, 2)),
    lambda: qr.mask_spin_flip(2, (1,)),
    lambda: qr.mask_spin_flip(2, (2,)),
    lambda: qr.mask_spin_flip(2, (1, 2)),
    lambda: qr.mask_total_reflection(2),
]


class TestMaskInvariants:
    @pytest.mark.parametrize("builder", TABLE1_BUILDERS)
    def test_involution_exact(self, builder, rng):
        mask = builder()
        s = stokes_of(qr.random_density(2, "mixed_dirichlet", rng))
        twice = qr.apply_mask(mask, qr.apply_mask(mask, s))
        assert np.array_equal(twice.values, s.values)

    @pytest.mark.parametrize("builder", TABLE1_BUILDERS)
    def test_trace_norm_and_inner_products(self, builder, rng):
        mask = builder()
        a = qr.random_density(2, "mixed_dirichlet", rng)
        b = qr.random_density(2, "mixed_dirichlet", rng)
        ia, ib = qr.apply_mask(mask, a), qr.apply_mask(mask, b)
        assert abs(np.trace(ia.matrix).real - 1.0) < 1e-12
        assert abs(qr.purity(stokes_of(ia)) - qr.purity(stokes_of(a))) < 1e-12
        before = np.trace(a.matrix @ b.matrix).real
        after = np.trace(ia.matrix @ ib.matrix).real
        assert abs(before - after) < 1e-12

    def test_identity_mask(self, rng):
        rho = qr.random_density(2, "mixed_dirichlet", rng)
        image = qr.apply_mask(qr.mask_identity(2), rho)
        assert np.abs(image.matrix - rho.matrix).max() < 1e-12

    def test_total_reflection_matches_affine_form(self, rng):
        rho = qr.random_density(2, "mixed_dirichlet", rng)
        image = qr.apply_mask(qr.mask_total_reflection(2), rho)
        assert np.abs(image.matrix - (np.eye(4) / 2 - rho.matrix)).max() < 1e-12

    def test_transpose_mask_is_matrix_transpose(self, rng):
        rho = qr.random_density(1, "mixed_dirichlet", rng)
        image = qr.apply_mask(qr.mask_partial_transpose(1, (1,)), rho)
        assert np.abs(image.matrix - rho.matrix.T).max() < 1e-13

    def test_partial_transpose_matches_entrywise_oracle(self, rng):
        rho = qr.random_density(3, "mixed_dirichlet", rng)
        for subset in [(1,), (2,), (1, 3)]:
            image = qr.apply_mask(qr.mask_partial_transpose(3, subset), rho)
            oracle = oracle_partial_transpose(rho.matrix, 3, subset)
            assert np.abs(image.matrix - oracle).max() < 1e-12

    def test_mismatched_sizes_rejected(self, rng):
        with pytest.raises(ValueError):
            qr.apply_mask(qr.mask_total_reflection(2), qr.random_density(3, "mixed_dirichlet", rng))

    def test_one_qubit_reflections_preserve_spectrum(self, rng):
        rho = qr.random_density(1, "mixed_dirichlet", rng)
        base = qr.eig_hermitian(rho).eigenvalues
        for mask in (qr.mask_partial_transpose(1, (1,)), qr.mask_spin_flip(1, (1,))):
            image = qr.apply_mask(mask, rho)
            assert np.abs(qr.eig_hermitian(image).eigenvalues - base).max() < 1e-12

    def test_double_flip_and_double_transpose_share_spectra(self, rng):
        rho = qr.random_density(2, "mixed_dirichlet", rng)
        flip = qr.apply_mask(qr.mask_spin_flip(2, (1, 2)), rho)
        transpose = qr.apply_mask(qr.mask_partial_transpose(2, (1, 2)), rho)
        gap = qr.eig_hermitian(flip).eigenvalues - qr.eig_hermitian(transpose).eigenvalues
        assert np.abs(gap).max() < 1e-10

    def test_total_reflection_commutes_with_unitaries(self, rng):
        for n in (2, 3):
            rho = qr.random_density(n, "mixed_dirichlet", rng)
            u = qr.random_unitary(2**n, rng)
            mask = qr.mask_total_reflection(n)
            lhs = qr.apply_mask(mask, qr.HermitianOperator(u @ rho.matrix @ u.conj().T))
            rhs = u @ qr.apply_mask(mask, rho).matrix @ u.conj().T
            assert np.abs(lhs.matrix - rhs).max() < 1e-10

    def test_pure_state_reflection_spectrum(self, rng):
        for _ in range(20):
            rho = qr.random_density(2, "haar_pure", rng)
            image = qr.apply_mask(qr.mask_total_reflection(2), rho)
            vals = qr.eig_hermitian(image).eigenvalues
            np.testing.assert_allclose(vals, [0.5, 0.5, 0.5, -0.5], atol=1e-10)

    def test_partial_reflection_norm_but_not_spectrum(self, rng):
        rho = qr.random_density(3, "mixed_dirichlet", rng)
        s = stokes_of(rho)
        image = qr.apply_mask(qr.mask_total_reflection(3, (1, 2)), s)
        assert abs(qr.purity(image) - qr.purity(s)) < 1e-12
        moved = qr.eig_hermitian(qr.from_stokes(image)).eigenvalues
        assert np.abs(moved - qr.eig_hermitian(rho).eigenvalues).max() > 1e-6


class TestClassification:
    def test_table1_sign_change_counts(self):
        counts = [qr.classify(b()).sign_change_count for b in TABLE1_BUILDERS]
        assert counts == [4, 4, 6, 12, 12, 6, 15]

    def test_total_reflection_is_orientation_changing(self):
        info = qr.classify(qr.mask_total_reflection(2))
        assert info.orientation == "changing"
        assert not info.local_factorizable

    def test_local_masks_preserve_orientation(self):
        for builder in TABLE1_BUILDERS[:-1]:
            info = qr.classify(builder())
            assert info.orientation == "preserving"
            assert info.local_factorizable

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=3),
        bits=st.lists(st.tuples(st.booleans(), st.booleans(), st.booleans()), min_size=3, max_size=3),
    )
    def test_product_masks_factorize(self, n, bits):
        factors = []
        for flags in bits[:n]:
            f = np.array([1] + [-1 if b else 1 for b in flags], dtype=np.int64)
            factors.append(f)
        outer = factors[0]
        for f in factors[1:]:
            outer = np.multiply.outer(outer, f).reshape(-1)
        info = qr.classify(SignMask(outer, name="product"))
        assert info.local_factorizable
        assert info.orientation == "preserving"
        assert info.sign_change_count % 2 == 0

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(min_value=1, max_value=3), seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_any_mask_is_involutory(self, n, seed):
        rng = np.random.default_rng(seed)
        signs = rng.choice([-1, 1], size=4**n).astype(np.int8)
        signs[0] = 1
        mask = SignMask(signs)
        rho = qr.random_density(n, "mixed_dirichlet", rng)
        s = stokes_of(rho)
        assert np.array_equal(qr.apply_mask(mask, qr.apply_mask(mask, s)).values, s.values)


class TestChoiRelatedPair:
    def test_choi_relation_on_the_masks(self):
        first, second = qr.choi_related_mask_pair()
        assert np.array_equal(qr.choi_reshuffle(first.astype(float)), second.astype(float))

    def test_hadamard_routes_agree_exactly(self, rng):
        first, second = qr.choi_related_mask_pair()
        for _ in range(10):
            rho = qr.random_density(2, "mixed_dirichlet", rng)
            s = stokes_of(rho)
            via_real = qr.apply_real_density_mask(first, rho)
            masked_stokes = second * qr.stokes_as_matrix(s)
            from qreflect.stokes import StokesTensor

            via_stokes = qr.from_stokes(StokesTensor(masked_stokes.reshape(-1) / 2.0))
            assert np.array_equal(via_real.matrix, via_stokes.matrix)

    def test_neither_stokes_mask_is_positive(self, rng):
        first, second = qr.choi_related_mask_pair()
        for display in (first, second):
            mask = SignMask(display.reshape(-1))
            found = False
            for _ in range(100):
                rho = qr.random_density(2, "haar_pure", rng)
                if qr.min_eig(qr.apply_mask(mask, rho).matrix) < -1e-6:
                    found = True
                    break
            assert found

    def test_both_orientation_preserving_not_factorizable(self):
        for display in qr.choi_related_mask_pair():
            info = qr.classify(SignMask(display.reshape(-1)))
            assert info.orientation == "preserving"
            assert info.sign_change_count == 4
            assert not info.local_factorizable


class TestLocalOrthogonal:
    def test_rotation_from_unitary_conjugation(self, rng):
        for _ in range(10):
            u = qr.random_unitary(2, rng)
            r = qr.rotation_from_unitary(u)
            lomap = qr.LocalOrthogonalMap.single_qubit(1, 1, r)
            rho = qr.random_density(1, "mixed_dirichlet", rng)
            image = qr.apply_local_orthogonal(lomap, rho)
            assert np.abs(image.matrix - u @ rho.matrix @ u.conj().T).max() < 1e-10

    def test_distinct_rotation_on_every_qubit(self, rng):
        us = [qr.random_unitary(2, rng) for _ in range(3)]
        blocks = [np.eye(4) for _ in us]
        for block, u in zip(blocks, us):
            block[1:, 1:] = qr.rotation_from_unitary(u)
        lomap = qr.LocalOrthogonalMap(blocks)
        rho = qr.random_density(3, "mixed_dirichlet", rng)
        u = np.kron(np.kron(us[0], us[1]), us[2])
        image = qr.apply_local_orthogonal(lomap, rho)
        assert np.abs(image.matrix - u @ rho.matrix @ u.conj().T).max() < 1e-10

    def test_transpose_rotation_matches_mask(self, rng):
        r_t = np.diag([1.0, -1.0, 1.0])
        lomap = qr.LocalOrthogonalMap.single_qubit(2, 1, r_t)
        rho = qr.random_density(2, "mixed_dirichlet", rng)
        via_map = qr.apply_local_orthogonal(lomap, rho)
        via_mask = qr.apply_mask(qr.mask_partial_transpose(2, (1,)), rho)
        assert np.abs(via_map.matrix - via_mask.matrix).max() < 1e-12

    def test_reflections_share_the_transpose_spectrum(self, rng):
        for _ in range(10):
            rho = qr.random_density(2, "mixed_dirichlet", rng)
            r = qr.random_reflection(rng)
            lomap = qr.LocalOrthogonalMap.single_qubit(2, 1, r)
            generic = qr.eig_hermitian(qr.apply_local_orthogonal(lomap, rho)).eigenvalues
            transposed = qr.eig_hermitian(qr.apply_mask(qr.mask_partial_transpose(2, (1,)), rho)).eigenvalues
            assert np.abs(generic - transposed).max() < 1e-9

    def test_norm_preserved(self, rng):
        rho = qr.random_density(2, "mixed_dirichlet", rng)
        lomap = qr.LocalOrthogonalMap.single_qubit(2, 2, qr.random_rotation(rng))
        image = qr.apply_local_orthogonal(lomap, stokes_of(rho))
        assert abs(qr.purity(image) - qr.purity(stokes_of(rho))) < 1e-12

    def test_non_orthogonal_block_rejected(self):
        with pytest.raises(ValueError):
            qr.LocalOrthogonalMap.single_qubit(1, 1, np.array([[1.0, 0.2, 0], [0, 1, 0], [0, 0, 1]]))

    @pytest.mark.parametrize("qubit", [0, 3])
    def test_single_qubit_out_of_range_rejected(self, qubit):
        # qubit 0 used to index blocks[-1] and rotate the last qubit instead
        with pytest.raises(ValueError, match="outside 1..2"):
            qr.LocalOrthogonalMap.single_qubit(2, qubit, np.diag([1.0, -1.0, 1.0]))

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_block_rejected(self, value):
        # a NaN compares false against every tolerance, so it used to pass both block checks
        block = np.eye(4)
        block[1, 1] = value
        with pytest.raises(ValueError, match="finite"):
            qr.LocalOrthogonalMap([block, np.eye(4)])


class TestOperatorSums:
    def test_transpose_route(self, rng):
        for _ in range(20):
            rho = qr.random_density(1, "mixed_dirichlet", rng)
            lhs = qr.one_qubit_operator_sum("transpose", rho)
            rhs = qr.apply_mask(qr.mask_partial_transpose(1, (1,)), rho)
            assert np.abs(lhs.matrix - rhs.matrix).max() < 1e-12

    def test_spin_flip_route_and_orthogonality(self, rng):
        flipped = qr.one_qubit_operator_sum("spin_flip", qr.pure_state("0"))
        expected = np.diag([0.0, 1.0])
        assert np.abs(flipped.matrix - expected).max() < 1e-13
        rho = qr.random_density(1, "mixed_dirichlet", rng)
        lhs = qr.one_qubit_operator_sum("spin_flip", rho)
        rhs = qr.apply_mask(qr.mask_spin_flip(1, (1,)), rho)
        assert np.abs(lhs.matrix - rhs.matrix).max() < 1e-12

    def test_spin_flip_conjugation_oracle(self, rng):
        sigma_y = np.array([[0, -1j], [1j, 0]])
        rho = qr.random_density(1, "mixed_dirichlet", rng)
        oracle = sigma_y @ rho.matrix.conj() @ sigma_y
        lhs = qr.one_qubit_operator_sum("spin_flip", rho)
        assert np.abs(lhs.matrix - oracle).max() < 1e-12

    def test_unknown_kind_rejected(self, rng):
        with pytest.raises(ValueError):
            qr.one_qubit_operator_sum("mirror", qr.random_density(1, "mixed_dirichlet", rng))

    def test_two_body_flip_operator_sum(self, rng):
        for _ in range(20):
            rho = qr.random_density(2, "mixed_dirichlet", rng)
            lhs = qr.two_body_flip_operator_sum(rho)
            rhs = qr.apply_mask(qr.mask_two_body_flip(), rho)
            assert np.abs(lhs.matrix - rhs.matrix).max() < 1e-12

    def test_two_body_flip_pure_spectrum(self, rng):
        rho = qr.random_density(2, "haar_pure", rng)
        vals = qr.eig_hermitian(qr.two_body_flip_operator_sum(rho)).eigenvalues
        np.testing.assert_allclose(vals, [0.5, 0.5, 0.5, -0.5], atol=1e-10)

    def test_spin_flipped_partner(self, rng):
        bell = qr.bell_state()
        assert np.abs(qr.spin_flipped_partner(bell).matrix - bell.matrix).max() < 1e-13
        zero_zero = qr.pure_state("00")
        one_one = qr.pure_state("11")
        assert np.abs(qr.spin_flipped_partner(zero_zero).matrix - one_one.matrix).max() < 1e-13
        rho = qr.random_density(2, "mixed_dirichlet", rng)
        lhs = qr.spin_flipped_partner(rho)
        rhs = qr.apply_mask(qr.mask_spin_flip(2, (1, 2)), rho)
        assert np.abs(lhs.matrix - rhs.matrix).max() < 1e-12


class TestRelaxedReflection:
    def test_always_positive_on_states(self, rng):
        for _ in range(50):
            rho = qr.random_density(2, "mixed_dirichlet", rng)
            assert qr.min_eig(qr.relaxed_reflection(rho).matrix) >= -1e-10

    def test_remix_identity(self, rng):
        rho = qr.random_density(2, "mixed_dirichlet", rng)
        relaxed = qr.relaxed_reflection(rho)
        remixed = qr.remix(rho, 1.0 / 3.0)
        via_remix = qr.apply_mask(qr.mask_total_reflection(2), remixed)
        assert np.abs(relaxed.matrix - via_remix.matrix).max() < 1e-12

    def test_choi_matrix_not_completely_positive(self):
        choi = qr.choi_matrix_of_map(lambda x: (np.trace(x) * np.eye(4) - x) / 3.0, 4)
        assert qr.min_eig(choi) < -1e-6

    def test_embedded_pair_on_three_qubits(self, rng):
        rho = qr.random_density(3, "mixed_dirichlet", rng)
        image = qr.relaxed_reflection(rho, pair=(2, 3))
        assert abs(np.trace(image.matrix).real - 1.0) < 1e-12
        assert qr.min_eig(image.matrix) >= -1e-10

    def test_wrong_pair_size_rejected(self, rng):
        with pytest.raises(ValueError):
            qr.relaxed_reflection(qr.random_density(2, "mixed_dirichlet", rng), pair=(1,))


class TestCounting:
    def test_small_counts(self):
        assert qr.count_inequivalent(1) == 1
        assert qr.count_inequivalent(2) == 512
        assert qr.count_inequivalent(3) == 2**54

    def test_large_count_is_exact_integer(self):
        value = qr.count_inequivalent(4)
        assert value == 2 ** (4**4 - 13)
        assert isinstance(value, int)
