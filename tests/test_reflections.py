"""Sign masks, local orthogonal actions, operator sums, relaxed reflection."""

import itertools
import re

import numpy as np
import pytest
from conftest import (
    SIGMA,
    oracle_apply_real_density_mask,
    oracle_choi_matrix_of_map,
    oracle_partial_transpose,
    oracle_rotation_from_unitary,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import qreflect as qr
from qreflect import properties, reflections, stokes
from qreflect.reflections import SignMask
from qreflect.stokes import _digits, identity_times_reduction, partial_transpose


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


class TestSignMask:
    @pytest.mark.parametrize(
        "signs",
        [[1, 0, 1, 1], [1.5, 1, 1, 1], [-1, 1, 1, 1], [1, 1, 1, 1, 1]],
        ids=["zero", "fractional", "flipped-trace", "five-entries"],
    )
    def test_bad_signs_rejected(self, signs):
        with pytest.raises(ValueError):
            SignMask(signs)


class TestNamedMaskCache:
    def test_one_mask_per_checked_subset(self):
        assert qr.mask_partial_transpose(3, [2, 1]) is qr.mask_partial_transpose(3, (1, 2))
        assert qr.mask_spin_flip(2, {2, 1}) is qr.mask_spin_flip(2, (1, 2))
        assert qr.mask_total_reflection(3) is qr.mask_total_reflection(3, (3, 2, 1))
        assert qr.mask_total_reflection(3, (1,)) is not qr.mask_total_reflection(3)
        assert qr.mask_two_body_flip() is qr.mask_two_body_flip()

    def test_name_is_read_only(self):
        mask = qr.mask_partial_transpose(2, (1,))
        with pytest.raises(AttributeError):
            mask.name = "renamed"
        assert qr.mask_partial_transpose(2, (1,)).name == "partial_transpose[1]"

    @pytest.mark.parametrize(
        "build",
        [
            lambda: qr.mask_partial_transpose(2, (3,)),
            lambda: qr.mask_spin_flip(2, (0,)),
            lambda: qr.mask_total_reflection(2, ()),
            # A label must be an int: none is rounded, parsed or read as a bool.
            lambda: qr.mask_total_reflection(2, [1.5]),
            lambda: qr.mask_spin_flip(2, [np.True_]),
            lambda: qr.ppt_test(qr.bell_state(), [1.7]),
            lambda: qr.reflection_report(qr.bell_state(), [True]),
            lambda: qr.relaxed_reflection(qr.bell_state(), ["1", 2]),
            lambda: qr.mask_total_reflection(2, [np.array(1.5)]),
            lambda: qr.ppt_test(qr.bell_state(), np.array([[1]])),
        ],
        ids=[
            "partial_transpose",
            "spin_flip",
            "total_reflection",
            "total_reflection-float-label",
            "spin_flip-bool-label",
            "ppt_test-float-label",
            "reflection_report-bool-label",
            "relaxed_reflection-string-label",
            "total_reflection-float-array-label",
            "ppt_test-array-label",
        ],
    )
    def test_bad_subset_rejected_on_every_call(self, build):
        for _ in range(3):
            with pytest.raises(ValueError):
                build()


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
        base = rho.spectrum
        for mask in (qr.mask_partial_transpose(1, (1,)), qr.mask_spin_flip(1, (1,))):
            image = qr.apply_mask(mask, rho)
            assert np.abs(np.linalg.eigvalsh(image.matrix) - base).max() < 1e-12

    def test_double_flip_and_double_transpose_share_spectra(self, rng):
        rho = qr.random_density(2, "mixed_dirichlet", rng)
        flip = qr.apply_mask(qr.mask_spin_flip(2, (1, 2)), rho)
        transpose = qr.apply_mask(qr.mask_partial_transpose(2, (1, 2)), rho)
        gap = np.linalg.eigvalsh(flip.matrix) - np.linalg.eigvalsh(transpose.matrix)
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
            vals = np.linalg.eigvalsh(image.matrix)
            np.testing.assert_allclose(vals, [-0.5, 0.5, 0.5, 0.5], atol=1e-10)

    def test_partial_reflection_norm_but_not_spectrum(self, rng):
        rho = qr.random_density(3, "mixed_dirichlet", rng)
        s = stokes_of(rho)
        image = qr.apply_mask(qr.mask_total_reflection(3, (1, 2)), s)
        assert abs(qr.purity(image) - qr.purity(s)) < 1e-12
        moved = np.linalg.eigvalsh(qr.from_stokes(image).matrix)
        assert np.abs(moved - rho.spectrum).max() > 1e-6


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

    def test_the_census_of_every_two_qubit_mask_is_one_call(self):
        free = np.array(list(itertools.product([1, -1], repeat=15)), dtype=np.int8)
        signs = np.concatenate([np.ones((len(free), 1), dtype=np.int8), free], axis=1)
        info = qr.classify(SignMask(signs, stack=True))
        assert info.local_factorizable.sum() == 64
        assert (info.orientation == "changing").sum() == 16384
        assert np.array_equal(info.sign_change_count, (signs == -1).sum(axis=1))
        # The factorizable masks are exactly the products of two one-qubit factors (1, +-1, +-1, +-1).
        factors = [(1, *rest) for rest in itertools.product([1, -1], repeat=3)]
        products = {tuple(np.multiply.outer(a, b).reshape(-1).tolist()) for a in factors for b in factors}
        assert {tuple(row) for row in signs[info.local_factorizable].tolist()} == products

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
        first, second = properties.choi_related_mask_pair()
        assert np.array_equal(qr.choi_reshuffle(first.astype(float)), second.astype(float))

    def test_hadamard_routes_agree_exactly(self, rng):
        first, second = properties.choi_related_mask_pair()
        for _ in range(10):
            rho = qr.random_density(2, "mixed_dirichlet", rng)
            s = stokes_of(rho)
            via_real = oracle_apply_real_density_mask(first, rho)
            masked_stokes = second * qr.stokes_as_matrix(s)
            from qreflect.stokes import StokesTensor

            via_stokes = qr.from_stokes(StokesTensor(masked_stokes.reshape(-1) / 2.0))
            assert np.array_equal(via_real.matrix, via_stokes.matrix)

    def test_neither_stokes_mask_is_positive(self, rng):
        first, second = properties.choi_related_mask_pair()
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
        for display in properties.choi_related_mask_pair():
            info = qr.classify(SignMask(display.reshape(-1)))
            assert info.orientation == "preserving"
            assert info.sign_change_count == 4
            assert not info.local_factorizable


class TestLocalOrthogonal:
    def test_rotation_from_unitary_conjugation(self, rng):
        for _ in range(10):
            u = qr.random_unitary(2, rng)
            r = oracle_rotation_from_unitary(u)
            lomap = qr.LocalOrthogonalMap.single_qubit(1, 1, r)
            rho = qr.random_density(1, "mixed_dirichlet", rng)
            image = qr.apply_local_orthogonal(lomap, rho)
            assert np.abs(image.matrix - u @ rho.matrix @ u.conj().T).max() < 1e-10

    def test_distinct_rotation_on_every_qubit(self, rng):
        us = [qr.random_unitary(2, rng) for _ in range(3)]
        blocks = [np.eye(4) for _ in us]
        for block, u in zip(blocks, us):
            block[1:, 1:] = oracle_rotation_from_unitary(u)
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
            generic = np.linalg.eigvalsh(qr.apply_local_orthogonal(lomap, rho).matrix)
            transposed = np.linalg.eigvalsh(qr.apply_mask(qr.mask_partial_transpose(2, (1,)), rho).matrix)
            assert np.abs(generic - transposed).max() < 1e-9

    def test_norm_preserved(self, rng):
        rho = qr.random_density(2, "mixed_dirichlet", rng)
        lomap = qr.LocalOrthogonalMap.single_qubit(2, 2, -qr.random_reflection(rng))
        image = qr.apply_local_orthogonal(lomap, stokes_of(rho))
        assert abs(qr.purity(image) - qr.purity(stokes_of(rho))) < 1e-12

    def test_non_orthogonal_block_rejected(self):
        with pytest.raises(ValueError):
            qr.LocalOrthogonalMap.single_qubit(1, 1, np.array([[1.0, 0.2, 0], [0, 1, 0], [0, 0, 1]]))

    @pytest.mark.parametrize(
        "n, qubit, match",
        [
            pytest.param(2, 0, "outside 1..2", id="0"),
            pytest.param(2, 3, "outside 1..2", id="3"),
            # True passed the range check as qubit 1; a float or a string raised TypeError
            pytest.param(2, True, "qubit labels must be integers", id="bool-qubit"),
            pytest.param(2, 1.0, "qubit labels must be integers", id="float-qubit"),
            pytest.param(2, "1", "qubit labels must be integers", id="string-qubit"),
            # an array's class has __index__, but only a 0-d integer array is one integer
            pytest.param(2, np.array([1]), "qubit labels must be integers", id="array-qubit"),
            pytest.param(2, np.array(1.5), "qubit labels must be integers", id="float-array-qubit"),
            pytest.param(True, 1, "qubit counts must be integers", id="bool-n"),
            pytest.param(2.0, 1, "qubit counts must be integers", id="float-n"),
            pytest.param("2", 1, "qubit counts must be integers", id="string-n"),
            pytest.param(np.array([2]), 1, "qubit counts must be integers", id="array-n"),
        ],
    )
    def test_single_qubit_out_of_range_rejected(self, n, qubit, match):
        # qubit 0 used to index blocks[-1] and rotate the last qubit instead
        with pytest.raises(ValueError, match=match):
            qr.LocalOrthogonalMap.single_qubit(n, qubit, np.diag([1.0, -1.0, 1.0]))

    def test_single_qubit_takes_numpy_integers(self):
        lomap = qr.LocalOrthogonalMap.single_qubit(np.int64(2), np.int64(2), np.diag([1.0, -1.0, 1.0]))
        assert lomap.n == 2 and lomap.blocks[1][2, 2] == -1.0

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_block_rejected(self, value):
        # a NaN compares false against every tolerance, so it used to pass both block checks
        block = np.eye(4)
        block[1, 1] = value
        with pytest.raises(ValueError, match="finite"):
            qr.LocalOrthogonalMap([block, np.eye(4)])

    def test_block_count_is_checked_before_any_block(self):
        blocks = [np.full((4, 4), np.nan)] + [np.eye(4)] * 6
        with pytest.raises(ValueError, match=r"supported qubit counts are 1\.\.6, got 7"):
            qr.LocalOrthogonalMap(blocks)

    def test_blocks_may_come_from_a_generator(self):
        lomap = qr.LocalOrthogonalMap(np.eye(4) for _ in range(2))
        assert lomap.n == 2 and lomap.members is None

    def test_a_map_stack_pairs_with_a_state_stack(self, rng):
        rho = qr.random_density(3, "mixed_dirichlet", rng, size=4)
        stacked = qr.LocalOrthogonalMap.single_qubit(3, 1, qr.random_reflection(rng, size=4)).blocks[0]
        middle = qr.LocalOrthogonalMap.single_qubit(3, 2, qr.random_reflection(rng)).blocks[1]
        last = qr.LocalOrthogonalMap.single_qubit(3, 3, -qr.random_reflection(rng, size=4)).blocks[2]
        lomap = qr.LocalOrthogonalMap([stacked, middle, last])
        assert lomap.members == 4
        images = qr.apply_local_orthogonal(lomap, rho)
        assert images.is_stack
        for k in range(4):
            one = qr.LocalOrthogonalMap([stacked[k], middle, last[k]])
            assert one.members is None
            assert np.abs(images.matrix[k] - qr.apply_local_orthogonal(one, rho[k]).matrix).max() <= 1e-15
        for unpaired in (rho[0], rho[np.arange(3)]):
            with pytest.raises(ValueError, match="a stack of 4 maps needs a state stack of 4"):
                qr.apply_local_orthogonal(lomap, unpaired)
        with pytest.raises(ValueError, match="share one member count"):
            qr.LocalOrthogonalMap([stacked, middle, last[:3]])

    @pytest.mark.parametrize(
        "kind, match",
        [
            ("orthogonal", "member 2: rotation part is not orthogonal"),
            ("affine", "member 2: block must have the affine form"),
            ("finite", "member 2: block entries must be finite"),
        ],
    )
    def test_one_bad_block_in_a_map_stack_is_named(self, kind, match, rng):
        blocks = qr.LocalOrthogonalMap.single_qubit(2, 2, qr.random_reflection(rng, size=4)).blocks[1].copy()
        if kind == "orthogonal":
            blocks[2, 1, 2] += 0.2
        elif kind == "affine":
            blocks[2, 0, 2] = 0.2
        else:
            blocks[2, 1, 2] = np.nan
        with pytest.raises(ValueError, match=match):
            qr.LocalOrthogonalMap([np.eye(4), blocks])

    def test_a_bool_block_beside_float_blocks_is_refused(self):
        # stacking the blocks would read the bools as floats: each block passes the number rule on its own dtype
        with pytest.raises(ValueError, match="entries must be numbers, got an array of dtype bool"):
            qr.LocalOrthogonalMap([np.eye(4, dtype=bool), np.eye(4)])

    def test_each_block_passes_the_number_rule_once(self, monkeypatch, rng):
        # the stacked blocks used to pass it a second time, for the finite check
        calls = []
        numbers = stokes._numbers

        def counting(data, *args, **kwargs):
            calls.append(np.shape(data))
            return numbers(data, *args, **kwargs)

        monkeypatch.setattr(reflections, "_numbers", counting)
        stacked = qr.LocalOrthogonalMap.single_qubit(2, 1, qr.random_reflection(rng, size=3)).blocks[0]
        calls.clear()
        lomap = qr.LocalOrthogonalMap([stacked, np.eye(4)])
        assert calls == [(3, 4, 4), (4, 4)]
        assert lomap.members == 3

    def test_single_qubit_reads_the_rotation_once(self, monkeypatch, rng):
        # the rotation used to pass the number rule on its own before its block passed it again
        calls = []
        numbers = stokes._numbers

        def counting(data, *args, **kwargs):
            calls.append(np.shape(data))
            return numbers(data, *args, **kwargs)

        monkeypatch.setattr(reflections, "_numbers", counting)
        qr.LocalOrthogonalMap.single_qubit(3, 2, qr.random_reflection(rng))
        assert calls == [(4, 4)] * 3
        calls.clear()
        qr.LocalOrthogonalMap.single_qubit(3, 2, qr.random_reflection(rng, size=2))
        assert calls == [(4, 4), (2, 4, 4), (4, 4)]

    @pytest.mark.parametrize(
        "rotation, message",
        [
            (np.eye(3).astype(str), "^entries must be numbers, got an array of dtype <U32$"),
            (np.eye(3).astype("V8"), "^entries must be numbers, got an array of dtype \\|V8$"),
            (np.eye(3) + 0.5j, "^entries must be real, got an imaginary part 5.000e-01$"),
            (np.stack([np.eye(3), np.eye(3) + 0.5j]), "^member 1: entries must be real, got an imaginary part 5.000e-01$"),
            (np.diag([1.0, np.nan, 1.0]), "^block entries must be finite$"),
        ],
        ids=["str", "void", "complex", "complex-member", "nan"],
    )
    def test_single_qubit_refuses_a_rotation_in_its_block(self, rotation, message):
        with pytest.raises(ValueError, match=message):
            qr.LocalOrthogonalMap.single_qubit(2, 1, rotation)

    @pytest.mark.parametrize("shape", [(2, 2), (2, 3, 3, 3), (3,), (3, 4)], ids=["2x2", "4-d", "1-d", "3x4"])
    def test_single_qubit_refuses_a_rotation_of_another_shape(self, shape):
        # a 2x2 rotation raised numpy's broadcast error, a 4-d one was reported as a block of shape (2, 3, 4, 4)
        message = re.escape(f"the rotation must be 3x3 or a stack of 3x3, got {shape}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            qr.LocalOrthogonalMap.single_qubit(2, 1, np.zeros(shape))

    def test_an_empty_block_stack_is_refused(self):
        # a map stack holds at least one member, like every other checked stack
        with pytest.raises(ValueError, match=r"^each block must be 4x4 or a stack of 4x4, got \(0, 4, 4\)$"):
            qr.LocalOrthogonalMap([np.eye(4), np.zeros((0, 4, 4))])

    def test_a_map_stack_indexes_like_the_other_checked_values(self, rng):
        rotations = qr.random_reflection(rng, size=3)
        lomap = qr.LocalOrthogonalMap.single_qubit(2, 2, rotations)
        assert isinstance(lomap, stokes._Checked) and lomap.is_stack and lomap.members == 3
        assert repr(lomap) == "LocalOrthogonalMap(n=2, stack=3)"
        for k in range(3):
            one = lomap[k]
            assert one.n == 2 and not one.is_stack and one.members is None
            assert np.array_equal(one.blocks[1][1:, 1:], rotations[k])
            assert np.array_equal(one.blocks[0], np.eye(4))
        picked = lomap[np.array([2, 0])]
        assert picked.members == 2 and np.array_equal(picked.blocks[1][0, 1:, 1:], rotations[2])
        for block in (*lomap.blocks, *lomap[0].blocks):
            assert not block.flags.writeable
        rho = qr.random_density(2, "mixed_dirichlet", rng, size=3)
        images = qr.apply_local_orthogonal(lomap, rho)
        for k in range(3):
            assert np.abs(images.matrix[k] - qr.apply_local_orthogonal(lomap[k], rho[k]).matrix).max() <= 1e-15
        with pytest.raises(TypeError, match="a single LocalOrthogonalMap has no members"):
            lomap[0][0]


class TestOneQubitReflectionIsAConjugatedTranspose:
    """On one qubit ``tr(X) 1 - X = sigma_y X^T sigma_y``, so ``R_q rho = Y_q rho^{T_q} Y_q``."""

    @staticmethod
    def sigma_y_on(n, q):
        return np.kron(np.kron(np.eye(2 ** (q - 1)), SIGMA[2]), np.eye(2 ** (n - q)))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_the_two_masks_differ_by_sigma_y_conjugation(self, n, rng):
        rho = qr.random_density(n, "mixed_dirichlet", rng)
        for q in range(1, n + 1):
            product = qr.mask_total_reflection(n, (q,)).signs * qr.mask_partial_transpose(n, (q,)).signs
            # flipped exactly where qubit q's digit is 1 or 3: sigma_y conjugation negates sigma_x and sigma_z
            digit = _digits(n)[:, q - 1]
            assert np.array_equal(product, np.where((digit == 1) | (digit == 3), -1.0, 1.0))
            y = self.sigma_y_on(n, q)
            assert np.abs(qr.apply_mask(SignMask(product), rho).matrix - y @ rho.matrix @ y).max() < 1e-15

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("positive", [True, False], ids=["state", "non-positive"])
    def test_the_reduction_image_is_the_conjugated_partial_transpose(self, n, positive, rng):
        if positive:
            op = qr.random_density(n, "mixed_dirichlet", rng)
        else:
            dim = 2**n
            h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            h = (h + h.conj().T) / 2
            op = qr.HermitianOperator(h + np.eye(dim) * (1 - np.trace(h).real) / dim)
            assert np.linalg.eigvalsh(op.matrix)[0] < 0
        for q in range(1, n + 1):
            y = self.sigma_y_on(n, q)
            reduction = identity_times_reduction(op, (q,)) - op.matrix
            assert np.abs(reduction - y @ partial_transpose(op, (q,)) @ y).max() <= 1e-15


class TestOperatorSums:
    def test_transpose_route(self, rng):
        for _ in range(20):
            rho = qr.random_density(1, "mixed_dirichlet", rng)
            lhs = properties.one_qubit_operator_sum("transpose", rho)
            rhs = qr.apply_mask(qr.mask_partial_transpose(1, (1,)), rho)
            assert np.abs(lhs.matrix - rhs.matrix).max() < 1e-12

    def test_spin_flip_route_and_orthogonality(self, rng):
        flipped = properties.one_qubit_operator_sum("spin_flip", qr.pure_state("0"))
        expected = np.diag([0.0, 1.0])
        assert np.abs(flipped.matrix - expected).max() < 1e-13
        rho = qr.random_density(1, "mixed_dirichlet", rng)
        lhs = properties.one_qubit_operator_sum("spin_flip", rho)
        rhs = qr.apply_mask(qr.mask_spin_flip(1, (1,)), rho)
        assert np.abs(lhs.matrix - rhs.matrix).max() < 1e-12

    def test_spin_flip_conjugation_oracle(self, rng):
        sigma_y = np.array([[0, -1j], [1j, 0]])
        rho = qr.random_density(1, "mixed_dirichlet", rng)
        oracle = sigma_y @ rho.matrix.conj() @ sigma_y
        lhs = properties.one_qubit_operator_sum("spin_flip", rho)
        assert np.abs(lhs.matrix - oracle).max() < 1e-12

    def test_unknown_kind_rejected(self, rng):
        with pytest.raises(ValueError):
            properties.one_qubit_operator_sum("mirror", qr.random_density(1, "mixed_dirichlet", rng))

    def test_two_body_flip_operator_sum(self, rng):
        for _ in range(20):
            rho = qr.random_density(2, "mixed_dirichlet", rng)
            lhs = properties.two_body_flip_operator_sum(rho)
            rhs = qr.apply_mask(qr.mask_two_body_flip(), rho)
            assert np.abs(lhs.matrix - rhs.matrix).max() < 1e-12

    def test_two_body_flip_pure_spectrum(self, rng):
        rho = qr.random_density(2, "haar_pure", rng)
        vals = np.linalg.eigvalsh(properties.two_body_flip_operator_sum(rho).matrix)
        np.testing.assert_allclose(vals, [-0.5, 0.5, 0.5, 0.5], atol=1e-10)

    def test_spin_flipped_partner(self, rng):
        bell = qr.bell_state()
        assert np.abs(properties.spin_flipped_partner(bell).matrix - bell.matrix).max() < 1e-13
        zero_zero = qr.pure_state("00")
        one_one = qr.pure_state("11")
        assert np.abs(properties.spin_flipped_partner(zero_zero).matrix - one_one.matrix).max() < 1e-13
        rho = qr.random_density(2, "mixed_dirichlet", rng)
        lhs = properties.spin_flipped_partner(rho)
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
        choi = oracle_choi_matrix_of_map(lambda x: (np.trace(x) * np.eye(4) - x) / 3.0, 4)
        assert np.linalg.eigvalsh(choi)[0] < -1e-6

    def test_embedded_pair_on_three_qubits(self, rng):
        rho = qr.random_density(3, "mixed_dirichlet", rng)
        image = qr.relaxed_reflection(rho, pair=(2, 3))
        assert abs(np.trace(image.matrix).real - 1.0) < 1e-12
        assert qr.min_eig(image.matrix) >= -1e-10

    def test_wrong_pair_size_rejected(self, rng):
        with pytest.raises(ValueError):
            qr.relaxed_reflection(qr.random_density(2, "mixed_dirichlet", rng), pair=(1,))


class TestStacks:
    """Stacked maps against a loop over the scalar API, member by member."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_apply_mask_on_a_state_stack(self, n, rng):
        rho = qr.random_density(n, "mixed_dirichlet", rng, size=4)
        s = stokes_of(rho)
        for mask in (qr.mask_total_reflection(n), qr.mask_partial_transpose(n, (1,)), qr.mask_spin_flip(n, (n,))):
            on_operators = qr.apply_mask(mask, rho)
            on_values = qr.apply_mask(mask, s)
            assert on_operators.is_stack and on_values.is_stack
            for k in range(4):
                assert np.abs(on_operators.matrix[k] - qr.apply_mask(mask, rho[k]).matrix).max() <= 1e-15
                assert np.array_equal(on_values.values[k], qr.apply_mask(mask, s[k]).values)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_a_catalog_gives_every_image_of_one_state(self, n, rng):
        masks = [qr.mask_total_reflection(n)] + [qr.mask_partial_transpose(n, (q,)) for q in range(1, n + 1)]
        catalog = SignMask(np.stack([m.signs for m in masks]), stack=True)
        rho = qr.random_density(n, "mixed_dirichlet", rng)
        images = qr.apply_mask(catalog, rho)
        assert images.is_stack and len(images.matrix) == len(masks)
        for k, mask in enumerate(masks):
            assert np.abs(images.matrix[k] - qr.apply_mask(mask, rho).matrix).max() <= 1e-15
            assert np.array_equal(catalog[k].signs, mask.signs)

    def test_equal_stacks_pair_member_by_member(self, rng):
        rho = qr.random_density(2, "mixed_dirichlet", rng, size=3)
        masks = [qr.mask_total_reflection(2), qr.mask_two_body_flip(), qr.mask_spin_flip(2, (2,))]
        images = qr.apply_mask(SignMask(np.stack([m.signs for m in masks]), stack=True), rho)
        for k, mask in enumerate(masks):
            assert np.abs(images.matrix[k] - qr.apply_mask(mask, rho[k]).matrix).max() <= 1e-15

    @pytest.mark.parametrize("masks, states", [(4, 3), (3, 4)])
    def test_stacks_of_two_lengths_are_refused_before_any_transform(self, masks, states, rng, monkeypatch):
        catalog = SignMask(np.ones((masks, 16)), stack=True)
        rho = qr.random_density(2, "mixed_dirichlet", rng, size=states)
        s = stokes_of(rho)
        monkeypatch.setattr(qr.reflections, "to_stokes", lambda state: pytest.fail("transformed a refused pair"))
        message = f"a stack of {masks} masks needs one state or a state stack of {masks}, got "
        for state in (rho, s):
            with pytest.raises(ValueError, match=message):
                qr.apply_mask(catalog, state)
        # a catalog on one state, one mask on a stack and equal stacks keep working
        assert len(qr.apply_mask(catalog, s[0]).values) == masks
        assert len(qr.apply_mask(catalog[0], s).values) == states
        paired = s[np.arange(masks) % states]
        assert np.array_equal(qr.apply_mask(catalog, paired).values, paired.values)

    def test_a_sign_flip_image_is_the_product_and_is_not_checked_again(self, rng, monkeypatch):
        one = stokes_of(qr.random_density(2, "mixed_dirichlet", rng))
        three = stokes_of(qr.random_density(2, "mixed_dirichlet", rng, size=3))
        mask = qr.mask_partial_transpose(2, (1,))
        others = (qr.mask_spin_flip(2, (2,)), qr.mask_two_body_flip())
        catalog = SignMask(np.stack([m.signs for m in (mask, *others)]), stack=True)
        monkeypatch.setattr(qr.StokesTensor, "__init__", lambda *args, **kwargs: pytest.fail("checked an image again"))
        pairings = [(mask, one, False), (catalog, one, True), (mask, three, True), (catalog, three, True)]
        for signs, state, is_stack in pairings:
            image = qr.apply_mask(signs, state)
            product = state.values * signs.signs
            assert type(image) is qr.StokesTensor and image.n == 2 and image.is_stack is is_stack
            assert image.values.dtype == product.dtype and image.values.shape == product.shape
            assert image.values.tobytes() == product.tobytes()
            assert not image.values.flags.writeable

    def test_one_bad_mask_in_a_catalog_is_named(self):
        signs = np.ones((3, 16))
        signs[1, 0] = -1
        with pytest.raises(ValueError, match="member 1: the trace component sign must be"):
            SignMask(signs, stack=True)
        signs[1, 0] = 1
        signs[2, 5] = 0.5
        with pytest.raises(ValueError, match="member 2: sign entries must be"):
            SignMask(signs, stack=True)

    def test_operator_sums_match_the_scalar_loop(self, rng):
        one = qr.random_density(1, "mixed_dirichlet", rng, size=4)
        two = qr.random_density(2, "mixed_dirichlet", rng, size=4)
        three = qr.random_density(3, "mixed_dirichlet", rng, size=4)
        lomap = qr.LocalOrthogonalMap.single_qubit(2, 1, qr.random_reflection(rng))
        maps = [
            (one, lambda rho: properties.one_qubit_operator_sum("transpose", rho)),
            (one, lambda rho: properties.one_qubit_operator_sum("spin_flip", rho)),
            (two, properties.two_body_flip_operator_sum),
            (two, properties.spin_flipped_partner),
            (two, qr.relaxed_reflection),
            (three, lambda rho: qr.relaxed_reflection(rho, (1, 3))),
            (two, lambda rho: qr.apply_local_orthogonal(lomap, rho)),
            (three, qr.complement),
        ]
        for rho, fn in maps:
            stacked = fn(rho)
            assert stacked.is_stack
            for k in range(4):
                assert np.abs(stacked.matrix[k] - fn(rho[k]).matrix).max() <= 1e-15
