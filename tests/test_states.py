"""State constructors, the product-basis family, and random generators."""

import re

import numpy as np
import pytest

import qreflect as qr
from qreflect import properties, states, stokes


class TestPureStates:
    def test_ground_state(self):
        np.testing.assert_allclose(qr.pure_state("0").matrix, np.diag([1.0, 0.0]))

    def test_plus_state(self):
        np.testing.assert_allclose(qr.pure_state("+").matrix, np.full((2, 2), 0.5))

    def test_bell_projector_corners(self):
        # frozen from the outer-product oracle
        expected = np.zeros((4, 4))
        expected[np.ix_([0, 3], [0, 3])] = 0.5
        np.testing.assert_allclose(qr.bell_state().matrix, expected, atol=1e-15)

    def test_purity_is_one(self):
        assert qr.purity(qr.to_stokes(qr.pure_state("01+"))) == pytest.approx(1.0, abs=1e-12)

    def test_unnormalised_amplitudes_rejected(self):
        with pytest.raises(ValueError):
            qr.pure_state([1.0, 1.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_amplitudes_rejected(self, bad):
        # a NaN norm fails no "greater than" test, so it once passed as normalised
        for amplitudes in ([bad, 0.0], [0.0, bad], [1.0, bad * 1j]):
            with pytest.raises(ValueError, match="normalised"):
                qr.ket(amplitudes)
        with pytest.raises(ValueError, match="normalised"):
            qr.pure_state([bad, 0.0])

    def test_amplitudes_of_another_shape_rejected(self):
        # a 2x2 array was flattened: the identity over sqrt(2) gave the Bell ket
        for amplitudes in (np.eye(2) / np.sqrt(2), [[2**-0.5, 0.0], [0.0, 2**-0.5]]):
            with pytest.raises(ValueError, match=re.escape("amplitudes must be a 1-D array, got shape (2, 2)")):
                qr.ket(amplitudes)
            with pytest.raises(ValueError, match=re.escape("amplitudes must be a 1-D array, got shape (2, 2)")):
                qr.pure_state(amplitudes)

    def test_unknown_symbol_rejected(self):
        with pytest.raises(ValueError):
            qr.ket("0x")

    def test_symbol_count_beyond_the_qubit_limit_rejected(self):
        assert qr.ket("0" * 6).shape == (64,)
        with pytest.raises(ValueError) as amplitudes:
            qr.ket(np.eye(2**7)[0])
        with pytest.raises(ValueError, match=re.escape(str(amplitudes.value))):
            qr.ket("0" * 7)


class TestUpbFamily:
    def test_kets_are_orthonormal(self):
        kets = qr.upb_kets()
        gram = np.array([[vi.conj() @ vj for vj in kets] for vi in kets])
        # pinned Gram matrix: despite nonorthogonal single-qubit factors,
        # every pair is orthogonal on exactly one factor
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-14)

    def test_factors_mostly_nonorthogonal(self):
        # per-factor overlap magnitudes: exactly one zero per ket pair
        symbols = ["01+", "1+0", "+01", "---"]
        for i in range(4):
            for j in range(i + 1, 4):
                overlaps = [
                    abs(qr.ket(symbols[i][q]).conj() @ qr.ket(symbols[j][q])) for q in range(3)
                ]
                assert sum(o < 1e-12 for o in overlaps) == 1

    def test_separable_mixture(self):
        sep = qr.upb_separable()
        assert np.count_nonzero(np.abs(sep.spectrum) > 1e-10) == 4
        assert qr.purity(qr.to_stokes(sep)) == pytest.approx(0.25, abs=1e-12)
        for q in (1, 2, 3):
            assert qr.ppt_test(sep, (q,)).verdict == "separable-consistent"
        assert np.linalg.eigvalsh(qr.complement(sep).matrix)[0] >= -1e-12

    def test_bound_entangled_state(self):
        bound = qr.upb_bound_entangled()
        assert qr.min_eig(bound.matrix) >= -1e-12
        assert np.count_nonzero(np.abs(bound.spectrum) > 1e-10) == 4
        for q in (1, 2, 3):
            assert qr.ppt_test(bound, (q,)).verdict == "separable-consistent"
        for vec in qr.upb_kets():
            assert abs(vec.conj() @ bound.matrix @ vec) < 1e-13

    def test_complement_relation(self):
        # the bound entangled state is built as this complement, bit for bit
        lhs = qr.complement(qr.upb_separable()).matrix
        assert np.array_equal(lhs, qr.upb_bound_entangled().matrix)


class TestRandomStates:
    def test_haar_pure_purity(self, rng):
        for n in (1, 2, 3):
            rho = qr.random_density(n, "haar_pure", rng)
            assert qr.purity(qr.to_stokes(rho)) == pytest.approx(1.0, abs=1e-12)

    def test_bounded_spectrum_respects_cap(self, rng):
        for _ in range(50):
            rho = qr.random_density(2, "bounded_spectrum", rng, c=0.5)
            assert rho.spectrum[-1] <= 0.5 + 1e-12

    def test_bounded_spectrum_needs_valid_cap(self, rng):
        with pytest.raises(ValueError):
            qr.random_density(2, "bounded_spectrum", rng, c=0.2)
        with pytest.raises(ValueError):
            qr.random_density(2, "bounded_spectrum", rng)

    def test_unknown_mode_rejected(self, rng):
        with pytest.raises(ValueError):
            qr.random_density(2, "thermal", rng)

    def test_same_seed_same_state(self):
        a = qr.random_density(2, "mixed_dirichlet", 123)
        b = qr.random_density(2, "mixed_dirichlet", 123)
        assert np.array_equal(a.matrix, b.matrix)

    def test_outputs_are_valid_densities(self, rng):
        for mode, kwargs in [
            ("haar_pure", {}),
            ("mixed_dirichlet", {}),
            ("bounded_spectrum", {"c": 0.6}),
        ]:
            rho = qr.random_density(2, mode, rng, **kwargs)
            assert isinstance(rho, qr.DensityState)

    def test_dirichlet_mean_is_maximally_mixed(self):
        # Monte-Carlo oracle: the generator is unitarily unbiased
        rng = np.random.default_rng(99)
        acc = np.zeros((4, 4), dtype=complex)
        samples = 10_000
        for _ in range(samples):
            acc += qr.random_density(2, "mixed_dirichlet", rng).matrix
        assert np.abs(acc / samples - np.eye(4) / 4).max() < 5e-2


class TestCounts:
    """Qubit counts and stack sizes are integers: a bool used to count as one qubit."""

    @pytest.mark.parametrize("n", [True, 2.0, "2"], ids=["bool", "float", "string"])
    @pytest.mark.parametrize(
        "make",
        [
            lambda n: qr.random_density(n, rng=1),
            lambda n: qr.random_density(n, "haar_pure", rng=1, size=2),
            qr.maximally_mixed,
            lambda n: qr.mask_partial_transpose(n, (1,)),
            lambda n: qr.mask_spin_flip(n, (1,)),
            qr.mask_total_reflection,
        ],
        ids=[
            "random_density",
            "random_density_stack",
            "maximally_mixed",
            "mask_partial_transpose",
            "mask_spin_flip",
            "mask_total_reflection",
        ],
    )
    def test_qubit_counts_must_be_integers(self, make, n):
        with pytest.raises(ValueError, match="qubit counts must be integers"):
            make(n)

    @pytest.mark.parametrize("n", [0, 7])
    @pytest.mark.parametrize(
        "make",
        [
            lambda n: qr.mask_partial_transpose(n, ()),
            lambda n: qr.mask_spin_flip(n, ()),
            qr.mask_total_reflection,
            qr.maximally_mixed,
            lambda n: qr.LocalOrthogonalMap.single_qubit(n, 1, -np.eye(3)),
        ],
        ids=["mask_partial_transpose", "mask_spin_flip", "mask_total_reflection", "maximally_mixed", "single_qubit"],
    )
    def test_counts_out_of_range_are_refused_before_any_table(self, make, n):
        tables = stokes._digits.cache_info().currsize
        with pytest.raises(ValueError, match=rf"supported qubit counts are 1\.\.6, got {n}"):
            make(n)
        assert stokes._digits.cache_info().currsize == tables

    @pytest.mark.parametrize(
        "count, rule",
        [
            (0, "must be at least 1, got 0"),
            (-1, "must be at least 1, got -1"),
            (True, "must be integers, got True"),
            (2.5, "must be integers, got 2.5"),
            ("3", "must be integers, got '3'"),
            (np.array([2]), "must be integers, got array([2])"),
        ],
        ids=["zero", "negative", "bool", "float", "string", "array"],
    )
    @pytest.mark.parametrize(
        "draw, what",
        [
            (lambda k, g: qr.random_density(2, "haar_pure", rng=g, size=k), "stack sizes"),
            (lambda k, g: qr.random_density(2, "mixed_dirichlet", rng=g, size=k), "stack sizes"),
            (lambda k, g: qr.random_density(2, "bounded_spectrum", rng=g, c=0.5, size=k), "stack sizes"),
            (lambda k, g: qr.random_unitary(4, g, k), "stack sizes"),
            (lambda k, g: qr.random_reflection(g, size=k), "stack sizes"),
            (lambda k, g: qr.random_unitary(k, g), "dimensions"),
            (lambda k, g: properties.run_suite(42, k), "trial counts"),
        ],
        ids=[
            "random_density-haar_pure",
            "random_density-mixed_dirichlet",
            "random_density-bounded_spectrum",
            "random_unitary-size",
            "random_reflection-size",
            "random_unitary-dimension",
            "run_suite-trials",
        ],
    )
    def test_a_count_is_an_integer_of_at_least_one(self, draw, what, count, rule):
        # One rule, stokes._count, refuses the count before anything is drawn: the generator's state is unchanged.
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=f"^{what} {re.escape(rule)}$"):
            draw(count, rng)
        assert rng.bit_generator.state == before

    def test_numpy_integers_are_counts(self):
        assert qr.random_density(np.int64(2), rng=1).n == 2
        assert qr.random_density(np.array(2), rng=1).n == 2
        assert qr.maximally_mixed(np.int64(3)).n == 3
        assert qr.random_reflection(1, size=np.int64(2)).shape == (2, 3, 3)


class TestRemix:
    def test_endpoints(self, rng):
        rho = qr.random_density(2, "mixed_dirichlet", rng)
        assert np.abs(qr.remix(rho, 0.0).matrix - np.eye(4) / 4).max() < 1e-15
        assert np.abs(qr.remix(rho, 1.0).matrix - rho.matrix).max() < 1e-15

    def test_matches_direct_remixing_formula(self, rng):
        rho = qr.random_density(2, "mixed_dirichlet", rng)
        direct = (np.eye(4) / 2 + rho.matrix) / 3
        assert np.abs(qr.remix(rho, 1.0 / 3.0).matrix - direct).max() < 1e-14

    def test_weight_out_of_range(self, rng):
        with pytest.raises(ValueError):
            qr.remix(qr.random_density(1, "mixed_dirichlet", rng), 1.5)

    @pytest.mark.parametrize("w", [True, np.True_, "0.5", None], ids=["bool", "numpy-bool", "string", "none"])
    def test_a_weight_must_be_a_number(self, w):
        with pytest.raises(ValueError, match=r"^mixing weight must lie in \[0, 1\], got "):
            qr.remix(qr.bell_state(), w)

    @pytest.mark.parametrize(
        "w", [0, 1, np.float64(0.5), np.int64(1)], ids=["int-0", "int-1", "numpy-float", "numpy-int"]
    )
    def test_numeric_weights_of_any_real_type_mix(self, w):
        direct = (1 - float(w)) * np.eye(4) / 4 + float(w) * qr.bell_state().matrix
        assert np.abs(qr.remix(qr.bell_state(), w).matrix - direct).max() <= 1e-15


MODES = [("haar_pure", None), ("mixed_dirichlet", None), ("bounded_spectrum", 0.4)]


class TestStackedDraws:
    @pytest.mark.parametrize("mode,c", MODES)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_a_stack_of_one_is_the_scalar_draw(self, n, mode, c):
        c = None if c is None else max(c, 2.0 ** (1 - n))
        one = qr.random_density(n, mode, 7, c=c)
        stack = qr.random_density(n, mode, 7, c=c, size=1)
        assert stack.is_stack and not one.is_stack
        assert np.abs(stack[0].matrix - one.matrix).max() <= 1e-15
        assert np.abs(stack.spectrum[0] - one.spectrum).max() <= 1e-15

    def test_stacked_unitaries_match_the_scalar_qr_of_the_same_draws(self):
        stack = qr.random_unitary(8, 5, size=4)
        rng = np.random.default_rng(5)
        z = rng.standard_normal((4, 8, 8)) + 1j * rng.standard_normal((4, 8, 8))
        for k in range(4):
            q, r = np.linalg.qr(z[k])
            phases = np.diag(r) / np.abs(np.diag(r))
            assert np.abs(stack[k] - q * phases).max() <= 1e-15
            assert np.abs(stack[k] @ stack[k].conj().T - np.eye(8)).max() < 1e-13
        assert np.array_equal(qr.random_unitary(8, 5, size=1)[0], qr.random_unitary(8, 5))

    def test_stacked_spectra_are_the_drawn_simplex_points(self):
        spectra = np.random.default_rng(11).dirichlet(np.ones(8), size=6)
        rho = qr.random_density(3, "mixed_dirichlet", 11, size=6)
        assert np.abs(rho.spectrum - np.sort(spectra, axis=1)).max() < 1e-14

    @pytest.mark.parametrize("mode,c", MODES)
    def test_every_member_is_a_state(self, mode, c, rng):
        rho = qr.random_density(2, mode, rng, c=c, size=20)
        assert rho.spectrum.shape == (20, 4)
        for k in range(20):
            member = rho[k]
            assert np.abs(np.linalg.eigvalsh(member.matrix) - member.spectrum).max() < 1e-14
            if c is not None:
                assert member.spectrum[-1] <= c + 1e-12
            if mode == "haar_pure":
                assert qr.purity(qr.to_stokes(member)) == pytest.approx(1.0, abs=1e-12)
        assert len({member.tobytes() for member in rho.matrix}) == 20

    @pytest.mark.parametrize("c", [True, np.True_, "0.5", None], ids=["bool", "numpy-bool", "string", "none"])
    def test_a_spectrum_cap_must_be_a_number(self, c):
        rng = np.random.default_rng(1)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=r"^bounded_spectrum needs c in \(2\*\*-1, 1\], got "):
            qr.random_density(1, "bounded_spectrum", rng, c=c)
        # The cap is checked before anything is drawn.
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("mode", ["haar_pure", "mixed_dirichlet"])
    def test_a_spectrum_cap_needs_the_bounded_mode(self, mode, rng):
        with pytest.raises(ValueError, match="bounded_spectrum"):
            qr.random_density(2, mode, rng, c=0.3)

    def test_the_builder_gives_each_draw_the_bits_it_gets_alone(self):
        # (n, mode, c, seed, size): stacks of every qubit count in every mode and a single state, joined in one build
        calls = [
            (1, "mixed_dirichlet", None, 1, 3),
            (2, "haar_pure", None, 2, 2),
            (3, "bounded_spectrum", 0.25, 3, 2),
            (2, "mixed_dirichlet", None, 4, None),
            (2, "mixed_dirichlet", None, 5, 4),
            (3, "haar_pure", None, 6, 1),
            (1, "bounded_spectrum", 0.75, 7, 2),
            (2, "bounded_spectrum", 0.5, 8, 3),
            (3, "mixed_dirichlet", None, 9, 2),
            (1, "haar_pure", None, 10, 2),
        ]
        built = states._build_densities([states._draw_density(n, mode, seed, c, size) for n, mode, c, seed, size in calls])
        for (n, mode, c, seed, size), rho in zip(calls, built):
            alone = qr.random_density(n, mode, seed, c=c, size=size)
            assert (rho.n, rho.is_stack) == (alone.n, size is not None)
            assert np.array_equal(rho.matrix, alone.matrix) and np.array_equal(rho.spectrum, alone.spectrum)
            # Both are the recipe's bits, member by member: a normalised ket's projector, or U diag(spectrum) U^dagger.
            rng = np.random.default_rng(seed)
            dim = 2**n
            members = 1 if size is None else size
            if mode == "haar_pure":
                kets = rng.standard_normal((members, dim)) + 1j * rng.standard_normal((members, dim))
                units = [z / np.linalg.norm(z) for z in kets]
                products = [np.outer(v, v.conj()) for v in units]
            else:
                spectra = rng.dirichlet(np.ones(dim), size=members)
                if c is not None:
                    top, mix = spectra.max(axis=1, keepdims=True), 2.0**-n
                    spectra = np.where(top > c, mix + (c - mix) / (top - mix) * (spectra - mix), spectra)
                u = qr.random_unitary(dim, rng, members)
                products = [(u[k] * spectra[k]) @ u[k].conj().T for k in range(members)]
            for k, m in enumerate(products):
                expected = (m + m.conj().T) / 2
                member = rho if size is None else rho[k]
                assert np.array_equal(member.matrix, expected)
                assert np.array_equal(member.spectrum, np.linalg.eigvalsh(expected))

    def test_a_reflection_stack_draws_the_numbers_of_successive_calls(self):
        stack = qr.random_reflection(5, size=6)
        rng = np.random.default_rng(5)
        assert np.array_equal(stack, np.stack([qr.random_reflection(rng) for _ in range(6)]))
        assert np.abs(np.linalg.det(stack) + 1.0).max() < 1e-12
        assert np.abs(stack @ stack.swapaxes(-1, -2) - np.eye(3)).max() < 1e-12
        assert np.array_equal(qr.random_reflection(5, size=1)[0], qr.random_reflection(5))

    def test_remix_of_a_stack_matches_the_scalar_loop(self, rng):
        rho = qr.random_density(2, "mixed_dirichlet", rng, size=4)
        mixed = qr.remix(rho, 0.3)
        for k in range(4):
            assert np.abs(mixed.matrix[k] - qr.remix(rho[k], 0.3).matrix).max() <= 1e-15
            assert np.abs(mixed.spectrum[k] - qr.remix(rho[k], 0.3).spectrum).max() <= 1e-15
