"""Spectral layer: eigensolves, singular values, predicates."""

import warnings

import numpy as np
import pytest

import qreflect as qr


def char_poly_coeffs(matrix):
    """Faddeev-LeVerrier characteristic polynomial coefficients.

    Independent of any eigensolver: coefficients come from traces of powers.
    """
    d = matrix.shape[0]
    coeffs = [1.0]
    m = np.zeros_like(matrix)
    for k in range(1, d + 1):
        m = matrix @ m + coeffs[-1] * np.eye(d)
        coeffs.append(-np.trace(matrix @ m).real / k)
    return np.array(coeffs)


class TestEigHermitian:
    """Hermitian spectra: a state's kept spectrum, numpy's solve of an image, and what `min_eig` accepts."""

    def test_maximally_mixed(self):
        for n in (1, 2, 3):
            vals = qr.maximally_mixed(n).spectrum
            np.testing.assert_allclose(vals, np.full(2**n, 2.0**-n))

    def test_trace_and_norm_consistency(self, rng):
        rho = qr.random_density(3, "mixed_dirichlet", rng)
        vals = rho.spectrum
        assert abs(vals.sum() - np.trace(rho.matrix).real) < 1e-10
        assert abs((vals**2).sum() - np.trace(rho.matrix @ rho.matrix).real) < 1e-10

    def test_unitary_invariance(self, rng):
        rho = qr.random_density(2, "mixed_dirichlet", rng)
        u = qr.random_unitary(4, rng)
        rotated = u @ rho.matrix @ u.conj().T
        gap = np.abs(np.linalg.eigvalsh(rotated) - rho.spectrum)
        assert gap.max() < 1e-9

    def test_bell_partial_transpose_spectrum(self):
        image = qr.apply_mask(qr.mask_partial_transpose(2, (1,)), qr.bell_state())
        # the characteristic polynomial must expand (x - 1/2)^3 (x + 1/2)
        expanded = [1.0, -1.0, 0.0, 0.25, -0.0625]
        np.testing.assert_allclose(char_poly_coeffs(image.matrix), expanded, atol=1e-12)
        np.testing.assert_allclose(np.linalg.eigvalsh(image.matrix), [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    @pytest.mark.parametrize(
        "raw, match",
        [
            (np.array([[0.0, 1.0], [0.0, 1.0]]), "not Hermitian"),
            # A NaN or inf entry makes the Hermiticity defect NaN, so the finiteness check must catch it.
            (np.full((2, 2), np.nan), "must be finite"),
            (np.diag([np.inf, 0.0]), "must be finite"),
            (np.eye(2), "trace must equal 1"),
            (np.stack([np.eye(2) / 2] * 3), "expected a square array"),
        ],
        ids=["non_hermitian", "nan", "inf", "trace_2", "three_d"],
    )
    def test_min_eig_applies_the_operator_check(self, raw, match):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                qr.min_eig(raw)


class TestSvdValues:
    def test_schmidt_pairs_of_pure_stokes_matrix(self, rng):
        # amplitudes c1 >= c2 of a random two-qubit pure state give the
        # Stokes-matrix singular values {2 c1^2, 2 c2^2, 2 c1 c2, 2 c1 c2}
        z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        z /= np.linalg.norm(z)
        c = np.linalg.svd(z.reshape(2, 2), compute_uv=False)
        predicted = np.sort([2 * c[0] ** 2, 2 * c[1] ** 2, 2 * c[0] * c[1], 2 * c[0] * c[1]])[::-1]
        rho = qr.DensityState(np.outer(z, z.conj()))
        observed = np.linalg.svd(qr.stokes_as_matrix(qr.to_stokes(rho)), compute_uv=False)
        np.testing.assert_allclose(observed, predicted, atol=1e-9)


class TestPredicates:
    def test_pure_projector(self):
        rho = qr.pure_state("0")
        assert np.count_nonzero(np.abs(rho.spectrum) > 1e-10) == 1
        assert rho.spectrum[0] >= -1e-10
        assert abs(qr.min_eig(rho)) < 1e-12

    def test_reflected_pure_state(self):
        image = 0.5 * np.eye(4) - qr.bell_state().matrix
        assert abs(qr.min_eig(image) + 0.5) < 1e-12
        assert np.linalg.eigvalsh(image)[0] < -1e-10

    def test_full_rank_mixed(self):
        spectrum = qr.maximally_mixed(3).spectrum
        assert np.count_nonzero(np.abs(spectrum) > 1e-10) == 8
        assert spectrum[-1] == pytest.approx(0.125)


class TestDensityStateSpectrum:
    def test_reuses_the_checked_operator(self, rng):
        op = qr.HermitianOperator(qr.random_density(3, "mixed_dirichlet", rng).matrix)
        rho = qr.DensityState(op)
        assert rho.matrix is op.matrix
        assert not rho.spectrum.flags.writeable
        with pytest.raises(ValueError):
            rho.spectrum[0] = 0.0

    def test_non_positive_operator_still_rejected(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            qr.DensityState(qr.complement(qr.bell_state()))

    @pytest.mark.parametrize("mode", ["haar_pure", "mixed_dirichlet"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_kept_spectrum_matches_the_array_route_exactly(self, n, mode, rng):
        rho = qr.random_density(n, mode, rng)
        raw = np.array(rho.matrix)
        assert qr.min_eig(rho) == qr.min_eig(raw)
        assert np.array_equal(rho.spectrum, np.linalg.eigvalsh(raw))
        assert np.array_equal(qr.linalg._eigenvalues(rho), qr.linalg._eigenvalues(raw))
