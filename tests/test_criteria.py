"""Entanglement and feasibility criteria."""

import itertools
import json

import numpy as np
import pytest
from conftest import FIXTURES, oracle_label

import qreflect as qr
from qreflect import criteria, properties
from qreflect.io import load_density


def random_separable(rng, terms=3):
    weights = rng.dirichlet(np.ones(terms))
    acc = np.zeros((4, 4), dtype=complex)
    for w in weights:
        acc += w * np.kron(
            qr.random_density(1, "mixed_dirichlet", rng).matrix,
            qr.random_density(1, "mixed_dirichlet", rng).matrix,
        )
    return qr.DensityState(acc)


def random_rank(n, r, rng):
    """Equal-weight mixture of ``r`` random pure states (rank ``r`` generically)."""
    z = rng.standard_normal((2**n, r)) + 1j * rng.standard_normal((2**n, r))
    z /= np.linalg.norm(z, axis=0)
    return qr.DensityState(z @ z.conj().T / r)


class TestPpt:
    def test_bell_is_detected(self):
        report = qr.ppt_test(qr.bell_state(), (1,))
        assert report.verdict == "entangled"
        assert report.witness == pytest.approx(-0.5, abs=1e-12)

    def test_product_states_pass(self, rng):
        for _ in range(20):
            rho = qr.DensityState(
                np.kron(
                    qr.random_density(1, "mixed_dirichlet", rng).matrix,
                    qr.random_density(1, "mixed_dirichlet", rng).matrix,
                )
            )
            assert qr.ppt_test(rho, (1,)).verdict == "separable-consistent"

    def test_separable_mixtures_pass_all_cuts(self, rng):
        for _ in range(500):
            rho = random_separable(rng)
            for subset in [(1,), (2,)]:
                assert qr.ppt_test(rho, subset).witness >= -1e-10

    def test_upb_state_stays_ppt(self):
        bound = qr.upb_bound_entangled()
        for q in (1, 2, 3):
            assert qr.ppt_test(bound, (q,)).witness >= -1e-10

    def test_subset_must_be_proper(self):
        with pytest.raises(ValueError):
            qr.ppt_test(qr.bell_state(), ())
        with pytest.raises(ValueError):
            qr.ppt_test(qr.bell_state(), (1, 2))


class TestCcn:
    def test_product_pure_state(self):
        rho = qr.pure_state("0+")
        assert qr.ccn(rho) == pytest.approx(1.0, abs=1e-10)

    def test_bell_value(self):
        assert qr.ccn(qr.bell_state()) == pytest.approx(2.0, abs=1e-10)

    def test_maximally_mixed(self):
        assert qr.ccn(qr.maximally_mixed(2)) == pytest.approx(0.5, abs=1e-12)

    def test_stokes_route_literals(self):
        bell_matrix = qr.stokes_as_matrix(qr.to_stokes(qr.bell_state()))
        assert np.sum(np.linalg.svd(bell_matrix, compute_uv=False)) == pytest.approx(4.0, abs=1e-10)
        assert qr.ccn_via_stokes(qr.to_stokes(qr.bell_state())) == pytest.approx(2.0, abs=1e-10)
        assert qr.ccn_via_stokes(qr.to_stokes(qr.maximally_mixed(2))) == pytest.approx(0.5)

    def test_dual_paths_agree(self, rng):
        for _ in range(50):
            rho = qr.random_density(2, "mixed_dirichlet", rng)
            assert abs(qr.ccn(rho) - qr.ccn_via_stokes(qr.to_stokes(rho))) < 1e-10

    def test_triangle_inequality_on_separable_mixtures(self, rng):
        for _ in range(50):
            assert qr.ccn(random_separable(rng)) <= 1.0 + 1e-10

    def test_stokes_route_needs_two_qubits(self):
        with pytest.raises(ValueError):
            qr.ccn_via_stokes(qr.to_stokes(qr.maximally_mixed(1)))

    def test_rectangular_cut_runs(self):
        # one-vs-two cut of the bound entangled state: reported, no verdict
        value = qr.ccn(qr.upb_bound_entangled(), (2,))
        assert value > 0.0

    def test_odd_count_needs_explicit_block(self):
        for measure in (qr.ccn, qr.ccn_report):
            with pytest.raises(ValueError, match="the first-half cut needs an even qubit count, got n=3"):
                measure(qr.upb_bound_entangled())

    def test_report_names_the_checked_block(self, rng):
        rho4 = qr.random_density(4, "mixed_dirichlet", rng)
        report = qr.ccn_report(rho4, [2, 1])
        assert report.subset == (1, 2)
        assert report.witness == qr.ccn(rho4, (1, 2))
        assert qr.ccn_report(rho4).subset == (1, 2)
        assert qr.ccn_report(qr.bell_state()).to_dict()["subset"] == [1]

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_every_cut_matches_realignment_oracle(self, n, rng):
        rho = qr.random_density(n, "mixed_dirichlet", rng)
        for size in range(1, n):
            for block in itertools.combinations(range(1, n + 1), size):
                rest = [q for q in range(1, n + 1) if q not in block]
                d_left, d_right = 2**size, 2 ** (n - size)
                realigned = np.zeros((d_left**2, d_right**2), dtype=complex)
                for r in range(2**n):
                    for c in range(2**n):
                        row = oracle_label(r, n, block) * d_left + oracle_label(c, n, block)
                        col = oracle_label(r, n, rest) * d_right + oracle_label(c, n, rest)
                        realigned[row, col] = rho.matrix[r, c]
                oracle = np.linalg.svd(realigned, compute_uv=False).sum()
                assert abs(qr.ccn(rho, block) - oracle) < 1e-12


class TestConcurrence:
    def test_bell(self):
        assert qr.concurrence(qr.bell_state()) == pytest.approx(1.0, abs=1e-10)

    def test_product_pure(self):
        assert qr.concurrence(qr.pure_state("01")) == pytest.approx(0.0, abs=1e-10)

    def test_maximally_mixed_clamps_to_zero(self):
        assert qr.concurrence(qr.maximally_mixed(2)) == 0.0

    def test_never_negative(self, rng):
        for _ in range(50):
            assert qr.concurrence(qr.random_density(2, "mixed_dirichlet", rng)) >= 0.0

    def test_product_pure_states_are_separable_consistent(self, rng):
        for _ in range(200):
            a, b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            psi = np.kron(a, b) / np.linalg.norm(np.kron(a, b))
            report = qr.concurrence_report(qr.DensityState(np.outer(psi, psi.conj())))
            assert report.verdict == "separable-consistent"

    def test_pure_states_match_closed_form(self, rng):
        sigma_y = np.array([[0, -1j], [1j, 0]])
        yy = np.kron(sigma_y, sigma_y)
        for _ in range(200):
            psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            psi /= np.linalg.norm(psi)
            rho = qr.DensityState(np.outer(psi, psi.conj()))
            assert abs(qr.concurrence(rho) - abs(psi @ yy @ psi)) < 1e-12


class TestLorentzMetric:
    def test_bell(self):
        assert qr.lorentz_metric(qr.to_stokes(qr.bell_state())) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        # only the affine term survives: (2**(-1))**2
        value = qr.lorentz_metric(qr.to_stokes(qr.maximally_mixed(2)))
        assert value == pytest.approx(0.25, abs=1e-14)
        direct = np.trace(
            qr.maximally_mixed(2).matrix @ properties.spin_flipped_partner(qr.maximally_mixed(2)).matrix
        ).real
        assert value == pytest.approx(direct, abs=1e-14)

    def test_matches_conjugation_oracle(self, rng):
        for _ in range(30):
            rho = qr.random_density(2, "mixed_dirichlet", rng)
            direct = np.trace(rho.matrix @ properties.spin_flipped_partner(rho).matrix).real
            assert abs(qr.lorentz_metric(qr.to_stokes(rho)) - direct) < 1e-12


class TestReduction:
    def test_bell_trace_first_qubit(self):
        report = qr.reduction_criterion(qr.bell_state(), (1,))
        assert report.verdict == "entangled"
        assert report.witness == pytest.approx(-0.5, abs=1e-12)

    def test_product_states_pass(self, rng):
        rho = qr.DensityState(
            np.kron(
                qr.random_density(1, "mixed_dirichlet", rng).matrix,
                qr.random_density(1, "mixed_dirichlet", rng).matrix,
            )
        )
        assert qr.reduction_criterion(rho, (2,)).verdict == "separable-consistent"

    def test_comparison_trace(self, rng):
        rho = qr.random_density(3, "mixed_dirichlet", rng)
        report = qr.reduction_criterion(rho, (1, 2))
        assert report.extra["trace"] == pytest.approx(3.0, abs=1e-12)

    def test_subset_validation(self):
        with pytest.raises(ValueError):
            qr.reduction_criterion(qr.bell_state(), (1, 2))


class TestMatrixKernelWitnesses:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_witnesses_match_the_sign_mask_images(self, n, rng):
        rho = qr.random_density(n, "mixed_dirichlet", rng)
        for size in range(1, n + 1):
            for subset in itertools.combinations(range(1, n + 1), size):
                reflected = qr.apply_mask(qr.mask_total_reflection(n, subset), rho)
                assert abs(qr.reflection_report(rho, subset).witness - qr.min_eig(reflected)) < 1e-12
                if size < n:
                    transposed = qr.apply_mask(qr.mask_partial_transpose(n, subset), rho)
                    assert abs(qr.ppt_test(rho, subset).witness - qr.min_eig(transposed)) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_one_qubit_reflection_is_the_reduction_criterion(self, n, rng):
        rho = qr.random_density(n, "mixed_dirichlet", rng)
        for q in range(1, n + 1):
            assert qr.reflection_report(rho, (q,)).witness == qr.reduction_criterion(rho, (q,)).witness


class TestKernelImagesAreExactlyHermitian:
    """The witness kernels solve their images with no Hermiticity check; this is what that check guarded."""

    @staticmethod
    def solved_images(op, monkeypatch):
        images = []

        def capture(image):
            images.append(image)
            return float(np.linalg.eigvalsh(image)[0])

        monkeypatch.setattr(criteria, "_lowest_eig", capture)
        criteria._lift_witness.cache_clear()
        n = op.n
        for size in range(1, n + 1):
            for subset in itertools.combinations(range(1, n + 1), size):
                qr.reflection_report(op, subset)
                if size < n:
                    qr.ppt_test(op, subset)
                    qr.reduction_criterion(op, subset)
        return images

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("mode", ["haar_pure", "mixed_dirichlet", "bounded_spectrum"])
    def test_random_states(self, n, mode, rng, monkeypatch):
        c = 2.0 ** (1 - n) if mode == "bounded_spectrum" else None
        images = self.solved_images(qr.random_density(n, mode, rng, c=c), monkeypatch)
        assert images
        for image in images:
            assert np.array_equal(image, image.conj().T)

    def test_near_hermitian_fixture(self, monkeypatch):
        # the input's anti-Hermitian part (about 9e-11) is within the load check; the kept matrix drops it
        images = self.solved_images(load_density(FIXTURES / "near_hermitian_3q.json"), monkeypatch)
        assert len(images) == 6 + 7 + 3  # PPT cuts, reflections, and the reductions not shared with a reflection
        for image in images:
            assert np.array_equal(image, image.conj().T)


class TestTotalReflectionFeasibility:
    def test_maximally_mixed_all_flags(self):
        for n in (1, 2, 3):
            report = qr.total_reflection_feasible(qr.maximally_mixed(n))
            assert report.verdict == "feasible"
            assert all(report.extra.values())

    def test_pure_states_infeasible_beyond_one_qubit(self, rng):
        # one-qubit reflections send pure states to orthogonal pure states,
        # so infeasibility starts with joint reflections of two qubits
        report = qr.total_reflection_feasible(qr.pure_state("0"))
        assert report.extra["exact_psd"]
        for n in (2, 3):
            report = qr.total_reflection_feasible(qr.random_density(n, "haar_pure", rng))
            assert not report.extra["exact_psd"]
            assert report.verdict == "infeasible"

    def test_upb_mixture_is_feasible(self):
        sep = qr.upb_separable()
        report = qr.total_reflection_feasible(sep)
        assert report.extra["exact_psd"]
        reflected = qr.apply_mask(qr.mask_total_reflection(3), sep)
        assert np.abs(reflected.matrix - qr.upb_bound_entangled().matrix).max() < 1e-14

    def test_implication_chain_on_bounded_samples(self, rng):
        for n in (2, 3):
            for _ in range(100):
                rho = qr.random_density(n, "bounded_spectrum", rng, c=2.0 ** (1 - n))
                flags = qr.total_reflection_feasible(rho).extra
                assert (not flags["sufficient_max_eig"]) or flags["exact_psd"]
                assert (not flags["exact_psd"]) or flags["purity_bound"]
                assert (not flags["exact_psd"]) or flags["rank_bound"]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_the_spectrum_kernel_of_a_stack_is_the_report_per_member(self, n, rng):
        rho = qr.DensityState(
            np.concatenate(
                [
                    qr.random_density(n, "mixed_dirichlet", rng, size=4).matrix,
                    qr.random_density(n, "bounded_spectrum", rng, c=2.0 ** (1 - n), size=4).matrix,
                    qr.random_density(n, "haar_pure", rng, size=2).matrix,
                ]
            ),
            stack=True,
        )
        witness, flags = criteria.feasibility(rho.spectrum)
        assert witness.shape == (10,) and all(flag.shape == (10,) for flag in flags.values())
        verdicts = set()
        for k in range(10):
            report = qr.total_reflection_feasible(rho[k])
            verdicts.add(report.verdict)
            assert witness[k] == report.witness
            assert {name: bool(flag[k]) for name, flag in flags.items()} == report.extra
        assert verdicts == ({"feasible"} if n == 1 else {"feasible", "infeasible"})

    def test_rank_bound_ignores_the_verdict_tolerance(self):
        # the rank counts eigenvalues above the load check's zero: a loose verdict
        # tolerance (0.3 > 0.25) must not hide the four eigenvalues of a full-rank state
        flags = qr.total_reflection_feasible(qr.maximally_mixed(2), tol=0.3).extra
        assert flags["exact_psd"]
        assert flags["rank_bound"]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_one_spectrum_matches_numpy_oracles(self, n, rng):
        bound = 2.0 ** (1 - n)
        states = [
            qr.random_density(n, "mixed_dirichlet", rng),
            qr.random_density(n, "bounded_spectrum", rng, c=bound),
        ]
        states += [random_rank(n, r, rng) for r in sorted({1, max(1, 2 ** (n - 1) - 1), 2 ** (n - 1)})]
        for rho in states:
            m = rho.matrix
            report = qr.total_reflection_feasible(rho)
            witness = np.linalg.eigvalsh(bound * np.eye(2**n) - m)[0]
            rank = np.linalg.matrix_rank(m, tol=1e-10)
            assert abs(report.witness - witness) < 1e-12
            assert report.extra["exact_psd"] == report.extra["sufficient_max_eig"] == (witness >= -1e-10)
            assert report.extra["purity_bound"] == (np.trace(m @ m).real <= bound + 1e-12)
            assert report.extra["rank_bound"] == (rank >= 2 ** (n - 1))
            assert np.count_nonzero(np.abs(rho.spectrum) > 1e-10) == rank

    def test_pinned_counterexample_purity_without_feasibility(self):
        doc = json.loads((FIXTURES / "purity_bound_counterexample.json").read_text())
        assert "seed" in doc
        rho = load_density(FIXTURES / "purity_bound_counterexample.json")
        flags = qr.total_reflection_feasible(rho).extra
        assert flags["purity_bound"]
        assert not flags["exact_psd"]


class TestComplement:
    def test_fixed_point(self):
        for n in (1, 2, 3):
            mixed = qr.maximally_mixed(n)
            assert np.abs(qr.complement(mixed).matrix - mixed.matrix).max() < 1e-15

    def test_mixture_identity(self, rng):
        for n in (1, 2, 3):
            rho = qr.random_density(n, "mixed_dirichlet", rng)
            mixed = (rho.matrix + qr.complement(rho).matrix) / 2
            assert np.abs(mixed - np.eye(2**n) / 2**n).max() < 1e-14

    def test_matches_total_reflection_mask(self, rng):
        rho = qr.random_density(3, "mixed_dirichlet", rng)
        via_mask = qr.apply_mask(qr.mask_total_reflection(3), rho)
        assert np.abs(qr.complement(rho).matrix - via_mask.matrix).max() < 1e-12

    def test_single_components_fail(self):
        for vec in qr.upb_kets():
            projector = qr.DensityState(np.outer(vec, vec.conj()))
            assert qr.min_eig(qr.complement(projector).matrix) < -1e-6


class TestVerdictTolerance:
    """One tolerance rule, applied on entry by every report and by the spectrum kernel."""

    BELL_SPECTRUM = qr.bell_state().spectrum
    ENTRIES = {
        "ppt": lambda m, tol: qr.ppt_test(m, (1,), tol),
        "ccn": lambda m, tol: qr.ccn_report(m, tol=tol),
        "concurrence": lambda m, tol: qr.concurrence_report(m, tol),
        "reduction": lambda m, tol: qr.reduction_criterion(m, (1,), tol),
        "reflection": lambda m, tol: qr.reflection_report(m, (1, 2), tol),
        "total-reflection": lambda m, tol: qr.total_reflection_feasible(m, tol),
        "feasibility": lambda m, tol: criteria.feasibility(TestVerdictTolerance.BELL_SPECTRUM, tol),
    }

    @pytest.mark.parametrize("entry", list(ENTRIES))
    @pytest.mark.parametrize(
        "tol",
        [float("nan"), -1.0, float("inf"), True, np.bool_(True), "1e-3", None, 10**400],
        ids=["nan", "negative", "inf", "bool", "numpy-bool", "string", "none", "huge-int"],
    )
    def test_bad_tolerances_are_refused_before_any_solve(self, entry, tol, monkeypatch):
        matrix = qr.bell_state().matrix  # a raw array: the reports would have to solve it themselves

        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the tolerance was checked")

        monkeypatch.setattr(criteria, "_lowest_eig", no_solve)
        for name in ("svd", "eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, no_solve)
        with pytest.raises(ValueError, match="tolerances must be finite numbers >= 0"):
            self.ENTRIES[entry](matrix, tol)

    @pytest.mark.parametrize("entry", list(ENTRIES))
    @pytest.mark.parametrize("tol", [0, np.float64(1e-9)], ids=["int-zero", "numpy-float"])
    def test_numbers_are_accepted_and_reported_as_floats(self, entry, tol):
        answer = self.ENTRIES[entry](qr.bell_state().matrix, tol)
        as_float = self.ENTRIES[entry](qr.bell_state().matrix, float(tol))
        if entry == "feasibility":
            assert answer == as_float
        else:
            assert type(answer.tolerance) is float and answer.tolerance == tol
            assert answer.to_dict() == as_float.to_dict()

    def test_ccn_report_checks_its_cut_once(self, monkeypatch):
        calls = []
        checked = criteria._ccn_block

        def counted(n, block):
            calls.append(block)
            return checked(n, block)

        monkeypatch.setattr(criteria, "_ccn_block", counted)
        report = qr.ccn_report(qr.random_density(4, "mixed_dirichlet", 3), [2, 1])
        assert calls == [[2, 1]]
        assert report.subset == (1, 2)
