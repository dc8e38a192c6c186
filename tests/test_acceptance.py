"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line on success (visible with ``pytest -s``
or in verbose test listings); tolerances are pinned in the assertions.
"""

import time

import numpy as np
import pytest
from conftest import FIXTURES, oracle_choi_matrix_of_map

import qreflect as qr
from qreflect import properties
from qreflect.io import load_density
from qreflect.reflections import SignMask


def announce(number, text):
    print(f"PASS criterion {number:02d}: {text}")


# transcribed sign table: rows 00..33, columns T_A, T_B, T_AB, S_A, S_B, S_AB, R16
EXPECTED_TABLE = [
    "+++++++",  # 00
    "++++---",  # 01
    "+--+---",  # 02
    "++++---",  # 03
    "+++-+--",  # 10
    "+++--+-",  # 11
    "+----+-",  # 12
    "+++--+-",  # 13
    "-+--+--",  # 20
    "-+---+-",  # 21
    "--+--+-",  # 22
    "-+---+-",  # 23
    "+++-+--",  # 30
    "+++--+-",  # 31
    "+----+-",  # 32
    "+++--+-",  # 33
]


def test_criterion_01_table1_reproduction():
    started = time.perf_counter()
    masks = [
        qr.mask_partial_transpose(2, (1,)),
        qr.mask_partial_transpose(2, (2,)),
        qr.mask_partial_transpose(2, (1, 2)),
        qr.mask_spin_flip(2, (1,)),
        qr.mask_spin_flip(2, (2,)),
        qr.mask_spin_flip(2, (1, 2)),
        qr.mask_total_reflection(2),
    ]
    computed = [
        "".join("+" if mask.signs[k] > 0 else "-" for mask in masks) for k in range(16)
    ]
    assert computed == EXPECTED_TABLE
    counts = [qr.classify(m).sign_change_count for m in masks]
    assert counts == [4, 4, 6, 12, 12, 6, 15]
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    announce(1, f"sign table matches cell-for-cell, counts {counts}, {elapsed:.3f}s")


def test_criterion_02_total_reflection_spectrum():
    rng = np.random.default_rng(2)
    mask = qr.mask_total_reflection(2)
    target = np.array([-0.5, 0.5, 0.5, 0.5])
    worst = 0.0
    for _ in range(200):
        rho = qr.random_density(2, "haar_pure", rng)
        vals = np.linalg.eigvalsh(qr.apply_mask(mask, rho).matrix)
        worst = max(worst, float(np.abs(vals - target).max()))
    assert worst < 1e-10
    announce(2, f"200 pure states reflect to spectrum (1,1,1,-1)/2, worst gap {worst:.2e}")


def test_criterion_03_upb_chain():
    started = time.perf_counter()
    separable = qr.upb_separable()
    reflected = qr.complement(separable)
    assert qr.min_eig(reflected.matrix) >= -1e-12
    bound = qr.DensityState(reflected.matrix)
    for q in (1, 2, 3):
        assert qr.ppt_test(bound, (q,)).witness >= -1e-10
    component_minima = []
    for vec in qr.upb_kets():
        projector = qr.DensityState(np.outer(vec, vec.conj()))
        component_minima.append(qr.min_eig(qr.complement(projector).matrix))
    assert all(w < -1e-6 for w in component_minima)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    announce(3, f"reflected mixture is a PPT density, components dip to {min(component_minima):.2f}, {elapsed:.3f}s")


@pytest.fixture(scope="module")
def bounded_samples():
    rng = np.random.default_rng(4)
    samples = {}
    for n in (2, 3):
        samples[n] = [
            qr.random_density(n, "bounded_spectrum", rng, c=2.0 ** (1 - n)) for _ in range(1000)
        ]
    return samples


def test_criterion_04_bounded_spectra_reflect_to_states(bounded_samples):
    violations = 0
    worst = 0.0
    for n, sample in bounded_samples.items():
        for rho in sample:
            witness = qr.min_eig(qr.complement(rho).matrix)
            worst = min(worst, witness)
            if witness < -1e-10:
                violations += 1
    assert violations == 0
    announce(4, f"2000 bounded-spectrum states all reflect to states, worst eigenvalue {worst:.2e}")


def test_criterion_05_feasibility_bound_chain(bounded_samples):
    for n, sample in bounded_samples.items():
        bound = 2.0 ** (1 - n)
        for rho in sample:
            report = qr.total_reflection_feasible(rho)
            if report.extra["exact_psd"]:
                assert qr.purity(qr.to_stokes(rho)) <= bound + 1e-12
                assert np.count_nonzero(np.abs(rho.spectrum) > 1e-10) >= 2 ** (n - 1)
    counter = load_density(FIXTURES / "purity_bound_counterexample.json")
    flags = qr.total_reflection_feasible(counter).extra
    assert flags["purity_bound"] and not flags["exact_psd"]
    announce(5, "feasibility implies the purity and rank bounds; pinned counterexample separates them")


def test_criterion_06_cross_norm_dual_path():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(500):
        rho = qr.random_density(2, "mixed_dirichlet", rng)
        gap = abs(qr.ccn(rho) - qr.ccn_via_stokes(qr.to_stokes(rho)))
        worst = max(worst, gap)
    assert worst <= 1e-10
    assert abs(qr.ccn(qr.bell_state()) - 2.0) <= 1e-10
    product = qr.pure_state("0-")
    assert abs(qr.ccn(product) - 1.0) <= 1e-10
    announce(6, f"500 dual-path cross norms agree, worst gap {worst:.2e}; Bell 2, product 1")


def test_criterion_07_operator_sum_equivalences():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(500):
        one = qr.random_density(1, "mixed_dirichlet", rng)
        two = qr.random_density(2, "mixed_dirichlet", rng)
        gaps = [
            np.abs(
                properties.one_qubit_operator_sum("transpose", one).matrix
                - qr.apply_mask(qr.mask_partial_transpose(1, (1,)), one).matrix
            ).max(),
            np.abs(
                properties.one_qubit_operator_sum("spin_flip", one).matrix
                - qr.apply_mask(qr.mask_spin_flip(1, (1,)), one).matrix
            ).max(),
            np.abs(
                properties.two_body_flip_operator_sum(two).matrix
                - qr.apply_mask(qr.mask_two_body_flip(), two).matrix
            ).max(),
            np.abs(
                properties.spin_flipped_partner(two).matrix
                - qr.apply_mask(qr.mask_spin_flip(2, (1, 2)), two).matrix
            ).max(),
        ]
        worst = max(worst, float(max(gaps)))
    assert worst <= 1e-12
    announce(7, f"four operator-sum routes match their masks on 500 states, worst gap {worst:.2e}")


def test_criterion_08_generic_reflection_spectra():
    rng = np.random.default_rng(8)
    worst = 0.0
    transpose_mask = qr.mask_partial_transpose(2, (1,))
    for _ in range(100):
        rho = qr.random_density(2, "mixed_dirichlet", rng)
        lomap = qr.LocalOrthogonalMap.single_qubit(2, 1, qr.random_reflection(rng))
        generic = np.linalg.eigvalsh(qr.apply_local_orthogonal(lomap, rho).matrix)
        transposed = np.linalg.eigvalsh(qr.apply_mask(transpose_mask, rho).matrix)
        worst = max(worst, float(np.abs(generic - transposed).max()))
    assert worst <= 1e-9
    announce(8, f"100 generic reflections share the partial-transpose spectrum, worst gap {worst:.2e}")


def test_criterion_09_complement_identity():
    rng = np.random.default_rng(9)
    worst = 0.0
    for n in (1, 2, 3, 4):
        for _ in range(25):
            rho = qr.random_density(n, "mixed_dirichlet", rng)
            mixture = (rho.matrix + qr.complement(rho).matrix) / 2
            worst = max(worst, float(np.abs(mixture - np.eye(2**n) / 2**n).max()))
    assert worst <= 1e-14
    announce(9, f"complement mixtures hit the random state entrywise, worst gap {worst:.2e}")


def test_criterion_10_relaxed_reflection():
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(1000):
        rho = qr.random_density(2, "mixed_dirichlet", rng)
        worst = min(worst, qr.min_eig(qr.relaxed_reflection(rho).matrix))
    assert worst >= -1e-10
    choi = oracle_choi_matrix_of_map(lambda x: (np.trace(x) * np.eye(4) - x) / 3.0, 4)
    negative = np.linalg.eigvalsh(choi)[0]
    assert negative < -1e-6
    announce(10, f"1000 relaxed reflections stay positive (worst {worst:.2e}); Choi dips to {negative:.2f}")


def test_criterion_11_choi_related_pair():
    first, second = properties.choi_related_mask_pair()
    assert np.array_equal(qr.choi_reshuffle(first.astype(float)), second.astype(float))
    rng = np.random.default_rng(11)
    tries_needed = []
    for display in (first, second):
        mask = SignMask(display.reshape(-1))
        for attempt in range(1, 101):
            rho = qr.random_density(2, "haar_pure", rng)
            if qr.min_eig(qr.apply_mask(mask, rho).matrix) < -1e-6:
                tries_needed.append(attempt)
                break
        else:
            pytest.fail("no negative eigenvalue found within 100 pure states")
    announce(11, f"mask pair is reshuffle-related; nonpositivity found after {tries_needed} tries")


def test_criterion_12_symmetry_suite():
    rng = np.random.default_rng(12)
    catalogs = {
        2: [
            qr.mask_partial_transpose(2, (1,)),
            qr.mask_partial_transpose(2, (2,)),
            qr.mask_partial_transpose(2, (1, 2)),
            qr.mask_spin_flip(2, (1,)),
            qr.mask_spin_flip(2, (2,)),
            qr.mask_spin_flip(2, (1, 2)),
            qr.mask_total_reflection(2),
            qr.mask_two_body_flip(),
            SignMask(properties.choi_related_mask_pair()[0].reshape(-1), name="center_block"),
            SignMask(properties.choi_related_mask_pair()[1].reshape(-1), name="antidiagonal"),
        ],
        3: [
            qr.mask_partial_transpose(3, (2,)),
            qr.mask_spin_flip(3, (1, 3)),
            qr.mask_total_reflection(3, (1, 2)),
            qr.mask_total_reflection(3),
        ],
    }
    worst = 0.0
    for n, masks in catalogs.items():
        for _ in range(50):
            a = qr.random_density(n, "mixed_dirichlet", rng)
            b = qr.random_density(n, "mixed_dirichlet", rng)
            inner = np.trace(a.matrix @ b.matrix).real
            for mask in masks:
                ia, ib = qr.apply_mask(mask, a), qr.apply_mask(mask, b)
                worst = max(
                    worst,
                    abs(np.trace(ia.matrix).real - 1.0),
                    float(np.abs(ia.matrix - ia.matrix.conj().T).max()),
                    abs(np.trace(ia.matrix @ ib.matrix).real - inner),
                )
    assert worst <= 1e-12
    # nonlocal reflections must leave the state cone on some fixture
    fixtures = {
        "total_reflection[1,2] on n=2": (qr.mask_total_reflection(2), qr.pure_state("00")),
        "total_reflection[1,2] on n=3": (qr.mask_total_reflection(3, (1, 2)), qr.pure_state("000")),
        "total_reflection[1,2,3] on n=3": (qr.mask_total_reflection(3), qr.pure_state("000")),
    }
    for label, (mask, state) in fixtures.items():
        assert qr.min_eig(qr.apply_mask(mask, state).matrix) < -1e-6, label
    announce(12, f"all masks preserve trace, Hermiticity, inner products (worst {worst:.2e}); nonlocal reflections break positivity")
