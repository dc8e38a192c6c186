"""Seeded inputs and an independent numpy oracle for the benchmark.

Nothing here imports qreflect.  States are generated, serialised and
checked with plain numpy, so the inputs and the expected answers stay the
same when the program changes.  Partial transposes are axis swaps of the
reshaped matrix, partial traces are explicit index contractions, and the
Stokes values come from one per-qubit 4x4 contraction.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

WITNESS_TOL = 1e-9
# sqrt of the near-zero eigenvalues of rho * rho_tilde carries ~sqrt(eps)
# error for rank-deficient states, so concurrence is compared more loosely.
CONCURRENCE_TOL = 1e-6
MODES = ("haar_pure", "mixed_dirichlet", "bounded_spectrum")
FORMATS = ("hermitian", "stokes")
TABLE1_COUNTS = [4, 4, 6, 12, 12, 6, 15]

_LAMBDA = np.array(
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
    dtype=complex,
) / math.sqrt(2.0)
# Row j holds lambda_j[c, r] at column 2 * r + c, so a dot product with the
# (row, column) pair of one qubit gives tr(rho lambda_j) on that factor.
_PAIR_TO_STOKES = np.stack([lam.T.reshape(4) for lam in _LAMBDA])
_SIGMA_YY = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])


def random_state(n: int, mode: str, rng: np.random.Generator) -> np.ndarray:
    """Hermitian, unit-trace, positive ``2**n`` matrix drawn in ``mode``."""
    dim = 2**n
    if mode == "haar_pure":
        z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        m = np.outer(z, z.conj())
    else:
        spectrum = rng.dirichlet(np.ones(dim))
        if mode == "bounded_spectrum":
            cap, mix = 2.0 ** (1 - n), 2.0**-n
            top = spectrum.max()
            if top > cap:
                spectrum = mix + (cap - mix) / (top - mix) * (spectrum - mix)
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        q, r = np.linalg.qr(z)
        q = q * (np.diag(r) / np.abs(np.diag(r)))
        m = (q * spectrum) @ q.conj().T
    m = (m + m.conj().T) / 2
    return m / np.trace(m).real


def stokes_values(m: np.ndarray, n: int) -> np.ndarray:
    """Coefficients ``tr(rho Lambda_idx)`` in base-4 row-major order."""
    pairs = [axis for q in range(n) for axis in (q, n + q)]
    t = m.reshape((2,) * (2 * n)).transpose(pairs).reshape((4,) * n)
    for q in range(n):
        t = np.moveaxis(np.tensordot(_PAIR_TO_STOKES, t, axes=([1], [q])), 0, q)
    return t.real.reshape(-1)


def state_document(m: np.ndarray, n: int, fmt: str) -> dict:
    if fmt == "stokes":
        return {"n": n, "format": "stokes", "values": stokes_values(m, n).tolist()}
    return {"n": n, "format": "hermitian", "re": m.real.tolist(), "im": m.imag.tolist()}


def _min_eig(h: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(h)[0])


def partial_transpose(m: np.ndarray, n: int, qubit: int) -> np.ndarray:
    t = m.reshape((2,) * (2 * n)).swapaxes(qubit - 1, n + qubit - 1)
    return t.reshape(m.shape)


def first_qubit_reduction_operator(m: np.ndarray) -> np.ndarray:
    """``identity on qubit 1 (x) tr_1(rho) - rho``.

    This is the reduction-criterion operator tracing qubit 1 and also the
    image of the partial reflection on qubit 1, ``2 P0 - rho`` with ``P0``
    the projection onto components whose qubit-1 digit is zero.
    """
    half = m.shape[0] // 2
    reduced = np.einsum("ajak->jk", m.reshape(2, half, 2, half))
    return np.kron(np.eye(2), reduced) - m


def cross_norm(m: np.ndarray, n: int) -> float:
    """Trace norm of the realignment across the first-half cut."""
    d = 2 ** (n // 2)
    realigned = m.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    return float(np.linalg.svd(realigned, compute_uv=False).sum())


def concurrence(m: np.ndarray) -> float:
    """Wootters concurrence from the Hermitian form sqrt(rho) rho~ sqrt(rho)."""
    vals, vecs = np.linalg.eigh(m)
    root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
    tilde = _SIGMA_YY @ m.conj() @ _SIGMA_YY
    lam = np.sqrt(np.clip(np.linalg.eigvalsh(root @ tilde @ root), 0.0, None))[::-1]
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def analyze_case(path: str, n: int, mode: str, m: np.ndarray, raw: bytes) -> dict:
    """CLI arguments for one state file and every answer the oracle expects.

    Each file runs every criterion that applies to its qubit count, in the
    order ``cmd_analyze`` reports them.
    """
    args = ["analyze", path]
    expected = []
    for q in range(1, n + 1):
        args += ["--ppt", chr(ord("A") + q - 1)]
        expected.append(("ppt", [q], _min_eig(partial_transpose(m, n, q))))
    if n % 2 == 0:
        args.append("--ccn")
        expected.append(("ccn", list(range(1, n // 2 + 1)), cross_norm(m, n)))
    if n == 2:
        args.append("--concurrence")
        expected.append(("concurrence", None, concurrence(m)))
    reduction_witness = _min_eig(first_qubit_reduction_operator(m))
    args += ["--reflect", "A", "--feasible", "--reduction", "A"]
    expected.append(("reflection", [1], reduction_witness))
    eigs = np.linalg.eigvalsh(m)
    expected.append(("total-reflection", None, 2.0 ** (1 - n) - float(eigs[-1])))
    expected.append(("reduction", [1], reduction_witness))
    return {
        "path": path,
        "args": args,
        "n": n,
        "mode": mode,
        "bytes": len(raw),
        "digest": hashlib.sha256(raw).hexdigest(),
        "purity": float(np.sum(np.abs(m) ** 2)),
        "min_eig": float(eigs[0]),
        "criteria": expected,
    }


def _flags_problem(flags: dict, mode: str, verdict: str) -> str | None:
    chain = (
        (not flags["sufficient_max_eig"]) or flags["exact_psd"],
        (not flags["exact_psd"]) or flags["purity_bound"],
        (not flags["exact_psd"]) or flags["rank_bound"],
    )
    if not all(chain):
        return f"feasibility implication chain broken: {flags}"
    if mode == "bounded_spectrum" and verdict != "feasible":
        return "bounded_spectrum input not feasible"
    return None


def _expected_verdict(criterion: str, witness: float, tol: float) -> tuple[str, float]:
    """The verdict an exact witness earns, and its distance from flipping."""
    if criterion in ("ppt", "reduction"):
        return ("entangled" if witness < -tol else "separable-consistent"), abs(witness + tol)
    if criterion == "ccn":
        return ("entangled" if witness > 1.0 + tol else "separable-consistent"), abs(witness - 1.0 - tol)
    if criterion == "concurrence":
        return ("entangled" if witness > tol else "separable-consistent"), abs(witness - tol)
    return ("feasible" if witness >= -tol else "infeasible"), abs(witness + tol)


def check_analyze(case: dict, rc: int, text: str) -> list[str]:
    """Problems with one ``analyze`` report; an empty list means correct."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        report = json.loads(text)
        result = report["result"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc}"]
    problems = []
    if report.get("input_digest") != case["digest"]:
        problems.append("input digest differs from the file's sha256")
    if result.get("n") != case["n"]:
        problems.append(f"n={result.get('n')}, expected {case['n']}")
    for key in ("purity", "min_eig"):
        if abs(result[key] - case[key]) > WITNESS_TOL:
            problems.append(f"{key} {result[key]!r} differs from {case[key]!r}")
    got = result.get("criteria", [])
    if [(c["criterion"], c["subset"]) for c in got] != [(c, s) for c, s, _ in case["criteria"]]:
        return problems + ["criteria list differs from the requested flags"]
    for entry, (criterion, _, witness) in zip(got, case["criteria"]):
        tol = WITNESS_TOL if criterion != "concurrence" else CONCURRENCE_TOL
        if abs(entry["witness"] - witness) > tol:
            problems.append(f"{criterion} witness {entry['witness']!r}, oracle {witness!r}")
        verdict, margin = _expected_verdict(criterion, witness, entry["tolerance"])
        if margin > tol and entry["verdict"] != verdict:
            problems.append(f"{criterion} verdict {entry['verdict']}, oracle {verdict}")
        if criterion == "total-reflection":
            flag_problem = _flags_problem(entry["extra"], case["mode"], entry["verdict"])
            if flag_problem:
                problems.append(flag_problem)
    return problems


def check_suite(results) -> list[str]:
    """Problems with one ``run_suite`` result list."""
    failed = [r.name for r in results if not r.passed]
    if failed:
        return [f"invariants failed: {failed}"]
    if not results:
        return ["suite returned no invariants"]
    return []


def check_table1(doc: dict) -> list[str]:
    counts = doc["result"]["sign_change_counts"]
    return [] if counts == TABLE1_COUNTS else [f"table1 sign-change counts {counts}"]


def check_upb_demo(doc: dict) -> list[str]:
    result = doc["result"]
    problems = []
    if not result["reflected_is_density"]:
        problems.append("upb-demo: reflected mixture is not a density operator")
    verdicts = [c["verdict"] for c in result["ppt_cuts"]]
    if verdicts != ["separable-consistent"] * 3:
        problems.append(f"upb-demo: PPT cuts {verdicts}")
    if not result["components_all_nonpositive"]:
        problems.append("upb-demo: a reflected component stayed positive")
    return problems


def check_negative_control(rc: int, doc: dict) -> list[str]:
    """``prop --inject-mask-corruption`` must fail, and in mask_involution."""
    failed = [inv["name"] for inv in doc["result"]["invariants"] if not inv["passed"]]
    if rc != 1 or doc["result"]["all_passed"] or "mask_involution" not in failed:
        return [f"negative control did not fail as expected (exit {rc}, failed {failed})"]
    return []
