"""Layer sweep: one public entry point per layer, timed at n = 1..6.

Each figure is the median wall time of single calls on fixed inputs drawn
from the run's seed, reported as ``<layer>.<function>_us.n<k>``.  ``ccn``
starts at n = 2; odd n use the rectangular first-half cut.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

import numpy as np

import oracle

TARGET_SECONDS = 0.04
MIN_REPS = 15
MAX_REPS = 1000


def median_us(fn) -> float:
    fn()
    times = []
    spent = 0.0
    while len(times) < MAX_REPS and (len(times) < MIN_REPS or spent < TARGET_SECONDS):
        start = perf_counter()
        fn()
        elapsed = perf_counter() - start
        times.append(elapsed)
        spent += elapsed
    return 1e6 * statistics.median(times)


def layer_sweep(seed: int, workdir) -> dict:
    from qreflect import criteria, io, linalg, reflections, stokes

    rng = np.random.default_rng(seed)
    out = {}
    for n in range(1, 7):
        m = oracle.random_state(n, "mixed_dirichlet", rng)
        path = workdir / f"sweep_n{n}.json"
        path.write_text(json.dumps(oracle.state_document(m, n, "hermitian")))
        rho = stokes.DensityState(m)
        tensor = stokes.to_stokes(rho)
        mask = reflections.mask_total_reflection(n)
        calls = {
            "stokes.to_stokes": lambda: stokes.to_stokes(rho),
            "stokes.from_stokes": lambda: stokes.from_stokes(tensor),
            "io.load_density": lambda: io.load_density(path),
            "reflections.mask_total_reflection": lambda: reflections.mask_total_reflection(n),
            "reflections.apply_mask": lambda: reflections.apply_mask(mask, rho),
            "linalg.min_eig": lambda: linalg.min_eig(rho),
        }
        if n >= 2:
            calls["criteria.ccn"] = lambda: criteria.ccn(rho, tuple(range(1, n // 2 + 1)))
        for name, fn in calls.items():
            out[f"{name}_us.n{n}"] = median_us(fn)
    return out
