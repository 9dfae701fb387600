"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Stated runtime budgets are asserted where the criterion
pins one.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from treecap import (
    BoundarySet,
    VertexId,
    brute_force_capacity,
    cantor_set,
    capacity,
    condenser_capacity,
    energy,
    equilibrium_measure,
    extremal,
    lower_bound,
    lower_bound_gap_form,
    plateau_bound,
    prefix_set,
    psi,
    psi_iterate,
    random_boundary_set,
    set_of_capacity,
)
from treecap.disc import CondenserProblem, SolverGrid, solve
from treecap.experiments import run_blowup, run_compare, run_lowerbound, run_plateau


@contextmanager
def criterion(number, name, budget_seconds=None):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        elapsed = time.perf_counter() - start
        print(f"ACCEPTANCE {number} ({name}): FAIL after {elapsed:.2f}s")
        raise
    elapsed = time.perf_counter() - start
    in_budget = budget_seconds is None or elapsed < budget_seconds
    budget_note = (
        f"{elapsed:.2f}s" if budget_seconds is None
        else f"{elapsed:.2f}s of {budget_seconds:.0f}s budget"
    )
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if in_budget else 'FAIL'} ({budget_note})")
    assert in_budget, f"runtime {elapsed:.2f}s exceeded budget {budget_seconds}s"


def test_criterion_1_exact_values():
    with criterion(1, "exact tree values", budget_seconds=1.0):
        assert abs(capacity(BoundarySet.full()) - 0.5) <= 1e-12
        assert capacity(BoundarySet.full(), exact=True) == Fraction(1, 2)
        for depth in range(21):
            index = (37 * depth) % (1 << depth) if depth else 0
            shadow = BoundarySet.shadow(VertexId(depth, index))
            assert capacity(shadow, exact=True) == Fraction(1, depth + 2)
            assert abs(capacity(shadow) - 1.0 / (depth + 2)) <= 1e-12
        for n in range(21):
            assert condenser_capacity(BoundarySet.full(), n) == 2.0 ** (n - 1)


def test_criterion_2_plateau():
    with criterion(2, "equal-split plateau", budget_seconds=10.0):
        for eps in (0.05, 0.25, 0.4):
            report = run_plateau(eps, 12, tol=1e-9, exact=True)
            assert report.verdict, f"plateau verdict failed at eps={eps}"
            ceiling = plateau_bound(eps)
            for row in report.rows:
                assert row["difference"] <= 1e-9
                assert row["computed"] <= ceiling


def test_criterion_3_sharp_lower_bound():
    with criterion(3, "sampled sharp lower bound", budget_seconds=60.0):
        for eps, seed in ((0.1, 7), (0.2, 11), (0.3, 13)):
            report = run_lowerbound(eps, 8, samples=100, seed=seed, tol=1e-6)
            assert report.verdict, f"lower bound verdict failed at eps={eps}"
            assert all(row["violations"] == 0 for row in report.rows)
            assert all(row["split_diff"] <= 1e-6 for row in report.rows)


def test_criterion_4_blowup():
    with criterion(4, "condenser blow-up", budget_seconds=5.0):
        for t in (Fraction(1, 2), Fraction(3, 8)):
            report = run_blowup(prefix_set(t), 13, threshold=1e3)
            assert report.verdict, f"blow-up verdict failed at t={t}"
            values = {row["n"]: row["tree"] for row in report.rows}
            assert values[13] > 1e3
            for n in range(8, 14):
                ratio = values[n] / values[n - 1]
                assert 1.5 <= ratio <= 2.0


def _fixed_suite():
    suite = [BoundarySet.shadow(VertexId(n, j)) for n, j in
             [(0, 0), (1, 0), (2, 1), (3, 5), (4, 9), (5, 17)]]
    suite += [prefix_set(Fraction(p, q)) for p, q in
              [(1, 2), (3, 8), (5, 8), (11, 16), (1, 4), (7, 8)]]
    suite += [cantor_set(k) for k in (1, 2, 3)]
    seed = 100
    while len(suite) < 20:
        candidate = random_boundary_set(seed, max_depth=8)
        seed += 1
        if not candidate.is_empty():
            suite.append(candidate)
    return suite


def test_criterion_5_extremal_machinery():
    with criterion(5, "extremal machinery on the fixed suite"):
        suite = _fixed_suite()
        assert len(suite) == 20
        for e in suite:
            c = capacity(e)
            flux = extremal(e)
            assert abs(energy(flux) - c) <= 1e-9
            h = {VertexId(*row["vertex"]): row["h"] for row in flux.to_json_obj()}
            for v, hv in h.items():
                left, right = v.children()
                if left in h and right in h:
                    assert abs(hv - h[left] - h[right]) <= 1e-12
            measure = equilibrium_measure(e)
            assert abs(measure.total_mass - c) <= 1e-12


def test_criterion_6_oracle_equivalence():
    with criterion(6, "KKT oracle equivalence", budget_seconds=30.0):
        count, seed = 0, 0
        while count < 100:
            e = random_boundary_set(seed, max_depth=6)
            seed += 1
            if e.is_empty():
                continue
            count += 1
            assert abs(brute_force_capacity(e, 6) - capacity(e)) <= 1e-6


def test_criterion_7_solver_benchmark():
    with criterion(7, "disc solver benchmark", budget_seconds=120.0):
        full = BoundarySet.full()
        radii = [0.5, 0.75, 0.875, 0.9375, 1 - 2.0**-5, 1 - 2.0**-6]
        for r in radii:
            exact = 1.0 / math.log(1.0 / r)
            got = solve(CondenserProblem.from_set(full, r)).capacity
            assert abs(got - exact) / exact < 0.02, f"benchmark failed at r={r}"
        exact = 1.0 / math.log(2.0)
        base = solve(CondenserProblem.from_set(full, 0.5)).capacity
        halved = solve(
            CondenserProblem.from_set(full, 0.5),
            SolverGrid(n_angular=2048, n_radial=400),
        ).capacity
        richardson = (4.0 * halved - base) / 3.0
        assert abs(richardson - exact) < abs(base - exact)


def test_criterion_8_comparability():
    with criterion(8, "tree vs disc comparability", budget_seconds=300.0):
        cases = {
            "half circle": prefix_set(Fraction(1, 2)),
            "cantor depth 3": cantor_set(3),
            "prefix 3/8": prefix_set(Fraction(3, 8)),
        }
        for label, e in cases.items():
            report = run_compare(e, n_max=6)
            assert report.verdict, f"comparability failed for {label}"
            ratios = [row["ratio"] for row in report.rows if row["n"] >= 1]
            assert all(0.1 <= ratio <= 10.0 for ratio in ratios)
            assert max(ratios) / min(ratios) <= 20.0


def test_criterion_9_formula_cross_checks():
    with criterion(9, "closed-form cross-checks"):
        rng = random.Random(1234)
        for _ in range(1000):
            t = rng.uniform(0.0, 0.5)
            composed = t
            for n in range(1, 41):
                composed = psi(composed)
                assert abs(psi_iterate(t, n) - composed) <= 1e-12
        for k in range(1, 50):
            eps = 0.01 * k
            if eps >= 0.495:
                break
            for n in range(0, 41):
                delta_form = lower_bound_gap_form(0.5 - eps, n)
                assert abs(lower_bound(eps, n) - delta_form) <= 1e-12
        for k in range(1, 46):
            eps = 0.01 * k
            assert abs(lower_bound(eps, 40) - plateau_bound(eps)) <= 1e-10


def test_criterion_10_set_builder():
    with criterion(10, "prescribed capacity and set laws"):
        rng = random.Random(20240817)
        for _ in range(50):
            target = rng.uniform(0.0, 0.5)
            e = set_of_capacity(target, 1e-10)
            assert abs(capacity(e) - target) <= 1e-10
        for pair in range(200):
            a = random_boundary_set(3000 + pair, max_depth=6)
            b = random_boundary_set(7000 + pair, max_depth=6)
            u = a.union(b)
            assert capacity(a) <= capacity(u) + 1e-12
            assert capacity(u) <= capacity(a) + capacity(b) + 1e-12
