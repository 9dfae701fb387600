import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treecap import (
    BoundarySet,
    ConvergenceError,
    MisalignedArcError,
    TreecapError,
    VertexId,
    cantor_set,
    disc,
    prefix_set,
)
from treecap.disc import (
    CondenserProblem,
    SolverGrid,
    condenser_profile,
    solve,
    _conductances,
    _plate_mask,
    _radial_nodes,
)

FAST = SolverGrid(n_angular=256, n_radial=48)


def full_problem(r):
    return CondenserProblem.from_set(BoundarySet.full(), r)


class TestGridSetup:
    def test_radial_nodes_shape(self):
        rho = _radial_nodes(0.5, 60, 256)
        assert rho[0] == 0.5 and rho[-1] == 1.0
        assert np.all(np.diff(rho) > 0)
        # spacing shrinks toward the circle
        gaps = np.diff(rho)
        assert gaps[-1] < gaps[0]

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            SolverGrid(n_angular=100)
        with pytest.raises(ValueError):
            SolverGrid(n_radial=2)

    def test_problem_validation(self):
        for r in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError):
                CondenserProblem(prefix_set(0.5), r)

    def test_problem_canonicalizes_arcs(self):
        # the plate is the set itself, so problems compare as sets
        half = prefix_set(0.5)
        split = BoundarySet.from_full_leaves([(2, 0), (2, 1)])
        assert CondenserProblem.from_set(half, 0.5).plate is half
        assert CondenserProblem(split, 0.5) == CondenserProblem(half, 0.5)

    def test_plate_values_are_fixed(self):
        with pytest.raises(TypeError):
            CondenserProblem(prefix_set(0.5), 0.5, (2.0, 0.0))
        with pytest.raises(TypeError):
            CondenserProblem(prefix_set(0.5), 0.5, plate_values=(2.0, 0.0))

    def test_misaligned_arcs(self):
        deep = BoundarySet.shadow(VertexId(9, 0))
        with pytest.raises(MisalignedArcError, match=r"need at least 2\^10$"):
            solve(CondenserProblem.from_set(deep, 0.5), FAST)
        # the last level the grid tiles: 2^7 cells of width 2
        solve(CondenserProblem(BoundarySet.shadow(VertexId(7, 5)), 0.5), FAST)


class TestBenchmark:
    @pytest.mark.parametrize("r", [0.5, 0.75, 0.875, 1 - 2.0**-5])
    def test_full_circle_formula(self, r):
        exact = 1.0 / math.log(1.0 / r)
        got = solve(full_problem(r), FAST).capacity
        assert abs(got - exact) / exact < 0.02

    def test_empty_plate(self):
        sol = solve(CondenserProblem.from_set(BoundarySet.empty(), 0.5), FAST)
        assert sol.capacity == 0.0
        assert np.all(sol.potential == 0.0)

    def test_grid_convergence_and_richardson(self):
        exact = 1.0 / math.log(2.0)
        coarse = solve(full_problem(0.5), SolverGrid(128, 24)).capacity
        fine = solve(full_problem(0.5), SolverGrid(256, 48)).capacity
        assert abs(fine - coarse) / exact < 0.01
        richardson = (4.0 * fine - coarse) / 3.0
        assert abs(richardson - exact) <= abs(fine - exact)


class TestSolutionProperties:
    def test_maximum_principle(self):
        sol = solve(CondenserProblem.from_set(prefix_set(0.5), 0.5), FAST)
        assert sol.potential.min() >= -1e-8
        assert sol.potential.max() <= 1.0 + 1e-8

    def test_flux_identity_across_rings(self):
        sol = solve(CondenserProblem.from_set(prefix_set(0.5), 0.5), FAST)
        for gap in (0, 10, 25, 40):
            assert abs(sol.flux_capacity(gap) - sol.capacity) <= 1e-6 * sol.capacity

    def test_rotation_invariance(self):
        quarter = BoundarySet.shadow(VertexId(2, 0))
        rotated = BoundarySet.shadow(VertexId(2, 2))
        a = solve(CondenserProblem.from_set(quarter, 0.5), FAST).capacity
        b = solve(CondenserProblem.from_set(rotated, 0.5), FAST).capacity
        assert abs(a - b) <= 1e-7 * a

    def test_monotone_in_plate(self):
        small = BoundarySet.shadow(VertexId(2, 0))
        large = prefix_set(0.5)
        a = solve(CondenserProblem.from_set(small, 0.5), FAST).capacity
        b = solve(CondenserProblem.from_set(large, 0.5), FAST).capacity
        assert a <= b + 1e-9

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(disc, "CG_MAX_ITER", 1)
        problem = CondenserProblem.from_set(prefix_set(0.5), 0.5)
        with pytest.raises(ConvergenceError) as info:
            solve(problem, SolverGrid(256, 48))
        assert info.value.iterations == 1
        assert info.value.residual > 0.0

    def test_deterministic(self):
        p = CondenserProblem.from_set(cantor_set(2), 0.5)
        assert solve(p, FAST).capacity == solve(p, FAST).capacity

    def test_solutions_compare_by_identity(self):
        # array fields have no single truth value, so == must not compare them
        p = CondenserProblem.from_set(cantor_set(2), 0.5)
        a, b = solve(p, FAST), solve(p, FAST)
        assert a == a
        assert a != b

    def test_field_rows(self):
        sol = solve(full_problem(0.5), SolverGrid(128, 24))
        rows = list(sol.field_rows())
        assert len(rows) == 25 * 128
        rho, theta, u = rows[0]
        assert rho == 0.5 and theta == 0.0 and u == 0.0


def _grid_energy(u, kr, kt):
    """Raw Dirichlet energy of a grid field: sum of conductance-weighted squared drops."""
    radial = kr[:, None] * (u[1:, :] - u[:-1, :]) ** 2
    angular = kt[:, None] * (np.roll(u, -1, axis=1) - u) ** 2
    return float(radial.sum() + angular.sum())


def grid_laplacian(kr, kt, shape):
    """The full 2D quadratic form as a dense graph Laplacian, assembled edge by
    edge: radial edges (i, j)-(i+1, j) with conductance kr[i], angular edges
    (i, j)-(i, j+1 mod N) with conductance kt[i]."""
    rings, cols = shape
    index = np.arange(rings * cols).reshape(shape)
    a = np.zeros((rings * cols, rings * cols))

    def add_edge(p, q, k):
        a[p, p] += k
        a[q, q] += k
        a[p, q] -= k
        a[q, p] -= k

    for i in range(rings):
        for j in range(cols):
            if i + 1 < rings:
                add_edge(index[i, j], index[i + 1, j], kr[i])
            add_edge(index[i, j], index[i, (j + 1) % cols], kt[i])
    return a


def dense_solve(problem, grid):
    """Capacity and potential from a dense solve of the full 2D quadratic form."""
    rho = _radial_nodes(problem.inner_radius, grid.n_radial, grid.n_angular)
    kr, kt = _conductances(rho, grid.n_angular)
    shape = (grid.n_radial + 1, grid.n_angular)
    a = grid_laplacian(kr, kt, shape)
    plate = _plate_mask(problem.plate, grid.n_angular)
    fixed = np.zeros(shape, dtype=bool)
    fixed[0, :] = True
    fixed[-1, plate] = True
    v = np.zeros(shape)
    v[-1, plate] = 1.0
    v = v.ravel()
    free, fixed = ~fixed.ravel(), fixed.ravel()
    v[free] = np.linalg.solve(a[np.ix_(free, free)], -a[np.ix_(free, fixed)] @ v[fixed])
    return float(v @ a @ v) / (2.0 * math.pi), v.reshape(shape)


ORACLE_CASES = [
    (name, e, n_angular, n_radial, r)
    for name, e in [
        ("half", prefix_set(0.5)),
        ("quarter", BoundarySet.shadow(VertexId(2, 1))),
        ("cantor 2", cantor_set(2)),
    ]
    for n_angular, n_radial in [(16, 6), (32, 8)]
    if n_angular >= 1 << (e.resolution + 1)
    for r in (0.5, 0.875)
]


oracle_cases = pytest.mark.parametrize(
    "e, n_angular, n_radial, r",
    [case[1:] for case in ORACLE_CASES],
    ids=[f"{c[0]}-{c[2]}x{c[3]}-r{c[4]}" for c in ORACLE_CASES],
)


class TestDenseOracle:
    @oracle_cases
    def test_matches_dense_solve(self, e, n_angular, n_radial, r, monkeypatch):
        monkeypatch.setattr(disc, "CG_TOL", 1e-13)
        problem = CondenserProblem.from_set(e, r)
        grid = SolverGrid(n_angular, n_radial)
        cap, u = dense_solve(problem, grid)
        sol = solve(problem, grid)
        assert abs(sol.capacity - cap) <= 1e-10 * cap
        assert np.max(np.abs(sol.potential - u)) <= 1e-10 * np.max(np.abs(u))

    @oracle_cases
    def test_green_identity(self, e, n_angular, n_radial, r):
        # the ring-form capacity is the energy of the recovered interior field
        sol = solve(CondenserProblem.from_set(e, r), SolverGrid(n_angular, n_radial))
        energy = _grid_energy(sol.potential, sol._kr, sol._kt) / (2.0 * math.pi)
        assert abs(energy - sol.capacity) <= 1e-10 * sol.capacity


def raster_mask(plate, n_angular):
    """Ring nodes on the plate, from its maximal arcs: node k is held at 1 iff
    k / N lies in a closed arc, with the arc ending at 1 wrapping to node 0."""
    mask = np.zeros(n_angular, dtype=bool)
    for lo, hi in plate.intervals():
        for k in range(n_angular):
            if lo <= Fraction(k, n_angular) <= hi:
                mask[k] = True
        if hi == 1:
            mask[0] = True
    return mask


def plates(max_level):
    pairs = st.lists(
        st.integers(0, max_level).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1))
        ),
        max_size=8,
    )
    return pairs.map(BoundarySet.from_full_leaves)


class TestPlateMask:
    @given(plates(max_level=4), st.sampled_from([32, 64]))
    @example(BoundarySet.full(), 32)
    @example(BoundarySet.empty(), 32)
    @settings(max_examples=80, deadline=None)
    def test_matches_interval_raster(self, plate, n_angular):
        assert np.array_equal(
            _plate_mask(plate, n_angular), raster_mask(plate, n_angular)
        )


class TestLargeGrid:
    """2^16 angular cells: the preconditioned ring solve at the deep-compare size."""

    def test_full_circle_formula(self):
        exact = 1.0 / math.log(2.0)
        got = solve(full_problem(0.5), SolverGrid(65536, 200)).capacity
        assert abs(got - exact) / exact < 0.02

    def test_flux_identity_and_iterations(self):
        problem = CondenserProblem.from_set(prefix_set(0.375), 0.9375)
        sol = solve(problem, SolverGrid(65536, 200))
        # iteration counts repeat exactly; plain CG takes about 470 here
        assert sol.iterations <= 20
        for gap in (0, 100, 199):
            assert abs(sol.flux_capacity(gap) - sol.capacity) <= 1e-6 * sol.capacity

    def test_capacity_needs_only_ring_memory(self):
        # one (R + 1) x N float array of this grid alone would take 840 MB
        problem = CondenserProblem.from_set(prefix_set(0.375), 0.9375)
        tracemalloc.start()
        try:
            sol = solve(problem, SolverGrid(65536, 1600))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sol.capacity > 0.0
        assert "potential" not in vars(sol)
        assert peak < 64 * 2**20


class TestSizeGuard:
    def test_huge_ring_fails_before_allocating(self):
        problem = full_problem(0.5)
        tracemalloc.start()
        try:
            with pytest.raises(TreecapError, match="smaller grid"):
                solve(problem, SolverGrid(1 << 40, 4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_field_is_checked_when_first_read(self, monkeypatch):
        sol = solve(CondenserProblem.from_set(prefix_set(0.5), 0.5), FAST)
        monkeypatch.setattr(disc, "MAX_ARRAY_ELEMENTS", FAST.n_angular)
        with pytest.raises(TreecapError, match="potential field"):
            sol.potential


class TestWrappers:
    def test_profile_full_circle(self):
        profile = condenser_profile(BoundarySet.full(), 4, FAST)
        assert [n for n, _ in profile] == [1, 2, 3, 4]
        values = [v for _, v in profile]
        assert all(b > a for a, b in zip(values, values[1:]))
        for n, value in profile:
            exact = 1.0 / math.log(1.0 / (1.0 - 2.0**-n))
            assert abs(value - exact) / exact < 0.02

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            condenser_profile(BoundarySet.full(), 0, FAST)


class TestKernels:
    def test_energy_matches_quadratic_form(self):
        rng = np.random.default_rng(6)
        rho = _radial_nodes(0.5, 12, 32)
        kr, kt = _conductances(rho, 32)
        u = rng.normal(size=(13, 32))
        a = grid_laplacian(kr, kt, u.shape)
        assert abs(_grid_energy(u, kr, kt) - float(u.ravel() @ a @ u.ravel())) <= 1e-9
