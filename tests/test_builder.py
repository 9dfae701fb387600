import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treecap import builder
from treecap import (
    BoundarySet,
    CalibrationError,
    VertexId,
    ToleranceError,
    TreecapError,
    calibrated_set,
    cantor_set,
    capacity,
    condenser_capacity,
    equal_split,
    lower_bound,
    lower_bound_gap_form,
    plateau_bound,
    psi,
    psi_iterate,
    random_boundary_set,
    set_of_capacity,
    split_levels,
)


class TestPsi:
    def test_fixed_points(self):
        assert psi(0.0) == 0.0
        assert psi(0.5) == 0.5

    def test_value(self):
        assert abs(psi(0.25) - 1.0 / 6.0) <= 1e-15

    def test_domain(self):
        with pytest.raises(ValueError):
            psi(-0.01)
        with pytest.raises(ValueError):
            psi(0.51)
        with pytest.raises(ValueError):
            psi_iterate(0.6, 2)

    def test_iterate_examples(self):
        assert abs(psi_iterate(0.25, 3) - 1.0 / 18.0) <= 1e-15
        assert psi_iterate(0.3, 0) == 0.3

    @given(st.floats(0.0, 0.5), st.integers(0, 40))
    @settings(max_examples=200)
    def test_closed_form_matches_composition(self, t, n):
        composed = t
        for _ in range(n):
            composed = psi(composed)
        # the fixed point at 1/2 repels with derivative 2, so float composition
        # drifts by about (d/dt psi^n) * n ulp there; 1e-12 holds away from it
        denom = 2.0**n * (1.0 - 2.0 * t) + 2.0 * t
        drift = (2.0**n / denom**2) * (n + 2) * 2.2e-16
        assert abs(psi_iterate(t, n) - composed) <= 1e-12 + drift

    @given(st.floats(0.001, 0.499))
    def test_single_step(self, t):
        assert abs(psi_iterate(t, 1) - psi(t)) <= 1e-15

    def test_unscaled_form_below_level_1000(self):
        # away from underflow the 2^-n scaling is exact, so the unscaled
        # closed form gives the same bits
        for t in (0.0, 1e-3, 0.1, 0.25, 0.3, 0.4999, 0.5 - 2.0**-40, 0.5):
            for n in range(1001):
                unscaled = t / (2.0**n * (1.0 - 2.0 * t) + 2.0 * t)
                assert psi_iterate(t, n) == unscaled

    @pytest.mark.parametrize("n", [1100, 5000])
    def test_finite_at_extreme_levels(self, n):
        assert psi_iterate(0.5, n) == 0.5
        assert psi_iterate(0.0, n) == 0.0
        for t in (0.1, 0.25, 0.5 - 2.0**-40):
            assert psi_iterate(t, n) == 0.0  # t 2^-n / (1 - 2t) underflows


class TestLowerBound:
    def test_level_zero(self):
        for eps in (0.1, 0.25, 0.49):
            assert lower_bound(eps, 0) == eps

    def test_value(self):
        assert abs(lower_bound(0.25, 3) - 4.0 / 9.0) <= 1e-15

    def test_matches_split_levels(self):
        for eps in (0.05, 0.25, 0.4):
            e = split_levels(eps, 6)
            for n in range(7):
                assert abs(lower_bound(eps, n) - 2.0**n * e[n]) <= 1e-12

    @given(st.floats(0.001, 0.499), st.integers(0, 40))
    @settings(max_examples=200)
    def test_gap_form_agrees(self, eps, n):
        assert abs(lower_bound(eps, n) - lower_bound_gap_form(0.5 - eps, n)) <= 1e-12

    @given(st.floats(0.001, 0.45))
    def test_limit_is_plateau_bound(self, eps):
        assert abs(lower_bound(eps, 40) - plateau_bound(eps)) <= 1e-10

    def test_unscaled_form_below_level_1000(self):
        for eps in (0.0, 0.1, 0.25, 0.4999, 0.5):
            for n in range(1001):
                assert lower_bound(eps, n) == eps / (
                    (1.0 - 2.0 * eps) + 2.0 ** (1 - n) * eps
                )
                delta = 0.5 - eps
                assert lower_bound_gap_form(delta, n) == (0.5 - delta) / (
                    (2.0 - 2.0 ** (1 - n)) * delta + 2.0 ** (-n)
                )

    @pytest.mark.parametrize("n", [1100, 5000])
    def test_extreme_levels(self, n):
        # at eps = 1/2 the bound is 2^(n-1), past the float range
        with pytest.raises(TreecapError, match="exceeds the float range"):
            lower_bound(0.5, n)
        with pytest.raises(TreecapError, match="exceeds the float range"):
            lower_bound_gap_form(0.0, n)
        assert lower_bound(0.25, n) == plateau_bound(0.25)
        assert lower_bound_gap_form(0.25, n) == plateau_bound(0.25)

    def test_doubling_then_plateau_shape(self):
        for delta in (2.0**-3, 2.0**-6, 0.3):
            for n in range(1, 20):
                value = lower_bound_gap_form(delta, n)
                if 2.0**-n >= 2.0 * delta:
                    ref = 2.0**n * (0.5 - delta)
                    assert ref / 2.0 <= value <= ref
                if 2.0**-n <= delta:
                    ref = (0.5 - delta) / (2.0 * delta)
                    assert ref / 2.0 <= value <= 2.0 * ref


class TestSetOfCapacity:
    def test_endpoints(self):
        assert set_of_capacity(0.0, 1e-12).is_empty()
        assert set_of_capacity(0.5, 1e-12).is_full()

    def test_exact_hit_smallest_resolution(self):
        assert set_of_capacity(1.0 / 3.0, 1e-12).full_leaves() == [(1, 0)]
        assert set_of_capacity(0.25, 1e-12).full_leaves() == [(2, 0)]

    def test_validation(self):
        with pytest.raises(ValueError):
            set_of_capacity(0.7, 1e-9)
        with pytest.raises(ValueError):
            set_of_capacity(0.2, 0.0)

    def test_nan_tolerance(self):
        # NaN would switch off the final |capacity - target| <= tol check
        with pytest.raises(ValueError, match="tolerance must be positive"):
            set_of_capacity(0.2, math.nan)

    def test_tolerance_unreachable_reports_bracket(self):
        with pytest.raises(ToleranceError) as err:
            set_of_capacity(0.2341, 1e-12, max_resolution=12)
        assert err.value.bracket is not None

    def test_random_targets(self):
        rng = random.Random(20240817)
        for _ in range(50):
            x = rng.uniform(0.0, 0.5)
            e = set_of_capacity(x, 1e-10)
            assert abs(capacity(e) - x) <= 1e-10

    def test_targets_hugging_shadow_values(self):
        # just above/below the single-shadow values 1/(k+2), where the cut
        # map is flattest and the subtree rebuild fallback has to kick in
        for k in range(1, 30):
            base = 1.0 / (k + 2)
            for offset in (-1e-9, 1e-9):
                target = base + offset
                e = set_of_capacity(target, 1e-10)
                assert abs(capacity(e) - target) <= 1e-10


class TestEqualSplit:
    def test_levels_hand_values(self):
        fam = equal_split(0.25, 3, 1e-12)
        expected = [0.25, 1.0 / 6.0, 0.1, 1.0 / 18.0]
        assert fam.e == pytest.approx(expected, abs=1e-15)

    def test_condenser_value(self):
        fam = equal_split(0.25, 3, 1e-12)
        assert abs(condenser_capacity(fam.carrier, 3) - 4.0 / 9.0) <= 1e-11

    def test_closed_form_cross_check(self):
        for eps, n in [(0.25, 3), (0.4, 5), (0.05, 4)]:
            fam = equal_split(eps, n, 1e-10)
            closed = 2.0**n * eps / (2.0**n - (2.0 ** (n + 1) - 2.0) * eps)
            assert abs(condenser_capacity(fam.carrier, n) - closed) <= 1e-9

    def test_depth_zero(self):
        fam = equal_split(0.3, 0, 1e-10)
        assert fam.carrier == set_of_capacity(0.3, 1e-10)

    def test_plateau_ceiling(self):
        # the dichotomy partner of the blow-up: along the split family the
        # level-n condenser capacity never leaves [eps, R].  Carriers at
        # level n need dyadic resolution ~ 1/e_n, so realized sets stop at
        # n = 12 and the closed form carries the check further.
        for n in range(13):
            fam = equal_split(0.25, n, 1e-9)
            value = condenser_capacity(fam.carrier, n)
            assert 0.25 - 1e-9 <= value <= 0.5 + 1e-12
        for n in range(13, 21):
            assert 2.0**n * psi_iterate(0.25, n) <= 0.5

    def test_root_capacity_verified(self):
        fam = equal_split(0.2, 6, 1e-9)
        assert abs(capacity(fam.carrier) - 0.2) <= 1e-9

    def test_domain(self):
        with pytest.raises(ValueError):
            equal_split(0.5, 2)
        with pytest.raises(ValueError):
            equal_split(0.0, 2)
        with pytest.raises(ValueError):
            equal_split(0.2, -1)

    def test_nan_tolerance(self):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            equal_split(0.25, 2, math.nan)

    def test_json_export(self):
        fam = equal_split(0.25, 2, 1e-9)
        obj = fam.to_json_obj()
        assert set(obj) == {"epsilon", "n", "e", "bound_R", "carrier"}
        assert obj["bound_R"] == pytest.approx(0.5)
        assert BoundarySet.from_json_obj(obj["carrier"]) == fam.carrier


class TestSharpness:
    @pytest.mark.parametrize("eps", [0.1, 0.3])
    def test_equal_split_attains_bound(self, eps):
        for n in range(7):
            fam = equal_split(eps, n, 1e-9)
            got = condenser_capacity(fam.carrier, n)
            assert abs(got - lower_bound(eps, n)) <= 1e-8

    def test_random_sets_respect_bound(self):
        # convexity bound: level sums dominate 2^n psi_iterate(capacity, n)
        for seed in range(40):
            e = random_boundary_set(seed, max_depth=7)
            c = capacity(e)
            for n in range(9):
                floor = 2.0**n * psi_iterate(c, n)
                assert condenser_capacity(e, n) >= floor - 1e-9


class TestCalibratedSet:
    def test_reaches_target(self):
        base = random_boundary_set(99, max_depth=8)
        e = calibrated_set(base, 0.3, 1e-7)
        assert abs(capacity(e) - 0.3) <= 1e-7

    def test_trim_and_union_directions(self):
        light = BoundarySet.shadow(VertexId(6, 0))
        heavy = BoundarySet.full()
        up = calibrated_set(light, 0.3, 1e-7)
        down = calibrated_set(heavy, 0.3, 1e-7)
        assert abs(capacity(up) - 0.3) <= 1e-7
        assert abs(capacity(down) - 0.3) <= 1e-7
        assert light.is_subset_of(up)
        assert down.is_subset_of(heavy)

    def test_union_of_empty_is_trim_of_full(self):
        # a leaf base is all piece, and the piece is set_of_capacity's set
        rng = random.Random(15)
        for _ in range(60):
            target = rng.uniform(0.001, 0.499)
            expected = set_of_capacity(target, 1e-9)
            for base in (BoundarySet.empty(), BoundarySet.full()):
                assert calibrated_set(base, target, 1e-9) == expected

    @pytest.mark.parametrize("eps, seed", [(0.1, 7), (0.2, 11), (0.3, 13)])
    def test_lowerbound_bases_calibrate_to_distinct_sets(self, eps, seed):
        # the first 100 non-leaf bases the lower-bound experiment draws, at
        # its calibration target and tolerance for tol 1e-6
        sets, k = [], 0
        while len(sets) < 100:
            base = random_boundary_set(seed * 1_000_003 + k, max_depth=8)
            k += 1
            if not (base.is_empty() or base.is_full()):
                sets.append(calibrated_set(base, eps + 0.4e-6, 0.3e-6))
        assert len(set(sets)) >= 80

    def test_trim_shrinks_and_union_grows(self):
        for seed in range(24):
            base = random_boundary_set(seed, max_depth=8)
            for eps in (0.1, 0.3, 0.45):
                try:
                    result = calibrated_set(base, eps, 1e-7)
                except CalibrationError:
                    continue
                if capacity(base) > eps:
                    assert result.is_subset_of(base), (seed, eps)
                else:
                    assert base.is_subset_of(result), (seed, eps)

    def test_noop_within_tolerance(self):
        base = cantor_set(1)  # capacity 2/5
        assert calibrated_set(base, 0.4, 1e-6) == base

    def test_validation(self):
        with pytest.raises(ValueError):
            calibrated_set(BoundarySet.full(), 0.6, 1e-6)

    def test_nan_tolerance(self):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            calibrated_set(BoundarySet.full(), 0.3, math.nan)


class TestCantor:
    def test_structure(self):
        assert cantor_set(0).is_full()
        assert cantor_set(1).full_leaves() == [(2, 0), (2, 3)]
        assert len(cantor_set(3).full_leaves()) == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            cantor_set(-1)


class TestRandomSets:
    def test_deterministic(self):
        assert random_boundary_set(7) == random_boundary_set(7)
        assert random_boundary_set(7) != random_boundary_set(8)

    def test_depth_bound(self):
        for seed in range(30):
            assert random_boundary_set(seed, max_depth=5).resolution <= 5


def _pin(bset):
    """Resolution, leaf count, capacity repr and a digest of the leaves.

    Indices enter the digest modulo a prime, so deep leaves never meet the
    interpreter's limit on printing large ints.
    """
    digest = hashlib.sha1()
    for n, j in bset.full_leaves():
        digest.update(f"{n}:{j % (2**61 - 1)};".encode())
    return (
        bset.resolution,
        len(bset.full_leaves()),
        repr(capacity(bset)),
        digest.hexdigest(),
    )


class TestPinnedOutput:
    """Builder output pinned bit for bit, including deep carved cuts."""

    @pytest.mark.parametrize(
        "target, tol, pin",
        [
            (0.1234, 1e-10, (27, 7, "0.12340000000000001", "14322f6a34080beff5e1eb1b1df109161544176b")),
            (0.2718281828, 1e-9, (39, 6, "0.27182818352059923", "ee8a072b95e3b1e945babfb55698718ab9da04d4")),
            (0.4142135, 1e-10, (2421, 6, "0.4142135", "2b962a64beac665a76a1c5fa613e36e41aa97aed")),
            (0.05, 1e-9, (18, 1, "0.05000000000000004", "cd8f9b36bf4b0c219a06363e7173fb38572cba1c")),
            (1 / 3 + 1e-9, 1e-10, (15346, 6, "0.3333333343460171", "faf5696ff3b0ee4ceb969e9de9e7175ec41b690e")),
            (1 / 3 - 1e-9, 1e-10, (27, 15, "0.33333333233992263", "f9216df6941f5a2a269edaf377b2de27e6607124")),
            (1 / 4 + 1e-9, 1e-10, (23129, 7, "0.25000000100001113", "046d3d5334a0fbb67b5591e5d2bd5a5ba30b2347")),
            (1 / 5 - 1e-9, 1e-10, (20, 14, "0.19999999897820608", "1f4a713a54a004dd7ca1f724530f02d3316a7c9f")),
            (1 / 12 + 1e-9, 1e-10, (9468, 4, "0.08333333433341418", "f6a1a82ec6c82b1412fe3307036728609f55ebf0")),
            (0.3333334, 1e-9, (55113, 4, "0.33333340000072", "39a55bce5d807303dd5fbb5121d8846d3b030730")),
        ],
    )
    def test_set_of_capacity(self, target, tol, pin):
        assert _pin(set_of_capacity(target, tol)) == pin

    @pytest.mark.parametrize(
        "seed, eps, pin",
        [
            # heavy bases: the piece replaces every Full leaf
            (2, 0.2, (98, 196, "0.20000002006477627", "aed035485a50da43880c16d2a2d4134161be650f")),
            (6, 0.2, (63, 70, "0.20000002005014686", "8aaca5f26cc9bd168799e0e47ab06f5937c539f1")),
            (7, 0.3, (54, 54, "0.30000002989045493", "037f46d00381b08df4b4d76bc4e654188dfb629b")),
            # light bases: the piece replaces every Empty leaf
            (4, 0.2, (58, 77, "0.20000002042242238", "b9e044fed9aab6cf54319a46903011eec1f6bf4c")),
            (6, 0.45, (44, 106, "0.45000004503793806", "216c94a98028e1dbd3d6b87847646a192c7425d8")),
            (9, 0.3, (149, 9, "0.3000000303184029", "5a06ff299600cac4c18be042c8d0a618fc5eedb1")),
        ],
    )
    def test_calibrated_set(self, seed, eps, pin):
        # the sampled bases of the lower-bound experiment, seed by seed
        base = random_boundary_set(seed * 1_000_003, max_depth=8)
        assert _pin(calibrated_set(base, eps * 1.0000001, 1e-9)) == pin

    def test_equal_split(self):
        carrier = equal_split(0.25, 4).carrier
        assert _pin(carrier) == (36, 16, "0.25", "c95eef95d9acc4a98dba808962de260c1a1521c3")


class TestSearchExits:
    """Exits of the cut search that ordinary targets do not reach."""

    def test_budget_exit_carves(self, monkeypatch):
        monkeypatch.setattr(builder, "_ITERATION_BUDGET", 5)
        target, tol = 0.3842495632985409, 1e-10
        result = builder._solve_cut(target, tol, builder.BISECTION_MAX_RESOLUTION)
        assert abs(capacity(result) - target) <= tol

    def test_stalled_search_raises(self, monkeypatch):
        monkeypatch.setattr(builder, "_ITERATION_BUDGET", 3)
        with pytest.raises(ToleranceError, match="cut search stalled") as info:
            builder._solve_cut(1 / 3 + 1e-9, 1e-10, builder.BISECTION_MAX_RESOLUTION)
        assert info.value.bracket is None

    def test_one_plan_per_carve(self, monkeypatch):
        plans, carves = [], []
        plan, solve = builder._carve_plan, builder._solve_cut

        def spy_plan(*args):
            plans.append(plan(*args))
            return plans[-1]

        def spy_solve(*args):
            carves.append(args)
            return solve(*args)

        monkeypatch.setattr(builder, "_carve_plan", spy_plan)
        monkeypatch.setattr(builder, "_solve_cut", spy_solve)
        set_of_capacity(1 / 5 + 1e-7, 1e-10)
        # root-split retries search anew; a carve passes its remaining depth
        depths = [args[3] for args in carves if len(args) == 4]
        assert depths == [builder._CARVE_DEPTH - 1]
        assert sum(p is not None for p in plans) == len(depths)

    def test_carve_plan_refusals(self):
        hi, res = 0.5, builder.BISECTION_MAX_RESOLUTION
        # a degenerate bracket map cannot be inverted
        assert builder._carve_plan(0.3, 1e-10, (1.0, 1.0, 1.0, 1.0), hi, res) is None
        # a local target too small for the rebuilt subtree to afford
        assert builder._carve_plan(1e-6, 1e-10, (1.0, 0.0, 0.0, 1.0), hi, res) is None
        # no sensitivity gained: the relaxed tolerance would not be looser
        assert builder._carve_plan(0.3, 1e-10, (1.0, 0.0, 0.0, 1.0), hi, res) is None
        assert builder._carve_plan(0.03, 1e-10, (1.0, 0.0, 30.0, 1.0), hi, res) is not None
