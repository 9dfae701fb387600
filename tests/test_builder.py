import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treecap import (
    BoundarySet,
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
