import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treecap import builder
from treecap.capacity import _positions
from treecap.tree import _EMPTY_LEAF, _FULL_LEAF
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
    prefix_set,
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

    @pytest.mark.parametrize(
        "fn, args",
        [
            (psi_iterate, (0.25, -1)),
            (lower_bound, (0.6, 2)),
            (lower_bound, (0.25, -1)),
            (lower_bound_gap_form, (-0.1, 2)),
            (lower_bound_gap_form, (0.25, -1)),
            (plateau_bound, (0.0,)),
            (plateau_bound, (0.5,)),
        ],
    )
    def test_domain(self, fn, args):
        with pytest.raises(ValueError, match=r"must (be >= 0|lie in)"):
            fn(*args)

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

    def test_tolerance_unreachable_reports_bracket(self, monkeypatch):
        monkeypatch.setattr(builder, "BISECTION_MAX_RESOLUTION", 12)
        with pytest.raises(ToleranceError) as err:
            builder._search(0.2341, 1e-12)
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

    def test_level_identity_and_jensen_step(self):
        # children of a vertex of capacity c sum to f(c) = c/(1 - c), so
        # cond_{n+1} = sum over |v| = n of f(c_v); f is convex, and Jensen over
        # the 2^n level-n vertices gives cond_{n+1} >= 2^n f(cond_n / 2^n)
        def f(c):
            return c / (1 - c)

        sets = [random_boundary_set(seed, max_depth=8) for seed in range(200)]
        sets = [e for e in sets if not e.is_empty()] + [cantor_set(k) for k in range(5)]
        assert len(sets) == 148
        checks = equalities = 0
        for e in sets:
            # f(c_v) summed over level n: a leaf at level m stands for its
            # 2^(n - m) level-n descendants, each with the leaf's own c
            sums = [Fraction(0)] * 9
            for v, node, c, _, _ in _positions(e, True):
                leaf = node in (_FULL_LEAF, _EMPTY_LEAF)
                for n in range(v.level, 9 if leaf else min(v.level + 1, 9)):
                    sums[n] += (1 << (n - v.level)) * f(c)
            cond = [condenser_capacity(e, n, exact=True) for n in range(10)]
            for n in range(9):
                assert cond[n + 1] == sums[n]
                margin = cond[n + 1] - (1 << n) * f(cond[n] / (1 << n))
                assert margin >= 0
                checks += 1
                equalities += margin == 0
        assert (checks, equalities) == (1332, 370)


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

    def test_piece_deeper_than_the_cap_raises(self):
        # the piece's capacity, about 6.4e-7 at a tolerance of about 4.3e-7,
        # needs a cut deeper than BISECTION_MAX_RESOLUTION
        base = set_of_capacity(0.3, 1e-12)
        with pytest.raises(CalibrationError, match="cannot calibrate"):
            calibrated_set(base, 0.3000004, 3e-7)


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
    """Builder output pinned bit for bit, including deep cuts and root splits."""

    @pytest.mark.parametrize(
        "target, tol, pin",
        [
            (0.1234, 1e-10, (27, 7, "0.12340000000000001", "14322f6a34080beff5e1eb1b1df109161544176b")),
            (0.2718281828, 1e-9, (39, 6, "0.27182818352059923", "ee8a072b95e3b1e945babfb55698718ab9da04d4")),
            (0.4142135, 1e-10, (1524, 6, "0.414213500089999", "8ac6446ba4a41be8e6d5c203d1aa01cc620900ef")),
            (0.05, 1e-9, (18, 1, "0.05000000000000004", "cd8f9b36bf4b0c219a06363e7173fb38572cba1c")),
            (1 / 3 + 1e-9, 1e-10, (14516, 6, "0.3333333344052969", "43a4dd1fde5bfe6a3ff0cea89d707c2b647de0b4")),
            (1 / 3 - 1e-9, 1e-10, (24, 15, "0.33333333240201074", "06ff3c3ee416ecbd8f3891eb040967739fef721b")),
            (1 / 4 + 1e-9, 1e-10, (21577, 7, "0.25000000107199155", "7862e16bead4aa18aee22c2b4bab758e2f2f0b40")),
            (1 / 5 - 1e-9, 1e-10, (20, 14, "0.19999999897820608", "1f4a713a54a004dd7ca1f724530f02d3316a7c9f")),
            (1 / 12 + 1e-9, 1e-10, (8874, 4, "0.08333333440530677", "d7ef64497d97582c5d82d66e8101c9ac1e01e9b3")),
            (0.3333334, 1e-9, (54525, 4, "0.3333334007198906", "d10ec205dc86566ff96f619249a4b375f5b489b1")),
        ],
    )
    def test_set_of_capacity(self, target, tol, pin):
        assert _pin(set_of_capacity(target, tol)) == pin

    @pytest.mark.parametrize(
        "seed, eps, pin",
        [
            # heavy bases: the piece replaces every Full leaf
            (2, 0.2, (98, 196, "0.20000002006477627", "aed035485a50da43880c16d2a2d4134161be650f")),
            (6, 0.2, (59, 70, "0.200000020768905", "5ca83d2c0c0d3f4f12364afb3961bceefaedf8f0")),
            (7, 0.3, (54, 54, "0.30000002989045493", "037f46d00381b08df4b4d76bc4e654188dfb629b")),
            # light bases: the piece replaces every Empty leaf
            (4, 0.2, (58, 77, "0.20000002042242238", "b9e044fed9aab6cf54319a46903011eec1f6bf4c")),
            (6, 0.45, (42, 106, "0.45000004552223366", "87f9e87294321b8b6ae6e30d383abebef3cd9b97")),
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


class TestCutSearch:
    """The cut search at its edges: the coarsest cut, the resolution cap, float range."""

    @pytest.mark.parametrize(
        "target, tol",
        [(1 / 3 - 1e-9, 1e-10), (0.1234, 1e-10), (0.2718281828, 1e-9), (1 / 5 - 1e-9, 1e-10)]
        + [(t, 1e-12) for t in (0.0672, 0.118, 0.2499999, 0.3114, 0.4222, 0.49)],
    )
    def test_coarsest_cut(self, target, tol):
        result = builder._solve_cut(target, tol)
        assert abs(capacity(result) - target) <= tol
        ((start, t),) = result.intervals()
        assert start == 0
        # every coarser cut along the path, with an Empty or a Full leaf at
        # its cut vertex, misses the target by more than the search's window
        for d in range(result.resolution):
            low = Fraction(math.floor(t * 2**d), 2**d)
            for cut in (low, low + Fraction(1, 2**d)):
                piece = prefix_set(cut)
                assert abs(capacity(piece) - target) > 0.9 * tol

    def test_resolution_cap_reports_the_window(self, monkeypatch):
        monkeypatch.setattr(builder, "BISECTION_MAX_RESOLUTION", 12)
        target, tol = 0.2341, 1e-12
        with pytest.raises(ToleranceError, match="within resolution 12") as err:
            builder._solve_cut(target, tol)
        lo, hi = err.value.bracket
        assert 0.0 < lo < hi < 0.5
        # the cut path by bisection on prefix arcs: bit 1 while the arc
        # through the midpoint of the cut vertex stays at or below the target
        bits, t = [], Fraction(0)
        for d in range(1, 13):
            bit = int(capacity(prefix_set(t + Fraction(1, 2**d))) <= target)
            bits.append(bit)
            t += Fraction(bit, 2**d)
        # lifted back to the root along that path, the window's ends are the
        # capacities target -+ 0.9 tol
        for v, root in ((lo, target - 0.9 * tol), (hi, target + 0.9 * tol)):
            for bit in reversed(bits):
                s = v + 0.5 * bit
                v = s / (1.0 + s)
            assert abs(v - root) <= 1e-3 * tol

    def test_subnormal_target_fails_as_a_library_error(self):
        # 1 / 1e-310 is infinite in floats, so a zero run must not turn the
        # reciprocal into an int
        with pytest.raises(ToleranceError):
            set_of_capacity(1e-310, 1e-311)
