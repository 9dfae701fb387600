import importlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treecap import (
    BoundarySet,
    DegenerateSetError,
    VertexId,
    brute_force_capacity,
    cantor_set,
    capacity,
    TreecapError,
    condenser_capacity,
    energy,
    equilibrium_measure,
    extremal,
    prefix_set,
    random_boundary_set,
)
from treecap.capacity import _num, _positions
from treecap.tree import _EMPTY_LEAF, _FULL_LEAF, _child

ROOT = VertexId(0, 0)


def _columns(e, exact=False):
    """``c``, ``h`` and ``H`` per trie position, from the export walk."""
    c, h, H = {}, {}, {}
    for v, _, cv, hv, Hv in _positions(e, exact):
        c[v], h[v], H[v] = cv, hv, Hv
    return c, h, H


def boundary_sets(max_level=6, max_leaves=10):
    pairs = st.integers(0, max_level).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1))
    )
    return st.lists(pairs, max_size=max_leaves).map(BoundarySet.from_full_leaves)


class TestCapacity:
    def test_full_boundary(self):
        assert capacity(BoundarySet.full()) == 0.5
        assert capacity(BoundarySet.full(), exact=True) == Fraction(1, 2)

    def test_empty(self):
        assert capacity(BoundarySet.empty()) == 0.0

    @pytest.mark.parametrize("depth", [0, 1, 2, 4, 7, 12, 20])
    def test_shadow_formula(self, depth):
        # iterating c -> c / (1 + c) from 1/2 gives 1 / (depth + 2)
        s = BoundarySet.shadow(VertexId(depth, 0))
        assert capacity(s, exact=True) == Fraction(1, depth + 2)
        assert abs(capacity(s) - 1.0 / (depth + 2)) <= 1e-12

    def test_hand_worked_pair(self):
        # leaves (2,0) and (3,6): c(1,0)=1/3, c(2,3)=1/3, c(1,1)=1/4, root 7/19
        e = BoundarySet.from_full_leaves([(2, 0), (3, 6)])
        assert capacity(e, exact=True) == Fraction(7, 19)

    def test_cantor_values(self):
        assert capacity(cantor_set(1), exact=True) == Fraction(2, 5)
        assert capacity(cantor_set(2), exact=True) == Fraction(4, 11)

    @given(boundary_sets())
    @settings(max_examples=60)
    def test_range_and_recursion(self, e):
        values = _columns(e)[0]
        for v, c in values.items():
            assert -1e-15 <= c <= 0.5 + 1e-15
        for v, c in values.items():
            left, right = v.children()
            if left in values and right in values:
                s = values[left] + values[right]
                assert abs(c * (1.0 + s) - s) <= 1e-12

    @given(boundary_sets(), boundary_sets())
    @settings(max_examples=60)
    def test_monotone_and_subadditive(self, a, b):
        u = a.union(b)
        assert capacity(a) <= capacity(u) + 1e-12
        assert capacity(u) <= capacity(a) + capacity(b) + 1e-12


class TestCondenser:
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 20])
    def test_full_boundary(self, n):
        assert condenser_capacity(BoundarySet.full(), n) == 2.0 ** (n - 1)

    def test_level_zero_is_capacity(self):
        e = BoundarySet.from_full_leaves([(2, 0), (3, 6)])
        assert condenser_capacity(e, 0) == capacity(e)

    def test_empty(self):
        assert condenser_capacity(BoundarySet.empty(), 5) == 0.0

    def test_half_circle(self):
        half = prefix_set(Fraction(1, 2))
        for n in range(1, 21):
            assert condenser_capacity(half, n) == 2.0 ** (n - 2)

    def test_negative_level(self):
        with pytest.raises(ValueError):
            condenser_capacity(BoundarySet.full(), -1)

    def test_float_overflow_raises(self):
        half = prefix_set(Fraction(1, 2))
        assert condenser_capacity(half, 1025) == 2.0**1023
        with pytest.raises(TreecapError, match="exceeds the float range"):
            condenser_capacity(half, 1026)
        assert condenser_capacity(half, 1100, exact=True) == 1 << 1098
        # finite tails 2^1023 + 2^1022 + ... + 2^964 whose float sum rounds to inf
        e = BoundarySet.from_full_leaves([(m, (1 << m) - 2) for m in range(1, 61)])
        assert condenser_capacity(e, 1024) == 2.0**1023
        with pytest.raises(TreecapError, match="exceeds the float range"):
            condenser_capacity(e, 1025)

    @given(boundary_sets())
    @settings(max_examples=40)
    def test_sum_over_level_vertices(self, e):
        c = _columns(e, True)[0]

        def at(n, j):
            # the subtree capacity at the deepest trie position on the path to
            # (n, j); below a leaf that is the leaf's own 1/2 or 0
            for level in range(n, -1, -1):
                v = VertexId(level, j >> (n - level))
                if v in c:
                    return c[v]

        for n in range(9):
            expected = sum(at(n, j) for j in range(1 << n))
            assert condenser_capacity(e, n, exact=True) == expected
            assert abs(condenser_capacity(e, n) - expected) <= 1e-12 * expected

    def test_stops_at_the_deepest_leaf(self, monkeypatch):
        calls = []

        def counted(node, bit):
            calls.append(bit)
            return _child(node, bit)

        capacity_module = importlib.import_module("treecap.capacity")
        monkeypatch.setattr(capacity_module, "_child", counted)
        half = prefix_set(Fraction(1, 2))
        assert condenser_capacity(half, 10**6, exact=True) == 2 ** (10**6 - 2)
        assert len(calls) <= 24

    @given(boundary_sets(), st.integers(0, 10))
    @settings(max_examples=60)
    def test_monotone_in_level(self, e, n):
        assert condenser_capacity(e, n) <= condenser_capacity(e, n + 1) + 1e-12

    @given(boundary_sets())
    @settings(max_examples=40)
    def test_dominates_full_leaf_tails(self, e):
        for n in range(0, 10):
            floor = sum(
                2.0 ** (n - m - 1) for m, _ in e.full_leaves() if m <= n
            )
            assert condenser_capacity(e, n) >= floor - 1e-12


class TestBruteForceOracle:
    def test_full(self):
        assert abs(brute_force_capacity(BoundarySet.full(), 4) - 0.5) <= 1e-9

    def test_shadow(self):
        s = BoundarySet.shadow(VertexId(2, 0))
        assert abs(brute_force_capacity(s, 4) - 0.25) <= 1e-9

    def test_hand_worked_pair(self):
        e = BoundarySet.from_full_leaves([(2, 0), (3, 6)])
        assert abs(brute_force_capacity(e, 5) - 7.0 / 19.0) <= 1e-9

    def test_empty_constraints(self):
        with pytest.raises(DegenerateSetError):
            brute_force_capacity(BoundarySet.empty(), 3)

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            brute_force_capacity(BoundarySet.full(), 9)
        deep = BoundarySet.from_full_leaves([(7, 1)])
        with pytest.raises(ValueError):
            brute_force_capacity(deep, 5)

    def test_matches_recursion_on_random_sets(self):
        count = 0
        seed = 0
        while count < 100:
            e = random_boundary_set(seed, max_depth=6)
            seed += 1
            if e.is_empty():
                continue
            count += 1
            assert abs(brute_force_capacity(e, 6) - capacity(e)) <= 1e-6


class TestExtremal:
    def test_full_boundary(self):
        flux = extremal(BoundarySet.full())
        assert flux.h_at(ROOT) == 0.5
        for level, index in [(1, 0), (3, 5), (7, 100)]:
            assert abs(flux.h_at(VertexId(level, index)) - 2.0 ** (-level - 1)) <= 1e-15

    def test_single_shadow(self):
        flux = extremal(BoundarySet.shadow(VertexId(1, 0)))
        assert abs(flux.h_at(ROOT) - 1.0 / 3.0) <= 1e-15
        assert abs(flux.h_at(VertexId(1, 0)) - 1.0 / 3.0) <= 1e-15
        assert flux.h_at(VertexId(1, 1)) == 0.0

    def test_zero_off_support(self):
        e = BoundarySet.shadow(VertexId(2, 0))
        flux = extremal(e)
        assert flux.h_at(VertexId(2, 3)) == 0.0
        assert flux.h_at(VertexId(5, 31)) == 0.0

    def test_degenerate(self):
        with pytest.raises(DegenerateSetError):
            extremal(BoundarySet.empty())

    @given(boundary_sets())
    @settings(max_examples=60)
    def test_flux_additivity(self, e):
        if capacity(e) == 0.0:
            return
        h = _columns(e)[1]
        for v, hv in h.items():
            left, right = v.children()
            if left in h and right in h:
                assert abs(hv - h[left] - h[right]) <= 1e-12

    @given(boundary_sets())
    @settings(max_examples=60)
    def test_positive_exactly_on_support(self, e):
        # h(x) > 0 exactly where the set meets the subtree below x
        if capacity(e) == 0.0:
            return
        caps, h, _ = _columns(e)
        for v, hv in h.items():
            assert (hv > 0.0) == (caps[v] > 0.0)

    @given(boundary_sets())
    @settings(max_examples=60)
    def test_path_sums_bounded_and_monotone(self, e):
        if capacity(e) == 0.0:
            return
        H = _columns(e)[2]
        for v, Hv in H.items():
            assert -1e-15 <= Hv <= 1.0 + 1e-15
            if v.level > 0:
                assert Hv >= H[v.parent()] - 1e-15

    def test_deficit_halves_inside_full_regions(self):
        e = prefix_set(Fraction(3, 8))
        flux = extremal(e)
        leaf = VertexId(2, 0)
        deficit = 1.0 - flux.H_at(leaf)
        below = leaf
        for _ in range(6):
            below = below.children()[0]
            deficit /= 2.0
            assert abs(1.0 - flux.H_at(below) - deficit) <= 1e-14


def _descend(flux, vertex):
    """Deepest trie node on the path to ``vertex``, found by walking the trie."""
    node = flux.boundary_set._root
    level = index = 0
    while level < vertex.level and _child(node, 0) is not node:
        bit = (vertex.index >> (vertex.level - level - 1)) & 1
        node = _child(node, bit)
        index = 2 * index + bit
        level += 1
    return node, VertexId(level, index)


class TestFluxQueries:
    """`h_at`/`H_at` answer as the export walk over every position does."""

    @given(boundary_sets(), st.booleans(), st.data())
    @settings(max_examples=40)
    def test_match_a_trie_walk(self, e, exact, data):
        if e.is_empty():
            return
        flux = extremal(e, exact)
        _, table_h, table_H = _columns(e, exact)
        depth = e.resolution + 4
        for _ in range(10):
            level = data.draw(st.integers(0, depth))
            v = VertexId(level, data.draw(st.integers(0, (1 << level) - 1)))
            node, prefix = _descend(flux, v)
            h, H = table_h[prefix], table_H[prefix]
            if prefix == v:
                want_h, want_H = h, H
            elif node is _EMPTY_LEAF:
                want_h, want_H = h * 0, H
            else:
                one = Fraction(1) if exact else 1.0
                want_h = h / (1 << (level - prefix.level))
                want_H = one - (one - H) / (1 << (level - prefix.level))
            assert flux.h_at(v) == want_h
            assert flux.H_at(v) == want_H


    def test_deep_queries_underflow_to_zero(self):
        # 2^-1099 is below the smallest float: the flux underflows to 0 and
        # the deficit 1 - H with it, instead of an int too large to convert
        e = prefix_set(Fraction(1, 2))
        deep = VertexId(1100, 3)
        flux = extremal(e)
        assert flux.h_at(deep) == 0.0
        assert flux.H_at(deep) == 1.0
        assert equilibrium_measure(e).mass_of(deep) == 0.0


class TestEnergy:
    def test_full_boundary(self):
        assert abs(energy(extremal(BoundarySet.full())) - 0.5) <= 1e-12

    def test_single_shadow(self):
        # (1/3)^2 explicit at root and leaf plus the (1/3)^2 tail
        flux = extremal(BoundarySet.shadow(VertexId(1, 0)))
        assert abs(energy(flux) - 1.0 / 3.0) <= 1e-12

    @given(boundary_sets(), st.booleans())
    @settings(max_examples=40)
    def test_fold_matches_the_position_sum(self, e, exact):
        # the energy fold regroups sum h^2 over the positions, plus h^2 for
        # the tail below each Full leaf
        if e.is_empty():
            return
        walk = list(_positions(e, exact))
        total = sum(h * h for _, _, _, h, _ in walk)
        total += sum(h * h for _, node, _, h, _ in walk if node is _FULL_LEAF)
        if exact:
            assert energy(extremal(e, exact)) == total
        else:
            assert abs(energy(extremal(e)) - total) <= 1e-14 * total

    @given(boundary_sets())
    @settings(max_examples=60)
    def test_energy_identity(self, e):
        c = capacity(e)
        if c == 0.0:
            return
        assert abs(energy(extremal(e)) - c) <= 1e-9


class TestEquilibriumMeasure:
    def test_total_mass_full(self):
        m = equilibrium_measure(BoundarySet.full())
        assert m.total_mass == 0.5

    def test_uniform_on_full_boundary(self):
        m = equilibrium_measure(BoundarySet.full())
        for level, index in [(1, 1), (4, 7), (9, 100)]:
            assert abs(m.mass_of(VertexId(level, index)) - 2.0 ** (-level - 1)) <= 1e-15

    def test_vanishes_off_support(self):
        m = equilibrium_measure(BoundarySet.shadow(VertexId(1, 0)))
        assert m.mass_of(VertexId(1, 1)) == 0.0
        assert m.mass_of(VertexId(4, 15)) == 0.0

    @given(boundary_sets())
    @settings(max_examples=40)
    def test_additive_and_consistent(self, e):
        if capacity(e) == 0.0:
            return
        m = equilibrium_measure(e)
        assert abs(m.total_mass - capacity(e)) <= 1e-12
        for v in list(_columns(e)[1])[:30]:
            left, right = v.children()
            assert abs(
                m.mass_of(v) - m.mass_of(left) - m.mass_of(right)
            ) <= 1e-12

    def test_leaf_masses_sum_to_capacity(self):
        e = cantor_set(2)
        m = equilibrium_measure(e)
        assert abs(sum(m.arc_masses.values()) - capacity(e)) <= 1e-12


class TestExactMode:
    def test_exact_condenser(self):
        fam_carrier = BoundarySet.from_full_leaves([(2, 0), (3, 6)])
        value = condenser_capacity(fam_carrier, 2, exact=True)
        # level-2 subtrees: full at (2,0), capacity 1/3 at (2,3)'s parent slot
        assert value == Fraction(1, 2) + Fraction(1, 3)

    def test_exact_tables(self):
        values = _columns(cantor_set(1), True)[0]
        assert values[ROOT] == Fraction(2, 5)

    def test_exact_extremal_c_column(self):
        e = cantor_set(2)
        values = _columns(e, True)[0]
        rows = extremal(e, exact=True).to_json_obj()
        assert len(rows) == len(values)
        for row in rows:
            assert row["c"] == _num(values[VertexId(*row["vertex"])])

    def test_exact_extremal_energy(self):
        e = cantor_set(2)
        flux = extremal(e, exact=True)
        assert energy(flux) == capacity(e, exact=True)

    def test_json_export_shapes(self):
        e = BoundarySet.shadow(VertexId(1, 0))
        rows = extremal(e).to_json_obj()
        assert {"vertex", "c", "h", "H"} == set(rows[0])
        masses = equilibrium_measure(e).to_json_obj()
        assert masses == [{"arc": [1, 0], "mass": pytest.approx(1.0 / 3.0)}]
