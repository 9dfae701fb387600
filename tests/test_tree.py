import sys
from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from treecap import (
    BoundarySet,
    ResolutionError,
    SetSpecError,
    VertexId,
    boundary_rho,
    capacity,
    confluent,
    equal_split,
    prefix_set,
    random_boundary_set,
    rho,
)
from treecap.experiments import parse_set_spec
from treecap.tree import _join


def vertex_ids(max_level=8):
    return st.integers(0, max_level).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1))
    ).map(lambda t: VertexId(*t))


ORACLE_DEPTH = 6


def leaf_pairs(max_level=ORACLE_DEPTH, max_leaves=10):
    return st.lists(
        st.integers(0, max_level).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1))
        ),
        max_size=max_leaves,
    )


def boundary_sets(max_level=6, max_leaves=10):
    return leaf_pairs(max_level, max_leaves).map(BoundarySet.from_full_leaves)


def oracle_sets():
    """Sets of depth <= 6, built from leaf lists and as random tries."""
    return st.one_of(
        leaf_pairs().map(BoundarySet.from_full_leaves),
        st.integers(0, 2**31).map(
            lambda seed: random_boundary_set(seed, max_depth=ORACLE_DEPTH)
        ),
    )


def shadow_mask(n, j):
    """The shadow of (n, j) as a bit mask over the 64 level-6 arcs."""
    width = 1 << (ORACLE_DEPTH - n)
    return ((1 << width) - 1) << (j * width)


FULL_MASK = shadow_mask(0, 0)


def shallow_sets():
    """Sets of depth <= 5, whose two-copy doubling still fits the oracle."""
    return st.one_of(
        leaf_pairs(max_level=ORACLE_DEPTH - 1).map(BoundarySet.from_full_leaves),
        st.integers(0, 2**31).map(
            lambda seed: random_boundary_set(seed, max_depth=ORACLE_DEPTH - 1)
        ),
    )


def mask(e):
    out = 0
    for n, j in e.full_leaves():
        out |= shadow_mask(n, j)
    return out


class TestVertexId:
    def test_root(self):
        assert VertexId(0, 0).arc() == (0, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            VertexId(2, 4)
        with pytest.raises(ValueError):
            VertexId(-1, 0)

    def test_parent_children(self):
        v = VertexId(3, 5)
        left, right = v.children()
        assert left == VertexId(4, 10)
        assert right == VertexId(4, 11)
        assert left.parent() == v and right.parent() == v
        with pytest.raises(ValueError):
            VertexId(0, 0).parent()

    @given(vertex_ids())
    def test_parent_child_roundtrip(self, v):
        for child in v.children():
            assert child.parent() == v

    @given(vertex_ids())
    def test_arc_tiling(self, v):
        left, right = v.children()
        lo, hi = v.arc()
        assert left.arc() == (lo, (lo + hi) / 2)
        assert right.arc() == ((lo + hi) / 2, hi)


class TestConfluent:
    def test_siblings(self):
        assert confluent(VertexId(3, 0), VertexId(3, 1)) == VertexId(2, 0)

    def test_identity(self):
        assert confluent(VertexId(2, 1), VertexId(2, 1)) == VertexId(2, 1)

    def test_disjoint_branches(self):
        # walk both root paths by hand: (4,0) -> 0,0,0,0 and (2,3) -> 1,1
        assert confluent(VertexId(4, 0), VertexId(2, 3)) == VertexId(0, 0)

    def test_ancestor(self):
        assert confluent(VertexId(5, 9), VertexId(2, 1)) == VertexId(2, 1)

    @given(vertex_ids(), vertex_ids())
    def test_commutative_and_shallow(self, a, b):
        w = confluent(a, b)
        assert w == confluent(b, a)
        assert w.level <= min(a.level, b.level)
        assert w.is_ancestor_of(a) and w.is_ancestor_of(b)


class TestMetric:
    def test_vertex_values(self):
        assert rho(VertexId(0, 0), VertexId(0, 0)) == 0
        assert rho(VertexId(1, 0), VertexId(1, 1)) == Fraction(1, 2)
        assert rho(VertexId(1, 0), VertexId(2, 1)) == Fraction(1, 8)

    def test_boundary_values(self):
        assert boundary_rho(VertexId(3, 0), VertexId(3, 4)) == 1
        assert boundary_rho(VertexId(3, 0), VertexId(3, 1)) == Fraction(1, 4)
        assert boundary_rho(VertexId(3, 2), VertexId(3, 2)) == 0

    @given(vertex_ids(), vertex_ids(), vertex_ids())
    def test_vertex_metric_axioms(self, a, b, c):
        assert rho(a, b) == rho(b, a)
        assert (rho(a, b) == 0) == (a == b)
        assert rho(a, c) <= rho(a, b) + rho(b, c)

    @given(vertex_ids(), vertex_ids(), vertex_ids())
    def test_boundary_ultrametric(self, a, b, c):
        assert boundary_rho(a, c) <= max(boundary_rho(a, b), boundary_rho(b, c))


class TestPrefixSet:
    def test_endpoints(self):
        assert prefix_set(0).is_empty()
        assert prefix_set(1).is_full()

    def test_half(self):
        assert prefix_set(Fraction(1, 2)).full_leaves() == [(1, 0)]

    def test_three_eighths(self):
        assert prefix_set(Fraction(3, 8)).full_leaves() == [(2, 0), (3, 2)]

    def test_outside_the_circle_rejected(self):
        with pytest.raises(ValueError, match="must lie in"):
            prefix_set(Fraction(3, 2))

    def test_non_dyadic_rejected(self):
        with pytest.raises(ValueError):
            prefix_set(Fraction(1, 3))

    def test_resolution_overflow(self):
        # the spec parser caps a prefix at 30 levels, in any form of t
        with pytest.raises(ResolutionError, match="resolution 40 > maximum 30"):
            parse_set_spec("prefix:1/1099511627776")

    def test_matches_bit_mask_oracle(self):
        # [0, p/2^q] covers the first p 2^(6-q) of the 64 level-6 arcs
        for q in range(ORACLE_DEPTH + 1):
            for p in range((1 << q) + 1):
                width = p << (ORACLE_DEPTH - q)
                assert mask(prefix_set(Fraction(p, 1 << q))) == (1 << width) - 1

    @given(st.integers(1, 255))
    def test_closed_under_complementary_arc(self, p):
        t = Fraction(p, 256)
        left = prefix_set(t)
        leaves = left.full_leaves()
        arcs = left.intervals()
        assert arcs and arcs[0][0] == 0 and arcs[-1][1] == t
        assert all(0 <= n <= 8 for n, _ in leaves)


class TestCanonicalization:
    def test_sibling_merge(self):
        assert BoundarySet.from_full_leaves([(1, 0), (1, 1)]).is_full()
        merged = BoundarySet.from_full_leaves([(2, 0), (2, 1)])
        assert merged.full_leaves() == [(1, 0)]

    def test_overlap_absorbed(self):
        nested = BoundarySet.from_full_leaves([(1, 0), (3, 2)])
        assert nested.full_leaves() == [(1, 0)]

    def test_resolution(self):
        assert BoundarySet.empty().resolution == 0
        assert BoundarySet.full().resolution == 0
        assert BoundarySet.from_full_leaves([(3, 1), (2, 2)]).resolution == 3

    @given(boundary_sets())
    def test_idempotent(self, e):
        assert BoundarySet.from_full_leaves(e.full_leaves()) == e

    def test_deep_leaf_list_roundtrip(self):
        # a 20,000-level path trie, about 10,000 leaves: the build from
        # sorted leaves is linear where a union of shadows was quadratic in depth
        depth = 20000
        t = Fraction(2 * Random(depth).getrandbits(depth - 1) + 1, 1 << depth)
        e = prefix_set(t)
        leaves = e.full_leaves()
        rebuilt = BoundarySet.from_full_leaves(leaves)
        assert rebuilt == e
        assert rebuilt.full_leaves() == leaves

    def test_hash_is_structural(self):
        prefixes = [prefix_set(Fraction(k, 64)) for k in range(65)]
        assert len({hash(e) for e in prefixes}) == 65
        rebuilt = BoundarySet.from_full_leaves([(3, 2), (2, 0)])
        assert hash(rebuilt) == hash(prefixes[24])

    @given(boundary_sets())
    def test_no_mergeable_siblings(self, e):
        leaves = set(e.full_leaves())
        for n, j in leaves:
            assert (n, j ^ 1) not in leaves


class TestSetAlgebra:
    def test_union_identity(self):
        x = BoundarySet.from_full_leaves([(2, 1)])
        assert BoundarySet.empty().union(x) == x

    def test_intersection_identity(self):
        x = BoundarySet.from_full_leaves([(2, 1), (3, 1)])
        assert BoundarySet.full().intersection(x) == x

    def test_two_shadows_tile(self):
        half = prefix_set(Fraction(1, 2))
        other = BoundarySet.shadow(VertexId(1, 1))
        assert half.union(other).is_full()

    def test_touching_arcs_intersect_to_null(self):
        # adjacent closed arcs share one endpoint; single points carry no
        # capacity and are dropped by the half-open tiling convention
        a = BoundarySet.shadow(VertexId(2, 0))
        b = BoundarySet.shadow(VertexId(2, 1))
        assert a.intersection(b).is_empty()
        assert a.union(b).full_leaves() == [(1, 0)]

    @given(boundary_sets(), boundary_sets())
    def test_union_intersection_laws(self, a, b):
        u = a.union(b)
        i = a.intersection(b)
        assert a.is_subset_of(u) and b.is_subset_of(u)
        assert i.is_subset_of(a) and i.is_subset_of(b)
        assert u.union(a) == u
        assert i.intersection(a) == i

    @given(oracle_sets(), oracle_sets())
    def test_matches_bit_mask_oracle(self, a, b):
        ma, mb = mask(a), mask(b)
        u, i = a.union(b), a.intersection(b)
        assert mask(u) == ma | mb
        assert mask(i) == ma & mb
        assert a.is_subset_of(b) == (ma & ~mb == 0)
        assert (a == b) == (ma == mb)
        # equality is structural, so these also need canonical results
        assert (u == a) == (ma | mb == ma) and (i == a) == (ma & mb == ma)
        assert u.is_full() == (ma | mb == FULL_MASK)
        assert i.is_empty() == (ma & mb == 0)

    @given(shallow_sets(), shallow_sets())
    @example(
        BoundarySet.from_full_leaves([(2, 0)]), BoundarySet.from_full_leaves([(2, 1)])
    )
    def test_shared_halves_match_bit_mask_oracle(self, a, b):
        # both halves of each operand are one node, so the walk meets the
        # pair of halves twice and finds it in its memo the second time
        da, db = (BoundarySet(_join(e._root, e._root)) for e in (a, b))
        ma, mb = mask(da), mask(db)
        assert mask(da.union(db)) == ma | mb
        assert mask(da.intersection(db)) == ma & mb

    @given(leaf_pairs(), leaf_pairs())
    def test_from_full_leaves_matches_bit_mask_oracle(self, pairs, more):
        pairs = pairs + more + pairs[:2]  # overlapping and repeated pairs too
        expected = 0
        for n, j in pairs:
            expected |= shadow_mask(n, j)
        assert mask(BoundarySet.from_full_leaves(pairs)) == expected

    @given(boundary_sets(max_level=5), boundary_sets(max_level=5))
    def test_commutative(self, a, b):
        assert a.union(b) == b.union(a)
        assert a.intersection(b) == b.intersection(a)


class TestSerialization:
    def test_text_roundtrip(self):
        e = BoundarySet.from_full_leaves([(3, 5), (2, 0), (4, 13)])
        assert BoundarySet.from_text(e.to_text()) == e

    def test_text_canonicalizes(self):
        # sibling pair in the listing collapses on load
        again = BoundarySet.from_text("2:0\n2:1\n")
        assert again.full_leaves() == [(1, 0)]

    def test_json_roundtrip(self):
        e = BoundarySet.from_full_leaves([(1, 1), (3, 1)])
        assert BoundarySet.from_json_obj(e.to_json_obj()) == e

    def test_bad_text(self):
        with pytest.raises(SetSpecError):
            BoundarySet.from_text("2-0")

    def test_text_skips_blank_and_comment_lines(self):
        text = "# two arcs\n\n2:0\n   \n  # the second\n3:6\n"
        assert BoundarySet.from_text(text) == BoundarySet.from_full_leaves(
            [(2, 0), (3, 6)]
        )

    @pytest.mark.parametrize("obj", [[[1]], [["a", 0]]])
    def test_bad_json(self, obj):
        with pytest.raises(SetSpecError, match="bad JSON leaf list"):
            BoundarySet.from_json_obj(obj)

    def test_small_set_repr_evaluates_back(self):
        e = BoundarySet.from_full_leaves([(1, 1), (3, 1), (5, 9)])
        assert e.node_count() <= 33
        text = repr(e)
        assert text.startswith("BoundarySet.from_full_leaves(")
        assert eval(text, {"BoundarySet": BoundarySet}) == e

    def test_large_set_repr_lists_no_leaves(self, monkeypatch):
        carrier = equal_split(0.25, 4).carrier
        expected = (
            f"BoundarySet(<{carrier.node_count()} nodes, "
            f"resolution {carrier.resolution}>)"
        )

        def refuse(self):
            raise AssertionError("repr listed the leaves")

        monkeypatch.setattr(BoundarySet, "full_leaves", refuse)
        assert repr(carrier) == expected

    def test_equality_with_another_type(self):
        assert (BoundarySet.full() == 1) is False

    def test_empty_and_full(self):
        assert BoundarySet.from_text("") == BoundarySet.empty()
        assert BoundarySet.from_text("0:0") == BoundarySet.full()

    @given(boundary_sets())
    def test_roundtrip_property(self, e):
        assert BoundarySet.from_text(e.to_text()) == e
        assert BoundarySet.from_json_obj(e.to_json_obj()) == e


class TestShadow:
    def test_shadow_leaves(self):
        assert BoundarySet.shadow(VertexId(2, 2)).full_leaves() == [(2, 2)]
        assert BoundarySet.shadow(VertexId(0, 0)).is_full()

    @given(vertex_ids(max_level=6))
    def test_shadow_arc(self, v):
        s = BoundarySet.shadow(v)
        assert s.intervals() == [v.arc()]

    def test_deep_shadow_with_a_huge_index(self):
        index = 2**79999 + 12345  # 80,000 bits, a right turn and then mostly left
        shadow = BoundarySet.shadow(VertexId(80000, index))
        assert shadow.resolution == 80000
        assert capacity(shadow, exact=True) == Fraction(1, 80002)
        assert shadow.full_leaves() == [(80000, index)]


class TestSharedTrieScale:
    def test_carrier_algebra_works_on_the_shared_trie(self):
        # about 8.2k distinct nodes but about 33M trie positions, which take
        # over a minute to walk
        carrier = equal_split(0.25, 12).carrier
        shadow = BoundarySet.shadow(VertexId(14, 12344))  # holds one piece
        joined = carrier.union(shadow)
        assert joined.node_count() <= carrier.node_count() + 15
        assert carrier.is_subset_of(joined) and shadow.is_subset_of(joined)
        met = carrier.intersection(shadow)
        assert not met.is_empty()
        assert met.is_subset_of(carrier) and met.is_subset_of(shadow)
        assert capacity(met) <= min(capacity(carrier), capacity(shadow))
        rebuilt = equal_split(0.25, 12).carrier
        assert rebuilt is not carrier and rebuilt._root is not carrier._root
        assert rebuilt == carrier and hash(rebuilt) == hash(carrier)


class TestExportLimit:
    """Leaf text and JSON stop where the interpreter stops printing ints."""

    def test_deepest_exportable_index(self, default_digit_limit):
        # 2^14284 - 1 has 4,300 digits, the default limit; one level more does not print
        index = (1 << 14284) - 1
        shadow = BoundarySet.shadow(VertexId(14284, index))
        assert shadow.to_text() == f"14284:{index}"
        assert shadow.to_json_obj() == [[14284, index]]
        deeper = BoundarySet.shadow(VertexId(14285, (1 << 14285) - 1))
        for export in (deeper.to_text, deeper.to_json_obj):
            with pytest.raises(ResolutionError, match="resolution 14285: .* up to 14284"):
                export()

    def test_deep_set_with_small_indices_exports(self, default_digit_limit):
        left = BoundarySet.shadow(VertexId(20000, 5))
        assert left.to_text() == "20000:5"
        assert BoundarySet.from_json_obj(left.to_json_obj()) == left

    def test_no_limit(self, default_digit_limit):
        sys.set_int_max_str_digits(0)
        index = (1 << 14285) - 1
        deeper = BoundarySet.shadow(VertexId(14285, index))
        assert deeper.to_json_obj() == [[14285, index]]
