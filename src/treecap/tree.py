"""Rooted dyadic tree, its boundary, and closed boundary sets as canonical tries.

Vertices are labelled ``(level, index)`` with root ``(0, 0)``; the vertex
``(n, j)`` owns the circle arc ``[j/2^n, (j+1)/2^n]``.  A closed boundary set
is stored as a finite binary trie whose leaves are Full or Empty; the set is
the union of the shadows of the Full leaves, equivalently a finite union of
closed dyadic arcs.  The two leaves are shared singletons (`_FULL_LEAF`,
`_EMPTY_LEAF`).  Tries are canonical (no two sibling leaves are the same leaf)
and immutable, so subtrees can be shared freely between sets.

The trie is the only representation, and no other module reads its nodes:
`_join` builds every internal node, `_child` descends one level, and `_fold`
computes a value per distinct node bottom-up (capacities, hash, resolution,
node count).  `_apply` combines two tries by a memoized node-pair walk (union,
intersection).  `_path` is the one place that lays out a path: shadows, prefix
arcs and the builder's cut sets are each one path, and `_trie_of_arcs` builds
a leaf list by joining the paths of its arcs at their confluents.  The two
traversals cost time in the distinct nodes of the shared trie, not in its
positions; only leaf enumeration and serialization grow with the positions.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ResolutionError, SetSpecError


@dataclass(frozen=True, order=True)
class VertexId:
    """A vertex (level, index) of the infinite rooted dyadic tree."""

    level: int
    index: int

    def __post_init__(self):
        if self.level < 0:
            raise ValueError(f"level must be >= 0, got {self.level}")
        if not 0 <= self.index < (1 << self.level):
            raise ValueError(f"index {self.index} out of range at level {self.level}")

    def parent(self) -> "VertexId":
        if self.level == 0:
            raise ValueError("the root has no parent")
        return VertexId(self.level - 1, self.index >> 1)

    def children(self) -> tuple["VertexId", "VertexId"]:
        return (
            VertexId(self.level + 1, 2 * self.index),
            VertexId(self.level + 1, 2 * self.index + 1),
        )

    def arc(self) -> tuple[Fraction, Fraction]:
        """Endpoints of the circle arc owned by this vertex, as fractions of a turn."""
        scale = 1 << self.level
        return Fraction(self.index, scale), Fraction(self.index + 1, scale)

    def is_ancestor_of(self, other: "VertexId") -> bool:
        """True when ``other`` lies in the subtree below, or equals, this vertex."""
        gap = other.level - self.level
        return gap >= 0 and (other.index >> gap) == self.index


ROOT = VertexId(0, 0)


def confluent(a: VertexId, b: VertexId) -> VertexId:
    """Deepest common ancestor of two vertices."""
    ja, jb = a.index, b.index
    n = min(a.level, b.level)
    ja >>= a.level - n
    jb >>= b.level - n
    k = (ja ^ jb).bit_length()
    return VertexId(n - k, ja >> k)


def rho(a: VertexId, b: VertexId) -> Fraction:
    """Boundary-compatible metric between vertices.

    Distance is ``2^-d(a^b) - (2^-d(a) + 2^-d(b)) / 2`` where ``a^b`` is the
    confluent; vertices become isolated points and boundary geodesics become
    Cauchy sequences under this metric.
    """
    w = confluent(a, b)
    return (
        Fraction(1, 1 << w.level)
        - (Fraction(1, 1 << a.level) + Fraction(1, 1 << b.level)) / 2
    )


def boundary_rho(a: VertexId, b: VertexId) -> Fraction:
    """Metric between boundary points identified by finite path prefixes.

    Two distinct prefixes stand for boundary points whose geodesics separate
    at the confluent, so the distance is ``2^-d(a^b)``; equal prefixes give 0.
    """
    if a == b:
        return Fraction(0)
    return Fraction(1, 1 << confluent(a, b).level)


class _Node:
    """Immutable trie node; only the two leaf singletons have no children."""

    __slots__ = ("left", "right")

    def __init__(self, left=None, right=None):
        self.left = left
        self.right = right


_EMPTY_LEAF = _Node()
_FULL_LEAF = _Node()


def _join(left: _Node, right: _Node) -> _Node:
    """Combine two subtrees one level up, merging a pair of equal leaves."""
    if left is right and left.left is None:
        return left
    return _Node(left, right)


def _child(node: _Node, bit: int) -> _Node:
    """Child of ``node`` on side ``bit``; a leaf stands for its whole region."""
    if node.left is None:
        return node
    return node.right if bit else node.left


def _fold(root: _Node, full, empty, merge) -> dict:
    """Bottom-up value of every distinct node below ``root``, without recursion.

    Leaves take ``full`` or ``empty``; an internal node takes
    ``merge(left_value, right_value, left is right)``.  Returns the memo, keyed
    by node object (nodes hash by identity), so shared subtrees are folded once.
    No value may be None.
    """
    memo = {}
    get = memo.get
    stack = [root]
    while stack:
        node = stack[-1]
        if node in memo:
            stack.pop()
            continue
        left = node.left
        if left is None:
            memo[node] = full if node is _FULL_LEAF else empty
            stack.pop()
            continue
        right = node.right
        lv = get(left)
        rv = get(right)
        if lv is not None and rv is not None:
            memo[node] = merge(lv, rv, left is right)
            stack.pop()
        else:
            if rv is None:
                stack.append(right)
            if lv is None:
                stack.append(left)
    return memo


def _apply(a: _Node, b: _Node, union: bool) -> _Node:
    """Canonical trie of the union (or intersection) of two tries.

    A node-pair walk with one memo, so shared subtrees are combined once and
    the work is bounded by the product of the distinct node counts.  For a
    union a Full leaf absorbs and an Empty leaf yields the other side; for an
    intersection the roles swap.
    """
    absorbing, neutral = (_FULL_LEAF, _EMPTY_LEAF) if union else (_EMPTY_LEAF, _FULL_LEAF)
    memo = {}

    def settled(x, y):
        if x is y or x is absorbing or y is neutral:
            return x
        if y is absorbing or x is neutral:
            return y
        return memo.get((x, y))

    result = settled(a, b)
    if result is not None:
        return result
    stack = [(a, b)]
    while stack:
        x, y = stack[-1]
        if (x, y) in memo:
            stack.pop()
            continue
        left = settled(x.left, y.left)
        right = settled(x.right, y.right)
        if left is not None and right is not None:
            memo[(x, y)] = _join(left, right)
            stack.pop()
        else:
            if right is None:
                stack.append((x.right, y.right))
            if left is None:
                stack.append((x.left, y.left))
    return memo[(a, b)]


def _turns(level: int, index: int) -> str:
    """The last ``level`` turns on the path to a vertex of index ``index``: its
    low ``level`` bits, one "0" (left) or "1" (right) per level."""
    # only the bits read are formatted; the slice drops the "0" that no bits
    # would print as
    return format(index & ((1 << level) - 1), f"0{level}b")[:level]


def _path(turns: Sequence[str], deepest: _Node, left: _Node) -> _Node:
    """The trie of one path: ``deepest`` at its end, ``left`` beside each "1"
    turn and an Empty leaf beside each "0" turn.

    The one place that lays out a path, built bottom-up in one pass over the
    turns; `_join` keeps the result canonical.
    """
    node = deepest
    for turn in reversed(turns):
        node = _join(left, node) if turn == "1" else _join(node, _EMPTY_LEAF)
    return node


def _trie_of_arcs(arcs: list[VertexId]) -> _Node:
    """Canonical trie of dyadic arcs sorted left to right and pairwise disjoint.

    Below the deeper of its confluents with its two neighbours an arc is
    alone, so that part is one `_path`.  A finished left subtree waits on the
    stack at its confluent's level until its right sibling joins it, and each
    join is lifted by a `_path` to the next confluent up, so every node of the
    result is built once: time linear in the trie, without recursion.
    """
    stack = [(-1, _EMPTY_LEAF)]  # (confluent level, finished left subtree below it)
    for p, v in enumerate(arcs):
        after = confluent(v, arcs[p + 1]).level if p + 1 < len(arcs) else -1
        turns = _turns(v.level - after - 1, v.index)  # the turns below `after`
        node, depth = _FULL_LEAF, v.level
        while True:
            level = max(stack[-1][0], after)
            node = _path(turns[level - after : depth - after - 1], node, _EMPTY_LEAF)
            if level == after:
                break
            node, depth = _join(stack.pop()[1], node), level
        stack.append((after, node))
    return stack[-1][1]


class BoundarySet:
    """A closed subset of the tree boundary, canonically encoded as a trie.

    Instances are immutable; all operations return new sets.  Equality is
    set equality (canonical tries are unique, so it is structural).
    """

    __slots__ = ("_root", "_cache")

    def __init__(self, root: _Node):
        self._root = root
        self._cache = {}  # write-once memos of derived pure values

    # -- constructors ------------------------------------------------------

    @staticmethod
    def empty() -> "BoundarySet":
        return _EMPTY_SET

    @staticmethod
    def full() -> "BoundarySet":
        return _FULL_SET

    @staticmethod
    def shadow(vertex: VertexId) -> "BoundarySet":
        """The shadow S(x): every boundary point passing through ``vertex``."""
        return BoundarySet(_path(_turns(vertex.level, vertex.index), _FULL_LEAF, _EMPTY_LEAF))

    @staticmethod
    def from_full_leaves(pairs: Iterable[tuple[int, int]]) -> "BoundarySet":
        """Union of the shadows S((n, j)) for the given (possibly overlapping) pairs.

        Dyadic arcs nest or are disjoint, so sorting by left endpoint (coarser
        first on ties) puts every nested arc right after the arc that holds
        it; those are dropped and the rest built in one pass (`_trie_of_arcs`).
        """
        arcs = [VertexId(n, j) for n, j in pairs]
        depth = max((v.level for v in arcs), default=0)
        arcs.sort(key=lambda v: (v.index << (depth - v.level), v.level))
        kept = []
        for v in arcs:
            if not (kept and kept[-1].is_ancestor_of(v)):
                kept.append(v)
        return BoundarySet(_trie_of_arcs(kept))

    # -- basic queries ------------------------------------------------------

    def is_empty(self) -> bool:
        return self._root is _EMPTY_LEAF

    def is_full(self) -> bool:
        return self._root is _FULL_LEAF

    def full_leaves(self) -> list[tuple[int, int]]:
        """(level, index) labels of the Full leaves, in arc (left-to-right) order.

        Linear in the trie positions, which can be exponentially many more
        than the distinct nodes of a shared trie.
        """
        leaves = self._cache.get("leaves")
        if leaves is None:
            leaves = []
            stack = [(self._root, 0, 0)]
            while stack:
                node, level, index = stack.pop()
                if node is _FULL_LEAF:
                    leaves.append((level, index))
                elif node.left is not None:
                    stack.append((node.right, level + 1, 2 * index + 1))
                    stack.append((node.left, level + 1, 2 * index))
            self._cache["leaves"] = leaves
        return list(leaves)

    def _folded(self, key: str, full, empty, merge):
        """Root value of a `_fold`, memoized per set under ``key``."""
        value = self._cache.get(key)
        if value is None:
            value = _fold(self._root, full, empty, merge)[self._root]
            self._cache[key] = value
        return value

    @property
    def resolution(self) -> int:
        """Depth of the trie; the finest arc scale used by the encoding."""
        return self._folded("resolution", 0, 0, lambda l, r, _: 1 + max(l, r))

    def node_count(self) -> int:
        """Number of distinct trie nodes (shared subtrees counted once)."""
        return len(_fold(self._root, 0, 0, lambda l, r, _: 0))

    def check_exportable(self) -> None:
        """Raise ``ResolutionError`` if some position index would not print in decimal.

        CPython prints no int of more than ``sys.get_int_max_str_digits()``
        digits (0: no limit).  An index has one bit per level below its path's
        first right turn, so one fold of (height, most index bits) bounds them
        all before any leaf or position is listed.
        """
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        max_bits = int(limit * math.log2(10))  # 2^b - 1 prints in `limit` digits
        if limit and self._folded(
            "index_bits", (0, 0), (0, 0),
            lambda l, r, _: (1 + max(l[0], r[0]), max(l[1], 1 + r[0])),
        )[1] > max_bits:
            raise ResolutionError(
                f"cannot export a set of resolution {self.resolution}: its indices "
                f"pass the interpreter's {limit}-digit limit for printing ints "
                f"(sys.set_int_max_str_digits); any set of resolution up to "
                f"{max_bits} exports"
            )

    def intervals(self) -> list[tuple[Fraction, Fraction]]:
        """The set as maximal disjoint closed arcs, endpoints as turn fractions."""
        out = []
        for n, j in self.full_leaves():
            lo, hi = VertexId(n, j).arc()
            if out and out[-1][1] == lo:
                out[-1] = (out[-1][0], hi)
            else:
                out.append((lo, hi))
        return out

    # -- set algebra ---------------------------------------------------------

    def union(self, other: "BoundarySet") -> "BoundarySet":
        return BoundarySet(_apply(self._root, other._root, True))

    def intersection(self, other: "BoundarySet") -> "BoundarySet":
        return BoundarySet(_apply(self._root, other._root, False))

    def is_subset_of(self, other: "BoundarySet") -> bool:
        return self.intersection(other) == self

    # -- dunder --------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, BoundarySet):
            return NotImplemented
        return _same_structure(self._root, other._root)

    def __hash__(self) -> int:
        # structural, like equality: equal sets have identical tries
        return self._folded("hash", 1, 0, lambda l, r, _: hash((l, r)))

    def __repr__(self) -> str:
        if self.is_empty():
            return "BoundarySet.empty()"
        if self.is_full():
            return "BoundarySet.full()"
        count = self.node_count()
        if count > 33:
            return f"BoundarySet(<{count} nodes, resolution {self.resolution}>)"
        return f"BoundarySet.from_full_leaves({self.full_leaves()})"

    # -- serialization ---------------------------------------------------------

    def to_text(self) -> str:
        """One ``n:j`` line per Full leaf, sorted by (n, j)."""
        self.check_exportable()
        return "\n".join(f"{n}:{j}" for n, j in sorted(self.full_leaves()))

    @staticmethod
    def from_text(text: str) -> "BoundarySet":
        pairs = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                n, j = line.split(":")
                pairs.append((int(n), int(j)))
            except (ValueError, TypeError) as exc:
                raise SetSpecError(f"bad leaf line {lineno}: {line!r}") from exc
        return BoundarySet.from_full_leaves(pairs)

    def to_json_obj(self) -> list[list[int]]:
        self.check_exportable()
        return [[n, j] for n, j in sorted(self.full_leaves())]

    @staticmethod
    def from_json_obj(obj) -> "BoundarySet":
        try:
            pairs = [(int(n), int(j)) for n, j in obj]
        except (ValueError, TypeError) as exc:
            raise SetSpecError(f"bad JSON leaf list: {obj!r}") from exc
        return BoundarySet.from_full_leaves(pairs)


_EMPTY_SET = BoundarySet(_EMPTY_LEAF)
_FULL_SET = BoundarySet(_FULL_LEAF)


def prefix_set(t) -> BoundarySet:
    """The closed set of boundary points mapping into the circle arc [0, t].

    ``t`` must be a dyadic rational p/2^q in [0, 1].  The set is the path to
    the level-q vertex at t, which is Empty: its turns are the q binary
    digits of t, each digit 1 has the Full arc left of the path beside it and
    each digit 0 the Empty arc right of it.
    """
    t = Fraction(t)
    if not 0 <= t <= 1:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    q = _dyadic_resolution(t)
    if t == 1:
        return _FULL_SET
    turns = _turns(q, t.numerator)  # the q binary digits of t
    return BoundarySet(_path(turns, _EMPTY_LEAF, _FULL_LEAF))


def _dyadic_resolution(x: Fraction) -> int:
    """log2 of the denominator of a dyadic rational; raises otherwise."""
    d = x.denominator
    if d & (d - 1):
        raise ValueError(f"{x} is not a dyadic rational")
    return d.bit_length() - 1


def _same_structure(a: _Node, b: _Node) -> bool:
    stack = [(a, b)]
    seen = set()
    while stack:
        x, y = stack.pop()
        if x is y or (x, y) in seen:
            continue
        seen.add((x, y))
        if x.left is None or y.left is None:  # distinct, and one is a leaf
            return False
        stack.append((x.left, y.left))
        stack.append((x.right, y.right))
    return True
