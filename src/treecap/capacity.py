"""Exact capacities on the dyadic tree: set capacity, condenser capacity at a
cut level, the extremal flux, and the equilibrium measure.

Everything reduces to one recursion over the trie: a Full leaf has subtree
capacity 1/2, an Empty leaf 0, and an internal vertex ``s / (1 + s)`` where
``s`` is the sum of its children's subtree capacities.  The condenser value at
level ``n`` is the sum of the subtree capacities of all ``2^n`` level-``n``
vertices, added up level by level with a leaf as its own child; a cut below
the trie's depth gives each Full leaf a closed-form tail.

The recursion is one `tree._fold` over the distinct trie nodes, run with one
of two arithmetics: float mode works in binary64; exact mode carries
unreduced integer pairs so that even path tries tens of thousands of levels
deep evaluate quickly, and makes a Fraction only for a value it returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DegenerateSetError, TreecapError
from .tree import ROOT, BoundarySet, VertexId, _EMPTY_LEAF, _FULL_LEAF, _child, _fold

MAX_BRUTE_FORCE_DEPTH = 8


# ---------------------------------------------------------------------------
# core recursion, one fold for float and exact arithmetic
# ---------------------------------------------------------------------------


def _float_merge(a, b, _same):
    s = a + b
    return s / (1.0 + s)


def _pair_merge(left, right, same):
    # unreduced (numerator, denominator) pairs; identical children (a shared
    # subtree object) take a fast path so balanced spines over one shared
    # subtree stay linear in size
    a, b = left
    if same:
        sn, sd = 2 * a, b
    else:
        c, d = right
        sn, sd = a * d + c * b, b * d
    return (sn, sd + sn)


def _memo(e: BoundarySet, exact: bool) -> dict:
    """Subtree capacity per distinct node of ``e``: floats, or unreduced pairs."""
    key = "cap_exact" if exact else "cap_float"
    memo = e._cache.get(key)
    if memo is None:
        if exact:
            memo = _fold(e._root, (1, 2), (0, 1), _pair_merge)
        else:
            memo = _fold(e._root, 0.5, 0.0, _float_merge)
        e._cache[key] = memo
    return memo


def _value_of(e: BoundarySet, exact: bool):
    """Node -> subtree capacity: the float memo, or a Fraction made on demand."""
    memo = _memo(e, exact)
    if exact:
        return lambda node: Fraction(*memo[node])
    return memo.__getitem__


def capacity(e: BoundarySet, exact: bool = False):
    """Capacity of a closed boundary set; 1/2 for the full boundary, 0 for the empty set."""
    return _value_of(e, exact)(e._root)


def condenser_capacity(e: BoundarySet, n: int, exact: bool = False):
    """Condenser capacity at cut level ``n``: the sum of level-``n`` subtree capacities.

    Lists each level's distinct nodes down to level ``n`` or to a level of
    leaves only (a leaf is its own child), then sums back up; a Full leaf
    ``gap`` levels above the cut owns ``2^gap`` subtrees worth 1/2 each.
    ``n = 0`` gives back ``capacity(e)``.  In float mode a value beyond the
    binary64 range raises ``TreecapError``; exact mode has no such limit.
    """
    if n < 0:
        raise ValueError(f"cut level must be >= 0, got {n}")
    leaves = {_EMPTY_LEAF, _FULL_LEAF}
    levels = [[e._root]]
    while len(levels) <= n and not leaves.issuperset(levels[-1]):
        below = (_child(node, bit) for node in levels[-1] for bit in (0, 1))
        levels.append(list(dict.fromkeys(below)))
    gap = n - (len(levels) - 1)
    if gap == 0:
        value_of = _value_of(e, exact)
        values = {node: value_of(node) for node in levels[-1]}
    elif exact:
        values = {_FULL_LEAF: Fraction(1 << gap, 2), _EMPTY_LEAF: Fraction(0)}
    else:
        # 2^1023 is the largest power of two in binary64; past it the sum is inf
        full = 2.0 ** (gap - 1) if gap <= 1024 else math.inf
        values = {_FULL_LEAF: full, _EMPTY_LEAF: 0.0}
    for level in reversed(levels[:-1]):
        values = {
            node: values[_child(node, 0)] + values[_child(node, 1)] for node in level
        }
    value = values[e._root]
    if not exact and math.isinf(value):
        raise TreecapError(
            f"condenser capacity at cut level {n} exceeds the float range; "
            "use exact arithmetic (--exact)"
        )
    return value


# ---------------------------------------------------------------------------
# tables over explicit trie positions
# ---------------------------------------------------------------------------


def _positions(e: BoundarySet, exact: bool):
    """Subtree capacity ``c``, extremal flux ``h`` and path sum ``H`` per trie position.

    One top-down walk: the root carries ``h = c(root)`` and every child gets
    ``h(child) = (1 - H(parent)) * c(child)``.  `energy` sums ``h`` in the
    order of its keys, so the walk fixes that order.
    """
    cap = _value_of(e, exact)
    one = Fraction(1) if exact else 1.0
    c_root = cap(e._root)
    c = {ROOT: c_root}
    h = {ROOT: c_root}
    H = {ROOT: c_root}
    stack = [(e._root, 0, 0, c_root)]  # node, level, index, H at node
    while stack:
        node, level, index, h_sum = stack.pop()
        left = _child(node, 0)
        if left is node:  # a leaf: no positions below it
            continue
        deficit = one - h_sum
        for child, j in ((left, 2 * index), (_child(node, 1), 2 * index + 1)):
            cc = cap(child)
            hc = deficit * cc
            v = VertexId(level + 1, j)
            c[v] = cc
            h[v] = hc
            H[v] = h_sum + hc
            stack.append((child, level + 1, j, h_sum + hc))
    return c, h, H


@dataclass
class FluxTable:
    """Subtree capacities ``c``, extremal flux ``h`` and its path sums ``H``
    over explicit trie positions.

    Below a Full leaf the continuation is implicit: ``h`` halves at every
    descent and the deficit ``1 - H`` halves with it, so queries at implicit
    vertices are closed-form (`h_at`, `H_at`).
    """

    boundary_set: BoundarySet
    c: dict[VertexId, object] = field(repr=False)
    h: dict[VertexId, object] = field(repr=False)
    H: dict[VertexId, object] = field(repr=False)

    @property
    def root_capacity(self):
        return self.c[ROOT]

    def h_at(self, vertex: VertexId):
        prefix = self._position_of(vertex)
        if prefix == vertex:
            return self.h[prefix]
        if self.c[prefix] == 0:  # an Empty leaf
            return self.h[prefix] * 0
        gap = vertex.level - prefix.level
        return _halved(self.h[prefix], gap)

    def H_at(self, vertex: VertexId):
        prefix = self._position_of(vertex)
        if prefix == vertex or self.c[prefix] == 0:
            return self.H[prefix]
        gap = vertex.level - prefix.level
        value = self.H[prefix]
        one = Fraction(1) if isinstance(value, Fraction) else 1.0
        return one - _halved(one - value, gap)

    def _position_of(self, vertex: VertexId) -> VertexId:
        """Deepest trie position on the path to ``vertex``: ``vertex`` or a leaf.

        Trie positions are closed under taking prefixes, so it is the first
        one met walking up from ``vertex``.  Every internal position has
        ``c > 0``, so ``c == 0`` marks an Empty leaf.
        """
        while vertex not in self.h:
            vertex = vertex.parent()
        return vertex

    def to_json_obj(self):
        return [
            {
                "vertex": [v.level, v.index],
                "c": _num(self.c[v]),
                "h": _num(self.h[v]),
                "H": _num(self.H[v]),
            }
            for v in sorted(self.h)
        ]


def _halved(value, gap: int):
    """``value / 2^gap``; in floats by exponent, which underflows to 0 where
    dividing by the int ``2^gap`` overflows its conversion (gap >= 1024)."""
    if isinstance(value, float):
        return math.ldexp(value, -gap)
    return value / (1 << gap)


def extremal(e: BoundarySet, exact: bool = False) -> FluxTable:
    """Extremal flux for the capacity problem of ``e``.

    Top-down rescaling (`_positions`) makes ``h`` additive and reproduces the
    subtree capacities after renormalization.  Raises for null sets, where no
    equilibrium normalization exists.
    """
    if capacity(e, exact) == 0:
        raise DegenerateSetError(
            "the set has zero capacity; the extremal flux is identically zero"
        )
    return FluxTable(e, *_positions(e, exact))


def energy(flux: FluxTable):
    """Squared flux norm, with the closed-form tail below each Full leaf.

    The implicit continuation under a Full leaf carrying ``h`` contributes
    exactly ``h^2`` (the geometric tail of the halving), so the total equals
    the capacity of the underlying set.
    """
    total = sum(value * value for value in flux.h.values())
    for level, index in flux.boundary_set.full_leaves():
        hv = flux.h[VertexId(level, index)]
        total += hv * hv
    return total


@dataclass
class EquilibriumMeasure:
    """Additive arc masses with ``mass(S(x)) = h(x)``; supported on the set."""

    flux: FluxTable = field(repr=False)

    @property
    def boundary_set(self) -> BoundarySet:
        return self.flux.boundary_set

    @property
    def arc_masses(self) -> dict[VertexId, object]:
        """Mass of each Full leaf's arc: the flux into that leaf."""
        leaves = (VertexId(n, j) for n, j in self.boundary_set.full_leaves())
        return {v: self.flux.h[v] for v in leaves}

    @property
    def total_mass(self):
        return self.flux.root_capacity

    def mass_of(self, vertex: VertexId):
        """Mass of the shadow of an arbitrary vertex, implicit regions included."""
        return self.flux.h_at(vertex)

    def to_json_obj(self):
        masses = self.arc_masses
        return [
            {"arc": [v.level, v.index], "mass": _num(masses[v])}
            for v in sorted(masses)
        ]


def equilibrium_measure(e: BoundarySet, exact: bool = False) -> EquilibriumMeasure:
    """The measure whose shadow masses equal the extremal flux; total mass = capacity."""
    return EquilibriumMeasure(extremal(e, exact=exact))


# ---------------------------------------------------------------------------
# independent oracle: small dense KKT solve
# ---------------------------------------------------------------------------


def brute_force_capacity(e: BoundarySet, depth: int) -> float:
    """Capacity via a dense constrained quadratic program, independent of the recursion.

    Unknowns are the vertex weights down to ``depth - 1`` plus one tail drop per
    level-``depth`` vertex buried in the Full region; each such terminal must
    see a unit path sum, and its infinite continuation is folded in as a
    terminal conductance of 1/2.  Solved through the KKT linear system.
    """
    if depth < 1 or depth > MAX_BRUTE_FORCE_DEPTH:
        raise ValueError(f"depth must be in 1..{MAX_BRUTE_FORCE_DEPTH}, got {depth}")
    if e.resolution > depth:
        raise ValueError(
            f"set resolution {e.resolution} exceeds brute-force depth {depth}"
        )

    # level-depth vertices inside the Full region, in arc order
    full_terminals = [
        j
        for level, index in e.full_leaves()
        for j in range(index << (depth - level), (index + 1) << (depth - level))
    ]
    if not full_terminals:
        raise DegenerateSetError(
            "empty constraint set: the boundary set is null at this depth"
        )

    n_phi = (1 << depth) - 1
    n_tau = len(full_terminals)
    n_vars = n_phi + n_tau
    n_cons = n_tau

    def phi_var(level, index):
        return ((1 << level) - 1) + index

    q_diag = np.ones(n_vars)
    q_diag[n_phi:] = 0.5

    a = np.zeros((n_cons, n_vars))
    for row, j in enumerate(full_terminals):
        index = j
        for level in range(depth - 1, -1, -1):
            index >>= 1
            a[row, phi_var(level, index)] = 1.0
        a[row, n_phi + row] = 1.0

    kkt = np.zeros((n_vars + n_cons, n_vars + n_cons))
    kkt[:n_vars, :n_vars] = np.diag(2.0 * q_diag)
    kkt[:n_vars, n_vars:] = a.T
    kkt[n_vars:, :n_vars] = a
    rhs = np.zeros(n_vars + n_cons)
    rhs[n_vars:] = 1.0

    solution = np.linalg.solve(kkt, rhs)
    x = solution[:n_vars]
    return float(x @ (q_diag * x))


def _num(value):
    """JSON-friendly number: floats pass through, exact values become strings
    such as ``"1/3"`` (whole numbers as ``"4"``)."""
    return value if isinstance(value, float) else str(value)
