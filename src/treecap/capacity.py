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

The extremal flux ``h`` goes top-down, ``h(v) = (1 - H(parent)) c(v)``, where
``H`` sums ``h`` along the path; so ``1 - H(v)`` is the product of
``1 - c(u)`` over the vertices ``u`` from the root to ``v``, and ``h`` and
``H`` at a vertex take one descent.  The energy is one more fold: a subtree
whose parent has path sum ``H`` holds ``(1 - H)^2 S`` of it, where
``S = c^2 + (1 - c)^2 (S_left + S_right)``, 1/2 at a Full leaf (its tail
included) and 0 at an Empty leaf.  Only the flux export and the leaf masses
walk the trie positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DegenerateSetError, TreecapError
from .tree import (
    ROOT, BoundarySet, VertexId, _EMPTY_LEAF, _FULL_LEAF, _child, _fold, _turns,
)

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
# the extremal flux, by descent and by walk
# ---------------------------------------------------------------------------

MAX_EXPORT_POSITIONS = 2**20  # the most trie positions `FluxTable.to_json_obj` lists


def _step(above, c):
    """``(h, H)`` at a position of subtree capacity ``c`` whose parent has path
    sum ``above`` (0 above the root): ``h = (1 - above) c`` and ``H = above + h``."""
    h = (1 - above) * c
    return h, above + h


def _positions(e: BoundarySet, exact: bool):
    """Yield every trie position of ``e``, left subtree first, as
    ``(vertex, node, c, h, H)``: one `_step` per position, so only exports use it."""
    cap = _value_of(e, exact)
    stack = [(e._root, ROOT, 0)]  # node, vertex, path sum above it
    while stack:
        node, v, above = stack.pop()
        c = cap(node)
        h, H = _step(above, c)
        yield v, node, c, h, H
        if _child(node, 0) is not node:  # a leaf has no positions below it
            left, right = v.children()
            stack += ((_child(node, 1), right, H), (_child(node, 0), left, H))


@dataclass
class FluxTable:
    """The extremal flux ``h`` of a set and its path sums ``H``, one descent per query.

    Below a Full leaf ``h`` halves at every level and the deficit ``1 - H``
    halves with it, so queries below a leaf are closed-form.
    """

    boundary_set: BoundarySet
    exact: bool = False

    @property
    def root_capacity(self):
        return capacity(self.boundary_set, self.exact)

    def h_at(self, vertex: VertexId):
        return self._at(vertex)[0]

    def H_at(self, vertex: VertexId):
        return self._at(vertex)[1]

    def _at(self, vertex: VertexId):
        """``(h, H)`` at ``vertex``: one `_step` per level down to ``vertex`` or
        to a leaf above it, then the leaf's closed-form tail."""
        cap = _value_of(self.boundary_set, self.exact)
        node = self.boundary_set._root
        h, H = _step(0, cap(node))
        for depth, turn in enumerate(_turns(vertex.level, vertex.index)):
            if _child(node, 0) is node:  # a leaf: the rest of the path is its region
                if node is _EMPTY_LEAF:  # where h is already 0
                    return h, H
                gap = vertex.level - depth
                return _halved(h, gap), 1 - _halved(1 - H, gap)
            node = _child(node, turn == "1")
            h, H = _step(H, cap(node))
        return h, H

    def to_json_obj(self):
        """One row per trie position, sorted by vertex.  One fold counts the
        positions first, and more than `MAX_EXPORT_POSITIONS` raise."""
        root = self.boundary_set._root
        count = _fold(root, 1, 1, lambda l, r, _: 1 + l + r)[root]
        if count > MAX_EXPORT_POSITIONS:
            raise TreecapError(
                f"cannot export the flux at {count} trie positions; "
                f"at most {MAX_EXPORT_POSITIONS} export"
            )
        walk = sorted(_positions(self.boundary_set, self.exact), key=lambda row: row[0])
        return [
            {"vertex": [v.level, v.index], "c": _num(c), "h": _num(h), "H": _num(H)}
            for v, _, c, h, H in walk
        ]


def _halved(value, gap: int):
    """``value / 2^gap``; in floats by exponent, which underflows to 0 where
    dividing by the int ``2^gap`` overflows its conversion (gap >= 1024)."""
    if isinstance(value, float):
        return math.ldexp(value, -gap)
    return value / (1 << gap)


def extremal(e: BoundarySet, exact: bool = False) -> FluxTable:
    """Extremal flux for the capacity problem of ``e``; raises for null sets,
    where no equilibrium normalization exists."""
    if capacity(e, exact) == 0:
        raise DegenerateSetError(
            "the set has zero capacity; the extremal flux is identically zero"
        )
    return FluxTable(e, exact)


def energy(flux: FluxTable):
    """Squared flux norm with each Full leaf's tail, by one fold of ``S`` (see
    the module docstring); it equals the capacity of the underlying set."""

    def merge(left, right, _same):
        (cl, sl), (cr, sr) = left, right
        s = cl + cr
        c = s / (1 + s)  # `_float_merge` in floats
        return c, c * c + (1 - c) * (1 - c) * (sl + sr)

    half, zero = (Fraction(1, 2), Fraction(0)) if flux.exact else (0.5, 0.0)
    root = flux.boundary_set._root
    return _fold(root, (half, half), (zero, zero), merge)[root][1]


@dataclass
class EquilibriumMeasure:
    """Additive arc masses with ``mass(S(x)) = h(x)``; supported on the set."""

    flux: FluxTable = field(repr=False)

    @property
    def boundary_set(self) -> BoundarySet:
        return self.flux.boundary_set

    @property
    def arc_masses(self) -> dict[VertexId, object]:
        """Mass of each Full leaf's arc, in arc order: the flux into that leaf."""
        walk = _positions(self.boundary_set, self.flux.exact)
        return {v: h for v, node, _, h, _ in walk if node is _FULL_LEAF}

    @property
    def total_mass(self):
        return self.flux.root_capacity

    def mass_of(self, vertex: VertexId):
        """Mass of the shadow of an arbitrary vertex, implicit regions included."""
        return self.flux.h_at(vertex)

    def to_json_obj(self):
        masses = sorted(self.arc_masses.items())
        return [{"arc": [v.level, v.index], "mass": _num(m)} for v, m in masses]


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
