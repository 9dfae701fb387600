"""Constructive procedures: sets of prescribed capacity, the equal-split
family whose condenser capacity plateaus, and the sharp lower-bound formulas.

The workhorse is a search over dyadic cut points of the circle.  It walks down
the path to the cut vertex carrying only the window of subtree capacities at
that vertex which put the root within tolerance; each bit maps the window by
the inverse of one merge, exactly and in the vertex's own coordinates, and a
run of 0-bits is one subtraction from its reciprocals, so targets needing
tens of thousands of levels stay cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random

from .capacity import capacity, _float_merge
from .errors import CalibrationError, ToleranceError, TreecapError
from .tree import BoundarySet, prefix_set, _EMPTY_LEAF, _FULL_LEAF, _fold, _join, _path

BISECTION_MAX_RESOLUTION = 200_000


# ---------------------------------------------------------------------------
# closed-form transfer maps
# ---------------------------------------------------------------------------


def psi(t: float) -> float:
    """One-step capacity transfer t / (2 (1 - t)), a diffeomorphism of [0, 1/2]."""
    if not 0.0 <= t <= 0.5:
        raise ValueError(f"psi is defined on [0, 1/2], got {t}")
    return t / (2.0 * (1.0 - t))


def psi_iterate(t: float, n: int) -> float:
    """n-fold composition of `psi` in closed form: t / (2^n - (2^(n+1) - 2) t)."""
    if not 0.0 <= t <= 0.5:
        raise ValueError(f"psi_iterate is defined on [0, 1/2], got {t}")
    if n < 0:
        raise ValueError(f"iteration count must be >= 0, got {n}")
    if t == 0.5:
        return 0.5  # the fixed point; the scaled form below would be 0/0 for huge n
    # t / (2^n (1 - 2t) + 2t) with both terms scaled by 2^-n: exact power-of-two
    # scaling, so bit-identical to the unscaled form wherever nothing
    # underflows, and finite for every n.  Grouping (1 - 2t) keeps t next to
    # 1/2 free of cancellation.
    return math.ldexp(t, -n) / ((1.0 - 2.0 * t) + math.ldexp(2.0 * t, -n))


def lower_bound(eps: float, n: int) -> float:
    """Sharp lower bound for the level-``n`` condenser capacity over sets of capacity ``eps``.

    Equals ``2^n * psi_iterate(eps, n)``; attained by the equal-split family.

    Proof: the children of a vertex of capacity ``c`` have capacities summing
    to ``f(c) = c / (1 - c)``, so ``cond_{n+1}`` is ``f(c_v)`` summed over the
    level-``n`` vertices ``v``.  ``f`` is convex on [0, 1/2], so Jensen over
    those ``2^n`` vertices gives ``cond_{n+1} >= 2^n f(cond_n / 2^n)``, that is
    ``a_{n+1} >= psi(a_n)`` for ``a_n = cond_n / 2^n``.  ``psi`` is increasing
    and ``a_0 = eps``, so ``a_n >= psi^n(eps)``, with equality exactly when
    every level's vertex capacities are equal, as in the equal-split family.
    """
    if not 0.0 <= eps <= 0.5:
        raise ValueError(f"capacity must lie in [0, 1/2], got {eps}")
    if n < 0:
        raise ValueError(f"level must be >= 0, got {n}")
    # 1 - (2 - 2^(1-n)) eps, rearranged to avoid cancellation near eps = 1/2
    return _bound_ratio(eps, (1.0 - 2.0 * eps) + 2.0 ** (1 - n) * eps, n)


def lower_bound_gap_form(delta: float, n: int) -> float:
    """The same bound written in terms of the gap ``delta = 1/2 - eps``.

    Reads as a doubling-then-plateau curve: it doubles per level until the cut
    scale ``2^-n`` reaches ``delta``, then stabilizes near ``(1/2 - delta) / (2 delta)``.
    """
    if not 0.0 <= delta <= 0.5:
        raise ValueError(f"gap must lie in [0, 1/2], got {delta}")
    if n < 0:
        raise ValueError(f"level must be >= 0, got {n}")
    return _bound_ratio(
        0.5 - delta, (2.0 - 2.0 ** (1 - n)) * delta + 2.0 ** (-n), n
    )


def _bound_ratio(numerator: float, denominator: float, n: int) -> float:
    """A lower-bound quotient, or ``TreecapError`` past the binary64 range.

    At eps = 1/2 the bound is 2^(n-1): infinite in floats from n = 1025 on,
    and a zero denominator once 2^-n underflows.
    """
    if denominator > 0.0:
        value = numerator / denominator
        if value != math.inf:
            return value
    raise TreecapError(f"lower bound at level {n} exceeds the float range")


def plateau_bound(eps: float) -> float:
    """Ceiling eps / (1 - 2 eps) for the condenser capacities of the equal-split family."""
    if not 0.0 < eps < 0.5:
        raise ValueError(f"capacity must lie in (0, 1/2), got {eps}")
    return eps / (1.0 - 2.0 * eps)


# ---------------------------------------------------------------------------
# the cut search on dyadic cut points
# ---------------------------------------------------------------------------

def _closure_set(bits: list[str], deepest) -> BoundarySet:
    """The cut set [0, t]: ``deepest`` at the cut vertex, Full left of each 1-bit."""
    return BoundarySet(_path(bits, deepest, _FULL_LEAF))


def _solve_cut(target, tol):
    """The coarsest prefix arc [0, t] whose capacity is ``target`` within ``0.9 tol``.

    The search walks down the path to the cut vertex in that vertex's own
    coordinates: ``x`` is the subtree capacity at the cut vertex that puts the
    root at ``target``, and ``[lo, hi]`` holds those that put it within
    ``0.9 tol``.  Stepping past a sibling of capacity ``a`` (the Full left
    one, 1/2, on a 1-bit; the Empty right one, 0, on a 0-bit) maps each of
    them by the inverse merge v -> v / (1 - v) - a.  The map is increasing,
    so the window maps exactly, and it keeps its relative precision however
    deep the cut goes.  The cut vertex becomes an Empty leaf once 0 lies in
    the window, a Full one once 1/2 does.
    """
    bits: list[str] = []
    x, lo, hi = target, target - 0.9 * tol, target + 0.9 * tol
    while True:
        if lo <= 0.0 or hi >= 0.5:
            # when both leaves fit, the one nearer to x
            full = hi >= 0.5 and (lo > 0.0 or x > 0.25)
            return _closure_set(bits, _FULL_LEAF if full else _EMPTY_LEAF)
        if len(bits) >= BISECTION_MAX_RESOLUTION:
            raise ToleranceError(
                f"could not reach tolerance {tol} within resolution "
                f"{BISECTION_MAX_RESOLUTION}; the window at the cut vertex is [{lo}, {hi}]",
                bracket=(lo, hi),
            )

        # a run of m 0-bits maps 1/v to 1/v - m; it lasts until x reaches 1/3
        # (the next bit is 1) or hi reaches 1/2 (the Full exit), so take it in
        # one step and stop two bits short of both for the step below to end
        run = int(min(1.0 / x - 5.0, 1.0 / hi - 4.0, BISECTION_MAX_RESOLUTION - len(bits) - 1))
        if run > 0:
            bits.extend("0" * run)
            x, lo, hi = (1.0 / (1.0 / v - run) for v in (x, lo, hi))

        # the cut vertex's midpoint (left child Full, right Empty) is worth 1/3
        bit = "1" if x >= 1.0 / 3.0 else "0"
        a = 0.5 if bit == "1" else 0.0
        bits.append(bit)
        x, lo, hi = (v / (1.0 - v) - a for v in (x, lo, hi))


# ---------------------------------------------------------------------------
# public constructors
# ---------------------------------------------------------------------------


def _check_target(target: float, tol: float) -> None:
    """The domain checks both public constructors make before searching."""
    if not 0.0 <= target <= 0.5:
        raise ValueError(f"target capacity must lie in [0, 1/2], got {target}")
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")


def set_of_capacity(target: float, tol: float) -> BoundarySet:
    """A closed boundary set whose capacity is ``target`` within ``tol``.

    A search over arc preimages: the candidate sets are the closed preimages
    of circle arcs [0, t] for dyadic t, whose capacity runs continuously and
    monotonically from 0 to 1/2, and the result is the coarsest cut along the
    path to t whose capacity is within ``0.9 tol`` of the target.
    Targets hugging a plateau of the cut family from above (where its mesh is
    only harmonically fine, so the cut would pass ``BISECTION_MAX_RESOLUTION``
    levels) are retried with a root split: one child takes an exact shallow
    piece and the other reruns the search at a shifted target.
    """
    _check_target(target, tol)
    result = _search(target, tol)
    final = capacity(result)
    if abs(final - target) > tol:
        raise ToleranceError(
            f"materialized capacity {final} misses target {target} by more "
            f"than {tol}",
            bracket=(None, final),
        )
    return result


def _search(target, tol) -> BoundarySet:
    """``set_of_capacity``'s set, unchecked: the cut search or its root split."""
    try:
        return _solve_cut(target, tol)
    except ToleranceError as exc:
        return _split_fallback(target, tol, exc)


def _fallback_pieces():
    """Prefix cuts for the root-split fallback, large pieces first.

    The 2^-k cuts are useless here (their capacities are the plateau values
    themselves), so the candidates are odd-numerator cuts whose capacities do
    not land back on the family causing the trouble.
    """
    for p, q in ((1, 2), (3, 4), (3, 8), (5, 8), (7, 8), (5, 16), (11, 16), (15, 16)):
        yield Fraction(p, q)
    for k in range(4, 64):
        yield Fraction(3, 1 << k)
        yield Fraction(5, 1 << (k + 1))


def _split_fallback(target, tol, original) -> BoundarySet:
    """Root-split construction for targets the plain cut search cannot reach.

    The children capacities only need to sum to ``target / (1 - target)``, so
    planting an exact prefix piece in the left child moves the right child's
    target away from the troublesome value; the sub-search runs once per
    candidate piece until one lands.
    """
    s_needed = target / (1.0 - target)
    tol_sub = 0.8 * tol * (1.0 + s_needed) ** 2
    for cut in _fallback_pieces():
        piece = prefix_set(cut)
        w = capacity(piece)
        rest = s_needed - w
        if not 1e-6 < rest < 0.5 - 1e-9:
            continue
        try:
            right = _solve_cut(rest, tol_sub)
        except ToleranceError:
            continue
        return BoundarySet(_join(piece._root, right._root))
    raise ToleranceError(
        f"no reachable construction for capacity {target} at tolerance {tol} "
        f"within resolution {BISECTION_MAX_RESOLUTION}; last bracket {original.bracket}",
        bracket=original.bracket,
    ) from original


def _slope_merge(left, right, _same):
    # (capacity, derivative) pairs: the float merge and its chain rule
    s = left[0] + right[0]
    return s / (1.0 + s), (left[1] + right[1]) / (1.0 + s) ** 2


def calibrated_set(
    base: BoundarySet,
    target: float,
    tol: float,
) -> BoundarySet:
    """Adjust ``base`` to capacity ``target`` by planting one piece at its leaves.

    A base that is too heavy gets one shared piece P in place of every Full
    leaf, so the result lies inside it; one that is too light gets P in place
    of every Empty leaf, so the result contains it (series-parallel
    substitution).  The result's capacity is the base's merge recursion with
    P's capacity x at those leaves, increasing in x, so x is found by
    bisection; P is built by ``set_of_capacity``'s search at the loosest
    tolerance that keeps the result within ``tol``.  An empty or full base
    calibrates to ``set_of_capacity(target, tol)`` itself.

    A base a few ``tol`` below the target can still raise ``CalibrationError``:
    its piece would need more than ``BISECTION_MAX_RESOLUTION`` levels.
    """
    _check_target(target, tol)
    c0 = capacity(base)
    if abs(c0 - target) <= tol:
        return base
    heavy = c0 > target
    root = base._root

    def plant(piece, merge, full=0.5, empty=0.0):
        # the base's fold with ``piece`` at every leaf of the kind it replaces
        leaves = (piece, empty) if heavy else (full, piece)
        return _fold(root, *leaves, merge)[root]

    if base.is_empty() or base.is_full():
        x, piece_tol = target, tol
    else:
        lo, hi = 0.0, 0.5
        while True:
            x = 0.5 * (lo + hi)
            miss = plant(x, _float_merge) - target
            if abs(miss) <= 0.01 * tol or not lo < x < hi:
                break
            lo, hi = (x, hi) if miss < 0.0 else (lo, x)
        slope = plant((x, 1.0), _slope_merge, (0.5, 0.0), (0.0, 0.0))[1]
        piece_tol = 0.9 * (tol - abs(miss)) / slope
    try:
        piece = _search(x, piece_tol)
    except ToleranceError as exc:
        raise CalibrationError(
            f"cannot calibrate set of capacity {c0} to {target}: {exc}"
        ) from exc
    result = BoundarySet(
        plant(piece._root, lambda l, r, _: _join(l, r), _FULL_LEAF, _EMPTY_LEAF)
    )
    final = capacity(result)
    if abs(final - target) > tol:
        raise CalibrationError(
            f"calibrated capacity {final} misses target {target} by more than {tol}"
        )
    return result


# ---------------------------------------------------------------------------
# the equal-split family
# ---------------------------------------------------------------------------


@dataclass
class SplitFamily:
    """A set of capacity ``epsilon`` split into 2^n equal-capacity pieces at level ``n``.

    ``e[k]`` is the common subtree capacity of the pieces at level ``k``; the
    carrier realizes the construction with the same piece shape repeated in
    every level-``n`` shadow, so its condenser capacity at level ``n`` is
    ``2^n e[n]`` and stays below the plateau ceiling for every ``n``.
    """

    epsilon: float
    n: int
    e: list[float]
    carrier: BoundarySet

    @property
    def bound_R(self) -> float:
        return plateau_bound(self.epsilon)

    def to_json_obj(self):
        return {
            "epsilon": self.epsilon,
            "n": self.n,
            "e": list(self.e),
            "bound_R": self.bound_R,
            "carrier": self.carrier.to_json_obj(),
        }


def split_levels(epsilon: float, n: int) -> list[float]:
    """Per-level piece capacities e_0 = epsilon, e_k = e_{k-1} / (2 - 2 e_{k-1})."""
    if not 0.0 < epsilon < 0.5:
        raise ValueError(f"epsilon must lie in (0, 1/2), got {epsilon}")
    e = [epsilon]
    for _ in range(n):
        e.append(e[-1] / (2.0 - 2.0 * e[-1]))
    return e


def equal_split(
    epsilon: float,
    n: int,
    tol: float = 1e-9,
) -> SplitFamily:
    """Build the equal-split family member at split depth ``n``.

    One piece of capacity ``e[n]`` is constructed to tolerance ``tol * 2^-n``
    and repeated (as a shared subtree) in all 2^n level-``n`` shadows; running
    the merge recursion back up then lands the root capacity within ``tol`` of
    ``epsilon``, which the builder verifies before returning.
    """
    if n < 0:
        raise ValueError(f"split depth must be >= 0, got {n}")
    e = split_levels(epsilon, n)
    piece = set_of_capacity(e[n], tol * 0.5**n)
    node = piece._root
    for _ in range(n):
        node = _join(node, node)
    carrier = BoundarySet(node)
    achieved = capacity(carrier)
    if abs(achieved - epsilon) > tol:
        raise ToleranceError(
            f"assembled carrier capacity {achieved} misses {epsilon} by more "
            f"than {tol}",
            bracket=(achieved, epsilon),
        )
    return SplitFamily(epsilon, n, e, carrier)


# ---------------------------------------------------------------------------
# stock test sets
# ---------------------------------------------------------------------------


def cantor_set(levels: int) -> BoundarySet:
    """Cantor-type set: each kept arc is refined to its two outer quarters.

    ``levels`` refinements leave ``2^levels`` closed arcs of length
    ``4^-levels``; ``levels = 0`` is the full boundary.
    """
    if levels < 0:
        raise ValueError(f"levels must be >= 0, got {levels}")
    indices = [0]
    for _ in range(levels):
        indices = [4 * j for j in indices] + [4 * j + 3 for j in indices]
    return BoundarySet.from_full_leaves((2 * levels, j) for j in sorted(indices))


def random_boundary_set(seed: int, max_depth: int = 8) -> BoundarySet:
    """Seeded random canonical trie of bounded depth.

    Interior vertices stop early with probability 0.35 (always at
    ``max_depth``) and a stopped vertex is Full with probability 0.45.
    Canonical merging may shrink the result, including to the empty set.
    """
    rng = Random(seed)

    def gen(depth):
        if depth >= max_depth or rng.random() < 0.35:
            return _FULL_LEAF if rng.random() < 0.45 else _EMPTY_LEAF
        left = gen(depth + 1)
        right = gen(depth + 1)
        return _join(left, right)

    return BoundarySet(gen(0))
