"""Condenser capacities in the unit disc by Dirichlet-energy minimization.

The condenser has a closed arc set on the unit circle held at potential 1 and
a concentric closed disc held at 0; its capacity is the minimal Dirichlet
integral over admissible potentials, normalized by 1/(2 pi) so the full-circle
benchmark with inner radius r comes out 1 / log(1/r) exactly.

Discretization: a tensor polar grid on the annulus between the plates, graded
geometrically toward the unit circle, with edge conductances obtained by exact
integration of the metric weight over each cell (trapezoid in the radial
direction, logarithmic band widths in the angular direction).  Minimizing the
resulting quadratic form is a 5-point discrete Laplace problem with natural
boundary conditions on the free part of the circle.  Its operator is circulant
in the angle, so the interior rings are eliminated exactly per Fourier mode,
keeping one row of the elimination at a time.  That leaves a circulant system
on the unit-circle ring, applied by FFT and solved on the free ring nodes by
conjugate gradients preconditioned with the inverse circulant (the
capacitance-matrix method of Proskurowski and Widlund, with a circulant
preconditioner after Strang).  The capacity is the ring's quadratic form, so a
solve needs memory only in the angular cell count; the interior field is
recovered by back-substitution per mode when it is asked for.

Fields are ``(rings, columns)`` arrays: ring 0 lies on the inner plate and the
last ring on the unit circle; columns are angular cells with periodic
wraparound.  ``kr[i]`` is the radial conductance between rings ``i`` and
``i + 1`` and ``kt[i]`` the angular conductance within ring ``i``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    ConvergenceError,
    MisalignedArcError,
    TreecapError,
)
from .tree import BoundarySet

# Largest array, in values, that a solve or a field recovery may allocate
# (1 GiB of float64); larger grids fail up front instead of in the allocator.
MAX_ARRAY_ELEMENTS = 1 << 27

# The CG stops once its residual falls to CG_TOL times the initial one, and
# raises ConvergenceError after CG_MAX_ITER iterations.
CG_TOL = 1e-10
CG_MAX_ITER = 60000


@dataclass(frozen=True)
class SolverGrid:
    """Polar grid configuration; the radial grading adapts to the inner radius."""

    n_angular: int = 1024
    n_radial: int = 200

    def __post_init__(self):
        if self.n_angular < 4 or self.n_angular & (self.n_angular - 1):
            raise ValueError(
                f"angular cell count must be a power of two >= 4, got {self.n_angular}"
            )
        if self.n_radial < 4:
            raise ValueError(f"need at least 4 radial layers, got {self.n_radial}")


@dataclass(frozen=True)
class CondenserProblem:
    """Plates of the condenser: ``plate`` on the unit circle at 1, the disc of ``inner_radius`` at 0."""

    plate: BoundarySet
    inner_radius: float

    def __post_init__(self):
        if not 0.0 < self.inner_radius < 1.0:
            raise ValueError(
                f"inner radius must lie strictly inside (0, 1), got {self.inner_radius}"
            )

    @staticmethod
    def from_set(e: BoundarySet, inner_radius: float) -> "CondenserProblem":
        """The same as ``CondenserProblem(e, inner_radius)``."""
        return CondenserProblem(e, inner_radius)


@dataclass(eq=False)
class DiscSolution:
    """Solved condenser: capacity, unit-circle ring values, and the grid they live on.

    ``ring`` holds the potential on the unit circle.  The interior field
    ``potential`` is recovered from it on first access and then cached.
    Solutions compare by identity: their fields are numpy arrays.
    """

    capacity: float
    ring: np.ndarray = field(repr=False)
    radii: np.ndarray = field(repr=False)
    iterations: int = 0
    residual: float = 0.0
    _kr: np.ndarray = field(repr=False, default=None)
    _kt: np.ndarray = field(repr=False, default=None)

    @cached_property
    def potential(self) -> np.ndarray:
        """The ``(rings, columns)`` potential field, by back-substitution per mode.

        Each angular mode of ring ``i`` is the ring's mode times its gain
        (``_ring_gains``), which minimizes the interior energy for the given
        ring values.  Costs one symbol sweep and ``len(radii) * ring.size``
        values of memory, which must stay within ``MAX_ARRAY_ELEMENTS``.
        """
        cols = self.ring.size
        _check_size(len(self.radii) * cols, "the potential field")
        gains = _ring_gains(self._kr, self._kt, cols)
        u = np.fft.irfft(gains * np.fft.rfft(self.ring), n=cols, axis=1)
        u[-1] = self.ring
        return u

    def flux_capacity(self, gap: int) -> float:
        """Capacity measured as the flux through the circle between rings ``gap`` and ``gap+1``.

        Equals ``capacity`` up to solver tolerance for every interior gap (the
        discrete Green identity).  Builds the field on first use.
        """
        u, kr = self.potential, self._kr
        return float((kr[gap] * (u[gap + 1] - u[gap])).sum()) / (2.0 * math.pi)

    def field_rows(self):
        """(rho, theta, u) triples of the potential field, for CSV dumps."""
        thetas = 2.0 * math.pi * np.arange(self.ring.size) / self.ring.size
        for i, rho in enumerate(self.radii):
            for k, theta in enumerate(thetas):
                yield float(rho), float(theta), float(self.potential[i, k])


def _check_size(values: int, what: str) -> None:
    """Refuse, before allocating it, an array of more than ``MAX_ARRAY_ELEMENTS`` values."""
    if values > MAX_ARRAY_ELEMENTS:
        raise TreecapError(
            f"{what} needs arrays of {values} values, above the limit of "
            f"{MAX_ARRAY_ELEMENTS}; use a smaller grid"
        )


def _radial_nodes(r: float, layers: int, n_angular: int) -> np.ndarray:
    """Graded radii from the inner plate to 1; spacing shrinks toward the circle.

    The finest spacing matches the angular arc length, keeping the boundary
    cells square-ish (grossly anisotropic cells would wreck the conditioning).
    """
    span = 1.0 - r
    finest = min(span / 2.0, 2.0 * math.pi / n_angular)
    rho = np.empty(layers + 1)
    rho[layers] = 1.0
    beta = (finest / span) ** (1.0 / (layers - 1))
    rho[:layers] = 1.0 - span * beta ** np.arange(layers)
    return rho


def _conductances(rho: np.ndarray, n_angular: int):
    """Edge conductances from exact metric integrals over grid cells."""
    dtheta = 2.0 * math.pi / n_angular
    kr = dtheta * (rho[1:] + rho[:-1]) / (2.0 * np.diff(rho))
    mid = 0.5 * (rho[1:] + rho[:-1])
    bands = np.concatenate(([rho[0]], mid, [rho[-1]]))
    kt = np.log(bands[1:] / bands[:-1]) / dtheta
    return kr, kt


def _plate_mask(plate: BoundarySet, n_angular: int) -> np.ndarray:
    """Boundary nodes held at 1: whole cells per Full leaf, endpoints included.

    The plate's resolution, a fold over its distinct trie nodes, is checked
    against the grid before a single leaf is listed, so a set deeper than the
    grid fails fast however many leaves it has.
    """
    depth = n_angular.bit_length() - 2  # log2(n_angular) - 1 for a power of two
    if plate.resolution > depth:
        raise MisalignedArcError(
            f"{n_angular} angular cells cannot tile arcs of resolution "
            f"{plate.resolution}; need at least 2^{plate.resolution + 1}"
        )
    mask = np.zeros(n_angular, dtype=bool)
    for level, index in plate.full_leaves():
        width = n_angular >> level
        start = index * width
        mask[start : start + width + 1] = True
        if start + width >= n_angular:
            mask[0] = True
    return mask


def _ring_sweep(kr: np.ndarray, kt: np.ndarray, n_angular: int):
    """Eliminate the interior rings exactly, one angular Fourier mode at a time.

    The grid operator is circulant in the angle, so in mode ``k`` (angular
    symbol ``mu_k = 2 - 2 cos(2 pi k / N)``) it is a tridiagonal chain over the
    rings.  ``s[i]`` is the energy coefficient of ring ``i`` once the rings
    below it are minimized out (ring 0 is grounded): ``s[1] = kr[0] + kt[1] mu``
    and ``s[i+1] = s[i] kr[i] / (s[i] + kr[i]) + kt[i+1] mu``.

    Yields the rows ``s[1], ..., s[R]`` over the modes ``0..N/2`` one at a
    time, so a caller that keeps only the last row needs O(N) memory.  ``mu``
    is evaluated as ``4 sin^2(pi k / N)``: the difference form loses digits
    to cancellation at low modes on fine grids (4e-9 relative at k = 1 for
    N = 2^16), and the ring-form capacity inherits a symbol error at first
    order.
    """
    modes = np.arange(n_angular // 2 + 1)
    mu = 4.0 * np.sin(math.pi * modes / n_angular) ** 2
    s = kr[0] + kt[1] * mu
    yield s
    for i in range(1, len(kr)):
        s = s * kr[i] / (s + kr[i]) + kt[i + 1] * mu
        yield s


def _ring_symbol(kr: np.ndarray, kt: np.ndarray, n_angular: int) -> np.ndarray:
    """``s[R]``: the Schur complement of the grid operator onto the unit-circle ring, per mode."""
    for s in _ring_sweep(kr, kt, n_angular):
        pass
    return s


def _ring_gains(kr: np.ndarray, kt: np.ndarray, n_angular: int) -> np.ndarray:
    """Per mode, the factor by which ring ``i`` follows the unit-circle ring in the minimizer.

    ``gains[i]`` is the product of ``kr[m] / (s[m] + kr[m])`` over
    ``m = i..R-1``: 1 on the outer ring and 0 on the grounded one.
    """
    rings = len(kr) + 1
    gains = np.zeros((rings, n_angular // 2 + 1))
    gains[-1] = 1.0
    for i, s in zip(range(1, rings - 1), _ring_sweep(kr, kt, n_angular)):
        gains[i] = kr[i] / (s + kr[i])  # ring i over ring i + 1
    gains[1:-1] = np.cumprod(gains[-2:0:-1], axis=0)[::-1]
    return gains


def solve(problem: CondenserProblem, grid: SolverGrid = SolverGrid()) -> DiscSolution:
    """Solve the condenser problem on the given grid.

    The discrete energy is minimized over potentials fixed to 1 on the arc
    plate's boundary nodes and 0 on the inner circle, free elsewhere (which
    realizes the zero-flux condition on the rest of the unit circle).  Returns
    the discrete capacity (energy / 2 pi) and the potential on the unit circle;
    the interior field is built only when ``potential`` is read.

    The interior rings are eliminated exactly mode by mode (``_ring_sweep``,
    keeping one row), which leaves a circulant system on the unit-circle ring
    with symbol ``S``, applied by FFT.  Its free nodes are solved by
    conjugate gradients preconditioned with the inverse circulant: a residual
    is padded with 0 on the plate, multiplied by ``1/S`` in Fourier space and
    restricted to the free nodes, which is symmetric positive definite because
    ``S`` is.  ``CG_TOL`` bounds the unpreconditioned residual relative to
    that of the plate values alone, and ``iterations`` and ``residual`` report
    this boundary iteration.  The capacity is the ring quadratic form
    ``sum_k w_k S_k |g_k|^2 / (2 pi N)`` of the ring values' modes ``g_k``
    (``w_k`` is 1 at k = 0 and N/2 and 2 otherwise), which equals the energy
    of the minimizing interior field: the same discrete minimum as a solve of
    the full 2D quadratic form, not an approximation of it.  Memory is O(N)
    in the angular cell count.
    """
    cols = grid.n_angular
    _check_size(max(cols, grid.n_radial + 1), f"a {cols}x{grid.n_radial} grid")
    rho = _radial_nodes(problem.inner_radius, grid.n_radial, cols)
    kr, kt = _conductances(rho, cols)
    plate = _plate_mask(problem.plate, cols)
    free = ~plate
    symbol = _ring_symbol(kr, kt, cols)
    inverse = 1.0 / symbol

    work = np.zeros(cols)

    def on_free(values, weights):
        """The circulant with per-mode ``weights`` applied to free-node values
        padded with 0 on the plate, read on the free nodes."""
        work[free] = values
        return np.fft.irfft(weights * np.fft.rfft(work), n=cols)[free]

    ring = plate.astype(float)
    # residual with the free nodes at 0: the plate values' pull on them
    r = -np.fft.irfft(symbol * np.fft.rfft(ring), n=cols)[free]
    x = np.zeros_like(r)
    residual = math.sqrt(float(r @ r))
    target = CG_TOL * residual
    iterations = 0

    if residual > 0.0:
        z = on_free(r, inverse)
        p = z.copy()
        rz = float(r @ z)
        for iterations in range(1, CG_MAX_ITER + 1):
            q = on_free(p, symbol)
            alpha = rz / float(p @ q)
            x += alpha * p
            r -= alpha * q
            residual = math.sqrt(float(r @ r))
            if residual <= target:
                break
            z = on_free(r, inverse)
            rz_next = float(r @ z)
            p *= rz_next / rz
            p += z
            rz = rz_next
        else:
            raise ConvergenceError(
                f"preconditioned conjugate gradient did not reach residual "
                f"{target:.3e} in {CG_MAX_ITER} iterations (residual {residual:.3e})",
                residual=residual,
                iterations=CG_MAX_ITER,
            )

    ring[free] = x
    modes = np.fft.rfft(ring)
    power = symbol * (modes.real**2 + modes.imag**2)
    # modes 1..N/2-1 stand for themselves and their conjugates
    energy = float(2.0 * power.sum() - power[0] - power[-1]) / cols
    return DiscSolution(
        energy / (2.0 * math.pi), ring, rho, iterations, residual, kr, kt
    )


def condenser_profile(
    e: BoundarySet, n_max: int, grid: SolverGrid = SolverGrid()
) -> list[tuple[int, float]]:
    """Condenser capacities against the discs of radius 1 - 2^-n for n = 1..n_max."""
    if n_max < 1:
        raise ValueError(f"need n_max >= 1, got {n_max}")
    out = []
    for n in range(1, n_max + 1):
        r = 1.0 - 0.5**n
        out.append((n, solve(CondenserProblem(e, r), grid).capacity))
    return out
