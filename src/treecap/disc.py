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
leaving a circulant system on the unit-circle ring that is applied by FFT and
solved by conjugate gradients on the free ring nodes.

Fields are ``(rings, columns)`` arrays: ring 0 lies on the inner plate and the
last ring on the unit circle; columns are angular cells with periodic
wraparound.  ``kr[i]`` is the radial conductance between rings ``i`` and
``i + 1`` and ``kt[i]`` the angular conductance within ring ``i``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import ConvergenceError, DegenerateSetError, MisalignedArcError
from .tree import BoundarySet


@dataclass(frozen=True)
class SolverGrid:
    """Polar grid configuration; the radial grading adapts to the inner radius."""

    n_angular: int = 1024
    n_radial: int = 200
    tol: float = 1e-10
    max_iter: int = 60000

    def __post_init__(self):
        if self.n_angular < 4 or self.n_angular & (self.n_angular - 1):
            raise ValueError(
                f"angular cell count must be a power of two >= 4, got {self.n_angular}"
            )
        if self.n_radial < 4:
            raise ValueError(f"need at least 4 radial layers, got {self.n_radial}")
        if self.tol <= 0:
            raise ValueError(f"tolerance must be positive, got {self.tol}")


@dataclass(frozen=True)
class CondenserProblem:
    """Plates of the condenser: dyadic circle arcs at 1, the disc of ``inner_radius`` at 0."""

    arcs: tuple[tuple[int, int], ...]
    inner_radius: float
    plate_values: ClassVar[tuple[float, float]] = (1.0, 0.0)

    def __post_init__(self):
        if not 0.0 < self.inner_radius < 1.0:
            raise ValueError(
                f"inner radius must lie strictly inside (0, 1), got {self.inner_radius}"
            )
        # canonicalizing through the boundary-set encoding validates the arcs
        # and merges overlaps, which leaves the plate unchanged
        canonical = tuple(BoundarySet.from_full_leaves(self.arcs).full_leaves())
        object.__setattr__(self, "arcs", canonical)

    @staticmethod
    def from_set(e: BoundarySet, inner_radius: float) -> "CondenserProblem":
        return CondenserProblem(tuple(e.full_leaves()), inner_radius)

    @property
    def arc_resolution(self) -> int:
        return max((n for n, _ in self.arcs), default=0)

    def to_json_obj(self) -> dict:
        return {
            "arcs": [[n, j] for n, j in self.arcs],
            "inner_radius": self.inner_radius,
            "plate_values": list(self.plate_values),
        }

    @staticmethod
    def from_json_obj(obj) -> "CondenserProblem":
        return CondenserProblem(
            tuple((int(n), int(j)) for n, j in obj["arcs"]),
            float(obj["inner_radius"]),
        )


@dataclass
class DiscSolution:
    """Solved condenser: capacity, potential field, and the grid it lives on."""

    capacity: float
    potential: np.ndarray = field(repr=False)
    radii: np.ndarray = field(repr=False)
    n_angular: int = 0
    iterations: int = 0
    residual: float = 0.0
    _kr: np.ndarray = field(repr=False, default=None)
    _kt: np.ndarray = field(repr=False, default=None)

    def flux_capacity(self, gap: int) -> float:
        """Capacity measured as the flux through the circle between rings ``gap`` and ``gap+1``.

        Equals ``capacity`` up to solver tolerance for every interior gap (the
        discrete Green identity).
        """
        u, kr = self.potential, self._kr
        return float((kr[gap] * (u[gap + 1] - u[gap])).sum()) / (2.0 * math.pi)

    def field_rows(self):
        """(rho, theta, u) triples of the potential field, for CSV dumps."""
        thetas = 2.0 * math.pi * np.arange(self.n_angular) / self.n_angular
        for i, rho in enumerate(self.radii):
            for k, theta in enumerate(thetas):
                yield float(rho), float(theta), float(self.potential[i, k])

    def to_json_obj(self) -> dict:
        """Result summary (the field itself goes through ``field_rows``)."""
        return {
            "capacity": self.capacity,
            "iterations": self.iterations,
            "residual": self.residual,
            "rings": len(self.radii),
            "n_angular": self.n_angular,
        }


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


def _plate_mask(arcs, n_angular: int, arc_resolution: int) -> np.ndarray:
    """Boundary nodes held at 1: whole cells per arc, endpoints included."""
    if n_angular < (1 << (arc_resolution + 1)):
        raise MisalignedArcError(
            f"{n_angular} angular cells cannot tile arcs of resolution "
            f"{arc_resolution}; need at least {1 << (arc_resolution + 1)}"
        )
    mask = np.zeros(n_angular, dtype=bool)
    for level, index in arcs:
        width = n_angular >> level
        start = index * width
        mask[start : start + width + 1] = True
        if start + width >= n_angular:
            mask[0] = True
    return mask


def _grid_energy(u: np.ndarray, kr: np.ndarray, kt: np.ndarray) -> float:
    """Raw Dirichlet energy of a grid field: sum of conductance-weighted squared drops."""
    radial = kr[:, None] * (u[1:, :] - u[:-1, :]) ** 2
    angular = kt[:, None] * (np.roll(u, -1, axis=1) - u) ** 2
    return float(radial.sum() + angular.sum())


def _ring_reduction(kr: np.ndarray, kt: np.ndarray, n_angular: int):
    """Eliminate the interior rings exactly, one angular Fourier mode at a time.

    The grid operator is circulant in the angle, so in mode ``k`` (angular
    symbol ``mu_k = 2 - 2 cos(2 pi k / N)``) it is a tridiagonal chain over the
    rings.  ``s[i]`` is the energy coefficient of ring ``i`` once the rings
    below it are minimized out (ring 0 is grounded): ``s[1] = kr[0] + kt[1] mu``
    and ``s[i+1] = s[i] kr[i] / (s[i] + kr[i]) + kt[i+1] mu``.

    Returns ``(symbol, gains)``: ``symbol = s[-1]`` is the Schur complement of
    the grid operator onto the unit-circle ring, and ``gains[i]`` is the factor
    by which ring ``i``'s mode follows the outer ring's in the minimizer
    (1 on the outer ring, 0 on the grounded one).
    """
    rings = len(kr) + 1
    modes = np.arange(n_angular // 2 + 1)
    mu = 2.0 - 2.0 * np.cos(2.0 * math.pi * modes / n_angular)
    s = np.empty((rings, mu.size))
    s[1] = kr[0] + kt[1] * mu
    for i in range(1, rings - 1):
        s[i + 1] = s[i] * kr[i] / (s[i] + kr[i]) + kt[i + 1] * mu
    gains = np.zeros_like(s)
    gains[-1] = 1.0
    ratios = kr[1:, None] / (s[1:-1] + kr[1:, None])  # ring i over ring i + 1
    gains[1:-1] = np.cumprod(ratios[::-1], axis=0)[::-1]
    return s[-1], gains


def solve(problem: CondenserProblem, grid: SolverGrid = SolverGrid()) -> DiscSolution:
    """Solve the condenser problem on the given grid.

    The discrete energy is minimized over potentials fixed to 1 on the arc
    plate's boundary nodes and 0 on the inner circle, free elsewhere (which
    realizes the zero-flux condition on the rest of the unit circle).  Returns
    the discrete capacity (energy / 2 pi) together with the potential field.

    The interior rings are eliminated exactly mode by mode (``_ring_reduction``),
    which leaves a circulant system on the unit-circle ring, applied by FFT.
    Its free nodes are solved by conjugate gradients (the circulant's diagonal
    is constant, so Jacobi preconditioning is a plain rescaling and is
    omitted); ``grid.tol`` bounds the residual relative to that of the plate
    values alone, and ``iterations`` and ``residual`` report this boundary
    iteration.  The interior field is then recovered by back-substitution per
    mode.  The result is the same discrete minimum as a solve of the full
    2D quadratic form, not an approximation of it.
    """
    rho = _radial_nodes(problem.inner_radius, grid.n_radial, grid.n_angular)
    kr, kt = _conductances(rho, grid.n_angular)
    cols = grid.n_angular
    plate = _plate_mask(problem.arcs, cols, problem.arc_resolution)
    free = ~plate
    symbol, gains = _ring_reduction(kr, kt, cols)

    def reduced_free(ring_values):
        """The ring operator applied to a ring field, read on the free nodes."""
        return np.fft.irfft(symbol * np.fft.rfft(ring_values), n=cols)[free]

    ring = plate.astype(float)
    work = np.zeros(cols)
    # residual with the free nodes at 0: the plate values' pull on them
    r = -reduced_free(ring)
    x = np.zeros_like(r)
    rr = float(r @ r)
    residual = math.sqrt(rr)
    target = grid.tol * residual
    iterations = 0

    if residual > 0.0:
        p = r.copy()
        for iterations in range(1, grid.max_iter + 1):
            work[free] = p
            q = reduced_free(work)
            alpha = rr / float(p @ q)
            x += alpha * p
            r -= alpha * q
            rr_next = float(r @ r)
            residual = math.sqrt(rr_next)
            if residual <= target:
                break
            p *= rr_next / rr
            p += r
            rr = rr_next
        else:
            raise ConvergenceError(
                f"conjugate gradient did not reach residual {target:.3e} in "
                f"{grid.max_iter} iterations (residual {residual:.3e})",
                residual=residual,
                iterations=grid.max_iter,
            )

    ring[free] = x
    u = np.fft.irfft(gains * np.fft.rfft(ring), n=cols, axis=1)
    u[-1] = ring
    cap = _grid_energy(u, kr, kt) / (2.0 * math.pi)
    return DiscSolution(cap, u, rho, cols, iterations, residual, kr, kt)


def capacity_of_set(e: BoundarySet, grid: SolverGrid = SolverGrid()) -> float:
    """Normalized capacity of a circle arc set: the condenser against the disc of radius 1/2."""
    if e.is_empty():
        raise DegenerateSetError("capacity_of_set needs a nonempty arc set")
    return solve(CondenserProblem.from_set(e, 0.5), grid).capacity


def condenser_profile(
    e: BoundarySet, n_max: int, grid: SolverGrid = SolverGrid()
) -> list[tuple[int, float]]:
    """Condenser capacities against the discs of radius 1 - 2^-n for n = 1..n_max."""
    if n_max < 1:
        raise ValueError(f"need n_max >= 1, got {n_max}")
    out = []
    for n in range(1, n_max + 1):
        r = 1.0 - 0.5**n
        out.append((n, solve(CondenserProblem.from_set(e, r), grid).capacity))
    return out
