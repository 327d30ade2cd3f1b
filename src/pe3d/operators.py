"""Discrete depth/azimuth difference operators and step-system assembly.

The marching update factors into a depth operator X and an azimuth
operator Y applied as

    [1 + (1/4 - d/4) X] [1 - d/4 Y] u_next = [1 + (1/4 + d/4) X] [1 + d/4 Y] u

with d = i * k0 * delta_r.  X carries the medium term:

    (X u)_l = (n_l^2 - 1) u_l + (u_{l+1} - 2 u_l + u_{l-1}) / (k0 dz)^2

and Y is the bare azimuthal second difference scaled by 1 / (k0 r dtheta)^2.
Exterior stencil values are zero (pressure-release surface, absorber-backed
bottom, sector edges); the azimuth index wraps on a periodic grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .environment import PERIODIC, TOPOLOGIES, FieldSlab, Grid3D
from .errors import DomainError, InvariantError, ShapeError
from .tridiag import OPEN, CYCLIC, Diagonals

DEPTH = "depth"
AZIMUTH = "azimuth"


@dataclass(frozen=True)
class StepCoefficients:
    """The four bracket coefficients of one range step, plus d itself.

    For real k0 and delta_r, d is purely imaginary, which makes the exact
    identities cx_lhs + cx_rhs == 1/2 and cy_lhs + cy_rhs == 0 hold
    bitwise (real and imaginary parts add independently).
    """

    delta: complex
    cx_lhs: complex
    cx_rhs: complex
    cy_lhs: complex
    cy_rhs: complex

    def __post_init__(self):
        if self.cx_lhs + self.cx_rhs != 0.5 + 0.0j:
            raise InvariantError("cx_lhs + cx_rhs == 1/2 exactly")
        if self.cy_lhs + self.cy_rhs != 0.0 + 0.0j:
            raise InvariantError("cy_lhs + cy_rhs == 0 exactly")

    @classmethod
    def for_step(cls, k0: float, delta_r: float) -> "StepCoefficients":
        delta = 1j * (k0 * delta_r)
        quarter = delta / 4.0
        return cls(
            delta=delta,
            cx_lhs=0.25 - quarter,
            cx_rhs=0.25 + quarter,
            cy_lhs=-quarter,
            cy_rhs=+quarter,
        )


@dataclass(frozen=True, eq=False)
class OperatorStencil:
    """Shared description of one difference operator: the second-difference
    scale and the per-point local term ((n^2 - 1) for depth, 0 for azimuth).

    Both the matrix-free application and the tri-diagonal assembly are built
    from the same stencil, so they agree by construction.
    """

    direction: str
    second_difference_scale: float
    local_term: np.ndarray | float

    def __post_init__(self):
        if self.direction not in (DEPTH, AZIMUTH):
            raise InvariantError("direction in (depth, azimuth)")
        if not self.second_difference_scale > 0:
            raise InvariantError(
                "second_difference_scale > 0",
                f"got {self.second_difference_scale}",
            )
        if self.direction == AZIMUTH and np.any(np.asarray(self.local_term) != 0):
            raise InvariantError("azimuth stencil local_term == 0")


def depth_stencil(n_values, k0: float, delta_z: float) -> OperatorStencil:
    if k0 <= 0 or delta_z <= 0:
        raise DomainError("k0 and delta_z must be > 0")
    nsq_minus_1 = np.asarray(n_values, dtype=np.complex128) ** 2 - 1.0
    return OperatorStencil(DEPTH, 1.0 / (k0 * delta_z) ** 2, nsq_minus_1)


def azimuth_stencil(k0: float, r: float, delta_theta: float) -> OperatorStencil:
    if r <= 0:
        raise DomainError(f"range must be > 0, got {r}")
    if k0 <= 0 or delta_theta <= 0:
        raise DomainError("k0 and delta_theta must be > 0")
    return OperatorStencil(AZIMUTH, 1.0 / (k0 * r * delta_theta) ** 2, 0.0)


def _second_difference(u: np.ndarray, axis: int, periodic: bool) -> np.ndarray:
    if u.shape[axis] < 3:
        raise ShapeError(f"need >= 3 points along axis {axis}, got {u.shape[axis]}")
    if periodic:
        return np.roll(u, -1, axis=axis) + np.roll(u, 1, axis=axis) - 2.0 * u
    d2 = np.empty_like(u)
    mid = [slice(None)] * u.ndim
    lo = [slice(None)] * u.ndim
    hi = [slice(None)] * u.ndim
    mid[axis], lo[axis], hi[axis] = slice(1, -1), slice(None, -2), slice(2, None)
    d2[tuple(mid)] = u[tuple(hi)] - 2.0 * u[tuple(mid)] + u[tuple(lo)]
    first = [slice(None)] * u.ndim
    second = [slice(None)] * u.ndim
    first[axis], second[axis] = 0, 1
    d2[tuple(first)] = u[tuple(second)] - 2.0 * u[tuple(first)]
    first[axis], second[axis] = -1, -2
    d2[tuple(first)] = u[tuple(second)] - 2.0 * u[tuple(first)]
    return d2


def _depth_local_term(st: OperatorStencil, shape: tuple) -> np.ndarray:
    """The depth stencil's (n^2 - 1) term, checked against a field of
    ``shape`` with depth last."""
    local = np.asarray(st.local_term)
    if local.shape not in ((), shape, shape[-1:]):
        raise ShapeError(
            f"refraction values of shape {local.shape} do not broadcast "
            f"over field of shape {shape}"
        )
    return local


def apply_X(column: np.ndarray, n_column, k0: float, delta_z: float) -> np.ndarray:
    """Depth operator on a vector over l, or a slab with depth last.

    Dirichlet closure: the values just outside the surface and bottom rows
    are zero.
    """
    u = np.asarray(column, dtype=np.complex128)
    st = depth_stencil(n_column, k0, delta_z)
    local = _depth_local_term(st, u.shape)
    return local * u + st.second_difference_scale * _second_difference(u, -1, False)


def apply_Y(row: np.ndarray, k0: float, r: float, delta_theta: float,
            topology: str) -> np.ndarray:
    """Azimuth operator on a vector over m, or a slab with azimuth first.

    Indices wrap modulo the azimuth count when periodic; a sector uses the
    zero-exterior closure.
    """
    if topology not in TOPOLOGIES:
        raise InvariantError(f"azimuth_topology in {TOPOLOGIES}")
    u = np.asarray(row, dtype=np.complex128)
    st = azimuth_stencil(k0, r, delta_theta)
    return st.second_difference_scale * _second_difference(u, 0, topology == PERIODIC)


def compute_rhs(slab: FieldSlab, coeffs: StepCoefficients, n_field,
                k0: float, grid: Grid3D) -> FieldSlab:
    """Explicit side of the step:  [I + cx_rhs X] [I + cy_rhs Y] u.

    The Y factor acts first (row-wise over azimuth, at the slab's current
    range), then the X factor (column-wise over depth); the X factor sits
    outermost in the step factorization.
    """
    slab.check_grid(grid)
    u = slab.values
    yu = apply_Y(u, k0, slab.range_m, grid.delta_theta, grid.azimuth_topology)
    temp = u + coeffs.cy_rhs * yu
    xt = apply_X(temp, n_field, k0, grid.delta_z)
    return FieldSlab(temp + coeffs.cx_rhs * xt, slab.range_m)


def assemble_depth_batch(coeff: complex, n_grid: np.ndarray, k0: float,
                         delta_z: float) -> Diagonals:
    """The depth matrices (I + coeff * X), one per row of ``n_grid``
    (azimuth x depth; a single depth profile gives one matrix).

    Layout: diagonals are (n_depth, n_azimuth), so each elimination row is
    contiguous across the azimuths.

    The surface row (depth index 0) is imposed as the identity equation
    u = 0, so the solved field honors the pressure-release surface exactly
    instead of leaking amplitude into a row that would be zeroed afterwards;
    the right-hand side must be zero there.

    Rounding: numpy evaluates a temporary of 256 KiB or more in place, and
    the in-place product ``coeff * (...)`` can round differently from the
    out-of-place product that one row of the same values gets (seen with
    numpy 2.4 on AVX-512).  A matrix assembled from one depth profile can
    thus differ in its last bits from a column of the same matrix assembled
    over the full grid.  The marcher assembles over its full (broadcast)
    grid and factors column 0: every column holds the same bits, so the
    shared factors equal those of each azimuth's own matrix.
    """
    n_grid = np.asarray(n_grid)
    if n_grid.ndim not in (1, 2):
        raise ShapeError("refraction values must be a depth profile or an "
                         "(azimuth x depth) grid")
    shape = np.atleast_2d(n_grid).shape
    n_dep = shape[1]
    st = depth_stencil(n_grid, k0, delta_z)
    s = st.second_difference_scale
    local = np.broadcast_to(_depth_local_term(st, shape), shape)
    main = np.ascontiguousarray((1.0 + coeff * (local - 2.0 * s)).T)
    off_value = np.complex128(coeff * s)
    sub = np.broadcast_to(off_value, (n_dep - 1, shape[0]))
    sup = np.full((n_dep - 1, shape[0]), off_value)
    main[0] = 1.0
    sup[0] = 0.0
    return Diagonals(sub=sub, main=main, sup=sup, topology=OPEN)


def assemble_azimuth_batch(coeff: complex, k0: float, r: float,
                           delta_theta: float, topology: str,
                           n_azimuth: int) -> Diagonals:
    """The azimuth matrix (I + coeff * Y) at range ``r``, shared by every
    depth index: one matrix of size ``n_azimuth``.

    The matrix has constant coefficients, with cyclic corners when the grid
    is periodic.  On a sector grid the azimuth edge rows are imposed as
    identity equations u = 0 (Dirichlet edges), so the right-hand side must
    be zero there; a periodic grid has no edges.
    """
    if topology not in TOPOLOGIES:
        raise InvariantError(f"azimuth_topology in {TOPOLOGIES}")
    st = azimuth_stencil(k0, r, delta_theta)
    s = st.second_difference_scale
    diag_value = np.complex128(1.0 - 2.0 * coeff * s)
    off_value = np.complex128(coeff * s)
    if topology == PERIODIC:
        main = np.broadcast_to(diag_value, (n_azimuth, 1))
        off = np.broadcast_to(off_value, (n_azimuth, 1))
        return Diagonals(sub=off, main=main, sup=off, topology=CYCLIC)
    main = np.full((n_azimuth, 1), diag_value)
    sub = np.full((n_azimuth - 1, 1), off_value)
    sup = np.full((n_azimuth - 1, 1), off_value)
    main[0] = 1.0
    main[-1] = 1.0
    sup[0] = 0.0
    sub[-1] = 0.0
    return Diagonals(sub=sub, main=main, sup=sup, topology=OPEN)
