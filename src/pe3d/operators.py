"""Discrete depth/azimuth difference operators and step-system assembly.

The marching update factors into a depth operator X and an azimuth
operator Y applied as

    [1 + (1/4 - d/4) X] [1 - d/4 Y] u_next = [1 + (1/4 + d/4) X] [1 + d/4 Y] u

with d = i * k0 * delta_r.  X carries the medium term:

    (X u)_l = (n_l^2 - 1) u_l + (u_{l+1} - 2 u_l + u_{l-1}) / (k0 dz)^2

and Y is the bare azimuthal second difference scaled by 1 / (k0 r dtheta)^2.
The medium is one depth profile n_l, the same in every azimuth, so X is
one operator and its matrix one tri-diagonal matrix for the whole slab.
Exterior stencil values are zero (pressure-release surface, absorber-backed
bottom, sector edges); the azimuth index wraps on a periodic grid.

:func:`compute_rhs` writes the explicit side into arrays its caller owns,
so a range step allocates nothing for it.  It makes the Y passes on the
slab's azimuth-major layout, (n_azimuth, n_depth), and the X passes on
the depth-major layout of the depth solve, (n_depth, n_azimuth): each
second difference runs along the leading axis of its layout.

Rounding: numpy's vectorised complex product uses fused multiply-adds, so
``a * b`` and ``b * a`` can differ in their last bits, and numpy evaluates
a temporary of 256 KiB or more in place, which swaps the operands of a
product whose right operand is that temporary.  Every product written
with ``out=`` here keeps the operand order of the expression it stands
for and writes into an array distinct from its operands; adds and
subtracts are exact in any order and may run in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .environment import PERIODIC, Grid3D
from .errors import InvariantError, ShapeError
from .tridiag import OPEN, CYCLIC, Diagonals


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


def depth_stencil(n_values, k0: float, delta_z: float):
    """The depth operator's second-difference scale 1 / (k0 dz)^2 and its
    local term (n^2 - 1) over ``n_values`` (a scalar or a depth profile)."""
    nsq_minus_1 = np.asarray(n_values, dtype=np.complex128) ** 2 - 1.0
    return 1.0 / (k0 * delta_z) ** 2, nsq_minus_1


def azimuth_stencil(k0: float, r: float, delta_theta: float) -> float:
    """The azimuth operator's second-difference scale 1 / (k0 r dtheta)^2;
    it has no local term."""
    return 1.0 / (k0 * r * delta_theta) ** 2


def _second_difference(u: np.ndarray, periodic: bool, out: np.ndarray,
                       spare: np.ndarray) -> np.ndarray:
    """Second difference of ``u`` along its first axis into ``out`` (an
    array of the shape of ``u``, not ``u``); returns ``out``.

    The sums run in the order ``u[i+1] - 2 u[i] + u[i-1]`` left to right
    on a closed axis and ``(u[i+1] + u[i-1]) - 2 u[i]`` on a periodic one,
    which needs ``2 u`` apart from ``out``, in ``spare``.  Each pass is
    over whole rows, so a pass over a C-contiguous array is one contiguous
    loop, which numpy runs without buffers.
    """
    if len(u) < 3:
        raise ShapeError(f"need >= 3 points along axis 0, got {len(u)}")
    if periodic:
        np.add(u[2:], u[:-2], out=out[1:-1])
        np.add(u[1:2], u[-1:], out=out[:1])
        np.add(u[:1], u[-2:-1], out=out[-1:])
        out -= np.multiply(2.0, u, out=spare)
        return out
    np.multiply(2.0, u[1:-1], out=out[1:-1])
    np.subtract(u[2:], out[1:-1], out=out[1:-1])
    out[1:-1] += u[:-2]
    for edge, inner in ((slice(None, 1), slice(1, 2)),
                        (slice(-1, None), slice(-2, -1))):
        np.multiply(2.0, u[edge], out=out[edge])
        np.subtract(u[inner], out[edge], out=out[edge])
    return out


def _depth_local_term(local, shape: tuple) -> np.ndarray:
    """The depth stencil's (n^2 - 1) term, a scalar or a depth profile,
    checked against a field of ``shape`` with depth last."""
    local = np.asarray(local)
    if local.shape not in ((), shape[-1:]):
        raise ShapeError(
            f"refraction values of shape {local.shape} are not a depth "
            f"profile of a field of shape {shape}"
        )
    return local


def compute_rhs(u: np.ndarray, range_m: float, coeffs: StepCoefficients,
                depth: tuple, k0: float, grid: Grid3D,
                work: tuple, out: np.ndarray) -> np.ndarray:
    """Explicit side of the step,  [I + cx_rhs X] [I + cy_rhs Y] u,  for
    the (n_azimuth, n_depth) slab ``u`` at range ``range_m``, written into
    ``out`` depth-major, (n_depth, n_azimuth); returns ``out``.

    The Y factor acts first, at the slab's current range, then the X
    factor, which sits outermost in the step factorization.  Each pass
    runs along the leading axis of its layout: the Y passes azimuth-major
    on ``u``, then one transposed copy of their result into ``out``, then
    the X passes depth-major in ``out``.  ``depth`` is the depth stencil,
    the scale and (n^2 - 1) profile of :func:`depth_stencil`, and
    ``work`` two C-contiguous arrays of the slab's shape, overwritten and
    viewed depth-major for the X passes.  The passes are those of the
    expression

        temp = u + cy_rhs * (y_scale * D_m u)
        temp + cx_rhs * ((n^2 - 1) * temp + z_scale * D_l temp)

    (D_m, D_l the second differences over azimuth and depth, y_scale =
    1 / (k0 r dtheta)^2 at ``range_m``, z_scale the depth stencil's) in
    that order and with those operand orders: the bits are the expression's.
    """
    if u.shape != (grid.n_azimuth, grid.n_depth):
        raise ShapeError(f"slab shape {u.shape} != grid "
                         f"({grid.n_azimuth}, {grid.n_depth})")
    if out.shape != u.shape[::-1] or any(
            w.shape != u.shape or not w.flags.c_contiguous for w in work):
        raise ShapeError("work arrays must be C-contiguous arrays of the "
                         "slab's shape, and out its transpose")
    z_scale, local = depth
    local = _depth_local_term(local, u.shape)
    a, b = work
    y_scale = azimuth_stencil(k0, range_m, grid.delta_theta)
    _second_difference(u, grid.azimuth_topology == PERIODIC, a, b)
    np.multiply(y_scale, a, out=b)                         # Y u
    np.multiply(coeffs.cy_rhs, b, out=a)
    a += u                                                 # temp
    np.copyto(out, a.T)                                    # temp, depth-major
    a, b = a.reshape(out.shape), b.reshape(out.shape)
    _second_difference(out, False, a, b)
    np.multiply(z_scale, a, out=b)
    np.multiply(local[..., None], out, out=a)
    a += b                                                 # X temp
    np.multiply(coeffs.cx_rhs, a, out=b)
    out += b
    return out


def assemble_depth_batch(coeff: complex, profile: np.ndarray, k0: float,
                         delta_z: float) -> Diagonals:
    """The depth matrix (I + coeff * X) of one depth ``profile`` of n, as
    width-1 diagonals (n_depth, 1), shared by every azimuth.

    The surface row (depth index 0) is imposed as the identity equation
    u = 0, so the solved field honors the pressure-release surface exactly
    instead of leaking amplitude into a row that would be zeroed afterwards;
    the right-hand side must be zero there.

    The diagonal is written ``(local - 2 s) * coeff``: the operand order
    in which numpy evaluates the whole-grid ``coeff * (local - 2 s)`` of a
    grid of 256 KiB or more (see the module docstring), kept fixed so that
    the matrix has those bits on every grid.
    """
    profile = np.asarray(profile)
    if profile.ndim != 1:
        raise ShapeError("refraction values must be one depth profile")
    s, local = depth_stencil(profile, k0, delta_z)
    main = (1.0 + np.multiply(local - 2.0 * s, coeff))[:, None]
    off_value = np.complex128(coeff * s)
    sub = np.broadcast_to(off_value, (profile.size - 1, 1))
    sup = np.full((profile.size - 1, 1), off_value)
    main[0] = 1.0
    sup[0] = 0.0
    return Diagonals(sub=sub, main=main, sup=sup, topology=OPEN)


def assemble_azimuth_batch(coeff: complex, k0: float, ranges,
                           delta_theta: float, topology: str,
                           n_azimuth: int) -> Diagonals:
    """The azimuth matrices (I + coeff * Y), one per range in ``ranges``
    (a column each); each is shared by every depth index of its step.

    A matrix has constant coefficients, with cyclic corners when the grid
    is periodic.  On a sector grid the azimuth edge rows are imposed as
    identity equations u = 0 (Dirichlet edges), so the right-hand side must
    be zero there; a periodic grid has no edges.

    Each range's coefficients come from Python floats, by the scalar
    arithmetic of :func:`azimuth_stencil`, 1 / (k0 r dtheta)^2: numpy
    squares an array by multiplication, and Python's ``x ** 2`` differs
    from ``x * x`` in the last bit for about one value in a thousand.
    """
    ranges = np.atleast_1d(np.asarray(ranges, dtype=np.float64))
    if ranges.ndim != 1:
        raise ShapeError("ranges must be a vector")
    scales = [azimuth_stencil(k0, r, delta_theta) for r in ranges.tolist()]
    diag = np.array([1.0 - 2.0 * coeff * s for s in scales], dtype=np.complex128)
    off = np.array([coeff * s for s in scales], dtype=np.complex128)
    shape = (n_azimuth, len(scales))
    if topology == PERIODIC:
        off = np.broadcast_to(off, shape)
        return Diagonals(sub=off, main=np.broadcast_to(diag, shape), sup=off,
                         topology=CYCLIC)
    main = np.tile(diag, (n_azimuth, 1))
    sub = np.tile(off, (n_azimuth - 1, 1))
    sup = sub.copy()
    main[0] = 1.0
    main[-1] = 1.0
    sup[0] = 0.0
    sub[-1] = 0.0
    return Diagonals(sub=sub, main=main, sup=sup, topology=OPEN)
