"""Discrete depth/azimuth difference operators and step-system assembly.

The marching update factors into a depth operator X and an azimuth
operator Y applied as

    [1 + (1/4 - d/4) X] [1 - d/4 Y] u_next = [1 + (1/4 + d/4) X] [1 + d/4 Y] u

with d = i * k0 * delta_r.  X carries the medium term:

    (X u)_l = (n_l^2 - 1) u_l + (u_{l+1} - 2 u_l + u_{l-1}) / (k0 dz)^2

and Y is the bare azimuthal second difference scaled by 1 / (k0 r dtheta)^2,
one matrix on both sides of a step: the marcher takes r at the step's
midpoint.  The medium is one depth profile n_l, the same in every
azimuth, so X is one operator and its matrix one tri-diagonal matrix for
the whole slab.
Exterior stencil values are zero (pressure-release surface, absorber-backed
bottom, sector edges); the azimuth index wraps on a periodic grid.

:func:`assemble_depth_batch` builds the implicit depth matrix
(I + cx_lhs X) alone.  Each explicit matrix is a combination of its
implicit one and I (:class:`StepCoefficients`), so the step takes both
half-steps in sum form and no explicit matrix is assembled or
multiplied.  Y has constant coefficients in azimuth, so the march takes
its half-step per azimuth mode, from :func:`azimuth_stencil` alone
(:mod:`pe3d.marching`).  :func:`assemble_azimuth_batch` builds the
implicit azimuth matrix (I + cy_lhs Y) as one dense array, which the
tests' physical-space reference step solves.  :func:`compute_rhs`
copies a slab depth-major for the forward azimuth transform.

Rounding: numpy's vectorised complex product uses fused multiply-adds, so
``a * b`` and ``b * a`` can differ in their last bits, and numpy evaluates
a temporary of 256 KiB or more in place, which swaps the operands of a
product whose right operand is that temporary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .environment import PERIODIC
from .errors import InvariantError, ShapeError
from .tridiag import Diagonals


@dataclass(frozen=True)
class StepCoefficients:
    """The four bracket coefficients of one range step, plus d itself.

    For real k0 and delta_r, d is purely imaginary, which makes the exact
    identities cx_lhs + cx_rhs == 1/2 and cy_lhs + cy_rhs == 0 hold
    bitwise (real and imaginary parts add independently).  The second
    makes (I + cy_rhs Y) = 2I - (I + cy_lhs Y).  With rho = cx_rhs /
    cx_lhs (cx_lhs has real part 1/4 from :meth:`for_step`, and is checked
    to be nonzero), (I + cx_rhs X) = rho (I + cx_lhs X) + (1 - rho) I.
    So each half-step needs its implicit matrix only.  cy_lhs is checked
    to be purely imaginary, so (I + cy_lhs Y) is regular for the real
    symmetric Y: the azimuth half-step cannot fail.  The step also divides
    by rho (:class:`pe3d.marching.Marcher`), so cx_rhs is checked to be
    nonzero; :meth:`for_step` gives |rho| = 1.
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
        if self.cx_lhs == 0:
            raise InvariantError("cx_lhs != 0")
        if self.cx_rhs == 0:
            raise InvariantError("cx_rhs != 0")
        if self.cy_lhs.real != 0:
            raise InvariantError("cy_lhs is purely imaginary")

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


def azimuth_stencil(k0: float, r, delta_theta: float):
    """The azimuth operator's second-difference scale 1 / (k0 r dtheta)^2
    at ``r`` (a range or a vector of ranges); it has no local term."""
    return 1.0 / (k0 * r * delta_theta) ** 2


def compute_rhs(u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The (n_azimuth, n_depth) slab ``u`` copied depth-major into
    ``out``, of shape (n_depth, n_azimuth); returns ``out``.

    This is the copy that feeds the forward azimuth transform
    (:meth:`pe3d.marching.Marcher.to_modes`).  It stays a function because
    the benchmark's tracer (``bench/tracing.py``) wraps
    ``marching.compute_rhs`` by name, until the run times its own phases.
    """
    if u.ndim != 2 or out.shape != u.shape[::-1]:
        raise ShapeError(f"slab of shape {u.shape} into an array of shape "
                         f"{out.shape}, not its transpose")
    np.copyto(out, u.T)
    return out


def assemble_depth_batch(coeff: complex, profile: np.ndarray, k0: float,
                         delta_z: float) -> Diagonals:
    """The depth matrix (I + coeff * X) of one depth ``profile`` of n, as
    width-1 diagonals (n_depth, 1), shared by every azimuth.

    The surface row (depth index 0) is imposed as the identity equation
    u = 0, so the solved field honors the pressure-release surface
    exactly; the right-hand side must be zero there.

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
    return Diagonals(sub=sub, main=main, sup=sup)


def assemble_azimuth_batch(coeff: complex, k0: float, r: float,
                           delta_theta: float, topology: str,
                           n_azimuth: int) -> np.ndarray:
    """The azimuth matrix (I + coeff * Y) at range ``r``, as a dense
    (n_azimuth, n_azimuth) complex array, shared by every depth index.

    The march takes its azimuth half-step per mode and never builds this
    matrix; the tests' physical-space reference step solves with it.  It
    keeps its name because the benchmark's tracer (``bench/tracing.py``)
    wraps ``marching.assemble_azimuth_batch``, until the run times its
    own phases.

    The corners wrap when the grid is periodic.  On a sector grid the
    azimuth edge rows are imposed as identity equations u = 0 (Dirichlet
    edges), so the right-hand side must be zero there.
    """
    off = coeff * azimuth_stencil(k0, r, delta_theta)
    m = np.arange(n_azimuth)
    a = np.zeros((n_azimuth, n_azimuth), dtype=np.complex128)
    a[m, m] = 1.0 - 2.0 * off
    a[m, m - 1] = off  # m - 1 wraps to n_azimuth - 1: the corners
    a[m - 1, m] = off
    if topology != PERIODIC:
        a[[0, -1]] = np.eye(n_azimuth)[[0, -1]]
    return a
