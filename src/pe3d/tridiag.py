"""Complex tri-diagonal direct solvers: one factorization, many
substitutions.

This is the hot kernel of the range-marching scheme: one batch of
depth solves per step, one system per azimuth mode (the azimuth
half-step is a multiply per mode, see :mod:`pe3d.marching`).  Every
system of one sweep shares one matrix, so :func:`factor` turns the
diagonals of that matrix into :class:`Factors`, and :func:`solve_batch`
substitutes the right-hand sides of a :class:`SolveBatch` against them.
:func:`factor` also factors several matrices side by side, one per
column.  The right-hand sides are laid out structure-of-arrays: one row
per elimination index, contiguous across the batch, so every inner-loop
operation is a unit-stride vector op over batch members, with the
factors broadcast across them.  Nothing here multiplies by a matrix:
the step takes its depth half-step in sum form, m + (1 - rho)(s - m),
from a solve and its right-hand side.  The cyclic solver serves the
tests' physical-space reference step and the selftest.

Determinism: every kernel operation is elementwise per batch member (and
per factored column), and numpy elementwise complex arithmetic is
value-deterministic, so a member's solution does not depend on which
other members share its kernel call.  Batched results are therefore
bit-identical to solves of one member each (:func:`solve`); a batch is
substituted whole, on the calling thread.

Rounding: numpy's vectorised complex product uses fused multiply-adds, so
``a * b`` and ``b * a`` can differ in their last bits.  Every product
here keeps a fixed operand order and writes into an array distinct from
its operands, the first row of a substitution included: on a length-1
array, ``np.multiply(x, s, x)`` can round differently from ``x * s``,
whether ``s`` is 0-d, of shape (1,) or full.

Cyclic systems are solved by a rank-1 (Sherman-Morrison) correction of an
open solve.  Corner storage convention for cyclic systems of size n:
``sub[0]`` holds A[0, n-1] and ``sup[n-1]`` holds A[n-1, 0]; the remaining
entries are the ordinary sub/super diagonals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, InvariantError, ShapeError, SingularSystemError
from .pool import fork_join  # unused: bench/tracing.py patches it by name

OPEN = "open"
CYCLIC = "cyclic"

PIVOT_FLOOR = 1e-300
ORACLE_MAX_N = 4096


@dataclass(eq=False)
class Diagonals:
    """Tri-diagonal matrices of one size and topology, one per column.

    Arrays are 2-D with shape (row, matrix), so each elimination row is
    contiguous across the matrices.  Arrays may be read-only broadcast
    views.  Open topology: ``sub``/``sup`` have n - 1 rows.  Cyclic
    topology: n rows, with the wrap-around corners stored as documented
    above.
    """

    sub: np.ndarray
    main: np.ndarray
    sup: np.ndarray
    topology: str = OPEN

    def __post_init__(self):
        if self.topology not in (OPEN, CYCLIC):
            raise InvariantError(f"topology in ({OPEN}, {CYCLIC})")
        for arr in (self.sub, self.main, self.sup):
            if arr.ndim != 2:
                raise ShapeError("diagonal arrays must be 2-D (row x matrix)")
        n, k = self.main.shape
        if self.topology == OPEN:
            if n < 1:
                raise InvariantError("n >= 1 for open systems")
            want = n - 1
        else:
            if n < 3:
                raise InvariantError("n >= 3 for cyclic systems")
            want = n
        if self.sub.shape != (want, k) or self.sup.shape != (want, k):
            raise ShapeError(
                f"{self.topology} system of size {n} needs off-diagonals of "
                f"length {want}, got {self.sub.shape[0]}/{self.sup.shape[0]}"
            )

    @property
    def n(self) -> int:
        return self.main.shape[0]


@dataclass(eq=False)
class Factors:
    """LU factors of tri-diagonal matrices of one size and topology, one
    per column, ready for any number of substitutions.

    Arrays keep the (row, matrix) layout of :class:`Diagonals`; width-1
    factors broadcast across the columns of a batch.  ``cp`` and
    ``inv`` are the modified super-diagonal and the reciprocal pivots of
    the open elimination, ``sub`` the sub-diagonal its forward sweep
    reads.  A cyclic matrix also keeps its Sherman-Morrison spike: ``q``
    is the open solve against (gamma, 0, ..., 0, beta), and ``weight`` and
    ``denom`` (one value per matrix) complete the rank-1 correction.

    ``bad_row`` holds, per matrix, its first singular row: -1 for a
    regular matrix, n for a cyclic one whose rank-1 correction is
    singular.  Its error is raised when the factors are used, so a
    factorization made ahead of time fails where its first solve would
    have.

    ``rows`` holds the rows of ``cp``, ``inv``, ``sub`` and ``q`` (None
    when open) as the operands of the substitution (:func:`_rows`),
    prepared once, when the factors are first substituted against.
    """

    topology: str
    sub: np.ndarray
    cp: np.ndarray
    inv: np.ndarray
    bad_row: np.ndarray
    q: np.ndarray | None = None
    weight: np.ndarray | None = None
    denom: np.ndarray | None = None

    @cached_property
    def rows(self) -> tuple:
        return (_rows(self.cp), _rows(self.inv), _rows(self.sub),
                None if self.q is None else _rows(self.q))

    @property
    def n(self) -> int:
        return self.inv.shape[0]

    @property
    def width(self) -> int:
        return self.inv.shape[1]

    @property
    def singular(self) -> SingularSystemError | None:
        """The error of the first singular matrix, or None."""
        bad = self.bad_row[self.bad_row >= 0]
        if bad.size == 0:
            return None
        row = int(bad[0])
        return SingularSystemError(
            row, detail="singular rank-1 correction" if row == self.n else "")


@dataclass(eq=False)
class SolveBatch:
    """Right-hand sides to solve against one factored matrix.

    ``rhs`` has shape (n, n_systems), rows contiguous across the batch.
    The factors have width 1: every member shares the one matrix.
    """

    factors: Factors
    rhs: np.ndarray

    def __post_init__(self):
        if self.factors.width != 1:
            raise ShapeError(
                f"a batch shares one matrix, got factors of width "
                f"{self.factors.width}")
        if self.rhs.ndim != 2:
            raise ShapeError("batch rhs must be 2-D (row x member)")
        n, w = self.rhs.shape
        if n != self.factors.n:
            raise ShapeError(f"rhs has {n} rows, the matrix {self.factors.n}")
        if w == 0:
            raise InvariantError("batch nonempty")

    @property
    def n(self) -> int:
        return self.factors.n

    @property
    def n_systems(self) -> int:
        return self.rhs.shape[1]

    @property
    def topology(self) -> str:
        return self.factors.topology


def _factor_open(sub, main, sup):
    """Forward elimination: per-row reciprocal pivots and modified supers.

    Pivots are not checked row by row: a pivot below ``PIVOT_FLOOR`` shows
    up afterwards as a reciprocal above ``1 / PIVOT_FLOOR``
    (:func:`_bad_pivots`).  A singular matrix carries inf/nan through the
    remaining rows, so those warnings are silenced.
    """
    n, w = main.shape
    inv = np.empty((n, w), dtype=np.complex128)
    cp = np.empty((max(n - 1, 0), w), dtype=np.complex128)
    t = np.empty(w, dtype=np.complex128)
    multiply, subtract, divide = np.multiply, np.subtract, np.divide
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        divide(1.0, main[0], out=inv[0])
        if n > 1:
            multiply(sup[0], inv[0], out=cp[0])
        for k in range(1, n):
            multiply(sub[k - 1], cp[k - 1], out=t)
            subtract(main[k], t, out=t)
            divide(1.0, t, out=inv[k])
            if k < n - 1:
                multiply(sup[k], inv[k], out=cp[k])
    return cp, inv


def _bad_pivots(inv) -> np.ndarray:
    """(row, matrix) mask of the pivots below ``PIVOT_FLOOR``."""
    return np.abs(inv) > 1.0 / PIVOT_FLOOR


def _first_bad_row(bad) -> np.ndarray:
    """Per column of the (row, matrix) mask ``bad``, its first set row, or
    -1 when there is none."""
    return np.where(bad.any(axis=0), np.argmax(bad, axis=0), -1)


def _rows(arr) -> list:
    """The rows of the (row, matrix) array ``arr`` as substitution
    operands: 0-d views at width 1, else row views.

    A substitution sweep of a few hundred members is bound by the cost of
    its ufunc calls, not by their arithmetic, and a call with a 0-d
    operand costs about half of one with a (1,) row (0.6 against
    1.1-1.3 us for a 360-wide product, numpy 2.4 on a 2-core Xeon VM);
    the bits are the same.
    """
    if arr.shape[1] == 1:
        return [arr[k, 0, ...] for k in range(arr.shape[0])]
    return list(arr)


def _substitute_open(cp, inv, sub, rhs, x):
    """Forward and back substitution into ``x``, which may be ``rhs``.

    ``cp``, ``inv`` and ``sub`` are the factor rows of :func:`_rows`: one
    matrix shared by every column of ``rhs`` (the row operations
    broadcast, and elementwise complex arithmetic gives the same bits
    whether an operand is broadcast or stored per column), or one matrix
    per column of ``rhs``.  Each row costs three ufunc calls forward and
    two back, on prepared operands, row views and one scratch row; the
    first row is computed into the scratch row and copied, so that no
    product writes into its own operand.
    """
    x_rows, rhs_rows = list(x), list(rhs)
    t = np.empty_like(x_rows[0])
    multiply, subtract = np.multiply, np.subtract
    multiply(rhs_rows[0], inv[0], t)
    x_rows[0][...] = t
    for s, x_prev, r, d, x_k in zip(sub, x_rows, rhs_rows[1:], inv[1:],
                                    x_rows[1:]):
        multiply(s, x_prev, t)
        subtract(r, t, t)
        multiply(t, d, x_k)
    for c, x_next, x_k in zip(cp[::-1], x_rows[:0:-1], x_rows[-2::-1]):
        multiply(c, x_next, t)
        subtract(x_k, t, x_k)
    return x


def factor(diagonals: Diagonals) -> Factors:
    """Factor every matrix (column) of ``diagonals``; never raises for a
    singular matrix (see :attr:`Factors.bad_row`).

    A cyclic matrix is factored as its open part with a modified diagonal,
    and the spike of the Sherman-Morrison correction is solved here, once,
    for every later substitution.  A matrix fails at its first singular
    pivot, else at a singular rank-1 correction (reported as row n).
    Every operation is elementwise per column, so a column's factors have
    the bits of that column factored on its own.
    """
    sub, main, sup = diagonals.sub, diagonals.main, diagonals.sup
    if diagonals.topology == OPEN:
        cp, inv = _factor_open(sub, main, sup)
        return Factors(OPEN, sub, cp, inv, _first_bad_row(_bad_pivots(inv)))
    n = diagonals.n
    alpha = sub[0]       # A[0, n-1]
    beta = sup[n - 1]    # A[n-1, 0]
    sub_open = sub[1:]
    gamma = np.where(np.abs(main[0]) > 0, -main[0], np.complex128(1.0))
    main_mod = np.array(main, dtype=np.complex128)
    main_mod[0] = main[0] - gamma
    main_mod[n - 1] = main[n - 1] - alpha * beta / gamma
    cp, inv = _factor_open(sub_open, main_mod, sup[: n - 1])
    del main_mod
    with np.errstate(invalid="ignore", over="ignore"):
        spike = np.zeros_like(inv)
        spike[0] = gamma
        spike[n - 1] = beta
        q = _substitute_open(_rows(cp), _rows(inv), _rows(sub_open),
                             spike, spike)
        weight = alpha / gamma
        denom = 1.0 + q[0] + weight * q[n - 1]
        bad = np.vstack([_bad_pivots(inv), np.abs(denom) < PIVOT_FLOOR])
    return Factors(CYCLIC, sub_open, cp, inv, _first_bad_row(bad),
                   q, weight, denom)


def _substitute(factors: Factors, rhs: np.ndarray, x: np.ndarray):
    """Solve the columns of ``rhs`` against nonsingular width-1
    ``factors`` into ``x``, which may be ``rhs``.

    The rank-1 correction of a cyclic matrix runs row by row through one
    scratch row: a whole-array outer product with the spike would make
    numpy allocate iteration buffers for the broadcast.
    """
    cp, inv, sub, q = factors.rows
    _substitute_open(cp, inv, sub, rhs, x)
    if q is not None:
        n = factors.n
        correction = (x[0] + factors.weight * x[n - 1]) / factors.denom
        t = np.empty_like(correction)
        multiply, subtract = np.multiply, np.subtract
        for q_row, x_row in zip(q, x):
            multiply(q_row, correction, t)
            subtract(x_row, t, x_row)


def solve(diagonals: Diagonals, rhs) -> np.ndarray:
    """Solve one system, width-1 ``diagonals`` against the vector ``rhs``,
    as a batch of one."""
    rhs = np.asarray(rhs, dtype=np.complex128)
    return solve_batch(SolveBatch(factor(diagonals), rhs[:, None]))[:, 0]


def solve_batch(batch: SolveBatch, out: np.ndarray | None = None) -> np.ndarray:
    """Solve every member; returns the solutions in the layout of the
    right-hand sides, (n, n_systems): in ``out`` when given, which may be
    ``batch.rhs`` itself, else in a new array.

    The whole batch is substituted full-width in one kernel call, on the
    calling thread.  A singular matrix aborts the batch before any
    substitution: the error names its first singular row.
    """
    factors = batch.factors
    error = factors.singular
    if error is not None:
        raise error
    rhs = batch.rhs
    if out is None:
        out = np.empty(rhs.shape, dtype=np.complex128)
    elif out.shape != rhs.shape or out.dtype != np.complex128:
        raise ShapeError(f"out must be complex of shape {rhs.shape}")
    _substitute(factors, rhs, out)
    return out


def dense_matrix(diagonals: Diagonals) -> np.ndarray:
    """Materialize the full n x n matrix of width-1 ``diagonals`` (corners
    included when cyclic)."""
    if diagonals.main.shape[1] != 1:
        raise ShapeError("dense_matrix takes one matrix (width-1 diagonals)")
    sub, main, sup = (d[:, 0] for d in (diagonals.sub, diagonals.main,
                                        diagonals.sup))
    n = diagonals.n
    a = np.zeros((n, n), dtype=np.complex128)
    idx = np.arange(n)
    a[idx, idx] = main
    if diagonals.topology == OPEN:
        if n > 1:
            a[idx[1:], idx[:-1]] = sub
            a[idx[:-1], idx[1:]] = sup
    else:
        a[idx[1:], idx[:-1]] = sub[1:]
        a[idx[:-1], idx[1:]] = sup[:-1]
        a[0, n - 1] = sub[0]
        a[n - 1, 0] = sup[n - 1]
    return a


def dense_oracle_solve(diagonals: Diagonals, rhs) -> np.ndarray:
    """Reference solve of width-1 ``diagonals`` against the vector ``rhs``:
    full-matrix Gaussian elimination with partial pivoting.  Test oracle
    only; guarded to n <= ORACLE_MAX_N."""
    n = diagonals.n
    if n > ORACLE_MAX_N:
        raise DomainError(f"oracle limited to n <= {ORACLE_MAX_N}, got {n}")
    a = dense_matrix(diagonals)
    b = np.array(rhs, dtype=np.complex128)
    if b.shape != (n,):
        raise ShapeError(f"rhs of shape {b.shape}, the matrix has {n} rows")
    for k in range(n):
        col = np.abs(a[k:, k])
        p = k + int(np.argmax(col))
        if abs(a[p, k]) < PIVOT_FLOOR:
            raise SingularSystemError(k, detail="dense oracle")
        if p != k:
            a[[k, p]] = a[[p, k]]
            b[[k, p]] = b[[p, k]]
        if k + 1 < n:
            mult = a[k + 1:, k] / a[k, k]
            a[k + 1:, k + 1:] -= np.outer(mult, a[k, k + 1:])
            a[k + 1:, k] = 0.0
            b[k + 1:] -= mult * b[k]
    x = np.empty(n, dtype=np.complex128)
    for k in range(n - 1, -1, -1):
        x[k] = (b[k] - a[k, k + 1:] @ x[k + 1:]) / a[k, k]
    return x
