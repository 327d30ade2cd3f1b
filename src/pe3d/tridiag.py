"""Complex tri-diagonal direct solver for open matrices: one
factorization, many substitutions.

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
factors broadcast across them.

The forward sweep is pre-scaled: x = rhs inv, one whole-array product
by the reciprocal pivots, then x_k -= mu_k x_(k-1) with
mu_k = sub_(k-1) inv_k, which :class:`Factors` keeps in place of the
sub-diagonal; the back sweep is x_k -= cp_k x_(k+1).  Both sweeps take
two ufunc calls per row.  The pre-scale is the only place ``inv`` enters
a substitution, so factors whose ``inv`` is scaled by c, with ``mu``
kept, solve c A^-1 rhs: the marcher folds its depth weight into its
factors that way (:class:`pe3d.marching.Marcher`).  Nothing here
multiplies by a matrix.

Determinism: every kernel operation is elementwise per batch member (and
per factored column), and numpy elementwise complex arithmetic is
value-deterministic, so a member's solution does not depend on which
other members share its kernel call.  Batched results are therefore
bit-identical to solves of one member each (:func:`solve`); a batch is
substituted whole, on the calling thread.

Rounding: numpy's vectorised complex product uses fused multiply-adds, so
``a * b`` and ``b * a`` can differ in their last bits.  Every product
here keeps a fixed operand order and writes into an array distinct from
its operands: on a length-1 array, ``np.multiply(x, s, x)`` can round
differently from ``x * s``, whether ``s`` is 0-d, of shape (1,) or full.

:class:`Diagonals` also describes cyclic matrices, which :func:`factor`
rejects: the periodic azimuth operator of
:func:`pe3d.operators.assemble_azimuth_batch`, for :func:`dense_matrix`
and :func:`dense_oracle_solve`.  Corner storage convention for cyclic
systems of size n: ``sub[0]`` holds A[0, n-1] and ``sup[n-1]`` holds
A[n-1, 0]; the remaining entries are the ordinary sub/super diagonals.
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
    """LU factors of open tri-diagonal matrices of one size, one per
    column, ready for any number of substitutions.

    Arrays keep the (row, matrix) layout of :class:`Diagonals`; width-1
    factors broadcast across the columns of a batch.  ``cp`` and
    ``inv`` are the modified super-diagonal and the reciprocal pivots of
    the elimination, ``mu`` (n - 1 rows, mu_k = sub_(k-1) inv_k) the
    multipliers of its pre-scaled forward sweep.

    ``bad_row`` holds, per matrix, its first singular row, or -1 for a
    regular matrix.  Its error is raised when the factors are used, so a
    factorization made ahead of time fails where its first solve would
    have.

    ``rows`` holds the rows of ``cp`` and ``mu`` as the operands of the
    substitution (:func:`_rows`), prepared once, when the factors are
    first substituted against.
    """

    mu: np.ndarray
    cp: np.ndarray
    inv: np.ndarray
    bad_row: np.ndarray

    @cached_property
    def rows(self) -> tuple:
        return _rows(self.cp), _rows(self.mu)

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
        return SingularSystemError(int(bad[0])) if bad.size else None


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
        return OPEN  # bench/tracing.py records it for each batch


def factor(diagonals: Diagonals) -> Factors:
    """Factor every open matrix (column) of ``diagonals`` by forward
    elimination: the modified supers, the per-row reciprocal pivots and
    the multipliers of the pre-scaled forward sweep.  Cyclic diagonals
    raise :class:`ShapeError`.

    Never raises for a singular matrix (see :attr:`Factors.bad_row`).
    Pivots are not checked row by row: a pivot below ``PIVOT_FLOOR``
    shows up afterwards as a reciprocal above ``1 / PIVOT_FLOOR``, and a
    matrix fails at its first such row.  A singular matrix carries
    inf/nan through the remaining rows, so those warnings are silenced.
    Every operation is elementwise per column, so a column's factors have
    the bits of that column factored on its own.
    """
    if diagonals.topology == CYCLIC:
        raise ShapeError("factor takes open matrices, got cyclic ones")
    sub, main, sup = diagonals.sub, diagonals.main, diagonals.sup
    n, w = main.shape
    inv = np.empty((n, w), dtype=np.complex128)
    cp = np.empty((n - 1, w), dtype=np.complex128)
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
        mu = sub * inv[1:]
    bad = np.abs(inv) > 1.0 / PIVOT_FLOOR
    return Factors(mu, cp, inv,
                   np.where(bad.any(axis=0), np.argmax(bad, axis=0), -1))


def _rows(arr) -> list:
    """The rows of the (row, 1) array ``arr`` as 0-d views, the operands
    of a substitution.

    A substitution sweep of a few hundred members is bound by the cost of
    its ufunc calls, not by their arithmetic, and a call with a 0-d
    operand costs about half of one with a (1,) row (0.6 against
    1.1-1.3 us for a 360-wide product, numpy 2.4 on a 2-core Xeon VM);
    the bits are the same.
    """
    return [arr[k, 0, ...] for k in range(arr.shape[0])]


def _substitute_open(cp, mu, inv, rhs, x):
    """Forward and back substitution of ``rhs`` into ``x``, an array
    distinct from ``rhs``.

    ``cp`` and ``mu`` are the factor rows of :func:`_rows` and ``inv``
    the whole (row, 1) array of one matrix, shared by every column of
    ``rhs``: the operations broadcast, and elementwise complex arithmetic
    gives the same bits whether an operand is broadcast or stored per
    column.  The pre-scale x = rhs inv is one whole-array product into
    ``x``.  Then each row costs two ufunc calls forward and two back, on
    prepared operands, row views and one scratch row.
    """
    np.multiply(rhs, inv, out=x)
    x_rows = list(x)
    t = np.empty_like(x_rows[0])
    multiply, subtract = np.multiply, np.subtract
    for m, x_prev, x_k in zip(mu, x_rows, x_rows[1:]):
        multiply(m, x_prev, t)
        subtract(x_k, t, x_k)
    for c, x_next, x_k in zip(cp[::-1], x_rows[:0:-1], x_rows[-2::-1]):
        multiply(c, x_next, t)
        subtract(x_k, t, x_k)
    return x


def solve(diagonals: Diagonals, rhs) -> np.ndarray:
    """Solve one system, width-1 ``diagonals`` against the vector ``rhs``,
    as a batch of one."""
    rhs = np.asarray(rhs, dtype=np.complex128)
    return solve_batch(SolveBatch(factor(diagonals), rhs[:, None]))[:, 0]


def solve_batch(batch: SolveBatch, out: np.ndarray | None = None) -> np.ndarray:
    """Solve every member; returns the solutions in the layout of the
    right-hand sides, (n, n_systems): in ``out`` when given, which must
    not share memory with ``batch.rhs``, else in a new array.

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
    elif np.may_share_memory(out, rhs):
        raise ShapeError("out must not share memory with the rhs")
    return _substitute_open(*factors.rows, factors.inv, rhs, out)


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
