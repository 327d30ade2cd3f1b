"""Complex tri-diagonal direct solvers: one factorization, many
substitutions.

This is the hot kernel of the range-marching scheme (two tri-diagonal
solves per step).  Every system of one sweep shares one matrix, so
:func:`factor` turns the diagonals of that one matrix into
:class:`Factors`, and :func:`solve_batch` substitutes the right-hand sides
of a :class:`SolveBatch` against them.  The right-hand sides are laid out
structure-of-arrays: one row per elimination index, contiguous across the
batch, so every inner-loop operation is a unit-stride vector op over batch
members, with the factors broadcast across them.  The marcher factors its
depth matrix once per frequency and its azimuth matrix once per range
step.

Determinism: every kernel operation is elementwise per batch member and
numpy elementwise complex arithmetic is value-deterministic, so a member's
solution does not depend on which other members share its kernel call.
Batched results are therefore bit-identical to scalar solves, and
invariant under the thread count, which only changes the column partition.

Cyclic systems are solved by a rank-1 (Sherman-Morrison) correction of an
open solve.  Corner storage convention for cyclic systems of size n:
``sub[0]`` holds A[0, n-1] and ``sup[n-1]`` holds A[n-1, 0]; the remaining
entries are the ordinary sub/super diagonals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvariantError, ShapeError, SingularSystemError
from .pool import fork_join

OPEN = "open"
CYCLIC = "cyclic"

PIVOT_FLOOR = 1e-300
ORACLE_MAX_N = 4096


@dataclass(eq=False)
class TriDiagSystem:
    """One tri-diagonal system A x = rhs, with vector diagonals laid out as
    in :class:`Diagonals`.  The input of the scalar solvers and of the
    dense oracle."""

    sub: np.ndarray
    main: np.ndarray
    sup: np.ndarray
    rhs: np.ndarray
    topology: str = OPEN

    def __post_init__(self):
        self.sub = np.asarray(self.sub, dtype=np.complex128)
        self.main = np.asarray(self.main, dtype=np.complex128)
        self.sup = np.asarray(self.sup, dtype=np.complex128)
        self.rhs = np.asarray(self.rhs, dtype=np.complex128)
        for arr in (self.sub, self.main, self.sup, self.rhs):
            if arr.ndim != 1:
                raise ShapeError("diagonals and rhs must be vectors")
        self.diagonals()
        if self.rhs.shape[0] != self.n:
            raise ShapeError(f"rhs length {self.rhs.shape[0]} != n {self.n}")

    @property
    def n(self) -> int:
        return self.main.shape[0]

    def diagonals(self) -> Diagonals:
        """The matrix as width-1 :class:`Diagonals` (validates it)."""
        return Diagonals(self.sub[:, None], self.main[:, None],
                         self.sup[:, None], self.topology)


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

    @property
    def width(self) -> int:
        return self.main.shape[1]

    def column(self, m: int) -> "Diagonals":
        """Matrix ``m`` on its own, as width-1 diagonals."""
        return Diagonals(self.sub[:, m:m + 1], self.main[:, m:m + 1],
                         self.sup[:, m:m + 1], self.topology)


@dataclass(eq=False)
class Factors:
    """LU factors of one matrix, ready for any number of substitutions.

    Arrays keep the (row, 1) layout of width-1 :class:`Diagonals`, so they
    broadcast across the columns of a batch.  ``cp`` and ``inv`` are the
    modified super-diagonal and the reciprocal pivots of the open
    elimination, ``sub`` the sub-diagonal its forward sweep reads.  A
    cyclic matrix also keeps its Sherman-Morrison spike: ``q`` is the open
    solve against (gamma, 0, ..., 0, beta), and ``weight`` and ``denom``
    complete the rank-1 correction.

    ``singular`` is the error for a singular matrix, or None.  It is raised
    when the factors are used, so a factorization made ahead of time fails
    where its first solve would have.
    """

    topology: str
    sub: np.ndarray
    cp: np.ndarray
    inv: np.ndarray
    singular: SingularSystemError | None
    q: np.ndarray | None = None
    weight: np.ndarray | None = None
    denom: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.inv.shape[0]


@dataclass(eq=False)
class SolveBatch:
    """Right-hand sides to solve against one factored matrix.

    ``rhs`` has shape (n, n_systems), rows contiguous across the batch.
    """

    factors: Factors
    rhs: np.ndarray

    def __post_init__(self):
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
    """Row mask of the pivots below ``PIVOT_FLOOR``."""
    return np.abs(inv[:, 0]) > 1.0 / PIVOT_FLOOR


def _first_singular(bad, rank1_row=None) -> SingularSystemError | None:
    """The error for the first singular row in the mask ``bad``; None when
    there is none."""
    if not bad.any():
        return None
    row = int(np.argmax(bad))
    detail = "singular rank-1 correction" if row == rank1_row else ""
    return SingularSystemError(row, detail=detail)


def _substitute_open(cp, inv, sub, rhs, x):
    """Forward and back substitution into ``x``, which may be ``rhs``.

    The factors have one column, shared by every column of ``rhs``: the
    row operations broadcast, and elementwise complex arithmetic gives the
    same bits whether an operand is broadcast or stored per column.
    Each row costs three ufunc calls forward and two back, on row views
    and one scratch row.  No product writes into one of its own operands:
    numpy's in-place complex product can round differently from the
    out-of-place one.
    """
    x_rows, rhs_rows = list(x), list(rhs)
    t = np.empty_like(x_rows[0])
    multiply, subtract = np.multiply, np.subtract
    x[0] = rhs[0] * inv[0]
    for k in range(1, len(x_rows)):
        multiply(sub[k - 1], x_rows[k - 1], out=t)
        subtract(rhs_rows[k], t, out=t)
        multiply(t, inv[k], out=x_rows[k])
    for k in range(len(x_rows) - 2, -1, -1):
        multiply(cp[k], x_rows[k + 1], out=t)
        subtract(x_rows[k], t, out=x_rows[k])
    return x


def factor(diagonals: Diagonals) -> Factors:
    """Factor the one matrix of width-1 ``diagonals``; never raises for a
    singular matrix (see :attr:`Factors.singular`).

    A cyclic matrix is factored as its open part with a modified diagonal,
    and the spike of the Sherman-Morrison correction is solved here, once,
    for every later substitution.  A matrix fails at its first singular pivot, else at a singular rank-1
    correction (reported as row n).
    """
    if diagonals.width != 1:
        raise ShapeError(f"factor takes one matrix, got {diagonals.width}")
    sub, main, sup = diagonals.sub, diagonals.main, diagonals.sup
    if diagonals.topology == OPEN:
        cp, inv = _factor_open(sub, main, sup)
        return Factors(OPEN, sub, cp, inv, _first_singular(_bad_pivots(inv)))
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
        q = _substitute_open(cp, inv, sub_open, spike, spike)
        weight = alpha / gamma
        denom = 1.0 + q[0] + weight * q[n - 1]
        bad = np.append(_bad_pivots(inv), np.abs(denom) < PIVOT_FLOOR)
    return Factors(CYCLIC, sub_open, cp, inv, _first_singular(bad, rank1_row=n),
                   q, weight, denom)


def _substitute(factors: Factors, rhs: np.ndarray, x: np.ndarray):
    """Solve the columns of ``rhs`` against nonsingular ``factors`` into
    ``x``."""
    _substitute_open(factors.cp, factors.inv, factors.sub, rhs, x)
    if factors.topology == CYCLIC:
        n = factors.n
        correction = (x[0] + factors.weight * x[n - 1]) / factors.denom
        x -= factors.q * correction


def solve_thomas(system: TriDiagSystem) -> np.ndarray:
    """Solve one open system by Thomas elimination (no pivoting).

    Raises :class:`SingularSystemError` on a pivot below ``PIVOT_FLOOR``.
    """
    if system.topology != OPEN:
        raise DomainError("solve_thomas requires open topology")
    return _solve_one(system)


def solve_cyclic(system: TriDiagSystem) -> np.ndarray:
    """Solve one cyclic system (rank-1 correction of two open solves)."""
    if system.topology != CYCLIC:
        raise DomainError("solve_cyclic requires cyclic topology")
    return _solve_one(system)


def _solve_one(system: TriDiagSystem) -> np.ndarray:
    rhs = system.rhs[:, None]
    return solve_batch(SolveBatch(factor(system.diagonals()), rhs))[:, 0]


def solve_batch(batch: SolveBatch, parallel_hint: int = 1) -> np.ndarray:
    """Solve every member; returns the solutions in the layout of the
    right-hand sides, (n, n_systems).

    The members are split into ``parallel_hint`` contiguous blocks and each
    block is substituted full-width in one kernel call, straight into its
    columns of the result, which do not depend on the partition.  A
    singular matrix aborts the whole batch before any substitution: the
    error names its first singular row.
    """
    if parallel_hint < 1:
        raise InvariantError("parallel_hint >= 1")
    factors = batch.factors
    if factors.singular is not None:
        raise factors.singular.with_traceback(None)
    out = np.empty((batch.n, batch.n_systems), dtype=np.complex128)

    def worker(lo, hi):
        _substitute(factors, batch.rhs[:, lo:hi], out[:, lo:hi])

    failures = fork_join(worker, batch.n_systems, parallel_hint)
    if failures:
        raise failures[0][2]
    return out


def dense_matrix(system: TriDiagSystem) -> np.ndarray:
    """Materialize the full n x n matrix (corners included when cyclic)."""
    n = system.n
    a = np.zeros((n, n), dtype=np.complex128)
    idx = np.arange(n)
    a[idx, idx] = system.main
    if system.topology == OPEN:
        if n > 1:
            a[idx[1:], idx[:-1]] = system.sub
            a[idx[:-1], idx[1:]] = system.sup
    else:
        a[idx[1:], idx[:-1]] = system.sub[1:]
        a[idx[:-1], idx[1:]] = system.sup[:-1]
        a[0, n - 1] = system.sub[0]
        a[n - 1, 0] = system.sup[n - 1]
    return a


def dense_oracle_solve(system: TriDiagSystem) -> np.ndarray:
    """Reference solve: full-matrix Gaussian elimination with partial
    pivoting.  Test oracle only; guarded to n <= ORACLE_MAX_N."""
    n = system.n
    if n > ORACLE_MAX_N:
        raise DomainError(f"oracle limited to n <= {ORACLE_MAX_N}, got {n}")
    a = dense_matrix(system)
    b = system.rhs.copy()
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
