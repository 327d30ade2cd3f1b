"""Complex tri-diagonal direct solvers: scalar, cyclic, and batched.

This is the hot kernel of the range-marching scheme (two tri-diagonal
solves per step).  The batch layout is structure-of-arrays: one row per
elimination index, contiguous across the batch, so every inner-loop
operation is a unit-stride vector op over batch members.

Determinism: every kernel operation is elementwise per batch member and
numpy elementwise complex arithmetic is value-deterministic, so a member's
solution does not depend on which other members share its kernel call.
Batched results are therefore bit-identical to scalar solves, and
invariant under the thread count, which only changes the column
partition.

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
    """One tri-diagonal system A x = rhs.

    Open topology: ``sub``/``sup`` have length n - 1.  Cyclic topology:
    length n, with the wrap-around corners stored as documented above.
    """

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
        if self.topology not in (OPEN, CYCLIC):
            raise InvariantError(f"topology in ({OPEN}, {CYCLIC})")
        n = self.main.shape[0]
        for arr in (self.sub, self.main, self.sup, self.rhs):
            if arr.ndim != 1:
                raise ShapeError("diagonals and rhs must be vectors")
        if self.rhs.shape[0] != n:
            raise ShapeError(f"rhs length {self.rhs.shape[0]} != n {n}")
        if self.topology == OPEN:
            if n < 1:
                raise InvariantError("n >= 1 for open systems")
            want = n - 1
        else:
            if n < 3:
                raise InvariantError("n >= 3 for cyclic systems")
            want = n
        if self.sub.shape[0] != want or self.sup.shape[0] != want:
            raise ShapeError(
                f"{self.topology} system of size {n} needs off-diagonals of "
                f"length {want}, got {self.sub.shape[0]}/{self.sup.shape[0]}"
            )

    @property
    def n(self) -> int:
        return self.main.shape[0]


@dataclass(eq=False)
class SolveBatch:
    """Systems sharing one size and topology, stored per-diagonal.

    Arrays are 2-D with shape (row, member); rows are contiguous across
    the batch.  Diagonal arrays may be read-only broadcast views.
    """

    sub: np.ndarray
    main: np.ndarray
    sup: np.ndarray
    rhs: np.ndarray
    topology: str = OPEN

    def __post_init__(self):
        if self.topology not in (OPEN, CYCLIC):
            raise InvariantError(f"topology in ({OPEN}, {CYCLIC})")
        for arr in (self.sub, self.main, self.sup, self.rhs):
            if arr.ndim != 2:
                raise ShapeError("batch arrays must be 2-D (row x member)")
        n, w = self.main.shape
        if self.rhs.shape != (n, w):
            raise ShapeError(f"rhs shape {self.rhs.shape} != {(n, w)}")
        want = n if self.topology == CYCLIC else n - 1
        if self.sub.shape != (want, w) or self.sup.shape != (want, w):
            raise ShapeError("off-diagonal batch shapes inconsistent with topology")
        if self.topology == CYCLIC and n < 3:
            raise InvariantError("n >= 3 for cyclic systems")

    @property
    def n(self) -> int:
        return self.main.shape[0]

    @property
    def n_systems(self) -> int:
        return self.main.shape[1]

    @classmethod
    def from_systems(cls, systems) -> "SolveBatch":
        systems = list(systems)
        if not systems:
            raise InvariantError("batch nonempty")
        n = systems[0].n
        topology = systems[0].topology
        for s in systems[1:]:
            if s.n != n or s.topology != topology:
                raise InvariantError("all batch members share one n and topology")
        return cls(
            sub=np.stack([s.sub for s in systems], axis=1),
            main=np.stack([s.main for s in systems], axis=1),
            sup=np.stack([s.sup for s in systems], axis=1),
            rhs=np.stack([s.rhs for s in systems], axis=1),
            topology=topology,
        )

    def system(self, i: int) -> TriDiagSystem:
        return TriDiagSystem(
            sub=self.sub[:, i].copy(), main=self.main[:, i].copy(),
            sup=self.sup[:, i].copy(), rhs=self.rhs[:, i].copy(),
            topology=self.topology,
        )


def _factor_open(sub, main, sup):
    """Forward elimination: per-row reciprocal pivots and modified supers.

    Pivots are not checked row by row: a pivot below ``PIVOT_FLOOR`` shows
    up afterwards as a reciprocal above ``1 / PIVOT_FLOOR``
    (:func:`_bad_pivots`).  Until it is reported, a singular member carries
    inf/nan through the remaining rows, so those warnings are silenced.
    """
    n, w = main.shape
    inv = np.empty((n, w), dtype=np.complex128)
    cp = np.empty((max(n - 1, 0), w), dtype=np.complex128)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inv[0] = 1.0 / main[0]
        if n > 1:
            cp[0] = sup[0] * inv[0]
        for k in range(1, n):
            inv[k] = 1.0 / (main[k] - sub[k - 1] * cp[k - 1])
            if k < n - 1:
                cp[k] = sup[k] * inv[k]
    return cp, inv


def _bad_pivots(inv) -> np.ndarray:
    """(row, member) mask of the pivots below ``PIVOT_FLOOR``."""
    return np.abs(inv) > 1.0 / PIVOT_FLOOR


def _raise_lowest_singular(bad, rank1_row=None):
    """Raise for the lowest member with a singular row in ``bad`` (rows x
    members), naming its first one; return when there is none."""
    failed = bad.any(axis=0)
    if not failed.any():
        return
    member = int(np.argmax(failed))
    row = int(np.argmax(bad[:, member]))
    detail = "singular rank-1 correction" if row == rank1_row else ""
    raise SingularSystemError(row, member, detail=detail)


def _substitute_open(cp, inv, sub, rhs, out=None):
    """Forward and back substitution; ``out`` may be ``rhs`` itself."""
    n = rhs.shape[0]
    x = np.empty_like(rhs) if out is None else out
    x[0] = rhs[0] * inv[0]
    for k in range(1, n):
        x[k] = (rhs[k] - sub[k - 1] * x[k - 1]) * inv[k]
    for k in range(n - 2, -1, -1):
        x[k] -= cp[k] * x[k + 1]
    return x


def _solve_open(sub, main, sup, rhs):
    """Solve the open systems held in the columns of the arrays."""
    cp, inv = _factor_open(sub, main, sup)
    _raise_lowest_singular(_bad_pivots(inv))
    return _substitute_open(cp, inv, sub, rhs)


def _solve_cyclic(sub, main, sup, rhs):
    """Sherman-Morrison correction of an open solve; two substitutions on
    one factorization.  Zero corners go through the same path so batched
    and scalar solves stay bit-identical.

    A member fails at its first singular pivot, else at a singular rank-1
    correction (reported as row n), and the lowest failing member is
    reported whichever way it failed.
    """
    n = main.shape[0]
    alpha = sub[0]       # A[0, n-1]
    beta = sup[n - 1]    # A[n-1, 0]
    sub_open = sub[1:]
    sup_open = sup[: n - 1]
    gamma = np.where(np.abs(main[0]) > 0, -main[0], np.complex128(1.0))
    main_mod = np.array(main, dtype=np.complex128)
    main_mod[0] = main[0] - gamma
    main_mod[n - 1] = main[n - 1] - alpha * beta / gamma
    cp, inv = _factor_open(sub_open, main_mod, sup_open)
    del main_mod  # freed before the substitutions allocate
    with np.errstate(invalid="ignore", over="ignore"):
        y = _substitute_open(cp, inv, sub_open, rhs)
        spike = np.zeros_like(rhs)
        spike[0] = gamma
        spike[n - 1] = beta
        q = _substitute_open(cp, inv, sub_open, spike, out=spike)
        weight = alpha / gamma
        denom = 1.0 + q[0] + weight * q[n - 1]
        bad = np.vstack([_bad_pivots(inv), np.abs(denom) < PIVOT_FLOOR])
    _raise_lowest_singular(bad, rank1_row=n)
    factor = (y[0] + weight * y[n - 1]) / denom
    # In place: y - q * factor without two more full-size temporaries.
    q *= factor
    y -= q
    return y


def solve_thomas(system: TriDiagSystem) -> np.ndarray:
    """Solve one open system by Thomas elimination (no pivoting).

    Raises :class:`SingularSystemError` on a pivot below ``PIVOT_FLOOR``.
    """
    if system.topology != OPEN:
        raise DomainError("solve_thomas requires open topology")
    x = _solve_open(
        system.sub[:, None], system.main[:, None],
        system.sup[:, None], system.rhs[:, None],
    )
    return x[:, 0]


def solve_cyclic(system: TriDiagSystem) -> np.ndarray:
    """Solve one cyclic system (rank-1 correction of two open solves)."""
    if system.topology != CYCLIC:
        raise DomainError("solve_cyclic requires cyclic topology")
    x = _solve_cyclic(
        system.sub[:, None], system.main[:, None],
        system.sup[:, None], system.rhs[:, None],
    )
    return x[:, 0]


def solve_batch(batch: SolveBatch, parallel_hint: int = 1) -> np.ndarray:
    """Solve every member; returns solutions as (n_systems, n).

    The members are split into ``parallel_hint`` contiguous blocks and each
    block is solved full-width in one kernel call.  Results land at their
    member index and do not depend on the partition.  Any singular member
    aborts the whole batch and nothing is returned: the error names the
    lowest singular member and its first singular row.
    """
    if parallel_hint < 1:
        raise InvariantError("parallel_hint >= 1")
    w = batch.n_systems
    if w == 0:
        raise InvariantError("batch nonempty")
    solve = _solve_cyclic if batch.topology == CYCLIC else _solve_open
    out = np.empty((w, batch.n), dtype=np.complex128)

    def worker(lo, hi):
        try:
            out[lo:hi] = solve(batch.sub[:, lo:hi], batch.main[:, lo:hi],
                               batch.sup[:, lo:hi], batch.rhs[:, lo:hi]).T
        except SingularSystemError as exc:
            raise SingularSystemError(
                exc.pivot_index, lo + exc.member_index, exc.detail
            ) from None

    failures = fork_join(worker, w, parallel_hint)
    if failures:
        singular = [exc for _, _, exc in failures
                    if isinstance(exc, SingularSystemError)]
        if singular:
            raise min(singular, key=lambda e: e.member_index)
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
            raise SingularSystemError(k, 0, detail="dense oracle")
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
