import numpy as np
import pytest

from conftest import one_matrix
from pe3d.errors import DomainError, InvariantError, ShapeError, SingularSystemError
from pe3d.selftest import random_system
from pe3d.tridiag import (
    OPEN,
    Diagonals,
    SolveBatch,
    dense_matrix,
    dense_oracle_solve,
    factor,
    solve,
    solve_batch,
)


def residual_inf(diagonals, rhs, x):
    return np.max(np.abs(dense_matrix(diagonals) @ x - rhs))


class TestTriDiagSystem:
    """One system: width-1 ``Diagonals`` and a right-hand side."""

    def test_open_length_rules(self):
        with pytest.raises(ShapeError):
            one_matrix(np.zeros(3), np.ones(3), np.zeros(2))

    def test_rhs_length(self):
        with pytest.raises(ShapeError):
            solve(one_matrix(np.zeros(2), np.ones(3), np.zeros(2)), np.ones(4))


class TestSolveThomas:
    def test_identity_system(self):
        d = one_matrix(np.zeros(2), np.ones(3), np.zeros(2))
        assert np.array_equal(solve(d, [3.0, 4.0, 5.0]), [3.0, 4.0, 5.0])

    def test_hand_solved_case(self):
        d = one_matrix([-1.0, -1.0], np.full(3, 2.0), [-1.0, -1.0])
        rhs = np.array([1.0, 0.0, 1.0])
        x = solve(d, rhs)
        assert np.allclose(x, np.ones(3), rtol=1e-12)
        assert np.allclose(dense_oracle_solve(d, rhs), x, rtol=1e-12)

    def test_random_against_oracle(self):
        rng = np.random.default_rng(101)
        d, rhs = random_system(rng, 64)
        x = solve(d, rhs)
        ref = dense_oracle_solve(d, rhs)
        assert np.max(np.abs(x - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_zero_pivot_detected(self):
        d = one_matrix([1.0, 1.0], np.zeros(3), [1.0, 1.0])
        with pytest.raises(SingularSystemError) as info:
            solve(d, np.ones(3))
        assert info.value.pivot_index == 0

    def test_single_unknown(self):
        d = one_matrix(np.zeros(0), [2.0], np.zeros(0))
        assert solve(d, [5.0])[0] == 2.5


class TestDenseOracle:
    def test_identity(self):
        rhs = np.array([1.0, 2.0, 3.0, 4.0])
        d = one_matrix(np.zeros(3), np.ones(4), np.zeros(3))
        assert np.array_equal(dense_oracle_solve(d, rhs), rhs)

    def test_two_by_two_hand_elimination(self):
        d = one_matrix([0.0], np.ones(2), [1.0])
        assert np.allclose(dense_oracle_solve(d, [2.0, 1.0]), np.ones(2),
                           rtol=1e-14)

    def test_scale_guard(self):
        n = 5000
        d = one_matrix(np.zeros(n - 1), np.ones(n), np.zeros(n - 1))
        with pytest.raises(DomainError, match="4096"):
            dense_oracle_solve(d, np.ones(n))

    def test_singular_matrix(self):
        d = one_matrix(np.zeros(2), np.zeros(3), np.zeros(2))
        with pytest.raises(SingularSystemError):
            dense_oracle_solve(d, np.ones(3))

    def test_pivoting_handles_zero_leading_diagonal(self):
        # Thomas would fail on this one; the oracle must pivot through it
        d = one_matrix([1.0, 1.0], [0.0, 1.0, 2.0], [1.0, 1.0])
        rhs = np.array([1.0, 2.0, 3.0])
        x = dense_oracle_solve(d, rhs)
        assert residual_inf(d, rhs, x) <= 1e-12


def shared_batch(diagonals, n_rhs, rng):
    """``n_rhs`` random right-hand sides against the one matrix of
    ``diagonals``."""
    rhs = rng.standard_normal((diagonals.n, n_rhs)) \
        + 1j * rng.standard_normal((diagonals.n, n_rhs))
    return SolveBatch(factor(diagonals), rhs)


def one_at_a_time(diagonals, rhs):
    """Each column of ``rhs`` solved on its own."""
    return np.stack([solve(diagonals, rhs[:, m]) for m in range(rhs.shape[1])],
                    axis=1)


class TestSolveBatch:
    def test_batch_of_one_equals_scalar(self):
        rng = np.random.default_rng(1)
        d, _ = random_system(rng, 32)
        batch = shared_batch(d, 1, rng)
        assert solve_batch(batch).tobytes() \
            == one_at_a_time(d, batch.rhs).tobytes()

    def test_identical_members_identical_solutions(self):
        rng = np.random.default_rng(2)
        d, rhs = random_system(rng, 24)
        batch = SolveBatch(factor(d), np.repeat(rhs[:, None], 100, axis=1))
        expected = np.repeat(solve(d, rhs)[:, None], 100, axis=1)
        assert solve_batch(batch).tobytes() == expected.tobytes()

    def test_open_batch_matches_scalar(self):
        rng = np.random.default_rng(3)
        d, _ = random_system(rng, 40)
        batch = shared_batch(d, 900, rng)
        assert solve_batch(batch).tobytes() \
            == one_at_a_time(d, batch.rhs).tobytes()

    def test_singular_member_named_no_partial_result(self):
        # a singular shared matrix fails the whole batch at its first
        # singular row, before any substitution: the rhs is untouched
        d = one_matrix(np.ones(7), np.zeros(8), np.ones(7))
        rhs = np.ones((8, 10), dtype=complex)
        batch = SolveBatch(factor(d), rhs)
        with pytest.raises(SingularSystemError) as info:
            solve_batch(batch)
        assert info.value.pivot_index == 0
        assert np.all(rhs == 1.0)

    def test_first_singular_row_reported(self):
        # pivot 1 is exactly zero and the rows after it carry inf/nan: the
        # first singular row is reported
        d = one_matrix(np.ones(5), np.ones(6), np.ones(5))
        batch = SolveBatch(factor(d), np.ones((6, 200)))
        with pytest.raises(SingularSystemError) as info:
            solve_batch(batch)
        assert info.value.pivot_index == 1
        assert info.value.detail == ""

    def test_shared_factors_match_per_member(self):
        # one factorization, reused by several batches, gives every member
        # the bits of a solve against its own copy of the matrix
        rng = np.random.default_rng(11)
        d, _ = random_system(rng, 33)
        shared = factor(d)
        for n_rhs in (50, 7):
            batch = shared_batch(d, n_rhs, rng)
            got = solve_batch(SolveBatch(shared, batch.rhs))
            assert got.tobytes() == one_at_a_time(d, batch.rhs).tobytes()

    def test_singular_shared_matrix_raises_when_used(self):
        # factor never raises: the error is kept and raised by each solve
        main = np.array([1.0, 1.0, 0.0, 2.0, 1.0])[:, None]
        diagonals = Diagonals(np.ones((4, 1)), main, np.zeros((4, 1)))
        shared = factor(diagonals)
        assert shared.singular is not None
        for _ in range(2):
            with pytest.raises(SingularSystemError) as info:
                solve_batch(SolveBatch(shared, np.ones((5, 30))))
            assert info.value.pivot_index == 2

    def test_width_must_fit_rhs(self):
        # a batch shares one matrix: factors of several matrices are
        # rejected, and the right-hand sides must have its rows
        rng = np.random.default_rng(12)
        wide = factor(Diagonals(np.ones((5, 3)), 4.0 * np.ones((6, 3)),
                                np.ones((5, 3))))
        assert wide.width == 3
        with pytest.raises(ShapeError, match="one matrix"):
            SolveBatch(wide, np.ones((6, 4)))
        shared = factor(random_system(rng, 6)[0])
        with pytest.raises(ShapeError):
            SolveBatch(shared, np.ones((5, 4)))
        with pytest.raises(ShapeError):
            SolveBatch(shared, np.ones(6))

    def test_out_given_never_in_place(self):
        # the solutions go into a given array with the bits of a solve into
        # a new array; an array that overlaps the right-hand sides is
        # rejected, since the pre-scale would write into its own operand
        rng = np.random.default_rng(13)
        batch = shared_batch(random_system(rng, 21)[0], 40, rng)
        expected = solve_batch(batch).tobytes()
        out = np.empty_like(batch.rhs)
        assert solve_batch(batch, out=out) is out
        assert out.tobytes() == expected
        with pytest.raises(ShapeError):
            solve_batch(batch, out=np.empty((21, 39), dtype=complex))
        rhs = batch.rhs.copy()
        for overlap in (batch.rhs, batch.rhs[::-1]):
            with pytest.raises(ShapeError, match="share memory"):
                solve_batch(batch, out=overlap)
        assert batch.rhs.tobytes() == rhs.tobytes()

    def test_empty_batch_rejected(self):
        shared = factor(random_system(np.random.default_rng(0), 5)[0])
        with pytest.raises(InvariantError):
            SolveBatch(shared, np.ones((5, 0)))

    def test_mixed_sizes_rejected(self):
        with pytest.raises(ShapeError, match="needs off-diagonals"):
            Diagonals(np.ones((4, 1)), np.ones((6, 1)), np.ones((5, 1)))
        with pytest.raises(ShapeError, match="needs off-diagonals"):
            Diagonals(np.ones((5, 2)), np.ones((6, 3)), np.ones((5, 3)))

    def test_system_round_trip(self):
        rng = np.random.default_rng(8)
        d, _ = random_system(rng, 9)
        batch = shared_batch(d, 4, rng)
        assert batch.topology == OPEN
        assert (batch.n, batch.n_systems) == (9, 4)
        assert solve_batch(batch)[:, 2].tobytes() \
            == solve(d, batch.rhs[:, 2]).tobytes()


def wide_diagonals(matrices):
    """The width-1 ``matrices`` side by side, one per column."""
    def stack(name):
        return np.hstack([getattr(d, name) for d in matrices])
    return Diagonals(stack("sub"), stack("main"), stack("sup"))


class TestWideFactor:
    def test_columns_equal_width_one_factors(self):
        rng = np.random.default_rng(21)
        matrices = [random_system(rng, 40)[0] for _ in range(64)]
        factors = factor(wide_diagonals(matrices))
        assert factors.width == 64 and factors.singular is None
        for j in range(64):
            alone = factor(matrices[j])
            for name in ("cp", "inv"):
                assert getattr(factors, name)[..., j:j + 1].tobytes() \
                    == getattr(alone, name).tobytes(), (j, name)

    def test_open_column_carries_its_error(self):
        regular, _ = random_system(np.random.default_rng(22), 5)
        pivot_2 = one_matrix(np.ones(4), [1.0, 1.0, 0.0, 2.0, 1.0], np.zeros(4))
        pivot_0 = one_matrix(np.ones(4), [0.0, 1.0, 1.0, 1.0, 1.0], np.ones(4))
        factors = factor(wide_diagonals([regular, pivot_2, pivot_0]))
        assert factors.bad_row.tolist() == [-1, 2, 0]
        # the error is the first singular column's, as factored alone
        first, alone = factors.singular, factor(pivot_2).singular
        assert (first.pivot_index, first.detail) \
            == (alone.pivot_index, alone.detail) == (2, "")
        assert factor(regular).singular is None
        assert factor(pivot_0).singular.pivot_index == 0


class TestSolverProperties:
    def test_residual_bound_random_instances(self):
        rng = np.random.default_rng(404)
        for _ in range(150):
            n = int(rng.integers(3, 129))
            d, rhs = random_system(rng, n)
            bound = 1e-10 * max(1.0, np.max(np.abs(rhs)))
            assert residual_inf(d, rhs, solve(d, rhs)) <= bound

    def test_linearity_in_rhs(self):
        rng = np.random.default_rng(505)
        d, _ = random_system(rng, 48)
        r1 = rng.standard_normal(48) + 1j * rng.standard_normal(48)
        r2 = rng.standard_normal(48) + 1j * rng.standard_normal(48)
        a, b = 0.7 - 1.1j, -2.0 + 0.4j
        x1, x2 = solve(d, r1), solve(d, r2)
        x12 = solve(d, a * r1 + b * r2)
        combo = a * x1 + b * x2
        assert np.max(np.abs(x12 - combo)) <= 1e-10 * np.max(np.abs(combo))
