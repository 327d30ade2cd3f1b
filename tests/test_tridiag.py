import dataclasses

import numpy as np
import pytest

from pe3d.errors import DomainError, InvariantError, ShapeError, SingularSystemError
from pe3d.selftest import random_system
from pe3d.tridiag import (
    CYCLIC,
    OPEN,
    Diagonals,
    SolveBatch,
    TriDiagSystem,
    dense_matrix,
    dense_oracle_solve,
    factor,
    solve_batch,
    solve_cyclic,
    solve_thomas,
)


def residual_inf(system, x):
    return np.max(np.abs(dense_matrix(system) @ x - system.rhs))


class TestTriDiagSystem:
    def test_open_length_rules(self):
        with pytest.raises(ShapeError):
            TriDiagSystem(sub=np.zeros(3), main=np.ones(3), sup=np.zeros(2),
                          rhs=np.ones(3), topology=OPEN)

    def test_cyclic_length_rules(self):
        with pytest.raises(ShapeError):
            TriDiagSystem(sub=np.zeros(2), main=np.ones(3), sup=np.zeros(2),
                          rhs=np.ones(3), topology=CYCLIC)

    def test_cyclic_minimum_size(self):
        with pytest.raises(InvariantError, match="n >= 3"):
            TriDiagSystem(sub=np.zeros(2), main=np.ones(2), sup=np.zeros(2),
                          rhs=np.ones(2), topology=CYCLIC)

    def test_rhs_length(self):
        with pytest.raises(ShapeError):
            TriDiagSystem(sub=np.zeros(2), main=np.ones(3), sup=np.zeros(2),
                          rhs=np.ones(4), topology=OPEN)


class TestSolveThomas:
    def test_identity_system(self):
        sys = TriDiagSystem(sub=np.zeros(2), main=np.ones(3), sup=np.zeros(2),
                            rhs=np.array([3.0, 4.0, 5.0]), topology=OPEN)
        assert np.array_equal(solve_thomas(sys), np.array([3.0, 4.0, 5.0]))

    def test_hand_solved_case(self):
        sys = TriDiagSystem(sub=np.array([-1.0, -1.0]), main=np.full(3, 2.0),
                            sup=np.array([-1.0, -1.0]),
                            rhs=np.array([1.0, 0.0, 1.0]), topology=OPEN)
        x = solve_thomas(sys)
        assert np.allclose(x, np.ones(3), rtol=1e-12)
        assert np.allclose(dense_oracle_solve(sys), x, rtol=1e-12)

    def test_random_against_oracle(self):
        rng = np.random.default_rng(101)
        sys = random_system(rng, 64, OPEN)
        x = solve_thomas(sys)
        ref = dense_oracle_solve(sys)
        assert np.max(np.abs(x - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_requires_open_topology(self):
        sys = random_system(np.random.default_rng(0), 5, CYCLIC)
        with pytest.raises(DomainError):
            solve_thomas(sys)

    def test_zero_pivot_detected(self):
        sys = TriDiagSystem(sub=np.array([1.0, 1.0]), main=np.zeros(3),
                            sup=np.array([1.0, 1.0]), rhs=np.ones(3),
                            topology=OPEN)
        with pytest.raises(SingularSystemError) as info:
            solve_thomas(sys)
        assert info.value.pivot_index == 0

    def test_single_unknown(self):
        sys = TriDiagSystem(sub=np.zeros(0), main=np.array([2.0]),
                            sup=np.zeros(0), rhs=np.array([5.0]), topology=OPEN)
        assert solve_thomas(sys)[0] == 2.5


class TestSolveCyclic:
    def test_row_sum_case(self):
        sys = TriDiagSystem(sub=np.full(3, -1.0), main=np.full(3, 3.0),
                            sup=np.full(3, -1.0), rhs=np.ones(3),
                            topology=CYCLIC)
        x = solve_cyclic(sys)
        assert np.allclose(x, np.ones(3), rtol=1e-12)
        assert np.allclose(dense_oracle_solve(sys), x, rtol=1e-12)

    def test_zero_corners_degenerate_to_open(self):
        rng = np.random.default_rng(7)
        open_sys = random_system(rng, 16, OPEN)
        sub = np.concatenate([[0.0], open_sys.sub])
        sup = np.concatenate([open_sys.sup, [0.0]])
        cyc = TriDiagSystem(sub=sub, main=open_sys.main.copy(), sup=sup,
                            rhs=open_sys.rhs.copy(), topology=CYCLIC)
        assert np.allclose(solve_cyclic(cyc), solve_thomas(open_sys), rtol=1e-12)

    def test_random_against_oracle(self):
        rng = np.random.default_rng(202)
        sys = random_system(rng, 32, CYCLIC)
        x = solve_cyclic(sys)
        ref = dense_oracle_solve(sys)
        assert np.max(np.abs(x - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_requires_cyclic_topology(self):
        sys = random_system(np.random.default_rng(0), 5, OPEN)
        with pytest.raises(DomainError):
            solve_cyclic(sys)


class TestDenseOracle:
    def test_identity(self):
        sys = TriDiagSystem(sub=np.zeros(3), main=np.ones(4), sup=np.zeros(3),
                            rhs=np.array([1.0, 2.0, 3.0, 4.0]), topology=OPEN)
        assert np.array_equal(dense_oracle_solve(sys), sys.rhs)

    def test_two_by_two_hand_elimination(self):
        sys = TriDiagSystem(sub=np.array([0.0]), main=np.ones(2),
                            sup=np.array([1.0]), rhs=np.array([2.0, 1.0]),
                            topology=OPEN)
        assert np.allclose(dense_oracle_solve(sys), np.ones(2), rtol=1e-14)

    def test_scale_guard(self):
        n = 5000
        sys = TriDiagSystem(sub=np.zeros(n - 1), main=np.ones(n),
                            sup=np.zeros(n - 1), rhs=np.ones(n), topology=OPEN)
        with pytest.raises(DomainError, match="4096"):
            dense_oracle_solve(sys)

    def test_singular_matrix(self):
        sys = TriDiagSystem(sub=np.zeros(2), main=np.zeros(3), sup=np.zeros(2),
                            rhs=np.ones(3), topology=OPEN)
        with pytest.raises(SingularSystemError):
            dense_oracle_solve(sys)

    def test_pivoting_handles_zero_leading_diagonal(self):
        # Thomas would fail on this one; the oracle must pivot through it
        sys = TriDiagSystem(sub=np.array([1.0, 1.0]),
                            main=np.array([0.0, 1.0, 2.0]),
                            sup=np.array([1.0, 1.0]),
                            rhs=np.array([1.0, 2.0, 3.0]), topology=OPEN)
        x = dense_oracle_solve(sys)
        assert residual_inf(sys, x) <= 1e-12


def shared_batch(system, n_rhs, rng):
    """``n_rhs`` random right-hand sides against the matrix of ``system``,
    and each column as a system of its own."""
    rhs = rng.standard_normal((system.n, n_rhs)) \
        + 1j * rng.standard_normal((system.n, n_rhs))
    columns = [dataclasses.replace(system, rhs=rhs[:, m]) for m in range(n_rhs)]
    return SolveBatch(factor(system.diagonals()), rhs), columns


def scalar_solutions(columns):
    solve = solve_thomas if columns[0].topology == OPEN else solve_cyclic
    return np.stack([solve(c) for c in columns], axis=1)


class TestSolveBatch:
    def test_batch_of_one_equals_scalar(self):
        rng = np.random.default_rng(1)
        batch, columns = shared_batch(random_system(rng, 32, OPEN), 1, rng)
        for hint in (1, 2, 8):
            assert solve_batch(batch, parallel_hint=hint).tobytes() \
                == scalar_solutions(columns).tobytes()

    def test_identical_members_identical_solutions(self):
        rng = np.random.default_rng(2)
        sys = random_system(rng, 24, OPEN)
        batch = SolveBatch(factor(sys.diagonals()),
                           np.repeat(sys.rhs[:, None], 100, axis=1))
        expected = np.repeat(solve_thomas(sys)[:, None], 100, axis=1)
        for hint in (1, 2, 8):
            assert solve_batch(batch, parallel_hint=hint).tobytes() \
                == expected.tobytes()

    def test_hint_invariance_and_scalar_agreement(self):
        rng = np.random.default_rng(3)
        batch, columns = shared_batch(random_system(rng, 40, OPEN), 900, rng)
        scalar = scalar_solutions(columns).tobytes()
        for hint in (1, 2, 8):
            assert solve_batch(batch, parallel_hint=hint).tobytes() == scalar

    def test_cyclic_batch_matches_scalar(self):
        rng = np.random.default_rng(4)
        batch, columns = shared_batch(random_system(rng, 17, CYCLIC), 130, rng)
        scalar = scalar_solutions(columns).tobytes()
        for hint in (1, 2, 8):
            assert solve_batch(batch, parallel_hint=hint).tobytes() == scalar

    def test_singular_member_named_no_partial_result(self):
        # a singular shared matrix fails the whole batch at its first
        # singular row, before any substitution: the rhs is untouched
        sys = TriDiagSystem(sub=np.ones(7), main=np.zeros(8), sup=np.ones(7),
                            rhs=np.ones(8), topology=OPEN)
        rhs = np.ones((8, 10), dtype=complex)
        batch = SolveBatch(factor(sys.diagonals()), rhs)
        with pytest.raises(SingularSystemError) as info:
            solve_batch(batch, parallel_hint=2)
        assert info.value.pivot_index == 0
        assert np.all(rhs == 1.0)

    def test_first_singular_row_reported_for_any_partition(self):
        # pivot 1 is exactly zero and the rows after it carry inf/nan: the
        # first singular row is reported, whatever the partition
        sys = TriDiagSystem(sub=np.ones(5), main=np.ones(6), sup=np.ones(5),
                            rhs=np.ones(6))
        batch = SolveBatch(factor(sys.diagonals()), np.ones((6, 200)))
        for hint in (1, 2, 3, 4):
            with pytest.raises(SingularSystemError) as info:
                solve_batch(batch, parallel_hint=hint)
            assert info.value.pivot_index == 1
            assert info.value.detail == ""

    def test_cyclic_rank1_singular_reported_for_any_partition(self):
        # [[1, 0, 1], [0, 1, 0], [1, 0, 1]]: the open part is regular and
        # the correction's denominator is exactly zero, reported as row n = 3
        sys = TriDiagSystem(sub=[1.0, 0.0, 0.0], main=np.ones(3),
                            sup=[0.0, 0.0, 1.0], rhs=np.ones(3),
                            topology=CYCLIC)
        batch = SolveBatch(factor(sys.diagonals()), np.ones((3, 200)))
        for hint in (1, 2, 3, 4):
            with pytest.raises(SingularSystemError) as info:
                solve_batch(batch, parallel_hint=hint)
            assert info.value.pivot_index == 3
            assert info.value.detail == "singular rank-1 correction"
        # a zero pivot in the factorization is reported before the correction
        sys = TriDiagSystem(sub=np.zeros(3), main=[1.0, 0.0, 1.0],
                            sup=np.zeros(3), rhs=np.ones(3), topology=CYCLIC)
        with pytest.raises(SingularSystemError) as info:
            solve_cyclic(sys)
        assert (info.value.pivot_index, info.value.detail) == (1, "")

    @pytest.mark.parametrize("topology", [OPEN, CYCLIC])
    def test_shared_factors_match_per_member(self, topology):
        # one factorization, reused by several batches, gives every member
        # the bits of a solve against its own copy of the matrix
        rng = np.random.default_rng(11)
        base = random_system(rng, 33, topology)
        shared = factor(base.diagonals())
        for n_rhs in (50, 7):
            batch, columns = shared_batch(base, n_rhs, rng)
            for hint in (1, 3):
                got = solve_batch(SolveBatch(shared, batch.rhs),
                                  parallel_hint=hint)
                assert got.tobytes() == scalar_solutions(columns).tobytes()

    def test_singular_shared_matrix_raises_when_used(self):
        # factor never raises: the error is kept and raised by each solve
        main = np.array([1.0, 1.0, 0.0, 2.0, 1.0])[:, None]
        diagonals = Diagonals(np.ones((4, 1)), main, np.zeros((4, 1)))
        shared = factor(diagonals)
        assert shared.singular is not None
        for _ in range(2):
            with pytest.raises(SingularSystemError) as info:
                solve_batch(SolveBatch(shared, np.ones((5, 30))),
                            parallel_hint=2)
            assert info.value.pivot_index == 2

    def test_width_must_fit_rhs(self):
        # factor takes one matrix, shared by every right-hand side, and
        # the right-hand sides must have its rows
        rng = np.random.default_rng(12)
        wide = Diagonals(np.ones((5, 3)), 4.0 * np.ones((6, 3)),
                         np.ones((5, 3)))
        with pytest.raises(ShapeError, match="one matrix"):
            factor(wide)
        assert factor(wide.column(2)).n == 6
        shared = factor(random_system(rng, 6, OPEN).diagonals())
        with pytest.raises(ShapeError):
            SolveBatch(shared, np.ones((5, 4)))
        with pytest.raises(ShapeError):
            SolveBatch(shared, np.ones(6))

    def test_empty_batch_rejected(self):
        shared = factor(random_system(np.random.default_rng(0), 5, OPEN)
                        .diagonals())
        with pytest.raises(InvariantError):
            SolveBatch(shared, np.ones((5, 0)))

    def test_mixed_sizes_rejected(self):
        with pytest.raises(ShapeError, match="needs off-diagonals"):
            Diagonals(np.ones((4, 1)), np.ones((6, 1)), np.ones((5, 1)))
        with pytest.raises(ShapeError, match="needs off-diagonals"):
            Diagonals(np.ones((5, 2)), np.ones((6, 3)), np.ones((5, 3)))

    def test_system_round_trip(self):
        rng = np.random.default_rng(8)
        sys = random_system(rng, 9, CYCLIC)
        batch, columns = shared_batch(sys, 4, rng)
        assert batch.topology == CYCLIC
        assert (batch.n, batch.n_systems) == (9, 4)
        assert np.array_equal(batch.rhs[:, 2], columns[2].rhs)
        assert solve_batch(batch)[:, 2].tobytes() \
            == solve_cyclic(columns[2]).tobytes()


class TestSolverProperties:
    def test_residual_bound_random_instances(self):
        rng = np.random.default_rng(404)
        for _ in range(150):
            n = int(rng.integers(3, 129))
            topology = OPEN if rng.random() < 0.5 else CYCLIC
            sys = random_system(rng, n, topology)
            x = solve_thomas(sys) if topology == OPEN else solve_cyclic(sys)
            bound = 1e-10 * max(1.0, np.max(np.abs(sys.rhs)))
            assert residual_inf(sys, x) <= bound

    def test_linearity_in_rhs(self):
        rng = np.random.default_rng(505)
        base = random_system(rng, 48, OPEN)
        r1 = rng.standard_normal(48) + 1j * rng.standard_normal(48)
        r2 = rng.standard_normal(48) + 1j * rng.standard_normal(48)
        a, b = 0.7 - 1.1j, -2.0 + 0.4j

        def with_rhs(rhs):
            return TriDiagSystem(sub=base.sub.copy(), main=base.main.copy(),
                                 sup=base.sup.copy(), rhs=rhs, topology=OPEN)

        x1 = solve_thomas(with_rhs(r1))
        x2 = solve_thomas(with_rhs(r2))
        x12 = solve_thomas(with_rhs(a * r1 + b * r2))
        combo = a * x1 + b * x2
        assert np.max(np.abs(x12 - combo)) <= 1e-10 * np.max(np.abs(combo))
