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


class TestSolveBatch:
    def test_batch_of_one_equals_scalar(self):
        sys = random_system(np.random.default_rng(1), 32, OPEN)
        batch = SolveBatch.from_systems([sys])
        assert solve_batch(batch)[:, 0].tobytes() == solve_thomas(sys).tobytes()

    def test_identical_members_identical_solutions(self):
        sys = random_system(np.random.default_rng(2), 24, OPEN)
        batch = SolveBatch.from_systems([sys] * 100)
        solutions = solve_batch(batch)
        assert np.array_equal(solutions,
                              np.broadcast_to(solutions[:, :1], solutions.shape))

    def test_hint_invariance_and_scalar_agreement(self):
        rng = np.random.default_rng(3)
        systems = [random_system(rng, 40, OPEN) for _ in range(900)]
        batch = SolveBatch.from_systems(systems)
        base = solve_batch(batch, parallel_hint=1)
        for hint in (2, 8):
            assert base.tobytes() == solve_batch(batch, parallel_hint=hint).tobytes()
        scalar = np.stack([solve_thomas(s) for s in systems], axis=1)
        assert base.tobytes() == scalar.tobytes()

    def test_cyclic_batch_matches_scalar(self):
        rng = np.random.default_rng(4)
        systems = [random_system(rng, 17, CYCLIC) for _ in range(130)]
        batch = SolveBatch.from_systems(systems)
        solutions = solve_batch(batch, parallel_hint=3)
        scalar = np.stack([solve_cyclic(s) for s in systems], axis=1)
        assert solutions.tobytes() == scalar.tobytes()

    def test_singular_member_named_no_partial_result(self):
        rng = np.random.default_rng(5)
        systems = [random_system(rng, 8, OPEN) for _ in range(10)]
        bad = TriDiagSystem(sub=np.ones(7), main=np.zeros(8), sup=np.ones(7),
                            rhs=np.ones(8), topology=OPEN)
        systems[7] = bad
        batch = SolveBatch.from_systems(systems)
        with pytest.raises(SingularSystemError) as info:
            solve_batch(batch)
        assert info.value.member_index == 7

    def test_lowest_member_reported_across_tiles(self):
        # member 150 fails at pivot 0, member 70 only at pivot 1: the lower
        # member is named, at its first singular row, for every partition
        rng = np.random.default_rng(6)
        systems = [random_system(rng, 6, OPEN) for _ in range(200)]
        systems[150] = TriDiagSystem(sub=np.ones(5), main=np.zeros(6),
                                     sup=np.ones(5), rhs=np.ones(6))
        systems[70] = TriDiagSystem(sub=np.ones(5), main=np.ones(6),
                                    sup=np.ones(5), rhs=np.ones(6))
        batch = SolveBatch.from_systems(systems)
        for hint in (1, 2, 3, 4):
            with pytest.raises(SingularSystemError) as info:
                solve_batch(batch, parallel_hint=hint)
            assert (info.value.pivot_index, info.value.member_index) == (1, 70)

    def test_cyclic_lowest_member_reported_for_any_partition(self):
        # member 150 fails in the factorization (pivot 1), member 70 only in
        # the rank-1 correction, reported as row n = 3
        rng = np.random.default_rng(10)
        systems = [random_system(rng, 3, CYCLIC) for _ in range(200)]
        systems[150] = TriDiagSystem(sub=np.zeros(3), main=[1.0, 0.0, 1.0],
                                     sup=np.zeros(3), rhs=np.ones(3),
                                     topology=CYCLIC)
        # [[1, 0, 1], [0, 1, 0], [1, 0, 1]]: the open part is regular and
        # the correction's denominator is exactly zero
        systems[70] = TriDiagSystem(sub=[1.0, 0.0, 0.0], main=np.ones(3),
                                    sup=[0.0, 0.0, 1.0], rhs=np.ones(3),
                                    topology=CYCLIC)
        batch = SolveBatch.from_systems(systems)
        for hint in (1, 2, 3, 4):
            with pytest.raises(SingularSystemError) as info:
                solve_batch(batch, parallel_hint=hint)
            assert (info.value.pivot_index, info.value.member_index) == (3, 70)
            assert info.value.detail == "singular rank-1 correction"

    @pytest.mark.parametrize("topology", [OPEN, CYCLIC])
    def test_shared_factors_match_per_member(self, topology):
        # one width-1 factorization broadcast over the batch gives the bits
        # of a factorization per member
        rng = np.random.default_rng(11)
        base = random_system(rng, 33, topology)
        rhs = rng.standard_normal((33, 50)) + 1j * rng.standard_normal((33, 50))
        shared = factor(Diagonals(base.sub[:, None], base.main[:, None],
                                  base.sup[:, None], topology))
        per_member = SolveBatch.from_systems(
            TriDiagSystem(base.sub, base.main, base.sup, rhs[:, m], topology)
            for m in range(50))
        expected = solve_batch(per_member).tobytes()
        for hint in (1, 3):
            got = solve_batch(SolveBatch(shared, rhs), parallel_hint=hint)
            assert got.tobytes() == expected

    def test_singular_shared_matrix_names_member_zero(self):
        # a shared factorization fails for every member: member 0 is named,
        # at the first singular row, when the factors are used
        main = np.array([1.0, 1.0, 0.0, 2.0, 1.0])[:, None]
        diagonals = Diagonals(np.ones((4, 1)), main, np.zeros((4, 1)))
        shared = factor(diagonals)
        assert shared.singular is not None
        with pytest.raises(SingularSystemError) as info:
            solve_batch(SolveBatch(shared, np.ones((5, 30))), parallel_hint=2)
        assert (info.value.pivot_index, info.value.member_index) == (2, 0)

    def test_width_must_fit_rhs(self):
        rng = np.random.default_rng(12)
        batch = SolveBatch.from_systems(
            [random_system(rng, 6, OPEN) for _ in range(3)])
        with pytest.raises(ShapeError):
            SolveBatch(batch.factors, np.ones((6, 4)))

    def test_empty_batch_rejected(self):
        with pytest.raises(InvariantError):
            SolveBatch.from_systems([])

    def test_mixed_sizes_rejected(self):
        rng = np.random.default_rng(7)
        with pytest.raises(InvariantError, match="share one n"):
            SolveBatch.from_systems([random_system(rng, 5, OPEN),
                                     random_system(rng, 6, OPEN)])

    def test_system_round_trip(self):
        rng = np.random.default_rng(8)
        systems = [random_system(rng, 9, CYCLIC) for _ in range(4)]
        batch = SolveBatch.from_systems(systems)
        assert batch.topology == CYCLIC and batch.factors.width == 4
        assert np.array_equal(batch.rhs[:, 2], systems[2].rhs)
        assert solve_batch(batch)[:, 2].tobytes() \
            == solve_cyclic(systems[2]).tobytes()


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
