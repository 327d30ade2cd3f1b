import math

import numpy as np
import pytest

from conftest import apply_X, apply_Y, make_env, make_grid, random_slab_values
from pe3d.environment import PERIODIC, SECTOR, refraction_index_grid, wavenumber
from pe3d.errors import InvariantError, ShapeError
from pe3d.operators import (
    StepCoefficients,
    assemble_azimuth_batch,
    assemble_depth_batch,
    compute_rhs,
    depth_stencil,
)
from pe3d.tridiag import (
    CYCLIC,
    SolveBatch,
    dense_matrix,
    dense_oracle_solve,
    factor,
    solve,
    solve_batch,
)


class TestStepCoefficients:
    def test_for_step_values(self):
        k0 = wavenumber(50.0, 1500.0)
        coeffs = StepCoefficients.for_step(k0, 10.0)
        delta = 1j * k0 * 10.0
        assert coeffs.delta == delta
        assert coeffs.cx_lhs == 0.25 - delta / 4
        assert coeffs.cx_rhs == 0.25 + delta / 4
        assert coeffs.cy_lhs == -delta / 4
        assert coeffs.cy_rhs == delta / 4

    def test_exact_identities(self):
        coeffs = StepCoefficients.for_step(0.3, 7.0)
        assert coeffs.delta.real == 0.0
        assert coeffs.cx_lhs + coeffs.cx_rhs == 0.5 + 0.0j
        assert coeffs.cy_lhs + coeffs.cy_rhs == 0.0 + 0.0j

    def test_identities_enforced_on_construction(self):
        with pytest.raises(InvariantError, match="cx_lhs"):
            StepCoefficients(0.0j, 0.3 + 0.0j, 0.3 + 0.0j, 0.0j, 0.0j)
        # the depth half-step divides by cx_lhs
        with pytest.raises(InvariantError, match="cx_lhs != 0"):
            StepCoefficients(0.0j, 0.0j, 0.5 + 0.0j, 0.0j, 0.0j)
        # and by rho = cx_rhs / cx_lhs
        with pytest.raises(InvariantError, match="cx_rhs != 0"):
            StepCoefficients(0.0j, 0.5 + 0.0j, 0.0j, 0.0j, 0.0j)
        # 1 + cy_lhs sigma lambda, the azimuth half-step's divisor per
        # mode, is never zero for a real sigma lambda
        with pytest.raises(InvariantError, match="cy_lhs is purely imaginary"):
            StepCoefficients(1j, 0.25 + 0.0j, 0.25 + 0.0j, 0.5 + 0.0j,
                             -0.5 + 0.0j)


class TestOperatorStencil:
    def test_depth_stencil_carries_medium_term(self):
        scale, local = depth_stencil(np.array([1.0, 1.1]), 0.2, 2.0)
        assert scale == 1.0 / (0.2 * 2.0) ** 2
        assert np.allclose(local, np.array([0.0, 1.1 ** 2 - 1.0]))


class TestApplyX:
    def test_constant_field_interior_zero(self):
        u = np.full(16, 2.3 + 0.4j)
        xu = apply_X(u, 1.0, k0=0.5, delta_z=2.0)
        assert np.all(xu[1:-1] == 0.0)

    def test_hand_central_difference(self):
        xu = apply_X(np.array([0.0, 1.0, 0.0], dtype=complex), 1.0, 1.0, 1.0)
        assert xu[1] == -2.0

    def test_zero_in_zero_out(self):
        assert np.all(apply_X(np.zeros(8, dtype=complex), 1.0, 0.3, 1.5) == 0.0)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            apply_X(np.zeros(5, dtype=complex), np.ones(4), 1.0, 1.0)

    def test_needs_three_points(self):
        with pytest.raises(ShapeError):
            apply_X(np.zeros(2, dtype=complex), 1.0, 1.0, 1.0)

    def test_slab_form_matches_per_column(self):
        rng = np.random.default_rng(11)
        grid = make_grid(n_azimuth=4, n_depth=12)
        u = random_slab_values(rng, grid, dirichlet=False)
        n_col = 1.0 + 0.01 * rng.standard_normal(grid.n_depth)
        whole = apply_X(u, n_col, 0.25, 3.0)
        rows = np.stack([apply_X(u[m], n_col, 0.25, 3.0)
                         for m in range(grid.n_azimuth)])
        assert np.array_equal(whole, rows)


class TestApplyY:
    def test_constant_ring_annihilated(self):
        u = np.full(8, 1.7 - 0.2j)
        assert np.all(apply_Y(u, 0.2, 50.0, 0.3, PERIODIC) == 0.0)

    def test_hand_sector_value(self):
        yu = apply_Y(np.array([0.0, 1.0, 0.0], dtype=complex), 1.0, 1.0, 1.0, SECTOR)
        assert yu[1] == -2.0

    def test_periodic_wraps(self):
        u = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        yu = apply_Y(u, 1.0, 1.0, 1.0, PERIODIC)
        # neighbors of index 0 are 1 and 3 on the ring
        assert yu[3] == 1.0 and yu[1] == 1.0 and yu[0] == -2.0

    def test_doubling_r_quarters_output(self):
        rng = np.random.default_rng(3)
        u = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        once = apply_Y(u, 0.3, 128.0, 0.1, PERIODIC)
        twice = apply_Y(u, 0.3, 256.0, 0.1, PERIODIC)
        assert np.array_equal(4.0 * twice, once)


def solve_against(diagonals, rhs):
    return solve_batch(SolveBatch(factor(diagonals), rhs))


class TestAssembleDepthSystem:
    def test_zero_coeff_gives_identity(self):
        d = assemble_depth_batch(0.0, np.ones(3), 1.0, 1.0)
        assert np.all(d.main == 1.0) and np.all(d.sub == 0.0)
        # the surface row is the identity equation, decoupled from row 1
        assert d.sup[0, 0] == 0.0
        rhs = np.array([[3.0], [4.0], [5.0]], dtype=complex)
        assert np.array_equal(solve_against(d, rhs)[:, 0], [3.0, 4.0, 5.0])

    def test_homogeneous_assembly_formula(self):
        coeff = 0.1 + 0.2j
        k0, dz = 0.25, 3.0
        s = 1.0 / (k0 * dz) ** 2
        batch = assemble_depth_batch(coeff, np.ones(6), k0, dz)
        assert batch.main.shape[1] == 1
        assert np.allclose(batch.main[1:], 1.0 - 2.0 * coeff * s, rtol=1e-15)
        assert np.allclose(batch.sub, coeff * s, rtol=1e-15)
        assert np.allclose(batch.sup[1:], coeff * s, rtol=1e-15)

    def test_matrix_matches_matrix_free(self):
        rng = np.random.default_rng(5)
        n_az, n = 3, 24
        profile = 1.0 + 0.05 * rng.standard_normal(n) + 0.01j * rng.random(n)
        coeff = 0.25 - 0.3j
        u = rng.standard_normal((n_az, n)) + 1j * rng.standard_normal((n_az, n))
        batch = assemble_depth_batch(coeff, profile, 0.2, 4.0)
        assert batch.main.shape[1] == 1
        a = dense_matrix(batch)
        for m in range(n_az):
            lhs = a @ u[m]
            rhs = u[m] + coeff * apply_X(u[m], profile, 0.2, 4.0)
            assert np.array_equal(a[0], np.eye(n)[0])  # surface row
            assert np.max(np.abs(lhs[1:] - rhs[1:])) \
                <= 1e-13 * np.max(np.abs(rhs))

    def test_shape_error(self):
        depth = factor(assemble_depth_batch(0.1, np.ones(4), 1.0, 1.0))
        with pytest.raises(ShapeError):
            SolveBatch(depth, np.zeros((5, 2), dtype=complex))
        with pytest.raises(ShapeError):  # a medium over (azimuth x depth)
            assemble_depth_batch(0.1, np.ones((2, 4)), 1.0, 1.0)


class TestAssembleAzimuthSystem:
    def test_zero_coeff_identity(self):
        batch = assemble_azimuth_batch(0.0, 1.0, 10.0, 0.2, SECTOR, 5)
        assert np.all(batch.main == 1.0) and np.all(batch.sub == 0.0)

    def test_periodic_corners_equal_off_diagonal(self):
        coeff = -0.25j
        batch = assemble_azimuth_batch(coeff, 0.2, 100.0, 2 * math.pi / 4,
                                       PERIODIC, 4)
        assert batch.topology == CYCLIC
        off = coeff / (0.2 * 100.0 * 2 * math.pi / 4) ** 2
        assert batch.sub[0, 0] == off and batch.sup[-1, 0] == off

    def test_constant_vector_preserved_on_ring(self):
        rhs = np.full(8, 2.0 - 1.0j)
        batch = assemble_azimuth_batch(-0.1j, 0.3, 60.0, 2 * math.pi / 8,
                                       PERIODIC, 8)
        x = dense_oracle_solve(batch, rhs)
        assert np.allclose(x, rhs, rtol=1e-12)

    @pytest.mark.parametrize("topology", [PERIODIC, SECTOR])
    def test_matrix_matches_matrix_free(self, topology):
        rng = np.random.default_rng(6)
        n_az, n_dep = 12, 3
        delta_theta = 2 * math.pi / n_az if topology == PERIODIC else 0.05
        coeff = -0.4j
        u = rng.standard_normal((n_az, n_dep)) \
            + 1j * rng.standard_normal((n_az, n_dep))
        batch = assemble_azimuth_batch(coeff, 0.2, 90.0, delta_theta,
                                       topology, n_az)
        assert batch.main.shape[1] == 1  # one matrix for every depth index
        a = dense_matrix(batch)
        edges = slice(None) if topology == PERIODIC else slice(1, -1)
        for l in range(n_dep):
            lhs = a @ u[:, l]
            rhs = u[:, l] + coeff * apply_Y(u[:, l], 0.2, 90.0, delta_theta,
                                            topology)
            assert np.max(np.abs(lhs[edges] - rhs[edges])) \
                <= 1e-13 * np.max(np.abs(rhs))
        if topology == SECTOR:  # Dirichlet edge rows
            assert np.array_equal(a[[0, -1]], np.eye(n_az)[[0, -1]])

    @pytest.mark.parametrize("topology", [PERIODIC, SECTOR])
    def test_block_of_ranges(self, topology):
        # one matrix per range, each with the bits of its own assembly and
        # of the coefficient formula, squared by multiplication as numpy
        # squares an array
        coeff = -0.26179938779914946j
        k0, delta_theta = 0.2094, 2 * math.pi / 9
        ranges = [15.0 + 5.0 * i for i in range(7)]
        block = assemble_azimuth_batch(coeff, k0, ranges, delta_theta,
                                       topology, 9)
        assert block.main.shape[1] == 7
        for j, r in enumerate(ranges):
            alone = assemble_azimuth_batch(coeff, k0, [r], delta_theta,
                                           topology, 9)
            for name in ("sub", "main", "sup"):
                assert np.ascontiguousarray(getattr(block, name)[:, j]).tobytes() \
                    == np.ascontiguousarray(getattr(alone, name)[:, 0]).tobytes()
            x = k0 * r * delta_theta
            s = 1.0 / (x * x)
            assert block.main[4, j] == 1.0 - 2.0 * coeff * s
            assert block.sub[4, j] == coeff * s
        # the step's identity: the explicit matrices (I + cy_rhs Y) are
        # 2I - (I + cy_lhs Y), bitwise off the main diagonal and on a
        # sector's identity rows, to rounding on the main diagonal
        coeffs = StepCoefficients.for_step(k0, 5.0)
        implicit, explicit = (
            assemble_azimuth_batch(c, k0, ranges, delta_theta, topology, 9)
            for c in (coeffs.cy_lhs, coeffs.cy_rhs))
        for name in ("sub", "sup"):
            assert getattr(explicit, name).tobytes() \
                == (0.0 - getattr(implicit, name)).tobytes()
        mirror = 2.0 - implicit.main
        rows = [0, -1] if topology == SECTOR else []
        assert explicit.main[rows].tobytes() == mirror[rows].tobytes()
        assert np.max(np.abs(explicit.main - mirror)) \
            <= 1e-15 * np.max(np.abs(mirror))

    def test_sector_solve_leaves_rhs_unchanged(self):
        grid = make_grid(n_azimuth=6, n_depth=4, topology=SECTOR)
        rhs = np.ones((6, 4), dtype=complex)
        batch = assemble_azimuth_batch(0.1 + 0.1j, 0.2, 80.0,
                                       grid.delta_theta, SECTOR, 6)
        solve_against(batch, rhs)
        assert np.array_equal(rhs, np.ones((6, 4)))


class TestComputeRhs:
    def test_zero_field(self):
        out = np.full((8, 4), np.nan, dtype=complex)
        assert compute_rhs(np.zeros((4, 8), dtype=complex), out) is out
        assert np.all(out == 0.0)


class TestComputeRhsArrays:
    def test_writes_out_and_checks_shapes(self):
        # the slab's bits, depth-major, into ``out`` whatever its layout
        rng = np.random.default_rng(43)
        grid = make_grid(n_azimuth=5, n_depth=12)
        u = random_slab_values(rng, grid)
        for out in (np.empty((12, 5), dtype=complex),
                    np.empty((5, 12), dtype=complex).T):
            assert compute_rhs(u, out) is out
            assert out.T.tobytes() == u.tobytes()
        with pytest.raises(ShapeError):  # out is not the transpose
            compute_rhs(u, np.empty((5, 12), dtype=complex))
        with pytest.raises(ShapeError):  # a slab of another grid
            compute_rhs(u[:4], out)
        with pytest.raises(ShapeError):  # not a slab
            compute_rhs(u[0], out[:, 0])


class TestBatchAssembly:
    def test_depth_batch_matches_scalar_rows(self):
        rng = np.random.default_rng(17)
        grid = make_grid(n_azimuth=6, n_depth=20)
        env = make_env(grid, attenuation=0.02, start_frac=0.4)
        profile = refraction_index_grid(env, grid)
        rhs = random_slab_values(rng, grid)
        coeff = 0.25 - 0.4j
        batch = assemble_depth_batch(coeff, profile, 0.2, grid.delta_z)
        # the marcher's way: the medium is the same in every azimuth, so
        # the one matrix is factored once and shared by every right-hand side
        solutions = solve_against(batch, rhs.T.copy())
        for m in range(grid.n_azimuth):
            scalar = solve(batch, rhs[m])
            assert solutions[:, m].tobytes() == scalar.tobytes()

    def test_depth_batch_surface_row_constrained(self):
        grid = make_grid(n_azimuth=4, n_depth=8)
        rhs = np.ones((8, 4), dtype=complex)
        rhs[0] = 0.0  # the Dirichlet data every slab carries
        batch = assemble_depth_batch(0.3 + 0.1j, np.ones(8), 0.2,
                                     grid.delta_z)
        solutions = solve_against(batch, rhs)
        assert np.all(solutions[0] == 0.0)

    def test_azimuth_batch_matches_scalar_systems(self):
        rng = np.random.default_rng(19)
        grid = make_grid(n_azimuth=10, n_depth=6, topology=SECTOR)
        rhs = random_slab_values(rng, grid, dirichlet=False)
        coeff = -0.2j
        batch = assemble_azimuth_batch(coeff, 0.2, 120.0, grid.delta_theta,
                                       SECTOR, grid.n_azimuth)
        solutions = solve_against(batch, rhs)
        for l in range(grid.n_depth):
            scalar = solve(batch, rhs[:, l])
            assert np.array_equal(solutions[:, l], scalar)

    def test_sector_batch_edges_constrained(self):
        grid = make_grid(n_azimuth=6, n_depth=5, topology=SECTOR)
        rhs = np.ones((6, 5), dtype=complex)
        rhs[[0, -1]] = 0.0  # the Dirichlet data every slab carries
        batch = assemble_azimuth_batch(0.1 + 0.1j, 0.2, 80.0,
                                       grid.delta_theta, SECTOR, 6)
        solutions = solve_against(batch, rhs)
        assert np.all(solutions[0] == 0.0) and np.all(solutions[-1] == 0.0)
