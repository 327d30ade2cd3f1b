import math

import numpy as np
import pytest

from conftest import make_config, make_env, make_grid, random_slab_values
from pe3d.config import RunOptions
from pe3d.environment import (
    PERIODIC,
    SECTOR,
    FieldSlab,
    SoundSpeedProfile,
    gaussian_starter,
    refraction_index_grid,
    wavenumber,
)
from pe3d.errors import DomainError, StepError
from pe3d.marching import (
    Marcher,
    MarchState,
    apply_boundary,
    default_output_stride,
    range_step,
    run_frequency,
)
from pe3d.operators import (
    StepCoefficients,
    assemble_azimuth_batch,
    assemble_depth_batch,
    compute_rhs,
)
from pe3d.pool import ExecutorSpec


def make_state(config, frequency=50.0, slab_values=None, delta_r=None):
    """A marcher for ``frequency`` and the state at range index 0."""
    grid, env, source, _ = config
    k0 = wavenumber(frequency, env.c0)
    coeffs = StepCoefficients.for_step(
        k0, grid.delta_r if delta_r is None else delta_r)
    if slab_values is None:
        slab = gaussian_starter(grid, source, k0)
    else:
        slab = FieldSlab(slab_values, grid.r_start)
    return Marcher(grid, env, k0, coeffs), MarchState(slab, 0)


class TestApplyBoundary:
    def test_surface_row_zeroed(self):
        rng = np.random.default_rng(1)
        grid = make_grid()
        slab = FieldSlab(random_slab_values(rng, grid, zero_surface=False),
                         grid.r_start)
        apply_boundary(slab, grid)
        assert np.all(slab.values[:, 0] == 0.0)

    def test_periodic_leaves_azimuth_edges(self):
        rng = np.random.default_rng(2)
        grid = make_grid()
        values = random_slab_values(rng, grid, zero_surface=False)
        marker = values[0, 5]
        slab = FieldSlab(values, grid.r_start)
        apply_boundary(slab, grid)
        assert slab.values[0, 5] == marker

    def test_sector_edges_zeroed(self):
        rng = np.random.default_rng(3)
        grid = make_grid(topology=SECTOR)
        slab = FieldSlab(random_slab_values(rng, grid, zero_surface=False),
                         grid.r_start)
        apply_boundary(slab, grid)
        assert np.all(slab.values[0, :] == 0.0)
        assert np.all(slab.values[-1, :] == 0.0)

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        grid = make_grid(topology=SECTOR)
        slab = FieldSlab(random_slab_values(rng, grid, zero_surface=False),
                         grid.r_start)
        once = apply_boundary(slab, grid).values.copy()
        twice = apply_boundary(slab, grid).values
        assert np.array_equal(once, twice)


class TestRangeStep:
    def test_delta_zero_identity_bitwise(self):
        rng = np.random.default_rng(5)
        config = make_config(n_azimuth=8, n_depth=24)
        values = random_slab_values(rng, config.grid)
        marcher, state = make_state(config, slab_values=values.copy(),
                                    delta_r=0.0)
        before = state.slab.values.copy()
        after = range_step(marcher, state)
        assert after.range_index == 1
        assert after.slab.values.tobytes() == before.tobytes()

    def test_advances_range_and_index(self):
        config = make_config(n_azimuth=6, n_depth=24)
        marcher, state = make_state(config)
        new = range_step(marcher, state)
        assert new.range_index == 1
        assert new.slab.range_m == config.grid.range_at(1)

    def test_step_beyond_grid_rejected(self):
        config = make_config(n_range=3)
        marcher, state = make_state(config)
        for _ in range(3):
            state = range_step(marcher, state)
        with pytest.raises(DomainError, match="n_range"):
            range_step(marcher, state)

    def test_azimuth_symmetry_preserved_one_step(self):
        config = make_config(n_azimuth=16, n_depth=48)
        out = range_step(*make_state(config)).slab.values
        mags = np.abs(out)
        spread = (mags.max(axis=0) - mags.min(axis=0)).max()
        assert spread <= 1e-12 * mags.max()

    def test_surface_zero_after_step(self):
        config = make_config()
        out = range_step(*make_state(config))
        assert np.all(out.slab.values[:, 0] == 0.0)

    def test_dense_step_oracle_three_by_three(self):
        # full step on a 3x3 slab vs the dense 9x9 factorization
        rng = np.random.default_rng(6)
        grid = make_grid(n_azimuth=3, n_depth=3, delta_r=4.0, delta_z=7.0,
                         r_start=30.0)
        env = make_env(grid, attenuation=0.0, start_frac=0.5)
        config = make_config(grid=grid, env=env, source_depth=7.0)
        u0 = random_slab_values(rng, grid)
        marcher, state = make_state(config, slab_values=u0.copy())
        out = range_step(marcher, state).slab.values

        k0 = marcher.k0
        coeffs = marcher.coeffs

        def second_diff(n, periodic):
            t = np.diag(np.full(n, -2.0)) + np.diag(np.ones(n - 1), 1) \
                + np.diag(np.ones(n - 1), -1)
            if periodic:
                t[0, n - 1] += 1.0
                t[n - 1, 0] += 1.0
            return t

        s_z = 1.0 / (k0 * grid.delta_z) ** 2
        x_hat = np.kron(np.eye(3), s_z * second_diff(3, False))
        r_old, r_new = grid.r_start, grid.range_at(1)

        def y_hat(r):
            s_y = 1.0 / (k0 * r * grid.delta_theta) ** 2
            return np.kron(s_y * second_diff(3, True), np.eye(3))

        surface = [m * 3 for m in range(3)]
        z_proj = np.eye(9)
        for q in surface:
            z_proj[q, q] = 0.0
        explicit = (np.eye(9) + coeffs.cx_rhs * x_hat) @ (
            np.eye(9) + coeffs.cy_rhs * y_hat(r_old))
        rhs = z_proj @ explicit @ (z_proj @ u0.ravel())
        a_mat = np.eye(9) + coeffs.cx_lhs * x_hat
        for q in surface:
            a_mat[q, :] = 0.0
            a_mat[q, q] = 1.0
        b_mat = np.eye(9) + coeffs.cy_lhs * y_hat(r_new)
        ref = (z_proj @ np.linalg.solve(
            b_mat, np.linalg.solve(a_mat, rhs))).reshape(3, 3)
        assert np.max(np.abs(out - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_singular_solve_becomes_step_error(self):
        config = make_config(n_azimuth=4, n_depth=8, delta_z=1.0)
        grid, env, source, _ = config
        # hand-built coefficients making the depth diagonal exactly zero
        coeffs = StepCoefficients(delta=1j, cx_lhs=0.5 + 0.0j, cx_rhs=0.0j,
                                  cy_lhs=0.0j, cy_rhs=0.0j)
        k0 = 1.0  # s_z = 1, diag = 1 + 0.5 * (0 - 2) = 0
        slab = FieldSlab(np.ones((4, 8), dtype=complex), grid.r_start)
        marcher = Marcher(grid, env, k0, coeffs)
        with pytest.raises(StepError) as info:
            range_step(marcher, MarchState(slab, 0))
        assert info.value.sweep == "depth"
        assert info.value.range_index == 1

    def test_singular_azimuth_solve_becomes_step_error(self):
        # sector grid with k0 * r * delta_theta == 1 at step 2 (r = 10), so
        # s = 1 and cy_lhs = 1/2 make the interior azimuth diagonal
        # 1 - 2 * cy_lhs * s exactly zero: a zero pivot at row 1
        grid = make_grid(n_azimuth=5, n_depth=8, delta_r=2.5, r_start=5.0,
                         delta_z=1.0, delta_theta=0.1, topology=SECTOR)
        config = make_config(grid=grid)
        coeffs = StepCoefficients(delta=1j, cx_lhs=0.25 + 0.0j,
                                  cx_rhs=0.25 + 0.0j, cy_lhs=0.5 + 0.0j,
                                  cy_rhs=-0.5 + 0.0j)
        marcher = Marcher(grid, config.environment, 1.0, coeffs)
        slab = FieldSlab(np.ones((5, 8), dtype=complex), grid.r_start)
        state = range_step(marcher, MarchState(slab, 0))
        with pytest.raises(StepError) as info:
            range_step(marcher, state)
        assert info.value.sweep == "azimuth"
        assert info.value.range_index == 2
        assert info.value.cause.pivot_index == 1


def _reference_open(sub, main, sup, rhs):
    """Thomas elimination of every column, each with its own diagonals."""
    n = main.shape[0]
    inv = np.empty(main.shape, dtype=complex)
    cp = np.empty((n - 1,) + main.shape[1:], dtype=complex)
    inv[0] = 1.0 / main[0]
    cp[0] = sup[0] * inv[0]
    for k in range(1, n):
        inv[k] = 1.0 / (main[k] - sub[k - 1] * cp[k - 1])
        if k < n - 1:
            cp[k] = sup[k] * inv[k]
    x = np.empty_like(rhs)
    x[0] = rhs[0] * inv[0]
    for k in range(1, n):
        x[k] = (rhs[k] - sub[k - 1] * x[k - 1]) * inv[k]
    for k in range(n - 2, -1, -1):
        x[k] -= cp[k] * x[k + 1]
    return x


def _reference_cyclic(sub, main, sup, rhs):
    """Sherman-Morrison correction of an open solve, column by column."""
    n = main.shape[0]
    alpha, beta = sub[0], sup[n - 1]
    gamma = np.where(np.abs(main[0]) > 0, -main[0], np.complex128(1.0))
    main_mod = np.array(main, dtype=complex)
    main_mod[0] = main[0] - gamma
    main_mod[n - 1] = main[n - 1] - alpha * beta / gamma
    y = _reference_open(sub[1:], main_mod, sup[: n - 1], rhs)
    spike = np.zeros_like(rhs)
    spike[0] = gamma
    spike[n - 1] = beta
    q = _reference_open(sub[1:], main_mod, sup[: n - 1], spike)
    weight = alpha / gamma
    denom = 1.0 + q[0] + weight * q[n - 1]
    q *= (y[0] + weight * y[n - 1]) / denom
    y -= q
    return y


def reference_step(slab, j, grid, env, k0, coeffs):
    """One range step with a matrix per member, assembled and factored
    in every step: the plain form of the scheme the marcher shortcuts."""
    apply_boundary(slab, grid)
    r_new = grid.range_at(j + 1)
    n_now = refraction_index_grid(env, grid, slab.range_m)
    rhs = compute_rhs(slab, coeffs, n_now, k0, grid)
    apply_boundary(rhs, grid)
    depth = assemble_depth_batch(coeffs.cx_lhs, refraction_index_grid(
        env, grid, r_new), k0, grid.delta_z)
    b = np.ascontiguousarray(rhs.values.T)
    b[0] = 0.0
    v = np.ascontiguousarray(
        _reference_open(depth.sub, depth.main, depth.sup, b).T)
    azimuth = assemble_azimuth_batch(coeffs.cy_lhs, k0, r_new,
                                     grid.delta_theta, grid.azimuth_topology,
                                     grid.n_azimuth)
    full = [np.broadcast_to(a, (a.shape[0], grid.n_depth))
            for a in (azimuth.sub, azimuth.main, azimuth.sup)]
    if grid.azimuth_topology == SECTOR:
        v[0] = 0.0
        v[-1] = 0.0
        u = _reference_open(*full, v)
    else:
        u = _reference_cyclic(*full, v)
    new_slab = FieldSlab(np.ascontiguousarray(u), r_new)
    apply_boundary(new_slab, grid)
    return new_slab


class TestReferenceStepper:
    """The shared factors must give the bits of a matrix per member.

    The grids are larger than numpy's 256 KiB threshold for evaluating
    temporaries in place, where a depth matrix assembled at width 1
    rounds differently from one assembled over the full grid.
    """

    @staticmethod
    def config(topology):
        grid = make_grid(n_range=5, n_azimuth=72, n_depth=256,
                         topology=topology)
        profile = SoundSpeedProfile(
            np.array([0.0, 300.0, grid.depth_extent]),
            np.array([1500.0, 1480.0, 1530.0]))
        env = make_env(grid, profile=profile, attenuation=0.02)
        return make_config(grid=grid, env=env)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("topology", [PERIODIC, SECTOR])
    def test_range_step_bitwise(self, topology, threads):
        config = self.config(topology)
        grid, env, _, _ = config
        assert grid.n_azimuth * grid.n_depth * 16 > 256 * 1024
        k0 = wavenumber(50.0, env.c0)
        coeffs = StepCoefficients.for_step(k0, grid.delta_r)
        values = random_slab_values(np.random.default_rng(77), grid)
        marcher = Marcher(grid, env, k0, coeffs, threads)
        state = MarchState(FieldSlab(values.copy(), grid.r_start), 0)
        reference = FieldSlab(values.copy(), grid.r_start)
        for j in range(5):
            state = range_step(marcher, state)
            reference = reference_step(reference, j, grid, env, k0, coeffs)
            assert state.slab.values.tobytes() == reference.values.tobytes()

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("topology", [PERIODIC, SECTOR])
    def test_run_frequency_bitwise(self, topology, threads):
        config = self.config(topology)
        grid, env, source, _ = config
        result = run_frequency(config, 50.0, ExecutorSpec(intra_threads=threads))
        k0 = wavenumber(50.0, env.c0)
        coeffs = StepCoefficients.for_step(k0, grid.delta_r)
        reference = apply_boundary(gaussian_starter(grid, source, k0), grid)
        for j in range(grid.n_range):
            reference = reference_step(reference, j, grid, env, k0, coeffs)
        assert result.final_slab.values.tobytes() == reference.values.tobytes()


class TestNormInvariants:
    """An azimuth-uniform field sees only the depth sweep, a Crank-Nicolson
    step with a real symmetric operator when the medium is lossless: it is
    unitary, so the discrete L2 norm is conserved to rounding.  The
    absorber makes every step a strict contraction."""

    @staticmethod
    def norms(attenuation):
        """L2 norms of 400 steps from a random azimuth-uniform field in a
        random sound-speed profile on an 8 x 129 periodic grid."""
        rng = np.random.default_rng(41)
        grid = make_grid(n_range=400, n_azimuth=8, n_depth=129)
        knots = np.linspace(0.0, grid.depth_extent, 6)
        profile = SoundSpeedProfile(knots, 1500.0 + 20.0 * rng.standard_normal(6))
        env = make_env(grid, profile=profile, attenuation=attenuation)
        column = rng.standard_normal(grid.n_depth) \
            + 1j * rng.standard_normal(grid.n_depth)
        column[0] = 0.0
        values = np.tile(column, (grid.n_azimuth, 1))
        k0 = wavenumber(50.0, env.c0)
        marcher = Marcher(grid, env, k0, StepCoefficients.for_step(k0, grid.delta_r))
        state = MarchState(FieldSlab(values.copy(), grid.r_start), 0)
        norms = [np.linalg.norm(values)]
        for _ in range(grid.n_range):
            state = range_step(marcher, state)
            norms.append(np.linalg.norm(state.slab.values))
        moved = np.max(np.abs(state.slab.values - values)) / np.max(np.abs(values))
        return np.array(norms), moved

    def test_lossless_norm_conserved(self):
        norms, moved = self.norms(attenuation=0.0)
        assert moved > 0.5  # the field did evolve
        assert np.max(np.abs(norms / norms[0] - 1.0)) <= 1e-12

    def test_absorber_norm_decreases_every_step(self):
        norms, _ = self.norms(attenuation=0.01)
        assert np.all(np.diff(norms) < 0.0)


class TestRunFrequency:
    def test_zero_steps_only_starter_sample(self):
        options = RunOptions(max_range=1.0, output_stride=1)
        config = make_config(options=options, r_start=5.0)
        result = run_frequency(config, 50.0)
        assert result.tl_field.shape[0] == 1
        assert result.ranges.tolist() == [config.grid.r_start]
        assert result.final_slab.range_m == config.grid.r_start

    def test_rerun_bitwise_identical(self):
        config = make_config(n_range=6, n_azimuth=8, n_depth=32)
        first = run_frequency(config, 50.0)
        second = run_frequency(config, 50.0)
        assert first.tl_field.tobytes() == second.tl_field.tobytes()
        assert first.final_slab.values.tobytes() == second.final_slab.values.tobytes()
        assert np.array_equal(first.ranges, second.ranges)

    def test_unknown_frequency_rejected(self):
        config = make_config(frequencies=(50.0,))
        with pytest.raises(DomainError, match="not one of the source"):
            run_frequency(config, 60.0)

    def test_output_stride_shapes(self):
        options = RunOptions(output_stride=4)
        config = make_config(n_range=10, options=options)
        result = run_frequency(config, 50.0)
        # starter sample plus steps 4 and 8
        assert result.tl_field.shape[0] == 3
        assert result.output_stride == 4

    def test_default_stride_caps_samples(self):
        assert default_output_stride(10) == 1
        assert default_output_stride(511) == 1
        assert default_output_stride(512) == 2
        assert default_output_stride(5000) == 10

    def test_max_range_truncates_marching(self):
        options = RunOptions(max_range=26.0, output_stride=1)
        config = make_config(n_range=10, delta_r=5.0, r_start=5.0,
                             options=options)
        result = run_frequency(config, 50.0)
        # steps to 10, 15, 20, 25 then stop (30 > 26)
        assert result.final_slab.range_m == 25.0
        assert result.tl_field.shape[0] == 5

    def test_no_blowup_with_absorber(self):
        config = make_config(n_range=100, n_azimuth=8, n_depth=64,
                             delta_z=4.0, source_depth=100.0)
        starter_max = math.sqrt(wavenumber(50.0, config.environment.c0))
        result = run_frequency(config, 50.0)
        assert np.max(np.abs(result.final_slab.values)) <= 10.0 * starter_max

    def test_tl_field_finite(self):
        config = make_config(n_range=5)
        result = run_frequency(config, 50.0)
        assert np.all(np.isfinite(result.tl_field))

    def test_state_range_invariant(self):
        config = make_config(n_range=4)
        marcher, state = make_state(config)
        for j in range(1, 5):
            state = range_step(marcher, state)
            assert state.slab.range_m == config.grid.range_at(j)
            assert state.range_index == j
