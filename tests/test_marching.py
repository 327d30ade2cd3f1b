import math
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import pe3d.marching as marching_module
import pe3d.tridiag as tridiag_module

from conftest import (
    apply_Y,
    dense_step_case,
    make_config,
    make_env,
    make_grid,
    random_slab_values,
    whole_step,
    zero_dirichlet_rows,
)
from pe3d.config import RunOptions
from pe3d.environment import (
    PERIODIC,
    SECTOR,
    SoundSpeedProfile,
    gaussian_starter,
    hankel_factor,
    refraction_index_grid,
    transmission_loss_field,
    wavenumber,
)
from pe3d.errors import DomainError, InvariantError, ShapeError, StepError
from pe3d.marching import (
    BLOCK_ROWS,
    Marcher,
    StepCoefficients,
    assemble_azimuth_batch,
    assemble_depth_batch,
    azimuth_stencil,
    compute_rhs,
    default_output_stride,
    march,
    range_step,
    run_frequency,
)
from pe3d.selftest import fold_oracle
from pe3d.tridiag import SolveBatch, solve_batch


def make_marcher(config, frequency=50.0, slab_values=None, delta_r=None):
    """A marcher for ``frequency`` and the slab at range index 0: the
    starter, or ``slab_values`` when given."""
    grid, env, source, options = config
    k0 = wavenumber(frequency, env.c0)
    coeffs = StepCoefficients.for_step(
        k0, grid.delta_r if delta_r is None else delta_r)
    if slab_values is None:
        slab_values = gaussian_starter(grid, source, k0)
    return Marcher(grid, env, k0, coeffs, options.threads), slab_values


def physical_step(marcher, u, j):
    """One step of the (n_azimuth, n_depth) slab ``u``, through the modes."""
    return marcher.from_modes(whole_step(marcher, marcher.to_modes(u), j))


def relative_error(x, reference):
    return np.max(np.abs(x - reference)) / np.max(np.abs(reference))


# The mode march against the physical-space reference step, which solves
# the same scheme densely in physical azimuth: the arithmetic differs, so
# they agree to rounding, relative to the largest |u|.  Measured: at most
# 4.8e-15 over 5 steps on 73 x 256, 4.5e-15 over 12 steps on the narrow
# grids.
ORACLE_TOLERANCE = 1e-12


class TestSlabShape:
    """A slab is an (n_azimuth, n_depth) array of the grid and a mode slab
    an (n_depth, n_azimuth) one, or the functions that take them raise."""

    @staticmethod
    def rejects(u, grid):
        with pytest.raises(ShapeError):
            compute_rhs(u, np.empty((grid.n_depth, grid.n_azimuth),
                                    dtype=complex))
        marcher, _ = make_marcher(make_config(grid=grid))
        for take in (marcher.to_modes, marcher.from_modes,
                     lambda u: range_step(marcher, u)):
            with pytest.raises(ShapeError):
                take(u)

    def test_grid_mismatch(self):
        self.rejects(np.zeros((4, 4), dtype=complex), make_grid())

    def test_must_be_matrix(self):
        self.rejects(np.zeros(8, dtype=complex), make_grid())

    @pytest.mark.parametrize("topology", [PERIODIC, SECTOR])
    def test_step_rejects_physical_slab(self, topology):
        # the march state is the mode slab, never the (n_azimuth, n_depth)
        # slab itself
        marcher, u = make_marcher(make_config(
            grid=make_grid(n_azimuth=8, n_depth=24, topology=topology)))
        with pytest.raises(ShapeError, match="mode slab"):
            range_step(marcher, u)
        assert range_step(marcher, marcher.to_modes(u)).shape \
            == marcher.work.shape

    @pytest.mark.parametrize("topology", [PERIODIC, SECTOR])
    def test_inverse_transform_checks_its_output(self, topology):
        # the inverse transform writes only a complex128 array of the mode
        # slab's shape: a float one would drop the imaginary parts
        marcher, u = make_marcher(make_config(
            grid=make_grid(n_azimuth=8, n_depth=24, topology=topology)))
        m = marcher.to_modes(u)
        shape = marcher.work.shape
        for out in (np.empty(shape), np.empty(shape, dtype=np.complex64),
                    np.empty(shape[::-1], dtype=complex),
                    np.empty((shape[0] - 1, shape[1]), dtype=complex)):
            with pytest.raises(ShapeError, match="output"):
                marcher.from_modes(m, out)


class TestModes:
    """The azimuth transforms and the eigenvalues they diagonalise Y with."""

    SHAPES = [(topology, n) for topology in (PERIODIC, SECTOR)
              for n in (3, 4, 7, 12)]

    @staticmethod
    def marcher(topology, n_azimuth, n_depth=6):
        grid = make_grid(n_azimuth=n_azimuth, n_depth=n_depth,
                         topology=topology)
        return make_marcher(make_config(grid=grid))[0]

    @pytest.mark.parametrize("topology,n_azimuth", SHAPES)
    def test_round_trip(self, topology, n_azimuth):
        # a sector transforms blocks of BLOCK_ROWS depth rows: one short
        # block, one whole block, or two whole blocks and a short one
        for n_depth in (BLOCK_ROWS - 5, BLOCK_ROWS, 2 * BLOCK_ROWS + 5):
            marcher = self.marcher(topology, n_azimuth, n_depth=n_depth)
            u = random_slab_values(np.random.default_rng(n_azimuth),
                                   marcher.grid)
            m = marcher.to_modes(u)
            assert m.shape == (n_depth, n_azimuth)
            back = marcher.from_modes(m)
            assert np.max(np.abs(back - u)) <= 1e-15 * n_azimuth, n_depth
            # in place, in the work array: the bits of the new array
            np.copyto(marcher.work, m)
            in_place = marcher.from_modes(marcher.work, marcher.work)
            assert np.shares_memory(in_place, marcher.work)
            assert in_place.tobytes() == back.tobytes(), n_depth

    @pytest.mark.parametrize("n_azimuth", [3, 4, 7, 12])
    def test_sector_edge_modes_stay_zero(self, n_azimuth):
        # a sector's mode slab has the work array's shape, and its edge
        # modes 0 and N - 1 are zero bits, after steps and the gain too
        marcher = self.marcher(SECTOR, n_azimuth, n_depth=24)
        u = random_slab_values(np.random.default_rng(5), marcher.grid,
                               dirichlet=False)
        m = marcher.to_modes(u)
        assert m.shape == marcher.work.shape
        gain = np.ones(n_azimuth, dtype=complex)
        for j in range(3):
            assert np.all(m[:, [0, -1]] == 0.0), j
            m = range_step(marcher, m)
            gain *= marcher.gain(j)
        assert np.all(np.isfinite(gain))
        assert np.all((m * gain)[:, [0, -1]] == 0.0)

    @pytest.mark.parametrize("n_azimuth", [3, 4, 7, 12])
    def test_sector_ignores_its_edge_modes(self, n_azimuth):
        # the inverse transform's bits do not depend on what modes 0 and
        # N - 1 hold
        marcher = self.marcher(SECTOR, n_azimuth, n_depth=BLOCK_ROWS + 5)
        m = marcher.to_modes(random_slab_values(np.random.default_rng(6),
                                                marcher.grid))
        want = marcher.from_modes(m).tobytes()
        for edge in (1.0 - 2.0j, np.nan, np.inf):
            m[:, [0, -1]] = edge
            assert marcher.from_modes(m).tobytes() == want, edge

    @pytest.mark.parametrize("topology,n_azimuth", SHAPES)
    def test_mode_is_eigenvector_of_Y(self, topology, n_azimuth):
        # a single mode comes back as an eigenvector of the azimuth
        # operator, with eigenvalue sigma lambda_k at any range
        marcher = self.marcher(topology, n_azimuth)
        grid, r = marcher.grid, 123.0
        sigma = azimuth_stencil(marcher.k0, r, grid.delta_theta)
        for k, eigenvalue in enumerate(marcher.eigenvalues):
            m = np.zeros(marcher.work.shape, dtype=complex)
            m[1:, k] = 1.0 + 0.5j
            u = marcher.from_modes(m)
            y = apply_Y(u, marcher.k0, r, grid.delta_theta, topology)
            # a sector's edge rows are identity equations, not rows of Y
            rows = slice(None) if topology == PERIODIC else slice(1, -1)
            assert np.max(np.abs(y - sigma * eigenvalue * u)[rows]) \
                <= 1e-14 * sigma * np.max(np.abs(u)), k

    @pytest.mark.parametrize("topology,n_azimuth", SHAPES)
    def test_dirichlet_rows_exactly_zero(self, topology, n_azimuth):
        # the surface row of a mode slab, and a sector's edge azimuths, are
        # zero bits in the slab that from_modes gives back, even after
        # steps and from any modes
        marcher = self.marcher(topology, n_azimuth, n_depth=24)
        u = random_slab_values(np.random.default_rng(3), marcher.grid)
        m = marcher.to_modes(u)
        for j in range(3):
            m = whole_step(marcher, m, j)
        assert np.all(m[0] == 0.0)
        assert np.all(marcher.from_modes(m)[:, 0] == 0.0)
        if topology == SECTOR:
            noise = np.random.default_rng(4).standard_normal(m.shape) + 0j
            for modes in (m, noise):
                assert np.all(marcher.from_modes(modes)[[0, -1]] == 0.0)

    def test_gain_at_midpoint_range(self):
        # the gain of step j is rho g_j, with g_j taking sigma at
        # r_j + delta_r / 2, for every step of a long march
        grid = make_grid(n_range=200, n_azimuth=12, n_depth=8,
                         topology=SECTOR)
        marcher = make_marcher(make_config(grid=grid))[0]
        coeffs = marcher.coeffs
        for j in (0, 63, 64, 65, 130, 199):
            sigma = azimuth_stencil(marcher.k0, grid.r_start
                                    + (j + 0.5) * grid.delta_r,
                                    grid.delta_theta)
            g = 2.0 / (1.0 + coeffs.cy_lhs * (sigma * marcher.eigenvalues)) \
                - 1.0
            want = (coeffs.cx_rhs / coeffs.cx_lhs) * g
            assert marcher.gain(j).tobytes() == want.tobytes(), j
            # lossless: the azimuth half-step is unitary per mode
            assert np.max(np.abs(np.abs(g) - 1.0)) <= 1e-15


class TestRangeStep:
    def test_delta_zero_identity_bitwise(self):
        rng = np.random.default_rng(5)
        config = make_config(n_azimuth=8, n_depth=24)
        values = random_slab_values(rng, config.grid)
        marcher, u = make_marcher(config, slab_values=values, delta_r=0.0)
        m = marcher.to_modes(u)
        before = m.copy()  # the step writes its mode slab
        assert range_step(marcher, m).tobytes() == before.tobytes()
        assert whole_step(marcher, m, 0).tobytes() == before.tobytes()

    @pytest.mark.parametrize("topology", [PERIODIC, SECTOR])
    def test_input_left_unchanged(self, topology):
        # the step writes its mode slab, with the bits of m + y computed
        # apart, and leaves the marcher's factors and eigenvalues, which
        # every later step reuses, as they were; also from a mode slab
        # whose surface row is not zero
        config = make_config(grid=make_grid(topology=topology))
        values = random_slab_values(np.random.default_rng(9), config.grid,
                                    dirichlet=False)
        marcher, u = make_marcher(config, slab_values=values)
        m = marcher.to_modes(u)
        fixed = (marcher.depth.mu, marcher.depth.cp, marcher.depth.inv,
                 marcher.eigenvalues)
        kept = [a.copy() for a in fixed]
        want = m + solve_batch(SolveBatch(marcher.depth, m))
        assert range_step(marcher, m) is m
        assert m.tobytes() == want.tobytes()
        for now, before in zip(fixed, kept):
            assert now.tobytes() == before.tobytes()

    def test_advances_range_and_index(self):
        # a step from index j takes the gain of its own midpoint range;
        # each step here starts from a copy of the same mode slab
        config = make_config(n_azimuth=6, n_depth=24)
        values = random_slab_values(np.random.default_rng(8), config.grid)
        marcher, _ = make_marcher(config)
        m = marcher.to_modes(values)
        first = whole_step(marcher, m.copy(), 0)
        assert first.shape == m.shape
        assert not np.array_equal(first, m)
        assert not np.array_equal(whole_step(marcher, m.copy(), 1), first)

    def test_step_beyond_grid_rejected(self):
        # a step index is one of 0 .. n_range - 1 for the gain it takes
        marcher, _ = make_marcher(make_config(n_range=3))
        for j in range(3):
            marcher.gain(j)
        for j in (-1, 3, 4):
            with pytest.raises(DomainError, match="n_range"):
                marcher.gain(j)

    def test_azimuth_symmetry_preserved_one_step(self):
        config = make_config(n_azimuth=16, n_depth=48)
        out = physical_step(*make_marcher(config), 0)
        mags = np.abs(out)
        spread = (mags.max(axis=0) - mags.min(axis=0)).max()
        assert spread <= 1e-12 * mags.max()

    def test_surface_zero_after_step(self):
        config = make_config()
        out = physical_step(*make_marcher(config), 0)
        assert np.all(out[:, 0] == 0.0)

    def test_dense_step_oracle_three_by_three(self):
        # full step on a 3x3 slab vs the dense 9x9 factorization
        config, u0, ref = dense_step_case(6)
        marcher, u = make_marcher(config, slab_values=u0.copy())
        out = physical_step(marcher, u, 0)
        assert np.max(np.abs(out - ref)) <= 1e-10 * np.max(np.abs(ref))

    @pytest.mark.parametrize("topology", [PERIODIC, SECTOR])
    def test_dense_depth_half_oracle(self, topology):
        # with cy_lhs = cy_rhs = 0 the azimuth half-step is the identity,
        # so a step is its depth half, (I + cx_lhs X^)^-1 (I + cx_rhs X^) u,
        # X^ the depth operator on every azimuth, its surface rows zero
        rng = np.random.default_rng(21)
        grid = make_grid(n_azimuth=4, n_depth=9, delta_z=7.0,
                         topology=topology)
        profile = SoundSpeedProfile(np.array([0.0, 20.0, grid.depth_extent]),
                                    np.array([1500.0, 1470.0, 1530.0]))
        env = make_env(grid, profile=profile, attenuation=0.05, start_frac=0.5)
        k0 = wavenumber(50.0, env.c0)
        coeffs = replace(StepCoefficients.for_step(k0, grid.delta_r),
                         cy_lhs=0j, cy_rhs=0j)
        u0 = random_slab_values(rng, grid)
        out = physical_step(Marcher(grid, env, k0, coeffs), u0.copy(), 0)

        n = grid.n_depth
        s_z = 1.0 / (k0 * grid.delta_z) ** 2
        local = refraction_index_grid(env, grid).astype(complex) ** 2 - 1.0
        x_depth = np.diag(local - 2.0 * s_z) \
            + s_z * (np.eye(n, k=1) + np.eye(n, k=-1))
        x_depth[0] = 0.0
        x_hat = np.kron(np.eye(grid.n_azimuth), x_depth)
        eye = np.eye(x_hat.shape[0])
        ref = np.linalg.solve(eye + coeffs.cx_lhs * x_hat,
                              (eye + coeffs.cx_rhs * x_hat) @ u0.ravel())
        assert np.max(np.abs(out.ravel() - ref)) \
            <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("topology", [PERIODIC, SECTOR])
    def test_step_matches_fold_oracle(self, topology):
        # the pre-scaled solve and its add are the unfolded sum form
        # rho^-1 (rho m + (1 - rho) A^-1 m), A^-1 by the dense oracle; on
        # 37 depth rows, which 2, 3 and 7 threads split unevenly, with the
        # one-thread bits
        grid = make_grid(n_azimuth=12, n_depth=37, topology=topology)
        profile = SoundSpeedProfile(np.array([0.0, 60.0, grid.depth_extent]),
                                    np.array([1500.0, 1470.0, 1530.0]))
        env = make_env(grid, profile=profile, attenuation=0.05, start_frac=0.5)
        k0 = wavenumber(50.0, env.c0)
        coeffs = StepCoefficients.for_step(k0, grid.delta_r)
        marchers = [Marcher(grid, env, k0, coeffs, threads)
                    for threads in (1, 2, 3, 7)]
        m = marchers[0].to_modes(random_slab_values(
            np.random.default_rng(23), grid))
        steps = [range_step(marcher, m.copy()) for marcher in marchers]
        assert relative_error(steps[0], fold_oracle(marchers[0], m)) \
            <= ORACLE_TOLERANCE
        assert all(step.tobytes() == steps[0].tobytes() for step in steps)

    def test_singular_solve_becomes_step_error(self):
        config = make_config(n_azimuth=4, n_depth=8, delta_z=1.0)
        grid, env, source, _ = config
        # hand-built coefficients making the depth diagonal exactly zero
        coeffs = StepCoefficients(delta=1j, cx_lhs=0.125 + 0.0j,
                                  cx_rhs=0.375 + 0.0j, cy_lhs=0.0j,
                                  cy_rhs=0.0j)
        k0 = 0.5  # s_z = 4, diag = 1 + 0.125 * (0 - 8) = 0
        # the depth factors are fixed per frequency: the marcher raises the
        # error of the first step, which would solve with them
        with pytest.raises(StepError) as info:
            Marcher(grid, env, k0, coeffs)
        assert info.value.sweep == "depth"
        assert info.value.range_index == 1


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


def medium_grid(env, grid):
    """n over the (azimuth x depth) grid: the depth profile broadcast over
    azimuth, as whole-grid expressions see it."""
    return np.broadcast_to(refraction_index_grid(env, grid),
                           (grid.n_azimuth, grid.n_depth))


def reference_depth_matrix(coeff, n_field, k0, delta_z):
    """The diagonals of (I + coeff X) over the whole (azimuth x depth)
    grid, one column per azimuth, from one whole-grid expression; the
    surface row is the identity equation.

    The product is written ``(...) * coeff``, as numpy evaluates the
    whole-grid ``coeff * (...)`` on a grid of 256 KiB or more;
    :meth:`TestReferenceStepper.test_depth_matrix_has_whole_grid_bits`
    pins that expression itself."""
    s = 1.0 / (k0 * delta_z) ** 2
    local = np.asarray(n_field, dtype=np.complex128) ** 2 - 1.0
    main = np.ascontiguousarray(
        (1.0 + np.multiply(local - 2.0 * s, coeff)).T)
    sub = np.full((main.shape[0] - 1, main.shape[1]), np.complex128(coeff * s))
    sup = sub.copy()
    main[0] = 1.0
    sup[0] = 0.0
    return sub, main, sup


def reference_step(u, j, grid, env, k0, coeffs):
    """One range step from the slab ``u`` at range index ``j``, with the
    matrices assembled in every step: the plain form of the scheme the
    marcher takes in azimuth modes, solving in physical azimuth, as FOR3D
    does, with Y at the step's midpoint range.  The depth half-step takes a
    matrix per azimuth, the azimuth half-step one dense solve of
    (I + cy_lhs Y) and one step of iterative refinement, which keeps a
    sector's worse-conditioned matrix to the margin of the periodic one.
    Both take the sum form: the depth one is t + (1 - rho)(s - t) with
    (I + cx_lhs X) s = t and rho = cx_rhs / cx_lhs, the azimuth one
    2 w - v with (I + cy_lhs Y) w = v.  It zeroes the Dirichlet rows of
    the slab it returns, which the marcher's matrices keep zero instead."""
    depth = reference_depth_matrix(coeffs.cx_lhs, medium_grid(env, grid), k0,
                                   grid.delta_z)
    t = np.ascontiguousarray(u.T)
    s = _reference_open(*depth, t)
    weight = (coeffs.cx_lhs - coeffs.cx_rhs) / coeffs.cx_lhs
    v = np.ascontiguousarray((t + (s - t) * weight).T)
    azimuth = assemble_azimuth_batch(
        coeffs.cy_lhs, k0, grid.range_at(j + 0.5), grid.delta_theta,
        grid.azimuth_topology, grid.n_azimuth)
    if grid.azimuth_topology == SECTOR:
        v[0] = 0.0
        v[-1] = 0.0
    w = np.linalg.solve(azimuth, v)
    w += np.linalg.solve(azimuth, v - azimuth @ w)
    return zero_dirichlet_rows(2.0 * w - v, grid)


class TestReferenceStepper:
    """The mode march against the physical reference step, solved in
    depth and in azimuth, to ``ORACLE_TOLERANCE``; and bitwise against
    itself at any thread count.

    The grids are larger than numpy's 256 KiB threshold for evaluating
    temporaries in place, where the reference's products by a temporary
    run with swapped operands: the solver's one depth profile must give
    the bits of whole-grid expressions there.  Their 256 depth rows split
    unevenly into 3 and 7 thread blocks, so some blocks of the step's
    passes start at an odd element offset; 73 azimuths is an odd mode
    count, and 71 sine modes on the sector.
    """

    @staticmethod
    def config(topology):
        grid = make_grid(n_range=5, n_azimuth=73, n_depth=256,
                         topology=topology)
        profile = SoundSpeedProfile(
            np.array([0.0, 300.0, grid.depth_extent]),
            np.array([1500.0, 1480.0, 1530.0]))
        env = make_env(grid, profile=profile, attenuation=0.02)
        return make_config(grid=grid, env=env)

    def test_depth_matrix_has_whole_grid_bits(self):
        # each column of the depth matrix that one whole-grid expression
        # assembles over the broadcast medium has the bits of the solver's
        # one matrix
        grid, env, _, _ = self.config(PERIODIC)
        k0 = wavenumber(50.0, env.c0)
        coeff = StepCoefficients.for_step(k0, grid.delta_r).cx_lhs
        s = 1.0 / (k0 * grid.delta_z) ** 2
        local = medium_grid(env, grid).astype(complex) ** 2 - 1.0
        whole = 1.0 + coeff * (local - 2.0 * s)
        main = assemble_depth_batch(coeff, refraction_index_grid(env, grid),
                                    k0, grid.delta_z).main[1:, 0]
        for row in whole:
            assert row[1:].tobytes() == main.tobytes()

    @pytest.mark.parametrize("threads", [1, 2, 3, 7])
    @pytest.mark.parametrize("topology", [PERIODIC, SECTOR])
    def test_range_step_bitwise(self, topology, threads):
        # every step has the bits of the one-thread march, and its slab
        # that of the reference to rounding
        config = self.config(topology)
        grid, env, _, _ = config
        assert grid.n_azimuth * grid.n_depth * 16 > 256 * 1024
        k0 = wavenumber(50.0, env.c0)
        coeffs = StepCoefficients.for_step(k0, grid.delta_r)
        values = random_slab_values(np.random.default_rng(77), grid)
        marcher = Marcher(grid, env, k0, coeffs, threads)
        serial = Marcher(grid, env, k0, coeffs)
        m = marcher.to_modes(values)
        one = m.copy()
        reference = values.copy()
        for j in range(5):
            m = whole_step(marcher, m, j)
            one = whole_step(serial, one, j)
            assert m.tobytes() == one.tobytes()
            reference = reference_step(reference, j, grid, env, k0, coeffs)
            assert relative_error(marcher.from_modes(m), reference) \
                <= ORACLE_TOLERANCE

    @pytest.mark.parametrize("threads", [1, 2, 3, 7])
    @pytest.mark.parametrize("topology", [PERIODIC, SECTOR])
    def test_run_frequency_bitwise(self, topology, threads, monkeypatch):
        # the TL has the bits of the one-thread run; the field it is made
        # from at each recorded range is the reference's: the starter's
        # bitwise (it is recorded before the march goes to modes), the
        # rest to rounding
        config = self.config(topology)
        grid, env, source, _ = config
        fields = []

        def recorded(u, *args, **kwargs):
            fields.append(u.copy())
            return transmission_loss_field(u, *args, **kwargs)

        monkeypatch.setattr(marching_module, "transmission_loss_field",
                            recorded)
        result = run_frequency(config, 50.0, threads)
        monkeypatch.undo()
        serial = run_frequency(config, 50.0, 1)
        assert result.tl_field.tobytes() == serial.tl_field.tobytes()
        k0 = wavenumber(50.0, env.c0)
        coeffs = StepCoefficients.for_step(k0, grid.delta_r)
        chain = [gaussian_starter(grid, source, k0)]
        for j in range(grid.n_range):
            chain.append(reference_step(chain[-1], j, grid, env, k0, coeffs))
        indices = range(0, grid.n_range + 1, result.output_stride)
        assert result.ranges.tolist() == [grid.range_at(j) for j in indices]
        assert len(fields) == len(indices)
        assert fields[0].tobytes() == chain[0].tobytes()
        for j, u in zip(indices, fields):
            assert relative_error(u, chain[j]) <= ORACLE_TOLERANCE


    @pytest.mark.parametrize("topology,shape", [
        pytest.param(topology, shape, id=topology if shape == (12, 24)
                     else f"{topology}-{shape[0]}x{shape[1]}")
        for shape in [(12, 24), (3, 3), (3, 129), (5, 7), (8, 129), (97, 5)]
        for topology in (PERIODIC, SECTOR)])
    def test_across_azimuth_blocks(self, topology, shape):
        # a march on narrow and odd (n_azimuth, n_depth) shapes matches
        # the reference: down to one sine mode, and to thread blocks of
        # one depth row, with the one-thread bits
        grid = make_grid(n_range=12, n_azimuth=shape[0], n_depth=shape[1],
                         topology=topology)
        config = make_config(grid=grid)
        env = config.environment
        k0 = wavenumber(50.0, env.c0)
        coeffs = StepCoefficients.for_step(k0, grid.delta_r)
        values = random_slab_values(np.random.default_rng(78), grid)
        marchers = [Marcher(grid, env, k0, coeffs, threads)
                    for threads in (1, 2, 3, 7)]
        modes = [marcher.to_modes(values) for marcher in marchers]
        reference = values.copy()
        for j in range(grid.n_range):
            modes = [whole_step(marcher, m, j)
                     for marcher, m in zip(marchers, modes)]
            reference = reference_step(reference, j, grid, env, k0, coeffs)
        assert all(m.tobytes() == modes[0].tobytes() for m in modes)
        assert relative_error(marchers[0].from_modes(modes[0]), reference) \
            <= ORACLE_TOLERANCE


class TestStepArrays:
    """A step streams through the marcher's work array: it builds no
    stencil, factors nothing, advances its mode slab in place, allocating
    nothing slab-sized, and substitutes its one sweep whole on the calling
    thread."""

    @staticmethod
    def stepped(topology, threads=1):
        grid = make_grid(n_range=8, n_azimuth=72, n_depth=256,
                         topology=topology)
        marcher, u = make_marcher(make_config(
            grid=grid, options=RunOptions(threads=threads)))
        return marcher, range_step(marcher, marcher.to_modes(u))

    @staticmethod
    def traced_step(marcher, m):
        """``range_step(marcher, m)`` and the peak of what it allocates,
        in bytes."""
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            new = range_step(marcher, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return new, peak - before

    @pytest.mark.parametrize("topology,threads", [
        pytest.param(topology, threads, id=topology if threads == 1
                     else f"{topology}-{threads}-threads")
        for threads in (1, 2) for topology in (PERIODIC, SECTOR)])
    def test_step_allocates_one_slab(self, topology, threads):
        # nothing slab-sized: numpy's iteration buffer of np.getbufsize()
        # complex values (128 KiB), which the solve's pre-scale broadcasts
        # through, and small arrays; measured 0.45 of this mode slab on
        # both topologies, on 1 and 2 threads
        marcher, m = self.stepped(topology, threads)
        _, peak = self.traced_step(marcher, m)
        assert peak <= 0.5 * m.nbytes

    @pytest.mark.parametrize("topology", [PERIODIC, SECTOR])
    def test_step_factors_nothing(self, topology, monkeypatch):
        # no step assembles or factors a matrix, nor transforms its slab
        grid = make_grid(n_range=12, n_azimuth=12, n_depth=24,
                         topology=topology)

        def forbidden(*args, **kwargs):
            raise AssertionError("called by a range step")

        marcher, u = make_marcher(make_config(grid=grid))
        m = marcher.to_modes(u)
        with monkeypatch.context() as patch:
            for name in ("factor", "assemble_azimuth_batch",
                         "assemble_depth_batch", "refraction_index_grid",
                         "compute_rhs"):
                patch.setattr(marching_module, name, forbidden)
            patch.setattr(np, "fft", None)
            for j in range(grid.n_range):
                m = whole_step(marcher, m, j)

    @pytest.mark.parametrize("topology", [PERIODIC, SECTOR])
    def test_marcher_retains_no_medium_grid(self, topology):
        # the work array is one slab; the medium, the depth factors and
        # the eigenvalues are depth profiles or azimuth rows
        grid = make_grid(n_range=8, n_azimuth=72, n_depth=256,
                         topology=topology)
        config = make_config(grid=grid)
        k0 = wavenumber(50.0, config.environment.c0)
        coeffs = StepCoefficients.for_step(k0, grid.delta_r)
        slab_bytes = grid.n_azimuth * grid.n_depth * 16
        tracemalloc.start()
        try:
            marcher = Marcher(grid, config.environment, k0, coeffs)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert marcher.depth.width == 1
        assert retained <= 2.25 * slab_bytes

    @pytest.mark.parametrize("topology", [PERIODIC, SECTOR])
    def test_march_frees_each_slab_it_has_stepped_from(self, topology):
        # besides its TL grid, a march holds two slabs: the marcher's
        # work array, which takes the starter, every step's solve and
        # every record's inverse transform, and the mode slab, which the
        # steps advance in place.  The rest is the solve's 128 KiB
        # iteration buffer (0.44 of this slab), the factors and small
        # arrays: measured 2.69 slabs on both topologies (a sector's odd
        # extension and its spectrum are BLOCK_ROWS rows tall); the
        # bound leaves 0.06
        grid = make_grid(n_range=8, n_azimuth=72, n_depth=256,
                         topology=topology)
        config = make_config(grid=grid)
        slab_bytes = grid.n_azimuth * grid.n_depth * 16
        run_frequency(config, 50.0)  # numpy.fft loads on its first use
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = run_frequency(config, 50.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before - result.tl_field.nbytes <= 2.75 * slab_bytes

    @pytest.mark.parametrize("topology", [PERIODIC, SECTOR])
    def test_step_substitutes_each_sweep_whole(self, topology, monkeypatch):
        # at 2 threads the threads split the add only: the
        # depth sweep is one full-width substitution, on the calling thread
        marcher, u = self.stepped(topology, threads=2)
        calls = []
        substitute = tridiag_module._substitute_open

        def recorded(cp, mu, inv, rhs, x):
            calls.append((x.shape, threading.get_ident()))
            return substitute(cp, mu, inv, rhs, x)

        monkeypatch.setattr(tridiag_module, "_substitute_open", recorded)
        range_step(marcher, u)
        assert calls == [(marcher.work.shape, threading.get_ident())]

    def test_new_slab_owns_its_memory(self):
        # the step advances its mode slab in place: it returns its input,
        # which shares no memory with the marcher's work array, and
        # allocates nothing slab-sized
        for topology in (PERIODIC, SECTOR):
            marcher, m = self.stepped(topology)
            assert not np.shares_memory(m, marcher.work)
            new, peak = self.traced_step(marcher, m)
            assert new is m
            assert peak < m.nbytes / 2, topology


class TestNormInvariants:
    """Each sweep of a lossless step is a Crank-Nicolson step with a real
    symmetric operator: X, and Y at the step's midpoint range on both
    sides.  The step is unitary, so the discrete L2 norm of any field is
    conserved to rounding, on periodic and sector grids.  The absorber
    makes every step a strict contraction.  The norms are taken on the
    mode slab of whole steps, the gain included (``whole_step``): the
    transforms scale the norm by a constant (Parseval)."""

    @staticmethod
    def norms(attenuation, topology=PERIODIC, uniform=True):
        """L2 norms of 400 steps from a random field in a random
        sound-speed profile on an 8 x 129 grid: the same column at every
        azimuth when ``uniform``, else random at every point."""
        rng = np.random.default_rng(41)
        grid = make_grid(n_range=400, n_azimuth=8, n_depth=129,
                         topology=topology)
        knots = np.linspace(0.0, grid.depth_extent, 6)
        profile = SoundSpeedProfile(knots, 1500.0 + 20.0 * rng.standard_normal(6))
        env = make_env(grid, profile=profile, attenuation=attenuation)
        column = rng.standard_normal(grid.n_depth) \
            + 1j * rng.standard_normal(grid.n_depth)
        values = np.tile(column, (grid.n_azimuth, 1)) if uniform \
            else random_slab_values(rng, grid)
        zero_dirichlet_rows(values, grid)
        k0 = wavenumber(50.0, env.c0)
        marcher = Marcher(grid, env, k0, StepCoefficients.for_step(k0, grid.delta_r))
        m = marcher.to_modes(values)
        norms = [np.linalg.norm(m)]
        for j in range(grid.n_range):
            m = whole_step(marcher, m, j)
            norms.append(np.linalg.norm(m))
        moved = relative_error(marcher.from_modes(m), values)
        return np.array(norms), moved

    # (topology, uniform in azimuth): a field that varies in azimuth also
    # meets Y, whose two sides must be one matrix for the step to be unitary
    FIELDS = [(PERIODIC, True), (PERIODIC, False), (SECTOR, False)]

    def test_lossless_norm_conserved(self):
        for field in self.FIELDS:
            norms, moved = self.norms(0.0, *field)
            assert moved > 0.5, field  # the field did evolve
            assert np.max(np.abs(norms / norms[0] - 1.0)) <= 1e-12, field

    def test_absorber_norm_decreases_every_step(self):
        for field in self.FIELDS:
            norms, _ = self.norms(0.01, *field)
            assert np.all(np.diff(norms) < 0.0), field


class TestMarch:
    """The one loop that steps in modes, keeps the gain G and transforms
    back at recorded ranges, for the run and for the closed-form gates."""

    @pytest.mark.parametrize("stride", [1, 3, 4, 10])
    def test_yields_every_stride_steps(self, stride):
        # the first slab is the start itself; every later one is the
        # marcher's work array, transformed back in place
        marcher, u = make_marcher(make_config(n_range=10, n_azimuth=6,
                                              n_depth=24))
        yielded = list(march(marcher, u, stride))
        assert [j for j, _ in yielded] == list(range(0, 11, stride))
        assert len(yielded) == 10 // stride + 1
        assert yielded[0][1] is u
        for _, slab in yielded[1:]:
            assert np.shares_memory(slab, marcher.work)

    @pytest.mark.parametrize("topology", [PERIODIC, SECTOR])
    def test_consumed_by_hand_gives_the_run(self, topology):
        config = make_config(grid=make_grid(n_range=7, topology=topology),
                             options=RunOptions(output_stride=2))
        marcher, u = make_marcher(config)
        tl = [transmission_loss_field(slab, hankel_factor(
                  marcher.k0, config.grid.range_at(j)))[0]
              for j, slab in march(marcher, u, 2)]
        run = run_frequency(config, 50.0)
        assert np.array(tl).tobytes() == run.tl_field.tobytes()


class TestRunFrequency:
    def test_rerun_bitwise_identical(self):
        config = make_config(n_range=6, n_azimuth=8, n_depth=32)
        first = run_frequency(config, 50.0)
        second = run_frequency(config, 50.0)
        assert first.tl_field.tobytes() == second.tl_field.tobytes()
        assert np.array_equal(first.ranges, second.ranges)

    def test_unknown_frequency_rejected(self):
        config = make_config(frequencies=(50.0,))
        with pytest.raises(DomainError, match="not one of the source"):
            run_frequency(config, 60.0)

    @pytest.mark.parametrize("threads", [0, -1])
    def test_thread_count_checked_before_set_up(self, monkeypatch, threads):
        # the count given as an argument meets RunOptions' rule, before
        # the marcher is built
        def no_set_up(*args):
            raise AssertionError("set-up ran")

        monkeypatch.setattr(marching_module, "Marcher", no_set_up)
        with pytest.raises(InvariantError, match="threads >= 1"):
            run_frequency(make_config(n_range=4), 50.0, threads)

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

    def test_marches_n_range_steps(self):
        config = make_config(n_range=5, delta_r=5.0, r_start=5.0,
                             options=RunOptions(output_stride=1))
        result = run_frequency(config, 50.0)
        assert result.ranges.tolist() == [5.0, 10.0, 15.0, 20.0, 25.0, 30.0]
        assert result.tl_field.shape[0] == 6

    def test_no_blowup_with_absorber(self):
        config = make_config(n_range=100, n_azimuth=8, n_depth=64,
                             delta_z=4.0, source_depth=100.0)
        starter_max = math.sqrt(wavenumber(50.0, config.environment.c0))
        result = run_frequency(config, 50.0)
        # |u| <= 10 starter_max at every recorded range, as TL of u * w(r)
        floor = -20.0 * np.log10(10.0 * starter_max / np.sqrt(result.ranges))
        assert np.all(result.tl_field.min(axis=(1, 2)) >= floor)

    def test_tl_field_finite(self):
        config = make_config(n_range=5)
        result = run_frequency(config, 50.0)
        assert np.all(np.isfinite(result.tl_field))

    def test_nonfinite_field_fails_at_recorded_range(self, monkeypatch):
        # a NaN after step 3 spreads through the march; the first recorded
        # range after it (stride 2: step 4) stops the frequency
        options = RunOptions(output_stride=2)
        config = make_config(n_range=8, options=options)
        real_step = marching_module.range_step
        steps = []

        def poisoned_step(marcher, m):
            new = real_step(marcher, m)
            steps.append(None)
            if len(steps) == 3:
                new[2, 5] = np.nan
            return new

        monkeypatch.setattr(marching_module, "range_step", poisoned_step)
        with pytest.raises(StepError) as info:
            run_frequency(config, 50.0)
        assert info.value.range_index == 4 and info.value.sweep is None
        assert "non-finite" in str(info.value)

