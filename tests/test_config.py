import math
import textwrap

import pytest

from pe3d.config import Config, RunOptions, load_config
from pe3d.environment import PERIODIC
from pe3d.errors import ConfigError, InvariantError
from pe3d.pool import ExecutorSpec

MINIMAL = """\
[grid]
n_range = 20
n_azimuth = 8
n_depth = 101
delta_r = 50.0
delta_theta = 45.0
delta_z = 60.0

[environment]
c0 = 1500.0
sound_speed = 1500.0
water_depth = 6000.0

[source]
frequencies = 50.0
depth = 100.0
"""


def write_config(tmp_path, text, name="case.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadConfig:
    def test_minimal_homogeneous_case(self, tmp_path):
        config = load_config(write_config(tmp_path, MINIMAL))
        grid, env, source, options = config
        assert grid.n_depth == 101
        assert grid.azimuth_topology == PERIODIC
        assert grid.delta_theta == pytest.approx(math.radians(45.0), rel=1e-15)
        assert grid.r_start == 50.0  # defaults to delta_r
        assert env.c0 == 1500.0
        assert env.sound_speed(123.0) == 1500.0
        assert env.water_depth == 6000.0
        assert env.bottom_depth == grid.depth_extent
        assert source.frequencies == (50.0,)
        assert source.depth == 100.0
        assert options.executor == ExecutorSpec(1, 1)
        assert isinstance(config, Config)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.ini")

    def test_parse_failure_has_line_info(self, tmp_path):
        path = write_config(tmp_path, "[grid]\nthis line has no equals sign\n")
        with pytest.raises(ConfigError, match="line"):
            load_config(path)

    def test_missing_section(self, tmp_path):
        path = write_config(tmp_path, "[grid]\nn_range = 5\n")
        with pytest.raises(ConfigError, match=r"\[environment\]"):
            load_config(path)

    def test_missing_field_named(self, tmp_path):
        text = MINIMAL.replace("delta_z = 60.0\n", "")
        with pytest.raises(ConfigError, match="delta_z"):
            load_config(write_config(tmp_path, text))

    def test_non_numeric_field_named(self, tmp_path):
        text = MINIMAL.replace("delta_r = 50.0", "delta_r = fast")
        with pytest.raises(ConfigError, match="delta_r"):
            load_config(write_config(tmp_path, text))

    def test_zero_delta_z_names_constraint(self, tmp_path):
        text = MINIMAL.replace("delta_z = 60.0", "delta_z = 0.0")
        with pytest.raises(InvariantError, match="delta_z > 0"):
            load_config(write_config(tmp_path, text))

    def test_broken_periodicity_names_constraint(self, tmp_path):
        # 8 azimuth points at 22.5 degrees only closes half the circle
        text = MINIMAL.replace("delta_theta = 45.0", "delta_theta = 22.5")
        with pytest.raises(InvariantError, match="periodic closure"):
            load_config(write_config(tmp_path, text))

    def test_source_depth_inside_water_column(self, tmp_path):
        text = MINIMAL.replace("depth = 100.0", "depth = 7000.0")
        with pytest.raises(InvariantError, match="source depth < water_depth"):
            load_config(write_config(tmp_path, text))

    def test_inline_profile(self, tmp_path):
        text = MINIMAL.replace(
            "sound_speed = 1500.0",
            "sound_speed_profile =\n    0 1500\n    3000 1480\n    6000 1520",
        )
        config = load_config(write_config(tmp_path, text))
        assert config.environment.sound_speed(1500.0) == pytest.approx(1490.0)

    def test_profile_file(self, tmp_path):
        (tmp_path / "ssp.txt").write_text("0 1500\n6000 1480\n")
        text = MINIMAL.replace("sound_speed = 1500.0",
                               "sound_speed_file = ssp.txt")
        config = load_config(write_config(tmp_path, text))
        assert config.environment.sound_speed(3000.0) == pytest.approx(1490.0)

    def test_bad_profile_line_reported(self, tmp_path):
        text = MINIMAL.replace(
            "sound_speed = 1500.0",
            "sound_speed_profile =\n    0 1500\n    oops",
        )
        with pytest.raises(ConfigError, match="line 2"):
            load_config(write_config(tmp_path, text))

    def test_run_section(self, tmp_path):
        text = MINIMAL + textwrap.dedent("""
            [run]
            output_dir = results
            output_stride = 4
            tl_format = binary-grid
            threads = 2
            workers = 3
            max_range = 400.0
            schedule = dynamic
        """)
        options = load_config(write_config(tmp_path, text)).options
        assert options.output_stride == 4
        assert options.tl_format == "binary-grid"
        assert options.executor == ExecutorSpec(2, 3)
        assert options.max_range == 400.0
        assert not hasattr(options, "schedule")  # an unknown key is ignored

    def test_inline_comments_allowed(self, tmp_path):
        text = MINIMAL.replace("delta_r = 50.0", "delta_r = 50.0  ; meters")
        assert load_config(write_config(tmp_path, text)).grid.delta_r == 50.0

    def test_absorber_defaults(self, tmp_path):
        config = load_config(write_config(tmp_path, MINIMAL))
        grid, env = config.grid, config.environment
        assert env.absorber.start_depth == pytest.approx(0.75 * grid.depth_extent)
        assert env.absorber.max_attenuation == 0.01


class TestRunOptions:
    def test_stride_validated(self):
        with pytest.raises(InvariantError, match="output_stride >= 1"):
            RunOptions(output_stride=0)

    def test_format_validated(self):
        with pytest.raises(InvariantError, match="tl_format"):
            RunOptions(tl_format="hdf5")

    def test_executor_counts_validated(self):
        with pytest.raises(InvariantError, match="intra_threads >= 1"):
            ExecutorSpec(intra_threads=0)
        with pytest.raises(InvariantError, match="freq_workers >= 1"):
            ExecutorSpec(freq_workers=0)
