import configparser
import dataclasses
import math
import textwrap
from pathlib import Path

import pytest

from conftest import make_config, make_env, make_grid
from pe3d.config import Config, RunOptions, load_config
from pe3d.environment import PERIODIC
from pe3d.errors import ConfigError, InvariantError

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
        assert env.profile.speed_at(123.0) == 1500.0
        assert source.frequencies == (50.0,)
        assert source.depth == 100.0
        assert options == RunOptions()
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
        with pytest.raises(ConfigError, match="'delta_r': expected a number"):
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

    def test_source_depth_inside_grid(self, tmp_path):
        # the grid bottom of MINIMAL is 100 rows x 60 m = 6000 m
        for depth in ("0.0", "6000.0", "7000.0"):
            text = MINIMAL.replace("depth = 100.0", f"depth = {depth}")
            with pytest.raises(InvariantError,
                               match="0 < source depth < grid depth extent"):
                load_config(write_config(tmp_path, text))

    @pytest.mark.parametrize("anchor,key", [
        ("sound_speed = 1500.0", "water_depth = 50.0"),
        ("depth = 100.0", "starter = gaussian"),
    ], ids=["water_depth", "starter"])
    def test_key_that_sets_nothing_loads_the_same_config(self, tmp_path,
                                                         anchor, key):
        text = MINIMAL.replace(anchor, f"{anchor}\n{key}")
        with_key = load_config(write_config(tmp_path, text, "with.ini"))
        without = load_config(write_config(tmp_path, MINIMAL, "without.ini"))
        assert with_key == without

    def test_inline_profile(self, tmp_path):
        text = MINIMAL.replace(
            "sound_speed = 1500.0",
            "sound_speed_profile =\n    0 1500\n    3000 1480\n    6000 1520",
        )
        config = load_config(write_config(tmp_path, text))
        assert config.environment.profile.speed_at(1500.0) == pytest.approx(1490.0)

    def test_profile_file(self, tmp_path):
        (tmp_path / "ssp.txt").write_text("0 1500\n6000 1480\n")
        text = MINIMAL.replace("sound_speed = 1500.0",
                               "sound_speed_file = ssp.txt")
        config = load_config(write_config(tmp_path, text))
        assert config.environment.profile.speed_at(3000.0) == pytest.approx(1490.0)

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
            schedule = dynamic
        """)
        options = load_config(write_config(tmp_path, text)).options
        assert options == RunOptions(output_dir=Path("results"),
                                     output_stride=4, tl_format="binary-grid",
                                     threads=2, workers=3)
        assert not hasattr(options, "schedule")  # an unknown key is ignored

    def test_non_integer_run_key_named(self, tmp_path):
        text = MINIMAL + "\n[run]\nworkers = 2.5\n"
        with pytest.raises(ConfigError, match="'workers': expected an integer"):
            load_config(write_config(tmp_path, text))

    def test_readme_example_run_section(self, tmp_path):
        # the README's [run] block documents every RunOptions field, and
        # each value it shows lands on its field
        readme = Path(__file__).resolve().parents[1] / "README.md"
        example = readme.read_text().split("```ini\n", 1)[1].split("```", 1)[0]
        options = load_config(write_config(tmp_path, example)).options
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        parser.read_string(example)
        documented = dict(parser["run"])
        assert sorted(documented) == sorted(
            field.name for field in dataclasses.fields(RunOptions))
        assert {key: str(getattr(options, key)) for key in documented} \
            == documented
        assert options != RunOptions()

    def test_inline_comments_allowed(self, tmp_path):
        text = MINIMAL.replace("delta_r = 50.0", "delta_r = 50.0  ; meters")
        assert load_config(write_config(tmp_path, text)).grid.delta_r == 50.0

    def test_absorber_defaults(self, tmp_path):
        config = load_config(write_config(tmp_path, MINIMAL))
        grid, env = config.grid, config.environment
        assert env.absorber.start_depth == pytest.approx(0.75 * grid.depth_extent)
        assert env.absorber.max_attenuation == 0.01

    def test_absorber_above_grid_bottom(self, tmp_path):
        # the grid bottom of MINIMAL is 100 rows x 60 m = 6000 m
        for start in ("6000.0", "6060.0"):
            text = MINIMAL.replace(
                "sound_speed = 1500.0",
                f"sound_speed = 1500.0\nabsorber_start_depth = {start}")
            with pytest.raises(InvariantError,
                               match="absorber.start_depth < grid bottom depth"):
                load_config(write_config(tmp_path, text))


# Each sound-speed key of [environment], as the one line that replaces
# MINIMAL's ``sound_speed`` line; "ssp.txt" is written beside the config.
SOUND_SPEED_FORMS = {
    "sound_speed": "sound_speed = 1500.0",
    "sound_speed_profile": "sound_speed_profile =\n    0 1500\n    6000 1480",
    "sound_speed_file": "sound_speed_file = ssp.txt",
}


class TestConfigIsOneValue:
    """A ``Config`` compares and hashes by value, its medium included."""

    @staticmethod
    def load(tmp_path, form="sound_speed_profile", name="case.ini"):
        (tmp_path / "ssp.txt").write_text("0 1500\n6000 1480\n")
        text = MINIMAL.replace("sound_speed = 1500.0", SOUND_SPEED_FORMS[form])
        return load_config(write_config(tmp_path, text, name))

    @pytest.mark.parametrize("form", SOUND_SPEED_FORMS)
    def test_one_file_loads_equal_configs(self, tmp_path, form):
        first = self.load(tmp_path, form)
        second = self.load(tmp_path, form)
        assert first is not second and first == second
        assert hash(first) == hash(second)

    def test_profile_holds_floats(self, tmp_path):
        profile = self.load(tmp_path).environment.profile
        assert profile.depths == (0.0, 6000.0)
        assert profile.speeds == (1500.0, 1480.0)
        assert all(type(v) is float for v in profile.depths + profile.speeds)

    @pytest.mark.parametrize("field,change", [
        ("profile", {"speeds": (1500.0, 1481.0)}),
        ("absorber", {"max_attenuation": 0.02}),
    ], ids=["one-profile-sample", "absorber"])
    def test_one_changed_value_changes_the_config(self, tmp_path, field,
                                                  change):
        config = self.load(tmp_path)
        env = config.environment
        part = dataclasses.replace(getattr(env, field), **change)
        changed = dataclasses.replace(
            config, environment=dataclasses.replace(env, **{field: part}))
        assert changed != config

    def test_config_is_a_dict_key(self, tmp_path):
        runs = {self.load(tmp_path, name="a.ini"): "first"}
        runs[self.load(tmp_path, name="b.ini")] = "second"
        runs[self.load(tmp_path, "sound_speed")] = "uniform"
        assert list(runs.values()) == ["second", "uniform"]


class TestConfigRules:
    """A ``Config`` built by hand or by ``dataclasses.replace`` obeys the
    rules of a loaded one, with the texts ``pe3d run`` prints."""

    @staticmethod
    def assert_rejected(valid, expected, **parts):
        with pytest.raises(InvariantError, match=expected):
            Config(**{**vars(valid), **parts})
        with pytest.raises(InvariantError, match=expected):
            dataclasses.replace(valid, **parts)

    @pytest.mark.parametrize("start_frac", [1.0, 1.5],
                             ids=["at-bottom", "below-bottom"])
    def test_absorber_above_grid_bottom(self, start_frac):
        valid = make_config()
        env = make_env(valid.grid, start_frac=start_frac)
        self.assert_rejected(valid, "absorber.start_depth < grid bottom depth",
                             environment=env)

    @pytest.mark.parametrize("depth_frac", [0.0, 1.0],
                             ids=["at-surface", "at-bottom"])
    def test_source_depth_must_be_interior(self, depth_frac):
        valid = make_config(grid=make_grid(n_depth=32, delta_z=4.0))
        source = dataclasses.replace(
            valid.source, depth=depth_frac * valid.grid.depth_extent)
        self.assert_rejected(valid, "0 < source depth < grid depth extent",
                             source=source)


class TestRunOptions:
    def test_stride_validated(self):
        with pytest.raises(InvariantError, match="output_stride >= 1"):
            RunOptions(output_stride=0)

    def test_format_validated(self):
        with pytest.raises(InvariantError, match="tl_format"):
            RunOptions(tl_format="hdf5")

    def test_executor_counts_validated(self):
        with pytest.raises(InvariantError, match="threads >= 1"):
            RunOptions(threads=0)
        with pytest.raises(InvariantError, match="workers >= 1"):
            RunOptions(workers=0)

    @pytest.mark.parametrize("field, value", [
        ("threads", 1.5), ("threads", "2"), ("workers", True),
        ("workers", 2.0), ("output_stride", 2.0), ("output_stride", False),
    ])
    def test_counts_are_integers(self, field, value):
        with pytest.raises(InvariantError, match=f"{field} is an integer"):
            RunOptions(**{field: value})
