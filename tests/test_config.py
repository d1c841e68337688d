"""Strict config parsing: defaults, rejection rules, echo round-trip."""

import json
from pathlib import Path

import numpy as np
import pytest

from pwamalgam import ConfigError, ExperimentConfig, load_config, parse_config


def test_empty_config_gets_full_defaults():
    config = parse_config({})
    assert config.family_id == "gaussian"
    assert config.nodes_N == 32
    assert config.nodes_d == 0.0
    assert config.nodes_symmetric is True
    assert config.signal_id == "gauss_pair"
    assert config.t_int == 16.0
    assert config.density == 20
    assert config.alpha_values() == [0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.25, 2.5]


def test_bands_are_constants_not_settings():
    # What bench/oracle.py reads of a config: M_max and the K-point grid.
    assert ExperimentConfig.m_max == 4
    assert len(parse_config({}).make_grid().nodes) == 256
    # A `bands` section, even one spelling these values, is an unknown key.
    for bands in ({}, {"M_max": 4, "points_per_band": 256}, {"points_per_band": 16}):
        with pytest.raises(ConfigError, match=r"unknown key\(s\) \['bands'\] in 'config'"):
            parse_config({"bands": bands})


# Every key of every section set away from its default.
NON_DEFAULT = {
    "family": {"id": "poisson"},
    "alpha_sweep": {"values": [1.0, 2.0, 4.0]},
    "nodes": {"N": 16, "d": 0.1, "seed": 3, "symmetric": False},
    "signal": {"id": "two_band"},
    "spatial": {"T_int": 6.5, "density": 7},
    "output": {"directory": "runs/x"},
}


def test_echo_round_trips():
    config = parse_config(NON_DEFAULT)
    assert config.echo() == NON_DEFAULT
    assert parse_config(config.echo()) == config
    assert (config.family_id, config.alpha_values()) == ("poisson", [1.0, 2.0, 4.0])
    assert (config.nodes_N, config.nodes_d, config.nodes_seed) == (16, 0.1, 3)
    assert config.nodes_symmetric is False
    assert (config.signal_id, config.t_int, config.density) == ("two_band", 6.5, 7)
    assert config.out_directory == "runs/x"


def test_default_echo_is_complete():
    assert parse_config({}).echo() == {
        "family": {"id": "gaussian"},
        "alpha_sweep": {"values": [0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.25, 2.5]},
        "nodes": {"N": 32, "d": 0.0, "seed": 0, "symmetric": True},
        "signal": {"id": "gauss_pair"},
        "spatial": {"T_int": 16.0, "density": 20},
        "output": {"directory": "."},
    }


def test_unknown_keys_rejected_everywhere():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config({"familly": {}})
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config({"nodes": {"N": 8, "dd": 0.1}})
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config({"output": {"format": ["csv"]}})


@pytest.mark.parametrize(
    "section",
    [
        "family",
        "alpha_sweep",
        "nodes",
        "signal",
        "spatial",
        "output",
    ],
)
def test_unknown_key_rejected_in_each_section(section):
    with pytest.raises(ConfigError, match=rf"unknown key\(s\) \['bogus'\] in '{section}'"):
        parse_config({section: {"bogus": 1}})


def test_node_count_must_be_positive():
    # N = 0 used to pass and then fail on spatial.T_int, a key nobody set.
    for n in (0, -1):
        with pytest.raises(ConfigError, match=r"nodes\.N must be >= 1"):
            parse_config({"nodes": {"N": n}})
    assert parse_config({"nodes": {"N": 1}}).t_int == 0.5


def test_integers_beyond_the_float_range_are_config_errors():
    # ``float(10**400)`` raises OverflowError, as did ``N / 2.0`` for the
    # default T_int; either ended the run with a traceback.
    huge = 10**400
    for data, message in (
        ({"alpha_sweep": {"values": [huge]}}, r"alpha_sweep\.values\[0\] must be finite"),
        ({"spatial": {"T_int": -huge}}, r"spatial\.T_int must be finite"),
        ({"nodes": {"N": huge}}, r"nodes\.N must be <= 2\*\*53"),
        ({"nodes": {"N": huge}, "spatial": {"T_int": 1.0}}, r"nodes\.N must be <= 2\*\*53"),
        ({"nodes": {"N": 2**53 + 1}}, r"nodes\.N must be <= 2\*\*53"),
    ):
        with pytest.raises(ConfigError, match=message):
            parse_config(data)
    assert parse_config({"nodes": {"N": 2**53}}).t_int == 2.0**52
    assert parse_config({"alpha_sweep": {"values": [2]}}).alpha_values() == [2.0]


def test_node_seed_must_be_nonnegative():
    # numpy's generator rejects a negative seed only when perturbed nodes are
    # drawn; the config rejects it whatever d is.
    for nodes in ({"seed": -1}, {"N": 8, "d": 0.1, "seed": -1}):
        with pytest.raises(ConfigError, match=r"nodes\.seed must be >= 0"):
            parse_config({"nodes": nodes})
    assert parse_config({"nodes": {"seed": 0}}).nodes_seed == 0
    assert parse_config({"nodes": {"d": 0.1, "seed": 0}}).make_nodes().count == 65
    # The manifest's orjson echo writes integers below 2**64 only.
    with pytest.raises(ConfigError, match=r"nodes\.seed must be < 2\*\*64"):
        parse_config({"nodes": {"d": 0.1, "seed": 2**64}})
    config = parse_config({"nodes": {"d": 0.1, "seed": 2**64 - 1}})
    assert config.echo()["nodes"]["seed"] == 2**64 - 1


def test_density_must_be_below_2_to_64():
    # A T_int far below 1 leaves 2*T_int*density small for a density beyond
    # the 64-bit integers that the manifest's orjson echo writes.
    with pytest.raises(ConfigError, match=r"spatial\.density must be < 2\*\*64"):
        parse_config({"spatial": {"T_int": 1e-30, "density": 2**64}})
    config = parse_config({"spatial": {"T_int": 1e-30, "density": 2**64 - 1}})
    assert config.echo()["spatial"]["density"] == 2**64 - 1


def test_kadec_bound_named_at_config_time():
    with pytest.raises(ConfigError, match="Kadec"):
        parse_config({"nodes": {"d": 0.3}})


def test_sweep_must_strictly_ascend():
    for values in ([2.0, 1.0], [1.0, 1.0, 2.0]):
        with pytest.raises(ConfigError, match="strictly ascending"):
            parse_config({"alpha_sweep": {"values": values}})
    with pytest.raises(ConfigError):
        parse_config({"alpha_sweep": {"values": []}})
    assert parse_config({"alpha_sweep": {"values": [1.0]}}).alpha_values() == [1.0]


def test_alpha_domain_checked_at_config_time():
    with pytest.raises(ConfigError, match="outside"):
        parse_config({"alpha_sweep": {"values": [5.0]}})  # gaussian tops at 3
    with pytest.raises(ConfigError, match="outside"):
        parse_config({"alpha_sweep": {"values": [0.25, 1.0]}})  # and starts at 0.5
    with pytest.raises(ConfigError, match=r"outside the poisson domain \[0.5, 16.0\]"):
        parse_config({"family": {"id": "poisson"}, "alpha_sweep": {"values": [17.0]}})
    # The poisson domain reaches past the gaussian one.
    parse_config({"family": {"id": "poisson"}, "alpha_sweep": {"values": [5.0]}})


def test_spatial_window_stays_inside_the_nodes():
    with pytest.raises(ConfigError, match="interior"):
        parse_config({"nodes": {"N": 16}, "spatial": {"T_int": 9.0}})
    parse_config({"nodes": {"N": 16}, "spatial": {"T_int": 8.0}})


def test_type_strictness():
    with pytest.raises(ConfigError, match="integer"):
        parse_config({"nodes": {"N": 32.0}})
    with pytest.raises(ConfigError, match="boolean"):
        parse_config({"nodes": {"symmetric": 1}})
    with pytest.raises(ConfigError, match="number"):
        parse_config({"spatial": {"T_int": "16"}})
    with pytest.raises(ConfigError, match="number"):
        parse_config({"alpha_sweep": {"values": [1.0, "2"]}})
    with pytest.raises(ConfigError):
        parse_config({"signal": {"id": "unknown"}})
    with pytest.raises(ConfigError):
        parse_config([])


def test_builders_produce_consistent_objects():
    config = parse_config(
        {
            "nodes": {"N": 8, "d": 0.1, "seed": 5, "symmetric": True},
            "spatial": {"T_int": 3.0, "density": 4},
        }
    )
    nodes = config.make_nodes()
    assert nodes.count == 17
    assert np.array_equal(nodes.values[::-1], -nodes.values)
    assert config.make_spatial_grid().extent == 3.0
    assert config.make_signal().signal_id == "gauss_pair"
    assert config.make_family().family_id == "gaussian"
    # d = 0 builds exact uniform nodes.
    uniform = parse_config({"nodes": {"N": 4}}).make_nodes()
    assert np.array_equal(uniform.values, np.arange(-4.0, 5.0))


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="valid JSON"):
        load_config(bad)
    # A repeated key is an error, in a section or at the root, not an override.
    for text, key in (
        ('{"nodes": {"N": 32, "N": 8}}', "N"),
        ('{"alpha_sweep": {"values": [1.0]}, "alpha_sweep": {"values": [2.0]}}', "alpha_sweep"),
    ):
        bad.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match=f"repeated key '{key}'"):
            load_config(bad)
    # Python's int parser refuses a literal of over 4300 digits with a plain
    # ValueError, which is no JSONDecodeError.
    bad.write_text('{"nodes": {"N": 1%s}}' % ("0" * 5000), encoding="utf-8")
    with pytest.raises(ConfigError, match="valid JSON"):
        load_config(bad)
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"nodes": {"N": 8}}), encoding="utf-8")
    assert load_config(good).nodes_N == 8


CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


@pytest.mark.parametrize("path", CONFIGS, ids=lambda path: path.stem)
def test_committed_config_loads_and_echo_round_trips(path):
    config = load_config(path)
    assert parse_config(config.echo()) == config
    # The echo as the manifest stores it: through JSON and back.
    assert parse_config(json.loads(json.dumps(config.echo()))) == config
