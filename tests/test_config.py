"""Strict config parsing: defaults, rejection rules, echo round-trip."""

import json

import numpy as np
import pytest

from pwamalgam import ConfigError, load_config, parse_config


def test_empty_config_gets_full_defaults():
    config = parse_config({})
    assert config.family_id == "gaussian"
    assert config.nodes_N == 32
    assert config.nodes_d == 0.0
    assert config.nodes_symmetric is True
    assert config.m_max == 4
    assert config.j_cap == 6
    assert config.points_per_band == 256
    assert config.signal_id == "gauss_pair"
    assert config.t_int == 16.0
    assert config.density == 20
    assert config.solver_tol == 1e-8
    assert config.quadrature_refinement == 2
    assert config.out_formats == ("csv", "json")
    assert config.workers == 1
    assert len(config.alpha_values()) == 8


# Every key of every section set away from its default; the sweep comes in
# its two exclusive forms.
NON_DEFAULT = {
    "family": {"id": "poisson", "alpha_domain": [1.0, 8.0]},
    "alpha_sweep": {"start": 1.0, "stop": 8.0, "count": 4, "spacing": "log"},
    "nodes": {"N": 16, "d": 0.1, "seed": 3, "symmetric": False},
    "bands": {"M_max": 2, "J_cap": 5, "points_per_band": 64},
    "signal": {"id": "two_band"},
    "spatial": {"T_int": 6.5, "density": 7},
    "tolerances": {"solver": 1e-9, "quadrature_refinement": 3},
    "output": {"directory": "runs/x", "formats": ["json"]},
    "parallel": {"workers": 2},
}


def test_echo_round_trips():
    for sweep in (NON_DEFAULT["alpha_sweep"], {"values": [1.0, 2.0, 4.0]}):
        data = {**NON_DEFAULT, "alpha_sweep": sweep}
        config = parse_config(data)
        assert config.echo() == data
        assert parse_config(config.echo()) == config
        assert (config.family_id, config.alpha_domain) == ("poisson", (1.0, 8.0))
        assert (config.nodes_N, config.nodes_d, config.nodes_seed) == (16, 0.1, 3)
        assert config.nodes_symmetric is False
        assert (config.m_max, config.j_cap, config.points_per_band) == (2, 5, 64)
        assert (config.signal_id, config.t_int, config.density) == ("two_band", 6.5, 7)
        assert (config.solver_tol, config.quadrature_refinement) == (1e-9, 3)
        assert (config.out_directory, config.out_formats) == ("runs/x", ("json",))
        assert config.workers == 2
    listed = parse_config({**NON_DEFAULT, "alpha_sweep": {"values": [1.0, 2.0, 4.0]}})
    assert listed.alpha_values() == [1.0, 2.0, 4.0]
    assert listed.sweep_start is listed.sweep_count is listed.sweep_spacing is None
    spaced = parse_config(NON_DEFAULT)
    assert spaced.sweep_values is None
    assert spaced.alpha_values() == pytest.approx([1.0, 2.0, 4.0, 8.0], rel=1e-14)


def test_default_echo_is_complete():
    assert parse_config({}).echo() == {
        "family": {"id": "gaussian"},
        "alpha_sweep": {"start": 0.75, "stop": 2.5, "count": 8, "spacing": "linear"},
        "nodes": {"N": 32, "d": 0.0, "seed": 0, "symmetric": True},
        "bands": {"M_max": 4, "J_cap": 6, "points_per_band": 256},
        "signal": {"id": "gauss_pair"},
        "spatial": {"T_int": 16.0, "density": 20},
        "tolerances": {"solver": 1e-8, "quadrature_refinement": 2},
        "output": {"directory": ".", "formats": ["csv", "json"]},
        "parallel": {"workers": 1},
    }


def test_spaced_sweep_forms():
    linear = parse_config(
        {"alpha_sweep": {"start": 1.0, "stop": 2.0, "count": 3, "spacing": "linear"}}
    )
    assert linear.alpha_values() == [1.0, 1.5, 2.0]
    log = parse_config(
        {"alpha_sweep": {"start": 0.5, "stop": 2.0, "count": 3, "spacing": "log"}}
    )
    assert log.alpha_values() == pytest.approx([0.5, 1.0, 2.0])
    single = parse_config({"alpha_sweep": {"start": 1.0, "stop": 1.0, "count": 1}})
    assert single.alpha_values() == [1.0]


def test_unknown_keys_rejected_everywhere():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config({"familly": {}})
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config({"nodes": {"N": 8, "dd": 0.1}})
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config({"tolerances": {"solver_tol": 1e-8}})


@pytest.mark.parametrize(
    "section",
    [
        "family",
        "alpha_sweep",
        "nodes",
        "bands",
        "signal",
        "spatial",
        "tolerances",
        "output",
        "parallel",
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


def test_node_seed_must_be_nonnegative():
    # numpy's generator rejects a negative seed only when perturbed nodes are drawn.
    with pytest.raises(ConfigError, match=r"nodes\.seed must be >= 0"):
        parse_config({"nodes": {"N": 8, "d": 0.1, "seed": -1}})
    assert parse_config({"nodes": {"seed": 0}}).nodes_seed == 0


def test_kadec_bound_named_at_config_time():
    with pytest.raises(ConfigError, match="Kadec"):
        parse_config({"nodes": {"d": 0.3}})


def test_sweep_form_exclusivity_and_order():
    with pytest.raises(ConfigError, match="not both"):
        parse_config({"alpha_sweep": {"values": [1.0], "count": 2}})
    with pytest.raises(ConfigError, match="ascending"):
        parse_config({"alpha_sweep": {"values": [2.0, 1.0]}})
    with pytest.raises(ConfigError):
        parse_config({"alpha_sweep": {"values": []}})
    with pytest.raises(ConfigError):
        parse_config({"alpha_sweep": {"start": 2.0, "stop": 1.0}})
    with pytest.raises(ConfigError):
        parse_config({"alpha_sweep": {"spacing": "cubic"}})
    with pytest.raises(ConfigError):
        parse_config({"alpha_sweep": {"count": 0}})


def test_alpha_domain_checked_at_config_time():
    with pytest.raises(ConfigError, match="outside"):
        parse_config({"alpha_sweep": {"values": [5.0]}})  # gaussian tops at 3
    with pytest.raises(ConfigError, match="outside"):
        parse_config(
            {
                "family": {"id": "gaussian", "alpha_domain": [0.5, 2.0]},
                "alpha_sweep": {"values": [2.5]},
            }
        )
    # Widening the domain admits the same value.
    parse_config(
        {
            "family": {"id": "gaussian", "alpha_domain": [0.5, 6.0]},
            "alpha_sweep": {"values": [5.0]},
        }
    )


def test_band_and_spatial_constraints():
    with pytest.raises(ConfigError):
        parse_config({"bands": {"points_per_band": 16}})  # too coarse
    with pytest.raises(ConfigError):
        parse_config({"bands": {"points_per_band": 33}})  # odd
    with pytest.raises(ConfigError, match="J_cap"):
        parse_config({"bands": {"M_max": 4, "J_cap": 4}})
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
    with pytest.raises(ConfigError):
        parse_config({"output": {"formats": ["csv", "xml"]}})
    with pytest.raises(ConfigError):
        parse_config({"output": {"formats": []}})
    with pytest.raises(ConfigError):
        parse_config({"parallel": {"workers": 0}})
    with pytest.raises(ConfigError):
        parse_config({"signal": {"id": "unknown"}})
    with pytest.raises(ConfigError):
        parse_config([])


def test_builders_produce_consistent_objects():
    config = parse_config(
        {
            "nodes": {"N": 8, "d": 0.1, "seed": 5, "symmetric": True},
            "bands": {"M_max": 2, "points_per_band": 64},
            "spatial": {"T_int": 3.0, "density": 4},
        }
    )
    nodes = config.make_nodes()
    assert nodes.count == 17
    assert np.array_equal(nodes.values[::-1], -nodes.values)
    assert config.make_grid().points_per_band == 64
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
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"nodes": {"N": 8}}), encoding="utf-8")
    assert load_config(good).nodes_N == 8
