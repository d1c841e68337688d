"""CLI behavior: outputs, determinism, exit codes."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from pwamalgam import (
    ContractError,
    condition_bound,
    evaluate_J,
    get_family,
    mj_tail_bound,
    parse_config,
    precision_boundary,
    reconstruct,
    sweep,
    verify_regularity,
)
from pwamalgam.cli import main
from pwamalgam.engine import PRECISION_CAP
from pwamalgam.kernels import J_MAX
from pwamalgam.metrics import truncated_signal_values

from .test_config import CONFIGS

GAUSSIAN = get_family("gaussian")

SMALL_SWEEP = {
    "family": {"id": "gaussian"},
    "alpha_sweep": {"values": [0.75, 1.25]},
    "nodes": {"N": 16, "d": 0.0, "seed": 0, "symmetric": True},
    "bands": {"M_max": 2, "points_per_band": 128},
    "signal": {"id": "gauss_pair"},
    "spatial": {"T_int": 8.0, "density": 10},
    "output": {"directory": "."},
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def run_cli(args):
    out = io.StringIO()
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


def csv_rows(path):
    text = path.read_text(encoding="utf-8")
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_sweep_outputs_and_manifest(tmp_path):
    cfg = write_config(tmp_path, SMALL_SWEEP)
    out = tmp_path / "run"
    code, _, _ = run_cli(["sweep", "--config", cfg, "--out", str(out)])
    assert code == 0
    header, rows = csv_rows(out / "convergence.csv")
    assert header == [
        "alpha", "l2_error", "amalgam_error", "sup_error", "rhs_bound",
        "bound_ratio", "condition_estimate", "tail_slack_f", "tail_slack_J",
        "precision_limited",
    ]
    assert [r["alpha"] for r in rows] == ["0.75", "1.25"]
    assert float(rows[1]["amalgam_error"]) < float(rows[0]["amalgam_error"])
    assert all(r["precision_limited"] == "False" for r in rows)

    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["command"] == "sweep"
    assert manifest["checks"]["failed_rows"] == 0
    assert manifest["checks"]["embedding_l2_le_amalgam"] is True
    assert manifest["checks"]["quadrature_drift"] < 1e-12
    assert set(manifest["files"]) == {
        "convergence.csv", "convergence.json", "manifest.json",
    }
    environment = manifest["environment"]
    assert set(environment) == {"python", "numpy", "scipy", "blas"}
    assert environment["numpy"] == np.__version__
    assert all(isinstance(v, str) and v for v in environment.values())
    # The echoed config reproduces the run configuration.
    echoed = parse_config(manifest["config"])
    assert echoed == parse_config(SMALL_SWEEP)
    # JSON mirror carries the same rows.
    mirror = json.loads((out / "convergence.json").read_text(encoding="utf-8"))
    assert [row["alpha"] for row in mirror] == [0.75, 1.25]


def json_rows(path):
    """The objects of a one-object-per-line JSON array, each parsed alone."""
    lines = path.read_text(encoding="utf-8").split("\n")
    assert lines[0] == "[" and lines[-2:] == ["]", ""]
    rows = [json.loads(line.removesuffix(",")) for line in lines[1:-2]]
    assert all(line.endswith(",") for line in lines[1:-3])
    assert json.loads("\n".join(lines)) == rows
    return rows


def test_convergence_json_is_one_row_per_line(tmp_path):
    payload = {
        **SMALL_SWEEP,
        "family": {"id": "poisson"},
        "alpha_sweep": {"values": [8.0, 16.0]},
        "nodes": {"N": 32},
        "bands": {"M_max": 1, "points_per_band": 128},
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "run"
    assert run_cli(["sweep", "--config", cfg, "--out", str(out)])[0] == 1
    rows = json_rows(out / "convergence.json")
    _, csv = csv_rows(out / "convergence.csv")
    assert len(rows) == len(csv) == 2
    for row, line in zip(rows, csv):
        assert list(row) == sorted([*line, "flags"])
        for key, text in line.items():
            value = float(text) if text not in ("True", "False") else text == "True"
            assert row[key] == value or (row[key] is None and text == "nan")
    assert rows[0]["flags"] == []
    assert rows[1]["flags"] and rows[1]["amalgam_error"] is None


def test_csv_bytes_are_deterministic(tmp_path):
    cfg = write_config(tmp_path, SMALL_SWEEP)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run_cli(["sweep", "--config", cfg, "--out", str(out)])[0] == 0
        outs.append((out / "convergence.csv").read_bytes())
    assert outs[0] == outs[1]


REMOVED_KEYS = [
    ("family", "alpha_domain", [0.5, 3.0]),
    ("alpha_sweep", "start", 0.75),
    ("alpha_sweep", "stop", 1.25),
    ("alpha_sweep", "count", 2),
    ("alpha_sweep", "spacing", "linear"),
    ("bands", "J_cap", 4),
    ("output", "formats", ["csv", "json"]),
]


@pytest.mark.parametrize(
    "section",
    [
        {"parallel": {"workers": 1}},
        {"tolerances": {"solver": 1e-8, "quadrature_refinement": 2}},
        *({name: {**SMALL_SWEEP[name], key: value}} for name, key, value in REMOVED_KEYS),
    ],
    ids=["parallel", "tolerances", *(key for _, key, _ in REMOVED_KEYS)],
)
def test_removed_section_exits_2(tmp_path, section):
    # Configs written while these sections or keys existed must stop, not run
    # on, even where the value given is one the key used to accept.
    cfg = write_config(tmp_path, {**SMALL_SWEEP, **section})
    out = tmp_path / "run"
    code, _, err = run_cli(["sweep", "--config", cfg, "--out", str(out)])
    assert code == 2
    assert "unknown key(s)" in err
    assert not out.exists()


def test_repeated_alpha_is_rejected(tmp_path):
    # A repeated alpha once parsed and then read as a convergence failure.
    for cmd, values in (("verify-family", [1.0, 1.0, 2.0]), ("sweep", [1.0, 1.0])):
        cfg = write_config(tmp_path, {**SMALL_SWEEP, "alpha_sweep": {"values": values}})
        out = tmp_path / cmd
        code, _, err = run_cli([cmd, "--config", cfg, "--out", str(out)])
        assert code == 2
        assert "alpha_sweep.values must be strictly ascending" in err
        assert not out.exists()
    config = parse_config(SMALL_SWEEP)
    inputs = (config.make_grid(), config.make_spatial_grid(), config.m_max, config.j_cap)
    with pytest.raises(ContractError, match="strictly ascending"):
        sweep(config.make_signal(), GAUSSIAN, [1.0, 1.0], config.make_nodes(), *inputs)
    with pytest.raises(ContractError, match="strictly ascending"):
        verify_regularity(GAUSSIAN, [1.0, 1.0, 2.0])


def test_csv_uses_lf_and_headers(tmp_path):
    cfg = write_config(tmp_path, SMALL_SWEEP)
    out = tmp_path / "run"
    run_cli(["sweep", "--config", cfg, "--out", str(out)])
    raw = (out / "convergence.csv").read_bytes()
    assert b"\r" not in raw
    assert raw.startswith(b"alpha,")
    assert raw.endswith(b"\n")


def test_zero_signal_sweep_is_exactly_zero(tmp_path):
    cfg = write_config(tmp_path, {**SMALL_SWEEP, "signal": {"id": "zero"}})
    out = tmp_path / "run"
    code, _, _ = run_cli(["sweep", "--config", cfg, "--out", str(out)])
    assert code == 0
    _, rows = csv_rows(out / "convergence.csv")
    for row in rows:
        for column in ("l2_error", "amalgam_error", "sup_error", "bound_ratio"):
            assert row[column] == "0.0"


def test_config_error_exits_2_without_manifest(tmp_path):
    cfg = write_config(tmp_path, {**SMALL_SWEEP, "nodes": {"N": 16, "d": 0.3}})
    out = tmp_path / "run"
    code, _, err = run_cli(["sweep", "--config", cfg, "--out", str(out)])
    assert code == 2
    assert "Kadec" in err
    assert not (out / "manifest.json").exists()
    assert not (out / "convergence.csv").exists()


def test_negative_seed_exits_2_without_output(tmp_path):
    payload = {"nodes": {"N": 8, "d": 0.1, "seed": -1}, "alpha_sweep": {"values": [1.0]}}
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "run"
    code, _, err = run_cli(["reconstruct", "--config", cfg, "--out", str(out)])
    assert code == 2
    assert "nodes.seed must be >= 0" in err
    assert not (out / "reconstruction.json").exists()


def test_missing_config_exits_2(tmp_path):
    code, _, err = run_cli(["sweep", "--config", str(tmp_path / "nope.json")])
    assert code == 2
    assert "not found" in err


@pytest.mark.parametrize("case", ["config-is-directory", "config-not-utf8", "out-is-file"])
def test_unreadable_config_or_unusable_out_exits_2(tmp_path, case):
    cfg = write_config(tmp_path, SMALL_SWEEP)
    out = tmp_path / "run"
    if case == "config-is-directory":
        cfg = str(tmp_path)
    elif case == "config-not-utf8":
        Path(cfg).write_bytes(b'{"signal": {"id": "gauss_pair\xff"}}')
    else:
        out.write_text("not a directory", encoding="utf-8")
    code, _, err = run_cli(["sweep", "--config", cfg, "--out", str(out)])
    assert code == 2
    assert err.startswith("error:")


def test_solver_breakdown_rows_exit_1(tmp_path):
    payload = {
        **SMALL_SWEEP,
        "family": {"id": "poisson"},
        "alpha_sweep": {"values": [8.0, 16.0]},
        "nodes": {"N": 32},
        "bands": {"M_max": 1, "points_per_band": 128},
        "spatial": {"T_int": 8.0, "density": 10},
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "run"
    code, _, _ = run_cli(["sweep", "--config", cfg, "--out", str(out)])
    assert code == 1
    _, rows = csv_rows(out / "convergence.csv")
    assert rows[0]["amalgam_error"] != "nan"
    assert rows[1]["amalgam_error"] == "nan"
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["checks"]["failed_rows"] == 1
    mirror = json.loads((out / "convergence.json").read_text(encoding="utf-8"))
    assert mirror[1]["amalgam_error"] is None
    assert mirror[1]["flags"]


def test_precision_limited_rows_still_exit_0(tmp_path):
    payload = {
        **SMALL_SWEEP,
        "alpha_sweep": {"values": [2.5, 3.0]},
        "nodes": {"N": 32},
        "bands": {"M_max": 1, "points_per_band": 128},
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "run"
    code, _, _ = run_cli(["sweep", "--config", cfg, "--out", str(out)])
    assert code == 0
    _, rows = csv_rows(out / "convergence.csv")
    assert rows[0]["precision_limited"] == "False"
    assert rows[1]["precision_limited"] == "True"
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["checks"]["precision_limited_rows"] == 1
    assert manifest["checks"]["failed_rows"] == 0


def test_precision_limited_rows_leave_monotone_checks(tmp_path):
    # Poisson alpha=12 at N=32 is far past PRECISION_CAP: its errors are
    # rounding noise and rise above alpha=8's, which must not fail the check.
    payload = {
        **SMALL_SWEEP,
        "family": {"id": "poisson"},
        "alpha_sweep": {"values": [4.0, 8.0, 12.0]},
        "nodes": {"N": 32},
        "bands": {"M_max": 2},
        "spatial": {"T_int": 8.0},
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "run"
    code, _, _ = run_cli(["sweep", "--config", cfg, "--out", str(out)])
    assert code == 0
    _, rows = csv_rows(out / "convergence.csv")
    assert [r["precision_limited"] for r in rows] == ["False", "False", "True"]
    assert float(rows[2]["amalgam_error"]) > float(rows[1]["amalgam_error"])
    checks = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["checks"]
    assert checks["errors_strictly_decreasing"] is True
    assert checks["embedding_l2_le_amalgam"] is True
    assert checks["excluded_rows"] == 1
    assert checks["failed_rows"] == 0


def test_verify_family_passes_full_domain(tmp_path):
    payload = {
        "family": {"id": "gaussian"},
        "alpha_sweep": {"values": [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]},
        "output": {"directory": "."},
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "run"
    code, _, _ = run_cli(["verify-family", "--config", cfg, "--out", str(out)])
    assert code == 0
    header, rows = csv_rows(out / "regularity.csv")
    assert header[:5] == ["alpha", "delta_estimate", "m_alpha", "h2_ratio", "condition_bound"]
    assert header[-4:] == ["pass_A2", "pass_A3", "pass_H2", "pass_H3"]
    assert any(column.startswith("h3_ratio_at_") for column in header)
    for row in rows:
        assert row["pass_A2"] == "True"
        assert float(row["delta_estimate"]) > 0
        assert float(row["condition_bound"]) == condition_bound(GAUSSIAN, float(row["alpha"]))
        assert float(row["mj_tail"]) == mj_tail_bound(GAUSSIAN, float(row["alpha"]), J_MAX)
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["checks"]["all_pass"] is True
    # The crossing itself is checked against its oracles in test_kernels.
    boundary = manifest["checks"]["precision_boundary_alpha"]
    assert boundary == precision_boundary(GAUSSIAN, PRECISION_CAP)
    assert manifest["files"] == ["regularity.csv", "regularity.json", "manifest.json"]


def test_verify_family_shallow_sweep_fails(tmp_path):
    payload = {
        "family": {"id": "gaussian"},
        "alpha_sweep": {"values": [0.5, 0.75]},
        "output": {"directory": "."},
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "run"
    code, _, _ = run_cli(["verify-family", "--config", cfg, "--out", str(out)])
    assert code == 1  # decay-weight final value still above threshold
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["checks"]["H3_final"] is False
    assert manifest["checks"]["H3_monotone"] is True


def test_poisson_h2_column_stays_tight(tmp_path):
    payload = {
        "family": {"id": "poisson"},
        "alpha_sweep": {"values": [1.0, 2.0, 4.0, 8.0]},
        "output": {"directory": "."},
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "run"
    code, _, _ = run_cli(["verify-family", "--config", cfg, "--out", str(out)])
    assert code == 0
    _, rows = csv_rows(out / "regularity.csv")
    assert all(float(row["h2_ratio"]) <= 2.01 for row in rows)


def test_list_signals():
    code, out, _ = run_cli(["list-signals"])
    assert code == 0
    for signal_id in ("gauss_pair", "tri_band", "cauchy_decay", "two_band", "zero"):
        assert signal_id in out


RECONSTRUCT_BASE = {
    "family": {"id": "gaussian"},
    "nodes": {"N": 32},
    "bands": {"M_max": 2, "points_per_band": 128},
    "output": {"directory": "."},
}


def test_reconstruct_interpolates_at_nodes(tmp_path):
    payload = {
        **RECONSTRUCT_BASE,
        "alpha_sweep": {"values": [1.0]},
        "signal": {"id": "tri_band"},
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "run"
    code, _, _ = run_cli(
        ["reconstruct", "--config", cfg, "--out", str(out), "--eval-points", "3,-2,0,1"]
    )
    assert code == 0
    points = json.loads((out / "reconstruction.json").read_text(encoding="utf-8"))
    assert [p["x"] for p in points] == [-2.0, 0.0, 1.0, 3.0]  # ordered by x
    for p in points:
        assert p["error"] <= 1e-8  # interpolation condition at the nodes


def test_reconstruct_pointwise_error_shrinks_with_alpha(tmp_path):
    # At a non-node point the pointwise error improves with alpha; at a node
    # both alphas sit at the solver floor.
    errors = {}
    floors = {}
    for alpha in (0.75, 2.5):
        payload = {
            **RECONSTRUCT_BASE,
            "alpha_sweep": {"values": [alpha]},
            "signal": {"id": "gauss_pair"},
            "bands": {"M_max": 4, "points_per_band": 256},
        }
        cfg = write_config(tmp_path, payload, f"rec_{alpha}.json")
        out = tmp_path / f"run_{alpha}"
        code, _, _ = run_cli(
            ["reconstruct", "--config", cfg, "--out", str(out), "--eval-points", "0.4,0"]
        )
        assert code == 0
        points = json.loads((out / "reconstruction.json").read_text(encoding="utf-8"))
        floors[alpha] = points[0]["error"]  # x = 0, a node
        errors[alpha] = points[1]["error"]  # x = 0.4
    assert errors[2.5] < errors[0.75]
    assert all(v < 1e-8 for v in floors.values())


def test_reconstruction_json_is_one_point_per_line(tmp_path):
    payload = {
        **RECONSTRUCT_BASE,
        "alpha_sweep": {"values": [1.5]},
        "nodes": {"N": 32, "d": 0.2, "seed": 4},
        "signal": {"id": "two_band"},
        "spatial": {"T_int": 4.0, "density": 10},
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "run"
    assert run_cli(["reconstruct", "--config", cfg, "--out", str(out)])[0] == 0
    text = (out / "reconstruction.json").read_text(encoding="utf-8")
    rows = json_rows(out / "reconstruction.json")
    assert len(rows) == 81 and len(text.splitlines()) == 81 + 2
    assert all(list(row) == ["J", "error", "f", "x"] for row in rows)

    config = parse_config(payload)
    signal, grid = config.make_signal(), config.make_grid()
    approx = reconstruct(
        signal, config.make_family(), 1.5, config.make_nodes(), grid, config.m_max
    )
    xs = config.make_spatial_grid().points
    J = evaluate_J(approx, xs)
    f = truncated_signal_values(signal, grid, config.m_max, xs)  # no closed form
    assert [row["x"] for row in rows] == xs.tolist()
    assert [row["J"] for row in rows] == np.column_stack([J.real, J.imag]).tolist()
    assert [row["f"] for row in rows] == np.column_stack([f.real, f.imag]).tolist()
    assert [row["error"] for row in rows] == np.abs(f - J).tolist()


def test_reconstruct_empty_points(tmp_path):
    payload = {**RECONSTRUCT_BASE, "alpha_sweep": {"values": [1.0]}}
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "run"
    code, _, _ = run_cli(
        ["reconstruct", "--config", cfg, "--out", str(out), "--eval-points", ""]
    )
    assert code == 0
    assert (out / "reconstruction.json").read_text(encoding="utf-8") == "[]\n"


def test_reconstruct_rejects_multi_alpha_and_bad_points(tmp_path):
    payload = {**RECONSTRUCT_BASE, "alpha_sweep": {"values": [1.0, 2.0]}}
    cfg = write_config(tmp_path, payload)
    code, _, err = run_cli(["reconstruct", "--config", cfg, "--out", str(tmp_path / "x")])
    assert code == 2
    assert "single alpha" in err

    single = {**RECONSTRUCT_BASE, "alpha_sweep": {"values": [1.0]}}
    cfg2 = write_config(tmp_path, single, "single.json")
    out = tmp_path / "y"
    code, _, err = run_cli(
        ["reconstruct", "--config", cfg2, "--out", str(out), "--eval-points", "1.0,zap"]
    )
    assert code == 2
    assert "eval-points" in err
    assert not out.exists()


def test_reconstruct_rejects_non_finite_points(tmp_path):
    # NaN and infinity parse as floats, but would write invalid JSON tokens
    # and drop out of the manifest's max_pointwise_error.
    cfg = write_config(tmp_path, {**RECONSTRUCT_BASE, "alpha_sweep": {"values": [1.0]}})
    for i, points in enumerate(["0,nan,inf,0.4", "-Infinity", "0.2,NaN"]):
        out = tmp_path / f"run{i}"
        code, _, err = run_cli(
            ["reconstruct", "--config", cfg, "--out", str(out), f"--eval-points={points}"]
        )
        assert code == 2
        assert "eval-points must be finite" in err
        assert not out.exists()


def test_reconstruct_complex_signal_reports_both_parts(tmp_path):
    payload = {
        **RECONSTRUCT_BASE,
        "alpha_sweep": {"values": [1.0]},
        "signal": {"id": "two_band"},
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "run"
    code, _, _ = run_cli(
        ["reconstruct", "--config", cfg, "--out", str(out), "--eval-points", "0.3"]
    )
    assert code == 0
    (point,) = json.loads((out / "reconstruction.json").read_text(encoding="utf-8"))
    assert point["f"][1] != 0.0  # genuinely complex reference
    assert point["error"] < 1e-2


@pytest.mark.parametrize("d, source", [(0.0, "toeplitz_symbol"), (0.1, "eigvalsh")])
def test_manifest_records_condition_source(tmp_path, d, source):
    nodes = {"N": 16, "d": d, "seed": 3}
    sweep_cfg = write_config(tmp_path, {**SMALL_SWEEP, "nodes": nodes})
    rec_payload = {**RECONSTRUCT_BASE, "nodes": nodes, "alpha_sweep": {"values": [1.0]}}
    rec_cfg = write_config(tmp_path, rec_payload, "rec.json")
    runs = {
        "sweep": ["sweep", "--config", sweep_cfg, "--out", str(tmp_path / "sweep")],
        "reconstruct": [
            "reconstruct", "--config", rec_cfg, "--out", str(tmp_path / "reconstruct"),
            "--eval-points", "0",
        ],
    }
    for name, args in runs.items():
        assert run_cli(args)[0] == 0
        manifest = json.loads((tmp_path / name / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["checks"]["condition_source"] == source


def test_manifest_records_stage_timings(tmp_path):
    sweep_cfg = write_config(tmp_path, SMALL_SWEEP)
    rec_payload = {**RECONSTRUCT_BASE, "alpha_sweep": {"values": [1.0]}}
    rec_cfg = write_config(tmp_path, rec_payload, "rec.json")
    verify_payload = {"family": {"id": "gaussian"}, "alpha_sweep": {"values": [1.0, 2.0]}}
    verify_cfg = write_config(tmp_path, verify_payload, "verify.json")
    runs = {
        "verify-family": [
            "verify-family", "--config", verify_cfg, "--out", str(tmp_path / "verify-family"),
        ],
        "sweep": ["sweep", "--config", sweep_cfg, "--out", str(tmp_path / "sweep")],
        "reconstruct": [
            "reconstruct", "--config", rec_cfg, "--out", str(tmp_path / "reconstruct"),
            "--eval-points", "0,0.5",
        ],
    }
    for name, args in runs.items():
        code, _, _ = run_cli(args)
        assert code == 0
        manifest = json.loads((tmp_path / name / "manifest.json").read_text(encoding="utf-8"))
        timings = manifest["timings"]
        assert set(timings) == {"build", "compute", "write"}
        assert all(isinstance(v, float) and v >= 0 for v in timings.values())


def test_drift_check_reuses_the_run_grid(tmp_path, monkeypatch):
    # The drift check compares the run's grid against one refined twice; it
    # must not build the run's grid a second time.
    degrees = []
    leggauss = np.polynomial.legendre.leggauss

    def counting(degree):
        degrees.append(degree)
        return leggauss(degree)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
    payload = {"family": {"id": "gaussian"}, "alpha_sweep": {"values": [1.0]}}
    cfg = write_config(tmp_path, payload)
    args = ["reconstruct", "--config", cfg, "--out", str(tmp_path / "run"), "--eval-points", "0"]
    assert run_cli(args)[0] == 0
    assert sorted(degrees) == [128, 256]


COMMAND_BY_PREFIX = {"verify_": "verify-family", "sweep_": "sweep", "reconstruct_": "reconstruct"}


@pytest.mark.parametrize("path", CONFIGS, ids=lambda path: path.stem)
def test_committed_config_runs(tmp_path, path):
    # Each committed config is a study; its file-name prefix names the command.
    commands = [c for p, c in COMMAND_BY_PREFIX.items() if path.name.startswith(p)]
    assert len(commands) == 1, f"{path.name} has no command prefix"
    (cmd,) = commands
    out = tmp_path / "run"
    code, _, _ = run_cli([cmd, "--config", str(path), "--out", str(out)])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["command"] == cmd
    assert all((out / name).exists() for name in manifest["files"])
