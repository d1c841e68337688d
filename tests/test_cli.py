"""CLI behavior: outputs, determinism, exit codes."""

import gc
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from pathlib import Path

import numpy as np
import orjson
import pytest

import pwamalgam
from pwamalgam import (
    ContractError,
    condition_bound,
    evaluate_J,
    frequency_grid,
    get_family,
    load_config,
    mj_tail_bound,
    parse_config,
    precision_boundary,
    reconstruct,
    sweep,
    verify_regularity,
)
from pwamalgam.cli import (
    _SOURCE_ROOT,
    _cell,
    _git_revision,
    _write_points,
    main,
)
from pwamalgam.engine import PRECISION_CAP
from pwamalgam.kernels import J_MAX
from pwamalgam.metrics import DRIFT_TOL, quadrature_checks, truncated_signal_values

from .memory import traced_peak
from .test_config import CONFIGS

GAUSSIAN = get_family("gaussian")

SMALL_SWEEP = {
    "family": {"id": "gaussian"},
    "alpha_sweep": {"values": [0.75, 1.25]},
    "nodes": {"N": 16, "d": 0.0, "seed": 0, "symmetric": True},
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


def refuse_constant(token):
    raise AssertionError(f"non-standard JSON token {token}")


def read_json(path):
    """The JSON file at `path`, parsed strictly: the ``NaN``, ``Infinity``
    and ``-Infinity`` tokens that `json` reads but the standard lacks fail."""
    return json.loads(path.read_text(encoding="utf-8"), parse_constant=refuse_constant)


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
        "precision_limited", "flags",
    ]
    assert [r["alpha"] for r in rows] == ["0.75", "1.25"]
    assert float(rows[1]["amalgam_error"]) < float(rows[0]["amalgam_error"])
    assert all(r["precision_limited"] == "False" and r["flags"] == "" for r in rows)

    manifest = read_json(out / "manifest.json")
    # One top-level key per line, keys sorted, each line an object's member.
    lines = (out / "manifest.json").read_text(encoding="utf-8").split("\n")
    assert lines[0] == "{" and lines[-2:] == ["}", ""]
    members = [json.loads("{" + line.removesuffix(",") + "}") for line in lines[1:-2]]
    assert [key for member in members for key in member] == sorted(manifest)
    assert {k: v for member in members for k, v in member.items()} == manifest
    assert manifest["command"] == "sweep"
    assert manifest["checks"]["failed_rows"] == 0
    assert manifest["checks"]["embedding_l2_le_amalgam"] is True
    assert manifest["checks"]["quadrature_drift"] < 1e-12
    assert set(manifest["files"]) == {
        "convergence.csv", "convergence.json", "manifest.json",
    }
    environment = manifest["environment"]
    assert set(environment) == {"python", "numpy", "scipy", "blas", "scipy_blas", "git_revision"}
    assert environment["numpy"] == np.__version__
    assert environment["git_revision"] == _git_revision(_SOURCE_ROOT)
    versions = {k: v for k, v in environment.items() if k != "git_revision"}
    assert all(isinstance(v, str) and v for v in versions.values())
    # The echoed config reproduces the run configuration.
    echoed = parse_config(manifest["config"])
    assert echoed == parse_config(SMALL_SWEEP)
    # JSON mirror carries the same rows.
    mirror = read_json(out / "convergence.json")
    assert [row["alpha"] for row in mirror] == [0.75, 1.25]


def json_rows(path):
    """The objects of a one-object-per-line JSON array, each parsed alone."""
    lines = path.read_text(encoding="utf-8").split("\n")
    assert lines[0] == "[" and lines[-2:] == ["]", ""]
    rows = [
        json.loads(line.removesuffix(","), parse_constant=refuse_constant) for line in lines[1:-2]
    ]
    assert all(line.endswith(",") for line in lines[1:-3])
    assert read_json(path) == rows
    return rows


MIRROR_RUNS = {
    # (config, exit code). The sweep's second row fails: NaN errors in the
    # CSV, null in the JSON, and its flag in both.
    "sweep": (
        {
            **SMALL_SWEEP,
            "family": {"id": "poisson"},
            "alpha_sweep": {"values": [8.0, 16.0]},
            "nodes": {"N": 32},
        },
        1,
    ),
    "verify-family": ({"family": {"id": "gaussian"}, "alpha_sweep": {"values": [0.5, 3.0]}}, 0),
}


@pytest.mark.parametrize("command", list(MIRROR_RUNS))
def test_json_mirror_matches_csv(tmp_path, command):
    payload, exit_code = MIRROR_RUNS[command]
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "run"
    assert run_cli([command, "--config", cfg, "--out", str(out)])[0] == exit_code
    table = "convergence" if command == "sweep" else "regularity"
    rows = json_rows(out / f"{table}.json")
    _, csv = csv_rows(out / f"{table}.csv")
    assert len(rows) == len(csv) == 2
    for row, line in zip(rows, csv):
        assert list(row) == sorted(line)
        for key, text in line.items():
            if key == "flags":
                assert text == "; ".join(row[key])
                continue
            value = float(text) if text not in ("True", "False") else text == "True"
            assert row[key] == value or (row[key] is None and text == "nan")
    if command == "sweep":
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
        {"bands": {"M_max": 4, "points_per_band": 256}},
        *({name: {**SMALL_SWEEP.get(name, {}), key: value}} for name, key, value in REMOVED_KEYS),
    ],
    ids=["parallel", "tolerances", "bands", *(key for _, key, _ in REMOVED_KEYS)],
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
    inputs = (config.make_grid(), config.make_spatial_grid(), config.m_max)
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
    # Errors that stay exactly 0 are an exact reconstruction, not a stall.
    checks = read_json(out / "manifest.json")["checks"]
    assert checks["errors_strictly_decreasing"] is True
    assert checks["all_pass"] is True


def test_rising_errors_exit_1_with_every_file_written(tmp_path):
    # Node truncation at N=32 makes two_band's trusted errors rise after
    # alpha = 2.5 (ROADMAP item 13): the sweep completes, writes every file,
    # and its failed monotone check fails the run.
    payload = {
        **SMALL_SWEEP,
        "signal": {"id": "two_band"},
        "alpha_sweep": {"values": [2.0, 2.25, 2.5, 2.75, 2.85]},
        "nodes": {"N": 32},
        "spatial": {"T_int": 16.0, "density": 20},
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "run"
    code, _, err = run_cli(["sweep", "--config", cfg, "--out", str(out)])
    assert (code, err) == (1, "")
    assert sorted(p.name for p in out.iterdir()) == [
        "convergence.csv", "convergence.json", "manifest.json",
    ]
    _, rows = csv_rows(out / "convergence.csv")
    assert all(r["flags"] == "" and r["precision_limited"] == "False" for r in rows)
    errors = [float(r["amalgam_error"]) for r in rows]
    assert errors[3] > errors[2]
    manifest = read_json(out / "manifest.json")
    assert sorted(manifest["files"]) == sorted(p.name for p in out.iterdir())
    checks = manifest["checks"]
    assert checks["failed_rows"] == 0
    assert checks["errors_strictly_decreasing"] is False
    assert checks["all_pass"] is False


def test_config_error_exits_2_without_manifest(tmp_path):
    cfg = write_config(tmp_path, {**SMALL_SWEEP, "nodes": {"N": 16, "d": 0.3}})
    out = tmp_path / "run"
    code, _, err = run_cli(["sweep", "--config", cfg, "--out", str(out)])
    assert code == 2
    assert "Kadec" in err
    assert not (out / "manifest.json").exists()
    assert not (out / "convergence.csv").exists()


@pytest.mark.parametrize(
    "section",
    [{"alpha_sweep": {"values": [10**400]}}, {"nodes": {"N": 10**400}}],
    ids=["alpha", "N"],
)
def test_number_beyond_the_float_range_exits_2(tmp_path, section):
    # Each once raised OverflowError: a traceback and exit 1.
    cfg = write_config(tmp_path, {**SMALL_SWEEP, **section})
    out = tmp_path / "run"
    for command in ("sweep", "reconstruct"):
        code, _, err = run_cli([command, "--config", cfg, "--out", str(out)])
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()


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


@pytest.mark.parametrize(
    "case",
    [
        "config-is-directory",
        "config-not-utf8",
        "config-repeats-key",
        "config-density-1e300",
        "config-density-1e400",
        "out-is-file",
        "table-is-directory",
    ],
)
def test_unreadable_config_or_unusable_out_exits_2(tmp_path, case):
    cfg = write_config(tmp_path, SMALL_SWEEP)
    out = tmp_path / "run"
    if case == "config-is-directory":
        cfg = str(tmp_path)
    elif case == "config-not-utf8":
        Path(cfg).write_bytes(b'{"signal": {"id": "gauss_pair\xff"}}')
    elif case == "config-repeats-key":
        Path(cfg).write_text('{"nodes": {"N": 16, "N": 8}}', encoding="utf-8")
    elif case.startswith("config-density-"):
        # Too many grid points to build: once numpy's ValueError or Python's
        # OverflowError in make_spatial_grid, a traceback and exit 1.
        density = 10 ** int(case.rsplit("e", 1)[1])
        cfg = write_config(tmp_path, {**SMALL_SWEEP, "spatial": {"density": density}})
    elif case == "out-is-file":
        out.write_text("not a directory", encoding="utf-8")
    else:
        (out / "convergence.csv").mkdir(parents=True)
    code, _, err = run_cli(["sweep", "--config", cfg, "--out", str(out)])
    assert code == 2
    assert err.startswith("error:")
    assert err.count("\n") == 1
    if case.startswith("config-"):
        assert not out.exists()


def test_solver_breakdown_rows_exit_1(tmp_path):
    payload = {
        **SMALL_SWEEP,
        "family": {"id": "poisson"},
        "alpha_sweep": {"values": [8.0, 16.0]},
        "nodes": {"N": 32},
        "spatial": {"T_int": 8.0, "density": 10},
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "run"
    code, _, _ = run_cli(["sweep", "--config", cfg, "--out", str(out)])
    assert code == 1
    _, rows = csv_rows(out / "convergence.csv")
    assert rows[0]["amalgam_error"] != "nan"
    assert rows[1]["amalgam_error"] == "nan"
    # The broken alpha = 16 matrix is far above the cap, and its row says so.
    assert float(rows[1]["condition_estimate"]) > PRECISION_CAP
    assert [r["precision_limited"] for r in rows] == ["False", "True"]
    manifest = read_json(out / "manifest.json")
    assert manifest["checks"]["failed_rows"] == 1
    assert manifest["checks"]["precision_limited_rows"] == 1
    assert manifest["checks"]["all_pass"] is False
    mirror = read_json(out / "convergence.json")
    assert mirror[1]["amalgam_error"] is None
    assert mirror[1]["flags"]


def test_perturbed_breakdown_row_carries_inf_in_csv_and_null_in_json(tmp_path):
    # No condition bound holds off the integer nodes, so the broken alpha = 16
    # row carries inf: ``inf`` in the CSV and null in the JSON, which has no
    # token for it (``Infinity`` is not JSON). The row is still labelled
    # precision-limited.
    payload = {
        **SMALL_SWEEP,
        "family": {"id": "poisson"},
        "alpha_sweep": {"values": [8.0, 16.0]},
        "nodes": {"N": 16, "d": 0.2, "seed": 3, "symmetric": False},
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "run"
    code, _, _ = run_cli(["sweep", "--config", cfg, "--out", str(out)])
    assert code == 1
    _, rows = csv_rows(out / "convergence.csv")
    assert rows[0]["condition_estimate"] != "inf"
    assert rows[1]["condition_estimate"] == "inf"
    assert [r["precision_limited"] for r in rows] == ["False", "True"]
    assert rows[1]["flags"].startswith("failed: ")
    assert "no condition bound holds off the integer nodes" in rows[1]["flags"]
    mirror = (out / "convergence.json").read_text(encoding="utf-8").split("\n")
    assert '"condition_estimate": null' in mirror[2]
    assert json_rows(out / "convergence.json")[1]["condition_estimate"] is None


@pytest.mark.parametrize("item", ["a, b", 'a "b"', "a\nb", "a\rb"])
def test_flags_cell_refuses_what_a_csv_cell_would_quote(item):
    # Items are joined by "; " unquoted, so none may hold a delimiter.
    assert _cell(()) == "" and _cell(("a", "b")) == "a; b"
    with pytest.raises(ContractError, match="comma, quote or line break"):
        _cell(("a", item))


def test_precision_limited_rows_still_exit_0(tmp_path):
    payload = {
        **SMALL_SWEEP,
        "alpha_sweep": {"values": [2.5, 3.0]},
        "nodes": {"N": 32},
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "run"
    code, _, _ = run_cli(["sweep", "--config", cfg, "--out", str(out)])
    assert code == 0
    _, rows = csv_rows(out / "convergence.csv")
    assert rows[0]["precision_limited"] == "False"
    assert rows[1]["precision_limited"] == "True"
    manifest = read_json(out / "manifest.json")
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
        "spatial": {"T_int": 8.0},
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "run"
    code, _, _ = run_cli(["sweep", "--config", cfg, "--out", str(out)])
    assert code == 0
    _, rows = csv_rows(out / "convergence.csv")
    assert [r["precision_limited"] for r in rows] == ["False", "False", "True"]
    assert float(rows[2]["amalgam_error"]) > float(rows[1]["amalgam_error"])
    checks = read_json(out / "manifest.json")["checks"]
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
    assert header == [
        "alpha", "delta_estimate", "m_alpha", "h2_ratio", "condition_bound", "mj_tail",
        "h3_ratio_at_0.0",
        "h3_ratio_at_0.7853981633974483", "h3_ratio_at_-0.7853981633974483",
        "h3_ratio_at_1.5707963267948966", "h3_ratio_at_-1.5707963267948966",
        "h3_ratio_at_2.0943951023931953", "h3_ratio_at_-2.0943951023931953",
        "pass_A2", "pass_A3", "pass_H2", "pass_H3",
    ]
    for row in rows:
        assert row["pass_A2"] == "True"
        assert float(row["delta_estimate"]) > 0
        assert float(row["condition_bound"]) == condition_bound(GAUSSIAN, float(row["alpha"]))
        assert float(row["mj_tail"]) == mj_tail_bound(GAUSSIAN, float(row["alpha"]), J_MAX)
    manifest = read_json(out / "manifest.json")
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
    manifest = read_json(out / "manifest.json")
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


def test_git_revision_is_that_of_the_checkout():
    # `git rev-parse HEAD` in the source root and not above it; outside a
    # checkout it fails and the revision is None.
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"],
        cwd=_SOURCE_ROOT,
        capture_output=True,
        text=True,
        env={**os.environ, "GIT_CEILING_DIRECTORIES": str(_SOURCE_ROOT.parent)},
    )
    revision = _git_revision(_SOURCE_ROOT)
    assert revision == (done.stdout.strip() if done.returncode == 0 else None)
    assert revision is None or len(revision) == 40


def test_git_revision_is_none_without_a_repository(tmp_path):
    assert _git_revision(tmp_path) is None
    (tmp_path / ".git").mkdir()  # a HEAD whose branch has no commit yet
    (tmp_path / ".git" / "HEAD").write_text("ref: refs/heads/main\n", encoding="utf-8")
    assert _git_revision(tmp_path) is None


def test_git_revision_reads_packed_refs_and_a_detached_head(tmp_path):
    git = tmp_path / ".git"
    git.mkdir()
    sha = "0123456789abcdef0123456789abcdef01234567"
    (git / "HEAD").write_text("ref: refs/heads/main\n", encoding="utf-8")
    (git / "packed-refs").write_text(
        f"# pack-refs with: peeled fully-peeled sorted\n{'f' * 40} refs/heads/other\n"
        f"{sha} refs/heads/main\n",
        encoding="utf-8",
    )
    assert _git_revision(tmp_path) == sha
    (git / "HEAD").write_text(f"{'a' * 40}\n", encoding="utf-8")
    assert _git_revision(tmp_path) == "a" * 40


def test_git_revision_follows_the_gitdir_of_a_worktree_or_submodule(tmp_path):
    # A worktree: ".git" is a file naming its git directory relative to the
    # checkout, whose "commondir" leads to the refs of the main repository.
    sha = "0123456789abcdef0123456789abcdef01234567"
    common = tmp_path / "main" / ".git"
    (common / "refs" / "heads").mkdir(parents=True)
    (common / "refs" / "heads" / "main").write_text(f"{sha}\n", encoding="utf-8")
    gitdir = common / "worktrees" / "wt"
    gitdir.mkdir(parents=True)
    (gitdir / "commondir").write_text("../..\n", encoding="utf-8")
    (gitdir / "HEAD").write_text("ref: refs/heads/main\n", encoding="utf-8")
    checkout = tmp_path / "wt"
    checkout.mkdir()
    (checkout / ".git").write_text("gitdir: ../main/.git/worktrees/wt\n", encoding="utf-8")
    assert _git_revision(checkout) == sha
    (gitdir / "HEAD").write_text(f"{'b' * 40}\n", encoding="utf-8")
    assert _git_revision(checkout) == "b" * 40
    # A submodule: an absolute gitdir with no "commondir" keeps its own refs.
    module = common / "modules" / "sub"
    module.mkdir(parents=True)
    (module / "HEAD").write_text("ref: refs/heads/main\n", encoding="utf-8")
    (module / "packed-refs").write_text(f"{'c' * 40} refs/heads/main\n", encoding="utf-8")
    submodule = tmp_path / "sub"
    submodule.mkdir()
    (submodule / ".git").write_text(f"gitdir: {module}\n", encoding="utf-8")
    assert _git_revision(submodule) == "c" * 40


def unreachable_after(call):
    """The objects that `call()` leaves for the cyclic collector, which is
    paused while it runs."""
    enabled, debug = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    try:
        call()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        return list(gc.garbage)
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def test_main_leaves_no_parser_behind(capsys):
    # One parser serves every call. Built per call, it left 161 objects in
    # reference cycles.
    assert main(["list-signals"]) == 0  # warm
    assert unreachable_after(lambda: main(["list-signals"])) == []
    assert "two_band" in capsys.readouterr().out


RECONSTRUCT_BASE = {
    "family": {"id": "gaussian"},
    "nodes": {"N": 32},
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
    points = read_json(out / "reconstruction.json")
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
        }
        cfg = write_config(tmp_path, payload, f"rec_{alpha}.json")
        out = tmp_path / f"run_{alpha}"
        code, _, _ = run_cli(
            ["reconstruct", "--config", cfg, "--out", str(out), "--eval-points", "0.4,0"]
        )
        assert code == 0
        points = read_json(out / "reconstruction.json")
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


def test_reconstruct_sorts_points_stably(tmp_path):
    # 0.0 and -0.0 compare equal, so they keep the order they were given in,
    # as `list.sort` kept them; the bytes parse to the doubles the list-sorting
    # writer wrote, each spelled as orjson spells it.
    cfg = write_config(tmp_path, {**RECONSTRUCT_BASE, "alpha_sweep": {"values": [1.0]}})
    orders = [("0.5,0.0,-0.0", [1, -1, 1]), ("-0.0,0.5,0", [-1, 1, 1])]
    for i, (points, signs) in enumerate(orders):
        out = tmp_path / f"run{i}"
        code, _, _ = run_cli(
            ["reconstruct", "--config", cfg, "--out", str(out), f"--eval-points={points}"]
        )
        assert code == 0
        xs = [row["x"] for row in json_rows(out / "reconstruction.json")]
        assert xs == [0.0, 0.0, 0.5] and [math.copysign(1, x) for x in xs] == signs
    digest = hashlib.sha256((tmp_path / "run0" / "reconstruction.json").read_bytes())
    assert digest.hexdigest() == "6350f223931839724907ed702d9cdcdd9c1a8011cbb37c663c159e38cd417dca"


def traced_reconstruct(tmp_path):
    """Exit code and traced peak of the reconstruct-n128 benchmark row at
    alpha = 2.5 and seed 41 (257 perturbed nodes, 2561 points), run a second
    time: the first run warms up."""
    payload = {
        "family": {"id": "gaussian"},
        "alpha_sweep": {"values": [2.5]},
        "nodes": {"N": 128, "d": 0.2, "seed": 41, "symmetric": False},
        "signal": {"id": "two_band"},
    }
    args = ["reconstruct", "--config", write_config(tmp_path, payload), "--out", str(tmp_path)]
    assert run_cli(args)[0] == 0  # warm
    codes = []
    peak = traced_peak(lambda: codes.append(run_cli(args)[0]))
    return codes[0], peak


def test_reconstruct_peak_memory_stays_below_one_mib(tmp_path):
    # The collocation matrix (0.50 MiB) is built in row blocks, and the points
    # and outputs become Python floats a block at a time; built whole and
    # converted whole they peaked at about 1.4 MiB.
    code, peak = traced_reconstruct(tmp_path)
    assert code == 0 and len(json_rows(tmp_path / "reconstruction.json")) == 2561
    assert peak <= 2**20


def test_reconstruct_peak_memory_is_its_collocation_build(tmp_path):
    # The collocation blocks take their kernel values in place, and
    # `inverse_ft_at` allocates its result only after its band rows, so the
    # peak is the perturbed build of the 257 x 257 matrix (0.50 MiB) and its
    # last block, no longer the sampling of the 2561-point grid: 0.593 MiB.
    # With the result beside a phase block, and a parser per call left for
    # the collector, it read 0.638 MiB.
    code, peak = traced_reconstruct(tmp_path)
    assert code == 0
    assert peak <= 0.62 * 2**20


@pytest.mark.parametrize("command", ["verify-family", "sweep", "reconstruct"])
def test_command_leaves_nothing_for_the_collector(tmp_path, command):
    # One parser serves every call, and every JSON file is written by one
    # compiled encoder. The indented manifest's pure-Python encoder left 33
    # objects in closure cycles per call.
    alphas = [1.0] if command == "reconstruct" else [1.0, 2.0]
    payload = {**RECONSTRUCT_BASE, "alpha_sweep": {"values": alphas}, "nodes": {"N": 16}}
    args = [command, "--config", write_config(tmp_path, payload), "--out", str(tmp_path)]
    assert run_cli(args)[0] == 0  # warm
    assert unreachable_after(lambda: run_cli(args)) == []


def test_reconstruct_empty_points(tmp_path):
    payload = {**RECONSTRUCT_BASE, "alpha_sweep": {"values": [1.0]}}
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "run"
    code, _, _ = run_cli(
        ["reconstruct", "--config", cfg, "--out", str(out), "--eval-points", ""]
    )
    assert code == 0
    assert (out / "reconstruction.json").read_text(encoding="utf-8") == "[]\n"


def test_rows_are_written_without_the_whole_text(tmp_path):
    # 2561 points, shaped like those of a reconstruct on its default grid. The
    # writer streams them a block at a time: its peak stays below the size of
    # the file, whose rows are laid out as the row encoder of the tables lays
    # them out.
    xs = np.linspace(-64.0, 64.0, 2561)
    f_re, f_im, j_re, j_im, error = (
        np.sin(k * xs) / np.cosh(xs / 7.0) for k in (1.0, 2.0, 3.0, 5.0, 7.0)
    )
    f, J = f_re + 1j * f_im, j_re + 1j * j_im
    path = tmp_path / "reconstruction.json"
    peak = traced_peak(lambda: _write_points(path, xs, f, J, error))
    assert len(json_rows(path)) == 2561
    assert peak < path.stat().st_size
    assert path.read_text(encoding="utf-8") == points_text(xs, f_re, f_im, j_re, j_im, error)


# A row as `json.JSONEncoder(sort_keys=True)` writes it, each digit k standing
# for the k-th of x, f_re, f_im, j_re, j_im and error.
ROW_LAYOUT = json.JSONEncoder(sort_keys=True).encode(
    {"x": 0, "f": [1, 2], "J": [3, 4], "error": 5}
)


def points_text(*columns):
    """The text of ``reconstruction.json`` for six real columns: rows in
    `ROW_LAYOUT`, each number as `orjson.dumps` spells the float."""
    rows = (
        re.sub(r"\d", lambda k: orjson.dumps(row[int(k.group())]).decode(), ROW_LAYOUT)
        for row in zip(*(column.tolist() for column in columns))
    )
    return "[\n" + ",\n".join(rows) + "\n]\n"


def write_point_columns(path, x, f_re, f_im, j_re, j_im, error):
    """`_write_points` of six real columns, each complex pair joined
    without arithmetic, which would turn a -0.0 real part into 0.0."""
    f, J = np.empty(len(x), dtype=complex), np.empty(len(x), dtype=complex)
    f.real, f.imag, J.real, J.imag = f_re, f_im, j_re, j_im
    _write_points(path, x, f, J, error)


@pytest.mark.parametrize(
    "value", [-0.0, 0.0, 1e16, 1e-5, 5e-324, 1.7976931348623157e308], ids=repr
)
def test_finite_points_are_written_as_orjson_spells_them(tmp_path, value):
    # The value in each of the six columns in turn, the others 1.5.
    columns = [np.full(6, 1.5) for _ in range(6)]
    for k, column in enumerate(columns):
        column[k] = value
    path = tmp_path / "reconstruction.json"
    write_point_columns(path, *columns)
    assert path.read_text(encoding="utf-8") == points_text(*columns)


# Zeros, the least subnormal, the least normal, both sides of 1e-4 (below it
# orjson writes 0.00001 where repr writes 1e-05), an exponent repr pads with
# a sign (1e+16), and the largest double.
EDGE_VALUES = [
    0.0, 5e-324, 2.2250738585072014e-308, 1e-5, 9.99e-5, 1e-4, 1e16, 1.7976931348623157e308
]


def test_points_read_back_bit_for_bit_in_the_digits_of_repr(tmp_path):
    # Seeded random bit patterns, the finite ones, with the edge values and
    # their negatives, in a different order in each of the six columns: json
    # reads every double back exactly, and each number's text has the
    # decimal value of its repr.
    rng = np.random.default_rng(2013)
    patterns = np.frombuffer(rng.bytes(8 * 4096), dtype=np.float64)
    finite = patterns[np.isfinite(patterns)]
    values = np.concatenate([finite, EDGE_VALUES, np.negative(EDGE_VALUES)])
    columns = [rng.permutation(values) for _ in range(6)]
    path = tmp_path / "reconstruction.json"
    write_point_columns(path, *columns)
    text = path.read_text(encoding="utf-8")
    floats, decimals = json.loads(text), json.loads(text, parse_float=Decimal)
    for column, read, spelled in zip(columns, point_columns(floats), point_columns(decimals)):
        assert np.array_equal(np.array(read).view(np.uint64), column.view(np.uint64))
        assert [(d, v) for d, v in zip(spelled, column.tolist()) if d != Decimal(repr(v))] == []


def point_columns(rows):
    """The x, f_re, f_im, j_re, j_im and error columns of parsed rows."""
    return list(zip(*([row["x"], *row["f"], *row["J"], row["error"]] for row in rows)))


POINT_COLUMNS = ["x", "f_re", "f_im", "j_re", "j_im", "error"]


@pytest.mark.parametrize("column", POINT_COLUMNS)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=repr)
def test_non_finite_points_raise_and_write_no_file(tmp_path, value, column):
    # NaN and infinity have no JSON token: in any of the six columns, one
    # raises before reconstruction.json is opened.
    path = tmp_path / "reconstruction.json"
    columns = [np.array([-1.0, 0.0, 1.0]) for _ in range(6)]
    columns[POINT_COLUMNS.index(column)][1] = value
    with pytest.raises(ContractError, match="finite numbers only"):
        write_point_columns(path, *columns)
    assert not path.exists()


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
    # and drop out of the manifest's max_pointwise_error. From |x| of about
    # 7.2e306 the phase 2*pi*m*x of the |m| = 4 bands overflows, and at
    # 1.7e308 so does np.sinc's pi*x: those wrote NaN values and exited 0.
    cfg = write_config(tmp_path, {**RECONSTRUCT_BASE, "alpha_sweep": {"values": [1.0]}})
    for i, points in enumerate(
        ["0,nan,inf,0.4", "-Infinity", "0.2,NaN", "3e307", "0,1.7e308", "-1e16"]
    ):
        out = tmp_path / f"run{i}"
        code, _, err = run_cli(
            ["reconstruct", "--config", cfg, "--out", str(out), f"--eval-points={points}"]
        )
        assert code == 2
        assert "eval-points must be finite and within 2**53 of 0" in err
        assert not out.exists()


def test_reconstruct_values_stay_finite_up_to_2_to_53(tmp_path):
    gauss_pair = write_config(tmp_path, {**RECONSTRUCT_BASE, "alpha_sweep": {"values": [1.0]}})
    tri_band = str(next(p for p in CONFIGS if p.stem == "reconstruct_tri_band"))
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for cfg in (gauss_pair, tri_band):
            args = ["reconstruct", "--config", cfg, "--out", str(out)]
            assert run_cli([*args, f"--eval-points={-(2**53)},{2**53}"])[0] == 0
            rows = json_rows(out / "reconstruction.json")
            assert all(math.isfinite(v) for row in rows for v in (*row["f"], *row["J"]))


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
    (point,) = read_json(out / "reconstruction.json")
    assert point["f"][1] != 0.0  # genuinely complex reference
    assert point["error"] < 1e-2


SWEEP_CHECKS = {
    "rows", "failed_rows", "precision_limited_rows", "excluded_rows",
    "embedding_l2_le_amalgam", "errors_strictly_decreasing",
    "quadrature_refinement_factor", "quadrature_drift", "all_pass",
}
RECONSTRUCT_CHECKS = {
    "alpha", "points", "max_pointwise_error", "quadrature_refinement_factor", "quadrature_drift",
    "all_pass",
}


@pytest.mark.parametrize("d", [0.0, 0.1])
def test_manifest_checks_do_not_depend_on_the_nodes(tmp_path, d):
    # One condition estimate on every node set: integer and perturbed nodes
    # record the same checks, with no field naming where the estimate came from.
    nodes = {"N": 16, "d": d, "seed": 3}
    sweep_cfg = write_config(tmp_path, {**SMALL_SWEEP, "nodes": nodes})
    rec_payload = {**RECONSTRUCT_BASE, "nodes": nodes, "alpha_sweep": {"values": [1.0]}}
    rec_cfg = write_config(tmp_path, rec_payload, "rec.json")
    runs = {
        "sweep": (
            ["sweep", "--config", sweep_cfg, "--out", str(tmp_path / "sweep")],
            SWEEP_CHECKS,
        ),
        "reconstruct": (
            [
                "reconstruct", "--config", rec_cfg, "--out", str(tmp_path / "reconstruct"),
                "--eval-points", "0",
            ],
            RECONSTRUCT_CHECKS,
        ),
    }
    for name, (args, keys) in runs.items():
        assert run_cli(args)[0] == 0
        manifest = read_json(tmp_path / name / "manifest.json")
        assert set(manifest["checks"]) == keys


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
        manifest = read_json(tmp_path / name / "manifest.json")
        timings = manifest["timings"]
        assert set(timings) == {"build", "compute", "write"}
        assert all(isinstance(v, float) and v >= 0 for v in timings.values())


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=repr)
def test_non_finite_manifest_value_exits_2(tmp_path, monkeypatch, value):
    # JSON has no token for NaN or inf: the run stops with exit 2 and no
    # manifest, and the data file written before it stays.
    def drifting(*args):
        return {**quadrature_checks(*args), "quadrature_drift": value}

    monkeypatch.setattr("pwamalgam.cli.quadrature_checks", drifting)
    cfg = write_config(tmp_path, {**RECONSTRUCT_BASE, "alpha_sweep": {"values": [1.0]}})
    out = tmp_path / "run"
    args = ["reconstruct", "--config", cfg, "--out", str(out), "--eval-points", "0"]
    code, _, err = run_cli(args)
    assert code == 2 and err.count("\n") == 1
    assert "manifest.json holds finite numbers only" in err
    assert not (out / "manifest.json").exists()
    assert json_rows(out / "reconstruction.json")[0]["x"] == 0.0


def test_drift_above_tolerance_exits_1_with_every_file_written(tmp_path, monkeypatch):
    # A finite drift past `DRIFT_TOL` is a failed check, not a contract
    # error: the run writes both files and exits 1.
    def drifting(*args):
        return {**quadrature_checks(*args), "quadrature_drift": 2 * DRIFT_TOL}

    monkeypatch.setattr("pwamalgam.cli.quadrature_checks", drifting)
    cfg = write_config(tmp_path, {**RECONSTRUCT_BASE, "alpha_sweep": {"values": [1.0]}})
    out = tmp_path / "run"
    args = ["reconstruct", "--config", cfg, "--out", str(out), "--eval-points", "0"]
    assert run_cli(args) == (1, "", "")
    checks = read_json(out / "manifest.json")["checks"]
    assert checks["quadrature_drift"] == 2 * DRIFT_TOL
    assert checks["all_pass"] is False
    assert json_rows(out / "reconstruction.json")[0]["x"] == 0.0


def test_drift_check_reuses_the_run_grid(tmp_path, monkeypatch):
    # The drift check refines the run's grid by halving its panels: one
    # Gauss-Legendre rule per run, the run's own. Rules are kept per process,
    # so the memo is emptied first.
    degrees = []
    leggauss = np.polynomial.legendre.leggauss

    def counting(degree):
        degrees.append(degree)
        return leggauss(degree)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
    pwamalgam.spectral._legendre_rule.cache_clear()
    payload = {"family": {"id": "gaussian"}, "alpha_sweep": {"values": [1.0]}}
    cfg = write_config(tmp_path, payload)
    args = ["reconstruct", "--config", cfg, "--out", str(tmp_path / "run"), "--eval-points", "0"]
    assert run_cli(args)[0] == 0
    assert sorted(degrees) == [128]


@pytest.mark.parametrize("path", CONFIGS, ids=lambda path: path.stem)
def test_drift_is_rounding_on_every_committed_config(path):
    config = load_config(path)
    checks = quadrature_checks(config.make_signal(), config.make_grid(), config.m_max)
    assert 0.0 <= checks["quadrature_drift"] < DRIFT_TOL


def test_drift_flags_an_under_resolved_grid():
    # Eight nodes per band, far below the studies' 256, cannot resolve
    # gauss_pair: the refined grid moves its amalgam norm by about 2e-3.
    config = parse_config({"signal": {"id": "gauss_pair"}})
    checks = quadrature_checks(config.make_signal(), frequency_grid(8), config.m_max)
    assert checks["quadrature_drift"] > 1e-3


COMMAND_BY_PREFIX = {"verify_": "verify-family", "sweep_": "sweep", "reconstruct_": "reconstruct"}

# sha256 of every data file the committed configs write; manifests carry a
# timestamp and timings, so they are left out.
DATA_FILE_SHA256 = {
    "reconstruct_tri_band/reconstruction.json": "c8a38bd862b5a9df1799988b4bdcee006dac2a221cad100f8643fa6732bb1dfb",
    "sweep_gauss_pair/convergence.csv": "447f9500eed4e26192f3c0bb9b16ffebbf017fdfe6b35956738af36d8a43202f",
    "sweep_gauss_pair/convergence.json": "7ac3d30179ca77dfec91c7a11a418c8906820191a30ae4fa791252220e3cc5c5",
    "sweep_perturbed_nodes/convergence.csv": "8bbe263516fc7f1cae5909097127dd98bf0bf2207851ac59c5fccf87982ac621",
    "sweep_perturbed_nodes/convergence.json": "a7c85090b88430551d50122858265fe62a867fcfd8603fd2d7fecb3df2c498f4",
    "sweep_precision_edge/convergence.csv": "fc5f450b53e521d0840f178e989c07910230a461f11c51d98cdbceae622921ee",
    "sweep_precision_edge/convergence.json": "549d7284433d2f888516dfd43d44f731ed3ea14272344161be254f6ec335a9ef",
    "sweep_two_band/convergence.csv": "fbd6e0a2d652de6d76d4f04a299bd3ec3924e4332265dcaa322a43bde5311845",
    "sweep_two_band/convergence.json": "b734022016715b78e8fee6f6efa5902f3af8319ab9fbc6770a8d8d661a196661",
    "verify_gaussian/regularity.csv": "8ec30731f2679d0605a081e7693ef2b68d1cacd28fdc28abfa6ac54e83145c70",
    "verify_gaussian/regularity.json": "675afa1cb5048b882bafeab8d7b6157aa006fa14d880b5fbc3b091f933ca3144",
    "verify_poisson/regularity.csv": "95863bb0867981721c6759cbcb046749cf71fc26dd0bcb49b854dc7425e7fa0f",
    "verify_poisson/regularity.json": "5d620567b237ba7ad566d69b353e07dd2419fc0e4e55020d7386f129a7970d15",
}


# The `checks` of every committed config's manifest, as the run writes them
# (keys, values and types); like `DATA_FILE_SHA256`, tied to the numpy and
# OpenBLAS it was recorded with.
MANIFEST_CHECKS = {
    "reconstruct_tri_band": {
        "all_pass": True,
        "alpha": 1.0,
        "max_pointwise_error": 0.0017889949537186348,
        "points": 161,
        "quadrature_drift": 1.2274417907723579e-15,
        "quadrature_refinement_factor": 2,
    },
    "sweep_gauss_pair": {
        "all_pass": True,
        "embedding_l2_le_amalgam": True,
        "errors_strictly_decreasing": True,
        "excluded_rows": 0,
        "failed_rows": 0,
        "precision_limited_rows": 0,
        "quadrature_drift": 2.3251807727466168e-15,
        "quadrature_refinement_factor": 2,
        "rows": 4,
    },
    "sweep_perturbed_nodes": {
        "all_pass": True,
        "embedding_l2_le_amalgam": True,
        "errors_strictly_decreasing": True,
        "excluded_rows": 0,
        "failed_rows": 0,
        "precision_limited_rows": 0,
        "quadrature_drift": 2.3251807727466168e-15,
        "quadrature_refinement_factor": 2,
        "rows": 4,
    },
    "sweep_precision_edge": {
        "all_pass": True,
        "embedding_l2_le_amalgam": True,
        "errors_strictly_decreasing": True,
        "excluded_rows": 1,
        "failed_rows": 0,
        "precision_limited_rows": 1,
        "quadrature_drift": 2.3251807727466168e-15,
        "quadrature_refinement_factor": 2,
        "rows": 3,
    },
    "sweep_two_band": {
        "all_pass": True,
        "embedding_l2_le_amalgam": True,
        "errors_strictly_decreasing": True,
        "excluded_rows": 0,
        "failed_rows": 0,
        "precision_limited_rows": 0,
        "quadrature_drift": 0.0,
        "quadrature_refinement_factor": 2,
        "rows": 4,
    },
    "verify_gaussian": {
        "A2": True,
        "A3": True,
        "H2": True,
        "H3_final": True,
        "H3_monotone": True,
        "all_pass": True,
        "precision_boundary_alpha": 2.8698382574849925,
    },
    "verify_poisson": {
        "A2": True,
        "A3": True,
        "H2": True,
        "H3_final": True,
        "H3_monotone": True,
        "all_pass": True,
        "precision_boundary_alpha": 9.015862786705785,
    },
}


@pytest.mark.parametrize("path", CONFIGS, ids=lambda path: path.stem)
def test_committed_config_runs(tmp_path, path):
    """Each committed config is a study; its file-name prefix names the command.

    Its data files must match `DATA_FILE_SHA256` byte for byte, and its
    manifest's `checks` must equal `MANIFEST_CHECKS`, types included. Like
    ``tests/test_bitwise.py``, the table is tied to the numpy and OpenBLAS it
    was recorded with (numpy 2.4.6, scipy 1.17.1 with its OpenBLAS 0.3.30):
    a library whose rounding differs fails here, and a change that means to
    keep the outputs must keep this table. 1 and 2 BLAS threads give the
    same bytes at the committed sizes (N = 32) only; from N = 128 up the
    Cholesky factor depends on the thread count, see `INLINE_STUDY_SHA256`.
    """
    cmd = config_command(path)
    out = tmp_path / "run"
    code, _, _ = run_cli([cmd, "--config", str(path), "--out", str(out)])
    assert code == 0
    manifest = read_json(out / "manifest.json")
    assert manifest["command"] == cmd
    assert sorted(manifest["files"]) == sorted(p.name for p in out.iterdir())
    assert data_digests(path, out) == expected_digests(path)
    assert typed(manifest["checks"]) == typed(MANIFEST_CHECKS[path.stem])


def typed(checks):
    """`checks` with each value paired with its type: ``1 == True`` and
    ``2 == 2.0`` in Python, but not in a manifest."""
    return {key: (type(value).__name__, value) for key, value in checks.items()}


def config_command(path):
    commands = [c for p, c in COMMAND_BY_PREFIX.items() if path.name.startswith(p)]
    assert len(commands) == 1, f"{path.name} has no command prefix"
    return commands[0]


def data_digests(path, out):
    return {
        f"{path.stem}/{file.name}": hashlib.sha256(file.read_bytes()).hexdigest()
        for file in out.iterdir()
        if file.name != "manifest.json"
    }


def expected_digests(path, table=DATA_FILE_SHA256):
    return {k: v for k, v in table.items() if k.startswith(f"{path.stem}/")}


@pytest.mark.parametrize("stem", ["sweep_gauss_pair", "reconstruct_tri_band"])
def test_committed_config_bytes_hold_on_one_blas_thread(tmp_path, stem):
    """`DATA_FILE_SHA256` holds at one BLAS thread as well as at the default
    count the other tests run with."""
    path = next(p for p in CONFIGS if p.stem == stem)
    out = tmp_path / "run"
    run_fresh(path, out, blas_threads=1)
    assert data_digests(path, out) == expected_digests(path)


def run_fresh(path, out, blas_threads):
    """Run a study in a fresh interpreter: OpenBLAS reads its thread count
    when it loads."""
    src = str(Path(pwamalgam.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "OPENBLAS_NUM_THREADS": str(blas_threads),
        "OMP_NUM_THREADS": str(blas_threads),
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    }
    args = ["-m", "pwamalgam.cli", config_command(path), "--config", str(path)]
    result = subprocess.run(
        [sys.executable, *args, "--out", str(out)], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr


# Studies larger than any committed config. At N = 32 a rounding change in
# the last row of an operator can pass unseen; these reach the 513th node of
# an N = 256 sweep and the 2561st point of a reconstruct, where it shows.
INLINE_STUDIES = {
    "sweep_gauss_pair_N256": {
        **json.loads(next(p for p in CONFIGS if p.stem == "sweep_gauss_pair").read_text()),
        "nodes": {"N": 256, "d": 0.0, "seed": 0, "symmetric": True},
    },
    "reconstruct_two_band_perturbed_N128": {
        "family": {"id": "gaussian"},
        "alpha_sweep": {"values": [2.5]},
        "nodes": {"N": 128, "d": 0.2, "seed": 7, "symmetric": False},
        "signal": {"id": "two_band"},
    },
}
# sha256 of their data files by BLAS thread count: OpenBLAS factorizes the
# 257- and 513-node collocation matrices differently on one thread and on two
# (the 65-node ones of the committed configs alike), so each count has its own.
INLINE_STUDY_SHA256 = {
    1: {
        "reconstruct_two_band_perturbed_N128/reconstruction.json": "3899390ec1c44858029fc1f662b968fe83c5c17d0f4be85a667723ae3607c618",
        "sweep_gauss_pair_N256/convergence.csv": "3232111293cadf43299f845dee906091a9c696d29455b932219f2e1312a947f4",
        "sweep_gauss_pair_N256/convergence.json": "83b95b1a699a7606d2e8de4f7d555a1073b780e4b7ce2662a489f1be7798bcd5",
    },
    2: {
        "reconstruct_two_band_perturbed_N128/reconstruction.json": "6be161169cbfb3b35b24969834ae39362de7c28567125ec164ca3901026d7e98",
        "sweep_gauss_pair_N256/convergence.csv": "2e195be87bfc8ad561ab631b5b4db550117f493cce4b49afaae638ea8f6baf29",
        "sweep_gauss_pair_N256/convergence.json": "a4e57ba3b24981ee37dc4b653c95fd89851f9fd7037ac59712b09a8ec662a512",
    },
}


@pytest.mark.parametrize("blas_threads", [1, 2])
@pytest.mark.parametrize("stem", list(INLINE_STUDIES))
def test_inline_study_bytes(tmp_path, stem, blas_threads):
    path = Path(write_config(tmp_path, INLINE_STUDIES[stem], f"{stem}.json"))
    out = tmp_path / "run"
    run_fresh(path, out, blas_threads)
    assert data_digests(path, out) == expected_digests(path, INLINE_STUDY_SHA256[blas_threads])
