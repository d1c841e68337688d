"""The study scripts run end to end on small inputs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, argv",
    [
        ("convergence_study", ["--n", "8", "--m-max", "1", "--signals", "gauss_pair", "two_band"]),
        ("node_perturbation_study", ["--n", "8", "--m-max", "1"]),
        ("regularity_certificates", ["--count", "3"]),
    ],
)
def test_script_main_exits_0(name, argv, capsys):
    assert load_script(name).main(argv) == 0
    assert capsys.readouterr().out
