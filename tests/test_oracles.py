"""The reference routes live in ``hubbard_gap.oracles`` and stay off the production path."""

import subprocess
import sys
from pathlib import Path

import pytest

import hubbard_gap
from hubbard_gap import cli, dos, gap, oracles, quadrature, renorm, specfun

REFERENCE_ROUTES = ("dos_value_quadrature", "dos_pushforward_oracle",
                    "i1_quadrature", "i2_quadrature", "j2_quadrature",
                    "gap_rhs_sinh", "sech_log2_integral_direct",
                    "cosine_power_quadrature")


@pytest.mark.parametrize("name", REFERENCE_ROUTES)
def test_reference_route_defined_in_oracles(name):
    # and re-exported by the package
    assert getattr(hubbard_gap, name).__module__ == oracles.__name__


@pytest.mark.parametrize("module", [specfun, quadrature, dos, gap, renorm, cli],
                         ids=lambda module: module.__name__)
def test_production_module_binds_no_oracle(module):
    bound = [name for name, obj in vars(module).items()
             if callable(obj) and getattr(obj, "__module__", None) == oracles.__name__]
    assert bound == []


def test_specfun_loads_without_scipy():
    # the fresh interpreter registers a bare package object and imports
    # specfun alone, so only specfun's own imports count
    code = "\n".join([
        "import sys, types",
        "package = types.ModuleType('hubbard_gap')",
        f"package.__path__ = [{str(Path(hubbard_gap.__file__).parent)!r}]",
        "sys.modules['hubbard_gap'] = package",
        "import hubbard_gap.specfun",
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'numpy')))",
    ])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=60)
    assert done.stdout.strip() == "[]"
