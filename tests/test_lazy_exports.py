"""Package exports resolve on first access, and a cold CLI import stays
small.

Every ``repro`` package ``__init__`` re-exports its ``__all__`` through
:func:`repro._lazy.lazy_exports`, so importing one module no longer runs
its siblings; these tests keep every export, ``dir()`` listing and
submodule attribute working, keep the engines out of ``import
repro.cli``, and keep Table I's synthesis out of a cold ``sweep-load``.
"""

import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import repro
from repro._lazy import lazy_exports

PACKAGES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg)

#: Engines no CLI axis needs at import: each is loaded by the command
#: that runs it.
ENGINES = ("repro.hw.synthesis", "repro.hw.encoders", "repro.service.daemon",
           "repro.analysis.sso", "repro.ctrl.controller",
           "repro.core.streaming")


def _fresh(code: str) -> str:
    """Stdout of *code* run in a fresh interpreter on this checkout."""
    src = pathlib.Path(repro.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_every_package_is_covered():
    assert {"repro", "repro.core", "repro.hw", "repro.service",
            "repro.workloads"} <= set(PACKAGES)


@pytest.mark.parametrize("name", PACKAGES)
def test_every_export_resolves_and_is_listed(name):
    package = importlib.import_module(name)
    listed = dir(package)
    assert len(set(package.__all__)) == len(package.__all__)
    for export in package.__all__:
        getattr(package, export)
        assert export in listed, export


def test_a_misspelled_export_fails():
    exports, getattr_, dir_ = lazy_exports("repro.hw",
                                           {"synthesis": ("table_onee",)})
    assert exports == ["table_onee"] and "table_onee" in dir_()
    with pytest.raises(AttributeError, match="table_onee"):
        getattr_("table_onee")


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        repro.hw.nope  # noqa: B018
    with pytest.raises(ImportError):
        from repro.core import nope  # noqa: F401


def test_submodules_stay_reachable():
    out = _fresh("import repro.hw, repro.core\n"
                 "print(repro.hw.synthesis.__name__)\n"
                 "print(repro.core.streaming.BatchStreamingEncoder.__name__)\n"
                 "from repro.service import daemon\n"
                 "print(daemon.__name__)\n"
                 "from repro import HAVE_NUMPY, __version__\n"
                 "print(type(HAVE_NUMPY).__name__, __version__)")
    assert out.split() == ["repro.hw.synthesis", "BatchStreamingEncoder",
                           "repro.service.daemon", "bool", repro.__version__]


def test_import_repro_registers_the_schemes():
    out = _fresh("import repro; print(repro.available_schemes())")
    assert "'dbi-dc'" in out and "'dbi-opt'" in out


def test_cold_cli_import_loads_no_engine():
    loaded = set(_fresh("import sys, repro.cli\n"
                        "print('\\n'.join(sys.modules))").split())
    assert "repro.cli" in loaded
    assert not loaded & set(ENGINES), sorted(loaded & set(ENGINES))


def test_cold_load_sweep_runs_no_gate_level_engine():
    """Fig. 8 reads Table I's pinned encoder energies, so a cold
    ``sweep-load`` never synthesises the table."""
    out = _fresh("import sys\n"
                 "from repro.cli import main\n"
                 "status = main(['sweep-load', '--samples', '200'])\n"
                 "print(status, *sys.modules)")
    status, *loaded = out.splitlines()[-1].split()
    assert status == "0"
    assert not {"repro.hw.synthesis", "repro.hw.activity",
                "repro.hw.netlist"} & set(loaded)
