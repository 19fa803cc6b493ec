"""Package re-exports that resolve on first use behave like eager ones.

Every package built with :func:`repro._lazy.lazy_exports` must keep its
``__all__`` working: each name is the very object its submodule
defines, ``from pkg import *`` binds them all, ``dir(pkg)`` lists them,
and an unknown name raises :class:`AttributeError` naming the package.
The module entry points must still start.
"""

import importlib
import os
import pkgutil
import re
import subprocess
import sys

import pytest

REPO_SRC = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "src"))

LAZY_PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.analyzer",
    "repro.bca",
    "repro.cache",
    "repro.catg",
    "repro.regression",
    "repro.rtl",
    "repro.telemetry",
)


def _submodules(package):
    for info in pkgutil.iter_modules(package.__path__):
        if info.name != "__main__":
            yield importlib.import_module(f"{package.__name__}.{info.name}")


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_every_export_is_its_submodule_attribute(name):
    package = importlib.import_module(name)
    assert "__getattr__" in vars(package)
    submodules = list(_submodules(package))
    for export in package.__all__:
        value = getattr(package, export)
        owners = [module.__name__ for module in submodules
                  if getattr(module, export, None) is value]
        if export not in ("__version__", "SCHEMA_VERSION", "CACHE_DIR_ENV"):
            assert owners, f"{name}.{export} is no submodule's attribute"


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_star_import_binds_every_export(name):
    package = importlib.import_module(name)
    namespace = {}
    exec(f"from {name} import *", namespace)
    for export in package.__all__:
        assert namespace[export] is getattr(package, export)


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_dir_lists_every_export(name):
    package = importlib.import_module(name)
    assert set(package.__all__) <= set(dir(package))


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_unknown_name_raises_attribute_error_naming_the_package(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match=re.escape(repr(name))):
        package.no_such_export


def test_export_is_imported_on_first_use():
    code = ("import sys, repro.catg as catg\n"
            "assert 'repro.catg.converter_env' not in sys.modules\n"
            "assert catg.ConverterEnv is "
            "sys.modules['repro.catg.converter_env'].ConverterEnv\n"
            "assert 'ConverterEnv' in vars(catg)\n")
    subprocess.run([sys.executable, "-S", "-c", code], check=True,
                   env=dict(os.environ, PYTHONPATH=REPO_SRC), timeout=60)


@pytest.mark.parametrize("entry", ["regression", "analysis",
                                   "analyzer", "cache", "telemetry"])
def test_module_entry_point_help_exits_zero(entry):
    proc = subprocess.run(
        [sys.executable, "-m", f"repro.{entry}", "--help"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=REPO_SRC))
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stdout


#: The static checker's modules; the gate module ``repro.lint`` calls
#: into them, never the other way round.
ANALYSIS_MODULES = ("repro.analysis",) + tuple(
    f"repro.analysis.{name}" for name in (
        "rules", "runner", "dataflow", "constants", "unr", "xview",
        "agreement", "impact", "cli", "structural", "graph", "diagnostics",
        "demo"))


@pytest.mark.parametrize("module", ANALYSIS_MODULES)
def test_the_static_checker_never_loads_the_gate_module(module):
    code = (f"import sys, {module}\n"
            "lint = sorted(name for name in sys.modules\n"
            "              if name.startswith('repro.lint'))\n"
            "assert lint == [], lint\n")
    subprocess.run([sys.executable, "-S", "-c", code], check=True,
                   env=dict(os.environ, PYTHONPATH=REPO_SRC), timeout=60)


def test_the_gate_module_holds_only_lint_config():
    import repro.lint

    assert not hasattr(repro.lint, "__path__")  # a module, no package
    assert repro.lint.__all__ == ["lint_config"]
    assert [name for name in vars(repro.lint)
            if not name.startswith("_")] == ["lint_config"]


def test_the_static_checker_exports_its_base_types():
    import repro.analysis
    from repro.analysis import diagnostics, graph

    assert {"DesignGraph", "Finding", "Severity"} <= set(
        repro.analysis.__all__)
    assert repro.analysis.DesignGraph is graph.DesignGraph
    assert repro.analysis.Finding is diagnostics.Finding
    assert repro.analysis.Severity is diagnostics.Severity
