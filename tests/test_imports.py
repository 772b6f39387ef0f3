"""The package's module graph: which modules each module imports from the package.

Each module's intra-package imports are read from its source with ast,
function-level imports included, so a new dependency between layers
shows up here.  cli checks --seed by rng's one range rule.  circle
reaches the sampled estimators through the ensembles' evaluate method,
not by importing walks.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "spectral_walks"

# "__init__" stands for the package itself (cli reads __version__ from it)
IMPORTS = {
    "__init__": {"circle", "graphs", "rng", "spectra", "tree", "walks"},
    "circle": {"rng", "tree"},
    "cli": {"__init__", "circle", "graphs", "rng", "spectra", "tree", "walks"},
    "graphs": set(),
    "rng": set(),
    "spectra": {"graphs", "tree"},
    "tree": {"graphs"},
    "walks": {"graphs", "rng"},
}


def package_imports(path: Path) -> set:
    """The package modules a source file imports, relatively or as spectral_walks.*."""
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("spectral_walks"):
                continue
            parts = (node.module or "").split(".")[0 if node.level else 1:]
            if parts and parts[0]:
                found.add(parts[0])
            else:  # from . import name: a module, or a name defined in __init__
                found.update(a.name if a.name in modules else "__init__" for a in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "spectral_walks":
                    found.add(parts[1] if len(parts) > 1 else "__init__")
    return found


def test_every_module_is_pinned():
    assert {p.stem for p in PACKAGE.glob("*.py")} == set(IMPORTS)


@pytest.mark.parametrize("module", sorted(IMPORTS))
def test_intra_package_imports(module):
    assert package_imports(PACKAGE / f"{module}.py") == IMPORTS[module]


def test_reader_sees_every_import_form(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "from .walks import mean_se\n"
        "from . import tree as tr, __version__\n"
        "from .graphs.sub import x\n"
        "import spectral_walks.rng\n"
        "from spectral_walks.spectra import eigh\n"
        "import numpy\n"
        "from numpy import ones\n"
        "def f():\n"
        "    from .circle import TrigPoly\n",
        encoding="utf-8",
    )
    assert package_imports(source) == {"walks", "tree", "__init__", "graphs", "rng", "spectra", "circle"}
