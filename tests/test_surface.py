"""The public surface: each name is listed once and some run reaches it."""
import ast
import importlib
import pkgutil
from pathlib import Path

import fractalwalk

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fractalwalk"

# the runs whose references count: demos, benchmark workloads, acceptance
# criteria, and the package's own modules
ENTRY_FILES = [
    *sorted((ROOT / "demos").glob("*.py")),
    ROOT / "perfbench" / "workloads.py",
    ROOT / "tests" / "test_acceptance.py",
    *sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
]

# wrapped by perfbench/tracing.py until the benchmark drops them, and the
# Doob split kept for the strong-approximation clock
UNREACHED = {"brownian_path", "block_statistics", "doob_decompose"}


def _module_exports() -> dict:
    """Each package module's `__all__`, by module name."""
    out = {}
    for info in pkgutil.iter_modules(fractalwalk.__path__):
        module = importlib.import_module(f"fractalwalk.{info.name}")
        out[info.name] = list(getattr(module, "__all__", []))
    return out


def _referenced(path: Path) -> set:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_each_public_name_is_listed_once():
    listed = [name for names in _module_exports().values() for name in names]
    assert len(listed) == len(set(listed))
    assert sorted(fractalwalk.__all__) == sorted(["__version__", *listed])
    assert all(hasattr(fractalwalk, name) for name in fractalwalk.__all__)
    # the package builds its list from the modules' and spells out none
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    spelled = {node.value for node in ast.walk(init) if isinstance(node, ast.Constant)}
    spelled |= {alias.asname or alias.name for node in ast.walk(init)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert spelled & set(listed) == set()


def test_unreached_public_names_are_the_known_leftovers():
    public = {name for names in _module_exports().values() for name in names}
    reached = set().union(*(_referenced(path) for path in ENTRY_FILES))
    assert public - reached == UNREACHED
