"""Import hygiene of the ``repro`` package and the code around it.

Every name a module lists in ``__all__`` must resolve, and no module may
import a name it never uses: an unused import is either dead code left
behind by a deletion or a re-export nobody documented.  The re-exports
``repro.timing.solver`` documents in its docstring are the exceptions.
The unused-import rule holds for every Python file under ``tests/``,
``benchmarks/`` and ``examples/`` too.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import repro

SOURCE = Path(repro.__file__).parent
MODULES = sorted(info.name for info in pkgutil.walk_packages(
    repro.__path__, prefix="repro."))
ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted(path.relative_to(ROOT).as_posix()
                 for folder in ("tests", "benchmarks", "examples")
                 for path in (ROOT / folder).rglob("*.py"))

#: Documented re-exports: imported for importers, not for the module.
RE_EXPORTS = {
    "repro.timing.solver": {"RELAX_DROP_WIDEST", "RELAXATION_POLICIES",
                            "SUSPICION_LAPS"},
}


def _source_path(module: str) -> Path:
    relative = Path(*module.split(".")[1:])
    package = SOURCE / relative / "__init__.py"
    return package if package.exists() else SOURCE / f"{relative}.py"


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """``bound name -> line`` for every import but ``__future__``'s."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) \
                and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotation_strings(tree: ast.Module):
    """Every string constant inside an annotation (a forward reference)."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            annotations += [argument.annotation for argument in (
                *arguments.posonlyargs, *arguments.args,
                *arguments.kwonlyargs, arguments.vararg, arguments.kwarg)
                if argument is not None and argument.annotation is not None]
            if node.returns is not None:
                annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                yield node.value


def _used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for text in _annotation_strings(tree):
        try:
            expression = ast.parse(text, mode="eval")
        except SyntaxError:
            continue
        used |= {node.id for node in ast.walk(expression)
                 if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used |= {element.value for element in ast.walk(node.value)
                     if isinstance(element, ast.Constant)}
    return used


def test_every_module_is_found():
    assert "repro.timing.solver" in MODULES
    assert all(_source_path(module).exists() for module in MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    imported = importlib.import_module(module)
    missing = [name for name in getattr(imported, "__all__", ())
               if not hasattr(imported, name)]
    assert missing == []


def _unused_imports(path: Path, re_exports: set[str]) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree) | re_exports
    return sorted(f"{name} (line {line})"
                  for name, line in _imported_names(tree).items()
                  if name not in used)


@pytest.mark.parametrize("module", MODULES)
def test_no_module_imports_a_name_it_never_uses(module):
    assert _unused_imports(_source_path(module),
                           RE_EXPORTS.get(module, set())) == []


def test_every_script_is_found():
    assert "tests/test_exports.py" in SCRIPTS
    assert any(script.startswith("benchmarks/") for script in SCRIPTS)
    assert any(script.startswith("examples/") for script in SCRIPTS)


@pytest.mark.parametrize("script", SCRIPTS)
def test_no_script_imports_a_name_it_never_uses(script):
    assert _unused_imports(ROOT / script, set()) == []
