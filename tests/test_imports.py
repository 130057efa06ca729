"""Every module-level import in `src/pactsim` is used by its own module.

No linter runs on this project, so this guard stands in for one: an
import no line of the module uses is dead weight and misleads a reader
about what the module depends on.
"""

import ast
import io
import tokenize
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pactsim"

# (module, name) pairs kept although the module does not use them.
# `perfbench/tests/test_perfbench.py::test_tracer_restores_every_binding`
# asserts that the tracer rebinds `consensus.verify`; that test belongs to
# the benchmark harness, which changes only together with the benchmark.
ALLOWED = {("consensus", "verify")}


def module_imports(tree: ast.Module) -> dict[str, int]:
    """Name each module-level import binds -> its line, `if` and `try` blocks included."""
    bound: dict[str, int] = {}
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.If, ast.Try, ast.ExceptHandler)):
            pending.extend(ast.iter_child_nodes(node))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    return bound


def _string_names(text: str) -> set[str]:
    tokens = tokenize.generate_tokens(io.StringIO(text).readline)
    return {tok.string for tok in tokens if tok.type == tokenize.NAME}


def used_names(tree: ast.Module) -> set[str]:
    """Names the code reads: loads, names inside string annotations, and `__all__` entries.

    Comments and docstrings are not code, so a name that appears only
    there is not a use.
    """
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    # Expressions whose string constants name things: annotations and `__all__`.
    naming = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            naming.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            naming.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            naming.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            naming.append(node.value)
    for expr in filter(None, naming):
        for node in ast.walk(expr):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _string_names(node.value)
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = used_names(tree)
    return sorted(f"{name} (line {line})" for name, line in module_imports(tree).items() if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_import(path):
    with tokenize.open(path) as f:
        source = f.read()
    allowed = {name for module, name in ALLOWED if module == path.stem}
    unused = [entry for entry in unused_imports(source) if entry.split()[0] not in allowed]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_allowlist_names_real_unused_imports():
    for module, name in ALLOWED:
        source = (SRC / f"{module}.py").read_text()
        assert any(entry.split()[0] == name for entry in unused_imports(source)), (module, name)


def test_guard_tells_uses_from_mentions():
    source = '''
from __future__ import annotations
import os.path
from typing import TYPE_CHECKING
from a import b, c as d, e, f, g
if TYPE_CHECKING:
    from h import H, K
__all__ = ["e"]

def run(x: "H | None") -> None:
    """Calls f."""
    # g
    os.path.join(d.x, "K")
    b = 1
'''
    assert unused_imports(source) == ["K (line 7)", "b (line 5)", "f (line 5)", "g (line 5)"]
