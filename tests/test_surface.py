"""The library keeps only what the program calls.

Every module-level function and class, method, property and dataclass field
defined in ``src/epipomp`` must be read somewhere in ``src/``, ``scripts/`` or
``perfbench/`` other than at its own definition. A read is a name loaded in
an expression (for a module-level name), an attribute loaded as ``.name``,
or the name spelled as a string (``getattr`` and the benchmark tracer reach
attributes that way). Exports in ``__all__`` and keyword arguments are not
reads. Helpers that only the tests use belong in ``tests/``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "epipomp"
CALLERS = (ROOT / "src", ROOT / "scripts", ROOT / "perfbench")

#: Kept without a caller in the program, each for the reason given.
ALLOWED = {
    "SimulationResult.observation_series": "the README's library example calls it",
    "PfResult.block_ess": "a filter diagnostic that run telemetry is to surface",
    "ProjectionResult.latent": "a projection diagnostic that run telemetry is to surface",
}


def _definitions() -> dict[str, str]:
    """``Owner.name`` (or ``name`` at module level) -> ``file:line``."""
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(ROOT)
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                found[node.name] = f"{rel}:{node.lineno}"
            if not isinstance(node, ast.ClassDef):
                continue
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("__"):
                    found[f"{node.name}.{member.name}"] = f"{rel}:{member.lineno}"
                elif isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                    found[f"{node.name}.{member.target.id}"] = f"{rel}:{member.lineno}"
    return found


def _reads() -> tuple[set[str], set[str]]:
    """The names loaded bare, and the names loaded as attributes or spelled
    as strings."""
    names: set[str] = set()
    attrs: set[str] = set()
    for root in CALLERS:
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            exported = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
                ):
                    exported.update(id(c) for c in ast.walk(node.value))
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    attrs.add(node.attr)
                elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                      and node.value.isidentifier() and id(node) not in exported):
                    attrs.add(node.value)
    return names, attrs


def _unread() -> dict[str, str]:
    names, attrs = _reads()
    return {
        name: where
        for name, where in _definitions().items()
        if ("." in name or name not in names) and name.rsplit(".", 1)[-1] not in attrs
    }


def test_every_definition_is_read_by_the_program():
    unread = [f"{name} ({where})" for name, where in _unread().items() if name not in ALLOWED]
    assert not unread, "defined in src/epipomp but read by no program code:\n" + "\n".join(unread)


def test_allow_list_holds_only_unread_definitions():
    assert set(ALLOWED) <= set(_unread())
