"""Every def in ``src/`` is reached from ``src/`` itself, save the roots
that the benchmark's tracer wraps by name.

A module-level function or class, or a method that is not a dunder, is
reached when some ``src/`` code outside its own body names it, as a
bare name or as an attribute; an import or an ``__all__`` entry is no
use.  The unreached defs must be exactly the spans of
``bench/tracing.py`` that ``src/`` never calls: today ``is_open``,
``block_involution``, ``build_us_odd``, ``enumerate_flags``,
``flag_profile`` and ``QuadraticExtension.matrix_inv``.  When the
benchmark drops one of those spans, this test names the function to
delete with it.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "steinberg_distinction"


class _Mentions(ast.NodeVisitor):
    """The names a module's code uses, each outside the defs of that name."""

    def __init__(self) -> None:
        self.names: set[str] = set()
        self._inside: list[str] = []

    def _def(self, node) -> None:
        self._inside.append(node.name)
        self.generic_visit(node)
        self._inside.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _def

    def visit_Name(self, node: ast.Name) -> None:
        if node.id not in self._inside:
            self.names.add(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr not in self._inside:
            self.names.add(node.attr)
        self.generic_visit(node)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def defs_and_mentions() -> tuple[list[tuple[str, str]], set[str]]:
    """The package's defs, each a name and its ``module:qualified name``,
    and every name its code mentions."""
    defs: list[tuple[str, str]] = []
    mentions = _Mentions()
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).with_suffix("").as_posix()
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((node.name, f"{module}:{node.name}"))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not _is_dunder(item.name):
                        defs.append((item.name, f"{module}:{node.name}.{item.name}"))
        mentions.visit(tree)
    return defs, mentions.names


def traced_names() -> set[str]:
    """The function and method names that ``bench/tracing.py`` wraps."""
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {attr for _, _, attr, _ in tracing.FUNCTIONS} | {
        method for *_, methods, _ in tracing.METHODS for method in methods
    }


def test_only_traced_roots_are_unreached():
    defs, mentioned = defs_and_mentions()
    traced = traced_names()
    unreached = [(name, where) for name, where in defs if name not in mentioned]
    untraced = sorted(where for name, where in unreached if name not in traced)
    assert untraced == [], f"reached from no src code: {untraced}"
    # a traced dunder such as __add__ is called by its operator
    never_called = {name for name in traced - mentioned if not _is_dunder(name)}
    assert sorted(name for name, _ in unreached) == sorted(never_called)
