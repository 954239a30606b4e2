"""Library code must have a library caller.

A module-level function or class in src/vidcap that neither another line of
the library nor a perfbench file names is code that only tests reach.  A
name counts as used wherever it appears as a name, an attribute or an
import, and in perfbench also as a part of a dotted string (tracing.py
patches its targets by such strings), so the scan is coarse: a function
that shares its name with, say, a numpy function escapes it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# kept on purpose, each with why; an entry that comes into use must leave
ONLY_TESTS_CALL = {
    "diversity_stats": "string-input oracle that test_metrics checks the report against",
    "pos_structure_histogram": "string-input oracle that test_metrics checks the report against",
    "inverse_cdf": "the generalized inverse min{x : F(x) >= q} of the AFS definition, pinned by test_afs",
    "sum_reduce": "the scalar loss of every gradient check",
}


def _names(tree: ast.AST, dotted_strings: bool) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif dotted_strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(node.value.split("."))
    return names


def test_every_library_function_and_class_has_a_library_or_bench_caller():
    library = {path: ast.parse(path.read_text()) for path in sorted((ROOT / "src" / "vidcap").glob("*.py"))}
    used = set().union(*(_names(tree, False) for tree in library.values()))
    for path in (ROOT / "perfbench").glob("*.py"):
        used |= _names(ast.parse(path.read_text()), True)
    unused = {
        node.name
        for tree in library.values()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in used
    }
    assert unused == set(ONLY_TESTS_CALL), (
        f"only tests reach {sorted(unused - set(ONLY_TESTS_CALL))}; "
        f"now in library use, drop from the allowlist: {sorted(set(ONLY_TESTS_CALL) - unused)}"
    )
