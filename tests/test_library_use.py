"""Library code must have a library caller.

A module-level function or class in src/vidcap, or a method or property of
one of its classes, that neither another line of the library nor a
perfbench file names is code that only tests reach.  Dunder methods are
Python's to call.  A name counts as used wherever it appears as a name, an
attribute or an import, and in perfbench also as a part of a dotted string
(tracing.py patches its targets by such strings), so the scan is coarse: a
function that shares its name with, say, a numpy function escapes it.

A model config field must be a setting: the desk defaults and the paper
preset differ on it, or a library or perfbench call sets it by keyword.
A field that neither does is an architecture constant in a config's
clothing.
"""

import ast
from dataclasses import fields
from pathlib import Path

from vidcap.decoder import DecoderConfig
from vidcap.encoder import EncoderConfig

ROOT = Path(__file__).resolve().parent.parent

# kept on purpose, each with why; an entry that comes into use must leave
ONLY_TESTS_CALL: dict[str, str] = {}

# methods that a framework calls by name, each with the framework
FRAMEWORK_CALLS = {
    "_Parser.error": "argparse's parse_args calls it on a bad command line",
}

# model config fields that keep one value in both presets on purpose, each
# with why; an entry that comes to vary or to be set must leave
ONE_VALUE_FIELDS = {
    "EncoderConfig.in_channels": "describes the input video (RGB), not the model's numerics",
    "EncoderConfig.patch": "describes how the input video is cut into tokens, not the model's numerics",
    "DecoderConfig.dropout": "its 0.3 rate is live and read in one place, so folding it removes no code path",
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


def _definitions(tree: ast.Module):
    """(name, dotted name) of each top-level function and class, and of
    each method and property of a top-level class but its dunders."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not (sub.name.startswith("__") and sub.name.endswith("__")):
                    yield sub.name, f"{node.name}.{sub.name}"


def test_every_library_function_and_class_has_a_library_or_bench_caller():
    library = {path: ast.parse(path.read_text()) for path in sorted((ROOT / "src" / "vidcap").glob("*.py"))}
    used = set().union(*(_names(tree, False) for tree in library.values()))
    for path in (ROOT / "perfbench").glob("*.py"):
        used |= _names(ast.parse(path.read_text()), True)
    defined = [pair for tree in library.values() for pair in _definitions(tree)]
    assert set(FRAMEWORK_CALLS) <= {dotted for _, dotted in defined}, "a framework-called method is gone"
    unused = {dotted for name, dotted in defined if name not in used and dotted not in FRAMEWORK_CALLS}
    assert unused == set(ONLY_TESTS_CALL), (
        f"only tests reach {sorted(unused - set(ONLY_TESTS_CALL))}; "
        f"now in library use, drop from the allowlist: {sorted(set(ONLY_TESTS_CALL) - unused)}"
    )


def _keywords(node: ast.AST) -> set[str]:
    """The keyword argument names of every call under node, but those in a
    paper() preset, whose values the field test compares."""
    if isinstance(node, ast.FunctionDef) and node.name == "paper":
        return set()
    found = {kw.arg for kw in node.keywords if kw.arg} if isinstance(node, ast.Call) else set()
    for child in ast.iter_child_nodes(node):
        found |= _keywords(child)
    return found


def test_every_model_config_field_is_varied_by_a_preset_or_set_by_the_library():
    paths = [*(ROOT / "src" / "vidcap").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    set_by_keyword = set().union(*(_keywords(ast.parse(path.read_text())) for path in paths))
    fixed = {
        f"{cls.__name__}.{f.name}"
        for cls in (EncoderConfig, DecoderConfig)
        for f in fields(cls)
        if getattr(cls.paper(), f.name) == f.default and f.name not in set_by_keyword
    }
    assert fixed == set(ONE_VALUE_FIELDS), (
        f"no preset or library call varies {sorted(fixed - set(ONE_VALUE_FIELDS))}; "
        f"now varied or set, drop from the allowlist: {sorted(set(ONE_VALUE_FIELDS) - fixed)}"
    )
