"""Every top-level function and class of the package has a use outside tests.

A use is a name, an attribute, an imported name or a dotted string such as
the benchmark tracer's ``"align.instance_loss"`` hooks, found in ``src/``,
``scripts/`` or ``bench/`` outside the definition itself. Docstrings and
comments do not count.
"""

import ast
import pathlib
import re
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[1]

# Only the acceptance tests call these two.
TEST_ONLY = {"encode_node_graph", "mean_split_loss"}

DOTTED = re.compile(r"^\w+(\.\w+)+$")


def _uses(node):
    """Every name that ``node`` and its subtree refer to, once per reference."""
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.alias):
        yield from node.name.split(".")
    elif isinstance(node, ast.Constant) and isinstance(node.value, str) and DOTTED.match(node.value):
        yield from node.value.split(".")
    for child in ast.iter_child_nodes(node):
        yield from _uses(child)


def test_every_top_level_definition_is_used_outside_tests():
    uses = Counter()
    for folder in ("src", "scripts", "bench"):
        for path in (ROOT / folder).rglob("*.py"):
            uses.update(_uses(ast.parse(path.read_text(encoding="utf-8"))))
    package = sorted((ROOT / "src" / "uglm").glob("*.py"))
    assert package, "no package sources found"
    unused = []
    for path in package:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name in TEST_ONLY:
                continue
            if uses[node.name] == Counter(_uses(node))[node.name]:  # used only inside itself
                unused.append(f"{path.relative_to(ROOT)}: {node.name}")
    assert unused == []
