"""Every ``REPRO_*`` environment variable is read by one module and
listed in README's environment table.

The scan walks the AST of ``src/repro`` for reads with a literal
``REPRO_*`` name: ``<...>environ.get("REPRO_X")``,
``<...>environ["REPRO_X"]`` and ``getenv("REPRO_X")``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "repro"


def _is_environ(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "environ") or (
        isinstance(node, ast.Attribute) and node.attr == "environ"
    )


def _name_of(node):
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        if node.value.startswith("REPRO_"):
            return node.value
    return None


def env_reads(tree):
    """The ``REPRO_*`` names ``tree`` reads from the environment."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and node.args:
            func = node.func
            reads = (
                isinstance(func, ast.Attribute)
                and func.attr == "get"
                and _is_environ(func.value)
            ) or (
                isinstance(func, ast.Attribute) and func.attr == "getenv"
            ) or (isinstance(func, ast.Name) and func.id == "getenv")
            if reads and _name_of(node.args[0]):
                yield _name_of(node.args[0])
        elif (
            isinstance(node, ast.Subscript)
            and isinstance(node.ctx, ast.Load)
            and _is_environ(node.value)
        ):
            if _name_of(node.slice):
                yield _name_of(node.slice)


def scanned_readers():
    """``name -> {module, ...}`` over the whole package."""
    readers = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(
            path.relative_to(PACKAGE.parent).with_suffix("").parts
        )
        for name in env_reads(ast.parse(path.read_text())):
            readers.setdefault(name, set()).add(module)
    return readers


def readme_table():
    """``name -> module`` from README's environment table."""
    rows = re.findall(
        r"^\| `(REPRO_\w+)` \| `(repro[\w.]*)` \|",
        (ROOT / "README.md").read_text(),
        re.MULTILINE,
    )
    return dict(rows)


class TestKnobRegistry:
    def test_every_read_name_is_in_the_readme_table(self):
        assert set(scanned_readers()) == set(readme_table())

    def test_each_name_is_read_by_exactly_one_module(self):
        readers = scanned_readers()
        assert {
            name: modules
            for name, modules in readers.items()
            if len(modules) != 1
        } == {}
        assert {
            name: modules.pop() for name, modules in readers.items()
        } == readme_table()

    def test_the_scan_sees_every_read_form(self):
        tree = ast.parse(
            "import os\n"
            "os.environ.get('REPRO_A')\n"
            "environ.get('REPRO_B', '0')\n"
            "os.environ['REPRO_C']\n"
            "os.getenv('REPRO_D')\n"
            "env['REPRO_E'] = '0'\n"
            "os.environ['REPRO_F'] = '1'\n"
            "os.environ.get('OTHER')\n"
        )
        assert sorted(env_reads(tree)) == [
            "REPRO_A", "REPRO_B", "REPRO_C", "REPRO_D",
        ]
