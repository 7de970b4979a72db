"""Every third-party module ``src/repro`` imports is a declared dependency.

``pip install smol-repro`` installs what ``pyproject.toml`` lists under
``[project] dependencies`` and nothing else, so an import the list misses
works on the developer's machine and fails on the user's.  (``scipy`` sat
under every JPEG and video decode for twenty PRs without being declared.)
"""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def declared_dependencies() -> set[str]:
    """Import names of ``[project] dependencies`` (regex: no tomllib on 3.10)."""
    text = (ROOT / "pyproject.toml").read_text()
    block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.M | re.S)
    assert block, "pyproject.toml has no [project] dependencies list"
    names = re.findall(r'"\s*([A-Za-z0-9_.-]+)', block.group(1))
    return {name.lower().replace("-", "_") for name in names}


def imported_top_level_modules() -> dict[str, str]:
    """Top-level module -> one file importing it, over all of ``src/repro``."""
    seen: dict[str, str] = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                seen.setdefault(module.split(".")[0],
                                str(path.relative_to(ROOT)))
    return seen


def test_every_third_party_import_is_declared():
    declared = declared_dependencies()
    third_party = {
        module: where for module, where in imported_top_level_modules().items()
        if module != "repro" and module not in sys.stdlib_module_names
    }
    assert {"numpy", "scipy"} <= set(third_party)  # the walk sees real imports
    undeclared = {module: where for module, where in third_party.items()
                  if module not in declared}
    assert not undeclared, (
        f"imported under src/repro but missing from pyproject.toml's "
        f"dependencies: {undeclared}")
