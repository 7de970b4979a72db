"""``src/repro`` is what an entry point runs.

The census walks the import graph from the entry points -- ``repro.cli``
(the ``smol-repro`` script) and every non-test file under ``bench/``,
``benchmarks/`` and ``examples/`` -- and reports what only tests reach:

* ``module M``: a module of the package that no entry point imports;
* ``def M.N``: a top-level ``def``/``class`` whose name no program file
  uses in code outside its own definition;
* ``export P.N``: an entry of package ``P``'s ``_EXPORTS`` whose object no
  program file imports, through ``P`` or from the module that defines it.

Program files are the package's modules and the entry points.  Imports
nested in functions count, and ``from P import N`` follows ``P``'s
``_EXPORTS`` map to the module that defines ``N``.  A module nothing
reaches stands for its defs and the exports it backs.  Each report is
either deleted or named in ``ALLOWED`` with the reason it stays.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ALLOWED = {
    "module repro._version":
        "the version pyproject.toml reads and repro.__version__ re-exports",
    "module repro.tenant.deadline":
        "backs SmolServer(ladder=); ROADMAP item 4 decides its fate",
    "module repro.tenant.slo":
        "backs SmolServer(tenant_slo=); ROADMAP item 4 decides its fate",
    "def repro.nn.layers.Flatten":
        "the one layer without a plan step: a custom layer's forward fallback",
    "def repro.preprocessing.ops.standard_pipeline_ops":
        "Section 2's unoptimized pipeline, the optimizer tests' starting point",
    "def repro.chaos.faults.VirtualFaultClock":
        "a test fake: the fault plan's clock, advanced by hand",
    "def repro.codecs.entropy.unpack_block":
        "scalar reference tests/codecs/scalar_oracle.py compares against",
    "def repro.codecs.entropy.encode_coefficients":
        "scalar reference tests/codecs/scalar_oracle.py compares against",
    "def repro.codecs.entropy.decode_coefficients":
        "scalar reference tests/codecs/scalar_oracle.py compares against",
    "def repro.codecs.entropy.payload_size":
        "scalar reference tests/codecs/scalar_oracle.py compares against",
    "def repro.codecs.entropy.block_count":
        "scalar reference tests/codecs/scalar_oracle.py compares against",
}


def census(root: Path, package: str = "repro",
           entry_module: str = "repro.cli",
           entry_dirs: tuple[str, ...] = ("bench", "benchmarks", "examples"),
           ) -> set[str]:
    """What under ``root/src/<package>`` no entry point needs, as
    ``"module M"``, ``"def M.N"`` and ``"export P.N"`` lines."""
    modules = {}
    for path in sorted((root / "src" / package).rglob("*.py")):
        parts = path.relative_to(root / "src").with_suffix("").parts
        modules[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
    trees = {name: ast.parse(path.read_text(), str(path))
             for name, path in modules.items()}
    entries = [ast.parse(path.read_text(), str(path))
               for folder in entry_dirs
               for path in sorted((root / folder).rglob("*.py"))
               if not path.name.startswith("test_")]

    exports = {}
    for name, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
                    and [ast.unparse(t) for t in node.targets] == ["_EXPORTS"]):
                exports[name] = {key.value: value.value for key, value
                                 in zip(node.value.keys, node.value.values)}

    def imports(tree):
        """The modules ``tree`` imports, and the ``(module, name)`` pairs it
        reads, each named by the module that defines it."""
        found, read, aliases = set(), set(), {}

        def name_from(module, name):
            """Resolve ``from module import name``: the submodule it names,
            or None for a value, which ``module``'s exports may relocate."""
            found.add(module)
            if name in exports.get(module, {}):
                found.add(exports[module][name])
                read.add((exports[module][name], name))
            elif f"{module}.{name}" in modules:
                found.add(f"{module}.{name}")
                return f"{module}.{name}"
            else:
                read.add((module, name))
            return None

        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    found.add(alias.name)
                    aliases[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0])
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    submodule = name_from(node.module, alias.name)
                    if submodule:
                        aliases[alias.asname or alias.name] = submodule
        for node in ast.walk(tree):
            chain, value = [], node
            while isinstance(value, ast.Attribute):
                chain, value = [value.attr, *chain], value.value
            if chain and isinstance(value, ast.Name) and value.id in aliases:
                module = aliases[value.id]
                for part in chain:
                    module = name_from(module, part)
                    if module is None:
                        break
        # Importing ``a.b.c`` runs ``a`` and ``a.b`` first.
        parents = {".".join(m.split(".")[:i]) for m in found
                   for i in range(1, m.count(".") + 1)}
        return (found | parents) & modules.keys(), read

    scanned = {name: imports(tree) for name, tree in trees.items()}
    entry_scans = [imports(tree) for tree in entries]
    reads = set().union(*(read for _, read in [*scanned.values(), *entry_scans]))
    # Running the entry module runs its package first.
    reached = {package, entry_module}.union(
        *(found for found, _ in entry_scans))
    frontier = set(reached)
    while frontier:
        found = set().union(*(scanned[name][0] for name in frontier))
        frontier = found - reached
        reached |= found

    def identifiers(tree) -> Counter:
        """Every name ``tree`` refers to in code (strings do not count)."""
        names = Counter()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names[node.id] += 1
            elif isinstance(node, ast.Attribute):
                names[node.attr] += 1
            elif isinstance(node, ast.alias):
                names.update(node.name.split("."))
        return names

    program = sum((identifiers(tree) for tree in [*trees.values(), *entries]),
                  Counter())
    report = {f"module {name}" for name in modules.keys() - reached}
    for name in reached:
        for node in trees[name].body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not node.name.startswith("__")
                    and program[node.name] == identifiers(node)[node.name]
                    and not (name == entry_module and node.name == "main")):
                report.add(f"def {name}.{node.name}")
    report |= {f"export {package}.{name}"
               for package, names in exports.items()
               for name, module in names.items()
               if module in reached and (module, name) not in reads}
    return report


def test_everything_in_the_package_is_reached_from_an_entry_point():
    found = census(ROOT)
    assert sorted(found - ALLOWED.keys()) == []
    assert sorted(ALLOWED.keys() - found) == [], "stale ALLOWED entries"


def write_tree(root: Path, files: dict[str, str]) -> Path:
    """Write ``{relative path: text}`` under ``root`` and return it."""
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return root


def test_the_census_reports_an_orphan_module_and_an_unreferenced_def(tmp_path):
    # ``repro.late`` is reached only by an import inside a function.
    files = {
        "src/repro/__init__.py": "",
        "src/repro/cli.py": "from repro.pkg import used\n\n"
                            "def main():\n    used()\n",
        "src/repro/pkg/__init__.py": ("_EXPORTS = {'used': 'repro.pkg.mod',"
                                      " 'spare': 'repro.pkg.mod'}\n"),
        "src/repro/pkg/mod.py": "def used():\n    return 1\n\n"
                                "def spare():\n    return spare\n",
        "src/repro/orphan.py": "def helper():\n    return 2\n",
        "src/repro/late.py": "",
        "examples/demo.py": "def local():\n    import repro.late\n",
        "tests/test_mod.py": "from repro.pkg import spare\n"
                             "from repro.orphan import helper\n",
    }
    assert census(write_tree(tmp_path, files)) == {
        "module repro.orphan",
        "def repro.pkg.mod.spare",
        "export repro.pkg.spare",
    }


def test_a_name_mentioned_only_in_a_string_is_unreferenced(tmp_path):
    files = {
        "src/repro/__init__.py": "",
        "src/repro/cli.py": "from repro.mod import used\n\n"
                            "def main():\n"
                            "    print('Spare', used())\n",
        "src/repro/mod.py": "def used():\n    return 1\n\n"
                            "class Spare:\n    pass\n",
    }
    assert census(write_tree(tmp_path, files)) == {"def repro.mod.Spare"}


def test_an_attribute_chain_through_a_module_alias_reaches_the_module(
        tmp_path):
    files = {
        "src/repro/__init__.py": "",
        "src/repro/cli.py": "import repro.pkg as pkg\n\n"
                            "def main():\n    return pkg.mod.used()\n",
        "src/repro/pkg/__init__.py": "",
        "src/repro/pkg/mod.py": "def used():\n    return 1\n",
    }
    assert census(write_tree(tmp_path, files)) == set()


def test_importing_a_submodule_runs_its_parent_packages(tmp_path):
    files = {
        "src/repro/__init__.py": "",
        "src/repro/cli.py": "import repro.pkg.sub.leaf\n\n"
                            "def main():\n"
                            "    return repro.pkg.sub.leaf.used()\n",
        "src/repro/pkg/__init__.py": "",
        "src/repro/pkg/sub/__init__.py": "",
        "src/repro/pkg/sub/leaf.py": "def used():\n    return 1\n",
        "src/repro/pkg/other.py": "",
    }
    assert census(write_tree(tmp_path, files)) == {"module repro.pkg.other"}


def test_from_a_package_import_a_submodule_reaches_the_submodule(tmp_path):
    files = {
        "src/repro/__init__.py": "",
        "src/repro/cli.py": "from repro.pkg import mod\n\n"
                            "def main():\n    return mod.used()\n",
        "src/repro/pkg/__init__.py": "",
        "src/repro/pkg/mod.py": "def used():\n    return 1\n\n"
                                "def spare():\n    return 2\n",
    }
    assert census(write_tree(tmp_path, files)) == {"def repro.pkg.mod.spare"}


def test_test_files_under_the_entry_folders_are_not_entry_points(tmp_path):
    files = {
        "src/repro/__init__.py": "",
        "src/repro/cli.py": "def main():\n    return 0\n",
        "src/repro/extra.py": "def helper():\n    return 2\n",
        "benchmarks/test_extra.py": "from repro.extra import helper\n\n"
                                    "def test_helper():\n"
                                    "    assert helper() == 2\n",
    }
    assert census(write_tree(tmp_path, files)) == {"module repro.extra"}


def test_every_allowlist_entry_names_its_reason_on_one_line():
    for entry, reason in ALLOWED.items():
        kind, _, name = entry.partition(" ")
        assert kind in {"module", "def", "export"}, entry
        assert name.startswith("repro"), entry
        assert reason.strip() and "\n" not in reason, entry
