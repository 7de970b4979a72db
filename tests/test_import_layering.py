"""A serving or scanning process imports only its own path.

Package ``__init__``s resolve their re-exports on first use, and the hot
path's seams (``repro.chaos.faults``, ``repro.obs``) load no harness code.
Each check runs in a fresh interpreter: in this one, other tests have
already imported nearly everything.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGES = sorted(".".join(path.parent.relative_to(SRC).parts)
                  for path in (SRC / "repro").rglob("__init__.py"))

HARNESS = {
    *(f"repro.chaos.{name}"
      for name in ("invariants", "scenario", "shrink", "runner")),
    *(f"repro.obs.{name}" for name in ("analyze", "export", "recorder", "slo")),
    *(f"repro.core.{name}"
      for name in ("smol", "planner", "costmodel", "accuracy", "training")),
    "repro.serving.loadgen",
}
OTHER_SUBSYSTEMS = ("cluster", "query", "adapt", "analytics", "tenant",
                    "baselines", "measurement")


def fresh(code: str):
    """Run ``code`` in a new interpreter and return what it prints as JSON."""
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)})
    return json.loads(out.stdout)


LOADED = ("import json, sys; print(json.dumps(sorted(m for m in sys.modules "
          "if m == 'repro' or m.startswith('repro.'))))")


def bench_imports() -> str:
    """``bench/workloads.py``'s imports of the program, as source."""
    tree = ast.parse((ROOT / "bench" / "workloads.py").read_text())
    return "\n".join(ast.unparse(node) for node in tree.body
                     if isinstance(node, ast.ImportFrom)
                     and node.module.split(".")[0] == "repro")


def test_the_benchmark_imports_no_harness_and_no_other_subsystem():
    source = bench_imports()
    assert "from repro.serving import" in source
    loaded = set(fresh(f"{source}\n{LOADED}"))
    assert "repro.serving.server" in loaded
    assert loaded & HARNESS == set()
    assert {module for module in loaded
            if module.partition(".")[2].split(".")[0] in OTHER_SUBSYSTEMS} == set()


def test_the_codecs_load_only_their_own_modules_and_their_resize():
    def allowed(module):
        return (module in ("repro", "repro.errors", "repro.codecs",
                           "repro.preprocessing", "repro.preprocessing.ops")
                or module.startswith(("repro.codecs.", "repro.utils")))

    imported = fresh(f"import repro.codecs\n{LOADED}")
    resolved = fresh("import repro.codecs\n"
                     "for name in repro.codecs.__all__:\n"
                     "    getattr(repro.codecs, name)\n" + LOADED)
    assert "repro.codecs.progressive" in resolved
    for loaded in (imported, resolved):
        assert [module for module in loaded if not allowed(module)] == []


DC_DECODE = """
import json, sys
import numpy as np
from repro.codecs import entropy
from repro.codecs.jpeg import JpegCodec, JpegEncoded
rows = np.zeros((3 * 4 * 4, 64), np.int16)
rows[:, 0] = %d
encoded = JpegEncoded(width=32, height=32, channels=3, quality=90, blocks_x=4,
                      blocks_y=4, data=entropy.encode_blocks(rows))
pixels = JpegCodec(quality=90).decode(encoded).pixels
print(json.dumps([int(pixels.min()), int(pixels.max()), "scipy" in sys.modules]))
"""


def test_only_the_rounding_tie_fallback_loads_scipy():
    """A decode-only process never imports scipy: ``scipy.fftpack`` loads
    where the encoder's DCT or the decoder's tie fallback first runs.  DC 8
    at quality 90 (DC step 3) decodes to 131 exactly; DC 4 puts every
    sample on the tie 129.5, which the transforms recompute."""
    assert fresh("import json, sys\nimport repro.codecs\n"
                 "print(json.dumps('scipy' in sys.modules))") is False
    assert fresh(DC_DECODE % 8) == [131, 131, False]
    assert fresh(DC_DECODE % 4) == [130, 130, True]


BLAS_AFTER_ENCODE = """
import ctypes, json, sys
import numpy as np
from repro.codecs.image import Image
from repro.codecs.jpeg import JpegCodec
from repro.utils import blas
blas.gemm(np.ones((2, 2)), np.ones((2, 2)), np.empty((2, 2)))
loaded = "scipy" in sys.modules
JpegCodec().encode(Image(pixels=np.zeros((8, 8, 3), np.uint8)))
counts = []
for path in blas._loaded_blas_paths():
    library = ctypes.CDLL(path)
    getters = [getattr(library, form.format("openblas_get_num_threads"), None)
               for form in blas._SYMBOL_FORMS]
    counts += [getter() for getter in getters if getter is not None][:1]
print(json.dumps([loaded, counts]))
"""


def test_a_blas_mapped_after_the_first_gemm_is_pinned_too():
    """scipy maps its own OpenBLAS when the first transform imports it,
    which may come after the first GEMM pinned numpy's: it starts with one
    thread all the same."""
    loaded, counts = fresh(BLAS_AFTER_ENCODE)
    assert not loaded and counts == [1] * len(counts)

SURFACE = """
import importlib, json, sys, types
problems = []
for package_name in %r:
    package = importlib.import_module(package_name)
    listed = dir(package)
    for name in package.__all__:
        if name not in listed:
            problems.append(f"{package_name}.{name}: not in dir()")
        value = getattr(package, name)
        if isinstance(value, types.ModuleType):
            problems.append(f"{package_name}.{name}: is a module")
            continue
        if isinstance(value, (type, types.FunctionType)):
            source, attr = value.__module__, value.__name__
        else:
            source = vars(package).get("_EXPORTS", {}).get(name, package_name)
            attr = name
        if getattr(importlib.import_module(source), attr) is not value:
            problems.append(f"{package_name}.{name}: not {source}.{attr}")
        if name not in dir(package):
            problems.append(f"{package_name}.{name}: not in dir() once read")
print(json.dumps(problems))
"""


def test_every_export_is_its_defining_modules_object():
    assert "repro" in PACKAGES and "repro.chaos" in PACKAGES
    assert fresh(SURFACE % (PACKAGES,)) == []


def test_no_export_but_chaos_shrink_shares_a_submodules_name():
    shared = set()
    for package_name in PACKAGES:
        directory = SRC.joinpath(*package_name.split("."))
        submodules = {path.stem for path in directory.glob("*.py")} | {
            path.parent.name for path in directory.glob("*/__init__.py")}
        tree = ast.parse((directory / "__init__.py").read_text())
        exported = {name.value for node in ast.walk(tree)
                    for name in (node.keys if isinstance(node, ast.Dict)
                                 else getattr(node, "elts", ()))
                    if isinstance(name, ast.Constant)}
        shared |= {f"{package_name}.{name}" for name in exported & submodules}
    assert shared == {"repro.chaos.shrink"}


@pytest.mark.parametrize("first", [
    "import repro.chaos.shrink",
    "from repro.chaos.shrink import ShrinkResult",
    "from repro.chaos import shrink_candidates",
    "import repro.chaos",
])
def test_chaos_shrink_is_the_function_whatever_loads_first(first):
    shrink = fresh(f"""{first}
import json, sys
from repro.chaos import shrink
import repro.chaos.shrink
print(json.dumps([callable(shrink), repro.chaos.shrink is shrink,
                  shrink is sys.modules["repro.chaos.shrink"].shrink]))""")
    assert shrink == [True, True, True]
