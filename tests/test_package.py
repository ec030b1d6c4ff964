"""The package namespace: lazy submodule loading and name resolution."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tanglekit
from tanglekit import coloring

SRC = Path(tanglekit.__file__).resolve().parent.parent

LOADED = """
import sys
import tanglekit
def loaded():
    return sorted(m for m in sys.modules if m.startswith("tanglekit."))
print(loaded())
from tanglekit import cli
cli.run(sys.argv[1:])
print(loaded())
"""

TREFOIL = "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"
VERBS = [
    ["det", TREFOIL],
    ["colorable", "--n", "3", TREFOIL],
    ["tangle", "cf", "21/55"],
    ["skein", "triple", "1/2", "1/3"],
    ["template", "fit", "T[1,2,1,2]"],
    ["certify", "21/55", "-o", "c.json"],
    ["verify", "c.json"],
    ["corpus", "check"],
]

HEAVY = """
import sys
from tanglekit import cli
code = cli.run(sys.argv[1:])
print(code, "dataclasses" in sys.modules, "inspect" in sys.modules)
"""


def run_loaded(*argv, cwd=SRC):
    """Output lines of LOADED for one verb: the loaded submodules after the
    package import, the verb's own output, the loaded submodules after it."""
    proc = subprocess.run(
        [sys.executable, "-c", LOADED, *argv], capture_output=True, text=True,
        cwd=cwd, env={**os.environ, "PYTHONPATH": str(SRC)}, check=True, timeout=60,
    )
    return proc.stdout.splitlines()


def test_import_loads_no_submodule_and_det_loads_two_light_ones():
    at_import, det, after_det = run_loaded("det", TREFOIL)
    assert at_import == "[]"
    assert det == "3"
    assert after_det == str([
        "tanglekit._record", "tanglekit.cli", "tanglekit.coloring", "tanglekit.diagram"
    ])


def test_corpus_check_loads_no_skein_layer():
    at_import, *_, summary, after_check = run_loaded("corpus", "check")
    assert at_import == "[]" and summary.endswith(" entries check out")
    assert after_check == str([
        "tanglekit._record", "tanglekit.cli", "tanglekit.coloring", "tanglekit.corpus",
        "tanglekit.diagram",
    ])


# the submodules each verb loads besides _record and cli: every one of them
# is compiled from source in a process that writes no bytecode
SKEIN_LAYERS = ["coloring", "diagram", "skein", "tangle"]
VERB_MODULES = [
    (["certify", "21/55", "-o", "c.json"], ["certify", *SKEIN_LAYERS]),
    (["verify", "c.json"], ["certify", *SKEIN_LAYERS]),
    (["template", "fit", "T[1,2,1,2]"], SKEIN_LAYERS),
    (["tangle", "cf", "21/55"], ["tangle"]),
]


def test_each_verb_loads_only_the_layers_it_needs(tmp_path):
    # certify writes the file verify reads
    for argv, modules in VERB_MODULES:
        at_import, *_, after = run_loaded(*argv, cwd=tmp_path)
        assert at_import == "[]", argv
        expected = sorted(f"tanglekit.{m}" for m in ["_record", "cli", *modules])
        assert after == str(expected), argv


def test_certify_imports_nothing_from_the_coloring_layer():
    # the certificate layer reads determinants only through the skein layer's
    # model and fits, never from coloring directly
    tree = ast.parse((SRC / "tanglekit" / "certify.py").read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "tanglekit" if node.level else ""
            base = ".".join(filter(None, (base, node.module)))
            imported += [base] + [f"{base}.{alias.name}" for alias in node.names]
    assert imported, "no imports found"
    assert not [m for m in imported if m.startswith("tanglekit.coloring")], imported


def test_no_verb_imports_dataclasses_or_inspect(tmp_path):
    # each verb in a fresh interpreter; certify writes the file verify reads
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for argv in VERBS:
        proc = subprocess.run(
            [sys.executable, "-c", HEAVY, *argv], capture_output=True, text=True,
            cwd=tmp_path, env=env, check=True, timeout=60,
        )
        assert proc.stdout.splitlines()[-1] == "0 False False", argv


def test_every_public_name_resolves_to_its_submodule():
    assert len(tanglekit.__all__) == len(set(tanglekit.__all__)) == 51
    for name in tanglekit.__all__:
        value = getattr(tanglekit, name)
        home = sys.modules[f"tanglekit.{tanglekit._HOME[name]}"]
        assert getattr(home, name) is value, name


@pytest.mark.parametrize(
    "module", ["certify", "cli", "coloring", "corpus", "diagram", "skein", "tangle"]
)
def test_star_import_of_every_submodule_binds_its_whole_all(module):
    namespace = {}
    exec(f"from tanglekit.{module} import *", namespace)
    home = sys.modules[f"tanglekit.{module}"]
    for name in home.__all__:
        assert namespace[name] is getattr(home, name), (module, name)


def test_dir_lists_names_and_submodules_only():
    names = dir(tanglekit)
    assert names == sorted(names)
    assert set(tanglekit.__all__) <= set(names)
    assert {"certify", "coloring", "corpus", "diagram", "skein", "tangle"} <= set(names)
    assert "__version__" in names
    assert not [n for n in names if n.startswith("_") and not n.startswith("__")]
    assert "__getattr__" not in names and "import_module" not in names


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        tanglekit.nope  # noqa: B018
    assert not hasattr(tanglekit, "cli_main")


def test_names_are_not_cached_so_rebinding_reaches_the_package(monkeypatch):
    tanglekit.determinant  # noqa: B018 - resolve once before rebinding

    def patched(d):
        return 0

    monkeypatch.setattr(coloring, "determinant", patched)
    assert tanglekit.determinant is patched
    assert "determinant" not in vars(tanglekit)
