"""The package namespace: lazy submodule loading and name resolution."""

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


def run_loaded(*argv):
    """Output lines of LOADED for one verb: the loaded submodules after the
    package import, the verb's own output, the loaded submodules after it."""
    proc = subprocess.run(
        [sys.executable, "-c", LOADED, *argv], capture_output=True, text=True,
        cwd=SRC, check=True, timeout=60,
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
    assert len(tanglekit.__all__) == len(set(tanglekit.__all__)) == 56
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
