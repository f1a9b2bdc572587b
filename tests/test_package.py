"""The package's lazy exports, and the modules a cold command loads."""

import importlib
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import knotsum

SRC = Path(knotsum.__file__).parent.parent


def test_every_public_name_is_its_home_modules_object():
    for name in knotsum.__all__:
        value = getattr(knotsum, name)
        assert getattr(importlib.import_module(value.__module__), name) is value, name


def test_dir_lists_every_public_name():
    assert set(knotsum.__all__) <= set(dir(knotsum))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        knotsum.no_such_name
    assert not hasattr(knotsum, "no_such_name")


def test_star_import_binds_every_public_name(tmp_path):
    script = tmp_path / "star.py"
    script.write_text("from knotsum import *\n")
    bound = runpy.run_path(str(script))
    assert {name: bound.get(name) for name in knotsum.__all__} == {
        name: getattr(knotsum, name) for name in knotsum.__all__
    }


def _loaded(*args: str) -> set[str]:
    """The modules one cold interpreter imports, read off -X importtime. -S
    keeps site's .pth files, which may import modules of their own, out."""
    proc = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", *args],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, check=True,
    )
    return {line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.splitlines() if line.startswith("import time:")}


def test_import_knotsum_loads_no_submodule():
    loaded = _loaded("-c", "import knotsum")
    assert "knotsum" in loaded
    assert not {name for name in loaded if name.startswith("knotsum.")}


def test_dm_bounds_loads_neither_dataclasses_nor_the_search_layers():
    loaded = _loaded("-m", "knotsum", "dm-bounds", "3_1", "3_1", "5_1")
    assert {"knotsum.distances", "knotsum.table"} <= loaded
    assert not loaded & {"dataclasses", "knotsum.surgery", "knotsum.plumbing"}


def test_split_loads_neither_the_table_nor_the_kernels():
    loaded = _loaded("-m", "knotsum", "split", "1 2 3", "--at", "1")
    assert "knotsum.braid" in loaded
    assert not loaded & {"knotsum.table", "knotsum.linalg"}


def test_gon_merge_loads_neither_the_table_nor_the_kernels():
    loaded = _loaded("-m", "knotsum", "gon-merge", "4", "4", "--knot")
    assert "knotsum.distances" in loaded
    assert not loaded & {"knotsum.table", "knotsum.linalg"}


@pytest.mark.parametrize("command, layer", [
    (("verify-triple", "1 1 1 2", "--at", "1", "--expect", "unknot,3_1,3_1"), "knotsum.surgery"),
    (("unknot-set", "1 1 1 2 -1 2"), "knotsum.surgery"),
    (("search-triples", "unknot", "unknot", "3_1"), "knotsum.surgery"),
    (("plumbing", "normalize", "S[2,2,-2,0,2,2]"), "knotsum.plumbing"),
    (("invariants", "S[2,2]"), "knotsum.plumbing"),
], ids=["verify-triple", "unknot-set", "search-triples", "plumbing-normalize", "invariants-S"])
def test_the_search_layers_load_no_dataclasses(command, layer):
    loaded = _loaded("-m", "knotsum", *command)
    assert layer in loaded
    assert "dataclasses" not in loaded
