"""The package namespace: lazy public names, and the modules each command loads.

``import bqp01`` loads no submodule; the first public name read binds the
whole API, and ``bqp01 solve`` loads only the solver module of its route.
Module loading is checked in fresh interpreters, because this one has
already loaded everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bqp01
import bqp01.mincut
from bqp01 import bqp01_to_cut, dispatch_solve, format_instance
from bqp01.fixtures import sample_additive, sample_nonnegative, sample_rank_one

SRC = str(Path(bqp01.__file__).resolve().parent.parent)
SOLVERS = {"mincut", "additive", "rank_one", "fixed_rank", "enumeration"}
UNUSED_BY_SOLVE = {"fixed_rank", "enumeration", "transforms", "generate"}


def fresh(code: str):
    """The last line ``code`` prints, read as JSON, in a fresh interpreter."""
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=60,
        check=True,
    )
    return json.loads(result.stdout.splitlines()[-1])


LOADED = "sorted(m[6:] for m in sys.modules if m.startswith('bqp01.'))"


def test_import_loads_no_submodule():
    assert fresh(f"import sys, json, bqp01; print(json.dumps({LOADED}))") == []


def test_version_loads_no_solver():
    loaded = fresh(
        "import sys, json\n"
        "from bqp01.cli import main\n"
        "try:\n    main(['--version'])\nexcept SystemExit:\n    pass\n"
        f"print(json.dumps({LOADED}))"
    )
    # Parsing the arguments needs only the names in errors.
    assert loaded == ["cli", "errors"]


@pytest.mark.parametrize(
    "make, route, module",
    [
        (sample_nonnegative, "mincut", "mincut"),
        (sample_additive, "additive", "additive"),
        (sample_rank_one, "rank1", "rank_one"),
        (lambda: bqp01_to_cut(sample_rank_one()), "rank1", "rank_one"),
    ],
)
def test_solve_loads_only_its_route(tmp_path, make, route, module):
    path = tmp_path / "inst.bqp"
    path.write_text(format_instance(make()), encoding="utf-8")
    out, loaded = fresh(
        "import contextlib, io, sys, json\n"
        "from bqp01.cli import main\n"
        "out = io.StringIO()\n"
        f"with contextlib.redirect_stdout(out):\n    assert main(['solve', {str(path)!r}]) == 0\n"
        f"print(json.dumps([out.getvalue(), {LOADED}]))"
    )
    assert f"algorithm  {route}\n" in out
    assert set(loaded) & SOLVERS == {module}
    assert not set(loaded) & UNUSED_BY_SOLVE


def imported_by_solve(path, *flags):
    """(stdout, names of every module imported) of a ``python -m bqp01
    solve`` child, read from its ``-X importtime`` log."""
    result = subprocess.run(
        [sys.executable, *flags, "-X", "importtime", "-m", "bqp01", "solve", str(path)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=60,
        check=True,
    )
    log = [line for line in result.stderr.splitlines() if line.startswith("import time:")]
    return result.stdout, {line.rsplit("|", 1)[-1].strip() for line in log}


@pytest.mark.parametrize("flags", [(), ("-S",)], ids=["site", "no-site"])
@pytest.mark.parametrize(
    "make, route",
    [
        (sample_nonnegative, "mincut"),
        (sample_additive, "additive"),
        (lambda: bqp01_to_cut(sample_rank_one()), "rank1"),
    ],
    ids=["nonnegative", "additive", "cut-rank1"],
)
def test_solve_imports_no_dataclasses_inspect_or_typing(tmp_path, make, route, flags):
    path = tmp_path / "inst.bqp"
    path.write_text(format_instance(make()), encoding="utf-8")
    out, modules = imported_by_solve(path, *flags)
    assert f"algorithm  {route}\n" in out and "bqp01.model" in modules
    assert not modules & {"dataclasses", "inspect"}
    if flags:
        # Without site, nothing but the package could load typing.
        assert "typing" not in modules


def test_submodule_resolves_before_any_public_name():
    assert fresh(
        "import sys, json, bqp01\n"
        "mincut = bqp01.mincut\n"
        f"print(json.dumps([mincut is sys.modules['bqp01.mincut'], 'Instance' in vars(bqp01), {LOADED}]))"
    ) == [True, False, ["analysis", "errors", "mincut", "model"]]


def test_first_public_name_binds_the_whole_api():
    missing = fresh(
        "import json, bqp01\n"
        "bqp01.Instance\n"
        "print(json.dumps([n for n in bqp01.__all__ if n not in vars(bqp01)]))"
    )
    assert missing == []


def test_every_public_name_is_its_home_modules_object():
    homes = {name: home for home, names in bqp01._EXPORTS.items() for name in names}
    assert len(homes) == len(set(bqp01.__all__)) == len(bqp01.__all__)  # no name listed twice
    for name, home in homes.items():
        module = getattr(bqp01, home)
        obj = getattr(module, name)
        assert getattr(bqp01, name) is obj
        assert getattr(obj, "__module__", module.__name__) == module.__name__
        assert name in dir(bqp01)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from bqp01 import *", namespace)
    assert all(namespace[name] is getattr(bqp01, name) for name in bqp01.__all__)


def test_unknown_attribute_raises_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        bqp01.no_such_name


def test_dispatch_runs_a_patched_solver(monkeypatch):
    calls = []
    original = bqp01.mincut.solve_nonnegative

    def recording(inst):
        calls.append(inst)
        return original(inst)

    monkeypatch.setattr(bqp01.mincut, "solve_nonnegative", recording)
    assert dispatch_solve(sample_nonnegative()).algorithm == "mincut"
    assert len(calls) == 1
