"""Import hygiene: what a fresh interpreter loads, and the BLAS default.

The package ``__init__`` modules of ``repro``, ``repro.fleet``,
``repro.service``, ``repro.experiments`` and ``repro.analysis``
re-export their names lazily
(PEP 562), so a spawned shard worker imports the shard stack only, and
``import repro`` sets one OpenBLAS thread before anything loads numpy.
Every check runs in a fresh interpreter: this process has long since
imported everything.
"""

from __future__ import annotations

import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

LAZY_PACKAGES = (
    "repro", "repro.fleet", "repro.service", "repro.experiments", "repro.analysis",
)

#: What a shard worker never runs: the HTTP front and its client, the
#: parent-side fold, the lint engine, the ``repro check`` harness and
#: the report writer.
NOT_IN_WORKER = (
    "http.server",
    "repro.fleet.api",
    "repro.fleet.client",
    "repro.fleet.aggregate",
    "repro.analysis.lint",
    "repro.analysis.project",
    "repro.analysis.determinism",
    "repro.experiments.figures",
    "repro.experiments.report_md",
)

SUBPACKAGES = sorted(
    info.name
    for info in pkgutil.iter_modules(repro.__path__, "repro.")
    if info.ispkg
)


def fresh(code: str, env: dict[str, str] | None = None) -> str:
    """Run ``code`` in a new interpreter on this tree; its stdout."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = SRC
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def loaded_after(statement: str, names: tuple[str, ...]) -> list[str]:
    """Which of ``names`` are in ``sys.modules`` after ``statement``."""
    return json.loads(fresh(
        f"import json, sys\n{statement}\n"
        f"print(json.dumps([m for m in {list(names)!r} if m in sys.modules]))"
    ))


def test_import_repro_loads_no_numpy():
    assert loaded_after("import repro", ("numpy",)) == []


def test_worker_entry_module_imports_the_shard_stack_only():
    assert loaded_after("import repro.fleet.executor", NOT_IN_WORKER) == []


@pytest.mark.parametrize("package", SUBPACKAGES)
def test_subpackage_imports_cleanly_first(package):
    assert fresh(f"import {package}; print({package}.__name__)") == package


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_export_is_its_defining_module_object(package):
    # For each name of __all__: the module the package's table names for
    # it, whether that module defines it (classes and functions), whether
    # the package hands out that very object, and whether ``import *``
    # and ``dir`` see it.
    report = json.loads(fresh(f"""
import importlib, json
import {package} as pkg
out = {{"missing": [], "foreign": [], "other_object": []}}
origin = {{n: m for m, names in pkg._EXPORTS.items() for n in names}}
out["all_is_table"] = sorted(pkg.__all__) == sorted(origin)
for name in pkg.__all__:
    if name not in origin:
        out["missing"].append(name)
        continue
    module = importlib.import_module(origin[name], "{package}")
    obj = getattr(module, name)
    defined_in = getattr(obj, "__module__", module.__name__)
    if isinstance(obj, type) or callable(obj):
        if defined_in != module.__name__:
            out["foreign"].append(name)
    if getattr(pkg, name) is not obj:
        out["other_object"].append(name)
star = {{}}
exec("from {package} import *", star)
out["star"] = sorted(set(pkg.__all__) - set(star))
out["dir"] = sorted(set(pkg.__all__) - set(dir(pkg)))
try:
    pkg.no_such_name
    out["unknown_raises"] = False
except AttributeError:
    out["unknown_raises"] = True
print(json.dumps(out))
"""))
    assert report == {
        "missing": [], "foreign": [], "other_object": [], "all_is_table": True,
        "star": [], "dir": [], "unknown_raises": True,
    }


def _clean_env(**overrides: str) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env.update(overrides)
    return env


SPAWN_CHILD_SEES = """
import multiprocessing, os
import repro
with multiprocessing.get_context("spawn").Pool(1) as pool:
    child = pool.apply(os.getenv, ("OPENBLAS_NUM_THREADS",))
print(os.environ["OPENBLAS_NUM_THREADS"], child)
"""


def test_import_repro_defaults_to_one_blas_thread_in_spawned_children():
    assert fresh(SPAWN_CHILD_SEES, _clean_env()) == "1 1"


def test_an_explicit_blas_thread_count_wins():
    assert fresh(SPAWN_CHILD_SEES, _clean_env(OPENBLAS_NUM_THREADS="3")) == "3 3"
