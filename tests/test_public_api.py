"""Each layer declares its public API in ``__all__``, and the package root
re-exports only declared names.

Every name a layer lists in ``__all__`` must exist on it, and every public
name that ``gaplab`` re-exports must be listed in the ``__all__`` of the
layer it comes from, so removing an API means editing one list, and a
stale entry in either place fails here.

Every public function also needs a caller outside the unit tests: its name,
as a whole word, in the CLI, a demo, the acceptance tests or the perfbench
workloads, or at the head of a per-layer metric of ``BENCHMARK.json``
(``<layer>.<name>.``). A function that only unit tests reach is not API.
"""

import importlib
import inspect
import json
import re
from pathlib import Path

import pytest

import gaplab

LAYERS = ("linalg", "contrastive", "geometry", "worlds", "c3", "bench", "embio")
ROOT = Path(__file__).resolve().parent.parent
CALLERS = [ROOT / "src" / "gaplab" / "cli.py", ROOT / "tests" / "test_acceptance.py",
           *sorted((ROOT / "demos").glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py"))]


@pytest.mark.parametrize("layer", LAYERS)
def test_all_names_resolve(layer):
    module = importlib.import_module(f"gaplab.{layer}")
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_root_reexports_are_declared():
    layers = {f"gaplab.{layer}" for layer in LAYERS}
    reexports = {name: value for name, value in vars(gaplab).items()
                 if not name.startswith("_") and not inspect.ismodule(value)}
    assert reexports
    for name, value in reexports.items():
        owner = getattr(value, "__module__", None)
        assert owner in layers, f"gaplab.{name} does not come from a layer module"
        assert name in importlib.import_module(owner).__all__, f"{owner}.__all__ lacks {name}"


def test_every_public_function_has_a_real_caller():
    text = "\n".join(p.read_text(encoding="utf-8") for p in CALLERS)
    metrics = [m["name"] for m in
               json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]]
    uncalled = []
    for layer in LAYERS:
        module = importlib.import_module(f"gaplab.{layer}")
        for name in module.__all__:
            if not inspect.isfunction(getattr(module, name)):
                continue
            if re.search(rf"\b{name}\b", text) is None \
                    and not any(m.startswith(f"{layer}.{name}.") for m in metrics):
                uncalled.append(f"{layer}.{name}")
    assert uncalled == []
