"""Each layer declares its public API in ``__all__``, and the package root
re-exports only declared names.

Every name a layer lists in ``__all__`` must exist on it, and every public
name that ``gaplab`` re-exports must be listed in the ``__all__`` of the
layer it comes from, so removing an API means editing one list, and a
stale entry in either place fails here.
"""

import importlib
import inspect

import pytest

import gaplab

LAYERS = ("linalg", "contrastive", "geometry", "worlds", "c3", "bench", "embio")


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
