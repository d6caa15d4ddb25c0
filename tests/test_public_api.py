"""Each layer declares its public API in ``__all__``, and the package root
re-exports only declared names.

Every name a layer lists in ``__all__`` must exist on it, and every public
name that ``gaplab`` re-exports must be listed in the ``__all__`` of the
layer it comes from, so removing an API means editing one list, and a
stale entry in either place fails here.

Every public function also needs a caller outside the unit tests: its name,
as a name, an attribute or an imported name in the code of the CLI, a demo,
the acceptance tests or the perfbench workloads, or at the head of a
per-layer metric of ``BENCHMARK.json`` (``<layer>.<name>.``). A function
that only unit tests reach is not API; words in strings and comments do not
count.

The same files, and the rest of ``src/gaplab``, are the real callers that
the defaults and record fields answer to. A default of a public function or
dataclass (of a layer, or of ``cli``) must be left out by some call of that
name, or come after one that is: a default that every caller overrides is
a second copy of a value its callers own. A field of a public dataclass
must be read as ``.field``, or its whole record read, which here means its
class named in a ``dataclasses.fields`` call (the CLI's tables pair that
with ``dataclasses.astuple``).
"""

import ast
import dataclasses
import importlib
import inspect
import json
from pathlib import Path

import pytest

import gaplab
from gaplab import cli

LAYERS = ("linalg", "contrastive", "geometry", "worlds", "c3", "bench", "embio")
ROOT = Path(__file__).resolve().parent.parent
CALLERS = [ROOT / "src" / "gaplab" / "cli.py", ROOT / "tests" / "test_acceptance.py",
           *sorted((ROOT / "demos").glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py"))]
LIBRARY = sorted(p for p in (ROOT / "src" / "gaplab").glob("*.py") if p not in CALLERS)


def _nodes(paths):
    """Every AST node of the files at ``paths``."""
    for path in paths:
        yield from ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))


def _name(node) -> str | None:
    """The name a ``Name`` or an ``Attribute`` node spells, else None."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _public():
    """(qualified name, object) of every public function and dataclass: each
    layer's ``__all__`` and the functions that ``cli`` defines."""
    for layer in LAYERS:
        module = importlib.import_module(f"gaplab.{layer}")
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj) or dataclasses.is_dataclass(obj):
                yield f"{layer}.{name}", obj
    for name, obj in vars(cli).items():
        if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == cli.__name__:
            yield f"cli.{name}", obj


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
    named = set()
    for node in _nodes(CALLERS):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            named.update(a.name.rsplit(".", 1)[-1] for a in node.names)
        elif _name(node) is not None:
            named.add(_name(node))
    metrics = [m["name"] for m in
               json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]]
    uncalled = []
    for layer in LAYERS:
        module = importlib.import_module(f"gaplab.{layer}")
        for name in module.__all__:
            if not inspect.isfunction(getattr(module, name)):
                continue
            if name not in named and not any(m.startswith(f"{layer}.{name}.") for m in metrics):
                uncalled.append(f"{layer}.{name}")
    assert uncalled == []


def test_every_default_is_left_out_by_a_real_call():
    calls, owner = [], {}  # calls with no *args or **kwargs; call -> default it sits in
    for node in _nodes(CALLERS + LIBRARY):
        if isinstance(node, ast.FunctionDef):
            args = node.args.posonlyargs + node.args.args
            for i, default in enumerate(node.args.defaults, len(args) - len(node.args.defaults)):
                owner.update((sub, (node.name, i, args[i].arg)) for sub in ast.walk(default))
        elif isinstance(node, ast.Call) and _name(node.func) is not None \
                and not any(isinstance(a, ast.Starred) for a in node.args) \
                and all(k.arg is not None for k in node.keywords):
            calls.append(node)
    # A call inside a default runs only when that default is left out.
    live = {}  # callee name -> (positional count, keyword names) of each live call

    def left_out(name, i, param):
        return any(n <= i and param not in kw for n, kw in live.get(name, []))

    while ready := {c for c in calls if c not in owner or left_out(*owner[c])}:
        calls = [c for c in calls if c not in ready]
        for c in ready:
            live.setdefault(_name(c.func), []).append((len(c.args), {k.arg for k in c.keywords}))
    overridden = []
    for qualname, obj in _public():
        some_left_out = False
        for i, p in enumerate(inspect.signature(obj).parameters.values()):
            if p.default is not inspect.Parameter.empty:
                some_left_out = some_left_out or left_out(qualname.rsplit(".", 1)[1], i, p.name)
                if not some_left_out:
                    overridden.append(f"{qualname}({p.name})")
    assert overridden == []


def test_every_record_field_is_read():
    read, whole, called = set(), set(), set()
    for node in _nodes(CALLERS + LIBRARY):  # breadth first: a call comes before its callee
        if isinstance(node, ast.Call):
            called.add(node.func)
            if _name(node.func) == "fields" and node.args:
                whole.add(_name(node.args[0]))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) \
                and node not in called:  # ``tracer.summary()`` reads no field
            read.add(node.attr)
    unread = [f"{qualname}.{f.name}" for qualname, obj in _public()
              if dataclasses.is_dataclass(obj) and obj.__name__ not in whole
              for f in dataclasses.fields(obj) if f.name not in read]
    assert unread == []
