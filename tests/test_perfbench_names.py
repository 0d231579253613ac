"""Every package name the benchmark harness uses still exists.

`perfbench/` drives the package through its public names. A change that
removes or renames one of them fails the benchmark only when it runs; this
test reads the harness's source with `ast` and fails in the ordinary suite
instead. It checks each `<module>.<name>` reference (and each longer
attribute chain hanging off a module, such as `nn.AdamState.fresh`) whose
module was imported from `safesteer`, and each name imported with
`from safesteer.<module> import ...`. It also binds the arguments of each
call the harness makes to a package name against that name's signature,
so that a removed, renamed or reordered parameter fails here too."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _chain(node):
    """('mod', 'a', 'b') for the expression mod.a.b, else None."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return (node.id, *reversed(names))


def _harness_sources():
    """(path, tree, resolve) per perfbench/*.py, where resolve maps an
    expression to the (module, dotted name) of the package object it names,
    or None."""
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        names = {}  # local name -> (safesteer module, dotted name), "" for a module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "safesteer":
                for alias in node.names:
                    names[alias.asname or alias.name] = (f"safesteer.{alias.name}", "")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("safesteer."):
                for alias in node.names:
                    names[alias.asname or alias.name] = (node.module, alias.name)

        def resolve(node, names=names):
            chain = _chain(node)
            if chain is None or chain[0] not in names:
                return None
            module, name = names[chain[0]]
            return module, ".".join(p for p in (name, *chain[1:]) if p)

        yield path, tree, resolve


def perfbench_references():
    """Sorted (module, dotted name) pairs used by perfbench/*.py."""
    refs = set()
    for _, tree, resolve in _harness_sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("safesteer."):
                refs.update((node.module, alias.name) for alias in node.names)
            ref = resolve(node) if isinstance(node, ast.Attribute) else None
            if ref is not None:
                refs.add(ref)
    return sorted(refs)


def perfbench_calls():
    """(file:line, module, dotted name, positional count, keyword names) of
    every call perfbench/*.py makes to a package name; calls that splat
    *args or **kwargs are skipped, since their arguments are not known
    until run time."""
    calls = []
    for path, tree, resolve in _harness_sources():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            ref = resolve(node.func)
            splat = (any(isinstance(a, ast.Starred) for a in node.args)
                     or any(k.arg is None for k in node.keywords))
            if ref is not None and ref[1] and not splat:
                calls.append((f"{path.name}:{node.lineno}", *ref, len(node.args),
                              tuple(k.arg for k in node.keywords)))
    return sorted(calls)


def test_the_reader_finds_the_harness_names():
    # an empty list would pass every case below without checking anything
    refs = perfbench_references()
    assert ("safesteer.sim", "run_episode") in refs
    assert ("safesteer.datasets", "ImageDataset") in refs


@pytest.mark.parametrize("module, name", perfbench_references())
def test_perfbench_name_exists(module, name):
    obj = importlib.import_module(module)
    for part in name.split("."):
        assert hasattr(obj, part), f"perfbench uses {module}.{name}, which is gone"
        obj = getattr(obj, part)


def test_the_reader_finds_the_harness_calls():
    calls = {(module, name) for _, module, name, _, _ in perfbench_calls()}
    assert ("safesteer.bayes", "ViConfig") in calls
    assert ("safesteer.controllers", "BnnController") in calls


@pytest.mark.parametrize("where, module, name, npos, keywords", [
    pytest.param(*call, id=f"{call[0]}-{call[1].rpartition('.')[2]}.{call[2]}")
    for call in perfbench_calls()])
def test_perfbench_call_binds(where, module, name, npos, keywords):
    # a name perfbench uses that is gone fails test_perfbench_name_exists
    obj = importlib.import_module(module)
    for part in name.split("."):
        obj = getattr(obj, part)
    try:
        inspect.signature(obj).bind(*[None] * npos, **dict.fromkeys(keywords))
    except TypeError as e:
        pytest.fail(f"{where}: perfbench calls {module}.{name} with {npos} positional "
                    f"arguments and keywords {list(keywords)}, which no longer bind: {e}")
