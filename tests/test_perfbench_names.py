"""Every package name the benchmark harness uses still exists.

`perfbench/` drives the package through its public names. A change that
removes or renames one of them fails the benchmark only when it runs; this
test reads the harness's source with `ast` and fails in the ordinary suite
instead. It checks each `<module>.<name>` reference (and each longer
attribute chain hanging off a module, such as `nn.AdamState.fresh`) whose
module was imported from `safesteer`, and each name imported with
`from safesteer.<module> import ...`."""

import ast
import importlib
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


def perfbench_references():
    """Sorted (module, dotted name) pairs used by perfbench/*.py."""
    refs = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        modules = {}  # local name -> safesteer module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "safesteer":
                for alias in node.names:
                    modules[alias.asname or alias.name] = f"safesteer.{alias.name}"
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("safesteer."):
                refs.update((node.module, alias.name) for alias in node.names)
        for node in ast.walk(tree):
            chain = _chain(node) if isinstance(node, ast.Attribute) else None
            if chain is not None and chain[0] in modules:
                refs.add((modules[chain[0]], ".".join(chain[1:])))
    return sorted(refs)


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
