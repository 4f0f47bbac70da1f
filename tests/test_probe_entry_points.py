"""The benchmark's tracer wraps khovsolve functions by name.

`perfbench/probe.py` lists them in LAYERS and CAPTURED; a name that no
longer resolves makes `perfbench/run.py --trace 1` fail. The file is
parsed, not imported or executed.
"""

import ast
import importlib
from pathlib import Path

PROBE = Path(__file__).resolve().parents[1] / "perfbench" / "probe.py"


def _literal(name):
    for node in ast.parse(PROBE.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{PROBE.name} defines no {name}")


def test_probe_entry_points_resolve():
    layers = _literal("LAYERS")
    names = [f"{layer}.{fn}" for layer, (_, fns) in layers.items() for fn in fns]
    names += list(_literal("CAPTURED"))
    missing = []
    for name in names:
        layer, fn = name.split(".")
        module = importlib.import_module(layers[layer][0])
        if not callable(getattr(module, fn, None)):
            missing.append(f"{layers[layer][0]}.{fn}")
    assert not missing, f"probe entry points that no longer resolve: {missing}"
