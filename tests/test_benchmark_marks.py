"""The benchmark's segment marks name functions the package still calls.

`perfbench/segments.py` cuts each iteration at the calls of the functions
its `MARKS` name, wrapped at the module global the caller reads. A mark
whose target was renamed or deleted is skipped with a warning, which makes
the segments coarser and can only raise the measured time, so it fails
here, in the change that renamed it. `MARKS` is read with `ast`: the
benchmark is not imported.
"""

import ast
import importlib
import inspect
from pathlib import Path

SEGMENTS = Path(__file__).resolve().parents[1] / "perfbench" / "segments.py"

# marks whose targets are already gone; the benchmark's own next change
# rebinds them
DEAD = {
    ("sweep-frozen", "texscreen.evaluation.train_csvc"),
    ("loocv-solver", "texscreen.evaluation.train_csvc"),
    ("ingest-ref", "texscreen.evaluation.train_csvc"),
    ("ingest-ref", "texscreen.cli.extract_feature"),
    ("ingest-ref", "texscreen.cli.resize_bilinear"),
}


def _marks() -> dict[str, tuple[str, ...]]:
    tree = ast.parse(SEGMENTS.read_text(encoding="utf-8"))
    for node in tree.body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if targets == ["MARKS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/segments.py defines no MARKS literal")


def _live_marks():
    """(module, attribute) of each mark that resolves, and the (workload,
    path) of each that does not."""
    live, unresolved = [], set()
    for workload, paths in _marks().items():
        for path in paths:
            module_name, attr = path.rsplit(".", 1)
            module = importlib.import_module(module_name)
            try:
                inspect.getattr_static(module, attr)
            except AttributeError:
                unresolved.add((workload, path))
                continue
            live.append((module, attr))
    return live, unresolved


def test_every_mark_resolves_but_the_dead_ones():
    live, unresolved = _live_marks()
    assert live
    assert unresolved <= DEAD


def test_every_marked_function_is_called_through_its_mark():
    # a wrapper on module.attr sees only calls that read that global
    live, _ = _live_marks()
    for module, attr in live:
        tree = ast.parse(inspect.getsource(module))
        calls = [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == attr
        ]
        assert calls, f"{module.__name__} never calls {attr} by that name"
