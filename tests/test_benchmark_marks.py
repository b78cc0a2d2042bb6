"""The benchmark's segment marks and trace bindings name what the package
still has.

`perfbench/segments.py` cuts each iteration at the calls of the functions
its `MARKS` name, wrapped at the module global the caller reads. A mark
whose target was renamed or deleted is skipped with a warning, which makes
the segments coarser and can only raise the measured time, so it fails
here, in the change that renamed it. `perfbench/tracing.py` wraps each
`(owner, attribute)` of its `BINDINGS` for the traced run; one that no
longer resolves is printed as "not bound" and its time is charged to the
caller's layer. The dead lists below are exact, so an entry that resolves
again, or a newly dead one left off, fails here too. Both files are read
with `ast`: the benchmark is not imported.
"""

import ast
import importlib
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEGMENTS = PERFBENCH / "segments.py"
TRACING = PERFBENCH / "tracing.py"

# marks whose targets are already gone; the benchmark's own next change
# rebinds them
DEAD = {
    ("sweep-frozen", "texscreen.evaluation.train_csvc"),
    ("loocv-solver", "texscreen.evaluation.train_csvc"),
    ("ingest-ref", "texscreen.evaluation.train_csvc"),
    ("ingest-ref", "texscreen.cli.extract_feature"),
    ("ingest-ref", "texscreen.cli.resize_bilinear"),
}

# trace bindings whose targets are already gone, as a traced run prints them
# after "not bound"; the benchmark's own next change rebinds them
DEAD_BINDINGS = {
    ("texscreen.features", "concat"),
    ("texscreen.features", "lbp_histogram"),
    ("texscreen.features", "gray_histogram"),
    ("texscreen.features", "normalize_l1"),
    ("texscreen.classifier.TrainingSet", "from_samples"),
    ("texscreen.classifier", "solve_dual"),
    ("texscreen.evaluation", "train_csvc"),
    ("texscreen.evaluation", "predict"),
    ("texscreen.evaluation", "decision_value"),
    ("texscreen.cli", "to_grayscale"),
    ("texscreen.cli", "resize_bilinear"),
    ("texscreen.cli", "extract_feature"),
    ("texscreen.cli", "report_to_table"),
}


def _assigned(path: Path, name: str) -> ast.expr:
    """The value of the module-level assignment to `name` in `path`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if targets == [name]:
            return node.value
    raise AssertionError(f"perfbench/{path.name} assigns no {name}")


def _marks() -> dict[str, tuple[str, ...]]:
    return ast.literal_eval(_assigned(SEGMENTS, "MARKS"))


def _bindings() -> list[tuple[str, str]]:
    """(owner, attribute) of each entry of BINDINGS; the rest of an entry
    names functions of the benchmark, so only these two are read."""
    entries = _assigned(TRACING, "BINDINGS").elts
    return [(ast.literal_eval(e.elts[0]), ast.literal_eval(e.elts[1])) for e in entries]


def _owner(path: str):
    """The module, or the class inside a module, that `path` names; a class
    that is gone raises AttributeError."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module_name, cls = path.rsplit(".", 1)
        return inspect.getattr_static(importlib.import_module(module_name), cls)


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
    assert unresolved == DEAD


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


def test_every_binding_resolves_but_the_dead_ones():
    bindings = _bindings()
    unresolved = set()
    for owner_path, attr in bindings:
        try:
            inspect.getattr_static(_owner(owner_path), attr)
        except AttributeError:
            unresolved.add((owner_path, attr))
    assert len(bindings) > len(unresolved)
    assert unresolved == DEAD_BINDINGS
