"""Every top-level name in ``src/repro`` has a user outside its own tests.

A technique that no experiment, example, adapter, server path or bench
kernel reaches serves no self-awareness concern, so it is not part of
the system.  This walks the AST of ``src/repro``, ``examples/`` and
``perfbench/`` and fails for each top-level ``def``, ``class`` or
UPPER_CASE constant that is referenced only by its own body, by an
``__init__`` re-export (``__all__`` entries are strings, not
references) or from ``tests/``, which is not walked.

A reference is any ``Name`` or ``Attribute`` with the same identifier,
plus a ``from ... import`` of it outside an ``__init__``.  Matching by
identifier alone can only over-count users, so the check never flags a
name that some code names; a name reached only through a string (a
``getattr`` or an import by module path) needs a ``HELD`` entry.

``HELD`` lists the names kept anyway, each with the reason.  A held
name that gains a user must leave ``HELD``.
"""

import ast
from pathlib import Path
from typing import Dict, Iterator, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
USER_TREES = (SRC, ROOT / "examples", ROOT / "perfbench")

HELD = {
    "DDM": "drift detector for the self-model calibration work "
           "(ROADMAP item 6)",
    "WindowDriftDetector": "drift detector for the self-model calibration "
                           "work (ROADMAP item 6)",
    "ModelQualityTracker": "prediction-error tracker for the self-model "
                           "calibration work (ROADMAP item 6)",
    "Simulator": "the api.protocol contract; adapters satisfy it "
                 "structurally, tests check it with isinstance",
    "canonical_suite_text": "oracle the determinism and golden-shard "
                            "tests compare suite output with",
    "read_trace": "oracle the telemetry tests read JSONL traces back with",
    "switches_from_events": "README's way to rebuild strategy switches "
                            "from a trace",
}


def _definitions(tree: ast.Module) -> Iterator[Tuple[str, ast.stmt]]:
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if isinstance(target, ast.Name) and target.id.isupper():
                    yield target.id, node


def _references(tree: ast.Module,
                is_init: bool) -> Iterator[Tuple[str, int]]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom) and not is_init:
            for alias in node.names:
                yield alias.name, node.lineno


def unreached() -> Dict[str, str]:
    """``name -> "path:line"`` of every top-level ``src/repro`` name
    with no reference outside its own body and ``__init__`` re-exports."""
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for top in USER_TREES for path in sorted(top.rglob("*.py"))}
    uses: Dict[str, list] = {}
    for path, tree in trees.items():
        for name, line in _references(tree, path.name == "__init__.py"):
            uses.setdefault(name, []).append((path, line))
    found = {}
    for path, tree in trees.items():
        if not path.is_relative_to(SRC):
            continue
        for name, node in _definitions(tree):
            if not any(user != path or not
                       node.lineno <= line <= node.end_lineno
                       for user, line in uses.get(name, ())):
                found[name] = f"{path.relative_to(ROOT)}:{node.lineno}"
    return found


def test_every_top_level_name_has_a_user():
    orphans = {name: where for name, where in unreached().items()
               if name not in HELD}
    assert not orphans, (
        "reached only from its own body, __init__ re-exports or tests/; "
        f"delete it or give it a user: {orphans}")


def test_every_held_name_is_still_unreached():
    found = unreached()
    stale = sorted(name for name in HELD if name not in found)
    assert not stale, f"now has a user; drop it from HELD: {stale}"
