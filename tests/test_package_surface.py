"""The package holds what a command or an emitted number needs.

Every top-level function and class of `src/elemdiff` (outside `__init__`)
must be named somewhere else in `src/`: called, subclassed or read.  An
`__init__` export does not count, since that is the package surface this
guard keeps small.  A name that no `src/` code reaches either moves to
`tests/oracles.py`, goes, or is listed in `ALLOWED` with its reason.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "elemdiff"

ALLOWED = {
    "retarget": "README documents retargeting",
    "retarget_edges": "README documents retargeting",
    "find_sigma": "README documents retargeting",
    "canonicalize_labelled": "README documents the canonical representative",
    "tree_with_arities": "ROADMAP item 3 grows it to build a block's rows",
    "trace_on_span": "ROADMAP item 3 reads block characters with it",
    "exact_rank": "bench/tracing.py traces it; tests/test_bench_layers.py checks that",
}


def _modules() -> list:
    return [ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]


def _names_read(node, skip=None) -> set:
    """Names and attributes `node` reads, leaving out the subtree `skip`."""
    out = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if n is skip:
            continue
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        stack.extend(ast.iter_child_nodes(n))
    return out


def unreached() -> set:
    """Top-level definitions that no other `src/` code names."""
    modules = _modules()
    out = set()
    for tree in modules:
        for definition in tree.body:
            if not isinstance(definition, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not any(definition.name in _names_read(other, skip=definition)
                       for other in modules):
                out.add(definition.name)
    return out


def test_every_top_level_definition_is_reached_from_src_or_allowed():
    assert unreached() - set(ALLOWED) == set()


def test_every_allowed_name_is_still_defined_and_unreached():
    # a name that gained a caller, or is gone, leaves the list
    assert set(ALLOWED) <= unreached()
