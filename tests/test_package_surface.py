"""The package holds what a command or an emitted number needs.

Every top-level function and class of `src/elemdiff` (outside `__init__`)
must be named somewhere else in `src/`: called, subclassed or read, as a
bare name in its own module or in one that imports it from there, or as an
attribute anywhere.  A bare name read elsewhere is some other binding (a
local `scale` does not reach `jets.scale`).  An `__init__` export does not
count, since that is the package surface this guard keeps small.  A name
that no `src/` code reaches either moves to `tests/oracles.py`, goes, or is
listed in `ALLOWED` with its reason.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "elemdiff"

ALLOWED = {
    "retarget": "README documents retargeting",
    "retarget_edges": "README documents retargeting",
    "find_sigma": "README documents retargeting",
    "canonicalize_labelled": "README documents the canonical representative",
    "trace_on_span": "ROADMAP item 3 reads block characters with it",
    "exact_rank": "bench/tracing.py traces it; tests/test_bench_layers.py checks that",
}


def _scan(module) -> tuple:
    """One walk of a module: for each top-level statement, the bare names
    and the attributes it reads, and the (module, name) pairs it imports."""
    statements, imports = [], set()
    for statement in module.body:
        names, attributes = set(), set()
        stack = [statement]
        while stack:
            n = stack.pop()
            if isinstance(n, ast.Name):
                names.add(n.id)
            elif isinstance(n, ast.Attribute):
                attributes.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                imports.update((n.module, alias.name) for alias in n.names)
            stack.extend(ast.iter_child_nodes(n))
        statements.append((statement, names, attributes))
    return statements, imports


def unreached(src: Path = SRC) -> set:
    """Top-level definitions that no other `src/` code names: a bare name
    counts in the defining module and in modules that import it from there,
    an attribute anywhere."""
    scans = {path.stem: _scan(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(src.glob("*.py")) if path.name != "__init__.py"}
    out = set()
    for home, (statements, _) in scans.items():
        for definition, _, _ in statements:
            if not isinstance(definition, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = definition.name
            if not any(name in attributes
                       or name in names and (module == home or (home, name) in imports)
                       for module, (others, imports) in scans.items()
                       for other, names, attributes in others if other is not definition):
                out.add(name)
    return out


def test_every_top_level_definition_is_reached_from_src_or_allowed():
    assert unreached() - set(ALLOWED) == set()


def test_every_allowed_name_is_still_defined_and_unreached():
    # a name that gained a caller, or is gone, leaves the list
    assert set(ALLOWED) <= unreached()


def test_a_local_of_the_same_name_reaches_nothing(tmp_path):
    (tmp_path / "jets.py").write_text("def scale(q, a):\n    return a\n")
    (tmp_path / "relations.py").write_text("def lift(q):\n    scale = q\n    return scale\n")
    assert unreached(tmp_path) == {"scale", "lift"}
    (tmp_path / "cli.py").write_text(
        "from .jets import scale\nfrom .relations import lift\n\n"
        "def main():\n    return scale(1, lift(2))\n")
    assert unreached(tmp_path) == {"main"}
