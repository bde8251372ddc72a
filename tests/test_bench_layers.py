"""The benchmark's layer trace names package functions by "module.function";
every such name must still resolve, or `bench/run.py --trace 1` stops.  Its
counter hooks read some arguments by parameter name, so those names must
still be parameters of the traced functions, and some attributes of the
results, so those must still be on what the functions return."""

import importlib
import inspect
import re
import runpy
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

# traced function -> the parameters its counter hook binds by name
BOUND = {
    "relations.eliminate_mod": ("matrix",),
    "relations.minor_is_nonsingular_mod": ("row_positions",),
    "relations.certify_relation": ("terms",),
}


# traced function -> the attributes its counter hook reads off the result
READ = {
    "relations.eliminate_mod": ("rank", "null_rows"),
    "relations.certify_relation": ("tuples_checked", "tuples_skipped_off_layer", "holds"),
    "relations.build_matrix": ("data", "ncols"),
    "relations.dimension_certificate": ("columns", "relations"),
}
# ... and off each relation `r` of a certificate's `result.relations`
RELATION_READ = ("coeffs",)


def _resolve(qualified):
    module_name, attr = qualified.rsplit(".", 1)
    return getattr(importlib.import_module(f"elemdiff.{module_name}"), attr, None)


def test_traced_layers_resolve_in_the_package():
    traced = runpy.run_path(str(TRACING))["TRACED"]
    assert traced
    for qualified in traced:
        assert callable(_resolve(qualified)), qualified


def test_hooks_bind_parameters_the_package_still_has():
    traced = runpy.run_path(str(TRACING))["TRACED"]
    # every argument a hook reads is listed here, so a new one is checked too
    read = set(re.findall(r'args\["(\w+)"\]', TRACING.read_text()))
    assert read == {name for names in BOUND.values() for name in names}
    for qualified, names in BOUND.items():
        assert qualified in traced, qualified
        parameters = inspect.signature(_resolve(qualified)).parameters
        for name in names:
            assert name in parameters, (qualified, name)


def test_hooks_read_attributes_the_results_still_have():
    from elemdiff.config import RunConfig
    from elemdiff.trees import chain_tree, enumerate_trees
    from elemdiff.relations import PRIME, JetStream

    text = TRACING.read_text()
    read = set(re.findall(r"result\.(\w+)", text))
    assert read == {name for names in READ.values() for name in names}
    assert set(READ) <= set(runpy.run_path(str(TRACING))["TRACED"])
    rows = enumerate_trees(3)  # at d = 1, 9 trees span 6: the certificate has relations
    chain = chain_tree([1, 2, 3])
    results = {
        "relations.eliminate_mod": _resolve("relations.eliminate_mod")([[1, 2], [2, 4]], PRIME),
        "relations.certify_relation": _resolve("relations.certify_relation")(
            [(1, chain), (-1, chain)], 1),
        "relations.build_matrix": _resolve("relations.build_matrix")(rows, 1, JetStream(0), 2),
        "relations.dimension_certificate": _resolve("relations.dimension_certificate")(
            rows, 1, RunConfig()),
    }
    for qualified, names in READ.items():
        for name in names:
            assert hasattr(results[qualified], name), (qualified, name)
    assert "for r in result.relations" in text
    assert set(re.findall(r"\br\.(\w+)", text)) == set(RELATION_READ)
    relations = results["relations.dimension_certificate"].relations
    assert relations
    for name in RELATION_READ:
        assert all(hasattr(r, name) for r in relations), name
