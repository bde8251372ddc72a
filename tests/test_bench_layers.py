"""The benchmark's layer trace names package functions by "module.function";
every such name must still resolve, or `bench/run.py --trace 1` stops.  Its
counter hooks read some arguments by parameter name, so those names must
still be parameters of the traced functions."""

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
