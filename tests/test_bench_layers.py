"""The benchmark's layer trace names package functions by "module.function";
every such name must still resolve, or `bench/run.py --trace 1` stops."""

import importlib
import runpy
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_traced_layers_resolve_in_the_package():
    traced = runpy.run_path(str(TRACING))["TRACED"]
    assert traced
    for qualified in traced:
        module_name, attr = qualified.rsplit(".", 1)
        module = importlib.import_module(f"elemdiff.{module_name}")
        assert callable(getattr(module, attr, None)), qualified
