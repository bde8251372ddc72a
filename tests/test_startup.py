"""Start-up cost of a run is mostly the modules it imports, so which ones a
command loads is checked, in a fresh interpreter: `import elemdiff` loads no
submodule, a certificate run loads neither the group side nor the tree
evaluator, and no run needs `dataclasses` or `inspect`.  Which modules are
loaded is deterministic, where a timing bound would not be."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, os, sys

def loaded(names):
    return {name: name in sys.modules for name in names}

import elemdiff
out = {"submodules": sorted(m for m in sys.modules if m.startswith("elemdiff."))}
from elemdiff.cli import main
out["dim_code"] = main(["dim", "w", "--dim", "2", "--n", "3", "--out", os.devnull])
out["dim"] = loaded(["dataclasses", "inspect", "elemdiff.groups", "elemdiff.differentials"])
out["char_code"] = main(["char", "table", "--out", os.devnull])
out["char"] = loaded(["dataclasses", "inspect", "elemdiff.groups"])
print(json.dumps(out))
"""


def _probe() -> dict:
    # -S: modules that a site hook imports are not the package's
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-S", "-c", PROBE], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_each_command_imports_only_what_it_runs():
    out = _probe()
    assert out["submodules"] == []
    assert out["dim_code"] == out["char_code"] == 0
    assert out["dim"] == {"dataclasses": False, "inspect": False,
                          "elemdiff.groups": False, "elemdiff.differentials": False}
    assert out["char"] == {"dataclasses": False, "inspect": False, "elemdiff.groups": True}
