"""Closed-loop benchmark of the `elemdiff` command line.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout; the package is imported from `src/`
there.  One client drives the load at concurrency 1: each operation of a
workload runs in a fresh interpreter with default flags plus `--seed`, and
the next starts when it has ended.  Passes over the workload repeat until
`--seconds` would be exceeded (at least one pass runs); each operation's
figure is its median over passes.  Every artifact is checked by its oracle and by its sha256, which
must not change between passes.

With `--trace 1` the run makes one untraced pass, then repeats a traced pass
in this process within the same time: `elemdiff.cli.main` is called directly, public functions of
the layers are wrapped (see tracing.py), and the per-layer metrics are
reported instead of the end-to-end ones.  Spans are written to
`.bench_out/` when the run ends.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  A run that cannot start the package
exits 1 without printing it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from tracing import TRACED, Tracer, instrument, layer_metrics
from workloads import WORKLOADS, Op

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 9
SETUP_PROBE = "import elemdiff.cli"
COLD_CACHES = ("subgroup_classes", "conjugacy_classes")   # lru_caches in elemdiff.groups
ENV_PROBE = (
    "import json, os, platform, numpy, elemdiff\n"
    "from elemdiff.config import RunConfig\n"
    "print(json.dumps({'python': platform.python_version(),"
    " 'numpy': numpy.__version__, 'cpu_count': os.cpu_count(),"
    " 'threads': RunConfig().resolved_threads(), 'package': elemdiff.__file__}))\n"
)


class BenchError(Exception):
    """The benchmark cannot run here; it exits 1 without a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("ELEMDIFF_THREADS", None)   # children resolve their default threads
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Child:
    returncode: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def spawn(args: list, env: dict) -> Child:
    """Run one interpreter to completion; rusage comes from wait4."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=ROOT)
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
    finally:
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    return Child(proc.returncode, out, err[0] if err else b"", wall,
                 usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def op_argv(op: Op, seed: int) -> list:
    return [*op.argv, "--seed", str(seed)]


def judge(op: Op, returncode: int, artifact: bytes, stderr: str = "") -> str | None:
    """None when the operation succeeded, else why it failed.  An oracle
    also rejects an `inconclusive` certificate."""
    if returncode != 0:
        return f"exit {returncode}: {stderr.strip()[:200]}"
    try:
        text = artifact.decode("utf-8")
    except UnicodeDecodeError:
        return "artifact is not UTF-8"
    return op.check(text)


@dataclass
class Ledger:
    """Attempts, failures and per-operation digests of one run."""
    attempted: int = 0
    failures: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)

    def record(self, op: Op, reason: str | None, artifact: bytes):
        self.attempted += 1
        digest = hashlib.sha256(artifact).hexdigest()
        first = self.digests.setdefault(op.name, digest)
        if reason is None and digest != first:
            reason = "artifact digest changed between passes"
        if reason is not None:
            self.failures.append((op.name, reason))


def measure_setup(env: dict) -> float:
    samples = []
    for _ in range(SETUP_SAMPLES):
        child = spawn(["-c", SETUP_PROBE], env)
        if child.returncode != 0:
            raise BenchError("cannot import elemdiff.cli from src/: "
                             + child.stderr.decode(errors="replace").strip()[-300:])
        samples.append(child.wall_s)
    return statistics.median(samples)


def environment(env: dict) -> dict:
    child = spawn(["-c", ENV_PROBE], env)
    if child.returncode != 0:
        raise BenchError("environment probe failed: "
                         + child.stderr.decode(errors="replace").strip()[-300:])
    info = json.loads(child.stdout)
    if not Path(info.pop("package")).resolve().is_relative_to(SRC.resolve()):
        raise BenchError("elemdiff was not imported from this checkout's src/")
    return info


def untraced_pass(ops, seed: int, env: dict, ledger: Ledger) -> dict:
    """Per metric, operation name -> that operation's figure."""
    out = {"wall_s": {}, "cpu_s": {}, "peak_rss_mb": {}}
    for op in ops:
        child = spawn(["-m", "elemdiff", *op_argv(op, seed)], env)
        ledger.record(op, judge(op, child.returncode, child.stdout,
                                child.stderr.decode(errors="replace")), child.stdout)
        for key in out:
            out[key][op.name] = getattr(child, key)
    return out


def repeat_within(seconds: float, start: float, one_pass) -> list:
    """At least one pass; another only if one as long as the last still ends
    within `seconds` of `start`, so a run never overshoots by a whole pass."""
    passes = []
    while True:
        began = time.perf_counter()
        passes.append(one_pass())
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return passes


def run_untraced(ops, seed, seconds, env, ledger):
    start = time.perf_counter()
    setup = measure_setup(env)
    passes = repeat_within(seconds, start, lambda: untraced_pass(ops, seed, env, ledger))
    # per-operation medians over passes, so one slow operation moves its own term only
    median = {key: {name: statistics.median(p[key][name] for p in passes) for name in passes[0][key]}
              for key in ("wall_s", "cpu_s", "peak_rss_mb")}
    metrics = {"wall_s": (sum(median["wall_s"].values()), "s"),
               "cpu_s": (sum(median["cpu_s"].values()), "s"),
               "peak_rss_mb": (max(median["peak_rss_mb"].values()), "MB"),
               "setup_s": (setup, "s")}
    return metrics, len(passes)


def _import_package():
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (imported once here, not inside the first traced op)
    import elemdiff.cli
    import elemdiff.groups
    if not Path(elemdiff.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError("elemdiff was not imported from this checkout's src/")
    # a renamed layer must fail the traced pass, not read 0 and look like a gain
    for qualified in TRACED:
        module_name, attr = qualified.rsplit(".", 1)
        if not hasattr(sys.modules.get(f"elemdiff.{module_name}"), attr):
            raise BenchError(f"elemdiff.{qualified} is missing; update tracing.TRACED")
    # a CLI user pays for these caches on every run, so each op starts cold
    caches = []
    for name in COLD_CACHES:
        clear = getattr(getattr(elemdiff.groups, name, None), "cache_clear", None)
        if clear is None:
            raise BenchError(f"elemdiff.groups.{name} is no longer an lru_cache; "
                             "update run.COLD_CACHES")
        caches.append(clear)
    return elemdiff.cli, caches


def traced_pass(ops, seed, cli, caches, ledger) -> tuple:
    """One in-process pass under a fresh tracer; returns (tracer, op times)."""
    tracer = Tracer()
    restore = instrument(tracer)
    op_times = {}
    artifact_bytes = 0
    try:
        for op_id, op in enumerate(ops):
            for clear in caches:
                clear()
            tracer.op = op_id
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                with tracer.span("cli.main") as span:
                    try:
                        code = cli.main(op_argv(op, seed))
                    except SystemExit as exc:       # argparse rejected the argv
                        code = exc.code if isinstance(exc.code, int) else 1
                    except Exception:               # a crash fails this operation only
                        code = 1
                        traceback.print_exc()
            artifact = out.getvalue().encode("utf-8")
            artifact_bytes += len(artifact)
            ledger.record(op, judge(op, code, artifact, err.getvalue()), artifact)
            op_times[op.name] = span.end - span.start
    finally:
        restore()
    tracer.counters["cli.artifact_bytes"] = artifact_bytes
    return tracer, op_times


def run_traced(ops, seed, seconds, env, ledger, workload):
    os.environ.pop("ELEMDIFF_THREADS", None)
    start = time.perf_counter()
    setup = measure_setup(env)
    baseline = untraced_pass(ops, seed, env, ledger)
    cli, caches = _import_package()
    passes = repeat_within(seconds, start, lambda: traced_pass(ops, seed, cli, caches, ledger))
    overhead = {name: statistics.median(t[name] for _, t in passes)
                - (baseline["wall_s"][name] - setup) for name in baseline["wall_s"]}
    rows = [layer_metrics(tracer) for tracer, _ in passes]
    metrics = {name: (statistics.median(r[name][0] for r in rows), unit)
               for name, (_, unit) in rows[0].items()}
    metrics["trace.overhead_s"] = (sum(overhead.values()), "s")
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"trace-{workload}-seed{seed}.json").write_text(json.dumps(
        {"workload": workload, "seed": seed, "setup_s": setup,
         "untraced_op_s": baseline["wall_s"], "overhead_s": overhead,
         "passes": [tracer.to_json() for tracer, _ in passes]}))
    for name, value in overhead.items():
        print(f"  overhead  {value:+.4f} s  {name}")
    return metrics, len(passes)


def run_workload(workload: str, seed: int, seconds: float, trace: bool, env: dict) -> tuple:
    ops = WORKLOADS[workload]
    ledger = Ledger()
    if trace:
        metrics, passes = run_traced(ops, seed, seconds, env, ledger, workload)
    else:
        metrics, passes = run_untraced(ops, seed, seconds, env, ledger)
    failed = len(ledger.failures)
    print(f"workload {workload}  seed {seed}  trace {int(trace)}  "
          f"{passes} passes x {len(ops)} operations")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<46} {value:>14.6g} {unit}")
    if not trace:
        print(f"  {'failed_share':<46} {failed / ledger.attempted:>14.6g} ratio"
              f"  ({failed}/{ledger.attempted})")
    for name, digest in ledger.digests.items():
        print(f"  sha256 {digest}  {name}")
    for name, reason in ledger.failures:
        print(f"  FAILED {name}: {reason}")
    return metrics, ledger


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    env = child_env()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        print("environment " + json.dumps(environment(env), sort_keys=True))
        results = [(name, *run_workload(name, args.seed, args.seconds, bool(args.trace), env))
                   for name in names]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    attempted = sum(ledger.attempted for _, _, ledger in results)
    failed = sum(len(ledger.failures) for _, _, ledger in results)
    prefix = len(results) > 1
    metrics = {(f"{name}.{key}" if prefix else key): {"value": value, "unit": unit}
               for name, m, _ in results for key, (value, unit) in m.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
