"""Tests of the benchmark's own arithmetic and failure accounting.

    python3 -m pytest bench        # from the repository root
"""

import json
from pathlib import Path

import pytest

import run
import tracing
from workloads import WORKLOADS, Op, certificate


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_covered_children():
    # outer [0,10] holds a [1,4] (which holds leaf [2,3]) and b [5,6]
    tracer = tracing.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 6, 10]))
    with tracer.span("outer"):
        with tracer.span("a"):
            with tracer.span("leaf"):
                pass
        with tracer.span("b"):
            pass
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 0]
    assert tracing.self_times(tracer.spans) == {"outer": 6, "a": 2, "leaf": 1, "b": 1}


def _certificate_json(**changes):
    cert = {"status": "certified", "dimension": 64, "relations": []}
    cert.update(changes)
    return json.dumps(cert).encode()


def test_corrupted_artifact_fails():
    op = Op(("dim", "w"), certificate(64, 0))
    assert run.judge(op, 0, _certificate_json()) is None
    assert "dimension 63" in run.judge(op, 0, _certificate_json(dimension=63))
    assert run.judge(op, 0, _certificate_json()[:-5]) == "artifact is not JSON"
    assert run.judge(op, 0, b"\xff\xfe") == "artifact is not UTF-8"


def test_inconclusive_certificate_fails():
    op = Op(("dim", "w"), certificate(64, 0))
    artifact = _certificate_json(status="inconclusive", dimension=None)
    assert "inconclusive" in run.judge(op, 0, artifact)


def test_unverified_relation_and_nonzero_exit_fail():
    op = Op(("dim", "w"), certificate(70, 1))
    unverified = _certificate_json(dimension=70, relations=[{"verified": False}])
    assert "0/1 verified" in run.judge(op, 0, unverified)
    assert run.judge(op, 2, b"", '{"error": {}}').startswith("exit 2")


def test_digest_change_between_passes_fails():
    op = Op(("dim", "w"), certificate(64, 0))
    ledger = run.Ledger()
    ledger.record(op, None, _certificate_json())
    ledger.record(op, None, _certificate_json())
    assert ledger.failures == []
    ledger.record(op, None, _certificate_json(extra=1))
    assert ledger.attempted == 3
    assert ledger.failures == [(op.name, "artifact digest changed between passes")]


def test_traced_pass_records_layers_and_restores_the_package():
    cli, caches = run._import_package()
    import elemdiff.groups as groups
    original = groups.character_table
    op = next(op for op in WORKLOADS["combinatorics"] if op.argv[0] == "char")
    ledger = run.Ledger()
    tracer, times = run.traced_pass([op], 1, cli, caches, ledger)
    assert ledger.failures == []
    assert groups.character_table is original
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "groups.character_table"} <= names
    metrics = tracing.layer_metrics(tracer)
    assert metrics["groups.character_table.self_s"][0] > 0
    assert metrics["relations.eliminate_mod.rows"] == (0, "count")


def test_missing_layer_or_cache_stops_the_traced_pass(monkeypatch):
    run._import_package()
    import elemdiff.groups as groups
    import elemdiff.relations as relations
    with monkeypatch.context() as patch:
        patch.delattr(relations, "eliminate_mod")
        with pytest.raises(run.BenchError, match="eliminate_mod"):
            run._import_package()
    with monkeypatch.context() as patch:
        patch.setattr(groups, "conjugacy_classes", groups.conjugacy_classes.__wrapped__)
        with pytest.raises(run.BenchError, match="conjugacy_classes"):
            run._import_package()


def test_benchmark_json_declares_every_reported_metric():
    declared = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    reported = {name: unit for name, (_, unit) in tracing.layer_metrics(tracing.Tracer()).items()}
    reported["trace.overhead_s"] = "s"
    assert per_layer == reported
    assert {m["name"] for m in declared["end_to_end"]} == {"wall_s", "cpu_s", "peak_rss_mb", "setup_s"}
    assert {w["name"] for w in declared["workloads"]} == set(WORKLOADS)
