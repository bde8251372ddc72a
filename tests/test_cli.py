import contextlib
import hashlib
import io
import json
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from elemdiff.cli import main
from elemdiff.config import RunConfig
from elemdiff.multiindex import enumerate_multi_indices
from elemdiff.relations import MAX_ROW_VERTICES, block_basis
from elemdiff.trees import enumerate_trees


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_trees_enum_smallest(capsys):
    code, out, err = run_cli(capsys, "trees", "enum", "--n", "1")
    assert code == 0
    assert out == "[0]\n"
    assert err == ""


def test_trees_enum_counts_and_json(capsys):
    code, out, _ = run_cli(capsys, "trees", "enum", "--n", "3")
    assert code == 0
    assert len(out.splitlines()) == 9
    code, out, _ = run_cli(capsys, "trees", "enum", "--n", "3", "--format", "json")
    payload = json.loads(out)
    assert payload["count"] == 9
    assert len(payload["trees"]) == 9


def test_trees_canon(capsys):
    code, out, _ = run_cli(capsys, "trees", "canon", "--n", "3")
    assert code == 0
    assert len(out.splitlines()) == 2
    # every command takes --seed, even one without randomness
    assert run_cli(capsys, "trees", "canon", "--n", "3", "--seed", "1")[1] == out
    code, out, _ = run_cli(capsys, "trees", "canon", "--n", "5", "--format", "json")
    assert json.loads(out)["orbitCount"] == 9
    # unlabelled rooted trees, OEIS A000081
    for n, count in zip(range(1, 9), (1, 1, 2, 4, 9, 20, 48, 115)):
        code, out, _ = run_cli(capsys, "trees", "canon", "--n", str(n), "--format", "json")
        assert code == 0
        assert json.loads(out)["orbitCount"] == count
    code, _, err = run_cli(capsys, "trees", "canon", "--n", "9")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "SizeLimitError"


def test_mi_enum_and_project(capsys):
    code, out, _ = run_cli(capsys, "mi", "enum", "--n", "3")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    assert all(line.startswith("z[") for line in lines)
    code, out, _ = run_cli(capsys, "mi", "project", "--tree", "[0,1,1]")
    assert out == "z[(1,2)(2,0)(3,0)]\n"
    code, out, _ = run_cli(capsys, "mi", "enum", "--n", "3", "--format", "json")
    payload = json.loads(out)
    assert payload["count"] == 6
    assert payload["multiIndices"][0] == {"n": 3, "arity": [0, 0, 2]}
    code, out, _ = run_cli(capsys, "mi", "project", "--tree", "[0,1,1]", "--format", "json")
    assert json.loads(out) == {"n": 3, "arity": [2, 0, 0]}


def test_eval_roundtrip(capsys, tmp_path):
    from oracles import random_jet
    import random
    rng = random.Random(5)
    jets = [random_jet(rng, 2, 3, 2) for _ in range(2)]
    path = tmp_path / "inputs.json"
    path.write_text(json.dumps([j.to_json_dict() for j in jets]))
    code, out, _ = run_cli(capsys, "eval", "f", "--tree", "[0,1]",
                           "--inputs", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["d"] == 2
    # one derivative below the root: degree 3 leaves 2, --degree 1 leaves 0
    assert payload["D"] == 2
    code, out, _ = run_cli(capsys, "eval", "f", "--tree", "[0,1]",
                           "--inputs", str(path), "--degree", "1")
    assert code == 0
    assert json.loads(out)["D"] == 0


def test_eval_refuses_a_vertex_past_the_product_bound(capsys, tmp_path):
    # a star's root with 14 children forms 2 ** 14 > 4,096 products; unguarded,
    # that evaluation takes seconds, and each further child doubles it
    from oracles import random_jet
    import random
    rng = random.Random(5)
    path = tmp_path / "inputs.json"
    path.write_text(json.dumps([random_jet(rng, 2, 3, 2).to_json_dict() for _ in range(15)]))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "eval", "f", "--tree", str([0] + [1] * 14),
                             "--inputs", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "SizeLimitError"


def test_eval_g_scalar_only(capsys, tmp_path):
    from oracles import random_jet
    import random
    rng = random.Random(6)
    jets = [random_jet(rng, 1, 3, 2) for _ in range(3)]
    path = tmp_path / "inputs.json"
    path.write_text(json.dumps([j.to_json_dict() for j in jets]))
    code, out, _ = run_cli(capsys, "eval", "g", "--mi", "z[(1,2)(2,0)(3,0)]",
                           "--inputs", str(path))
    assert code == 0
    assert json.loads(out)["d"] == 1
    # the bare comma form names the same multi-index
    assert run_cli(capsys, "eval", "g", "--mi", "2,0,0", "--inputs", str(path))[1] == out


# fixed jets files with fractional coefficients, and the sha256 of what
# `eval f` and `eval g` print for them
EVAL_F_JETS = [
    {"d": 2, "D": 3, "components": [{"0,0": "1", "1,0": "-2", "0,1": "1/2", "2,1": "3"},
                                    {"0,0": "-1", "1,1": "2", "0,2": "5/3"}]},
    {"d": 2, "D": 3, "components": [{"0,0": "2", "0,1": "-1", "2,0": "1/4"},
                                    {"1,0": "3", "1,2": "-2"}]},
    {"d": 2, "D": 3, "components": [{"0,0": "-3", "1,0": "1", "1,1": "2/5"},
                                    {"0,0": "1", "0,1": "4", "3,0": "-1"}]},
]
EVAL_G_JETS = [
    {"d": 1, "D": 4, "components": [{"0": "1", "1": "-2", "2": "1/3", "4": "5"}]},
    {"d": 1, "D": 4, "components": [{"0": "-1", "2": "2", "3": "7/2"}]},
    {"d": 1, "D": 4, "components": [{"0": "4", "1": "1", "3": "-1/5"}]},
]
EVAL_PINNED = (
    (EVAL_F_JETS, ("f", "--tree", "[0,1,1]"),
     "a6fc1b51a42fde6d9b900470c2d669a6019ebadc4652537ee6a80cd686bac377"),
    (EVAL_F_JETS, ("f", "--tree", "[0,1,2]", "--degree", "2"),
     "c59260fb6de880399a4c127650183b3a0798afe7139e8f0e1eb383b3bfc71e7e"),
    (EVAL_G_JETS, ("g", "--mi", "2,0,0"),
     "7434b4d014cc6fcd7647d1abfdb1bfcb1114d6c55521defbba19ac7749a9a524"),
)


@pytest.mark.parametrize("jets,argv,digest", EVAL_PINNED,
                         ids=[" ".join(argv) for _, argv, _ in EVAL_PINNED])
def test_eval_artifact_digest_is_pinned(capsys, tmp_path, jets, argv, digest):
    path = tmp_path / "inputs.json"
    path.write_text(json.dumps(jets))
    code, out, _ = run_cli(capsys, "eval", *argv, "--inputs", str(path), "--seed", "1")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("jet", [
    5,
    {"d": "x", "D": 2, "components": [{"1": "2"}]},
    {"d": 1, "D": "x", "components": [{"1": "2"}]},
    {"d": 1, "D": 2, "components": 5},
    {"d": 1, "D": 2, "components": [[1]]},
    {"d": 1, "D": 2, "components": [{"1": [1]}]},
    {"d": 1, "D": 2, "components": [{"1": None}]},
    {"d": 1, "D": 2, "components": [{"1": "1/0"}]},
    {"d": True, "D": 2, "components": [{"1": "2"}]},
    {"d": 1, "D": 2, "components": [{"a": "1"}]},
])
def test_eval_bad_inputs_file_is_a_json_error(capsys, tmp_path, jet):
    path = tmp_path / "inputs.json"
    path.write_text(json.dumps([jet]))
    code, out, err = run_cli(capsys, "eval", "g", "--mi", "z[(1,0)]", "--inputs", str(path))
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "PreconditionError"


def test_dim_w_json(capsys):
    code, out, _ = run_cli(capsys, "dim", "w", "--dim", "2", "--n", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 9
    assert payload["certified"] is True
    assert payload["kind"] == "all"
    assert payload["seed"] == 12345


def test_dim_w_linear_and_labelled(capsys):
    code, out, _ = run_cli(capsys, "dim", "w", "--dim", "2", "--n", "3", "--linear")
    assert json.loads(out)["kind"] == "linear"
    code, out, _ = run_cli(capsys, "dim", "w", "--dim", "2", "--n", "3",
                           "--labels", "3")
    payload = json.loads(out)
    assert payload["kind"] == "labelled"
    assert payload["dimension"] == 2


def test_dim_w_guard_error(capsys):
    # n <= 5 for every d; 6 ** 5 and 9 ** 4 component assignments exceed 8 ** 4
    for dim, n in (("2", "6"), ("6", "5"), ("9", "4")):
        code, out, err = run_cli(capsys, "dim", "w", "--dim", dim, "--n", n)
        assert code == 2
        assert out == ""
        obj = json.loads(err)
        assert obj["error"]["type"] == "SizeLimitError"


def test_dim_w_d3_n5_is_the_tree_count(capsys):
    # at d = 3 every one of the 5 ** 4 five-vertex trees is independent
    code, out, _ = run_cli(capsys, "dim", "w", "--dim", "3", "--n", "5")
    assert code == 0
    payload = json.loads(out)
    assert (payload["status"], payload["dimension"]) == ("certified", 625)
    assert payload["relations"] == []


def test_identity_s2d(capsys):
    code, out, _ = run_cli(capsys, "identity", "s2d", "--dim", "1")
    payload = json.loads(out)
    assert payload["arity"] == 3
    assert payload["holds"] is True
    assert payload["witness"] is None
    code, out, _ = run_cli(capsys, "identity", "s2d", "--dim", "1",
                           "--check-dim", "2")
    payload = json.loads(out)
    assert payload["holds"] is False
    assert payload["tuplesChecked"] == 92
    witness = payload["witness"]
    assert [(tuple(s["exponent"]), s["component"]) for s in witness["inputs"]] == [
        ((0, 1), 1), ((0, 1), 2), ((0, 0), 2)]
    assert witness["outputComponent"] == 1
    assert witness["value"] == "1"
    code, out, _ = run_cli(capsys, "identity", "s2d", "--dim", "1",
                           "--check-dim", "3")
    payload = json.loads(out)
    assert payload["holds"] is False
    assert payload["tuplesChecked"] == 603


def test_threads_flag_is_gone(capsys):
    code, out, err = run_cli(capsys, "identity", "s2d", "--dim", "2", "--threads", "2")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "PreconditionError"


@pytest.mark.parametrize("argv", [
    ("dim", "w", "--dim", "2", "--n", "x"),                  # bad int
    ("trees", "canon", "--n", "3", "--no-such-flag"),        # unknown flag
    ("trees", "canon", "--n", "3", "--prime", "5"),          # flag the command does not read
    ("trees", "canon", "--n", "3", "--degree", "99"),
    ("identity", "s2d", "--dim", "1", "--prime", str((1 << 61) - 1)),
    ("identity", "s2d", "--dim", "1", "--bound", "100", "--column-budget", "1"),
    ("mi", "enum", "--n", "3", "--format", "yaml"),          # bad choice
    ("trees", "canon"),                                      # missing required flag
    ("block",),                                              # missing subcommand
    ("identity", "certify", "--relation", "rel.json", "--exhaustive"),  # deleted flag
    ("dim", "w", "--dim", "1", "--n", "3", "--prime", "5"),
    ("dim", "w", "--dim", "1", "--n", "3", "--column-budget", "10"),
    ("dim", "w", "--dim", "1", "--n", "3", "--format", "json"),  # one format only
    ("dim", "w", "--dim", "1", "--n", "3", "--linear", "--labels", "3"),  # two spans
    ("eval", "f", "--tree", "[0,1]", "--inputs", "in.json", "--dim", "2"),  # deleted flag
    ("mi", "project", "--tree", "[0,a]"),                    # non-integer parent
    ("dim", "w", "--dim", "1", "--n", "3", "--labels", "a,1"),  # non-integer label
    ("dim", "w", "--dim", "1", "--n", "3", "--seed", "-1"),  # RunConfig guards
    ("dim", "w", "--dim", "1", "--n", "3", "--bound", "0"),
])
def test_argv_errors_are_json_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert set(error) == {"type", "message"}
    assert error["type"] == "PreconditionError"


def test_failed_lift_is_a_null_dimension(capsys, monkeypatch):
    from elemdiff import relations
    real = relations.rational_reconstruct
    monkeypatch.setattr(relations, "rational_reconstruct",
                        lambda a, p: real(a, p) if a % p in (0, 1) else None)
    code, out, _ = run_cli(capsys, "dim", "w", "--dim", "1", "--n", "4")
    assert code == 0
    assert json.loads(out)["dimension"] is None


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dim", "w", "--help"])
    assert exc.value.code == 0
    assert "--bound" in capsys.readouterr().out


def test_identity_s2d_guard(capsys):
    code, _, err = run_cli(capsys, "identity", "s2d", "--dim", "4")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "SizeLimitError"


def test_identity_s2d_dim_3_checks_in_one_and_four_variables(capsys):
    # arity 7: at d = 1 the layer spreads degree 6 over 7 inputs, C(12, 6) = 924
    # ways; 4 ** 7 = 16,384 component assignments exceed 4,096
    code, out, _ = run_cli(capsys, "identity", "s2d", "--dim", "3", "--check-dim", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["holds"] is True
    assert payload["tuplesChecked"] == 924
    code, out, err = run_cli(capsys, "identity", "s2d", "--dim", "3", "--check-dim", "4")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "SizeLimitError"


def test_identity_s2d_check_dim_follows_the_assignment_bound(capsys):
    # the check dimension has no bound of its own: 4 ** 5 assignments are
    # checked, 6 ** 5 = 7,776 exceed 4,096
    code, out, _ = run_cli(capsys, "identity", "s2d", "--dim", "2", "--check-dim", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["holds"] is False
    assert payload["witness"] is not None
    code, out, err = run_cli(capsys, "identity", "s2d", "--dim", "2", "--check-dim", "6")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "SizeLimitError"


def test_identity_certify_file(capsys, tmp_path):
    rel = {
        "d": 1,
        "terms": [
            {"coeff": "1", "tree": [0, 1, 2]},
            {"coeff": "-1", "tree": [2, 0, 1]},
        ],
    }
    path = tmp_path / "rel.json"
    path.write_text(json.dumps(rel))
    code, out, _ = run_cli(capsys, "identity", "certify", "--relation", str(path))
    assert code == 0
    assert json.loads(out)["holds"] is True


def test_identity_certify_repeated_colour(capsys, tmp_path):
    # the chain fed one input thrice is f'(0)^2 f(0), not the zero map
    rel = {"d": 1, "terms": [{"coeff": "1", "tree": [0, 1, 2], "labels": [1, 1, 1]}]}
    path = tmp_path / "rel.json"
    path.write_text(json.dumps(rel))
    code, out, _ = run_cli(capsys, "identity", "certify", "--relation", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["holds"] is False
    assert [(s["exponent"], s["component"]) for s in payload["witness"]["inputs"]] == [
        ([0], 1), ([1], 1), ([1], 1)]
    assert payload["witness"]["value"] == "1"


def test_identity_certify_guard(capsys, tmp_path):
    wide = {"d": 40, "terms": [{"coeff": "1", "tree": [0, 1, 1]},
                               {"coeff": "-1", "tree": [0, 1, 2]}]}
    # one vertex over the bound at d = 1, refused before any polynomial work
    long = {"d": 1, "terms": [{"coeff": "1", "tree": list(range(MAX_ROW_VERTICES + 1))}]}
    for rel in (wide, long):
        path = tmp_path / "rel.json"
        path.write_text(json.dumps(rel))
        code, out, err = run_cli(capsys, "identity", "certify", "--relation", str(path))
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["type"] == "SizeLimitError"


@pytest.mark.parametrize("argv", [
    ("--seed", "0"), ("--seed", "3"), ("--bound", "1", "--seed", "0"),
])
def test_dim_w_repeated_colour_never_certifies_a_wrong_value(capsys, argv):
    # f'(0)^2 f(0) and f''(0) f(0)^2 are independent: the span has dimension 2
    code, out, _ = run_cli(capsys, "dim", "w", "--dim", "1", "--n", "3",
                           "--labels", "3", *argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "inconclusive" or payload["dimension"] == 2


def test_dim_w_empty_labels_is_a_json_error(capsys):
    # an empty profile is malformed, not an absent --labels
    code, out, err = run_cli(capsys, "dim", "w", "--dim", "1", "--n", "3", "--labels=")
    assert code == 2
    assert out == ""
    assert set(json.loads(err)["error"]) == {"type", "message"}


@pytest.mark.parametrize("argv,error", [
    (("dim", "w", "--dim", "1", "--n", "4", "--labels", "2,1"),
     {"type": "MismatchError", "message": "colour counts must sum to the vertex count"}),
    (("block", "basis", "--dim", "1", "--n", "4", "--mi-orbit", "2,1,0"),
     {"type": "PreconditionError", "message": "no multi-index matches orbit '2,1,0'"}),
    (("dim", "w", "--dim", "1", "--n", "3", "--labels", "2,-1,2"),  # sums to n
     {"type": "PreconditionError", "message": "colour counts must be nonnegative"}),
])
def test_span_precondition_errors(capsys, argv, error):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == error


def test_dim_zero_is_a_json_error(capsys):
    code, out, err = run_cli(capsys, "dim", "w", "--dim", "0", "--n", "3")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "PreconditionError"


@pytest.mark.parametrize("relation", [
    {"d": 0, "terms": [{"coeff": "1", "tree": [0, 1, 2]},
                       {"coeff": "-1", "tree": [2, 0, 1]}]},
    {"terms": 5},
    {"d": 1, "terms": [{"coeff": "1", "tree": [0, 1], "labels": [1, 5]}]},
])
def test_identity_certify_bad_file_is_a_json_error(capsys, tmp_path, relation):
    path = tmp_path / "rel.json"
    path.write_text(json.dumps(relation))
    code, out, err = run_cli(capsys, "identity", "certify", "--relation", str(path))
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "PreconditionError"


def test_char_table_csv_bytes(capsys):
    code, out, _ = run_cli(capsys, "char", "table")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "class,id,(12),(123),(12)(34),(1234),(12)(345),(12345)"
    assert len(lines) == 4
    values = [line.split(",", 1)[1] for line in lines[1:]]
    assert values[0] == "625,27,4,5,1,0,0"
    assert values[1] == "5,-3,2,1,-1,0,0"
    assert values[2] == "620,30,2,4,2,0,0"


def test_groups_subgroups(capsys):
    code, out, _ = run_cli(capsys, "groups", "subgroups")
    payload = json.loads(out)
    assert payload["classCount"] == 19
    orders = [c["order"] for c in payload["classes"]]
    assert orders == sorted(orders)


@pytest.mark.parametrize("n", ["0", "-1"])
def test_groups_subgroups_needs_a_point(capsys, n):
    code, out, err = run_cli(capsys, "groups", "subgroups", "--n", n)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == {"type": "PreconditionError",
                                        "message": "need n >= 1"}


def test_groups_scan_and_control(capsys):
    code, out, _ = run_cli(capsys, "groups", "scan")
    payload = json.loads(out)
    assert payload["survivorCount"] == 2
    labels = {s["label"] for s in payload["survivors"]}
    assert labels == {"order4c", "order24a"}
    code, out, _ = run_cli(capsys, "groups", "scan", "--control")
    payload = json.loads(out)
    assert {s["label"] for s in payload["survivors"]} == {"order24a"}


def test_block_basis(capsys):
    code, out, _ = run_cli(capsys, "block", "basis", "--dim", "1", "--n", "3",
                           "--mi-orbit", "1,1,0")
    payload = json.loads(out)
    assert payload["totalDimension"] == len(payload["blocks"])
    for b in payload["blocks"]:
        assert b["status"] == "certified"
        assert b["dimension"] == b["lower"] == b["upper"] == len(b["basis"]) == 1


def test_block_basis_inconclusive_block_nulls_the_total(capsys, monkeypatch):
    from elemdiff import relations
    real = relations._certify_block

    def inconclusive(*args):
        record = real(*args)
        return relations.BlockCertificate(record.key, record.lower, record.lower + 1,
                                          record.pivots, record.relations)

    monkeypatch.setattr(relations, "_certify_block", inconclusive)
    code, out, _ = run_cli(capsys, "block", "basis", "--dim", "1", "--n", "3",
                           "--mi-orbit", "1,1,0")
    assert code == 0
    payload = json.loads(out)
    assert payload["totalDimension"] is None
    for b in payload["blocks"]:
        assert b["status"] == "inconclusive"
        assert b["dimension"] is None
        assert (b["lower"], b["upper"]) == (1, 2)
        assert len(b["basis"]) == 1


def test_dim_w_inconclusive_block_makes_an_inconclusive_artifact(capsys, monkeypatch):
    from elemdiff import relations
    real = relations._certify_block
    records = []

    def one_block_apart(*args):
        record = real(*args)
        if not records:
            record = relations.BlockCertificate(record.key, record.lower, record.upper + 1,
                                                record.pivots, record.relations)
        records.append(record)
        return record

    monkeypatch.setattr(relations, "_certify_block", one_block_apart)
    code, out, _ = run_cli(capsys, "dim", "w", "--dim", "1", "--n", "4")
    assert code == 0
    payload = json.loads(out)
    assert len(records) == payload["blocks"] > 1
    assert payload["status"] == "inconclusive"
    assert payload["dimension"] is None
    assert payload["certified"] is False
    assert payload["rank"] == payload["lower"] == sum(r.lower for r in records)
    assert payload["upper"] == sum(r.upper for r in records) == payload["lower"] + 1


def test_artifacts_are_byte_identical(capsys):
    runs = []
    for _ in range(2):
        _, out, _ = run_cli(capsys, "dim", "w", "--dim", "2", "--n", "4",
                            "--seed", "777")
        runs.append(out)
    assert runs[0] == runs[1]
    _, other, _ = run_cli(capsys, "dim", "w", "--dim", "2", "--n", "4",
                          "--seed", "778")
    assert other != runs[0]


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "artifact.json"
    code, out, _ = run_cli(capsys, "char", "table", "--format", "json",
                           "--out", str(target))
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["rows"]["tree_fixed_points"][0] == 625


def test_out_flag_unwritable_path_is_a_json_error(capsys, tmp_path):
    target = tmp_path / "missing" / "artifact.txt"
    code, out, err = run_cli(capsys, "trees", "enum", "--n", "3", "--out", str(target))
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "FileNotFoundError"
    assert not target.exists()


@pytest.mark.parametrize("argv", [
    ("dim", "w", "--dim", "2", "--n", "4", "--seed", "1"),
    ("block", "basis", "--dim", "2", "--n", "4", "--mi-orbit", "1,1,1,0", "--seed", "1"),
])
def test_certificates_need_no_numpy(capsys, argv):
    # an entry of None in sys.modules makes `import numpy` raise ImportError
    script = ("import sys; sys.modules['numpy'] = None\n"
              "from elemdiff.cli import main\n"
              f"sys.exit(main({list(argv)!r}))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert proc.stdout == out


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "elemdiff", "trees", "enum", "--n", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "[0,1]\n[2,0]\n"


# leaves and containers of arbitrary JSON, with lists of at most six entries
_json = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10**6) | st.floats()
    | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=6)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=6)),
    max_leaves=12)
_small_ints = st.lists(st.integers(-1, 6), max_size=6)
_trees = {n: [list(t.parents) for t in enumerate_trees(n)] for n in range(1, 5)}


def _terms(n, labelled):
    labels = {"labels": st.lists(st.integers(1, 3), min_size=n, max_size=n)}
    return st.lists(st.fixed_dictionaries(
        {"coeff": st.sampled_from(["1", "-1", "3/2", "-2"]),
         "tree": st.sampled_from(_trees[n]), **(labels if labelled else {})}),
        min_size=1, max_size=4)


# well-formed relation files, and files with any field replaced by noise
_wellformed = st.tuples(st.integers(1, 4), st.booleans()).flatmap(
    lambda shape: st.fixed_dictionaries(
        {"d": st.integers(1, 3), "terms": _terms(*shape)}))
_noisy = st.fixed_dictionaries(
    {"d": st.integers(-1, 50) | _json,
     "terms": st.lists(st.fixed_dictionaries(
         {"coeff": st.sampled_from(["1", "1/0", "x", "1e2"]) | _json,
          "tree": st.sampled_from(_trees[3]) | _small_ints | _json},
         optional={"labels": _small_ints | _json}), max_size=6) | _json})


@settings(derandomize=True, deadline=2000, max_examples=300)
@given(st.one_of(_noisy, _wellformed, _json))
def test_identity_certify_fuzz(tmp_path_factory, relation):
    path = tmp_path_factory.mktemp("fuzz") / "rel.json"
    path.write_text(json.dumps(relation))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["identity", "certify", "--relation", str(path)])
    if code == 0:
        assert err.getvalue() == ""
        assert json.loads(out.getvalue())["holds"] in (True, False)
    else:
        assert code == 2
        assert out.getvalue() == ""
        assert set(json.loads(err.getvalue())["error"]) == {"type", "message"}


def test_block_basis_lists_blocks_in_multi_index_order(capsys):
    for n in range(1, 6):
        mis = enumerate_multi_indices(n)
        for code in sorted({mi.orbit_code() for mi in mis}):
            _, out, _ = run_cli(capsys, "block", "basis", "--dim", "1", "--n", str(n),
                                "--mi-orbit", code)
            payload = json.loads(out)
            assert [b["arity"] for b in payload["blocks"]] == [
                list(mi.arities) for mi in mis if mi.orbit_code() == code]
            assert payload["totalDimension"] == block_basis(
                1, n, orbit_code=code, config=RunConfig()).dimension
