"""Command-line front end: every computation behind one `elemdiff` binary.

Artifacts go to stdout (or --out); errors leave as a JSON object on stderr
with a nonzero exit.  All randomness flows from --seed, so equal invocations
emit byte-identical artifacts.

Most of a short run's time is start-up, so the handlers import `groups`
and `differentials` themselves.  The modules imported below stay at the
top: `bench/run.py --trace 1` relies on `import elemdiff.cli` to load the
layers it wraps.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .config import RunConfig
from .errors import ElemdiffError, PreconditionError, SizeLimitError
from .jets import Jet
from .labelling import enumerate_labelled
from .multiindex import MultiIndex, enumerate_multi_indices, project_arities
from .relations import (block_basis, certify_relation, dimension_labelled,
                        dimension_w)
from .trees import Tree, parent_lists


# ---------------------------------------------------------------------------
# emission

def _json_artifact(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _parse_ints(text: str, flag: str) -> list[int]:
    """A comma-separated integer list; anything else is a PreconditionError."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise PreconditionError(f"{flag} must be comma-separated integers, got {text!r}") from None


def _parse_parents(text: str) -> Tree:
    return Tree(_parse_ints(text.strip().strip("[]"), "--tree"))


def _parents_text(parents: tuple) -> str:
    return "[" + ",".join(map(str, parents)) + "]"


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _load_relation(path: str):
    """(d, terms) from a relation file; a malformed file is a PreconditionError."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not (isinstance(raw, dict) and _is_int(raw.get("d"))
            and isinstance(raw.get("terms"), list)):
        raise PreconditionError('relation file must hold {"d": <int>, "terms": [...]}')
    terms = []
    for item in raw["terms"]:
        item = item if isinstance(item, dict) else {}
        tree, labels = item.get("tree"), item.get("labels")
        if not (isinstance(tree, list) and all(_is_int(p) for p in tree) and "coeff" in item
                and (labels is None or isinstance(labels, list)
                     and all(_is_int(x) and x >= 1 for x in labels))):
            raise PreconditionError(
                'each term needs a "coeff", a "tree" parent list and optional '
                'positive integer "labels"')
        try:
            coeff = Fraction(str(item["coeff"]))
        except (ValueError, ZeroDivisionError):
            raise PreconditionError(f"bad coefficient {item['coeff']!r}")
        tree = Tree(tree)
        if labels is not None and (len(labels) != tree.size
                                   or set(labels) != set(range(1, max(labels) + 1))):
            raise PreconditionError("labels must colour each vertex and use colours 1..max")
        terms.append((coeff, tree if labels is None else (tree, tuple(labels))))
    if len({isinstance(row, tuple) for _, row in terms}) > 1:
        raise PreconditionError("either every term carries labels or none does")
    return raw["d"], terms


def _load_jets(path: str) -> list:
    """Jets from an inputs file; a malformed file is a PreconditionError."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, list):
        raise PreconditionError("inputs file must hold a list of jets")
    return [Jet.from_json_dict(item) for item in raw]


# ---------------------------------------------------------------------------
# handlers

def _cmd_trees_enum(args, config):
    lists = list(parent_lists(args.n))   # the output reads no tree's layout
    if args.format == "text":
        return "".join(_parents_text(p) + "\n" for p in lists)
    return _json_artifact({"n": args.n, "count": len(lists),
                           "trees": [list(p) for p in lists]})


# its own function only because bench/tracing.py traces it by this name,
# which tests/test_bench_layers.py checks
def _orbit_representatives(n: int) -> list:
    """Lex-min member of every relabelling orbit: the one-colour labelled orbits."""
    return [obj.tree for obj in enumerate_labelled((n,))]


def _cmd_trees_canon(args, config):
    reps = _orbit_representatives(args.n)
    if args.format == "text":
        return "".join(_parents_text(t.parents) + "\n" for t in reps)
    return _json_artifact({"n": args.n, "orbitCount": len(reps),
                           "representatives": [list(t.parents) for t in reps]})


def _cmd_mi_enum(args, config):
    mis = enumerate_multi_indices(args.n)
    if args.format == "text":
        return "".join(m.text() + "\n" for m in mis)
    return _json_artifact({"n": args.n, "count": len(mis),
                           "multiIndices": [m.to_json_dict() for m in mis]})


def _cmd_mi_project(args, config):
    tree = _parse_parents(args.tree)
    mi = project_arities(tree)
    if args.format == "text":
        return mi.text() + "\n"
    return _json_artifact(mi.to_json_dict())


def _cmd_eval_f(args, config):
    from .differentials import eval_tree
    tree = _parse_parents(args.tree)
    inputs = _load_jets(args.inputs)
    result = eval_tree(tree, inputs, degree=args.degree)
    return _json_artifact(result.to_json_dict())


def _cmd_eval_g(args, config):
    from .differentials import eval_multiindex
    mi = MultiIndex.parse(args.mi)
    inputs = _load_jets(args.inputs)
    result = eval_multiindex(mi, inputs)
    return _json_artifact(result.to_json_dict())


def _cmd_dim_w(args, config):
    if args.labels is not None:
        ks = tuple(_parse_ints(args.labels, "--labels"))
        cert = dimension_labelled(args.dim, args.n, ks, config)
        head = {"kind": "labelled", "labels": list(ks)}
    elif args.linear:
        cert = dimension_w(args.dim, args.n, linear=True, config=config)
        head = {"kind": "linear"}
    else:
        cert = dimension_w(args.dim, args.n, config=config)
        head = {"kind": "all"}
    payload = {"d": args.dim, "n": args.n, **head, **cert.to_json_dict()}
    return _json_artifact(payload)


def _certify_payload(terms, d: int) -> dict:
    """The `holds`, `tuplesChecked` and `witness` fields of one exact check."""
    result = certify_relation(terms, d)
    return {"holds": result.holds, "tuplesChecked": result.tuples_checked,
            "witness": result.witness.to_json_dict() if result.witness else None}


def _cmd_identity_s2d(args, config):
    from .differentials import standard_identity_tree_terms
    if args.dim > 3:
        raise SizeLimitError("the alternating identity is desk scale for d <= 3")
    check_dim = args.check_dim if args.check_dim is not None else args.dim
    terms = standard_identity_tree_terms(args.dim)
    return _json_artifact({"arity": 2 * args.dim + 1, "identityDim": args.dim,
                           "checkDim": check_dim, **_certify_payload(terms, check_dim)})


def _cmd_identity_certify(args, config):
    d, terms = _load_relation(args.relation)
    return _json_artifact({"d": d, **_certify_payload(terms, d)})


def _cmd_char_table(args, config):
    import csv
    import io
    from .groups import character_table, conjugacy_classes
    rows = character_table(args.n)
    labels = [cc.label for cc in conjugacy_classes(args.n)]
    if args.format == "json":
        return _json_artifact({
            "n": args.n,
            "classes": labels,
            "rows": {row.name: list(row.values) for row in rows},
        })
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["class"] + labels)
    for row in rows:
        writer.writerow([row.name] + list(row.values))
    return buf.getvalue()


def _cmd_groups_subgroups(args, config):
    from .groups import subgroup_classes
    subs = subgroup_classes(args.n)
    return _json_artifact({
        "n": args.n,
        "classCount": len(subs),
        "classes": [
            {
                "label": s.label,
                "order": s.order,
                "classSize": s.class_size,
                "fixesPoint": s.fixes_point,
                "generators": [list(g.images) for g in s.generators],
            }
            for s in subs
        ],
    })


def _cmd_groups_scan(args, config):
    from .groups import constraint_scan, tree_fixed_character
    reference = tree_fixed_character(5) if args.control else None
    report = constraint_scan(reference)
    return _json_artifact(report.to_json_dict())


def _cmd_block_basis(args, config):
    cert = block_basis(args.dim, args.n, orbit_code=args.mi_orbit, config=config)
    blocks = [{"arity": [a for (a,) in b.key], **b.to_json_dict(),
               "basis": [list(cert.rows[r][0].parents) for r, _ in b.pivots]}
              for b in sorted(cert.block_bounds, key=lambda b: b.key)]
    return _json_artifact({"d": args.dim, "n": args.n, "orbit": args.mi_orbit,
                           "blocks": blocks, "totalDimension": cert.dimension})


# ---------------------------------------------------------------------------
# parser

class _Parser(argparse.ArgumentParser):
    """Usage errors leave like every other failure: a JSON error, exit 2."""

    def error(self, message):
        raise PreconditionError(message)


# argparse destinations that RunConfig takes; absent flags keep its defaults
_CONFIG_FIELDS = ("seed", "random_bound")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="elemdiff",
        description="Exact combinatorics of elementary differentials.",
    )
    # flags live on the leaf commands that read them, so they trail the subcommand
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--out", default=None, help="write the artifact to a file")
    certifying = _Parser(add_help=False, argument_default=argparse.SUPPRESS)
    certifying.add_argument("--bound", type=int, dest="random_bound",
                            help="coefficient bound for random jets")
    shared = [common]
    sub = parser.add_subparsers(dest="command", required=True)

    trees = sub.add_parser("trees").add_subparsers(dest="sub", required=True)
    t_enum = trees.add_parser("enum", parents=shared)
    t_enum.add_argument("--n", type=int, required=True)
    t_enum.add_argument("--format", choices=["text", "json"], default="text")
    t_enum.set_defaults(handler=_cmd_trees_enum)
    t_canon = trees.add_parser("canon", parents=shared)
    t_canon.add_argument("--n", type=int, required=True)
    t_canon.add_argument("--format", choices=["text", "json"], default="text")
    t_canon.set_defaults(handler=_cmd_trees_canon)

    mi = sub.add_parser("mi").add_subparsers(dest="sub", required=True)
    m_enum = mi.add_parser("enum", parents=shared)
    m_enum.add_argument("--n", type=int, required=True)
    m_enum.add_argument("--format", choices=["text", "json"], default="text")
    m_enum.set_defaults(handler=_cmd_mi_enum)
    m_proj = mi.add_parser("project", parents=shared)
    m_proj.add_argument("--tree", required=True)
    m_proj.add_argument("--format", choices=["text", "json"], default="text")
    m_proj.set_defaults(handler=_cmd_mi_project)

    ev = sub.add_parser("eval").add_subparsers(dest="sub", required=True)
    e_f = ev.add_parser("f", parents=shared)
    e_f.add_argument("--tree", required=True)
    e_f.add_argument("--inputs", required=True)
    e_f.add_argument("--degree", type=int, default=None,
                     help="override the evaluation truncation degree")
    e_f.set_defaults(handler=_cmd_eval_f)
    e_g = ev.add_parser("g", parents=shared)
    e_g.add_argument("--mi", required=True)
    e_g.add_argument("--inputs", required=True)
    e_g.set_defaults(handler=_cmd_eval_g)

    dim = sub.add_parser("dim").add_subparsers(dest="sub", required=True)
    d_w = dim.add_parser("w", parents=[common, certifying])
    d_w.add_argument("--dim", type=int, required=True)
    d_w.add_argument("--n", type=int, required=True)
    span = d_w.add_mutually_exclusive_group()
    span.add_argument("--linear", action="store_true")
    span.add_argument("--labels", default=None, help="k1,k2,... colour multiplicities")
    d_w.set_defaults(handler=_cmd_dim_w)

    ident = sub.add_parser("identity").add_subparsers(dest="sub", required=True)
    i_s = ident.add_parser("s2d", parents=shared)
    i_s.add_argument("--dim", type=int, required=True)
    i_s.add_argument("--check-dim", type=int, default=None)
    i_s.set_defaults(handler=_cmd_identity_s2d)
    i_c = ident.add_parser("certify", parents=shared)
    i_c.add_argument("--relation", required=True)
    i_c.set_defaults(handler=_cmd_identity_certify)

    char = sub.add_parser("char").add_subparsers(dest="sub", required=True)
    c_t = char.add_parser("table", parents=shared)
    c_t.add_argument("--n", type=int, default=5)
    c_t.add_argument("--format", choices=["csv", "json"], default="csv")
    c_t.set_defaults(handler=_cmd_char_table)

    groups = sub.add_parser("groups").add_subparsers(dest="sub", required=True)
    g_s = groups.add_parser("subgroups", parents=shared)
    g_s.add_argument("--n", type=int, default=5)
    g_s.set_defaults(handler=_cmd_groups_subgroups)
    g_c = groups.add_parser("scan", parents=shared)
    g_c.add_argument("--control", action="store_true",
                     help="use the raw tree character as the reference row")
    g_c.set_defaults(handler=_cmd_groups_scan)

    block = sub.add_parser("block").add_subparsers(dest="sub", required=True)
    b_b = block.add_parser("basis", parents=[common, certifying])
    b_b.add_argument("--dim", type=int, required=True)
    b_b.add_argument("--n", type=int, required=True)
    b_b.add_argument("--mi-orbit", required=True)
    b_b.set_defaults(handler=_cmd_block_basis)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = RunConfig(**{k: v for k, v in vars(args).items() if k in _CONFIG_FIELDS})
        artifact = args.handler(args, config)
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(artifact)
        else:
            sys.stdout.write(artifact)
    except (ElemdiffError, ValueError, KeyError, OSError) as exc:
        sys.stderr.write(_json_artifact(
            {"error": {"type": type(exc).__name__, "message": str(exc)}}))
        return 2
    return 0
