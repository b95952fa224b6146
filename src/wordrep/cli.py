"""Command-line surface.

Vertex labels are 1-based at the CLI boundary (words and human-facing text)
and 0-based in graph JSON files; words are digit strings like ``14213243``
or comma-separated like ``1,4,2,1,3,2,4,3``.

Exit codes: 0 success/pass, 1 verification violation, 2 usage or parse
error, 3 inconclusive (a search or enumeration budget was exceeded).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections import Counter
from typing import Optional

from .boards import parse_board, enumerate_triangulations
from .catalog import ClosurePolicy, closure_report, forbidden_set, minimal_graphs
from .dot import embedded_to_dot, graph_to_dot
from .errors import BudgetExceededError
from .graphs import Graph, chromatic_number, is_k_colourable
from .orientations import certify, route_of
from .verify import sweep, verify_theorem, write_report
from .words import format_word, graph_of_word, parse_word, represents

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3


def _load_graph(path: str) -> Graph:
    with open(path, encoding="utf-8") as f:
        obj = json.load(f)
    try:  # a malformed file is a usage error, not a crash
        return Graph.from_json_obj(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {type(exc).__name__}: {exc}") from None


def _policy(value: str) -> ClosurePolicy:
    return ClosurePolicy(value)


def _int_at_least(value: str, low: int) -> int:
    n = int(value)
    if n < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {n}")
    return n


def _positive_int(value: str) -> int:
    return _int_at_least(value, 1)


def _non_negative_int(value: str) -> int:
    return _int_at_least(value, 0)


def _board_size(value: str) -> tuple[int, int]:
    m = re.fullmatch(r"\s*(\d+)\s*[xX]\s*(\d+)\s*", value)
    if m is None or min(int(m.group(1)), int(m.group(2))) < 1:
        raise argparse.ArgumentTypeError(
            f"must be RxC with R and C at least 1, got {value!r}"
        )
    return int(m.group(1)), int(m.group(2))


def _domino_modes(value: str) -> tuple[int, ...]:
    modes = tuple(x.strip() for x in value.split(","))
    if not set(modes) <= {"0", "1"} or len(set(modes)) != len(modes):
        raise argparse.ArgumentTypeError(
            f"must be distinct values from 0 and 1, comma-separated, got {value!r}"
        )
    return tuple(int(x) for x in modes)


def cmd_check_word(args) -> int:
    if args.emit_graph and args.format == "text":
        raise ValueError("--emit-graph takes --format json or dot")
    if args.graph is not None and args.format == "dot":
        raise ValueError("--graph takes --format json or text")
    word = parse_word(args.word)
    n = max(word) + 1
    derived = graph_of_word(word, n)
    if args.emit_graph:
        if args.format == "dot":
            sys.stdout.write(graph_to_dot(derived))
        else:
            print(json.dumps(derived.to_json_obj(), sort_keys=True))
        return EXIT_OK
    g = _load_graph(args.graph)
    verdict = represents(word, g)
    if args.format == "json":
        print(json.dumps({"word": format_word(word), "represents": verdict}))
    else:
        print(f"represents: {'true' if verdict else 'false'}")
    return EXIT_OK


def cmd_decide(args) -> int:
    g = _load_graph(args.graph)
    try:
        o, certificate = certify(g, args.budget_edges)
    except BudgetExceededError as exc:
        print("inconclusive")
        print(f"budget: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    print("yes" if o is not None else "no")
    print(f"route: {route_of(certificate)}", file=sys.stderr)
    if args.emit_certificate:
        if o is not None:
            print(json.dumps(o.to_json_obj(), sort_keys=True))
        elif certificate is not None:  # a searched "no" has none
            print(json.dumps(certificate))
    return EXIT_OK


def cmd_colour(args) -> int:
    g = _load_graph(args.graph)
    if args.colours is not None:
        colouring = is_k_colourable(g, args.colours)
        obj = {
            "k": args.colours,
            "colourable": colouring is not None,
            "colouring": list(colouring.colours) if colouring else None,
        }
    else:
        k = chromatic_number(g)
        colouring = is_k_colourable(g, k)
        obj = {
            "chromatic_number": k,
            "colouring": list(colouring.colours) if colouring else None,
        }
    print(json.dumps(obj, sort_keys=True))
    return EXIT_OK


def cmd_enumerate(args) -> int:
    board = parse_board(args.board, exploratory=args.exploratory)
    for t in enumerate_triangulations(board):
        print(t.literal())
    return EXIT_OK


def cmd_catalog(args) -> int:
    policy = _policy(args.policy)
    members = forbidden_set(policy).members
    if args.emit == "dot":
        for m in members:
            sys.stdout.write(embedded_to_dot(m.embedded, m.name.replace("@", "_")))
        return EXIT_OK
    obj = {
        "policy": policy.value,
        "patterns": [
            {
                "name": p.name,
                "vertices": p.embedded.graph.n,
                "has_domino": p.has_domino,
                "provenance": p.provenance,
            }
            for p in minimal_graphs()
        ],
        "members": [
            {
                "name": m.name,
                "base": m.base_name,
                "symmetry": m.symmetry.value,
                "coords": [list(rc) for rc in m.embedded.coords],
                "graph": m.embedded.graph.to_json_obj(),
            }
            for m in members
        ],
        "closure": closure_report(),
    }
    print(json.dumps(obj, sort_keys=True))
    return EXIT_OK


def _write_verdicts(report, classifications) -> int:
    write_report(sys.stdout, report, classifications)
    print(f"elapsed: {report.elapsed_seconds:.2f}s", file=sys.stderr)
    routes = Counter(c.route for c in classifications)
    print(
        "routes: "
        + " ".join(f"{r}={routes[r]}" for r in ("colouring", "odd_wheel", "search", "budget")),
        file=sys.stderr,
    )
    return report.exit_code()


def cmd_verify(args) -> int:
    board = parse_board(args.board)
    return _write_verdicts(*verify_theorem(board, _policy(args.policy), args.jobs))


def cmd_sweep(args) -> int:
    rows, cols = args.size
    return _write_verdicts(
        *sweep(rows, cols, args.domino_modes, _policy(args.policy), args.jobs)
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wordrep",
        description=(
            "Decide word-representability of small graphs and verify the "
            "3-colourability equivalence over board triangulations."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def jobs(p):
        p.add_argument("--jobs", type=_positive_int, default=1)

    def policy(p):
        p.add_argument("--policy", choices=("literal", "extended"), default="extended")

    p = sub.add_parser("check-word", help="map a word to its graph or test a file")
    p.add_argument("--word", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--graph")
    group.add_argument("--emit-graph", action="store_true")
    p.add_argument("--format", choices=("json", "dot", "text"), default="json")
    p.set_defaults(func=cmd_check_word)

    p = sub.add_parser("decide", help="decide word-representability of a graph file")
    p.add_argument("--graph", required=True)
    p.add_argument("--emit-certificate", action="store_true")
    p.add_argument("--budget-edges", type=_non_negative_int, default=None)
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("colour", help="chromatic number or k-colourability")
    p.add_argument("--graph", required=True)
    p.add_argument("--colours", type=_non_negative_int, default=None)
    p.set_defaults(func=cmd_colour)

    p = sub.add_parser("enumerate", help="list triangulation literals of a board")
    p.add_argument("--board", required=True)
    p.add_argument("--exploratory", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("catalog", help="dump the forbidden catalog")
    p.add_argument("--emit", choices=("json", "dot"), default="json")
    policy(p)
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("verify", help="verify the theorem on one board")
    p.add_argument("--board", required=True)
    jobs(p)
    policy(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="sweep all boards up to RxC")
    p.add_argument("size", metavar="RxC", type=_board_size)
    p.add_argument("--domino-modes", type=_domino_modes, default="0,1")
    jobs(p)
    policy(p)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
