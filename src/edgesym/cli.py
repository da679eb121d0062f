"""Command-line interface.

Subcommands: gen, colour, dprime, scan, aut. Exit codes: 0 success,
2 input error, 3 not colourable / not distinguishable, 4 budget exceeded,
5 verification failure, failed construction (decoration shortage or broken
step invariant) or unexpected scan exception, 141 output pipe closed by its
reader (128 + SIGPIPE), with nothing printed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import Optional

from .aut import group_order, stabiliser_generators, vertex_orbits
from .catalog import connected_regular_graphs
from .colouring import EdgeColouring, all_blue_vertices
from .distinguishing import (
    DEFAULT_BUDGET,
    NOT_DISTINGUISHABLE,
    BudgetExceededError,
    MaxColoursExceededError,
    distinguishing_index_with_witness,
    scan_rows,
)
from .graph import (
    Graph,
    GraphError,
    circulant,
    complete,
    complete_bipartite,
    cycle,
    parse_graph6,
    petersen,
    random_regular,
    regularity,
    serialize_graph6,
)
from .layered import (
    DecorationShortageError,
    NotColourableError,
    StepPropertyError,
    VerificationError,
    colour_regular,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NOT_COLOURABLE = 3
EXIT_BUDGET = 4
EXIT_VERIFY = 5
EXIT_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer the signal stopped


class _InputError(ValueError):
    pass


def _generate(spec: list[str], seed: int) -> list[Graph]:
    if not spec:
        raise _InputError("empty generator spec")
    name, *params = spec
    try:
        if name == "petersen":
            return [petersen()]
        if name == "cycle":
            return [cycle(int(params[0]))]
        if name == "complete":
            return [complete(int(params[0]))]
        if name == "complete-bipartite":
            return [complete_bipartite(int(params[0]), int(params[1]))]
        if name == "circulant":
            steps = [int(s) for s in params[1].split(",")]
            return [circulant(int(params[0]), steps)]
        if name == "random-regular":
            return [random_regular(int(params[0]), int(params[1]), seed)]
        if name == "regular-all":
            return list(connected_regular_graphs(int(params[0]), int(params[1])))
    except (IndexError, ValueError) as exc:
        raise _InputError(f"bad parameters for generator {name!r}: {exc}") from exc
    raise _InputError(f"unknown generator {name!r}")


def _add_input_options(p: argparse.ArgumentParser) -> None:
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--g6", metavar="STRING", help="inline graph6 string")
    grp.add_argument("--file", metavar="PATH", help="file with one graph6 line ('-' = stdin)")
    grp.add_argument("--gen", metavar="SPEC", help="generator spec, e.g. 'cycle 5'")
    p.add_argument("--seed", type=int, default=0, help="seed of a random generator spec")


def _open_input(path: str):
    """The file at path, or standard input (left open) for '-'."""
    return contextlib.nullcontext(sys.stdin) if path == "-" else open(path)


def _load_graph(args) -> Graph:
    if args.g6 is not None:
        return parse_graph6(args.g6)
    if args.gen is not None:
        graphs = _generate(args.gen.split(), args.seed)
        if len(graphs) != 1:
            raise _InputError("generator spec must produce exactly one graph here")
        return graphs[0]
    with _open_input(args.file) as fh:
        for line in fh:
            line = line.strip()
            if line:
                return parse_graph6(line)
    raise _InputError("no graph6 line found in input")


def _emit_colouring(g: Graph, c: EdgeColouring, fmt: str, extra: dict) -> None:
    if fmt == "dot":
        lines = ["graph g {"]
        for (u, v), col in sorted(c.assignment.items()):
            lines.append(f"  {u} -- {v} [color={col}];")
        lines.append("}")
        print("\n".join(lines))
    elif fmt == "text":
        for key, val in extra.items():
            print(f"{key}: {val}")
        for (u, v), col in sorted(c.assignment.items()):
            print(f"{u} {v} {col}")
    else:
        payload = dict(extra)
        payload["colouring"] = c.to_json()
        print(json.dumps(payload))


def cmd_gen(args) -> int:
    graphs = _generate(args.spec, args.seed)
    for g in graphs:
        print(serialize_graph6(g))
    return EXIT_OK


def cmd_colour(args) -> int:
    g = _load_graph(args)
    degree = regularity(g)
    if degree is None:
        print("error: input graph is not regular", file=sys.stderr)
        return EXIT_INPUT
    audit: list = []
    try:
        c = colour_regular(g, root=args.root, verify=args.verify, budget=args.budget,
                           audit=audit)
    except NotColourableError:
        print("error: the single edge admits no distinguishing colouring", file=sys.stderr)
        return EXIT_NOT_COLOURABLE
    extra = {
        "graph6": serialize_graph6(g),
        "n": g.n,
        "degree": degree,
        "colours_used": len(c.colours_used()),
        "all_blue_vertices": all_blue_vertices(g, c),
        # colour_regular verified both before it returned
        "blue_rule_ok": True,
        "distinguishing": True,
        "audit": audit,
    }
    _emit_colouring(g, c, args.format, extra)
    return EXIT_OK


def cmd_dprime(args) -> int:
    g = _load_graph(args)
    try:
        value, witness = distinguishing_index_with_witness(
            g, max_colours=args.max_colours, budget=args.budget
        )
    except MaxColoursExceededError:
        print(json.dumps({"graph6": serialize_graph6(g), "dprime": f">{args.max_colours}"}))
        return EXIT_OK
    if value is NOT_DISTINGUISHABLE:
        print(json.dumps({"graph6": serialize_graph6(g), "dprime": "not_distinguishable"}))
        return EXIT_NOT_COLOURABLE
    payload = {"graph6": serialize_graph6(g), "dprime": value}
    if witness is not None and args.witness:
        payload["witness_colouring"] = witness.to_json()
    print(json.dumps(payload))
    return EXIT_OK


def scan_exit_code(statuses: set[str]) -> int:
    """Exit code for a finished scan from the set of its rows' statuses: 5
    if a graph outside the known exception list needs more than two colours,
    else 2 if an input line was malformed, else 0."""
    if "unexpected_exception" in statuses:
        return EXIT_VERIFY
    return EXIT_INPUT if "error" in statuses else EXIT_OK


def cmd_scan(args) -> int:
    def corpus():
        # a malformed line's error row rides the scan in the line's place
        with _open_input(args.file) as fh:
            for k, line in enumerate(fh, 1):
                text = line.strip()
                if not text:
                    continue
                try:
                    item = parse_graph6(text)
                except GraphError as exc:
                    item = {"line": k, "graph6": text, "status": "error", "error": str(exc)}
                yield item

    statuses = set()
    for row in scan_rows(corpus(), max_n=args.max_n, budget=args.budget,
                         with_witness=args.witness, jobs=args.jobs):
        statuses.add(row["status"])
        print(json.dumps(row), flush=True)
    return scan_exit_code(statuses)


def cmd_aut(args) -> int:
    g = _load_graph(args)
    if g.n == 0:
        raise _InputError("empty graph")
    order = group_order(g)  # SizeGuardError is a ValueError: main exits with 2
    root = args.root
    gens = stabiliser_generators(g, root)
    orbits = vertex_orbits(g, gens)
    print(
        json.dumps(
            {
                "graph6": serialize_graph6(g),
                "n": g.n,
                "group_order": order,
                "root": root,
                "stabiliser_orbit_sizes": sorted(len(o) for o in orbits),
                "stabiliser_orbits": orbits,
                "stabiliser_generators": [list(p.images) for p in gens],
            }
        )
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="edgesym")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit generator output as graph6 lines")
    p.add_argument("spec", nargs="+", help="generator name and parameters")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("colour", help="3-colour distinguishing colouring")
    _add_input_options(p)
    p.add_argument("--root", type=int, default=0)
    p.add_argument("--verify", action="store_true", help="check step invariants while colouring")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--format", choices=("json", "dot", "text"), default="json")
    p.set_defaults(func=cmd_colour)

    p = sub.add_parser("dprime", help="exact distinguishing index")
    _add_input_options(p)
    p.add_argument("--max-colours", type=int, default=3)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--witness", action="store_true", help="include a witness colouring")
    p.set_defaults(func=cmd_dprime)

    p = sub.add_parser("scan", help="scan a graph6 corpus for indices above two")
    p.add_argument("--file", required=True, help="corpus path ('-' = stdin)")
    p.add_argument("--max-n", type=int, default=10)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--witness", action="store_true")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("aut", help="automorphism group and stabiliser orbits")
    _add_input_options(p)
    p.add_argument("--root", type=int, default=0)
    p.set_defaults(func=cmd_aut)

    return ap


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # the reader left: stdout's last flush goes to the null device
        with open(os.devnull, "w") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
        return EXIT_PIPE
    except (ValueError, OSError) as exc:  # _InputError, GraphError, SizeGuardError, ...
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (VerificationError, DecorationShortageError, StepPropertyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
