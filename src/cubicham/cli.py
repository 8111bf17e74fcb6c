"""Command-line front end: construct, enumerate, audit, analyze, export.

Exit codes: 0 success, 1 a property violation or mismatch was found,
2 usage or input error.  Every graph or chain argument goes through the
one loader, `_load`.

The argument parser is built on the first `main` call and reused by every
later call in the process; each parse starts from a fresh namespace, so no
option carries over from one call to the next.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache, partial
from pathlib import Path
from typing import Callable

from . import constructions
from .chains import (
    ChainError,
    CutChain,
    OneEndedChain,
    chain_from_doc,
    chain_to_json,
    count_limit_hamilton_cycles,
    end_degree,
    segment_minor,
    transfer_dot,
    transfer_layer,
    truncation_consistency,
    truncation_minor,
    witness_stubs,
)
from .hamilton import (
    count_through,
    cycle_labels,
    edge_parity_report,
    enumerate_hamilton_cycles,
    first_hamilton_cycle,
    second_cycle_lollipop,
    second_cycle_nearly_cubic,
)
from .incidence import check_pair_sum_even, check_uniform_parity, incidence_multigraph
from .multigraph import GraphError, MultiGraph, _dumps, from_doc


class _UsageError(Exception):
    pass


def _load(spec: str, kind: str | None = None) -> MultiGraph | CutChain:
    """The graph or chain that a command-line argument names: a built-in
    name (`constructions.BUILTIN_GRAPHS` or `BUILTIN_CHAINS`) or a JSON
    file, the only place where the command line reads one.  A file is read
    once, as bytes that `json.loads` decodes (JSON is UTF-8), and its
    document is a chain exactly when it is an object with a "mode" key
    (`chain_from_doc`); any other document is a graph (`from_doc`).
    With `kind` "graph" or "chain", an input of the other kind is refused
    before it is built."""
    if spec in constructions.BUILTIN_GRAPHS:
        found, build = "graph", constructions.BUILTIN_GRAPHS[spec]
    elif spec in constructions.BUILTIN_CHAINS:
        found, build = "chain", constructions.BUILTIN_CHAINS[spec]
    else:
        path = Path(spec)
        if not path.is_file():
            raise _UsageError(f"unknown {kind or 'input'} {spec!r} (not a builtin, not a file)")
        try:
            doc = json.loads(path.read_bytes())
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
            raise _UsageError(f"{spec!r} is not a JSON file: {exc}") from None
        found = "chain" if isinstance(doc, dict) and "mode" in doc else "graph"
        build = partial(chain_from_doc if found == "chain" else from_doc, doc)
    if kind not in (None, found):
        raise _UsageError(f"{spec!r} is a {found}, not a {kind}")
    return build()


def _edge_ids(G: MultiGraph, csv: str | None) -> frozenset[int]:
    if not csv:
        return frozenset()
    return frozenset(G.edge_by_label(label.strip()).id for label in csv.split(","))


def _emit(args, text: Callable[[], str], json_payload) -> None:
    """Write a command's reply: `json_payload` with sorted keys for JSON
    output, else the text that `text` builds, which JSON output never asks
    for."""
    if args.format == "json":
        _write_out(args, _dumps(json_payload, sort_keys=True))
    else:
        _write_out(args, text())


def _write_out(args, payload: str) -> None:
    if args.out:
        Path(args.out).write_text(payload + "\n")
    else:
        print(payload)


def _cmd_construct(args) -> int:
    name = args.name
    if name == "replacement":
        if args.n is None:
            raise _UsageError("replacement needs --n")
        _write_out(args, constructions.replacement_graph(args.n).to_json())
    elif name == "truncation":
        if args.chain is None or args.k is None:
            raise _UsageError("truncation needs --chain and --k")
        _write_out(args, truncation_minor(_load(args.chain, "chain"), args.k).to_json())
    elif name == "segment":
        if args.chain is None or args.n is None:
            raise _UsageError("segment needs --chain and --n")
        _write_out(args, segment_minor(_load(args.chain, "chain"), args.n).to_json())
    else:
        x = _load(name)
        _write_out(args, x.to_json() if isinstance(x, MultiGraph) else chain_to_json(x))
    return 0


def _cmd_hamilton(args) -> int:
    # the options each subcommand reads; it refuses the others
    reads = {"parity": (), "second": ("edge",)}.get(args.sub, ("require", "forbid"))
    for option in ("require", "forbid", "edge"):
        if getattr(args, option) is not None and option not in reads:
            raise _UsageError(f"hamilton {args.sub} takes no --{option}")
    G = _load(args.graph, "graph")
    require = _edge_ids(G, args.require)
    forbid = _edge_ids(G, args.forbid)
    if args.sub in ("count", "through"):
        n = count_through(G, require, forbid)
        _emit(args, lambda: str(n), {"count": n})
        return 0
    if args.sub == "list":
        cycles = [cycle_labels(G, c) for c in enumerate_hamilton_cycles(G, require, forbid)]
        _emit(args, lambda: "\n".join(" ".join(c) for c in cycles), {"cycles": cycles})
        return 0
    if args.sub == "parity":
        report = edge_parity_report(G)
        ok = not (report.all_degrees_odd and report.odd_count_edges)
        _emit(
            args,
            lambda: report.to_csv(G),
            {
                "total": report.total,
                "counts": {G.edges[i].label: c for i, c in report.counts.items()},
                "all_degrees_odd": report.all_degrees_odd,
                "odd_count_edges": [G.edges[i].label for i in report.odd_count_edges],
            },
        )
        return 0 if ok else 1
    # "second", the last of the subcommands argparse admits
    if G.is_simple() and all(G.degree(v) % 2 for v in G.vertices):
        if not args.edge:
            raise _UsageError("second needs --edge for all-odd graphs")
        e = G.edge_by_label(args.edge).id
        first = first_hamilton_cycle(G, {e})
        if first is None:
            print(f"no Hamilton cycle through {args.edge}", file=sys.stderr)
            return 1
        second = second_cycle_lollipop(G, first, e)
    else:
        first, second = second_cycle_nearly_cubic(G)
    payload = [cycle_labels(G, first), cycle_labels(G, second)]
    _emit(args, lambda: "\n".join(" ".join(c) for c in payload), {"cycles": payload})
    return 0


def _cmd_incidence(args) -> int:
    G = _load(args.graph, "graph")
    H = incidence_multigraph(G, args.v, args.w)
    pair_sum = check_pair_sum_even(H)
    uniform = check_uniform_parity(H)
    audited = G.is_simple() and G.is_cubic()
    ok = not audited or (pair_sum.all_even and uniform.uniform)

    def text() -> str:
        lines = [H.to_text(G)]
        if audited:
            lines += [f"pair sums even: {pair_sum.all_even}", f"uniform parity: {uniform.uniform}"]
        return "\n".join(lines)

    def name(state):
        return sorted(G.edges[i].label for i in state)

    _emit(
        args,
        text,
        {
            "v": args.v,
            "w": args.w,
            "left_states": [name(p) for p in H.left_states],
            "right_states": [name(q) for q in H.right_states],
            "table": [list(row) for row in H.table],
            "audits": {
                "applicable": audited,
                "pair_sums_even": pair_sum.all_even,
                "uniform_parity": uniform.uniform,
            },
        },
    )
    return 0 if ok else 1


def _cmd_chain(args) -> int:
    chain = _load(args.chain, "chain")
    if args.sub == "analyze":
        result = count_limit_hamilton_cycles(chain)
        degrees = {side: end_degree(chain, side) for side in chain.sides}
        witness = (
            None
            if result.witness is None
            else {
                "level": result.witness[0],
                "state": witness_stubs(chain, result),
                "out_multiplicity": result.witness[2],
            }
        )

        def text() -> str:
            # the first level whose piece and both matchings repeat
            tail = chain.tail if isinstance(chain, OneEndedChain) else chain.right
            lines = [
                f"chain: {chain.name or args.chain}",
                f"mode: {chain.mode}",
                f"interface size: {chain.cut_size}",
                "end degree: " + ", ".join(f"{k}={v}" for k, v in degrees.items()),
                "periodic transfer layer:",
                transfer_layer(chain, len(tail.pre) + 1).to_text(),
                f"classification: {result}",
                f"certificates: {result.count or 0}",
            ]
            if witness:
                lines.append(
                    f"branching witness: level {witness['level']}, "
                    f"state {{{','.join(witness['state'])}}}, "
                    f"out-multiplicity {witness['out_multiplicity']}"
                )
            return "\n".join(lines)

        _emit(
            args,
            text,
            {
                "chain": chain.name or args.chain,
                "mode": chain.mode,
                "interface_size": chain.cut_size,
                "end_degree": degrees,
                "classification": str(result),
                "count": result.count,
                "witness": witness,
                "certificates": result.count or 0,
            },
        )
        return 0
    # "check", the last of the subcommands argparse admits
    lo = 0 if isinstance(chain, OneEndedChain) else 1
    depths = list(range(lo, args.depth + 1))
    if not depths:
        raise _UsageError(
            f"--depth must be at least {lo}, the first level of a {chain.mode} chain"
        )
    lines = []
    ok = True
    for k in depths:
        report = truncation_consistency(chain, k)
        ok = ok and report.ok
        lines.append(f"depth {k}: {'ok' if report.ok else 'MISMATCH'}")
    _emit(args, lambda: "\n".join(lines), {"ok": ok, "depths": depths})
    return 0 if ok else 1


def _cmd_export_dot(args) -> int:
    x = _load(args.input)
    _write_out(args, x.to_dot() if isinstance(x, MultiGraph) else transfer_dot(x, args.levels))
    return 0


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser for every command, built once per process on first use
    (not at import, which stays cheap)."""
    parser = argparse.ArgumentParser(prog="cubicham")
    parser.add_argument("--format", choices=("json", "text"), default="text")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="accepted and ignored; full graph searches use a second process"
        " when the process may use two CPUs",
    )
    parser.add_argument("--out", default=None, help="write machine output to a file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct")
    p.add_argument("name")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--chain", default=None)
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("hamilton")
    p.add_argument("sub", choices=("count", "list", "through", "parity", "second"))
    p.add_argument("graph")
    p.add_argument("--require", default=None, help="comma-separated edge labels")
    p.add_argument("--forbid", default=None, help="comma-separated edge labels")
    p.add_argument("--edge", default=None)
    p.set_defaults(func=_cmd_hamilton)

    p = sub.add_parser("incidence")
    p.add_argument("graph")
    p.add_argument("--v", required=True)
    p.add_argument("--w", required=True)
    p.set_defaults(func=_cmd_incidence)

    p = sub.add_parser("chain")
    p.add_argument("sub", choices=("analyze", "check"))
    p.add_argument("chain")
    p.add_argument("--depth", type=int, default=2)
    p.set_defaults(func=_cmd_chain)

    p = sub.add_parser("export-dot")
    p.add_argument("input")
    p.add_argument("--levels", type=int, default=3)
    p.set_defaults(func=_cmd_export_dot)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (_UsageError, GraphError, ChainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
