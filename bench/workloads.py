"""The three workloads: their seeded operations and the check of every
command's output.

A workload's `stream` draws its inputs one by one, writes each as a JSON
file and yields the operations in the order the client sends them, without
end. The stream is prefix-stable: a longer run sees the same first
operations as a shorter one with the same seed. `check` runs after the
timed phase and returns one failure message (or None) per result.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import inputs

JSON_ARGS = ["--format", "json", "--jobs", "1"]

# A run's pool holds this many commands per second of the timed phase (at
# reference speed), about 1.5 times what the program managed when the
# benchmark was written. When a pool runs out the timed phase ends early.
POOL_RATE = {"graph-audit": 45.0, "chain-analyze": 150.0, "chain-check": 45.0}

# `chain check` depths: the built-in chains at depths whose brute force
# takes 0.3 to 1.5 s, generated chains as `_check_depth` picks.
BUILTIN_CHECK_DEPTHS = {"chain-G": 9, "chain-Hprime": 9, "chain-H": 24}
CHECK_MAX_VERTICES = 100
CHECK_MAX_CYCLES = 600
CHECK_MAX_DEPTH = 12


@dataclass
class Op:
    subject: str  # input name: the key into the reference outputs
    command: str  # count | parity | second | incidence | analyze | check
    argv: list
    source: str  # JSON input file, or the name of a built-in chain
    extra: dict = field(default_factory=dict)


@dataclass
class Result:
    code: object  # exit code, or None when the command raised
    out: str
    err: str
    seconds: float
    error: str | None = None  # the exception a command raised


# -- graph-audit --------------------------------------------------------------


def stream_graph_audit(rng: random.Random, work: Path):
    def graphs():  # drawn round by round, so the stream is prefix-stable
        yield inputs.dense_graph()
        while True:
            yield from inputs.graph_round(rng)

    for i, G in enumerate(graphs()):
        subject = f"g{i}"
        path = work / f"{subject}.json"
        path.write_text(G.to_json())
        edge = rng.choice(G.edges).label
        v, w = rng.sample([x for x in G.vertices if G.degree(x) >= 2], 2)
        for command, tail in (
            ("count", ["hamilton", "count", str(path)]),
            ("parity", ["hamilton", "parity", str(path)]),
            ("second", ["hamilton", "second", str(path), "--edge", edge]),
            ("incidence", ["incidence", str(path), "--v", v, "--w", w]),
        ):
            yield Op(subject, command, JSON_ARGS + tail, str(path), {"edge": edge, "v": v, "w": w})


def _is_hamilton_cycle(ends: dict, n: int, labels: list) -> bool:
    """Independent of the package: `labels` name n distinct edges that
    form one cycle through all n vertices."""
    if len(labels) != n or len(set(labels)) != n or any(lab not in ends for lab in labels):
        return False
    adj: dict = {}
    for lab in labels:
        u, v = ends[lab]
        if u == v:
            return False
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    if len(adj) != n or any(len(nb) != 2 for nb in adj.values()):
        return False
    start = next(iter(adj))
    prev, cur, steps = None, start, 0
    while True:
        a, b = adj[cur]
        prev, cur = cur, (b if a == prev else a)
        steps += 1
        if cur == start:
            return steps == n


def _json(result: Result):
    try:
        return json.loads(result.out)
    except json.JSONDecodeError:
        return None


def _status(res: Result, code: int = 0):
    """Why the command did not end as expected, or None."""
    if res.error:
        return f"raised {res.error}"
    if res.code != code:
        return f"exit {res.code}, expected {code}: {res.err.strip()}"
    if code == 0 and _json(res) is None:
        return "output is not JSON"
    return None


def check_graph_audit(ops: list[Op], results: list[Result], reference: dict) -> list:
    messages: list = [None] * len(results)
    graphs: dict = {}
    for i, (op, res) in enumerate(zip(ops, results)):
        graphs.setdefault(op.subject, {})[op.command] = (i, op, res)
    for subject, by_cmd in graphs.items():
        doc = json.loads(Path(next(iter(by_cmd.values()))[1].source).read_text())
        ends = {e["label"]: tuple(e["ends"]) for e in doc["edges"]}
        n = len(doc["vertices"])
        degree = {v["label"]: 0 for v in doc["vertices"]}
        for u, v in ends.values():
            degree[u] += 1
            degree[v] += 1
        cubic = all(d == 3 for d in degree.values())
        facts: dict = {}

        def fail(cmd: str, why: str) -> None:
            messages[by_cmd[cmd][0]] = f"{subject} {cmd}: {why}"

        def payload(cmd: str, code: int):
            res = by_cmd[cmd][2]
            why = _status(res, code)
            if why:
                fail(cmd, why)
            return None if why or code else _json(res)

        if "count" in by_cmd:
            data = payload("count", 0)
            if data is not None:
                facts["count"] = data["count"]
                if subject in reference and reference[subject] != data["count"]:
                    fail("count", f"count {data['count']}, reference {reference[subject]}")
        if "parity" in by_cmd:
            # every degree is odd, so every edge lies on an even number of cycles
            data = payload("parity", 0)
            if data is not None:
                counts = data["counts"]
                if set(counts) != set(ends):
                    fail("parity", "edge labels differ from the graph's")
                elif any(c % 2 for c in counts.values()) or data["odd_count_edges"]:
                    fail("parity", "an edge lies on an odd number of cycles")
                elif not data["all_degrees_odd"]:
                    fail("parity", "all_degrees_odd is false")
                elif sum(counts.values()) != n * data["total"]:
                    fail("parity", "edge counts do not sum to n times the total")
                elif "count" in facts and data["total"] != facts["count"]:
                    fail("parity", f"total {data['total']} != count {facts['count']}")
                else:
                    facts["counts"] = counts
        if "second" in by_cmd:
            edge = by_cmd["second"][1].extra["edge"]
            if "counts" not in facts:
                fail("second", "no parity output to derive the expected exit code from")
            else:
                through = facts["counts"][edge]
                data = payload("second", 0 if through else 1)
                if through and data is not None:
                    cycles = data["cycles"]
                    if len(cycles) != 2 or sorted(cycles[0]) == sorted(cycles[1]):
                        fail("second", "did not return two distinct cycles")
                    elif not all(_is_hamilton_cycle(ends, n, c) and edge in c for c in cycles):
                        fail("second", f"returned a non-Hamilton cycle or one avoiding {edge}")
        if "incidence" in by_cmd:
            data = payload("incidence", 0)
            if data is not None:
                why = _incidence_problem(data, by_cmd["incidence"][1].extra, ends, cubic, facts)
                if why:
                    fail("incidence", why)
    return messages


def _incidence_problem(data: dict, extra: dict, ends: dict, cubic: bool, facts: dict):
    table = data["table"]
    rows = [sum(r) for r in table]
    cols = [sum(c) for c in zip(*table)] if table else []
    for states, anchor in ((data["left_states"], extra["v"]), (data["right_states"], extra["w"])):
        at = {lab for lab, (u, v) in ends.items() if anchor in (u, v)}
        if any(len(s) != 2 or not set(s) <= at for s in states):
            return f"a pair state is not two edges at {anchor}"
    if "count" in facts and sum(rows) != facts["count"]:
        return f"table total {sum(rows)} != count {facts['count']}"
    if "counts" in facts:
        for states, sums in ((data["left_states"], rows), (data["right_states"], cols)):
            through: dict = {}
            for s, k in zip(states, sums):
                for lab in s:
                    through[lab] = through.get(lab, 0) + k
            if any(facts["counts"][lab] != k for lab, k in through.items()):
                return "table margins disagree with the parity counts"
    audits = data["audits"]
    if audits["applicable"] != cubic:
        return "audits applicable on a graph that is not simple cubic, or vice versa"
    if cubic:
        degrees = rows + cols
        pair_sums = all((a + b) % 2 == 0 for side in (rows, cols) for a in side for b in side)
        if not (audits["pair_sums_even"] and audits["uniform_parity"]):
            return "a parity audit failed on a simple cubic graph"
        if not pair_sums or len({d % 2 for d in degrees}) != 1:
            return "the table breaks the audits it reports as passed"
    return None


# -- chain-analyze and chain-check ---------------------------------------------


def _content(chain) -> str:
    from cubicham.chains import chain_to_json

    return chain_to_json(dataclasses.replace(chain, name=""))


def _builtin(name: str):
    """A built-in chain, built through its constructor's module attribute."""
    from cubicham import constructions

    return getattr(constructions, constructions.BUILTIN_CHAINS[name].__name__)()


def _fresh_chains(rng: random.Random, work: Path, seen: set, kinds):
    """Generated chains of the kinds `kinds` yields, none equal in content
    to another or to one in `seen`. They are written without a name, so the
    file's text is the content."""
    from cubicham.chains import chain_to_json

    made = 0
    while True:
        chain = inputs.random_chain(rng, next(kinds))
        text = chain_to_json(chain)
        if text in seen:
            continue
        seen.add(text)
        path = work / f"gen{made}.json"
        path.write_text(text)
        made += 1
        yield chain, path


def stream_chain_analyze(rng: random.Random, work: Path):
    from cubicham.constructions import BUILTIN_CHAINS

    seen = set()
    for name in BUILTIN_CHAINS:
        seen.add(_content(_builtin(name)))
        yield Op(name, "analyze", JSON_ARGS + ["chain", "analyze", name], name)
    for chain, path in _fresh_chains(rng, work, seen, itertools.repeat(None)):
        yield Op(path.stem, "analyze", JSON_ARGS + ["chain", "analyze", str(path)], str(path))


def _glued_pieces(chain, k: int) -> list:
    """The pieces of the level-k truncation from left to right, each with
    the matching that glues it to the piece before it (None for the first)."""
    from cubicham.chains import OneEndedChain

    if isinstance(chain, OneEndedChain):
        return [(chain.initial, None)] + [(chain.piece(j), chain.iface(j - 1)) for j in range(1, k + 1)]
    left, right = chain.left, chain.right
    return (
        [(left.piece(k), None)]
        + [(left.piece(j), left.iface(j)) for j in range(k - 1, 0, -1)]
        + [(right.piece(1), chain.central)]
        + [(right.piece(j), right.iface(j - 1)) for j in range(2, k + 1)]
    )


def _segment_counts(piece, first: bool) -> dict:
    """Hamilton cycles of the piece between two dummies, counted by the
    pair of left stubs and the pair of right stubs they use."""
    from cubicham.chains import materialize
    from cubicham.hamilton import enumerate_hamilton_cycles

    left = "alpha" if piece.left_ports else None
    seg = materialize([piece], [], [None], left_dummy=left, right_dummy="beta")
    counts: dict = {}
    for cycle in enumerate_hamilton_cycles(seg):
        used = [seg.edges[i] for i in cycle]
        key = (
            None if first else frozenset(e.label for e in used if "alpha" in (e.u, e.v)),
            frozenset(e.label for e in used if "beta" in (e.u, e.v)),
        )
        counts[key] = counts.get(key, 0) + 1
    return counts


def truncation_cycle_count(chain, k: int, memo: dict) -> int:
    """Hamilton cycles of the level-k truncation, as a product of segment
    counts. It picks `chain check` depths without calling the chain engine."""
    weights: dict = {None: 1}  # right-stub pair of the last piece -> partial cycles
    for piece, matching in _glued_pieces(chain, k):
        first = matching is None
        if (id(piece), first) not in memo:
            memo[id(piece), first] = (piece, _segment_counts(piece, first))
        glue = dict(matching or ())
        nxt: dict = {}
        for (left, right), count in memo[id(piece), first][1].items():
            for prev, w in weights.items():
                if first or frozenset(glue[s] for s in prev) == left:
                    nxt[right] = nxt.get(right, 0) + w * count
        weights = nxt
    return sum(weights.values())


def _check_depth(chain) -> int:
    """The deepest level, at least 1, up to which every truncation has at
    most CHECK_MAX_VERTICES vertices and 1 to CHECK_MAX_CYCLES Hamilton
    cycles. Brute force costs about the same per cycle, but a truncation
    without cycles can cost seconds of fruitless search, and every deeper
    one has none either."""
    memo: dict = {}
    depth = 1
    while depth < CHECK_MAX_DEPTH:
        pieces = _glued_pieces(chain, depth + 1)
        size = sum(p.graph.n for p, _ in pieces) + (1 if chain.mode == "one-ended" else 2)
        if size > CHECK_MAX_VERTICES or not 0 < truncation_cycle_count(chain, depth + 1, memo) <= CHECK_MAX_CYCLES:
            break
        depth += 1
    return depth


def _kind_rounds(rng: random.Random):
    """Chain kinds in shuffled rounds of one each. Brute force costs differ
    most between kinds, so every run gets the same mix of them."""
    while True:
        kinds = list(inputs.CHAIN_KINDS)
        rng.shuffle(kinds)
        yield from kinds


def stream_chain_check(rng: random.Random, work: Path):
    seen = set()
    for name, depth in BUILTIN_CHECK_DEPTHS.items():
        seen.add(_content(_builtin(name)))
        argv = JSON_ARGS + ["chain", "check", name, "--depth", str(depth)]
        yield Op(name, "check", argv, name, {"depth": depth, "lo": int(name == "chain-Hprime")})
    for chain, path in _fresh_chains(rng, work, seen, _kind_rounds(rng)):
        depth = _check_depth(chain)
        lo = 0 if chain.mode == "one-ended" else 1
        argv = JSON_ARGS + ["chain", "check", str(path), "--depth", str(depth)]
        yield Op(path.stem, "check", argv, str(path), {"depth": depth, "lo": lo})


def _load_chain(op: Op):
    from cubicham.chains import chain_from_json

    if op.source.endswith(".json"):
        return chain_from_json(Path(op.source).read_text())
    return _builtin(op.source)


def check_chain_check(ops: list[Op], results: list[Result], reference: dict) -> list:
    messages = []
    for op, res in zip(ops, results):
        why = _status(res)
        if why is None:
            data = _json(res)
            depths = list(range(op.extra["lo"], op.extra["depth"] + 1))
            if data.get("ok") is not True:
                why = "transfer prediction disagrees with brute force"
            elif data.get("depths") != depths:
                why = f"checked depths {data.get('depths')}, asked for {depths}"
        messages.append(None if why is None else f"{op.subject} check: {why}")
    return messages


def _tails(chain) -> list:
    from cubicham.chains import OneEndedChain

    return [chain.tail] if isinstance(chain, OneEndedChain) else [chain.left, chain.right]


def _analyze_problem(op: Op, data: dict, reference: dict):
    from cubicham.chains import (
        OneEndedChain,
        count_limit_hamilton_cycles,
        prefix_counts,
        validate_certificate,
    )

    cls, count, certs = data["classification"], data["count"], data["certificates"]
    if op.subject in reference and reference[op.subject] != cls:
        return f"classification {cls}, reference {reference[op.subject]}"
    chain = _load_chain(op)
    if data["mode"] != chain.mode or data["interface_size"] != chain.cut_size:
        return "mode or interface size differs from the input"
    if cls == "Infinite":
        if count is not None or certs != 0 or data["witness"] is None:
            return "Infinite without a witness, or with a count"
    elif cls != ("Zero" if count == 0 else f"Finite({count})") or certs != count:
        return f"{cls} with count {count} and {certs} certificates"
    if cls.startswith("Finite"):
        result = count_limit_hamilton_cycles(chain)
        if len(result.certificates) != count:
            return "the library returns another number of certificates"
        depth = max(len(t.pre) + 2 * t.plen for t in _tails(chain))
        if not all(validate_certificate(chain, c, depth) for c in result.certificates):
            return f"a certificate fails to validate at depth {depth}"
    if isinstance(chain, OneEndedChain):
        # past the first recurrence of the supports the surviving prefix
        # total is constant for Finite and grows each recurrence for Infinite
        tail = chain.tail
        span = tail.plen * (2 ** math.comb(chain.cut_size, 2) + 8)
        k1 = len(tail.pre) + 1 + span + 1
        totals = prefix_counts(chain, k1 + span)
        first, last = totals[k1], totals[-1]
        if cls == "Zero":
            fits = last == 0
        elif cls == "Infinite":
            fits = last > first
        else:
            fits = first == last == count
        if not fits:
            return f"prefix totals {first} -> {last} do not fit {cls}"
    return None


def check_chain_analyze(ops: list[Op], results: list[Result], reference: dict) -> list:
    messages = []
    for op, res in zip(ops, results):
        why = _status(res) or _analyze_problem(op, _json(res), reference)
        messages.append(None if why is None else f"{op.subject} analyze: {why}")
    return messages


# -- reference outputs ----------------------------------------------------------


def reference_entries(ops: list[Op], results: list[Result]) -> dict:
    """What a reference run records: counts of graphs, classes of chains."""
    out = {}
    for op, res in zip(ops, results):
        data = _json(res) if res.code == 0 else None
        if data is None:
            continue
        if op.command == "count":
            out[op.subject] = data["count"]
        elif op.command == "analyze":
            out[op.subject] = data["classification"]
    return out


WORKLOADS = {
    "graph-audit": (stream_graph_audit, check_graph_audit),
    "chain-analyze": (stream_chain_analyze, check_chain_analyze),
    "chain-check": (stream_chain_check, check_chain_check),
}
