"""Golden outputs of every built-in chain: CLI stdout of `chain analyze`
(JSON and text), `chain check --depth 6`, `export-dot --levels 1` and
`--levels 3` and `construct`; the sorted splice label set of every
certificate at depth pre + 2·period; and, for one-ended chains, the
`witness_two_cycles` pair.  Also the stdout and exit code of
`hamilton second --format json --edge e` for every edge of the built-in
graphs in `SECOND_GRAPHS`, the stdout and exit code of
`--format json chain analyze` on every generated chain of `tests/util.py`,
and those of `--format json` `hamilton count`, `hamilton parity`,
`hamilton second` and `incidence` on the sampled graphs of `audit_graphs`.

Every set is sorted, so the files do not depend on PYTHONHASHSEED. After a
change that is meant to alter these outputs, regenerate them with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import random
import tempfile
from pathlib import Path

import pytest

from cubicham import (
    BUILTIN_CHAINS,
    BUILTIN_GRAPHS,
    ChainError,
    OneEndedChain,
    chain_to_json,
    count_limit_hamilton_cycles,
    random_cubic_graph,
    random_odd_degree_graph,
    splice_certificate,
    witness_two_cycles,
)
from cubicham.cli import main
from util import GENERATED_SEEDS, generated_chains

GOLDEN = Path(__file__).parent / "golden"

# CLI argv per recorded output; None stands for the chain's name
COMMANDS = {
    "analyze.json": ["--format", "json", "chain", "analyze", None],
    "analyze.txt": ["chain", "analyze", None],
    "check6.txt": ["chain", "check", None, "--depth", "6"],
    "dot1.txt": ["export-dot", None, "--levels", "1"],
    "dot3.txt": ["export-dot", None, "--levels", "3"],
    "construct.json": ["construct", None],
}

SECOND_GRAPHS = ("cube", "k4", "petersen", "tutte-fragment", "tutte-quotient")
SECOND_FILE = GOLDEN / "hamilton-second.json"
GENERATED_FILE = GOLDEN / "generated-analyze.json"
GRAPHS_FILE = GOLDEN / "hamilton-graphs.json"


def _stdout(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return f"exit {code}\n{buf.getvalue()}"


def _choices(choices) -> list:
    return [[sorted(p), sorted(q), sorted(interior)] for p, q, interior in choices]


def _cert_doc(cert) -> dict:
    return {
        "mode": cert.mode,
        "initial_state": sorted(cert.initial_state),
        "initial_interior": sorted(cert.initial_interior),
        "pre": _choices(cert.pre),
        "period": _choices(cert.period),
        "left_pre": _choices(cert.left_pre),
        "left_period": _choices(cert.left_period),
    }


def capture(name: str) -> dict:
    """Everything the golden file of built-in chain `name` records."""
    out = {}
    for key, argv in COMMANDS.items():
        out[key] = _stdout([name if a is None else a for a in argv])
    chain = BUILTIN_CHAINS[name]()
    tails = [chain.tail] if isinstance(chain, OneEndedChain) else [chain.left, chain.right]
    depth = max(len(t.pre) + 2 * t.plen for t in tails)
    certs = count_limit_hamilton_cycles(chain).certificates
    out["certificates"] = {
        "depth": depth,
        "labels": [sorted(splice_certificate(chain, c, depth)) for c in certs],
        "choices": [_cert_doc(c) for c in certs],
    }
    if isinstance(chain, OneEndedChain):
        try:
            pair = witness_two_cycles(chain)
        except ChainError as exc:
            out["witness_two_cycles"] = {"error": str(exc)}
        else:
            out["witness_two_cycles"] = {
                "labels": [sorted(splice_certificate(chain, c, depth)) for c in pair],
                "choices": [_cert_doc(c) for c in pair],
            }
    return out


def capture_second() -> dict:
    """Graph -> edge label -> `hamilton second` output through that edge."""
    return {
        graph: {
            e.label: _stdout(["--format", "json", "hamilton", "second", graph, "--edge", e.label])
            for e in BUILTIN_GRAPHS[graph]().edges
        }
        for graph in SECOND_GRAPHS
    }


@contextlib.contextmanager
def _scratch_cwd():
    """Run the block in a fresh temporary working directory, so the input
    files the commands read have the same relative paths in every run."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            yield
        finally:
            os.chdir(cwd)


def capture_generated() -> dict:
    """Seed -> `chain analyze` output on that generated chain. Each chain is
    read from a file `generated-<seed>.json` in a scratch working directory,
    so the name the output gives an unnamed chain does not vary."""
    out = {}
    with _scratch_cwd():
        for seed, chain in zip(GENERATED_SEEDS, generated_chains()):
            path = Path(f"generated-{seed}.json")
            path.write_text(chain_to_json(chain))
            out[str(seed)] = _stdout(["--format", "json", "chain", "analyze", str(path)])
    return out


def audit_graphs() -> dict:
    """Name -> graph: `random_cubic_graph(n, Random(s))` for n in {20, 40}
    and s in {1, 2}, and the dense all-odd graph of the benchmark (the
    n=16 draw when one Random(2) draws `random_odd_degree_graph` for
    n = 12, 14, 16 in turn; m=48, 22 145 Hamilton cycles)."""
    graphs = {
        f"cubic-{n}-{s}": random_cubic_graph(n, random.Random(s)) for n in (20, 40) for s in (1, 2)
    }
    rng = random.Random(2)
    graphs["odd-16"] = [random_odd_degree_graph(n, rng) for n in (12, 14, 16)][-1]
    return graphs


def capture_graphs() -> dict:
    """Graph name -> command -> output of the graph commands on that graph,
    read from `<name>.json` in a scratch working directory; `second` runs
    through the edge of lowest id and `incidence` at v0 and v1."""
    out = {}
    with _scratch_cwd():
        for name, G in audit_graphs().items():
            path = f"{name}.json"
            Path(path).write_text(G.to_json())
            out[name] = {
                command: _stdout(["--format", "json", *argv])
                for command, argv in (
                    ("count", ["hamilton", "count", path]),
                    ("parity", ["hamilton", "parity", path]),
                    ("second", ["hamilton", "second", path, "--edge", G.edges[0].label]),
                    ("incidence", ["incidence", path, "--v", "v0", "--w", "v1"]),
                )
            }
    return out


def _path(name: str) -> Path:
    return GOLDEN / f"{name}.json"


def _write(path: Path, doc: dict) -> None:
    # one top-level key per line keeps the files short and diffs local
    lines = [f"{json.dumps(k)}: {json.dumps(doc[k], sort_keys=True)}" for k in sorted(doc)]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {path}")


@pytest.mark.parametrize("name", sorted(BUILTIN_CHAINS))
def test_builtin_chain_outputs_match_golden(name):
    expected = json.loads(_path(name).read_text())
    actual = capture(name)
    assert actual.keys() == expected.keys()
    for key in expected:
        assert actual[key] == expected[key], f"{name}: {key} differs from the golden file"


def test_hamilton_second_matches_golden():
    expected = json.loads(SECOND_FILE.read_text())
    actual = capture_second()
    assert actual.keys() == expected.keys()
    for graph in expected:
        assert actual[graph] == expected[graph], f"hamilton second on {graph} differs"


def test_generated_chain_analyze_matches_golden():
    expected = json.loads(GENERATED_FILE.read_text())
    actual = capture_generated()
    assert actual.keys() == expected.keys()
    for seed in expected:
        assert actual[seed] == expected[seed], f"chain analyze on generated chain {seed} differs"


def test_graph_commands_match_golden():
    expected = json.loads(GRAPHS_FILE.read_text())
    actual = capture_graphs()
    assert actual.keys() == expected.keys()
    for name in expected:
        assert actual[name] == expected[name], f"graph commands on {name} differ"


def test_written_files_are_json_dumps_with_indent_2():
    # chain and graph files are written by the package's own writer; they
    # must be what `json.dumps(doc, indent=2)` writes of the same document
    chains = [BUILTIN_CHAINS[name]() for name in sorted(BUILTIN_CHAINS)] + generated_chains()
    for chain in chains:
        text = chain_to_json(chain)
        assert text == json.dumps(json.loads(text), indent=2), chain.name
    graphs = [BUILTIN_GRAPHS[name]() for name in sorted(BUILTIN_GRAPHS)]
    for G in graphs + list(audit_graphs().values()):
        assert G.to_json() == json.dumps(G.to_doc(), indent=2)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for chain_name in sorted(BUILTIN_CHAINS):
        _write(_path(chain_name), capture(chain_name))
    _write(SECOND_FILE, capture_second())
    _write(GENERATED_FILE, capture_generated())
    _write(GRAPHS_FILE, capture_graphs())
