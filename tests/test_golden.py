"""Golden outputs of every built-in chain: CLI stdout of `chain analyze`
(JSON and text), `chain check --depth 6`, `export-dot --levels 1` and
`--levels 3` and `construct`; the sorted splice label set of every
certificate at depth pre + 2·period; and, for one-ended chains, the
`witness_two_cycles` pair.

Every set is sorted, so the files do not depend on PYTHONHASHSEED. After a
change that is meant to alter these outputs, regenerate them with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from cubicham import (
    BUILTIN_CHAINS,
    ChainError,
    OneEndedChain,
    count_limit_hamilton_cycles,
    splice_certificate,
    witness_two_cycles,
)
from cubicham.cli import main

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


def _stdout(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
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


def _path(name: str) -> Path:
    return GOLDEN / f"{name}.json"


@pytest.mark.parametrize("name", sorted(BUILTIN_CHAINS))
def test_builtin_chain_outputs_match_golden(name):
    expected = json.loads(_path(name).read_text())
    actual = capture(name)
    assert actual.keys() == expected.keys()
    for key in expected:
        assert actual[key] == expected[key], f"{name}: {key} differs from the golden file"


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for chain_name in sorted(BUILTIN_CHAINS):
        doc = capture(chain_name)
        # one top-level key per line keeps the files short and diffs local
        lines = [f"{json.dumps(k)}: {json.dumps(doc[k], sort_keys=True)}" for k in sorted(doc)]
        _path(chain_name).write_text("{\n" + ",\n".join(lines) + "\n}\n")
        print(f"wrote {_path(chain_name)}")
