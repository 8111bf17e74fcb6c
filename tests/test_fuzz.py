"""Fuzzing of the graph and chain loaders with mutated built-in documents.

A mutation drops a key or list element, or puts another JSON value in its
place: a value of another type, or a label taken from the document, which
makes bad labels, non-cubic pieces and mismatched interfaces.  A loader may
only return an object or raise `GraphError`/`ChainError`; through the CLI
the exit code is 0 or 2 and nothing escapes `cli.main`.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from cubicham import (
    BUILTIN_CHAINS,
    ChainError,
    GraphError,
    chain_from_doc,
    chain_to_json,
    count_limit_hamilton_cycles,
    count_through,
    cube,
    end_degree,
    from_doc,
    k4,
    petersen,
    tutte_fragment,
    tutte_quotient,
)
from cubicham.cli import main
from util import alternating_double_ladder

GRAPH_DOCS = {
    "k4": k4().to_doc(),
    "petersen": petersen().to_doc(),
    "cube": cube().to_doc(),
    "tutte-quotient": tutte_quotient().to_doc(),
    "tutte-fragment": tutte_fragment().graph.to_doc(),
}
CHAIN_DOCS = {name: json.loads(chain_to_json(build())) for name, build in BUILTIN_CHAINS.items()}
# a right tail whose period alternates two pieces with stub names of their
# own, so that mutations reach the orientation of its junctions
CHAIN_DOCS["alternating-ladder"] = json.loads(chain_to_json(alternating_double_ladder()))

_SCALARS = st.none() | st.booleans() | st.integers(-1, 3) | st.text("ab", max_size=2)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=2)
    | st.dictionaries(st.text("ab", max_size=1), inner, max_size=2),
    max_leaves=4,
)


def _paths(doc, prefix=()):
    """Every path to a value below the root, parents before children."""
    if isinstance(doc, dict):
        items = doc.items()
    else:
        items = enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _strings(doc) -> list[str]:
    if isinstance(doc, dict):
        return [s for value in doc.values() for s in _strings(value)]
    if isinstance(doc, list):
        return [s for value in doc for s in _strings(value)]
    return [doc] if isinstance(doc, str) else []


@st.composite
def mutated(draw, docs: dict):
    """(name, document): a built-in document with one to three mutations."""
    name = draw(st.sampled_from(sorted(docs)))
    doc = json.loads(json.dumps(docs[name]))
    labels = sorted(set(_strings(doc)))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        *parent_path, key = draw(st.sampled_from(paths))
        parent = doc
        for step in parent_path:
            parent = parent[step]
        kind = draw(st.sampled_from(("drop", "retype", "relabel")))
        if kind == "drop":
            del parent[key]
        else:
            parent[key] = draw(_VALUES if kind == "retype" else st.sampled_from(labels))
    return name, doc


def _graph_outcome(doc) -> None:
    try:
        G = from_doc(doc)
    except GraphError:
        return
    count_through(G)


def _chain_outcome(doc) -> None:
    try:
        chain = chain_from_doc(doc)
        count_limit_hamilton_cycles(chain)
        for end in ("left", "right") if chain.mode == "two-ended" else ("right",):
            end_degree(chain, end)
    except (GraphError, ChainError):
        pass


@settings(max_examples=150, deadline=None)
@given(mutated(GRAPH_DOCS))
def test_graph_loader_returns_a_graph_or_raises_graph_error(case):
    _graph_outcome(case[1])


@settings(max_examples=150, deadline=None)
@given(mutated(CHAIN_DOCS))
def test_chain_loader_returns_a_chain_or_raises_typed_errors(case):
    _chain_outcome(case[1])


def _cli(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(list(argv))


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.json"


@settings(max_examples=60, deadline=None)
@given(case=mutated(GRAPH_DOCS))
def test_cli_exits_0_or_2_on_mutated_graphs(scratch_file, case):
    name, doc = case
    scratch_file.write_text(json.dumps(doc))
    v, w = (vertex["label"] for vertex in GRAPH_DOCS[name]["vertices"][:2])
    for argv in (
        ("hamilton", "count", str(scratch_file)),
        ("incidence", str(scratch_file), "--v", v, "--w", w),
        ("export-dot", str(scratch_file)),
    ):
        assert _cli(*argv) in (0, 2), argv


@settings(max_examples=60, deadline=None)
@given(case=mutated(CHAIN_DOCS))
def test_cli_exits_0_or_2_on_mutated_chains(scratch_file, case):
    scratch_file.write_text(json.dumps(case[1]))
    for argv in (
        ("chain", "analyze", str(scratch_file)),
        ("export-dot", str(scratch_file), "--levels", "2"),
    ):
        assert _cli(*argv) in (0, 2), argv


@pytest.mark.parametrize("name", sorted(CHAIN_DOCS))
def test_non_cubic_piece_and_mismatched_interface(name, scratch_file):
    doc = json.loads(json.dumps(CHAIN_DOCS[name]))
    del doc["right" if doc["mode"] == "two-ended" else "tail"]["period"][0]["graph"]["edges"][0]
    with pytest.raises(ChainError, match="has degree 2 with its stubs, not 3"):
        chain_from_doc(doc)
    scratch_file.write_text(json.dumps(doc))
    assert _cli("chain", "analyze", str(scratch_file)) == 2

    doc = json.loads(json.dumps(CHAIN_DOCS[name]))
    iface = doc["right" if doc["mode"] == "two-ended" else "tail"]["period_interfaces"][0]
    iface[0][0] = "no-such-stub"
    with pytest.raises(ChainError):
        chain_from_doc(doc)
    scratch_file.write_text(json.dumps(doc))
    assert _cli("chain", "analyze", str(scratch_file)) == 2
