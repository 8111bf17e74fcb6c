import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import cubicham
from cubicham import cli, from_json
from cubicham.cli import main
from util import alternating_double_ladder, random_chain, renamed_stubs


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_construct_quotient(capsys):
    code, out, _ = run(capsys, "construct", "tutte-quotient")
    assert code == 0
    G = from_json(out)
    assert G.n == 16 and G.is_cubic()


def test_construct_replacement(capsys):
    code, out, _ = run(capsys, "construct", "replacement", "--n", "1")
    assert code == 0
    assert from_json(out).n == 30


def test_construct_chain_and_out_file(tmp_path, capsys):
    target = tmp_path / "chain.json"
    code, out, _ = run(capsys, "--out", str(target), "construct", "chain-H")
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["mode"] == "one-ended"


@pytest.mark.parametrize(
    "argv",
    [
        ("--format", "json", "hamilton", "count", "k4"),
        ("incidence", "tutte-quotient", "--v", "w", "--w", "v"),
        ("--format", "json", "chain", "analyze", "chain-H"),
    ],
)
def test_out_file_holds_what_stdout_held(tmp_path, capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out
    target = tmp_path / "out.txt"
    assert run(capsys, "--out", str(target), *argv) == (0, "", "")
    assert target.read_text() == out


def test_construct_truncation_and_segment(capsys):
    code, out, _ = run(capsys, "construct", "truncation", "--chain", "chain-ladder", "--k", "2")
    assert code == 0 and from_json(out).n == 9
    code, out, _ = run(capsys, "construct", "segment", "--chain", "chain-G", "--n", "0")
    assert code == 0 and from_json(out).n == 16


def test_construct_unknown_name(capsys):
    code, _, err = run(capsys, "construct", "nonsense")
    assert code == 2 and "error" in err


def test_hamilton_count_and_through(capsys):
    code, out, _ = run(capsys, "hamilton", "count", "tutte-quotient")
    assert code == 0 and out.strip() == "6"
    code, out, _ = run(capsys, "hamilton", "through", "tutte-quotient", "--require", "e_x,e_y")
    assert code == 0 and out.strip() == "0"
    code, out, _ = run(capsys, "hamilton", "through", "tutte-quotient", "--require", "e_y,e_z")
    assert code == 0 and out.strip() == "4"


def test_hamilton_count_cube(capsys):
    code, out, _ = run(capsys, "hamilton", "count", "cube")
    assert code == 0 and out.strip() == "6"


def test_hamilton_list_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "hamilton", "list", "k4")
    assert code == 0
    assert len(json.loads(out)["cycles"]) == 3


# K4 has three Hamilton cycles; two use edge 12, and both of those use 34
@pytest.mark.parametrize(
    "require, forbid, cycles",
    [("12", None, 2), (None, "12", 1), ("12", "34", 0), ("12,34", None, 2)],
)
def test_hamilton_count_and_list_honour_require_and_forbid(capsys, require, forbid, cycles):
    options = []
    if require:
        options += ["--require", require]
    if forbid:
        options += ["--forbid", forbid]
    for sub in ("count", "through"):
        assert run(capsys, "hamilton", sub, "k4", *options) == (0, f"{cycles}\n", "")
    code, out, _ = run(capsys, "hamilton", "list", "k4", *options)
    listed = [line.split() for line in out.splitlines() if line]
    assert code == 0 and len(listed) == cycles
    for cycle in listed:
        assert set((require or "").split(",")) - {""} <= set(cycle)
        assert forbid not in cycle


@pytest.mark.parametrize(
    "sub, option",
    [
        ("count", "--edge"),
        ("list", "--edge"),
        ("through", "--edge"),
        ("parity", "--require"),
        ("parity", "--forbid"),
        ("parity", "--edge"),
        ("second", "--require"),
        ("second", "--forbid"),
    ],
)
def test_hamilton_refuses_an_option_it_does_not_read(capsys, sub, option):
    code, out, err = run(capsys, "hamilton", sub, "k4", option, "12")
    assert code == 2 and out == ""
    assert f"hamilton {sub} takes no {option}" in err


def test_hamilton_parity(capsys):
    code, out, _ = run(capsys, "hamilton", "parity", "k4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "edge,count"
    assert all(line.endswith(",2") for line in lines[1:])


def test_hamilton_second(capsys):
    code, out, _ = run(capsys, "hamilton", "second", "tutte-quotient", "--edge", "e_z")
    assert code == 0
    first, second = out.strip().splitlines()
    assert first != second and "e_z" in first and "e_z" in second


def test_hamilton_second_unreachable_edge(capsys):
    code, _, err = run(capsys, "hamilton", "second", "petersen", "--edge", "o0o1")
    assert code == 1


def test_incidence(capsys):
    code, out, _ = run(capsys, "incidence", "tutte-quotient", "--v", "w", "--w", "v")
    assert code == 0
    assert "{e_y,e_z}" in out and "pair sums even: True" in out


def test_incidence_text_is_pinned(capsys):
    # columns right-justified to their widest cell, two spaces apart
    assert run(capsys, "incidence", "tutte-quotient", "--v", "w", "--w", "v") == (0, (
        "           {f_b,f_c}  {f_a,f_b}  {f_a,f_c}\n"
        "{e_x,e_y}          0          0          0\n"
        "{e_x,e_z}          0          1          1\n"
        "{e_y,e_z}          2          1          1\n"
        "pair sums even: True\n"
        "uniform parity: True\n"
    ), "")


def test_chain_analyze(capsys):
    code, out, _ = run(capsys, "chain", "analyze", "chain-H")
    assert code == 0 and "Finite(2)" in out and "end degree: right=3" in out
    code, out, _ = run(capsys, "--format", "json", "chain", "analyze", "chain-Hprime")
    doc = json.loads(out)
    assert code == 0 and doc["classification"] == "Finite(1)" and doc["count"] == 1
    code, out, _ = run(capsys, "--format", "json", "chain", "analyze", "chain-G")
    doc = json.loads(out)
    assert doc["classification"] == "Infinite"
    assert sorted(doc["witness"]["state"]) == ["f_b", "f_c"]


def test_chain_check(capsys):
    code, out, _ = run(capsys, "chain", "check", "chain-double-ladder", "--depth", "3")
    assert code == 0 and out.count("ok") == 3


@pytest.mark.parametrize(
    "chain, depth, first", [("chain-ladder", "-1", 0), ("chain-double-ladder", "0", 1)]
)
def test_chain_check_refuses_a_depth_below_the_first_level(capsys, chain, depth, first):
    code, out, err = run(capsys, "--format", "json", "chain", "check", chain, "--depth", depth)
    assert (code, out) == (2, "")
    assert f"--depth must be at least {first}, the first level" in err


def test_chain_check_depth_zero_on_a_one_ended_chain(capsys):
    assert run(capsys, "chain", "check", "chain-ladder", "--depth", "0") == (0, "depth 0: ok\n", "")


def test_chain_name_must_be_a_string(tmp_path, capsys):
    doc = json.loads(cubicham.chain_to_json(cubicham.chain_ladder()))
    doc["name"] = {"a": [1]}
    target = tmp_path / "c.json"
    target.write_text(json.dumps(doc))
    code, out, err = run(capsys, "chain", "analyze", str(target))
    assert (code, out) == (2, "") and "name" in err


def test_swapped_right_tail_is_a_usage_error(tmp_path, capsys):
    doc = json.loads(cubicham.chain_to_json(alternating_double_ladder()))
    target = tmp_path / "c.json"
    target.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "chain", "analyze", str(target))
    assert code == 0 and "classification: Finite(1)" in out
    # the two junctions of the period written the wrong way round
    doc["right"]["period_interfaces"].reverse()
    target.write_text(json.dumps(doc))
    code, out, err = run(capsys, "chain", "analyze", str(target))
    assert (code, out) == (2, "") and "interface does not match" in err


def test_witness_on_the_left_ray_is_named_by_the_left_matching(tmp_path, capsys):
    # two-ended, Infinite, branching on the left ray at level 2; with every
    # piece's stubs renamed apart, the state there is named by the right
    # stubs of left piece 3, which is the left tail's only period piece l1
    chain = renamed_stubs(random_chain(random.Random(15), False, 3))
    target = tmp_path / "c.json"
    target.write_text(cubicham.chain_to_json(chain))
    code, out, _ = run(capsys, "--format", "json", "chain", "analyze", str(target))
    witness = {"level": 2, "out_multiplicity": 2, "state": ["l1.R0", "l1.R1"]}
    assert code == 0 and json.loads(out)["witness"] == witness
    code, out, _ = run(capsys, "chain", "analyze", str(target))
    assert "branching witness: level 2, state {l1.R0,l1.R1}, out-multiplicity 2" in out


def test_chain_file_roundtrip(tmp_path, capsys):
    target = tmp_path / "c.json"
    run(capsys, "--out", str(target), "construct", "chain-ladder")
    code, out, _ = run(capsys, "chain", "analyze", str(target))
    assert code == 0 and "Finite(2)" in out


def test_malformed_chain_json_is_usage_error(tmp_path, capsys):
    target = tmp_path / "bad.json"
    target.write_text('{"mode":"one-ended","pieces":{}}')
    code, _, err = run(capsys, "chain", "analyze", str(target))
    assert code == 2 and "malformed chain JSON" in err


@pytest.mark.parametrize(
    "graph", [5, {"vertices": [{"label": "a"}], "edges": [{"label": "x", "ends": ["a", "b"]}]}]
)
def test_malformed_piece_graph_is_usage_error(tmp_path, capsys, graph):
    doc = json.loads(cubicham.chain_to_json(cubicham.chain_G()))
    doc["tail"]["period"][0]["graph"] = graph
    target = tmp_path / "bad.json"
    target.write_text(json.dumps(doc))
    code, _, err = run(capsys, "chain", "analyze", str(target))
    assert code == 2 and "error" in err


def test_export_dot(capsys):
    code, out, _ = run(capsys, "export-dot", "k4")
    assert code == 0 and out.startswith("graph")
    code, out, _ = run(capsys, "export-dot", "chain-ladder", "--levels", "2")
    assert code == 0 and "F0:" in out


@pytest.mark.parametrize("name", ["chain-ladder", "chain-double-ladder"])
@pytest.mark.parametrize("levels", ["0", "-2"])
def test_export_dot_needs_a_level(capsys, name, levels):
    code, out, err = run(capsys, "export-dot", name, "--levels", levels)
    assert (code, out) == (2, "") and "at least 1 level" in err


def test_export_dot_reads_graph_and_chain_files(tmp_path, capsys):
    graph, chain = tmp_path / "g.json", tmp_path / "c.json"
    run(capsys, "--out", str(graph), "construct", "k4")
    run(capsys, "--out", str(chain), "construct", "chain-ladder")
    assert run(capsys, "export-dot", str(graph)) == run(capsys, "export-dot", "k4")
    assert run(capsys, "export-dot", str(chain), "--levels", "2") == run(
        capsys, "export-dot", "chain-ladder", "--levels", "2"
    )


@pytest.mark.parametrize("literal", ["3", "null", "true"])
def test_export_dot_refuses_a_json_literal(tmp_path, capsys, literal):
    target = tmp_path / "x.json"
    target.write_text(literal)
    code, out, err = run(capsys, "export-dot", str(target))
    assert (code, out) == (2, "") and "malformed graph JSON" in err


# where a graph file is malformed -> its error message: a label or end that
# is not a string gets the message `MultiGraph` gives for it
MALFORMED_GRAPHS = {
    "vertex label": "label or end ['0'] is not a string",
    "edge label": "label or end {'a': 1} is not a string",
    "edge end": "label or end ['1'] is not a string",
    "ends as a string": "malformed graph JSON: edge '12' has ends '12', not a list of two",
    "three ends": "malformed graph JSON: edge '12' has ends ['1', '2', 'zzz'], not a list of two",
}


@pytest.mark.parametrize("where", list(MALFORMED_GRAPHS))
def test_unhashable_graph_labels_are_usage_errors(tmp_path, capsys, where):
    doc = cubicham.k4().to_doc()
    if where == "vertex label":
        doc["vertices"][0]["label"] = ["0"]
    elif where == "edge label":
        doc["edges"][0]["label"] = {"a": 1}
    elif where == "edge end":
        doc["edges"][0]["ends"][1] = ["1"]
    elif where == "ends as a string":
        doc["edges"][0]["ends"] = "".join(doc["edges"][0]["ends"])  # once read as its letters
    else:
        doc["edges"][0]["ends"].append("zzz")  # once read as its first two
    target = tmp_path / "bad.json"
    target.write_text(json.dumps(doc))
    for argv in (
        ["--format", "json", "hamilton", "count", str(target)],
        ["incidence", str(target), "--v", "0", "--w", "1"],
        ["export-dot", str(target)],
    ):
        assert run(capsys, *argv) == (2, "", f"error: {MALFORMED_GRAPHS[where]}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["hamilton", "count", "chain-G"], "'chain-G' is a chain, not a graph"),
        (["incidence", "chain-H", "--v", "x", "--w", "y"], "'chain-H' is a chain, not a graph"),
        (["chain", "analyze", "k4"], "'k4' is a graph, not a chain"),
        (["construct", "truncation", "--chain", "cube", "--k", "1"], "'cube' is a graph, not a chain"),
    ],
)
def test_a_built_in_of_the_other_kind_is_refused(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_a_file_of_the_other_kind_is_refused(tmp_path, capsys):
    graph, chain = tmp_path / "g.json", tmp_path / "c.json"
    run(capsys, "--out", str(graph), "construct", "k4")
    run(capsys, "--out", str(chain), "construct", "chain-G")
    assert run(capsys, "hamilton", "count", str(chain)) == (
        2, "", f"error: {str(chain)!r} is a chain, not a graph\n"
    )
    assert run(capsys, "chain", "analyze", str(graph)) == (
        2, "", f"error: {str(graph)!r} is a graph, not a chain\n"
    )


def test_a_graph_file_with_a_mode_key_is_read_as_a_chain(tmp_path, capsys):
    doc = cubicham.k4().to_doc()
    doc["mode"] = "graph"
    target = tmp_path / "g.json"
    target.write_text(json.dumps(doc))
    code, out, err = run(capsys, "hamilton", "count", str(target))
    assert (code, out) == (2, "") and "is a chain, not a graph" in err
    code, out, err = run(capsys, "export-dot", str(target))
    assert (code, out) == (2, "") and "unknown chain mode 'graph'" in err


NESTED = "[" * 200_000 + "]" * 200_000

# file contents that cannot be decoded as JSON at all
UNREADABLE = {
    "not UTF-8": b"\x80abc",
    "nested too deep": NESTED.encode(),
    "a chain nested too deep": f'{{"mode": "one-ended", "pieces": {NESTED}}}'.encode(),
}


@pytest.mark.parametrize("content", list(UNREADABLE))
@pytest.mark.parametrize(
    "command",
    [
        ["hamilton", "count"],
        ["incidence", "--v", "x", "--w", "y"],
        ["chain", "analyze"],
        ["export-dot"],
    ],
)
def test_an_unreadable_file_is_a_usage_error(tmp_path, capsys, command, content):
    target = tmp_path / "bad.json"
    target.write_bytes(UNREADABLE[content])
    code, out, err = run(capsys, *command, str(target))
    assert (code, out) == (2, "") and err.startswith(f"error: {str(target)!r} is not a JSON file")


def test_unknown_graph_is_usage_error(capsys):
    code, _, err = run(capsys, "hamilton", "count", "no-such-thing")
    assert code == 2 and "error" in err


def test_unknown_edge_label(capsys):
    code, _, err = run(capsys, "hamilton", "through", "k4", "--require", "zz")
    assert code == 2


def test_jobs_flag(capsys):
    code, out, _ = run(capsys, "--jobs", "2", "hamilton", "count", "tutte-quotient")
    assert code == 0 and out.strip() == "6"
    # accepted and ignored: the listing is the one without the flag
    listing = run(capsys, "hamilton", "list", "tutte-quotient")
    assert listing[0] == 0 and len(listing[1].splitlines()) == 6
    assert run(capsys, "--jobs", "2", "hamilton", "list", "tutte-quotient") == listing


def test_seed_flag_is_gone(capsys):
    # no command draws random numbers, so there is no global seed to set
    with pytest.raises(SystemExit) as exc:
        main(["--seed", "1", "hamilton", "count", "k4"])
    assert exc.value.code == 2
    assert "--seed" not in capsys.readouterr().err.splitlines()[0]


def _python(*argv) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports this checkout's package."""
    src = str(Path(cubicham.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    cmd = [sys.executable, *argv]
    return subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=60)


def test_python_m_cubicham_runs_the_cli():
    def run_module(*argv):
        return _python("-m", "cubicham", *argv)

    proc = run_module("hamilton", "count", "cube")
    assert proc.returncode == 0 and proc.stdout == "6\n"
    assert run_module("hamilton", "count", "no-such-graph").returncode == 2


def test_parser_is_built_once_per_process(capsys):
    cli._build_parser.cache_clear()
    for _ in range(3):
        assert run(capsys, "hamilton", "count", "cube") == (0, "6\n", "")
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_reused_parser_keeps_no_option_between_calls(capsys):
    code, out, _ = run(capsys, "--format", "json", "chain", "check", "chain-ladder", "--depth", "3")
    assert (code, json.loads(out)) == (0, {"ok": True, "depths": [0, 1, 2, 3]})
    # the next call gets the defaults again: text output, depth 2
    assert run(capsys, "chain", "check", "chain-ladder") == (
        0, "depth 0: ok\ndepth 1: ok\ndepth 2: ok\n", ""
    )


def test_reused_parser_still_refuses_bad_arguments(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["hamilton", "nope", "cube"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    assert run(capsys, "hamilton", "count", "cube") == (0, "6\n", "")


def test_import_loads_no_process_pool():
    code = (
        "import sys, cubicham.cli;"
        "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
    )
    proc = _python("-c", code)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_the_cli_imports_only_the_standard_library():
    # modules loaded before the package (by `.pth` files, say) are not its
    # doing, so only the modules that the commands add are checked
    code = """
import contextlib, io, sys
before = set(sys.modules)
from cubicham.cli import main
commands = [
    ["chain", "analyze", "chain-H"],
    ["chain", "check", "chain-Hprime", "--depth", "1"],
    ["hamilton", "parity", "k4"],
    ["incidence", "tutte-quotient", "--v", "w", "--w", "v"],
    ["export-dot", "chain-ladder"],
    ["construct", "chain-G"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in commands]
added = {name.partition(".")[0] for name in set(sys.modules) - before}
print(codes, sorted(added - {"cubicham"} - sys.stdlib_module_names))
"""
    proc = _python("-c", code)
    assert (proc.returncode, proc.stdout) == (0, "[0, 0, 0, 0, 0, 0] []\n"), proc.stderr
