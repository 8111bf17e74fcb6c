"""The split search: each full search of a graph query runs in two halves,
one in a forked helper process (`hamilton._split`).

A split query must answer exactly what the serial one does, and the helper
must start only where it may, leave no process behind, and fall back to a
serial search whenever it fails.  The split is forced on or off by patching
`hamilton._cpus`, so these tests also run on a single CPU; the lifecycle
tests run in fresh interpreters, where killing or breaking the helper cannot
touch this process's.
"""

import os
import random
import signal
import subprocess
import sys
import textwrap
import time
from itertools import compress
from pathlib import Path

import pytest

import cubicham
from cubicham import (
    GraphError,
    constructions,
    count_by_trace,
    count_through,
    edge_parity_report,
    hamilton,
    random_cubic_graph,
    random_odd_degree_graph,
)
from cubicham.cli import main


@pytest.fixture
def split(monkeypatch):
    monkeypatch.setattr(hamilton, "_cpus", lambda: 2)


def _each_way(monkeypatch, query):
    """`query()` computed serially, then split."""
    monkeypatch.setattr(hamilton, "_cpus", lambda: 1)
    serial = query()
    monkeypatch.setattr(hamilton, "_cpus", lambda: 2)
    return serial, query()


def _graphs() -> dict:
    graphs = {name: build() for name, build in constructions.BUILTIN_GRAPHS.items()}
    for n in range(10, 26, 2):
        graphs[f"cubic{n}"] = random_cubic_graph(n, random.Random(n))
    for n in (12, 14):
        graphs[f"odd{n}"] = random_odd_degree_graph(n, random.Random(n))
    # the bench's dense all-odd graph: n = 16, m = 48, 22 145 cycles, the
    # third draw of one Random(2)
    rng = random.Random(2)
    graphs["dense16"] = [random_odd_degree_graph(n, rng) for n in (12, 14, 16)][-1]
    return graphs


GRAPHS = _graphs()


def _anchors(G) -> tuple:
    return G.vertices[0], G.vertices[-1]


def _constraints(G) -> list:
    """(require, forbid) pairs: none, one edge each way, and two edges."""
    rng = random.Random(G.m)
    a, b, c = rng.sample(range(G.m), 3)
    return [((), ()), ({a}, ()), ((), {a}), ({a}, {b}), ({a, b}, {c})]


def _part_cycles(G, part) -> list:
    ids = range(G.m)
    out = []
    hamilton._search(G.ints, (), (), lambda s: out.append(tuple(compress(ids, map(hamilton._is_in, s)))), part=part)
    return out


@pytest.mark.parametrize("name", list(GRAPHS))
def test_the_halves_visit_each_cycle_once(name):
    G = GRAPHS[name]
    whole = _part_cycles(G, None)
    halves = [_part_cycles(G, half) for half in hamilton._HALVES]
    assert sorted(halves[0] + halves[1]) == sorted(whole)
    assert len(set(whole)) == len(whole)
    # each half keeps the serial search's order
    for half in halves:
        mine = set(half)
        assert half == [c for c in whole if c in mine]


def test_both_halves_search_on_a_large_graph():
    # the split deals out subtrees below depth 6, so neither half is empty
    counts = [len(_part_cycles(GRAPHS["dense16"], half)) for half in hamilton._HALVES]
    assert sum(counts) == 22145 and min(counts) > 0


@pytest.mark.parametrize("name", list(GRAPHS))
def test_split_queries_answer_what_serial_ones_do(monkeypatch, name):
    G = GRAPHS[name]
    graph = G.ints
    for require, forbid in _constraints(G):
        serial, split = _each_way(monkeypatch, lambda: count_through(G, require, forbid))
        assert split == serial
        halves = [hamilton._count(graph, frozenset(require), frozenset(forbid), h) for h in hamilton._HALVES]
        assert sum(halves) == serial
    serial, split = _each_way(monkeypatch, lambda: edge_parity_report(G))
    assert split == serial
    halves = [hamilton._edge_tally(graph, h) for h in hamilton._HALVES]
    assert [a + b for a, b in zip(halves[0][0], halves[1][0])] == [serial.counts[i] for i in range(G.m)]
    assert halves[0][1] + halves[1][1] == serial.total
    groups = [G.edges_at(v) for v in _anchors(G)]
    serial, split = _each_way(monkeypatch, lambda: count_by_trace(G, groups))
    assert split == serial
    tables = [hamilton._trace_counts(graph, groups, h) for h in hamilton._HALVES]
    merged = dict(tables[0])
    for key, count in tables[1].items():
        merged[key] = merged.get(key, 0) + count
    assert merged == hamilton._trace_counts(graph, groups)


def _cli_json(tmp_path, G, name) -> list:
    """The exit codes and JSON replies of the graph queries that split, on a
    file of G."""
    path = str(tmp_path / f"{name}.json")
    Path(path).write_text(G.to_json())
    v, w = _anchors(G)
    labels = [e.label for e in G.edges]
    commands = [
        ["hamilton", "count", path],
        ["hamilton", "parity", path],
        ["hamilton", "through", path, "--require", labels[0]],
        ["hamilton", "through", path, "--require", labels[1], "--forbid", labels[-1]],
        ["incidence", path, "--v", v, "--w", w],
    ]
    reply = tmp_path / "reply"
    return [
        (main(["--format", "json", "--out", str(reply), *argv]), reply.read_bytes())
        for argv in commands
    ]


@pytest.mark.parametrize("name", ["tutte-quotient", "cube", "cubic24", "odd14", "dense16"])
def test_split_replies_are_byte_identical(monkeypatch, tmp_path, name):
    serial, split = _each_way(monkeypatch, lambda: _cli_json(tmp_path, GRAPHS[name], name))
    assert split == serial
    assert all(code in (0, 1) for code, _ in serial)


def test_only_the_visiting_search_splits():
    G = GRAPHS["cube"]
    with pytest.raises(ValueError):
        hamilton._search(G.ints, (), (), lambda s: True, lowest_first=True, part=(0, 2))
    with pytest.raises(ValueError):
        hamilton._search(G.ints, (), (), None, groups=[0], part=(0, 2))


def test_a_bad_edge_set_raises_before_the_split(split):
    G = GRAPHS["cube"]
    with pytest.raises(GraphError, match="overlap"):
        count_through(G, {0}, {0})
    with pytest.raises(GraphError, match="unknown edge id"):
        count_through(G, {G.m})
    assert count_through(G) == 6


# -- the helper's lifecycle, each in a fresh interpreter -------------------------


def _env() -> dict:
    """The environment of a fresh interpreter that imports this checkout's
    package."""
    src = str(Path(cubicham.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _python(code: str) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter."""
    cmd = [sys.executable, "-c", textwrap.dedent(code)]
    return subprocess.run(cmd, capture_output=True, text=True, env=_env(), timeout=60)


# what the process's helper is: "none" if none started, "running" or
# "stopped"; and whether the process has a child left
STATE = """
def state():
    import os, sys
    from cubicham import hamilton
    helper = getattr(sys, hamilton._SLOT, None)
    try:
        os.waitpid(-1, os.WNOHANG)
        child = "child"
    except ChildProcessError:
        child = "no child"
    return ("none" if helper is None else "stopped" if helper.pid is None else "running", child)
"""

QUIET = """
import contextlib, io
def quiet(argv):
    from cubicham.cli import main
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    return code, out.getvalue()
"""


def test_the_chain_engine_and_the_import_start_no_process():
    proc = _python(STATE + QUIET + """
import cubicham.cli
print(state())
print(quiet(["chain", "analyze", "chain-H"])[0], quiet(["chain", "check", "chain-Hprime"])[0])
print(state())
""")
    assert proc.stdout == "('none', 'no child')\n0 0\n('none', 'no child')\n", proc.stderr


def test_the_helper_is_gone_when_the_process_exits():
    proc = _python(STATE + QUIET + """
import sys
from cubicham import hamilton
hamilton._cpus = lambda: 2
print(quiet(["hamilton", "count", "tutte-quotient"]), state())
print(getattr(sys, hamilton._SLOT).pid)
""")
    *lines, pid = proc.stdout.splitlines()
    assert lines == ["(0, '6\\n') ('running', 'child')"], proc.stderr
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid), 0)


def test_a_killed_helper_leaves_the_next_query_serial_and_right():
    proc = _python(STATE + QUIET + """
import os, signal, sys
from cubicham import hamilton
hamilton._cpus = lambda: 2
print(quiet(["hamilton", "count", "tutte-quotient"]))
os.kill(getattr(sys, hamilton._SLOT).pid, signal.SIGKILL)
print(quiet(["hamilton", "count", "tutte-quotient"]), state())
print(quiet(["hamilton", "count", "tutte-quotient"]), state())
""")
    assert proc.stdout.splitlines() == [
        "(0, '6\\n')",
        "(0, '6\\n') ('stopped', 'no child')",
        "(0, '6\\n') ('stopped', 'no child')",
    ], proc.stderr


def test_a_refused_query_leaves_no_reply_for_the_next():
    proc = _python(STATE + QUIET + """
import sys
from cubicham import hamilton
from cubicham.cli import main
hamilton._cpus = lambda: 2
print(quiet(["hamilton", "count", "cube"]))
pid = getattr(sys, hamilton._SLOT).pid
print(main(["hamilton", "through", "tutte-quotient", "--require", "e_x", "--forbid", "e_x"]))
print(quiet(["hamilton", "through", "cube", "--require", "000-100"]), quiet(["hamilton", "count", "k4"]))
print(getattr(sys, hamilton._SLOT).pid == pid, state())
""")
    assert proc.stdout.splitlines() == [
        "(0, '6\\n')",
        "2",
        "(0, '4\\n') (0, '3\\n')",
        "True ('running', 'child')",
    ], proc.stdout + proc.stderr
    assert "require and forbid overlap" in proc.stderr


def test_a_failing_helper_job_is_searched_here():
    # the helper is forked with a job that raises: its error reply makes the
    # parent search that half itself and stop the helper
    proc = _python(STATE + QUIET + """
from cubicham import hamilton
def _count(*args):
    raise RuntimeError("broken")
hamilton._JOBS["_count"] = _count
hamilton._cpus = lambda: 2
print(quiet(["hamilton", "count", "tutte-quotient"]), state())
print(quiet(["hamilton", "parity", "k4"])[0], state())
""")
    assert proc.stdout.splitlines() == [
        "(0, '6\\n') ('stopped', 'no child')",
        "0 ('stopped', 'no child')",
    ], proc.stderr


def test_an_interrupted_query_stops_the_helper():
    # a reply left unread by an interrupted query would be read by the next
    proc = _python(STATE + """
from cubicham import count_through, cube, hamilton, petersen
hamilton._cpus = lambda: 2
real = hamilton._count
def _count(graph, require, forbid, part):
    if part == (0, 2):
        raise KeyboardInterrupt
    return real(graph, require, forbid, part)
hamilton._count = _count
try:
    count_through(cube())
except KeyboardInterrupt:
    print("interrupted", state())
hamilton._count = real
print(count_through(cube()), count_through(petersen()), state())
""")
    assert proc.stdout.splitlines() == [
        "interrupted ('stopped', 'no child')",
        "6 0 ('stopped', 'no child')",
    ], proc.stderr


def test_the_helper_leaves_when_its_pipe_closes():
    proc = _python("""
import os, sys
from cubicham import count_through, cube, hamilton
hamilton._cpus = lambda: 2
count_through(cube())
helper = getattr(sys, hamilton._SLOT)
helper.requests.close()
pid, status = os.waitpid(helper.pid, 0)
helper.pid = None
print(os.waitstatus_to_exitcode(status))
""")
    assert proc.stdout == "0\n", proc.stderr


def test_one_helper_serves_every_import_of_the_package():
    proc = _python("""
import importlib, sys
from cubicham import count_through, cube, hamilton
hamilton._cpus = lambda: 2
count_through(cube())
helper = getattr(sys, hamilton._SLOT)
for name in [m for m in sys.modules if m == "cubicham" or m.startswith("cubicham.")]:
    del sys.modules[name]
fresh = importlib.import_module("cubicham.hamilton")
fresh._cpus = lambda: 2
print(fresh is not hamilton, fresh.count_through(importlib.import_module("cubicham").cube()))
print(getattr(sys, fresh._SLOT) is helper, helper.pid is not None)
""")
    assert proc.stdout.splitlines() == ["True 6", "True True"], proc.stderr


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform")
def test_no_helper_starts_on_one_cpu():
    proc = _python(STATE + QUIET + """
import os
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
print(quiet(["hamilton", "parity", "k4"])[0], quiet(["incidence", "tutte-quotient", "--v", "w", "--w", "v"])[0])
print(state())
""")
    assert proc.stdout.splitlines() == ["0 0", "('none', 'no child')"], proc.stderr


def test_no_helper_starts_beside_another_thread():
    proc = _python(STATE + """
import threading
from cubicham import count_through, cube, hamilton
hamilton._cpus = lambda: 2
done = threading.Event()
thread = threading.Thread(target=done.wait)
thread.start()
print(count_through(cube()), state())
done.set()
thread.join(10)
print(thread.is_alive(), count_through(cube()), state())
""")
    assert proc.stdout.splitlines() == [
        "6 ('none', 'no child')",
        "False 6 ('running', 'child')",
    ], proc.stderr


def test_a_forked_child_starts_its_own_helper():
    # a child forked without exec holds copies of the parent's pipes: it must
    # not talk to the parent's helper, whose replies the parent reads
    proc = _python(STATE + """
import os, sys
from cubicham import count_through, cube, hamilton, k4
hamilton._cpus = lambda: 2
count_through(cube())
parent = getattr(sys, hamilton._SLOT).pid
pid = os.fork()
if pid == 0:
    ok = count_through(k4()) == 3 and getattr(sys, hamilton._SLOT).pid not in (None, parent)
    os._exit(0 if ok else 1)
_, status = os.waitpid(pid, 0)
print(os.waitstatus_to_exitcode(status), count_through(cube()), getattr(sys, hamilton._SLOT).pid == parent, state())
""")
    assert proc.stdout == "0 6 True ('running', 'child')\n", proc.stderr


def _running(pid: int) -> bool:
    """Whether process `pid` exists and has not exited (a zombie has)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_the_helper_leaves_mid_search_when_its_parent_is_killed():
    # a parent killed by SIGTERM runs no exit hook; its helper, busy with its
    # half of a search that takes minutes, must not search on alone
    code = """
import random, sys
from cubicham import count_through, cube, hamilton, random_cubic_graph
hamilton._cpus = lambda: 2
count_through(cube())
print(getattr(sys, hamilton._SLOT).pid, flush=True)
count_through(random_cubic_graph(120, random.Random(5)))
"""
    proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True, env=_env())
    helper = int(proc.stdout.readline())
    try:
        time.sleep(0.3)  # the long search has begun
        assert proc.poll() is None and _running(helper)
        proc.terminate()
        proc.wait(10)
        deadline = time.monotonic() + 5
        while _running(helper) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _running(helper)
    finally:
        proc.kill()
        proc.wait(10)
        proc.stdout.close()
        if _running(helper):
            os.kill(helper, signal.SIGKILL)
