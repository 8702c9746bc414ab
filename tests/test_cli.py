import contextlib
import hashlib
import json
import os
import pickle
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from conftest import (FIGURE_EIGHT, HOPF, NOT_LOCAL, TREFOIL, braid_closure,
                      corpus_path, probe_closures)
from khss import cli, spectral, tqft
from khss.cli import main
from khss.cube import SizeCapError, classify_edge
from khss.diagram import StructureError, parse_pd, render
from khss.filtered import GradingError, build


# parses, but an R2 poke between arcs that share no face leaves cube
# edges that are neither a merge nor a split
NONPLANAR = ("PD[X(4,2,5,10),X(8,6,1,5),X(6,3,7,4),X(12,7,3,8),"
             "X(11,9,12,1),X(2,9,11,10)]")
# parses, but its marked component is the one arc 1, and a cube edge is
# not a local merge or split
ONE_ARC = "PD[X(2,1,2,1)]"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_trefoil_json(capsys):
    code, out, _ = run(capsys, "compute", "--pd", TREFOIL, "--reduced")
    assert code == 0
    record = json.loads(out)
    assert record["flavor"] == "reduced"
    assert sum(record["pages"]["2"].values()) == 3
    assert record["collapse_page"] == 2
    assert record["diagram"]["pd"].startswith("PD[")


def test_compute_unknot(capsys):
    code, out, _ = run(capsys, "compute", "--pd", "U", "--reduced")
    assert code == 0
    record = json.loads(out)
    assert record["pages"]["2"] == {"0,0": 1}
    assert record["total_homology"] == {"0": 1}


def test_compute_csv_output(capsys):
    code, out, _ = run(capsys, "compute", "--pd", "U", "--output", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "page,p,q,dim"
    assert "2,0,0,1" in lines


def test_compute_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "compute", "--pd", "PD[X(1,2,3)]")
    assert code == 2
    assert err


def test_compute_arc_out_of_range_names_its_crossing_exit_2(capsys):
    for pd, message in [
            ("PD[X(1,2,3,4)]", "crossing 1: arc 3 out of range 1..2"),
            ("PD[X(1,4,2,5),X(3,6,4,7),X(5,2,6,3)]",
             "crossing 2: arc 7 out of range 1..6")]:
        code, out, err = run(capsys, "compute", "--pd", pd)
        assert code == 2 and not out
        assert err == f"kh: invalid diagram: {message}\n"


def test_compute_nonplanar_diagram_exit_2(capsys):
    code, _, err = run(capsys, "compute", "--pd", NONPLANAR)
    assert code == 2
    assert "invalid diagram" in err
    for pd in NOT_LOCAL:
        code, _, err = run(capsys, "compute", "--pd", pd)
        assert code == 2
        assert "invalid diagram: cube edge is not a local merge" in err


def test_compute_unorientable_diagram_exit_2(capsys):
    code, out, err = run(capsys, "compute", "--pd", "PD[X(1,3,2,4),X(1,4,2,3)]")
    assert code == 2 and not out
    assert "invalid diagram: unorientable diagram" in err


def test_sweep_nonplanar_diagram_exit_2(capsys):
    code, _, err = run(capsys, "sweep", "--pd", NONPLANAR)
    assert code == 2
    assert "invalid diagram" in err


def test_sweep_builds_a_one_arc_marked_component(capsys):
    assert parse_pd(ONE_ARC).marked_component() == (1,)
    code, out, err = run(capsys, "sweep", "--pd", ONE_ARC)
    assert code == 2 and not out
    assert "invalid diagram: cube edge is not a local merge" in err
    # the walk meets the cap before the edge pass
    code, out, err = run(capsys, "sweep", "--pd", ONE_ARC,
                         "--max-generators", "1")
    assert code == 3 and not out
    assert "more than 1 generators" in err


def test_compute_bad_basepoint_exit_2(capsys):
    code, _, err = run(capsys, "compute", "--pd", TREFOIL, "--basepoint", "99")
    assert code == 2
    assert "invalid diagram: basepoint 99 is not a valid arc" in err
    # the same check on a basepoint given in the PD text
    code, _, err = run(capsys, "compute", "--pd", TREFOIL + "@arc=99")
    assert code == 2
    assert "invalid diagram: basepoint 99 is not a valid arc" in err


def test_compute_basepoint_past_the_arcs_names_its_position_exit_2(capsys):
    # the position is that of the '@' in the PD text
    for pd, message in [
            (TREFOIL + "@arc=7", "basepoint 7 is not a valid arc "
                                 "(at position 36)"),
            ("U@arc=1", "basepoint 1 is not a valid arc (at position 1)")]:
        code, out, err = run(capsys, "compute", "--pd", pd)
        assert code == 2 and not out
        assert err == f"kh: invalid diagram: {message}\n"


def test_compute_unreadable_file_exit_2(capsys):
    code, _, _ = run(capsys, "compute", "--pd", "@/no/such/file")
    assert code == 2


def test_compute_undecodable_file_exit_2(tmp_path, capsys):
    f = tmp_path / "d.pd"
    f.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, "compute", "--pd", f"@{f}")
    assert code == 2 and not out
    assert "cannot read PD file" in err


def test_compute_pd_from_file(tmp_path, capsys):
    f = tmp_path / "d.pd"
    records = []
    for encoding in ("utf-8", "utf-8-sig"):  # the second writes a BOM
        f.write_text(TREFOIL, encoding=encoding)
        code, out, _ = run(capsys, "compute", "--pd", f"@{f}")
        assert code == 0
        record = json.loads(out)
        assert record["collapse_page"] == 2
        del record["meta"]
        records.append(record)
    assert records[0] == records[1]


def test_size_cap_exit_3(capsys):
    code, _, err = run(capsys, "compute", "--pd", TREFOIL,
                       "--max-generators", "4")
    assert code == 3
    assert "generators" in err


def test_out_of_memory_exit_3(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "build", exhausted)
    code, out, err = run(capsys, "compute", "--pd", TREFOIL)
    assert code == 3 and not out
    assert err.startswith("kh: out of memory") and err.count("\n") == 1
    assert "Traceback" not in err


def test_out_of_memory_computing_the_pages_exit_3(capsys, monkeypatch,
                                                 forks, tmp_path):
    parent, compute = os.getpid(), cli.compute

    def exhausted(*args, **kwargs):  # for probe, in the forked worker only
        if argv[0] != "probe" or os.getpid() != parent:
            raise MemoryError
        return compute(*args, **kwargs)

    monkeypatch.setattr(cli, "compute", exhausted)
    monkeypatch.setattr(spectral, "compute", exhausted)
    two_cpus(monkeypatch)
    corpus = tmp_path / "corpus.csv"  # the trefoil falls to the child
    corpus.write_text(f"unknot,U\ntrefoil,{TREFOIL}\n")
    for argv in (("compute", "--pd", TREFOIL),
                 ("invariance", "--pd", TREFOIL, "--pd2", TREFOIL),
                 ("sweep", "--pd", TREFOIL),
                 ("probe", str(corpus), "--threads", "2")):
        code, out, err = run(capsys, *argv)
        assert code == 3 and not out, argv
        assert err.startswith("kh: out of memory") and err.count("\n") == 1
        assert "Traceback" not in err
    assert len(forks) == 1


def test_invariance_size_cap_exit_3(capsys):
    code, _, err = run(capsys, "invariance", "--pd", TREFOIL,
                       "--pd2", TREFOIL, "--max-generators", "4")
    assert code == 3
    assert "generators" in err


def test_size_cap_above_the_recursion_limit_exit_3(capsys):
    # T(2,1001) has at least 2^1001 generators, more than the default cap
    # and more than a list can hold under a cap of 2^1002: both are
    # refused before the walk, which would never finish
    pd = render(braid_closure([1] * 1001, 2))
    for cap in (1 << 26, 1 << 1002):
        for command in ("compute", "sweep"):
            code, out, err = run(capsys, command, "--pd", pd,
                                 "--max-generators", str(cap))
            assert code == 3 and not out, command
            assert err == f"kh: complex needs more than {cap} generators\n"


def test_max_generators_below_one_exit_2(capsys):
    for cap in ("0", "-5"):
        code, out, err = run(capsys, "compute", "--pd", TREFOIL,
                             "--max-generators", cap)
        assert code == 2
        assert "--max-generators" in err and not out


def test_compute_output_matches_pinned_digests(capsys):
    # sha256 of each `kh compute` record minus meta, for every corpus
    # knot in both flavors; a deliberate change of the output writes
    # the new digests to the file
    pinned = json.loads(
        (Path(__file__).parent / "data" / "compute_digests.json").read_text())
    got = {}
    for line in Path(corpus_path()).read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, pd = line.partition(",")
        for flavor in ("reduced", "unreduced"):
            code, out, _ = run(capsys, "compute", "--pd", pd, f"--{flavor}")
            assert code == 0
            record = json.loads(out)
            del record["meta"]
            body = json.dumps(record, sort_keys=True).encode()
            got[f"{name}/{flavor}"] = hashlib.sha256(body).hexdigest()
    assert got == pinned


def test_usage_error_exit_2(capsys):
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "compute")[0] == 2  # missing --pd


def test_deterministic_output(capsys):
    a = run(capsys, "compute", "--pd", TREFOIL)
    b = run(capsys, "compute", "--pd", TREFOIL)
    sa = json.loads(a[1])
    sb = json.loads(b[1])
    sa["meta"].pop("seconds")
    sb["meta"].pop("seconds")
    assert sa == sb


def test_ss_alias_max_page(capsys):
    code, out, _ = run(capsys, "ss", "--pd", TREFOIL, "--max-page", "2")
    assert code == 0
    assert set(json.loads(out)["pages"]) == {"2"}


def test_max_page_below_two_exit_2(capsys):
    # stored pages start at 2, so a lower cap would print no page
    for page in ("1", "0", "-3"):
        code, out, err = run(capsys, "compute", "--pd", TREFOIL,
                             "--max-page", page)
        assert code == 2
        assert "--max-page" in err and not out


def test_invariance_equal_and_unequal(capsys):
    code, out, _ = run(capsys, "invariance", "--pd", TREFOIL,
                       "--pd2", TREFOIL)
    assert code == 0 and "equal" in out
    code, _, err = run(capsys, "invariance", "--pd", TREFOIL,
                       "--pd2", FIGURE_EIGHT)
    assert code == 4
    assert "mismatch" in err


def test_invariance_parse_error(capsys):
    assert run(capsys, "invariance", "--pd", TREFOIL, "--pd2", "junk")[0] == 2


def test_sweep(capsys):
    for pd in (TREFOIL, HOPF):
        assert run(capsys, "sweep", "--pd", pd) == (0, "equal\n", "")


def test_sweep_mismatch_exit_4(capsys, monkeypatch):
    # pages that depend on the marked arc: the trefoil's at the first
    # arc, the figure-eight's at every other
    real, calls = cli.compute, []
    other = real(build(parse_pd(FIGURE_EIGHT)))

    def by_arc(c):
        calls.append(c)
        return real(c) if len(calls) == 1 else other

    monkeypatch.setattr(cli, "compute", by_arc)
    code, out, err = run(capsys, "sweep", "--pd", TREFOIL)
    assert code == 4 and not out
    assert "mismatch: basepoint 1 vs 2: first difference at page 2" in err
    assert len(calls) == 6  # one build per arc of the trefoil


def test_compute_grading_error_exit_1(capsys, monkeypatch):
    # a rule that breaks q on the edges shaped like the trefoil's at
    # vertex 0, crossing 0; a new rule misses the cached shapes
    shape = classify_edge(parse_pd(TREFOIL), 0, 0)
    real = tqft.edge_columns_reduced

    def corrupted(e):
        cols = real(e)
        return [cols[0] ^ 0b11, *cols[1:]] if e == shape else cols

    monkeypatch.setattr(tqft, "edge_columns_reduced", corrupted)
    code, out, err = run(capsys, "compute", "--pd", TREFOIL)
    assert code == 1 and not out
    assert ("kh: internal error: edge from vertex 0 at crossing 0 "
            "does not preserve q") in err


def test_invariance_and_sweep_check_d_squared(capsys, monkeypatch):
    # drop the entry monomial 0 -> monomial 0 from the edges shaped like
    # the trefoil's at vertex 0, crossing 0, so that d^2 != 0
    shape = classify_edge(parse_pd(TREFOIL), 0, 0)
    real = tqft.edge_columns_reduced

    def corrupted(e):
        cols = real(e)
        return [cols[0] ^ 1, *cols[1:]] if e == shape else cols

    monkeypatch.setattr(tqft, "edge_columns_reduced", corrupted)
    for argv in (("invariance", "--pd", TREFOIL, "--pd2", TREFOIL),
                 ("sweep", "--pd", TREFOIL)):
        code, out, err = run(capsys, *argv)
        assert code == 1 and not out
        assert "differential does not square to zero" in err


def test_probe_corpus(capsys, tmp_path):
    small = tmp_path / "small.csv"
    small.write_text(f"unknot,U\ntrefoil,{TREFOIL}\n")
    code, out, _ = run(capsys, "probe", str(small))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("name,flavor,collapse_page")
    assert len(lines) == 3
    assert all(row.split(",")[2] == "2" for row in lines[1:])


def test_probe_threads_below_one_exit_2(capsys, tmp_path):
    small = tmp_path / "small.csv"
    small.write_text("unknot,U\n")
    for threads in ("0", "-1"):
        code, out, err = run(capsys, "probe", str(small), "--threads", threads)
        assert code == 2
        assert "--threads" in err and not out


def test_probe_empty_corpus(capsys, tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("# nothing here\n")
    code, out, _ = run(capsys, "probe", str(empty))
    assert code == 0
    assert len(out.strip().splitlines()) == 1


def test_probe_malformed_corpus_names_line(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("unknot,U\noops,PD[X(1,2)]\n")
    code, _, err = run(capsys, "probe", str(bad))
    assert code == 2
    assert "2" in err


def test_probe_missing_file(capsys):
    assert run(capsys, "probe", "/no/such/corpus.csv")[0] == 2


@pytest.fixture
def mixed_corpus(tmp_path):
    """The unknot, the trefoil and two benchmark probe closures."""
    path = tmp_path / "mixed.csv"
    closures = probe_closures()[:2]
    path.write_text(f"unknot,U\ntrefoil,{TREFOIL}\n"
                    + "".join(f"b{i},{pd}\n" for i, pd in enumerate(closures)))
    return path


def test_probe_output_same_for_one_and_two_workers(capsys, tmp_path,
                                                   mixed_corpus):
    outs, names = {}, {}
    for threads in ("1", "2"):
        cache = tmp_path / f"cache{threads}"
        for phase in ("cold", "warm"):
            code, out, err = run(capsys, "probe", str(mixed_corpus),
                                 "--threads", threads, "--cache", str(cache))
            assert code == 0 and err == ""
            outs[threads, phase] = out
            names[threads, phase] = sorted(p.name for p in cache.iterdir())
    assert len(outs["1", "cold"].splitlines()) == 5
    assert len(set(outs.values())) == 1
    assert len({tuple(n) for n in names.values()}) == 1
    assert len(names["1", "cold"]) == 4


@pytest.fixture
def forks(monkeypatch):
    """The children forked while the test runs, counted through a
    wrapper around ``os.fork``."""
    if not hasattr(os, "fork"):
        pytest.skip("no fork on this platform")
    made, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return made


def no_fork():
    raise AssertionError("os.fork called")


def two_cpus(monkeypatch):
    """Let two workers run, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)


def die_in_children(monkeypatch):
    """Make each forked child exit 1 at its first item."""
    parent, record = os.getpid(), cli._record

    def dying(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(1)
        return record(*args, **kwargs)

    monkeypatch.setattr(cli, "_record", dying)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def another_thread():
    """A second thread, waiting, for the duration of the block."""
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        yield
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()


def test_probe_asks_for_at_most_cpu_count_workers(capsys, forks):
    code, out, _ = run(capsys, "probe", corpus_path(), "--threads", "64")
    assert code == 0 and len(out.splitlines()) == 10
    workers = min(9, cli._cpus())  # nine rows, all cache misses
    assert len(forks) == workers - 1  # this process is one of them


def test_probe_counts_the_cpus_it_may_use(capsys, monkeypatch):
    # the host may have more CPUs than this process is allowed to run on
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert cli.make_parser().parse_args(["probe", "x.csv"]).threads == 1
    serial = run(capsys, "probe", corpus_path())
    monkeypatch.setattr(os, "fork", no_fork)
    assert run(capsys, "probe", corpus_path(), "--threads", "2") == serial
    assert serial[0] == 0 and len(serial[1].splitlines()) == 10


def test_cpus_off_an_affinity_platform_are_the_cpu_count(monkeypatch):
    # the default of `kh probe --threads` where os has no sched_getaffinity
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert cli._cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._cpus() == 1


def test_probe_warm_pass_forks_nothing(capsys, monkeypatch, tmp_path):
    cache = str(tmp_path / "cache")
    cold = run(capsys, "probe", corpus_path(), "--cache", cache)
    monkeypatch.setattr(os, "fork", no_fork)
    assert run(capsys, "probe", corpus_path(), "--cache", cache) == cold


def test_probe_workers_fork_only_without_other_threads(capsys, monkeypatch,
                                                       forks, mixed_corpus):
    two_cpus(monkeypatch)
    argv = ("probe", str(mixed_corpus), "--threads", "2")
    assert run(capsys, *argv)[0] == 0
    assert len(forks) == 1
    monkeypatch.setattr(os, "fork", no_fork)
    with another_thread():  # so everything is computed in this process
        assert run(capsys, *argv)[0] == 0


def test_probe_spawned_workers_give_the_same_rows(capsys, monkeypatch, forks,
                                                  mixed_corpus):
    two_cpus(monkeypatch)
    one = run(capsys, "probe", str(mixed_corpus), "--threads", "1")
    assert one[0] == 0 and not forks
    assert run(capsys, "probe", str(mixed_corpus), "--threads", "2") == one
    assert len(forks) == 1  # the second worker is a forked child
    with another_thread():  # so everything is computed in this process
        two = run(capsys, "probe", str(mixed_corpus), "--threads", "2")
    assert two == one
    assert len(forks) == 1


def test_probe_size_cap_in_a_worker_exit_3(capsys, monkeypatch, forks,
                                           tmp_path):
    for error in (SizeCapError("cap"), StructureError("bad"),
                  GradingError("q"), cli.CliError("cap", cli.EXIT_SIZE)):
        back = pickle.loads(pickle.dumps(error))  # what a worker sends
        assert type(back) is type(error) and back.args == error.args
    assert back.code == cli.EXIT_SIZE
    two_cpus(monkeypatch)
    corpus = tmp_path / "corpus.csv"  # the closure falls to the child
    corpus.write_text(f"unknot,U\nbig,{probe_closures()[0]}\n")
    cache = tmp_path / "cache"
    code, out, err = run(capsys, "probe", str(corpus), "--threads", "2",
                         "--max-generators", "50", "--cache", str(cache))
    assert code == 3 and out == ""
    assert "50 generators" in err
    assert len(forks) == 1
    assert len(list(cache.iterdir())) == 1  # the unknot's, written first


def test_probe_invalid_diagram_in_a_worker_exit_2(capsys, monkeypatch, forks,
                                                  tmp_path):
    two_cpus(monkeypatch)
    corpus = tmp_path / "corpus.csv"  # the second entry falls to the child
    corpus.write_text(f"unknot,U\nbad,{ONE_ARC}\ntrefoil,{TREFOIL}\n")
    code, out, err = run(capsys, "probe", str(corpus), "--threads", "2")
    assert code == 2 and out == ""
    assert "kh: invalid diagram: cube edge is not a local merge" in err
    assert len(forks) == 1
    assert_no_child_left()


def test_probe_dead_worker_exit_1(capsys, monkeypatch, forks, mixed_corpus):
    two_cpus(monkeypatch)
    die_in_children(monkeypatch)
    code, out, err = run(capsys, "probe", str(mixed_corpus), "--threads", "2")
    assert code == 1 and out == ""
    assert "worker process died: exit status 1" in err
    assert len(forks) == 1


def test_probe_leaves_no_child_process(capsys, monkeypatch, forks,
                                       mixed_corpus):
    two_cpus(monkeypatch)
    argv = ("probe", str(mixed_corpus), "--threads", "2")
    assert run(capsys, *argv)[0] == 0
    assert_no_child_left()
    assert run(capsys, *argv, "--max-generators", "50")[0] == 3
    assert_no_child_left()
    parent, record = os.getpid(), cli._record
    die_in_children(monkeypatch)
    assert run(capsys, *argv)[0] == 1
    assert_no_child_left()

    def interrupted(*args, **kwargs):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return record(*args, **kwargs)

    monkeypatch.setattr(cli, "_record", interrupted)
    with pytest.raises(KeyboardInterrupt):  # the child may still be computing
        main(list(argv))
    assert_no_child_left()
    assert len(forks) == 4


def test_importing_the_cli_leaves_out_the_pool_modules():
    # every kh command pays for what importing khss.cli imports
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys, khss.cli; print(sorted({'logging', "
            "'concurrent.futures', 'multiprocessing'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_probe_corrupt_entries_warn_here_and_are_recomputed(capsys, tmp_path,
                                                           mixed_corpus):
    cache = tmp_path / "cache"
    argv = ("probe", str(mixed_corpus), "--threads", "2", "--cache",
            str(cache))
    _, fresh, _ = run(capsys, *argv)
    entries = sorted(cache.glob("*.json"))
    saved = {p: p.read_text() for p in entries}
    for entry in entries[:2]:  # two misses, so two workers when there are CPUs
        data = json.loads(entry.read_text())
        data["record"]["collapse_page"] = 99
        entry.write_text(json.dumps(data))
    code, out, err = run(capsys, *argv)
    assert code == 0 and out == fresh
    assert err.count("warning: ignoring corrupt cache entry") == 2
    for entry in entries[:2]:
        record = json.loads(entry.read_text())["record"]
        assert record["collapse_page"] == 2
        del record["meta"]
        old = json.loads(saved[entry])["record"]
        del old["meta"]
        assert record == old


def test_cache_roundtrip(tmp_path, capsys):
    cache = tmp_path / "cache"
    a = run(capsys, "compute", "--pd", TREFOIL, "--cache", str(cache))
    files = list(cache.glob("*.json"))
    assert len(files) == 1
    b = run(capsys, "compute", "--pd", TREFOIL, "--cache", str(cache))
    assert json.loads(a[1]) == json.loads(b[1])  # cache hit, same record


def test_cache_keys_distinguish_flavor_and_basepoint(tmp_path, capsys):
    cache = tmp_path / "cache"
    run(capsys, "compute", "--pd", TREFOIL, "--cache", str(cache))
    run(capsys, "compute", "--pd", TREFOIL, "--unreduced", "--cache",
        str(cache))
    run(capsys, "compute", "--pd", TREFOIL, "--basepoint", "2", "--cache",
        str(cache))
    assert len(list(cache.glob("*.json"))) == 3


def test_unreduced_records_share_one_entry_across_basepoints(
        tmp_path, capsys, monkeypatch):
    # the unreduced complex does not depend on the basepoint: one build
    # and one entry serve all three, and a served record carries the
    # diagram fields of its own request
    def fresh(arc):
        _, out, _ = run(capsys, "compute", "--pd", TREFOIL, "--unreduced",
                        "--basepoint", arc)
        record = json.loads(out)
        del record["meta"]
        return record

    arcs = ["1", "3", "5"]
    uncached = [fresh(arc) for arc in arcs]
    assert len({json.dumps(r["diagram"]) for r in uncached}) == 3
    real, builds = cli.build, []

    def counted(*args, **kwargs):
        builds.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "build", counted)
    cache = tmp_path / "cache"
    for arc, want in zip(arcs, uncached):
        code, out, _ = run(capsys, "compute", "--pd", TREFOIL, "--unreduced",
                           "--basepoint", arc, "--cache", str(cache))
        assert code == 0
        record = json.loads(out)
        del record["meta"]
        assert record == want
    assert len(builds) == 1
    assert len(list(cache.glob("*.json"))) == 1


def test_cache_corrupt_entry_is_miss(tmp_path, capsys):
    cache = tmp_path / "cache"
    run(capsys, "compute", "--pd", TREFOIL, "--cache", str(cache))
    entry = next(cache.glob("*.json"))
    data = json.loads(entry.read_text())
    data["record"]["collapse_page"] = 99
    entry.write_text(json.dumps(data))
    code, out, err = run(capsys, "compute", "--pd", TREFOIL, "--cache",
                         str(cache))
    assert code == 0
    assert json.loads(out)["collapse_page"] == 2  # recomputed, not trusted
    assert "cache" in err


def write_entry(entry, record):
    """Overwrite a cache entry with ``record`` under a matching checksum."""
    body = json.dumps(record, sort_keys=True)
    entry.write_text(json.dumps({
        "checksum": hashlib.sha256(body.encode()).hexdigest(),
        "record": record}))


def without_meta(record):
    return {k: v for k, v in record.items() if k != "meta"}


def test_a_checksummed_entry_that_is_not_a_run_record_is_a_miss(
        tmp_path, capsys, mixed_corpus):
    # its checksum matches, but it is not what run_record writes: warned
    # about, recomputed and overwritten
    cache = tmp_path / "cache"
    argv = ("compute", "--pd", TREFOIL, "--cache", str(cache))
    _, fresh, _ = run(capsys, *argv)
    entry = next(cache.glob("*.json"))
    full = json.loads(entry.read_text())["record"]
    string_dim, bad_key = (json.loads(json.dumps(full)) for _ in range(2))
    string_dim["pages"]["2"]["0,-2"] = str(full["pages"]["2"]["0,-2"])
    bad_key["pages"]["2"]["0,-2,0"] = bad_key["pages"]["2"].pop("0,-2")
    for record in (5, [], {"flavor": "reduced"}, {**full, "pages": 5},
                   string_dim, bad_key, {**full, "extra": 0}):
        write_entry(entry, record)
        code, out, err = run(capsys, *argv)
        assert code == 0
        assert without_meta(json.loads(out)) == without_meta(json.loads(fresh))
        assert "warning: ignoring corrupt cache entry" in err
        stored = json.loads(entry.read_text())["record"]
        assert without_meta(stored) == without_meta(json.loads(fresh))
    _, fresh_csv, _ = run(capsys, "compute", "--pd", TREFOIL, "--output", "csv")
    write_entry(entry, {**full, "pages": 5})
    code, out, err = run(capsys, *argv, "--output", "csv")
    assert code == 0 and out == fresh_csv
    assert err.count("warning: ignoring corrupt cache entry") == 1
    argv = ("probe", str(mixed_corpus), "--cache", str(cache))
    _, fresh, _ = run(capsys, *argv)
    write_entry(entry, {"flavor": "reduced"})  # the trefoil's entry
    code, out, err = run(capsys, *argv)
    assert code == 0 and out == fresh
    assert err.count("warning: ignoring corrupt cache entry") == 1


def test_a_cache_entry_that_claims_a_later_page_is_a_miss(
        tmp_path, capsys, mixed_corpus):
    # every page from 2 on is page 2: an entry whose page 3 differs and
    # that collapses at page 3 is warned about and recomputed, by
    # compute and by probe, which flags no row
    cache = tmp_path / "cache"
    argv = ("compute", "--pd", TREFOIL, "--cache", str(cache))
    _, fresh, _ = run(capsys, *argv)
    entry = next(cache.glob("*.json"))
    later = json.loads(entry.read_text())["record"]
    del later["pages"]["3"][next(iter(later["pages"]["2"]))]
    later["collapse_page"] = 3
    write_entry(entry, later)
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert without_meta(json.loads(out)) == without_meta(json.loads(fresh))
    assert err.count("warning: ignoring corrupt cache entry") == 1
    argv = ("probe", str(mixed_corpus), "--cache", str(cache))
    _, fresh, _ = run(capsys, *argv)
    write_entry(entry, later)  # the trefoil's entry
    code, out, err = run(capsys, *argv)
    assert code == 0 and out == fresh
    assert err.count("warning: ignoring corrupt cache entry") == 1
    rows = out.splitlines()
    assert rows[0].endswith(",flag")
    assert all(row.endswith(",") for row in rows[1:])


def test_cache_entry_that_is_a_directory_is_a_miss(tmp_path, capsys):
    cache = tmp_path / "cache"
    _, fresh, _ = run(capsys, "compute", "--pd", TREFOIL, "--cache",
                      str(cache))
    entry = next(cache.glob("*.json"))
    entry.unlink()
    entry.mkdir()
    code, out, err = run(capsys, "compute", "--pd", TREFOIL, "--cache",
                         str(cache))
    assert code == 0
    a, b = json.loads(fresh), json.loads(out)
    del a["meta"], b["meta"]
    assert a == b  # recomputed; the entry can be neither read nor written
    assert "cache" in err


def test_cache_path_of_a_regular_file_exit_2(tmp_path, capsys):
    cache = tmp_path / "cache"
    cache.write_text("")
    code, out, err = run(capsys, "compute", "--pd", TREFOIL, "--cache",
                         str(cache))
    assert code == 2
    assert out == ""
    assert f"cannot use cache directory {cache}" in err


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("KH_CACHE_DIR", str(tmp_path / "envcache"))
    code, _, _ = run(capsys, "compute", "--pd", "U")
    assert code == 0
    assert list((tmp_path / "envcache").glob("*.json"))


def test_tqft_check_deterministic(capsys):
    a = run(capsys, "tqft-check", "--count", "50", "--seed", "42")
    b = run(capsys, "tqft-check", "--count", "50", "--seed", "42")
    assert a == b
    assert a[0] == 0
    assert "0 failures" in a[1]


def test_tqft_check_zero_count_usage_error(capsys):
    assert run(capsys, "tqft-check", "--count", "0")[0] == 2


def test_tqft_check_corrupt_reports_failure(capsys, monkeypatch):
    # mutation control: one flipped entry in every stated matrix
    real = tqft.hfl_columns
    monkeypatch.setattr(tqft, "hfl_columns",
                        lambda g: [real(g)[0] ^ 1, *real(g)[1:]])
    code, out, _ = run(capsys, "tqft-check", "--count", "10", "--seed", "1")
    assert code == 1
    assert "FAIL" in out


def test_grading_command(capsys):
    code, out, _ = run(capsys, "grading", "saddle", "birth")
    assert code == 0
    assert json.loads(out) == {"alexander": "0", "maslov": "0", "delta": "0"}
    assert run(capsys, "grading", "bogus")[0] == 2


def test_options_a_subcommand_does_not_read_are_rejected(capsys):
    assert run(capsys, "grading", "saddle", "--threads", "2")[0] == 2


def test_bundled_corpus_loads():
    from khss import load_corpus
    entries = load_corpus(corpus_path())
    names = [n for n, _ in entries]
    assert {"3_1", "4_1", "8_19"} <= set(names)
    assert all(len(d.crossings) <= 9 for _, d in entries)
    assert parse_pd("U")  # sanity
