"""Command-line surface: `kh` with compute/ss/probe/invariance/sweep/
tqft-check/grading subcommands, and the one module that drives builds.

Exit codes: 0 success, 1 internal invariant violation, 2 parse/IO/usage
error, 3 size cap exceeded or out of memory, 4 invariance mismatch.
``main`` alone maps each failure to its code, a forked worker's too.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import os
import random
import sys
import tempfile
import time
from pathlib import Path

from . import __version__
from .diagram import (
    ParseError,
    PlanarDiagram,
    StructureError,
    is_alternating,
    load_corpus,
    parse_pd,
    render,
)
from .filtered import (DEFAULT_GENERATOR_CAP, GradingError, SizeCapError,
                       build, verify_d_squared)
from .spectral import SpectralResult, Verdict, compare_pages, compute
from .tqft import (GENERATOR_ARITY, Generator, GeneratorWord, check_triangle,
                   grading_shift_word)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_SIZE = 3
EXIT_MISMATCH = 4


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------- run records

def run_record(d: PlanarDiagram, reduced: bool, result: SpectralResult,
               name: str = "", elapsed: float = 0.0) -> dict:
    """What ``kh`` prints and caches: the one writer of that format."""
    pd = render(d)
    table = {f"{p},{q}": dim for (p, q), dim in sorted(result.e2.items())}
    return {
        "diagram": {"name": name, "pd": pd, "crossings": len(d.crossings),
                    "writhe": d.writhe, "basepoint": d.basepoint,
                    "hash": hashlib.sha256(pd.encode()).hexdigest()[:16]},
        "flavor": "reduced" if reduced else "unreduced",
        "pages": {str(pt.r): table for pt in result.pages},
        "collapse_page": result.collapse_page,
        "total_homology": {str(q): dim
                           for q, dim in sorted(result.total_homology.items())},
        "meta": {"version": __version__, "seconds": round(elapsed, 3)},
    }


# --------------------------------------------------------------------- cache

def cache_key(d: PlanarDiagram, reduced: bool) -> str:
    """The unreduced complex does not depend on the basepoint, so an
    unreduced record is keyed by the diagram at its default basepoint."""
    if not reduced and d.crossings:
        d = d.with_basepoint(1)
    flavor = "reduced" if reduced else "unreduced"
    payload = f"{render(d)}|{flavor}|{__version__}"
    return hashlib.sha256(payload.encode()).hexdigest()


def cache_store(record: dict, directory: Path, d: PlanarDiagram,
                reduced: bool) -> Path:
    body = json.dumps(record, sort_keys=True)
    wrapped = json.dumps({
        "checksum": hashlib.sha256(body.encode()).hexdigest(),
        "record": record,
    }, sort_keys=True)
    path = directory / f"{cache_key(d, reduced)}.json"
    fd, tmp = tempfile.mkstemp(dir=str(directory), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(wrapped)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def cache_load(directory: Path, d: PlanarDiagram, reduced: bool,
               name: str = "") -> dict | None:
    """The record of ``d`` named ``name``, rebuilt by ``run_record`` from
    its entry's page 2, page count and total homology; None on a miss.
    An entry that ``run_record`` would not write, its ``diagram`` aside,
    is a miss with a warning."""
    path = directory / f"{cache_key(d, reduced)}.json"
    if not path.exists():
        return None
    try:
        wrapped = json.loads(path.read_text())
        stored = wrapped["record"]
        body = json.dumps(stored, sort_keys=True)
        if hashlib.sha256(body.encode()).hexdigest() != wrapped["checksum"]:
            raise ValueError("checksum mismatch")
        result = SpectralResult(
            {(int(p), int(q)): int(dim)
             for pq, dim in stored["pages"]["2"].items()
             for p, q in [pq.split(",")]},
            len(stored["pages"]),
            {int(q): int(dim) for q, dim in stored["total_homology"].items()})
        record = run_record(d, reduced, result, name,
                            float(stored["meta"]["seconds"]))
        if json.dumps({**record, "diagram": stored["diagram"]},
                      sort_keys=True) != body:
            raise ValueError("not a run record")
        return record
    except (OSError, ValueError, KeyError, TypeError, AttributeError,
            OverflowError) as exc:
        print(f"warning: ignoring corrupt cache entry {path.name}: {exc}",
              file=sys.stderr)
        return None


# -------------------------------------------------------------------- inputs

def read_pd_argument(text: str) -> PlanarDiagram:
    if text.startswith("@"):
        try:
            text = Path(text[1:]).read_text(encoding="utf-8-sig")
        except (OSError, UnicodeDecodeError) as exc:
            raise CliError(f"cannot read PD file: {exc}")
    return parse_pd(text)


def _pages(d: PlanarDiagram, reduced: bool,
           max_generators: int) -> SpectralResult:
    """The pages of one diagram: ``build``, d^2 = 0 checked, ``compute``."""
    c = build(d, reduced=reduced, max_generators=max_generators)
    if not verify_d_squared(c):
        raise CliError("internal error: differential does not square to zero",
                       EXIT_INTERNAL)
    return compute(c)


def _cache_dir(args) -> Path | None:
    """The command's cache directory, created; None when caching is off."""
    cache = getattr(args, "cache", None) or os.environ.get("KH_CACHE_DIR")
    if not cache:
        return None
    cdir = Path(cache)
    try:
        cdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot use cache directory {cdir}: {exc}")
    return cdir


def _record(item: tuple[str, PlanarDiagram], reduced: bool,
            max_generators: int) -> dict:
    """The run record of one (name, diagram) item: build, d^2 check,
    pages."""
    name, d = item
    t0 = time.perf_counter()
    result = _pages(d, reduced, max_generators)
    return run_record(d, reduced, result, name, time.perf_counter() - t0)


def _cpus() -> int:
    """The CPUs this process may run on: its affinity set where the
    platform reports one, else the host's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _share(work, items: list) -> list:
    """``work(item)`` per item, in order, until one raises: that
    exception ends the list, since no later item is read."""
    outcomes = []
    for item in items:
        try:
            outcomes.append(work(item))
        except Exception as exc:
            outcomes.append(exc)
            break
    return outcomes


def _fan_out(work, todo: list, workers: int) -> list:
    """``_share(work, todo)`` computed by ``workers`` processes: this one
    takes ``todo[0::workers]``, and each of ``workers - 1`` children,
    forked here, takes ``todo[k::workers]`` and writes its outcomes
    down a pipe as one pickle.  A thread may hold a lock at the moment
    of a fork, so while another thread runs, or where there is no
    ``os.fork``, everything is computed in this process.  No child
    outlives this call, whatever it raises."""
    import threading
    if workers < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return _share(work, todo)
    import pickle
    import signal

    pids, pipes = [], []  # children in stride order, read ends of their pipes
    live = set()          # children not yet reaped
    try:
        for k in range(1, workers):
            r, w = os.pipe()
            pipes.append(r)
            try:
                pid = os.fork()
                if pid == 0:  # the child never returns from this block
                    status = 1
                    try:
                        data = pickle.dumps(_share(work, todo[k::workers]))
                        with open(w, "wb", closefd=False) as out:
                            out.write(data)
                        status = 0
                    finally:
                        os._exit(status)
            finally:
                os.close(w)
            pids.append(pid)
            live.add(pid)
        shares = [_share(work, todo[0::workers])]
        for pid, r in zip(pids, pipes):
            with open(r, "rb", closefd=False) as pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            live.discard(pid)
            try:
                shares.append(pickle.loads(data))
            except Exception:  # cut short: the child was killed or failed
                how = (f"killed by signal {-code}" if code < 0
                       else f"exit status {code}")
                raise CliError(f"internal error: a worker process died: {how}",
                               EXIT_INTERNAL) from None
    finally:
        for pid in live:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for r in pipes:
            os.close(r)
    outcomes = []  # back in item order, up to the first failure
    for i in range(len(todo)):
        outcomes.append(shares[i % workers][i // workers])
        if isinstance(outcomes[-1], Exception):
            break
    return outcomes


def _records(items: list[tuple[str, PlanarDiagram]], args,
             workers: int = 1) -> list[dict]:
    """Run records of (name, diagram) items, in order.  Cache hits are
    read here; the misses are computed by ``_fan_out`` in up to
    ``workers`` processes, this one included, never more than the CPUs
    this process may use or the misses.  The fresh records are then
    written to the cache here in item order, up to the first item that
    failed, whose error is raised."""
    cdir = _cache_dir(args)
    records = [cache_load(cdir, d, args.reduced, name) if cdir else None
               for name, d in items]
    misses = [i for i, record in enumerate(records) if record is None]
    work = functools.partial(_record, reduced=args.reduced,
                             max_generators=args.max_generators)
    workers = min(workers, len(misses), _cpus())
    outcomes = _fan_out(work, [items[i] for i in misses], workers)
    for i, record in zip(misses, outcomes):
        if isinstance(record, Exception):
            raise record
        records[i] = record
        if cdir is None:
            continue
        try:
            cache_store(record, cdir, items[i][1], args.reduced)
        except OSError as exc:  # the record stands without its entry
            print(f"warning: cache entry not written: {exc}",
                  file=sys.stderr)
    return records


# --------------------------------------------------------------- subcommands

def cmd_compute(args) -> int:
    d = read_pd_argument(args.pd)
    if args.basepoint is not None:
        d = d.with_basepoint(args.basepoint)
    record = _records([("", d)], args)[0]
    if args.max_page is not None:
        record["pages"] = {r: v for r, v in record["pages"].items()
                           if int(r) <= args.max_page}
    if args.output == "csv":
        w = csv.writer(sys.stdout)
        w.writerow(["page", "p", "q", "dim"])
        for r, table in sorted(record["pages"].items(), key=lambda kv: int(kv[0])):
            for key, dim in table.items():
                p, q = key.split(",")
                w.writerow([r, p, q, dim])
    else:
        print(json.dumps(record, sort_keys=True, indent=1))
    return EXIT_OK


def cmd_probe(args) -> int:
    try:
        corpus = load_corpus(args.corpus)
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot load corpus: {exc}")
    records = _records(corpus, args, args.threads)
    w = csv.writer(sys.stdout)
    w.writerow(["name", "flavor", "collapse_page", "alternating", "flag"])
    for (name, d), record in zip(corpus, records):
        w.writerow([name, record["flavor"], str(record["collapse_page"]),
                    "yes" if is_alternating(d) else "no", ""])
    return EXIT_OK


def cmd_invariance(args) -> int:
    a = read_pd_argument(args.pd)
    b = read_pd_argument(args.pd2)
    ra = _pages(a, args.reduced, args.max_generators)
    rb = _pages(b, args.reduced, args.max_generators)
    return _verdict(compare_pages(ra, rb))


def cmd_sweep(args) -> int:
    """Reduced pages marked at each arc of the marked component (the
    diagram as it stands if crossingless) agree (arXiv:math/0405474)."""
    d = read_pd_argument(args.pd)
    arcs = d.marked_component() or (d.basepoint,)
    results = [_pages(d.with_basepoint(arc), True, args.max_generators)
               for arc in arcs]
    for arc, result in zip(arcs[1:], results[1:]):
        verdict = compare_pages(results[0], result)
        if not verdict.equal:
            return _verdict(Verdict(
                False, f"basepoint {arcs[0]} vs {arc}: {verdict.detail}"))
    return _verdict(Verdict(True))


def _verdict(verdict: Verdict) -> int:
    """Print an invariance verdict; its exit code."""
    if verdict.equal:
        print("equal")
        return EXIT_OK
    print(f"mismatch: {verdict.detail}", file=sys.stderr)
    return EXIT_MISMATCH


_WORD_LEN = 6
_WORD_STRANDS = 5


def random_word(rng: random.Random) -> GeneratorWord:
    """A composable word of elementary generators on small unlinks, of
    at most ``_WORD_STRANDS`` + 1 components."""
    n = rng.randint(1, _WORD_STRANDS)
    gens: list[Generator] = []
    for _ in range(rng.randint(1, _WORD_LEN)):
        kind = rng.choice([k for k, (least, step) in GENERATOR_ARITY.items()
                           if least <= n and n + step <= _WORD_STRANDS + 1])
        gens.append(Generator(kind, n,
                              rng.randint(2, n - 1) if kind == "X" else None))
        n = gens[-1].target_size
    return GeneratorWord(tuple(gens))


def cmd_tqft_check(args) -> int:
    rng = random.Random(args.seed)
    failures = []
    for _ in range(args.count):
        word = random_word(rng)
        report = check_triangle(word)
        if not report.ok:
            failures.append((word, report.detail))
    print(f"checked {args.count} words, {len(failures)} failures")
    for word, detail in failures[:5]:
        kinds = " ".join(f"{g.kind}{g.n}" for g in word.generators)
        print(f"  FAIL [{kinds}]: {detail}")
    return EXIT_OK if not failures else EXIT_INTERNAL


def cmd_grading(args) -> int:
    try:
        shift = grading_shift_word(args.kinds)
    except ValueError as exc:
        raise CliError(str(exc))
    print(json.dumps({
        "alexander": str(shift.alexander),
        "maslov": str(shift.maslov),
        "delta": str(shift.delta),
    }, sort_keys=True))
    return EXIT_OK


# ------------------------------------------------------------------- parsing

def _int_at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, not {value}")
        return value
    return parse


def _add_flavor(sub) -> None:
    sub.add_argument("--reduced", dest="reduced", action="store_true",
                     default=True)
    sub.add_argument("--unreduced", dest="reduced", action="store_false")


def _add_cap(sub) -> None:
    sub.add_argument("--max-generators", type=_int_at_least(1),
                     default=DEFAULT_GENERATOR_CAP)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kh",
        description="Khovanov-type spectral sequences over GF(2)")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    for command, text in (("compute", "homology and all pages of one diagram"),
                          ("ss", "alias of compute")):
        p = subs.add_parser(command, help=text)
        p.add_argument("--pd", required=True, help="PD text or @file")
        p.add_argument("--max-page", type=_int_at_least(2), default=None)
        p.add_argument("--basepoint", type=int, default=None, metavar="ARC")
        p.add_argument("--output", choices=["json", "csv"], default="json")
        p.add_argument("--cache", default=None, metavar="DIR")
        _add_flavor(p)
        _add_cap(p)
        p.set_defaults(fn=cmd_compute)

    p = subs.add_parser("probe", help="collapse-page sweep over a corpus")
    p.add_argument("corpus", help="corpus CSV path")
    p.add_argument("--cache", default=None, metavar="DIR")
    p.add_argument("--threads", type=_int_at_least(1), default=_cpus(),
                   help="worker processes for the cache misses, at most "
                        "the usable CPUs (default: the usable CPUs)")
    _add_flavor(p)
    _add_cap(p)
    p.set_defaults(fn=cmd_probe)

    p = subs.add_parser("invariance", help="compare the pages of two diagrams")
    p.add_argument("--pd", required=True)
    p.add_argument("--pd2", required=True)
    _add_flavor(p)
    _add_cap(p)
    p.set_defaults(fn=cmd_invariance)

    p = subs.add_parser("sweep", help="basepoint independence check")
    p.add_argument("--pd", required=True)
    _add_cap(p)
    p.set_defaults(fn=cmd_sweep)

    p = subs.add_parser("tqft-check",
                        help="random-word equality of the two TQFTs")
    p.add_argument("--count", type=_int_at_least(1), default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_tqft_check)

    p = subs.add_parser("grading", help="grading shift of a cobordism word")
    p.add_argument("kinds", nargs="+",
                   help="elementary kinds, e.g. saddle birth pos-stab")
    p.set_defaults(fn=cmd_grading)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"kh: {exc}", file=sys.stderr)
        return exc.code
    except (ParseError, StructureError) as exc:
        print(f"kh: invalid diagram: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SizeCapError as exc:
        print(f"kh: {exc}", file=sys.stderr)
        return EXIT_SIZE
    except GradingError as exc:
        print(f"kh: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except MemoryError:  # from any stage, a forked worker's included
        print("kh: out of memory; lower --max-generators or raise the "
              "memory limit", file=sys.stderr)
        return EXIT_SIZE


if __name__ == "__main__":
    sys.exit(main())
