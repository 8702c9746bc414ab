"""Seconds per pipeline stage and peak RSS on fixed inputs, as JSON.

Each input runs in a fresh child process under an ``RLIMIT_AS`` cap.
The child parses the diagram and runs one full garbage collection, so
that no stage pays for collecting what the imports left (on a probe8
input that collection was about half of a 1.4 ms walk), then times,
with ``perf_counter``:

- ``walk_s``: ``cube.walk`` of the marked diagram, alone;
- ``build_s``: ``filtered.build``, which walks the cube again;
- ``d2_s``: ``filtered.verify_d_squared``;
- ``compute_s``: ``spectral.compute``, right after the check on the
  same complex, so it reads ``c.reduction``, which the check ran: it
  times the pages from those ranks, not a reduction of the slices.

It reports its ``ru_maxrss``, the generator and nonzero counts, and a
sha256 of every page's dims, so two checkouts can be compared on the
same inputs.

``ru_maxrss`` follows the allocator's reuse of freed memory, not what a
stage holds, so each input also runs once per checkout in a traced
child, apart from the timed ones: ``tracemalloc`` runs from before the
walk, ``<stage>_peak_mib`` is the traced peak while the stage runs
(with all that the stages before it left held), and ``complex_mib`` is
what freeing the complex ``build`` returned gives back, and
``build_over_complex`` the ratio of the two.  Its counts do not follow
the host's speed, so one child is enough; it goes under the input's
``traced``.  Inputs, by group:

- ``corpus``: the bundled knots, reduced and unreduced;
- ``braid12``: two seeded 12-crossing closures on 3 strands, drawn as
  the benchmark's ``braid-complex`` draws its class of N = 25,737;
- ``probe8``: three seeded 8-crossing closures, the first the
  benchmark's ``probe`` workload draws of each of its classes: the
  inputs where the walk is the largest share of ``build``;
- ``t37``: (s1 s2)^7, 14 crossings, 117,945 generators;
- ``l16``: the 16-crossing 4-braid closure L16, 627,618 generators;
- ``t213``: T(2,13), 797,163 generators.

At 16 crossings ``build`` and the d^2 check are all the time: on L16
they take about 2.5 and 2.6 s, on T(2,13) about 2.8 and 3.5 s, and
``compute`` 1 ms on both (``BENCH_30.json``: medians of 5 on a shared
2-vCPU x86-64 host, Python 3.11).  The walk takes 0.14 s on L16 and
8 ms on braid12; on probe8 about 0.7-1.1 ms, against 2.2-3.8 ms for
all of ``build``; on the corpus each stage takes milliseconds.  Traced,
the complex is nearly all that ``build`` holds at its peak: 1,069 of
1,072 MiB on L16, 1,859 of 1,864 MiB on T(2,13), 3.3-3.8 of
3.7-4.1 MiB on braid12 (``build_over_complex`` 1.10-1.11), against an
``ru_maxrss`` of 1,152, 1,998 and 26 MB for the whole child
(``BENCH_33.json``).

Run from the root of a checkout (stdlib only):

    python3 tools/bench_stages.py --out stages.json
    python3 tools/bench_stages.py --only corpus --out corpus.json
    python3 tools/bench_stages.py --baseline ../old --repeat 5 --out x.json

``--baseline DIR`` also times the ``src/`` of another checkout of this
repository (an older commit, say), alternating the two child by child,
and records it under each input's ``baseline`` (the host's speed
drifts, so only runs taken in turn compare well).
``--repeat N`` runs each input N times, each in its own child, and
reports the median of each stage with its lower and upper quartiles
(``quartiles``, inclusive method).  With ``--baseline``, the children
of one repeat form a pair: ``pair_ratios`` holds each pair's ratio of
this checkout's value to the baseline's, per stage and for the peak
RSS, and ``ratio_median`` their median.  A stage difference whose
ratios straddle 1, or that is smaller than either side's quartile
spread, is unresolved; ``traced_ratio`` holds the ratio of each traced
measure.  A child that fails (over the cap, say) is recorded with its
error, and the other inputs still run.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STAGES = ("walk_s", "build_s", "d2_s", "compute_s")
PEAKS = tuple(k.replace("_s", "_peak_mib") for k in STAGES)
TRACED = (*PEAKS, "complex_mib", "build_over_complex")
MIB = 1 << 20
GROUPS = ("corpus", "braid12", "probe8", "t37", "l16", "t213")
BRAID12_CLASS = (12, 3, 25737, 2)  # (crossings, strands, N, how many)
L16_WORD = [1, -2, 1, -2, 3, -2, 1, 3, -2, 3, 1, -2, 3, -2, 1, 3]
SEED = 1  # of the braid12 and probe8 draws
LIMIT_MIB = 3000  # RLIMIT_AS of each child: T(2,13) peaks near 2,050 MB
CHILD_TIMEOUT_S = 600
MEASURES = (*STAGES, "peak_rss_mb")


def inputs(groups: set[str]) -> list[dict]:
    """The inputs of the chosen groups, as PD text with a flavor."""
    sys.path[:0] = [str(HERE), str(ROOT / "perfbench")]
    try:
        from gen_corpus import braid_closure_pd
        import inputs as bench_inputs
    finally:
        del sys.path[:2]
    out = []

    def closure(group, name, word, strands):
        out.append({"group": group, "name": name, "reduced": True,
                    "word": word, "strands": strands,
                    "pd": braid_closure_pd(word, strands)})

    if "corpus" in groups:
        csv = ROOT / "src" / "khss" / "data" / "knots.csv"
        for line in csv.read_text(encoding="utf-8").splitlines():
            if line.strip() and not line.startswith("#"):
                name, _, pd = line.strip().partition(",")
                out += [{"group": "corpus", "name": name, "reduced": r,
                         "pd": pd} for r in (True, False)]
    if "braid12" in groups:
        for case in bench_inputs.braid_cases([BRAID12_CLASS], SEED,
                                             "braid-complex"):
            closure("braid12", f"braid12-{case.name}", list(case.word),
                    case.strands)
    if "probe8" in groups:
        cases, at = bench_inputs.braid_cases(bench_inputs.PROBE_MIX, SEED,
                                             "probe"), 0
        for *_, count in bench_inputs.PROBE_MIX:  # each class's first
            case, at = cases[at], at + count
            closure("probe8", f"probe8-{case.name}", list(case.word),
                    case.strands)
    if "t37" in groups:
        closure("t37", "(s1s2)^7", [1, 2] * 7, 3)
    if "l16" in groups:
        closure("l16", "L16", L16_WORD, 4)
    if "t213" in groups:
        closure("t213", "T(2,13)", [1] * 13, 2)
    return out


def child(root: str, pd: str, reduced: bool, traced: bool) -> dict:
    """Time the stages of one input in this process, or trace their
    memory; see the module docstring."""
    cap = LIMIT_MIB << 20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    sys.path.insert(0, str(Path(root) / "src"))
    import khss
    from khss import cube, filtered, spectral
    from khss.diagram import parse_pd

    if Path(khss.__file__).resolve().parents[1] != Path(root) / "src":
        raise RuntimeError(f"imported {khss.__file__}, not {root}/src")

    d = parse_pd(pd)
    out = {"crossings": len(d.crossings)}

    def stage(name, fn, *args):
        if traced:
            tracemalloc.reset_peak()
        t = time.perf_counter()
        value = fn(*args)
        out[f"{name}_s"] = time.perf_counter() - t
        if traced:
            out[f"{name}_peak_mib"] = tracemalloc.get_traced_memory()[1] / MIB
        return value

    gc.collect()
    if traced:
        tracemalloc.start()
    stage("walk", cube.walk, filtered.marked_diagram(d, reduced))
    c = stage("build", filtered.build, d, reduced)
    out["d2_ok"] = stage("d2", filtered.verify_d_squared, c)
    result = stage("compute", spectral.compute, c)
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    # counted through the views the benchmark reads, which a baseline
    # checkout with another slice layout has too
    out["generators"] = c.n_generators
    out["nnz"] = sum(col.bit_count() for col in c.components[1].values())
    pages = [(p.r, sorted(p.dims.items())) for p in result.pages]
    out["pages_sha256"] = hashlib.sha256(repr(pages).encode()).hexdigest()
    if traced:  # what freeing the complex gives back
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        del c
        gc.collect()
        out["complex_mib"] = (held - tracemalloc.get_traced_memory()[0]) / MIB
        out["build_over_complex"] = out["build_peak_mib"] / out["complex_mib"]
    return out


def run_child(root: Path, case: dict, traced: bool = False) -> dict:
    """One fresh child on one input: its stage record, or its error."""
    spec = json.dumps({"root": str(root), "pd": case["pd"],
                       "reduced": case["reduced"], "traced": traced})
    try:
        proc = subprocess.run([sys.executable, __file__, "--child", spec],
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S} s"}
    if proc.returncode != 0:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {"error": f"exit {proc.returncode}: {tail}"}
    return json.loads(proc.stdout)


def traced_record(run: dict) -> dict:
    """The memory a traced child measured, or its error."""
    return {k: run[k] for k in ("error", *TRACED) if k in run}


def quartiles(values: list[float]) -> list[float]:
    """The lower and upper quartiles of ``values``; one value is both."""
    if len(values) < 2:
        return values * 2
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(runs: list[dict]) -> dict:
    """An input's runs on one checkout, with their medians and
    quartiles."""
    entry: dict = {"runs": runs}
    good = [r for r in runs if "error" not in r]
    if good:
        for k in ("crossings", "generators", "nnz", "pages_sha256", "d2_ok"):
            values = {r[k] for r in good}
            entry[k] = values.pop() if len(values) == 1 else sorted(values)
        entry["median"] = {k: statistics.median(r[k] for r in good)
                           for k in MEASURES}
        entry["quartiles"] = {k: quartiles([r[k] for r in good])
                              for k in MEASURES}
    return entry


def host() -> dict:
    return {"node": platform.node(), "platform": platform.platform(),
            "machine": platform.machine(), "cpus": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else None}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True, help="JSON file to write")
    p.add_argument("--only", default=",".join(GROUPS),
                   help=f"comma-separated groups of {', '.join(GROUPS)}")
    p.add_argument("--baseline",
                   help="another checkout, timed child by child in turn "
                        "with this one and recorded beside it")
    p.add_argument("--repeat", type=int, default=1,
                   help="fresh children per input")
    args = p.parse_args(argv)
    groups = set(args.only.split(","))
    if not groups <= set(GROUPS):
        p.error(f"unknown group in --only: {args.only}")
    checkouts = [ROOT]
    if args.baseline:
        checkouts.append(Path(args.baseline).resolve())
    entries = []
    for case in inputs(groups):
        runs: list[list[dict]] = [[] for _ in checkouts]
        for rep in range(max(1, args.repeat)):
            # alternate which checkout goes first, so drift hits both
            for j in sorted(range(len(checkouts)), reverse=rep % 2 == 1):
                runs[j].append(run_child(checkouts[j], case))
        # tracemalloc's counts do not depend on the host's speed: one
        # traced child per checkout, apart from the timed ones
        traced = [traced_record(run_child(root, case, traced=True))
                  for root in checkouts]
        entry = {k: case[k] for k in ("group", "name", "word", "strands")
                 if k in case}
        entry["flavor"] = "reduced" if case["reduced"] else "unreduced"
        entry.update(summarize(runs[0]), traced=traced[0])
        if args.baseline:
            base = entry["baseline"] = summarize(runs[1])
            base["traced"] = traced[1]
            entry["traced_ratio"] = {
                k: traced[0][k] / traced[1][k] for k in TRACED
                if traced[0].get(k) and traced[1].get(k)}
            entry["same_pages"] = (entry.get("pages_sha256")
                                   == base.get("pages_sha256"))
            pairs = [(a, b) for a, b in zip(*runs)
                     if "error" not in a and "error" not in b]
            ratios = entry["pair_ratios"] = {
                k: [a[k] / b[k] for a, b in pairs if b[k]] for k in MEASURES}
            entry["ratio_median"] = {k: statistics.median(v)
                                     for k, v in ratios.items() if v}
        entries.append(entry)
        for label, e in zip(("", "baseline "), (entry, entry.get("baseline"))):
            if e is None:
                continue
            print(f"{label:>9}{entry['name']:>14} {entry['flavor']:>9} "
                  + " ".join("{}={:.4g} [{:.4g}, {:.4g}]".format(
                                 k, v, *e["quartiles"][k])
                             for k, v in e.get("median", {}).items())
                  + "".join(f" {r['error']}" for r in e["runs"]
                            if "error" in r),
                  file=sys.stderr)
        for label, e in zip(("traced", "b.traced"),
                            (entry, entry.get("baseline"))):
            if e is not None:
                print(f"{label:>9}{entry['name']:>14} {entry['flavor']:>9} "
                      + " ".join(f"{k}={v:.4g}" if k != "error" else v
                                 for k, v in e["traced"].items()),
                      file=sys.stderr)
        for label, key in (("ratio", "ratio_median"),
                           ("tr.ratio", "traced_ratio")):
            if entry.get(key):
                print(f"{label:>9}{entry['name']:>14} {entry['flavor']:>9} "
                      + " ".join(f"{k}={v:.3f}"
                                 for k, v in entry[key].items()),
                      file=sys.stderr)
    record = {"script": "tools/bench_stages.py", "host": host(),
              "python": sys.version,
              "seeds": {"braid12": SEED, "probe8": SEED},
              "rlimit_as_mib": LIMIT_MIB, "repeat": args.repeat,
              "baseline": Path(args.baseline).name if args.baseline else None,
              "stages": list(STAGES), "traced": list(TRACED),
              "inputs": entries}
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n",
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        print(json.dumps(child(**json.loads(sys.argv[2]))))
        sys.exit(0)
    sys.exit(main())
