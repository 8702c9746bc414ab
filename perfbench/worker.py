"""One workload run in a fresh process; started by ``run.py``.

Prints ``READY`` once its inputs are parsed.  With ``--setup-only`` it
then prints the host's speed relative to the reference (see speed.py)
and exits; otherwise it runs passes over the workload until
``--seconds`` would be exceeded, checks every output, and prints one
JSON line of raw measurements for ``run.py`` to turn into metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tools")]

from khss import cli  # noqa: E402
from khss.diagram import parse_pd  # noqa: E402
from khss.filtered import build, verify_d_squared  # noqa: E402
from khss.spectral import compute, khovanov_oracle  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

WORK_DIR = ROOT / ".perfbench_out"
WARM_SECONDS = 1.0   # warm probe passes repeat until this much wall time
WARM_MIN_REPS = 5
PROBE_THREADS = 2


def dims_of(table: dict) -> dict:
    """Run-record page table ("p,q" -> dim) as (p, q) -> dim."""
    return {tuple(int(x) for x in key.split(",")): dim
            for key, dim in table.items()}


def make_cases(workload: str, seed: int) -> list[inputs.Case]:
    if workload == "corpus":
        return inputs.corpus_cases(ROOT / "src" / "khss" / "data" / "knots.csv")
    mix = {"braid-complex": inputs.BRAID_COMPLEX_MIX,
           "probe": inputs.PROBE_MIX}[workload]
    return inputs.braid_cases(mix, seed, workload)


class Workload:
    """Inputs, reference values and passes of one workload."""

    def __init__(self, name: str, seed: int, cases: list[inputs.Case]):
        self.name = name
        self.seed = seed
        self.cases = cases
        self.diagrams = {c.name: parse_pd(c.pd) for c in cases}
        self._refs: dict[tuple[str, bool], dict] = {}
        self._rebuilt: dict[str, dict] = {}

    # ------------------------------------------------------ reference values

    def reference(self, case: inputs.Case) -> dict:
        """Values the outputs are checked against, computed once."""
        key = (case.name, case.reduced)
        ref = self._refs.get(key)
        if ref is None:
            ref = {"det": checks.fox_determinant(case.pd),
                   "generators": inputs.generator_count(case.pd, case.reduced)}
            if self.name == "corpus":
                total = inputs.reduced_totals()[case.name]
                ref["total"] = total if case.reduced else 2 * total
            self._refs[key] = ref
        return ref

    def outcome(self, case: inputs.Case, **kw) -> checks.Outcome:
        ref = self.reference(case)
        return checks.Outcome(case.name, case.reduced, ref["det"],
                              expected_generators=ref["generators"],
                              expected_total=ref.get("total"), **kw)

    # ---------------------------------------------------------------- passes

    def cycle(self, tr, work: Path) -> dict:
        """One cold pass (and on probe its warm passes); returns the
        timings and the outcomes to check."""
        if self.name == "probe":
            return self._probe_cycle(tr, work)
        return self._library_cycle(tr)

    def _library_cycle(self, tr) -> dict:
        """corpus: build -> d^2 -> compute; braid-complex: build -> d^2 ->
        khovanov_oracle.  Both single-threaded."""
        pages = self.name == "corpus"
        spans = []
        outcomes = []
        for case in self.cases:
            t0 = time.perf_counter()
            try:
                t0, t1, outcome = self._library_case(tr, case, pages)
            except Exception as exc:  # counted as a failed case, not raised
                traceback.print_exc()
                t1 = time.perf_counter()
                outcome = self.outcome(
                    case, flags={f"raised {type(exc).__name__}": False})
            spans.append((t0, t1))
            outcomes.append(outcome)
        return {"cold": sum(t1 - t0 for t0, t1 in spans), "spans": spans,
                "outcomes": outcomes}

    def _library_case(self, tr, case: inputs.Case, pages: bool):
        d = self.diagrams[case.name]
        if tr.on:
            tracing.probe_layers(tr, case.name, case.pd, case.reduced)
        t0 = time.perf_counter()
        with tr.span("filtered.build", case.name):
            c = build(d, reduced=case.reduced)
        with tr.span("filtered.d2", case.name):
            ok = verify_d_squared(c)
        if pages:
            with tr.span("spectral.compute", case.name):
                res = compute(c)
            t1 = time.perf_counter()
            # the oracle is a check here, outside the timed pass
            with tr.span("spectral.oracle", case.name):
                oracle = khovanov_oracle(c).dims
            extra = {"page2": res.page(2).dims, "oracle": oracle,
                     "einf_total": res.infinity.total(),
                     "homology_total": sum(res.total_homology.values())}
            tr.counters["spectral.pages"] += len(res.pages)
        else:
            with tr.span("spectral.oracle", case.name):
                extra = {"page2": khovanov_oracle(c).dims}
            t1 = time.perf_counter()
        if tr.on:
            tracing.count_complex(tr.counters, c)
        return t0, t1, self.outcome(
            case, generators=c.n_generators, d_squared=ok,
            chain=Counter((g.h, g.q) for g in c.generators), **extra)

    def _probe_cycle(self, tr, work: Path) -> dict:
        """kh probe in-process: a cold pass that computes and fills the
        cache, then warm passes served from it."""
        corpus = work / "probe.csv"
        corpus.write_text("".join(f"{c.name},{c.pd}\n" for c in self.cases))
        cache = Path(tempfile.mkdtemp(dir=work, prefix="cache-"))
        argv = ["probe", str(corpus), "--threads", str(PROBE_THREADS),
                "--cache", str(cache)]
        if tr.on:
            for case in self.cases:
                tracing.probe_layers(tr, case.name, case.pd, case.reduced)
        with tr.wrap_cli():
            buf = io.StringIO()
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.main(argv)
            except Exception:  # counted through the exit-code check
                traceback.print_exc()
                code = None
            cold = time.perf_counter() - w0
            cpu = time.process_time() - c0
            cold_rows = _rows(buf.getvalue())
            before = _snapshot(cache)
            tr.phase = "warm"

            def warm_pass():
                out = io.StringIO()
                try:
                    with contextlib.redirect_stdout(out):
                        rc = cli.main(argv)
                except Exception:  # counted through the row check
                    traceback.print_exc()
                    rc = None
                return rc, out.getvalue()

            def same_rows(result):
                rc, text = result
                rows = _rows(text)
                return [rc == 0 and rows.get(case.name) == cold_rows.get(
                    case.name) for case in self.cases]

            times, warm_same = _repeat(warm_pass, same_rows)
        untouched = _snapshot(cache) == before
        tr.counters["cli.record_bytes"] += _dir_bytes(cache)
        outcomes = []
        for i, case in enumerate(self.cases):
            d = self.diagrams[case.name]
            path = cache / f"{cli.cache_key(d, case.reduced)}.json"
            flags = {"exit_code": code == 0,
                     "warm_rows_identical": warm_same[i],
                     "warm_cache_untouched": untouched}
            try:
                ref = self._probe_reference(case, tr)
                record = json.loads(path.read_text())["record"]
            except Exception:  # counted as a failed case, not raised
                traceback.print_exc()
                outcomes.append(self.outcome(case, flags={**flags,
                                                          "record": False}))
                continue
            pages = record["pages"]
            row = cold_rows.get(case.name)
            flags.update({
                "row": row is not None and row[:3] == [
                    case.name, case.flavor, str(record["collapse_page"])]})
            outcomes.append(self.outcome(
                case, generators=ref["generators"], chain=ref["chain"],
                page2=dims_of(pages["2"]), oracle=ref["oracle"],
                einf_total=sum(pages[max(pages, key=int)].values()),
                homology_total=sum(record["total_homology"].values()),
                d_squared=ref["d_squared"], flags=flags))
            tr.counters["spectral.pages"] += len(pages)
        return {"cold": cold, "spans": [(w0, w0 + cold)], "warm": times,
                "warm_reps": len(times), "outcomes": outcomes,
                "cpu_per_wall": cpu / cold}

    def _probe_reference(self, case: inputs.Case, tr) -> dict:
        """The complex behind a probe row, rebuilt outside the timed
        passes: chain dimensions, page 2 by the oracle, d^2 and the size
        counters."""
        ref = self._rebuilt.get(case.name)
        if ref is None:
            c = build(self.diagrams[case.name], reduced=case.reduced)
            ref = {"generators": c.n_generators,
                   "chain": Counter((g.h, g.q) for g in c.generators),
                   "oracle": khovanov_oracle(c).dims,
                   "d_squared": verify_d_squared(c),
                   "counters": Counter()}
            tracing.count_complex(ref["counters"], c)
            self._rebuilt[case.name] = ref
        if tr.on:
            tracing.merge_counters(tr.counters, ref["counters"])
        return ref


def _repeat(fn, same):
    """Run fn until WARM_SECONDS of wall time and WARM_MIN_REPS runs.
    Returns the seconds of every run and, per case, whether ``same``
    found its result unchanged in every run."""
    times, ok = [], None
    while sum(times) < WARM_SECONDS or len(times) < WARM_MIN_REPS:
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
        flags = same(out)
        ok = flags if ok is None else [a and b for a, b in zip(ok, flags)]
    return times, ok


def _rows(text: str) -> dict[str, list[str]]:
    lines = text.strip().splitlines()[1:]  # header first
    return {row.split(",")[0]: row.split(",") for row in lines}


def _snapshot(directory: Path) -> dict:
    return {p.name: (p.stat().st_ino, p.stat().st_mtime_ns, p.stat().st_size)
            for p in directory.iterdir()}


def _dir_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.iterdir())


# ---------------------------------------------------------- running a workload

def run(wl: Workload, seconds: float, trace: bool, work: Path) -> dict:
    null = tracing.NullTracer()
    cycles = []
    with speed.SpeedSampler() as sampler:
        if trace:
            # one untraced and one traced pass; their ratio is the overhead
            tr = tracing.Tracer()
            cycles = [wl.cycle(null, work), wl.cycle(tr, work)]
        else:
            start = time.perf_counter()
            while True:
                t0 = time.perf_counter()
                cycles.append(wl.cycle(null, work))
                took = time.perf_counter() - t0
                if time.perf_counter() - start + took > seconds:
                    break
    for c in cycles:
        c["ref"] = sum(sampler.rescale(*span) for span in c["spans"])
    outcomes = [o for c in cycles for o in c["outcomes"]]
    failed = [o for o in outcomes if checks.failures(o)]
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {
        "inputs": [{"name": c.name, "crossings": len(c.word), "strands":
                    c.strands, "word": list(c.word)}
                   for c in wl.cases if c.word is not None],
        "cold_s": [c["cold"] for c in cycles],
        "ref_s": [c["ref"] for c in cycles],
        "warm_s": [t for c in cycles for t in c.get("warm", [])],
        "peak_rss_mb": usage / 1024,
        "attempted": len(outcomes),
        "failed": len(failed),
        "failures": sorted({f"{o.name} {'reduced' if o.reduced else 'unreduced'}"
                            f": {', '.join(checks.failures(o))}"
                            for o in failed}),
        "self_test": checks.self_test(outcomes),
    }
    if trace:
        result["layers"] = tracing.layer_metrics(tr, cycles[1], cycles[0])
        tr.write(WORK_DIR / f"spans-{wl.name}-seed{wl.seed}.json")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True,
                    choices=["corpus", "braid-complex", "probe"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = Workload(args.workload, args.seed,
                  make_cases(args.workload, args.seed))
    print("READY", flush=True)
    if args.setup_only:
        # the host's speed just after set-up, for run.py to rescale by
        print(speed.speed_now())
        return 0
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK_DIR, prefix=f"{args.workload}-"))
    try:
        result = run(wl, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
