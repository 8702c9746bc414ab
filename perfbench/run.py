"""khss benchmark: one workload per call, measured in fresh processes.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload corpus|braid-complex|probe \
        --seed N --seconds S --trace 0|1

The workload runs in one child process.  Set-up time is sampled in
set-up-only child processes started before and after it.  Times are
rescaled to a reference host speed sampled through the run (speed.py).
Every metric is printed by name with its unit, followed by a last line
holding one JSON object:
end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``.  See README.md in this directory for the metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
REQUIRED = ["src/khss/__init__.py", "src/khss/data/knots.csv",
            "tools/gen_corpus.py"]
SETUP_SAMPLES = 6      # set-up-only children, half before the workload
CHILD_LIMIT_S = 170.0  # whole run, so that it ends within 180 s

END_TO_END_UNITS = {"wall_ref_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def per_layer_units() -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


class Child:
    """A worker process, killed if the run's deadline passes."""

    def __init__(self, args: list[str], deadline: float):
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(WORKER), *args], cwd=ROOT,
            stdout=subprocess.PIPE, text=True)
        self.timer = threading.Timer(max(0.0, deadline - self.start),
                                     self.proc.kill)
        self.timer.start()

    def setup_seconds(self) -> float:
        """Seconds from spawn until the child reports its inputs ready."""
        line = self.proc.stdout.readline()
        if line.strip() != "READY":
            self.finish()
            raise RuntimeError("worker failed during set-up")
        return time.perf_counter() - self.start

    def stop(self) -> None:
        """Kill the child if it still runs, and reap it."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.timer.cancel()

    def finish(self) -> str:
        out = self.proc.stdout.read()
        code = self.proc.wait()
        self.timer.cancel()
        if code != 0:
            raise RuntimeError(f"worker exited with code {code}")
        return out


def main() -> int:
    ap = argparse.ArgumentParser(description="khss benchmark")
    ap.add_argument("--workload", required=True,
                    choices=["corpus", "braid-complex", "probe"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a khss checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    deadline = time.perf_counter() + CHILD_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    def setup_only() -> float:
        """Set-up seconds of one child at the reference speed."""
        child = Child([*common, "--seconds", "0", "--setup-only"], deadline)
        seconds = child.setup_seconds()
        return seconds * float(child.finish())

    # set-up samples before and after the workload, so that they span
    # the run rather than one phase of the host's speed
    setups = [setup_only() for _ in range(SETUP_SAMPLES // 2)]
    child = Child([*common, "--seconds", str(args.seconds),
                   "--trace", str(args.trace)], deadline)
    try:
        child.setup_seconds()
        raw = json.loads(child.finish().strip().splitlines()[-1])
    finally:
        child.stop()
    setups += [setup_only() for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]

    fail_frac = raw["failed"] / raw["attempted"]
    checks_caught = all(v > 0 for v in raw["self_test"].values())
    for item in raw["inputs"]:
        print(f"input {item['name']}: {item['crossings']} crossings, "
              f"{item['strands']} strands, word {item['word']}")
    for line in raw["failures"]:
        print(f"FAILED {line}")
    print(f"fail_frac = {fail_frac:.4f} ({raw['failed']}/{raw['attempted']})")
    for kind, frac in raw["self_test"].items():
        print(f"self-test {kind}: fail_frac {frac:.4f}"
              f" ({'caught' if frac > 0 else 'MISSED'})")

    if args.trace:
        units = per_layer_units()
        values = raw["layers"]
    else:
        units = END_TO_END_UNITS
        values = {
            "wall_ref_s": statistics.median(raw["ref_s"]),
            "peak_rss_mb": raw["peak_rss_mb"],
            "setup_s": statistics.median(setups),
        }
        print(f"passes: {len(raw['cold_s'])} cold; set-up samples: "
              f"{len(setups)}")
        print(f"wall_s = {statistics.median(raw['cold_s']):.6g} s "
              f"(median cold pass, wall clock, not rescaled)")
        if raw["warm_s"]:
            # per-layer metric, printed here too for the untraced run
            print(f"warm_s = {statistics.median(raw['warm_s']):.6g} s "
                  f"(median of {len(raw['warm_s'])} warm passes)")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": raw["failed"] == 0 and checks_caught,
                      "attempted": raw["attempted"], "failed": raw["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, KeyError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
