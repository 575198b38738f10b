"""Certificate benchmark for preproj-hh.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload generic_char0 --seed 1 --seconds 10 --trace 0

Each workload is a closed loop with one client: one fresh worker process
certifies the workload's grid points one at a time (jobs=1) and writes each
certificate with `write_certificate`.  Passes repeat until `--seconds` have
passed (at least one).  Every point's certificate body must match the sha256
committed in `digests.json`; a point that raises, fails a verdict or changes
its bytes counts as failed.

Times are reported at a reference machine speed: a thread of this process
samples the machine's speed while the workers run (see SpeedMonitor), and
each measured time is scaled by the speed sampled over its own interval.
The raw times are printed too.

With `--trace 0` the run reports the end-to-end metrics.  With `--trace 1`
it alternates untraced and traced passes and reports the per-layer metrics
of the traced ones (see probes.py) and the tracing overhead.  The last line
of standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}; the lines before it give the environment and every metric by
name with its unit.  README.md in this directory explains the workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
DIGESTS = os.path.join(HERE, "digests.json")

sys.path.insert(0, HERE)
from probes import layer_metric_names  # noqa: E402

Point = Tuple[int, int, bool]   # (n, characteristic, with_oracle)

ODD_PRIMES = (3, 5, 7, 11, 13)
SETUP_SAMPLES = 5
# Speed calibration (see SpeedMonitor): a fixed Fraction loop runs every
# SPEED_INTERVAL_S; REF_LOOP_S is its duration at the reference speed.
SPEED_INTERVAL_S = 0.02
REF_LOOP_S = 0.0005
# Every run ends within 180 s; no new pass starts once the run would then
# pass RUN_SOFT_LIMIT_S, and a worker still running at RUN_HARD_LIMIT_S is
# stopped.
RUN_SOFT_LIMIT_S = 150.0
RUN_HARD_LIMIT_S = 170.0


@dataclass(frozen=True)
class Workload:
    name: str
    draw: Callable[[random.Random], List[Point]]
    drawable: Tuple[Point, ...]   # every point any seed can draw


def _modular_n7(rng: random.Random) -> List[Point]:
    # both characteristics dividing 2n+1 = 15, in seed order: one of them
    # alone would make the run time depend on the seed by about 15%
    chars = [3, 5]
    rng.shuffle(chars)
    return [(7, c, False) for c in chars]


def _grid_small(rng: random.Random) -> List[Point]:
    chars = [0] + sorted(rng.sample(ODD_PRIMES, 2))
    return [(n, c, True) for n in range(1, 5) for c in chars]


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("generic_char0", lambda rng: [(6, 0, False)], ((6, 0, False),)),
    Workload("modular_n7", _modular_n7, ((7, 3, False), (7, 5, False))),
    Workload("grid_small", _grid_small,
             tuple((n, c, True) for n in range(1, 5) for c in (0,) + ODD_PRIMES)),
)}

END_TO_END: Dict[str, str] = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith(("_ratio", ".density")):
        return "ratio"
    return "count"


PER_LAYER: Dict[str, str] = {name: _unit(name)
                             for name in layer_metric_names() + ["trace.overhead_ratio"]}


class BenchError(RuntimeError):
    """The benchmark itself could not produce a trustworthy result."""


def _speed_loop() -> float:
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 150):
        acc += Fraction(i % 97, i % 89 + 1)
    return time.perf_counter() - t0


class SpeedMonitor:
    """Samples the machine's speed while the workers run.

    The machine's speed drifts by tens of percent within seconds, because
    other tenants share the host: one certificate point measured back to
    back took 2.6 to 5.0 s.  Process CPU time drifts the same way, so it is
    slowed execution, not time spent descheduled.  A thread of this parent
    process therefore times a fixed Fraction loop every SPEED_INTERVAL_S on
    the core the workers run on (main() pins both to one core), so that the
    loop sees the conditions the worker sees at that moment.  The loop takes
    about 2.5% of that core, the same on every run.  `speed(a, b)` is the
    mean of REF_LOOP_S / loop time over the samples taken in the monotonic
    interval [a, b]; a time measured over [a, b], multiplied by it, is that
    time at the reference speed.
    """

    def __init__(self):
        self.samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _sample(self):
        while not self._stop.wait(SPEED_INTERVAL_S):
            duration = _speed_loop()
            self.samples.append((time.monotonic(), duration))

    def speed(self, a: float, b: float) -> float:
        samples = list(self.samples)
        if not samples:
            raise BenchError("no speed samples were taken")
        inside = [d for t, d in samples if a <= t <= b]
        if not inside:   # an interval shorter than the sampling period
            inside = [min(samples, key=lambda s: abs(s[0] - (a + b) / 2))[1]]
        return statistics.fmean(REF_LOOP_S / d for d in inside)


def digest_key(point: Point) -> str:
    n, c, o = point
    return f"n{n}_char{c}_oracle{int(o)}"


def load_digests() -> Dict[str, str]:
    with open(DIGESTS) as fh:
        return json.load(fh)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("run exceeded its time limit")
    return left


def measure_setup(deadline: float) -> List[dict]:
    """Seconds for a fresh interpreter to import preproj_hh.cli (and numpy)."""
    out = []
    for _ in range(SETUP_SAMPLES):
        start, t0 = time.monotonic(), time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", "import preproj_hh.cli"],
                              env=_env(), cwd=ROOT, capture_output=True,
                              timeout=_remaining(deadline))
        out.append({"wall_s": time.perf_counter() - t0,
                    "interval": [start, time.monotonic()]})
        if proc.returncode != 0:
            raise BenchError("cannot import preproj_hh.cli: "
                             + proc.stderr.decode(errors="replace").strip()[-500:])
    return out


def run_worker(points: List[Point], trace: bool, deadline: float) -> dict:
    os.makedirs(WORK, exist_ok=True)
    outdir = tempfile.mkdtemp(dir=WORK)
    try:
        spec = json.dumps({"points": points, "outdir": outdir, "trace": trace})
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), spec],
                              env=_env(), cwd=ROOT, capture_output=True,
                              timeout=_remaining(deadline))
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError("worker failed: "
                         + proc.stderr.decode(errors="replace").strip()[-2000:])
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def failed_points(result: dict, digests: Dict[str, str]) -> List[str]:
    """Points that raised, failed a verdict or changed their body bytes."""
    bad = []
    for p in result["points"]:
        key = digest_key((p["n"], p["char"], p["oracle"]))
        if p["error"] is not None:
            bad.append(f"{key}: raised\n{p['error']}")
        elif not p["pass"]:
            bad.append(f"{key}: a verdict failed")
        elif p["sha256"] != digests.get(key):
            bad.append(f"{key}: body sha256 {p['sha256']} != committed {digests.get(key)}")
    return bad


def measure(points: List[Point], seconds: float, trace: bool,
            digests: Dict[str, str], deadline: float) -> dict:
    """Repeat passes for `seconds`; traced runs alternate untraced and traced."""
    modes = (False, True) if trace else (False,)
    runs: Dict[bool, List[dict]] = {False: [], True: []}
    attempted = 0
    failures: List[str] = []
    run_start = deadline - RUN_HARD_LIMIT_S
    start = time.monotonic()
    while True:
        cycle_start = time.monotonic()
        for mode in modes:
            result = run_worker(points, mode, deadline)
            if result.get("guard_errors"):
                raise BenchError("trace guard: " + "; ".join(result["guard_errors"]))
            attempted += len(result["points"])
            failures += failed_points(result, digests)
            runs[mode].append(result)
        now = time.monotonic()
        if (now - start >= seconds
                or (now - run_start) + (now - cycle_start) > RUN_SOFT_LIMIT_S):
            break
    return {"runs": runs, "attempted": attempted, "failures": failures}


def _ref_s(sample: dict, speed: SpeedMonitor) -> float:
    return sample["wall_s"] * speed.speed(*sample["interval"])


def end_to_end_metrics(runs: List[dict], setup: List[dict],
                       speed: SpeedMonitor) -> Dict[str, float]:
    return {
        "wall_s": statistics.median(_ref_s(r, speed) for r in runs),
        "setup_s": statistics.median(_ref_s(s, speed) for s in setup),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }


def layer_metrics(untraced: List[dict], traced: List[dict],
                  speed: SpeedMonitor) -> Dict[str, float]:
    out = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_ratio":
            continue
        if unit == "s":
            out[name] = statistics.median(
                r["layers"][name] * speed.speed(*r["interval"]) for r in traced)
        else:
            out[name] = statistics.median(r["layers"][name] for r in traced)
    out["trace.overhead_ratio"] = (
        statistics.median(_ref_s(r, speed) for r in traced)
        / statistics.median(_ref_s(r, speed) for r in untraced))
    return out


def environment(seed: int, workload: str, trace: bool, sample: dict) -> dict:
    rev = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            rev = proc.stdout.strip()
    src = hashlib.sha256()
    pkg = os.path.join(SRC, "preproj_hh")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read() + b"\0")
    return {"git_rev": rev, "src_sha256": src.hexdigest()[:16],
            "python": sample["python"], "numpy": sample["numpy"],
            "nproc": os.cpu_count(), "seed": seed, "workload": workload,
            "trace": int(trace)}


def parse_args(argv: Optional[List[str]], workloads: Dict[str, Workload]):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None,
         workloads: Dict[str, Workload] = WORKLOADS,
         digests: Optional[Dict[str, str]] = None) -> int:
    args = parse_args(argv, workloads)
    deadline = time.monotonic() + RUN_HARD_LIMIT_S
    if not os.path.isfile(os.path.join(SRC, "preproj_hh", "cli.py")):
        print(f"error: no program to measure under {SRC}", file=sys.stderr)
        return 2
    if digests is None:
        digests = load_digests()
    trace = bool(args.trace)
    points = workloads[args.workload].draw(random.Random(args.seed))
    affinity = os.sched_getaffinity(0)
    # pin this thread before it starts the sampler and the workers, which
    # inherit the one core
    os.sched_setaffinity(0, {max(affinity)})
    try:
        with SpeedMonitor() as speed:
            setup = measure_setup(deadline)
            m = measure(points, args.seconds, trace, digests, deadline)
        untraced, traced = m["runs"][False], m["runs"][True]
        if trace:
            metrics, units = layer_metrics(untraced, traced, speed), PER_LAYER
        else:
            metrics, units = end_to_end_metrics(untraced, setup, speed), END_TO_END
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        os.sched_setaffinity(0, affinity)
        try:
            os.rmdir(WORK)   # only when empty: another run may share it
        except OSError:
            pass

    env = environment(args.seed, args.workload, trace, untraced[0])
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"points {' '.join(digest_key(p) for p in points)}")
    print(f"passes untraced={len(untraced)} traced={len(traced)} "
          f"setup_samples={len(setup)} speed_samples={len(speed.samples)}")
    for r in untraced + traced:
        print(f"pass trace={int('layers' in r)} raw_wall_s={r['wall_s']} "
              f"speed={speed.speed(*r['interval'])} peak_rss_mb={r['peak_rss_mb']}")
    print("setup raw_s=" + ",".join(str(x["wall_s"]) for x in setup))
    for failure in m["failures"]:
        print(f"FAILED {failure}")
    for name in units:
        print(f"metric {name} {metrics[name]} {units[name]}")
    print(json.dumps({
        "correct": not m["failures"],
        "attempted": m["attempted"],
        "failed": len(m["failures"]),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
