"""One benchmark pass in a fresh interpreter.

Reads a JSON spec from argv[1]: {"points": [[n, char, with_oracle], ...],
"outdir": str, "trace": bool}.  Certifies the points one after another in
this process (jobs=1), writes each certificate with `write_certificate`, and
prints one JSON line with the pass wall time and its `time.monotonic()`
interval (a system-wide clock, so `run.py` can match it with its speed
samples), the process's peak RSS, each
point's body sha256 and, when tracing, the per-layer metrics and the guard
findings.  Import time is not part of `wall_s`; `run.py` measures it apart.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import traceback
from time import monotonic, perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from probes import HEADER_STAGES, Tracer  # noqa: E402

MAXDEG = 13
ORACLE_BUDGET = 10000

# Relative and absolute slack when a stage span is compared with the header
# timing of the same stage.  The header rounds to milliseconds and its timer
# also covers the glue between the wrapped calls (building the canonical
# vector lists, the oracle's degree cap), which is a small share of a stage.
STAGE_REL_SLACK = 0.05
STAGE_ABS_SLACK = 0.01


def body_bytes(data: bytes) -> bytes:
    """Certificate bytes after the header line: the reproducible body."""
    return data.split(b"\n", 2)[2]


def cert_name(n: int, char: int, oracle: bool) -> str:
    return f"cert_n{n}_char{char}_oracle{int(oracle)}.json"


def stage_mismatches(header: dict, spans: dict) -> list:
    """Header timings that the stage spans measured around them contradict."""
    errors = []
    for key, metrics in HEADER_STAGES.items():
        if key not in header:
            continue
        want = header[key]
        got = sum(spans.get(m, 0.0) for m in metrics)
        if got > want + 0.0006 or got < want * (1 - STAGE_REL_SLACK) - STAGE_ABS_SLACK:
            errors.append(f"stage '{key}' spans {got:.4f} s but the "
                          f"certificate header says {want:.3f} s")
    return errors


def run_pass(spec: dict) -> dict:
    import numpy
    import preproj_hh.cli as cli

    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()

    outdir = spec["outdir"]
    points = [(int(n), int(c), bool(o)) for n, c, o in spec["points"]]
    results = []
    errors: list = []
    start = monotonic()
    t0 = perf_counter()
    for n, char, oracle in points:
        entry = {"n": n, "char": char, "oracle": oracle, "error": None}
        if tracer is not None:
            tracer.point_stages = {}
        try:
            cert = cli.compute_certificate(n, char, MAXDEG, ORACLE_BUDGET, oracle)
            cli.write_certificate(cert, os.path.join(outdir, cert_name(n, char, oracle)))
            entry["pass"] = cert["body"]["pass"] is True
            if tracer is not None:
                errors += [f"n={n} char={char}: {e}" for e in stage_mismatches(
                    cert["header"]["timings"], tracer.point_stages)]
        except Exception:
            entry["error"] = traceback.format_exc(limit=3)
        results.append(entry)
    wall = perf_counter() - t0
    end = monotonic()

    for entry in results:
        if entry["error"] is None:
            path = os.path.join(outdir, cert_name(entry["n"], entry["char"], entry["oracle"]))
            with open(path, "rb") as fh:
                entry["sha256"] = hashlib.sha256(body_bytes(fh.read())).hexdigest()

    out = {
        "wall_s": wall,
        "interval": [start, end],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "points": results,
    }
    if tracer is not None:
        properties = set()
        if any(c == 0 for _, c, _ in points):
            properties.add("char0")
        if any(o for _, _, o in points):
            properties.add("oracle")
        errors += [f"wrapped entry point never called: {t}"
                   for t in tracer.unreached(properties)]
        out["layers"] = tracer.metrics()
        out["absent"] = tracer.absent
        out["guard_errors"] = errors
    return out


if __name__ == "__main__":
    print(json.dumps(run_pass(json.loads(sys.argv[1]))))
