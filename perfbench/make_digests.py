"""Regenerate digests.json: the certificate body sha256 of every grid point any
seed of any workload can draw.

Run it from the root of a checkout at the commit whose certificate bytes are
the reference (about two minutes on two cores):

    python3 perfbench/make_digests.py

A change that keeps the certificate bytes identical never needs to run it.
"""

from __future__ import annotations

import json
import sys
import time

from run import DIGESTS, WORKLOADS, digest_key, run_worker


def main() -> int:
    digests = {}
    for workload in WORKLOADS.values():
        result = run_worker(list(workload.drawable), False, time.monotonic() + 3600)
        for p in result["points"]:
            key = digest_key((p["n"], p["char"], p["oracle"]))
            if p["error"] is not None or not p["pass"]:
                print(f"error: {key} did not certify:\n{p['error']}", file=sys.stderr)
                return 1
            digests[key] = p["sha256"]
    with open(DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
