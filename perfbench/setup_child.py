"""One set-up of a workload in a fresh interpreter; started by run.py.

It imports the library, builds every symbol of the workload (tail spot
checks included), parses the CLI specs, then computes the first certified
result of one small fixed symbol and prints one JSON line.  The parent
times from process start to that line.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402
import treeschur as ts  # noqa: E402

IMPORT_S = time.perf_counter() - T0

import workloads  # noqa: E402

FIRST_SYMBOL_S = 0.5  # power symbol 0.5^n at q = 2
FIRST_SYMBOL_Q = 2


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    t = time.perf_counter()
    build_errors = 0
    for item in workloads.make_items(args.workload, args.seed):
        try:
            item.build()
        except Exception:  # a refused input is gated in the measured run
            build_errors += 1
    construct_ms = 1e3 * (time.perf_counter() - t)

    t = time.perf_counter()
    from treeschur.symbol_io import symbol_from_spec

    for spec, _, _ in workloads.CLI_SPECS:
        symbol_from_spec(spec)
    parse_ms = 1e3 * (time.perf_counter() - t)

    first_svd = []
    if args.trace:
        svd = np.linalg.svd

        def timed_svd(*a, **k):
            t0 = time.perf_counter()
            try:
                return svd(*a, **k)
            finally:
                first_svd.append(time.perf_counter() - t0)

        np.linalg.svd = timed_svd
    rep = ts.schur_norm(ts.power_symbol(FIRST_SYMBOL_S), FIRST_SYMBOL_Q)
    print(json.dumps({
        "import_s": IMPORT_S,
        "construct_ms": construct_ms,
        "parse_ms": parse_ms,
        "first_svd_ms": 1e3 * first_svd[0] if first_svd else None,
        "build_errors": build_errors,
        "total": rep.total,
        "certified_error": rep.certified_error,
        "certified": bool(rep.certified),
        "truncation_n": rep.truncation_n,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
