"""Cross-commit value check of two result files written by run.py.

    python3 perfbench/compare.py before.json after.json

Flags every item, matched by id, whose totals differ by more than
err_a + err_b, or whose certified flag or verdict differs: a faster run must
give the same value within its certified error.  Exits 1 if any item is
flagged.
"""

import json
import sys

import gate


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    results = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            results.append(json.load(fh))
    a, b = results
    if (a["workload"], a["seed"]) != (b["workload"], b["seed"]):
        print(f"note: comparing {a['workload']}/{a['seed']} with {b['workload']}/{b['seed']}", file=sys.stderr)
    flagged = gate.compare_items(a["items"], b["items"])
    shared = len({r["id"] for r in a["items"]} & {r["id"] for r in b["items"]})
    for item_id, reasons in flagged:
        print(f"FLAG {item_id}: {'; '.join(reasons)}")
    print(f"{len(flagged)} of {shared} shared items flagged")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
