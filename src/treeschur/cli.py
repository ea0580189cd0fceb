"""Command-line front-end.

Subcommands: norm, spherical, verify, padic-distance, peller.  Each command
returns its exit code, inputs and results; ``main`` builds the JSON run
report (schema "treeschur/1") from them and prints it on stdout, or a flat
projection under ``--out csv``.  Exit codes: 0 success; 1 malformed input,
usage errors included; 2 not a Schur multiplier at certified tolerance;
3 no convergence.  Exits 1 and 3 print one ``error:`` line on stderr and
nothing on stdout.  A NaN or infinite number is malformed input, so the
report is always strict JSON.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time

import numpy as np

from .disc import PolarQuadrature, coeff_hankel, difference_sequence, g_from_symbol, peller_sandwich
from .errors import DivergentDiagonals, NoConvergence, SizeCap, TreeSchurError
from .padics import PMatrix2, lattice_distance, parse_rational
from .spherical import eigenvalue_from_z, schur_norm_in_s, schur_norm_in_z
from .symbol_io import parse_complex, parse_degree, symbol_from_spec
from .symbols import INF, N_CAP, counterexample_block_lower_bound, schur_norm
from .verify import SUITES, run_suite

SCHEMA = "treeschur/1"

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_NOT_MULTIPLIER = 2
EXIT_NO_CONVERGENCE = 3


def _fmt(x) -> str:
    return f"{x:.17g}"


def _jsonable(value):
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, float) and value == float("inf"):
        return "inf"
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _emit(report: dict, out: str):
    report = _jsonable(report)
    if out == "json":
        print(json.dumps(report, indent=2, sort_keys=True, allow_nan=False))
        return
    rows = report.get("rows")
    if rows:  # grid projection
        headers = list(rows[0].keys())
        print(",".join(headers))
        for row in rows:
            print(",".join(_csv_cell(row.get(h)) for h in headers))
        return
    for key, value in _flatten(report):
        print(f"{key},{_csv_cell(value)}")


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return _fmt(value)
    if isinstance(value, dict) and set(value) == {"re", "im"}:
        return f"{_fmt(value['re'])}{'+' if value['im'] >= 0 else ''}{_fmt(value['im'])}j"
    return str(value)


def _flatten(obj, prefix=""):
    items = []
    if isinstance(obj, dict):
        if set(obj) == {"re", "im"}:
            return [(prefix, obj)]
        for k, v in obj.items():
            items.extend(_flatten(v, f"{prefix}.{k}" if prefix else str(k)))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            items.extend(_flatten(v, f"{prefix}[{i}]"))
    else:
        items.append((prefix, obj))
    return items


def _read_json_input(path: str):
    text = sys.stdin.read() if path == "-" else open(path, "r", encoding="utf-8").read()
    return json.loads(text)


def _read_symbol(path: str):
    """The symbol and its echo from the JSON spec at ``path``."""
    return symbol_from_spec(_read_json_input(path))


def positive_float(text: str) -> float:
    """``--err``: a finite positive float."""
    err = float(text)
    # NaN fails the comparison too
    if not 0.0 < err < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text}")
    return err


def window_rows(text: str) -> int:
    """``--n``: a Hankel truncation in 1..N_CAP."""
    n = int(text)
    if not 1 <= n <= N_CAP:
        raise argparse.ArgumentTypeError(f"must lie in 1..{N_CAP}, got {text}")
    return n


def _report(command: str, inputs: dict, results: dict, wall_time_s: float) -> dict:
    return {
        "schema": SCHEMA,
        "command": command,
        "inputs": inputs,
        "results": results,
        "wall_time_s": wall_time_s,
    }


# ---------------------------------------------------------------------------
# subcommands: each returns (exit code, inputs, results), and spherical its
# rows too; a malformed input raises, and ``main`` maps it to its exit code
# ---------------------------------------------------------------------------

def cmd_norm(args):
    sym, echo = _read_symbol(args.symbol)
    if args.q is not None:
        q = parse_degree(args.q)
    elif echo.get("kind") == "spherical":
        q = parse_degree(echo["q"])
    else:
        q = INF
    inputs = {"symbol": echo, "q": "inf" if q == INF else q, "target_err": args.err}
    try:
        rep = schur_norm(sym, q, target_err=args.err)
    except DivergentDiagonals as exc:
        # a verdict, not a failure: the report still goes out
        results = {"multiplier": False, "reason": str(exc)}
        if echo.get("kind") == "lacunary":
            results["block_lower_bounds"] = {
                str(n): counterexample_block_lower_bound(n) for n in (64, 128, 256, 512, 1024)
            }
        print("not a Schur multiplier at certified tolerance", file=sys.stderr)
        return EXIT_NOT_MULTIPLIER, inputs, results
    results = {
        "multiplier": True,
        "total": rep.total,
        "c_plus": rep.c_plus,
        "c_minus": rep.c_minus,
        "hankel_term": rep.hankel_term,
        "truncation_n": rep.truncation_n,
        "certified_error": rep.certified_error,
        "certified": rep.certified,
        "budget": None if rep.budget is None else dataclasses.asdict(rep.budget),
        "sketch_width": rep.sketch_width,
    }
    return EXIT_OK, inputs, results


# points a spherical --grid may have: a grid at the limit took 2.7 s and
# 173 MB peak RSS, with 15 MB of JSON (one process, 2-vCPU Xeon)
MAX_GRID_POINTS = 100_000


def _grid_values(spec: str):
    try:
        re_part, im_part = spec.split(",")
        re0, re1, n_re = re_part.split(":")
        im0, im1, n_im = im_part.split(":")
        n_re, n_im = int(n_re), int(n_im)
        if n_re * n_im > MAX_GRID_POINTS:
            raise SizeCap(f"grid of {n_re} x {n_im} points exceeds {MAX_GRID_POINTS:,}")
        res = np.linspace(float(re0), float(re1), n_re)
        ims = np.linspace(float(im0), float(im1), n_im)
    except ValueError as exc:
        raise ValueError("grid spec must look like 're0:re1:n,im0:im1:n'") from exc
    return [complex(a, b) for b in ims for a in res]


def cmd_spherical(args):
    q = parse_degree(args.q)
    if args.grid is not None:
        points = [("s", s) for s in _grid_values(args.grid)]
    elif args.s is not None:
        points = [("s", parse_complex(args.s))]
    else:
        points = [("z", parse_complex(args.z))]
    rows = []
    for mode, value in points:
        if mode == "z":
            norm = schur_norm_in_z(q, value)
            try:
                s_val = eigenvalue_from_z(q, value)
            except ValueError as exc:
                raise ValueError(f"--z {args.z}: {exc}") from exc
            row = {"z_re": value.real, "z_im": value.imag, "s_re": s_val.real, "s_im": s_val.imag}
        else:
            norm = schur_norm_in_s(q, value)
            row = {"s_re": value.real, "s_im": value.imag}
        row["multiplier"] = norm is not None
        row["schur_norm"] = norm if norm is not None else "not-a-multiplier"
        rows.append(row)
    inputs = {"q": "inf" if q == INF else q, "points": len(rows)}
    return EXIT_OK, inputs, {"closed_form_error": 0.0}, rows


def cmd_verify(args):
    suite = run_suite(args.suite, seed=args.seed)
    for check in suite.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"{status} {check.name} (max_err={check.max_err:.3e})", file=sys.stderr)
    results = {
        "passed": suite.passed,
        "checks": [
            {"name": c.name, "passed": c.passed, "max_err": c.max_err} for c in suite.checks
        ],
    }
    code = EXIT_OK if suite.passed else EXIT_NO_CONVERGENCE
    return code, {"suite": args.suite, "seed": args.seed}, results


def cmd_padic_distance(args):
    payload = _read_json_input(args.input)
    q = parse_rational(payload["q"])
    if q.denominator != 1:
        raise ValueError(f"q must be an integer, got {payload['q']!r}")
    q = int(q)
    # a "precision" field is accepted and ignored: the distance is exact
    a = PMatrix2.from_rationals(q, payload["a"])
    b = PMatrix2.from_rationals(q, payload["b"])
    return EXIT_OK, {"q": q}, {"distance": lattice_distance(a, b), "certified_error": 0.0}


def cmd_peller(args):
    sym, echo = _read_symbol(args.symbol)
    coeffs = difference_sequence(sym)
    g = g_from_symbol(coeffs)
    rep = peller_sandwich(coeff_hankel(coeffs, args.n), g, PolarQuadrature(), target_err=args.err)
    results = {
        "trace_norm": rep.lhs,
        "disc_l1": rep.mid,
        "upper": rep.rhs,
        "holds": rep.holds,
        "certified_error": rep.slack,
        # the slack carries the disc integral's Richardson estimate, not a bound
        "certified": False,
    }
    return EXIT_OK, {"symbol": echo, "n": args.n, "target_err": args.err}, results


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors raise, so that ``main`` reads them as
    malformed input; ``--help`` still prints and exits 0."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="treeschur",
        description="Schur norms of radial kernels on homogeneous trees",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_norm = sub.add_parser("norm", help="Schur norm of a radial symbol via the Hankel pipeline")
    p_norm.add_argument("symbol", help="path to a symbol JSON spec, or '-' for stdin")
    p_norm.add_argument("--q", default=None, help="tree degree parameter: integer >= 2 or 'inf'")
    p_norm.add_argument("--err", type=positive_float, default=1e-8, help="target certified error")
    p_norm.add_argument("--out", choices=("json", "csv"), default="json")
    p_norm.set_defaults(func=cmd_norm)

    p_sph = sub.add_parser("spherical", help="closed-form spherical norms (single point or grid)")
    p_sph.add_argument("--q", required=True, help="integer >= 2 or 'inf'")
    point = p_sph.add_mutually_exclusive_group(required=True)
    point.add_argument("--s", default=None, help="eigenvalue, e.g. '0.4j' or '0.3+0.2j'")
    point.add_argument("--z", default=None, help="exponent parameter (finite q only)")
    point.add_argument("--grid", default=None, help=f"s-grid 're0:re1:n,im0:im1:n', at most {MAX_GRID_POINTS:,} points")
    p_sph.add_argument("--out", choices=("json", "csv"), default="json")
    p_sph.set_defaults(func=cmd_spherical)

    p_ver = sub.add_parser("verify", help="run a cross-module verification suite")
    p_ver.add_argument("suite", help=f"one of {', '.join(SUITES)} (unknown names exit 1)")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--out", choices=("json", "csv"), default="json")
    p_ver.set_defaults(func=cmd_verify)

    p_pad = sub.add_parser("padic-distance", help="tree distance of two lattice classes")
    p_pad.add_argument("input", help="JSON {'q': prime, 'a': [[...]], 'b': [[...]]} (entries 'n/d'), or '-'")
    p_pad.add_argument("--out", choices=("json", "csv"), default="json")
    p_pad.set_defaults(func=cmd_padic_distance)

    p_pel = sub.add_parser("peller", help="disc-integral trace-norm sandwich for a symbol")
    p_pel.add_argument("symbol", help="path to a symbol JSON spec, or '-' for stdin")
    p_pel.add_argument("--n", type=window_rows, default=96, help="Hankel truncation for the trace norm")
    p_pel.add_argument("--err", type=positive_float, default=1e-6, help="disc-integral error target")
    p_pel.add_argument("--out", choices=("json", "csv"), default="json")
    p_pel.set_defaults(func=cmd_peller)

    return parser


def main(argv=None) -> int:
    t0 = time.perf_counter()
    # the except clause is the one exception-to-exit-code table; any other
    # exception is a bug in the library and stays a traceback
    try:
        args = build_parser().parse_args(argv)
        # an overflow reaches the user as the one error line of the check that
        # refuses the non-finite result, not as numpy warnings before it
        with np.errstate(over="ignore", invalid="ignore"):
            code, inputs, results, *rows = args.func(args)
        report = _report(args.command, inputs, results, time.perf_counter() - t0)
        if rows:  # the spherical grid sits beside the results
            report["rows"] = rows[0]
        _emit(report, args.out)
    except (TreeSchurError, ValueError, KeyError, TypeError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE if isinstance(exc, NoConvergence) else EXIT_BAD_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
