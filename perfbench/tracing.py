"""Spans for the traced run, recorded from outside the library.

For the traced passes only, wrappers replace public functions of the
treeschur modules (every module attribute bound to the same function object,
so cross-module imports are covered), a few methods, and
``numpy.linalg.svd``, which every module reaches.  A span records its name,
start, end, the span that caused it and the benchmark item it ran under.
A target that a refactor removed or renamed is skipped, and the metrics that
need it are left out of the report instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time

SID, PARENT, ITEM, NAME, START, END, ATTRS = range(7)


class Tracer:
    """In-memory span recorder; spans are lists indexed by the constants above."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.item: str | None = None

    def open(self, name: str, attrs: dict | None = None) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, parent, self.item, name, time.perf_counter(), None, attrs])
        self._stack.append(sid)
        return sid

    def close(self, sid: int, attrs: dict | None = None):
        span = self.spans[sid]
        span[END] = time.perf_counter()
        if attrs:
            span[ATTRS] = {**(span[ATTRS] or {}), **attrs}
        self._stack.pop()


def _shape_attrs(args, kwargs):
    shape = getattr(args[0], "shape", None) if args else None
    return {"m": int(shape[-2]), "n": int(shape[-1])} if shape is not None and len(shape) >= 2 else None


def _window_attrs(args, kwargs):
    return {"n": int(args[1])} if len(args) > 1 else None


def _suite_attrs(args, kwargs):
    return {"suite": args[0] if args else kwargs.get("name")}


def _pairs_attrs(args, kwargs):
    ball = args[1] if len(args) > 1 else kwargs.get("tree")
    v = int(getattr(ball, "n_ball", 0))
    return {"pairs": v * (v + 1) // 2}


def _nodes_attrs(args, kwargs):
    z = args[1] if len(args) > 1 else kwargs.get("z")
    return {"nodes": int(getattr(z, "size", 1))}


def _report_out(result):
    try:
        return {"truncation_n": int(result.truncation_n), "err": float(result.certified_error),
                "certified": bool(result.certified)}
    except AttributeError:
        return None


# (module, attribute or Class.method, span name, attrs from arguments, attrs from the result)
TARGETS = (
    ("numpy.linalg", "svd", "spectral.svd", _shape_attrs, None),
    ("treeschur.symbols", "schur_norm", "symbols.schur_norm", None, _report_out),
    ("treeschur.symbols", "build_hankel", "symbols.hankel", _window_attrs, None),
    ("treeschur.symbols", "apply_resolvent", "symbols.resolvent", None, None),
    ("treeschur.symbols", "hankel_tail_bound", "symbols.bounds", None, None),
    ("treeschur.symbols", "resolvent_spill_bound", "symbols.bounds", None, None),
    ("treeschur.symbols", "extract_parity", "symbols.parity", None, None),
    ("treeschur.symbols", "RadialSymbol.values", "symbols.values", None, None),
    ("treeschur.spherical", "spherical_values", "spherical.values", None, None),
    ("treeschur.tree", "build_ball", "tree.ball", None, None),
    ("treeschur.tree", "FiniteTreeBall.all_pairs_meeting", "tree.all_pairs_meeting", None, None),
    ("treeschur.tree", "build_certificate", "tree.certificate", None, None),
    ("treeschur.tree", "reconstruction_max_error", "tree.reconstruct", _pairs_attrs, None),
    ("treeschur.tree", "empirical_schur_lower_bound", "tree.lower_bound", None, None),
    ("treeschur.disc", "g_from_symbol", "disc.g", None, None),
    ("treeschur.disc", "disc_l1_norm", "disc.l1", None, None),
    ("treeschur.disc", "AnalyticDiscFunction.eval", "disc.eval", _nodes_attrs, None),
    ("treeschur.disc", "moments_from_g", "disc.moments", None, None),
    ("treeschur.disc", "optimal_measure", "disc.measure", None, None),
    ("treeschur.padics", "lattice_distance", "padics.distance", None, None),
    ("treeschur.padics", "correspondence_check", "padics.correspondence", None, None),
    ("treeschur.verify", "run_suite", "verify.suite", _suite_attrs, None),
)


def _wrap(tracer: Tracer, fn, name, attrs_in, attrs_out):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = tracer.open(name, attrs_in(args, kwargs) if attrs_in else None)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            tracer.close(sid, attrs_out(result) if attrs_out and result is not None else None)

    return wrapper


def install(tracer: Tracer) -> tuple[list, set[str]]:
    """Wrap every target; returns (restore list, span names whose target is missing)."""
    restores: list = []
    missing: set[str] = set()
    for module_name, path, span, attrs_in, attrs_out in TARGETS:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            missing.add(span)
            continue
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = getattr(owner, attr, None) if owner is not None else None
        if not callable(original):
            missing.add(span)
            continue
        wrapper = _wrap(tracer, original, span, attrs_in, attrs_out)
        if owner_name:
            restores.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            continue
        holders = [module] + [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "treeschur" or key.startswith("treeschur."))
        ]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    restores.append((holder, key, original))
                    setattr(holder, key, wrapper)
    return restores, missing


def uninstall(restores: list):
    for owner, attr, original in reversed(restores):
        setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def svd_flops(m: int, n: int) -> float:
    """Computed, not measured: Householder bidiagonalisation for singular values
    only, 4mn^2 - 4n^3/3 complex flops (n <= m), at 4 real flops each."""
    m, n = max(m, n), min(m, n)
    return 4.0 * (4.0 * m * n * n - 4.0 * n ** 3 / 3.0)


def _ancestor(spans, span, name):
    parent = span[PARENT]
    while parent is not None:
        if spans[parent][NAME] == name:
            return parent
        parent = spans[parent][PARENT]
    return None


def layer_metrics(spans: list[list], missing: set[str], passes: int, wall_s: float,
                  default_tol: float | None) -> dict:
    """Per-layer numbers from the spans of ``passes`` traced passes taking ``wall_s``.

    Times and counts are per pass of the item list; times are inclusive of
    nested spans.  ``default_tol`` is the library's per-row SVD allowance.
    Metrics whose span target is missing are left out.
    """
    dur: dict[str, float] = {}
    count: dict[str, int] = {}
    for span in spans:
        name = span[NAME]
        dur[name] = dur.get(name, 0.0) + span[END] - span[START]
        count[name] = count.get(name, 0) + 1

    def ms(*names):
        return 1e3 * sum(dur.get(n, 0.0) for n in names) / passes

    def per_pass(name):
        return count.get(name, 0) / passes

    svd = [s for s in spans if s[NAME] == "spectral.svd"]
    svd_s = sum(s[END] - s[START] for s in svd)
    flops = sum(svd_flops(s[ATTRS]["m"], s[ATTRS]["n"]) for s in svd if s[ATTRS])

    # windows and SVD time attributed to the schur_norm call that caused them
    norm_windows: dict[int, int] = {}
    norm_svd: dict[int, float] = {}
    norm_final_svd: dict[int, float] = {}
    for span in spans:
        if span[NAME] not in ("symbols.hankel", "spectral.svd"):
            continue
        owner = _ancestor(spans, span, "symbols.schur_norm")
        if owner is None:
            continue
        if span[NAME] == "symbols.hankel":
            norm_windows[owner] = norm_windows.get(owner, 0) + 1
            continue
        took = span[END] - span[START]
        norm_svd[owner] = norm_svd.get(owner, 0.0) + took
        final_n = (spans[owner][ATTRS] or {}).get("truncation_n")
        if span[ATTRS] and span[ATTRS]["n"] == final_n:
            norm_final_svd[owner] = norm_final_svd.get(owner, 0.0) + took
    norms = count.get("symbols.schur_norm", 0)
    finished = [sid for sid in norm_svd if (spans[sid][ATTRS] or {}).get("truncation_n")]
    finished_svd = sum(norm_svd[sid] for sid in finished)

    reports = [s[ATTRS] for s in spans if s[NAME] == "symbols.schur_norm" and (s[ATTRS] or {}).get("truncation_n")]
    budget = [default_tol * r["truncation_n"] / r["err"] for r in reports
              if default_tol is not None and r["certified"] and r["err"] > 0.0]

    pairs = sum((s[ATTRS] or {}).get("pairs", 0) for s in spans if s[NAME] == "tree.reconstruct")
    l1_nodes = sum(
        s[ATTRS]["nodes"] for s in spans
        if s[NAME] == "disc.eval" and s[ATTRS] and _ancestor(spans, s, "disc.l1") is not None
    )
    suite_ms = {}
    for s in spans:
        if s[NAME] == "verify.suite":
            key = (s[ATTRS] or {}).get("suite")
            suite_ms[key] = suite_ms.get(key, 0.0) + 1e3 * (s[END] - s[START]) / passes

    # name: (needed span names, value thunk, unit)
    table = {
        "spectral.svd_ms": (("spectral.svd",), lambda: ms("spectral.svd"), "ms"),
        "spectral.svd_calls": (("spectral.svd",), lambda: per_pass("spectral.svd"), "count"),
        "spectral.svd_share": (("spectral.svd",), lambda: svd_s / wall_s, "ratio"),
        "spectral.largest_n": (("spectral.svd",), lambda: max((s[ATTRS]["n"] for s in svd if s[ATTRS]), default=0), "rows"),
        "spectral.svd_flop_computed": (("spectral.svd",), lambda: flops / passes, "flop"),
        "spectral.svd_gflops": (("spectral.svd",), lambda: flops / svd_s / 1e9 if svd_s else 0.0, "GFLOP/s"),
        "symbols.windows_per_norm": (("symbols.schur_norm", "symbols.hankel"),
                                     lambda: sum(norm_windows.values()) / norms if norms else 0.0, "count"),
        "symbols.final_window_svd_frac": (("symbols.schur_norm", "spectral.svd"),
                                          lambda: sum(norm_final_svd.values()) / finished_svd if finished_svd else 0.0,
                                          "ratio"),
        "symbols.truncation_n": (("symbols.schur_norm",),
                                 lambda: statistics.median(r["truncation_n"] for r in reports) if reports else 0.0,
                                 "rows"),
        "symbols.budget_svd_frac": (("symbols.schur_norm",),
                                    lambda: statistics.median(budget) if budget else 0.0, "ratio"),
        "symbols.values_ms": (("symbols.values",), lambda: ms("symbols.values"), "ms"),
        "symbols.hankel_ms": (("symbols.hankel",), lambda: ms("symbols.hankel"), "ms"),
        "symbols.resolvent_ms": (("symbols.resolvent",), lambda: ms("symbols.resolvent"), "ms"),
        "symbols.bounds_ms": (("symbols.bounds",), lambda: ms("symbols.bounds"), "ms"),
        "symbols.parity_ms": (("symbols.parity",), lambda: ms("symbols.parity"), "ms"),
        "spherical.values_ms": (("spherical.values",), lambda: ms("spherical.values"), "ms"),
        "tree.ball_ms": (("tree.ball",), lambda: ms("tree.ball"), "ms"),
        "tree.all_pairs_meeting_ms": (("tree.all_pairs_meeting",), lambda: ms("tree.all_pairs_meeting"), "ms"),
        "tree.certificate_ms": (("tree.certificate",), lambda: ms("tree.certificate"), "ms"),
        "tree.reconstruct_ms": (("tree.reconstruct",), lambda: ms("tree.reconstruct"), "ms"),
        "tree.pairs_checked": (("tree.reconstruct",), lambda: pairs / passes, "count"),
        "tree.reconstruct_us_per_pair": (("tree.reconstruct",),
                                         lambda: 1e6 * dur.get("tree.reconstruct", 0.0) / pairs if pairs else 0.0,
                                         "us"),
        "tree.lower_bound_ms": (("tree.lower_bound",), lambda: ms("tree.lower_bound"), "ms"),
        "disc.g_ms": (("disc.g",), lambda: ms("disc.g"), "ms"),
        "disc.l1_ms": (("disc.l1",), lambda: ms("disc.l1"), "ms"),
        "disc.nodes_evaluated": (("disc.l1", "disc.eval"), lambda: l1_nodes / passes, "count"),
        "disc.moments_ms": (("disc.moments",), lambda: ms("disc.moments"), "ms"),
        "disc.measure_ms": (("disc.measure",), lambda: ms("disc.measure"), "ms"),
        "padics.distance_calls": (("padics.distance",), lambda: per_pass("padics.distance"), "count"),
        "padics.distance_us": (("padics.distance",),
                               lambda: 1e6 * dur.get("padics.distance", 0.0) / count["padics.distance"]
                               if count.get("padics.distance") else 0.0, "us"),
        "padics.correspondence_ms": (("padics.correspondence",), lambda: ms("padics.correspondence"), "ms"),
    }
    for suite in ("tree", "peller", "padic", "sandwich"):
        table[f"verify.{suite}_ms"] = (("verify.suite",), lambda suite=suite: suite_ms.get(suite, 0.0), "ms")

    if default_tol is None:
        del table["symbols.budget_svd_frac"]
    return {
        name: {"value": float(value()), "unit": unit}
        for name, (needs, value, unit) in table.items()
        if not missing.intersection(needs)
    }

