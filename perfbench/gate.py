"""Independent references and the correctness gate for benchmark items.

References are computed here with numpy and the standard library only: the
exact trace norm of a finite Hankel matrix, a dense high-window Hankel /
resolvent trace norm written independently of the library, exact rational
arithmetic for lattice distances.  The gate compares each library outcome
with its reference; a failed item is one that raised unexpectedly, gave a
wrong multiplier verdict, landed outside ``certified_error`` of its
reference, or reported ``certified_error > target_err`` while certified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

INF = math.inf

# accuracy claimed for closed forms and dense references, relative to max(1, |ref|)
REF_REL = 1e-11


@dataclass(frozen=True)
class Verdict:
    ok: bool
    record: dict  # JSON-able description of the outcome


def ref_tolerance(value: float) -> float:
    return REF_REL * max(1.0, abs(value))


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def hankel_window(values: np.ndarray, m: int) -> np.ndarray:
    """h[i, j] = phi(i+j) - phi(i+j+2) on the m x m window (needs 2m values)."""
    idx = np.add.outer(np.arange(m), np.arange(m))
    return values[idx] - values[idx + 2]


def resolvent_window(h: np.ndarray, q: int) -> np.ndarray:
    """(1 - 1/q) sum_k q^-k S^k H S*^k on the window, one shifted copy per k."""
    m = h.shape[0]
    out = np.zeros_like(h)
    weight, k = 1.0, 0
    while k < m and weight > 1e-22:
        out[k:, k:] += weight * h[: m - k, : m - k]
        k += 1
        weight /= q
    return (1.0 - 1.0 / q) * out


def svd_trace_norm(a: np.ndarray) -> float:
    return float(np.sum(np.linalg.svd(a, compute_uv=False)))


def finite_hankel_reference(values) -> tuple[float, float]:
    """Exact q = inf norm of a finitely supported sequence: the trace norm of
    its L x L Hankel matrix, which holds every nonzero antidiagonal."""
    v = np.asarray(values, dtype=complex)
    padded = np.concatenate([v, np.zeros(len(v) + 2, dtype=complex)])
    value = svd_trace_norm(hankel_window(padded, len(v)))
    return value, ref_tolerance(value)


def reference_window(ratio: float, q) -> int:
    """Smallest power-of-two window past which the discarded entries are below 1e-17.

    Finite q spreads every entry along its diagonal with weight q^-k, so the
    effective decay there is at least q^-1/2.
    """
    eff = ratio if q == INF else max(ratio, q ** -0.5)
    m = 64
    while eff ** m * m * m > 1e-17 and m < 4096:
        m *= 2
    return m


def dense_reference(values_fn, q, ratio: float, parity=(0j, 0j)) -> tuple[float, float]:
    """|c+| + |c-| + trace norm of the (resolvent-transformed) Hankel window.

    ``values_fn(count)`` gives phi(0..count-1); ``ratio`` bounds the geometric
    decay of phi minus its parity part, and fixes a window far larger than
    the library needs for the same accuracy.
    """
    m = reference_window(ratio, q)
    v = np.asarray(values_fn(2 * m + 2), dtype=complex)
    h = hankel_window(v, m)
    a = h if q == INF else resolvent_window(h, q)
    value = abs(parity[0]) + abs(parity[1]) + svd_trace_norm(a)
    return value, ref_tolerance(value)


def estimate_decay(values_fn, count: int = 4096) -> tuple[tuple[complex, complex], float]:
    """Parity limits and geometric decay ratio read off the values of a symbol
    defined by the library (the corpus), for choosing a reference window."""
    v = np.asarray(values_fn(count), dtype=complex)
    even, odd = v[-2], v[-1]
    c_plus, c_minus = 0.5 * (even + odd), 0.5 * (even - odd)
    n = np.arange(count)
    psi = np.abs(v - c_plus - c_minus * np.where(n % 2 == 0, 1.0, -1.0))
    floor = 1e-13 * max(1.0, float(np.max(np.abs(v))))
    seg = slice(16, 512)
    mags, idx = psi[seg], n[seg]
    keep = mags > floor
    ratio = float(np.max(mags[keep] ** (1.0 / idx[keep]))) if keep.any() else 0.0
    return (complex(c_plus), complex(c_minus)), min(ratio, 0.995)


def spherical_values(q, s: complex, count: int) -> np.ndarray:
    """phi(n+1) = s(1+1/q) phi(n) - phi(n-1)/q, phi(0) = 1, phi(1) = s (powers at q = inf)."""
    if q == INF:
        return s ** np.arange(count)
    out = np.empty(count, dtype=complex)
    out[0], out[1] = 1.0, s
    for n in range(1, count - 1):
        out[n + 1] = s * (1.0 + 1.0 / q) * out[n] - out[n - 1] / q
    return out


def _valuation(x: Fraction, q: int) -> int:
    v, num, den = 0, x.numerator, x.denominator
    while num % q == 0:
        num //= q
        v += 1
    while den % q == 0:
        den //= q
        v -= 1
    return v


def lattice_distance_reference(q: int, a, b) -> int:
    """v(det C) - 2 min v(C_ij) for C = a^-1 b, in exact rational arithmetic."""
    (a11, a12), (a21, a22) = [[Fraction(x) for x in row] for row in a]
    (b11, b12), (b21, b22) = [[Fraction(x) for x in row] for row in b]
    det_a = a11 * a22 - a12 * a21
    inv = ((a22 / det_a, -a12 / det_a), (-a21 / det_a, a11 / det_a))
    c = [
        inv[0][0] * b11 + inv[0][1] * b21, inv[0][0] * b12 + inv[0][1] * b22,
        inv[1][0] * b11 + inv[1][1] * b21, inv[1][0] * b12 + inv[1][1] * b22,
    ]
    det_c = c[0] * c[3] - c[1] * c[2]
    return _valuation(det_c, q) - 2 * min(_valuation(e, q) for e in c if e != 0)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _error_record(exc: BaseException) -> dict:
    return {"verdict": f"error:{type(exc).__name__}", "error": type(exc).__name__, "detail": str(exc)[:200]}


def check_norm(outcome, ref, target_err: float, expect: str = "value", allow_refusal: bool = False) -> Verdict:
    """Gate one Schur-norm outcome.

    ``expect`` is "value" (a norm within ``certified_error`` of ``ref``) or
    "not_multiplier" (DivergentDiagonals).  ``allow_refusal`` accepts a
    ValueError / UndeclaredTail as an honest refusal of a false declaration.
    """
    if isinstance(outcome, BaseException):
        rec = _error_record(outcome)
        if expect == "not_multiplier" and rec["error"] == "DivergentDiagonals":
            return Verdict(True, {**rec, "verdict": "not-multiplier"})
        if allow_refusal and rec["error"] in ("ValueError", "UndeclaredTail"):
            return Verdict(True, {**rec, "verdict": "refused"})
        return Verdict(False, rec)
    rec = {
        "verdict": "multiplier",
        "total": float(outcome.total),
        "err": float(outcome.certified_error),
        "certified": bool(outcome.certified),
        "truncation_n": int(outcome.truncation_n),
    }
    if expect == "not_multiplier":
        return Verdict(False, {**rec, "detail": "norm reported for a non-multiplier"})
    ref_value, ref_tol = ref
    rec["ref"] = ref_value
    if rec["certified"] and rec["err"] > target_err:
        return Verdict(False, {**rec, "detail": f"certified_error {rec['err']:.3e} > target {target_err:.1e}"})
    if not abs(rec["total"] - ref_value) <= rec["err"] + ref_tol:
        return Verdict(False, {**rec, "detail": f"|total - ref| = {abs(rec['total'] - ref_value):.3e} > err"})
    return Verdict(True, rec)


def check_value(outcome, ref_value: float, err: float, value_of=lambda o: o, extra_ok=lambda o: True) -> Verdict:
    """Gate a scalar result: |value - ref| <= err and any extra condition."""
    if isinstance(outcome, BaseException):
        return Verdict(False, _error_record(outcome))
    value = float(value_of(outcome))
    ok = abs(value - ref_value) <= err and bool(extra_ok(outcome))
    rec = {"verdict": "ok" if ok else "wrong", "total": value, "err": float(err), "ref": float(ref_value)}
    return Verdict(ok, rec)


def check_interval(outcome, lo: float, hi: float) -> Verdict:
    """Gate a bound that must lie in [lo, hi]."""
    if isinstance(outcome, BaseException):
        return Verdict(False, _error_record(outcome))
    value = float(outcome)
    ok = lo <= value <= hi
    return Verdict(ok, {"verdict": "ok" if ok else "wrong", "total": value, "err": 0.0, "lo": lo, "hi": hi})


def check_flag(outcome, passed_of) -> Verdict:
    """Gate a pass/fail result such as a verification suite."""
    if isinstance(outcome, BaseException):
        return Verdict(False, _error_record(outcome))
    ok = bool(passed_of(outcome))
    return Verdict(ok, {"verdict": "ok" if ok else "wrong"})


# Confirmed library defects kept in the workloads on purpose.  A failure of a
# tagged item that matches its signature is "known"; any other failure is not.
KNOWN_DEFECTS = {
    # an uncertified symbol that is a multiplier is rejected at the first window
    "undeclared-tail-rejected": lambda rec: rec.get("error") == "DivergentDiagonals",
    # a declared tail that the data violate is certified anyway, with a wrong total
    "declared-tail-false-certificate": lambda rec: rec.get("certified") is True,
}


def is_known_defect(tag: str | None, verdict: Verdict) -> bool:
    return tag is not None and not verdict.ok and KNOWN_DEFECTS[tag](verdict.record)


# ---------------------------------------------------------------------------
# cross-commit value check
# ---------------------------------------------------------------------------

def compare_items(items_a: list[dict], items_b: list[dict]) -> list[tuple[str, list[str]]]:
    """Items whose totals differ by more than err_a + err_b, or whose
    certified flag or verdict differ, between two result sets."""
    by_id = {rec["id"]: rec for rec in items_b}
    flagged = []
    for ra in items_a:
        rb = by_id.get(ra["id"])
        if rb is None:
            continue
        reasons = []
        if ra.get("verdict") != rb.get("verdict"):
            reasons.append(f"verdict {ra.get('verdict')} != {rb.get('verdict')}")
        if ra.get("certified") != rb.get("certified"):
            reasons.append(f"certified {ra.get('certified')} != {rb.get('certified')}")
        ta, tb = ra.get("total"), rb.get("total")
        if ta is not None and tb is not None:
            bound = ra.get("err", 0.0) + rb.get("err", 0.0)
            if abs(ta - tb) > bound:
                reasons.append(f"|{ta!r} - {tb!r}| > {bound:.3e}")
        if reasons:
            flagged.append((ra["id"], reasons))
    return flagged
