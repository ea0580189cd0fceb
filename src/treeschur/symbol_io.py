"""JSON symbol specifications accepted by the CLI.

Schema (one object per symbol):
  {"kind": "explicit", "values": [...],
   "tail": {"type": "finite"} | {"type": "geometric", "ratio": r, "bound": C}}
  {"kind": "spherical", "q": <int> | "inf", "s": {"re": ..., "im": ...}}
  {"kind": "lacunary"}

Numeric entries may be plain numbers, [re, im] pairs, or {"re":..., "im":...}.
"""

from __future__ import annotations

import cmath
import math
import sys

from .spherical import spherical_symbol
from .symbols import (
    INF,
    FiniteSupport,
    Geometric,
    RadialSymbol,
    check_degree,
    explicit_symbol,
    lacunary_counterexample,
)


def _real(obj) -> float:
    """A number or numeric string as a float; a JSON boolean is refused."""
    if isinstance(obj, bool):
        raise ValueError(f"{obj!r} is a boolean, not a number")
    return float(obj)


def parse_complex(obj) -> complex:
    """A number, a string, an [re, im] pair or {"re":..., "im":...}; a boolean
    or a NaN or infinite part raises ``ValueError``."""
    if isinstance(obj, (int, float)):
        value = complex(_real(obj))
    elif isinstance(obj, str):
        value = complex(obj.replace(" ", ""))
    elif isinstance(obj, (list, tuple)) and len(obj) == 2:
        value = complex(_real(obj[0]), _real(obj[1]))
    elif isinstance(obj, dict):
        value = complex(_real(obj.get("re", 0.0)), _real(obj.get("im", 0.0)))
    else:
        raise ValueError(f"cannot interpret {obj!r} as a complex number")
    if not cmath.isfinite(value):
        raise ValueError(f"{obj!r} is not a finite complex number")
    return value


def parse_degree(obj):
    """A tree degree: an integer, an integral float, a decimal integer string, or "inf"."""
    if obj in ("inf", "INF", "Inf", "infinity"):
        return INF
    if isinstance(obj, str):
        obj = int(obj)
    if isinstance(obj, float) and math.isinf(obj):
        return INF
    if isinstance(obj, float) and not obj.is_integer():
        raise ValueError(f"degree must be an integer or 'inf', got {obj!r}")
    q = check_degree(int(obj))
    if q > sys.float_info.max:
        raise ValueError("degree parameter is out of floating-point range")
    return q


def symbol_from_spec(spec: dict) -> tuple[RadialSymbol, dict]:
    """Build the symbol and echo a normalized description of the input.

    A number beyond float range (a JSON integer such as 10^400, or a value
    whose closed forms overflow) is refused here as a ``ValueError``.
    """
    try:
        return _symbol_from_spec(spec)
    except OverflowError as exc:
        raise ValueError(f"symbol spec holds a number out of floating-point range ({exc})") from exc


def _symbol_from_spec(spec: dict) -> tuple[RadialSymbol, dict]:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("symbol spec must be an object with a 'kind' field")
    kind = spec["kind"]
    if kind == "explicit":
        values = [parse_complex(v) for v in spec.get("values", [])]
        tail_spec = spec.get("tail", {"type": "finite"})
        if not isinstance(tail_spec, dict):
            raise ValueError("'tail' must be an object with a 'type' field")
        ttype = tail_spec.get("type", "finite")
        if ttype == "finite":
            tail = FiniteSupport(len(values))
        elif ttype == "geometric":
            onset = tail_spec.get("onset", 0)
            if isinstance(onset, str) or (isinstance(onset, float) and onset.is_integer()):
                onset = int(onset)
            if not isinstance(onset, int) or isinstance(onset, bool):
                raise ValueError(f"tail onset must be an integer, got {onset!r}")
            tail = Geometric(ratio=_real(tail_spec["ratio"]), bound=_real(tail_spec["bound"]), onset=onset)
        else:
            raise ValueError(f"unknown tail type {ttype!r}")
        sym = explicit_symbol(values, tail=tail, name="explicit")
        echo = {"kind": "explicit", "n_values": len(values), "tail": ttype}
        return sym, echo
    if kind == "spherical":
        q = parse_degree(spec["q"])
        if "s" in spec and "z" in spec:
            raise ValueError("spherical symbol takes 's' or 'z', not both")
        if "s" in spec:
            s = parse_complex(spec["s"])
            sym = spherical_symbol(q, s=s)
            echo = {"kind": "spherical", "q": "inf" if q == INF else q, "s": [s.real, s.imag]}
        elif "z" in spec:
            z = parse_complex(spec["z"])
            sym = spherical_symbol(q, z=z)
            echo = {"kind": "spherical", "q": q, "z": [z.real, z.imag]}
        else:
            raise ValueError("spherical symbol needs 's' or 'z'")
        return sym, echo
    if kind == "lacunary":
        return lacunary_counterexample(), {"kind": "lacunary"}
    raise ValueError(f"unknown symbol kind {kind!r}")
