"""Named trace-class symbols shared by the verification suites and tests."""

from __future__ import annotations

import numpy as np

from .spherical import spherical_symbol
from .symbols import (
    Geometric,
    RadialSymbol,
    constant_symbol,
    explicit_symbol,
    parity_symbol,
    power_symbol,
)


def _damped_oscillation() -> RadialSymbol:
    def values_fn(count: int) -> np.ndarray:
        n = np.arange(count)
        return 0.7 ** n * np.cos(2.0 * n)

    return RadialSymbol(tail=Geometric(ratio=0.7, bound=1.0), name="damped-oscillation", values_fn=values_fn)


def trace_class_corpus() -> list[RadialSymbol]:
    """Ten trace-class symbols spanning the shapes the pipeline must handle."""
    return [
        constant_symbol(1.0),
        parity_symbol(0.0, 1.0, explicit_symbol([]), name="alternating"),
        parity_symbol(2.0, 3.0, power_symbol(0.5), name="parity-plus-half"),
        power_symbol(0.5, name="geometric-half"),
        power_symbol(-0.3, name="geometric-signed"),
        power_symbol(0.5j, name="geometric-rotated"),
        spherical_symbol(3, s=0.4j),
        spherical_symbol(2, z=0.3 + 0.2j),
        explicit_symbol([1.0, 0.5, 0.25, -0.125], name="finite-support"),
        _damped_oscillation(),
    ]
