"""The benchmark's trace targets still name library functions.

``perfbench/tracing.py`` skips a target that no longer resolves and leaves its
metrics out of the report, so a rename would blind the benchmark silently.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_treeschur_trace_target_resolves():
    targets = [t for t in load_tracing().TARGETS if t[0].startswith("treeschur")]
    assert targets
    for module_name, path, span, *_ in targets:
        owner = importlib.import_module(module_name)
        for attr in path.split("."):
            owner = getattr(owner, attr, None)
        assert callable(owner), f"{module_name}.{path} (span {span}) does not resolve"
