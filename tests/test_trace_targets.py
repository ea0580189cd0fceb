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


def test_one_certified_norm_calls_every_symbols_trace_target(monkeypatch):
    # the benchmark's per-layer symbols.* metrics read spans of these targets,
    # so a norm that stopped calling one would leave its metric empty.  The
    # exception is apply_resolvent: the norm path reads the resolvent image
    # through its operator, not through the dense apply_resolvent
    import treeschur.symbols as symbols
    from treeschur.spherical import spherical_symbol

    paths = [path for module, path, *_ in load_tracing().TARGETS if module == "treeschur.symbols"]
    assert "apply_resolvent" in paths
    paths.remove("apply_resolvent")
    sym = spherical_symbol(3, s=0.4j)
    calls = dict.fromkeys(paths, 0)
    for path in paths:
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(symbols, owner_name) if owner_name else symbols
        original = getattr(owner, attr)

        def counted(*args, path=path, original=original, **kwargs):
            calls[path] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)
    assert symbols.schur_norm(sym, 3).certified
    assert all(calls.values()), calls
