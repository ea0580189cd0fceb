"""The benchmark's library calls still bind.

``perfbench/workloads.py`` builds its inputs through the public library:
``RadialSymbol(fn=...)``, ``empirical_schur_lower_bound(..., trials=, seed=)``,
``DiscMeasure.moment`` and others.  A deletion or rename there would break
the benchmark, not a test, so every item of every workload is built and
run once here.  Only a call that no longer binds fails:
a ``TypeError`` or ``AttributeError``.  Library verdicts, such as
``DivergentDiagonals`` or the refusal of a declared tail, are the bench
gate's to judge.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))  # workloads imports its sibling gate
        spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        mp.setitem(sys.modules, spec.name, module)  # its dataclasses look their module up
        spec.loader.exec_module(module)
        yield module


@pytest.mark.parametrize("workload", ["hankel-boundary", "hankel-sweep", "routes"])
def test_every_item_of_the_workload_binds_its_library_calls(workloads, workload):
    items = {item.id: item for item in workloads.make_items(workload, 0)}
    for item in items.values():
        try:
            item.run(item.build())
        except (TypeError, AttributeError) as exc:
            pytest.fail(f"{item.id}: {type(exc).__name__}: {exc}")
        except Exception:
            pass
