"""Benchmark of the certified Schur-norm pipeline and its cross-validation routes.

    python3 perfbench/run.py --workload hankel-sweep --seed 1 --seconds 20 --trace 0

Load model: a closed loop with one client.  Items run one after another and
each waits for its result, as a library or CLI user does.  The run starts at
most one child process at a time (set-up probes, CLI calls), and pins the
BLAS of every process it starts to one thread.

With --trace 0 the run measures the end-to-end metrics; with --trace 1 it
repeats the same passes untraced and traced and reports per-layer metrics.
It prints one line per metric and, as its last line, one JSON object with
the keys correct, attempted, failed and metrics.  The full result (context,
per-item records, spans of the first traced pass) goes to perfbench/out/.
See NOTES.md for the workloads and for what each metric is meant to show.
"""

from __future__ import annotations

import argparse
import collections
import functools
import json
import math
import os
import platform
import resource
import selectors
import subprocess
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 9
CLI_REPS = 6
MIN_PASSES = 2
# A run stops making passes once it has measured this many times its
# --seconds, so that a host slowed for a whole run cannot stretch it without
# bound; at normal speed every workload stays well inside it.
MAX_OVERRUN = 1.5
CHILD_TIMEOUT_S = 60.0


@dataclass
class PassStats:
    passes: int = 0
    wall_s: float = 0.0
    attempted: int = 0
    passed: int = 0
    known: int = 0
    unexpected: int = 0
    item_s: dict = field(default_factory=dict)  # item id -> wall seconds in each pass
    pass_s: list = field(default_factory=list)  # wall time of each pass
    records: dict = field(default_factory=dict)  # item id -> record of the first pass
    first_pass_spans: int = 0


def machine_context(np, load_start) -> dict:
    ctx = {
        "loadavg_start": list(load_start),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads_pinned": {var: os.environ.get(var) for var in BLAS_VARS},
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            ctx["cpu_model"] = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        ctx["cpu_model"] = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        ctx["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        ctx["blas"] = None
    ctx["blas_threads_queried"] = _openblas_threads()
    return ctx


def _openblas_threads():
    """Thread count reported by the loaded OpenBLAS, read through ctypes."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _read_line(proc, timeout: float) -> str:
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        if not sel.select(timeout):
            return ""
    return proc.stdout.readline()


def setup_probe(workload: str, seed: int, trace: int, env: dict) -> dict:
    """One set-up in a fresh interpreter, timed to its first certified result."""
    cmd = [sys.executable, str(HERE / "setup_child.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        line = _read_line(proc, CHILD_TIMEOUT_S)
        took = time.perf_counter() - t0
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError("set-up probe timed out")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"set-up probe failed: {err.strip()[-400:]}")
    return {**json.loads(line), "setup_s": took}


def cli_call(env: dict, gate, workloads, k: int, ref):
    """One `treeschur norm` process on fixed spec ``k``: (wall seconds, verdict)."""
    spec, q, expected = workloads.CLI_SPECS[k]
    cmd = [sys.executable, "-m", "treeschur.cli", "norm", "-", "--q", q]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, input=json.dumps(spec), capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t0, _check_cli(gate, workloads, proc, expected, ref)


def spread(tasks: list, slots: int) -> list[list]:
    """Split ``tasks`` into ``slots`` consecutive, near-equal chunks."""
    n = len(tasks)
    return [tasks[i * n // slots:(i + 1) * n // slots] for i in range(slots)]


def _check_cli(gate, workloads, proc, expected, ref):
    try:
        results = json.loads(proc.stdout)["results"]
    except (json.JSONDecodeError, KeyError, TypeError):
        return gate.Verdict(False, {"verdict": f"exit:{proc.returncode}", "detail": proc.stderr.strip()[-200:]})
    if expected == "not_multiplier":
        ok = proc.returncode == 2 and results.get("multiplier") is False
        return gate.Verdict(ok, {"verdict": "not-multiplier" if ok else f"exit:{proc.returncode}"})
    if proc.returncode != 0:
        return gate.Verdict(False, {"verdict": f"exit:{proc.returncode}"})
    report = SimpleNamespace(total=results["total"], certified_error=results["certified_error"],
                             certified=results["certified"], truncation_n=results["truncation_n"])
    return gate.check_norm(report, ref, workloads.TARGET_ERR)


def run_passes(items, payloads, refs, gate, passes: int, tracer=None, between=None,
               budget_s: float = math.inf, cpu=None) -> PassStats:
    """Closed loop over ``passes`` whole passes of the item list.

    ``between`` holds passes + 1 lists of calls made outside the timed items:
    before the first pass and after each pass.  Once ``budget_s`` seconds
    have passed, the loop stops after the pass it is in (never before
    ``MIN_PASSES``) and makes the calls left in ``between``.  ``cpu``, a
    ``cpupick.CpuPicker``, re-pins the process before each item and call.
    """
    pick = cpu.pick if cpu is not None else (lambda: None)
    st = PassStats()
    between = between or [[] for _ in range(passes + 1)]
    t_start = time.perf_counter()
    for task in between[0]:
        pick()
        task()
    while True:
        t_pass = time.perf_counter()
        for item, payload, ref in zip(items, payloads, refs):
            if item.once and st.passes:
                continue
            pick()
            if tracer is not None:
                tracer.item = item.id
                sid = tracer.open("item", {"id": item.id})
            t0 = time.perf_counter()
            if isinstance(payload, BaseException):  # the build refused the input
                outcome = payload
            else:
                try:
                    outcome = item.run(payload)
                except Exception as exc:  # gated below; the loop keeps running
                    outcome = exc
            took = time.perf_counter() - t0
            if tracer is not None:
                tracer.close(sid)
                tracer.item = None
            verdict = item.check(outcome, ref)
            known = gate.is_known_defect(item.defect, verdict)
            st.attempted += 1
            st.passed += verdict.ok
            st.known += known
            st.unexpected += not verdict.ok and not known
            st.item_s.setdefault(item.id, []).append(took)
            if not st.passes:
                st.records[item.id] = {"id": item.id, "kind": item.kind, "params": item.params,
                                       **verdict.record, "ok": verdict.ok,
                                       "known_defect": item.defect if known else None,
                                       "latency_ms": 1e3 * took}
        st.passes += 1
        st.pass_s.append(time.perf_counter() - t_pass)
        for task in between[st.passes]:
            pick()
            task()
        if tracer is not None and st.passes == 1:
            st.first_pass_spans = len(tracer.spans)
        if st.passes >= passes:
            break
        if st.passes >= MIN_PASSES and time.perf_counter() - t_start > budget_s:
            for tasks in between[st.passes + 1:]:
                for task in tasks:
                    pick()
                    task()
            break
    st.wall_s = time.perf_counter() - t_start
    return st


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value) if math.isfinite(value) else None, "unit": unit}


def bench(args) -> dict:
    load_start = os.getloadavg()
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    sys.path.insert(0, str(SRC))

    import numpy as np
    import treeschur as ts

    if not Path(ts.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"treeschur imported from {ts.__file__}, not from {SRC}")
    import cpupick
    import gate
    import latency
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise ValueError(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")

    context = machine_context(np, load_start)

    items = workloads.make_items(args.workload, args.seed)
    t = time.perf_counter()
    payloads = []
    for item in items:
        try:
            payloads.append(item.build())
        except Exception as exc:  # gated as the item's outcome
            payloads.append(exc)
    construct_ms = 1e3 * (time.perf_counter() - t)
    refs = [item.reference() for item in items]

    warm = [i for i, item in enumerate(items) if item.warm]
    run_passes([items[i] for i in warm], [payloads[i] for i in warm], [refs[i] for i in warm], gate, passes=1)

    # set-up probes and CLI calls, one child process at a time
    setups, cli_times, cli_verdicts = [], [[] for _ in workloads.CLI_SPECS], []
    cli_refs = [expected() if callable(expected) else None for _, _, expected in workloads.CLI_SPECS]

    def probe():
        setups.append(setup_probe(args.workload, args.seed, args.trace, env))

    def call(k):
        took, verdict = cli_call(env, gate, workloads, k, cli_refs[k])
        cli_times[k].append(took)
        cli_verdicts.append(verdict)

    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "context": context}
    # the measured passes, set-up probes and CLI calls run on the CPU that is
    # fastest at the time (cpupick.py)
    cpu = cpupick.CpuPicker()
    # fixed work per run: every run of one length measures the same passes, so
    # its percentiles come from the same ranks
    pass_s = workloads.PASS_SECONDS[args.workload]
    if not args.trace:
        # set-up probes spread over the passes, so that they sample the whole
        # run and not one spell of it
        passes = max(MIN_PASSES, round(args.seconds / pass_s))
        st = run_passes(items, payloads, refs, gate, passes, between=spread([probe] * SETUP_REPS, passes + 1),
                        budget_s=MAX_OVERRUN * args.seconds, cpu=cpu)
        runs = [st]
        # An item's service time is its fastest repeat over the passes: on the
        # shared machine neighbours slow the same call by up to 2x in spells
        # from under a second to a whole run, and statistics over every
        # sample spread 25-40% between runs.  Each item counts once per pass
        # it ran in; a failed item counts as infinitely slow.
        best = {item_id: min(times) for item_id, times in st.item_s.items()}
        samples = [best[i] if st.records[i]["ok"] else math.inf for i in best for _ in st.item_s[i]]
        tail, pct, beyond = latency.tail_latency(samples)
        calls = collections.Counter(item.id for item in items)  # calls of each item per pass
        passing = sum(calls[i] for i, rec in st.records.items() if rec["ok"])
        metrics = {
            "setup_s": _metric(statistics.median([s["setup_s"] for s in setups]), "s"),
            "items_per_s": _metric(passing / sum(calls[i] * best[i] for i in best), "1/s"),
            "latency_p50_ms": _metric(1e3 * statistics.median(samples), "ms"),
            "latency_tail_ms": _metric(1e3 * tail, "ms"),
            "pass_frac": _metric(st.passed / st.attempted, "ratio"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        result["latency"] = {"samples": len(samples), "tail_percentile": pct, "tail_beyond": beyond}
        result["fail_frac"] = (st.known + st.unexpected) / st.attempted
    else:
        for _ in range(SETUP_REPS):
            cpu.pick()
            probe()
        # CLI calls spread over the untraced passes, outside the traced ones
        n_specs, n_calls = len(workloads.CLI_SPECS), CLI_REPS * len(workloads.CLI_SPECS)
        calls = [functools.partial(call, j % n_specs) for j in range(n_calls)]
        passes = max(1, round(args.seconds / 2.0 / pass_s))
        untraced = run_passes(items, payloads, refs, gate, passes, between=spread(calls, passes + 1),
                              budget_s=MAX_OVERRUN * args.seconds / 2.0, cpu=cpu)
        tracer = tracing.Tracer()
        restores, missing = tracing.install(tracer)
        try:
            st = run_passes(items, payloads, refs, gate, untraced.passes, tracer=tracer, cpu=cpu)
        finally:
            tracing.uninstall(restores)
        runs = [untraced, st]
        spectral = sys.modules.get("treeschur.spectral")
        metrics = tracing.layer_metrics(tracer.spans, missing, st.passes, st.wall_s,
                                        getattr(spectral, "DEFAULT_TOL", None))
        first_svd = [s["first_svd_ms"] for s in setups if s.get("first_svd_ms") is not None]
        metrics.update({
            "symbols.construct_ms": _metric(construct_ms, "ms"),
            "cli.import_s": _metric(statistics.median([s["import_s"] for s in setups]), "s"),
            "symbol_io.parse_ms": _metric(statistics.median([s["parse_ms"] for s in setups]), "ms"),
            "trace.overhead_frac": _metric(sum(st.pass_s) / sum(untraced.pass_s) - 1.0, "ratio"),
            "cli.norm_s": _metric(statistics.median(min(t) for t in cli_times), "s"),
        })
        if first_svd:
            metrics["cli.first_svd_ms"] = _metric(statistics.median(first_svd), "ms")
        result["missing_targets"] = sorted(missing)
        result["spans"] = tracer.spans[: st.first_pass_spans]
    cpu.release()
    result["cpu_pick"] = cpu.record()

    first_ref = gate.dense_reference(lambda count: 0.5 ** np.arange(count), 2, 0.5)
    setup_verdicts = [gate.check_norm(SimpleNamespace(total=s["total"], certified_error=s["certified_error"],
                                                      certified=s["certified"], truncation_n=s["truncation_n"]),
                                      first_ref, workloads.TARGET_ERR) for s in setups]
    extra = setup_verdicts + cli_verdicts
    attempted = sum(r.attempted for r in runs) + len(extra)
    known = sum(r.known for r in runs)
    failed = sum(r.unexpected for r in runs) + sum(not v.ok for v in extra)
    result.update({
        "metrics": metrics,
        "passes": [r.passes for r in runs],
        "measured_s": [r.wall_s for r in runs],
        "pass_s": [r.pass_s for r in runs],
        "item_s": runs[0].item_s,
        "attempted": attempted,
        "failed_unexpected": failed,
        "failed_known_defects": known,
        "setup_probes": setups,
        "cli": {"times_s": cli_times, "verdicts": [v.record for v in cli_verdicts]},
        "items": list(runs[0].records.values()),
    })
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "treeschur" / "__init__.py").is_file():
        print(f"error: no treeschur sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    try:
        result = bench(args)
    except (RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1), encoding="utf-8")
    ctx = result["context"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} passes={result['passes']} "
          f"measured_s={[round(s, 3) for s in result['measured_s']]}")
    print(f"# nproc={ctx['nproc']} blas={ctx['blas']} threads={ctx['blas_threads_queried']} "
          f"python={ctx['python']} numpy={ctx['numpy']} cpu={ctx['cpu_model']!r} load={ctx['loadavg_start']}")
    print(f"# cpu picks={result['cpu_pick']['picks']} switches={result['cpu_pick']['switches']}")
    if "latency" in result:
        lat = result["latency"]
        print(f"# latency samples={lat['samples']} tail=p{lat['tail_percentile']:.2f} "
              f"({lat['tail_beyond']} samples beyond); fail_frac={result['fail_frac']:.6f} "
              f"(known defects: {result['failed_known_defects']})")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']} {metric['unit']}")
    print(f"# results: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": result["failed_unexpected"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed_unexpected"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
