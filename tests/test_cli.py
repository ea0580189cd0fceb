"""CLI surface: exit codes, JSON/CSV reports, determinism."""

import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treeschur
from test_padics import _fraction_distance
from treeschur.cli import main
from treeschur.padics import PMatrix2
from treeschur import symbols, verify
from treeschur.verify import run_suite


def write_spec(tmp_path, obj, name="symbol.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_norm_spherical_inf(tmp_path, capsys):
    spec = write_spec(tmp_path, {"kind": "spherical", "q": "inf", "s": {"re": 0.0, "im": 0.5}})
    code, out, _ = run_cli(capsys, ["norm", spec])
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == "treeschur/1"
    assert report["results"]["total"] == pytest.approx(5.0 / 3.0, abs=1e-8)
    assert report["results"]["certified"]


def test_norm_reports_its_budget(tmp_path, capsys):
    spec = write_spec(tmp_path, {"kind": "spherical", "q": 3, "s": {"re": 0.0, "im": 0.4}})
    code, out, _ = run_cli(capsys, ["norm", spec, "--err", "1e-9"])
    assert code == 0
    res = json.loads(out)["results"]
    budget = res["budget"]
    assert sorted(budget) == ["parity", "spill", "svd", "tail"]
    assert res["certified_error"] == budget["tail"] + budget["spill"] + budget["parity"] + budget["svd"] <= 1e-9
    assert budget["svd"] == 1e-12 * res["truncation_n"]
    assert res["total"] == pytest.approx(29.0 / 9.0, abs=1e-9)
    # a rank-2 window at its own degree: the width-2 probe certifies it
    assert res["sketch_width"] == 2


def test_norm_zero_and_constant_symbols(tmp_path, capsys):
    spec = write_spec(tmp_path, {"kind": "explicit", "values": [], "tail": {"type": "finite"}})
    code, out, _ = run_cli(capsys, ["norm", spec, "--q", "3"])
    assert code == 0
    assert json.loads(out)["results"]["total"] == pytest.approx(0.0, abs=1e-12)
    # the constant symbol enters as the spherical function with eigenvalue 1
    const = write_spec(tmp_path, {"kind": "spherical", "q": 3, "s": 1.0}, name="const.json")
    code, out, _ = run_cli(capsys, ["norm", const])
    assert code == 0
    assert json.loads(out)["results"]["total"] == pytest.approx(1.0, abs=1e-10)


def test_norm_lacunary_exits_2_with_blocks(tmp_path, capsys):
    spec = write_spec(tmp_path, {"kind": "lacunary"})
    code, out, err = run_cli(capsys, ["norm", spec])
    assert code == 2
    report = json.loads(out)
    assert report["results"]["multiplier"] is False
    blocks = report["results"]["block_lower_bounds"]
    assert blocks["64"] == pytest.approx(0.2375)
    assert "not a Schur multiplier" in err


def test_norm_malformed_input(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, ["norm", str(path)])
    assert code == 1
    assert "error" in err


def test_norm_declared_tail_violation_exits_1(tmp_path, capsys):
    values = [0.0] * 400
    values[0], values[300] = 1.0, 0.5
    spec = write_spec(tmp_path, {"kind": "explicit", "values": values,
                                 "tail": {"type": "geometric", "ratio": 0.1, "bound": 1.0}})
    code, out, err = run_cli(capsys, ["norm", spec, "--q", "3"])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["norm", "peller"])
@pytest.mark.parametrize("spec", [
    {"kind": "explicit", "values": [1.0, 0.5], "tail": [1]},
    {"kind": "explicit", "values": [1.0, float("nan")]},
    {"kind": "explicit", "values": [1.0, 0.5], "tail": {"type": "geometric", "ratio": None, "bound": 1.0}},
    {"kind": "explicit", "values": 5},
    {"kind": "spherical", "q": None, "s": 0.4},
    {"kind": "spherical", "q": 3.5, "s": 0.4},
    {"kind": "spherical", "q": "3.5", "s": 0.4},
    # a JSON boolean is not a number, and an onset is an integer
    {"kind": "explicit", "values": [True, False]},
    {"kind": "explicit", "values": [[0.5, True]]},
    {"kind": "spherical", "q": 3, "s": True},
    {"kind": "spherical", "q": 3, "s": {"re": 0.0, "im": True}},
    {"kind": "explicit", "values": [1.0, 0.5], "tail": {"type": "geometric", "ratio": True, "bound": 1.0}},
    {"kind": "explicit", "values": [1.0, 0.5], "tail": {"type": "geometric", "ratio": 0.5, "bound": True}},
    {"kind": "explicit", "values": [1.0, 0.5], "tail": {"type": "geometric", "ratio": 0.5, "bound": 1.0, "onset": True}},
    {"kind": "explicit", "values": [1.0, 0.5], "tail": {"type": "geometric", "ratio": 0.5, "bound": 1.0, "onset": 1.7}},
    # s and z name the same eigenvalue twice: neither is read over the other
    {"kind": "spherical", "q": 3, "s": 0.4, "z": 0.3},
])
def test_malformed_symbol_spec_one_line_error(tmp_path, capsys, command, spec):
    code, out, err = run_cli(capsys, [command, write_spec(tmp_path, spec)])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["norm", "--err", "0"],
    ["norm", "--err", "nan"],
    ["norm", "--err", "-1"],
    ["norm", "--err", "inf"],
    ["peller", "--err", "nan"],
    ["peller", "--err", "-1"],
    ["peller", "--n", "0"],
    ["peller", "--n", "-3"],
    ["peller", "--n", "4097"],  # one past the truncation cap: refused before any window is built
])
def test_bad_numeric_option_one_line_error(tmp_path, capsys, argv):
    spec = write_spec(tmp_path, {"kind": "explicit", "values": [1.0, 0.5]})
    code, out, err = run_cli(capsys, [argv[0], spec, *argv[1:]])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("command, spec, options", [
    ("norm", {"kind": "explicit", "values": [1.0, 0.5]}, ["--q", "1"]),
    ("norm", {"kind": "explicit", "values": [1.0, 0.5]}, ["--q", "-1"]),
    ("norm", {"kind": "spherical", "q": 1, "s": 0.4}, []),
    ("norm", {"kind": "explicit", "values": [1.0, 10 ** 400]}, []),
    ("norm", {"kind": "spherical", "q": 10 ** 400, "s": 0.4}, []),
    ("norm", {"kind": "explicit", "values": [1.0, 0.5]}, ["--q", str(10 ** 400)]),
    ("norm", {"kind": "spherical", "q": 3, "s": 1e308}, []),
    ("peller", {"kind": "spherical", "q": 3, "z": -1e308}, []),
    ("norm", {"kind": "spherical", "q": 3, "z": -1e308}, []),
], ids=["q-1", "q-minus-1", "spec-q-1", "huge-int-value", "huge-spec-q", "huge-option-q",
        "huge-s", "huge-z-peller", "huge-z-norm"])
def test_bad_degree_or_overflow_one_line_error(tmp_path, capsys, command, spec, options):
    # a degree below 2 and a number out of float range are refused where the
    # input is parsed, not as a traceback from the closed forms
    code, out, err = run_cli(capsys, [command, write_spec(tmp_path, spec), *options])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_symbol_spec_out_of_float_range_is_a_value_error():
    from treeschur.symbol_io import parse_degree, symbol_from_spec

    with pytest.raises(ValueError):
        symbol_from_spec({"kind": "explicit", "values": [10 ** 400]})
    with pytest.raises(ValueError):
        symbol_from_spec({"kind": "spherical", "q": 3, "s": 1e308})
    with pytest.raises(ValueError):
        parse_degree(1)
    assert parse_degree("3") == 3


@pytest.mark.parametrize("q", [3, 3.0, "3"], ids=["int", "float", "string"])
def test_integral_degree_spellings_agree(tmp_path, capsys, q):
    code, out, _ = run_cli(capsys, ["norm", write_spec(tmp_path, {"kind": "spherical", "q": q, "s": [0.0, 0.4]})])
    assert code == 0
    report = json.loads(out)
    assert report["inputs"]["q"] == 3
    assert report["results"]["total"] == pytest.approx(29.0 / 9.0, abs=1e-8)


@pytest.mark.parametrize("payload", [
    [1],
    {"q": 3, "a": 5, "b": [["1", "0"], ["0", "1"]]},
    {"q": 3, "a": [["1/0", "0"], ["0", "1"]], "b": [["1", "0"], ["0", "1"]]},
    {"q": 3, "a": [[1e400, 0], [0, 1]], "b": [[1, 0], [0, 1]]},
    {"q": 3.5, "a": [["1", "0"], ["0", "1"]], "b": [["9", "0"], ["0", "1"]]},
    {"q": 3, "a": [[True, 0], [0, 1]], "b": [[1, 0], [0, 1]]},
    {"q": True, "a": [["1", "0"], ["0", "1"]], "b": [["9", "0"], ["0", "1"]]},
])
def test_padic_distance_malformed_one_line_error(tmp_path, capsys, payload):
    code, out, err = run_cli(capsys, ["padic-distance", write_spec(tmp_path, payload)])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_spherical_single_point(capsys):
    code, out, _ = run_cli(capsys, ["spherical", "--q", "3", "--s", "0.4j"])
    assert code == 0
    report = json.loads(out)
    row = report["rows"][0]
    assert row["multiplier"] is True
    assert row["schur_norm"] == pytest.approx(29.0 / 9.0)


def test_spherical_non_multiplier_row_is_not_error(capsys):
    code, out, _ = run_cli(capsys, ["spherical", "--q", "3", "--s", "2.0"])
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["multiplier"] is False
    assert row["schur_norm"] == "not-a-multiplier"


def test_spherical_isolated_point(capsys):
    code, out, _ = run_cli(capsys, ["spherical", "--q", "5", "--s", "1.0"])
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["multiplier"] is True and row["schur_norm"] == 1.0


def test_spherical_z_point(capsys):
    code, out, _ = run_cli(capsys, ["spherical", "--q", "3", "--z", "0.5"])
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["schur_norm"] == pytest.approx(1.0, abs=1e-12)


def test_spherical_grid_csv(capsys):
    code, out, _ = run_cli(capsys, ["spherical", "--q", "2", "--grid=-0.5:0.5:3,-0.2:0.2:3", "--out", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",")[:2] == ["s_re", "s_im"]
    assert len(lines) == 10


def test_verify_unknown_suite_exit_1(capsys):
    code, _, err = run_cli(capsys, ["verify", "nonsense"])
    assert code == 1
    assert "unknown suite" in err


def test_verify_padic_suite(capsys):
    code, out, err = run_cli(capsys, ["verify", "padic", "--seed", "7"])
    assert code == 0
    report = json.loads(out)
    assert report["results"]["passed"] is True
    assert "PASS" in err


def test_run_suite_every_suite_passes_and_all_concatenates():
    reports = [run_suite(name, seed=0) for name in ("tree", "peller", "padic", "sandwich")]
    assert all(rep.passed for rep in reports)
    assert run_suite("all", seed=0).checks == [c for rep in reports for c in rep.checks]
    assert all(type(c.passed) is bool for rep in reports for c in rep.checks)


def test_sandwich_suite_reads_each_norm_once(monkeypatch):
    # ten corpus symbols at q = 2, 3 and infinity: one corpus, 30 norms, so
    # each symbol's infinite-degree norm serves both finite degrees
    calls = {"schur_norm": 0, "trace_class_corpus": 0}

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(symbols, "schur_norm")
    count(verify, "schur_norm")
    count(verify, "trace_class_corpus")
    assert run_suite("sandwich", seed=0).passed
    assert calls == {"schur_norm": 30, "trace_class_corpus": 1}


@pytest.mark.parametrize("norm_q, passed", [
    (0.5 - 2.0 ** -22, False),  # under (q-1)/(q+1) ||phi||_inf by 2.4e-7: past 1e-7, inside 1e-6
    (1.0 + 2.0 ** -22, False),  # over ||phi||_inf by as much
    (1.0 + 1e-7, True),  # over ||phi||_inf by the allowance exactly
    (0.75, True),
])
def test_subtree_sandwich_check_on_synthetic_totals(monkeypatch, norm_q, passed):
    # exact norms (certified_error 0) at q = 3 against ||phi||_inf = 1: the
    # allowance is 1e-7, so the first two fail on the sandwich, not on the 1e-6 cap
    def fake_norm(sym, q, target_err):
        return SimpleNamespace(total=1.0 if q == math.inf else norm_q, certified_error=0.0)

    monkeypatch.setattr(verify, "schur_norm", fake_norm)
    (res,) = verify.check_subtree_sandwich([SimpleNamespace(name="synthetic")], (3,))
    assert res.passed is passed and res.max_err <= 1e-6
    assert res.detail == ("" if passed else "synthetic")


def test_padic_distance(tmp_path, capsys):
    payload = {"q": 3, "a": [["1", "0"], ["0", "1"]], "b": [["9", "0"], ["0", "1"]]}
    path = tmp_path / "mats.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, ["padic-distance", str(path)])
    assert code == 0
    assert json.loads(out)["results"]["distance"] == 2


def test_padic_distance_is_exact_at_any_precision_field(tmp_path, capsys):
    # "precision" is accepted for schema stability and has no effect
    payload = {"q": 3, "a": [[1, 1], [1, 1 + 3 ** 70]], "b": [[1, 0], [0, 1]], "precision": 0}
    code, out, _ = run_cli(capsys, ["padic-distance", write_spec(tmp_path, payload)])
    assert code == 0
    assert json.loads(out)["results"]["distance"] == 70


def test_padic_distance_of_a_huge_power_of_ten_at_q2(tmp_path, capsys):
    # 1e200000 = 2^200000 5^200000: its 2-adic valuation is read from the bits
    payload = {"q": 2, "a": [["1e200000", "0"], ["0", "1"]], "b": [["1", "0"], ["0", "1"]]}
    code, out, _ = run_cli(capsys, ["padic-distance", write_spec(tmp_path, payload)])
    assert code == 0
    assert json.loads(out)["results"]["distance"] == 200000


@pytest.mark.parametrize("q, a, b", [
    (3, [["5/12", "7/18"], ["-2/15", "1/81"]], [["9/14", "0"], ["4/55", "27/2"]]),
    (2, [["3/40", "1/6"], ["5/7", "-9/8"]], [["1", "1/14"], ["7/96", "0"]]),
    (5, [["2/75", "0"], ["0", "125/6"]], [["3/10", "1"], ["-1", "7/250"]]),
])
def test_padic_distance_with_mixed_denominators(tmp_path, capsys, q, a, b):
    # denominators with powers of q and other primes scale to one integer
    # multiple per matrix; the answer is the distance read from the fractions
    payload = {"q": q, "a": a, "b": b}
    code, out, _ = run_cli(capsys, ["padic-distance", write_spec(tmp_path, payload)])
    assert code == 0
    want = _fraction_distance(PMatrix2.from_rationals(q, a), PMatrix2.from_rationals(q, b))
    assert json.loads(out)["results"]["distance"] == want


@pytest.mark.parametrize("q", [2, 5])
def test_padic_distance_of_1e100000(tmp_path, capsys, q):
    # 1e100000 = 2^100000 5^100000 stays one integer entry of valuation 100000
    payload = {"q": q, "a": [["1e100000", "0"], ["0", "1"]], "b": [["1", "0"], ["0", "1"]]}
    code, out, _ = run_cli(capsys, ["padic-distance", write_spec(tmp_path, payload)])
    assert code == 0
    assert json.loads(out)["results"]["distance"] == 100000


def test_peller_command(tmp_path, capsys):
    spec = write_spec(tmp_path, {"kind": "explicit", "values": [1.0, 0.5, 0.25]})
    code, out, _ = run_cli(capsys, ["peller", spec])
    assert code == 0
    res = json.loads(out)["results"]
    assert res["holds"] is True
    assert res["trace_norm"] <= res["disc_l1"] + res["certified_error"]


def test_peller_result_is_flagged_uncertified(tmp_path, capsys):
    # certified_error adds the disc integral's Richardson estimate, which bounds nothing
    spec = write_spec(tmp_path, {"kind": "spherical", "q": 3, "s": {"re": 0.0, "im": 0.4}})
    code, out, _ = run_cli(capsys, ["peller", spec])
    assert code == 0
    res = json.loads(out)["results"]
    assert res["certified"] is False
    assert set(res) == {"trace_norm", "disc_l1", "upper", "holds", "certified_error", "certified"}


def test_peller_ratio_zero_tail(tmp_path, capsys):
    spec = write_spec(tmp_path, {"kind": "explicit", "values": [1, 0.5, 0.25, 0.125, 0.9],
                                 "tail": {"type": "geometric", "ratio": 0, "bound": 1, "onset": 5}})
    code, out, _ = run_cli(capsys, ["peller", spec])
    assert code == 0
    res = json.loads(out)["results"]
    assert res["holds"] is True


def test_norm_onset_past_the_values(tmp_path, capsys):
    # the check and the exact head stop at the stored values
    spec = write_spec(tmp_path, {"kind": "explicit", "values": [1.0, 0.5],
                                 "tail": {"type": "geometric", "ratio": 0.5, "bound": 1.0, "onset": 10 ** 12}})
    code, out, _ = run_cli(capsys, ["norm", spec])
    assert code == 0
    assert json.loads(out)["results"]["total"] == pytest.approx(math.sqrt(2.0), abs=1e-8)


def test_peller_lacunary_rejected(tmp_path, capsys):
    spec = write_spec(tmp_path, {"kind": "lacunary"})
    code, _, err = run_cli(capsys, ["peller", spec])
    assert code == 1
    assert "error" in err


def test_json_determinism_modulo_wall_time(tmp_path, capsys):
    spec = write_spec(tmp_path, {"kind": "spherical", "q": 3, "s": {"re": 0.1, "im": 0.3}})

    def run_once():
        code, out, _ = run_cli(capsys, ["norm", spec, "--err", "1e-9"])
        assert code == 0
        report = json.loads(out)
        report.pop("wall_time_s")
        return json.dumps(report, sort_keys=True)

    assert run_once() == run_once()

    def run_verify():
        code, out, _ = run_cli(capsys, ["verify", "padic", "--seed", "3"])
        assert code == 0
        report = json.loads(out)
        report.pop("wall_time_s")
        return json.dumps(report, sort_keys=True)

    assert run_verify() == run_verify()


def run_cli_process(argv, stdin, timeout=120, preexec_fn=None, **env_extra):
    """The CLI in a fresh interpreter, where numpy warnings reach stderr
    instead of pytest's capture."""
    src = Path(treeschur.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]), **env_extra}
    return subprocess.run(
        [sys.executable, "-W", "default", "-c", "import sys; from treeschur.cli import main; sys.exit(main())", *argv],
        input=stdin, capture_output=True, text=True, env=env, timeout=timeout, preexec_fn=preexec_fn,
    )


# inputs of a few bytes that ask for a huge structure: 2e15 grid points
# (7 PiB of rows), and a 1,000,001-digit entry whose 5-adic valuation is
# quadratic in its size
HUGE_GRID = "0:0.1:1000000000000000,0:0.1:2"
HUGE_ENTRY = [["1e1000000", "0"], ["0", "1"]]
ADDRESS_SPACE = 512 << 20


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


@pytest.mark.parametrize("argv, stdin", [
    (["spherical", "--q", "3", "--grid", HUGE_GRID], ""),
    (["padic-distance", "-"], json.dumps({"q": 5, "a": HUGE_ENTRY, "b": [["1", "0"], ["0", "1"]]})),
])
def test_huge_inputs_are_refused_in_bounded_time_and_memory(argv, stdin):
    # each in its own interpreter under a 512 MB address space and a wall limit
    start = time.perf_counter()
    proc = run_cli_process(argv, stdin, timeout=10, preexec_fn=_limit_address_space, OPENBLAS_NUM_THREADS="1")
    assert time.perf_counter() - start < 2.5
    assert proc.returncode == 1 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error:"), proc.stderr


def test_norm_overflowing_symbol_stderr_is_one_line():
    # [1e308, 5e307] certifies no truncation, since the rounding of its float
    # total dwarfs the target; the refusal is one line, with no numpy warning
    proc = run_cli_process(["norm", "-", "--q", "3"], '{"kind":"explicit","values":[1e308,5e307]}')
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: no truncation") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("command", ["norm", "peller"])
def test_overflowing_window_exits_1_with_an_error_line(tmp_path, capsys, command):
    # finite values whose difference d[0] = 1e308 - (-1e308) overflows: the
    # window raises NonFinite, which reads as bad input, never a certificate
    spec = write_spec(tmp_path, {"kind": "explicit", "values": [1e308, 0.0, -1e308]})
    code, out, err = run_cli(capsys, [command, spec, *(["--q", "inf"] if command == "norm" else [])])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["norm", "peller"])
def test_overflowing_window_prints_no_numpy_warning(command):
    # the overflow of d[0] = 1e308 - (-1e308) and of the disc coefficients
    # reaches stderr as the one error line, with no RuntimeWarning before it
    argv = [command, "-", *(["--q", "inf"] if command == "norm" else [])]
    proc = run_cli_process(argv, '{"kind":"explicit","values":[1e308,0,-1e308]}')
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr


def test_bad_degree_and_overflow_print_one_stderr_line():
    for argv, stdin in [
        (["norm", "-", "--q", "1"], '{"kind":"explicit","values":[1,0.5]}'),
        (["norm", "-"], '{"kind":"explicit","values":[1,%s]}' % (10 ** 400)),
        (["peller", "-"], '{"kind":"spherical","q":3,"z":-1e308}'),
    ]:
        proc = run_cli_process(argv, stdin)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.parametrize("argv, stdin", [
    (["spherical", "--q", "3", "--z", "1e308"], ""),
    (["spherical", "--q", "3", "--s", "1e308"], ""),
    (["spherical", "--q", "3", "--s", "nan"], ""),
    (["spherical", "--q", "3", "--s", "inf"], ""),
    (["norm", "-", "--q", "-1e+308"], '{"kind":"explicit","values":[1,0.5]}'),
    (["peller", "-", "--q", "3"], '{"kind":"explicit","values":[1,0.5]}'),
    (["peller", "-", "--n", "1.5"], '{"kind":"explicit","values":[1,0.5]}'),
    (["norm", "-"], '{"kind":"explicit","values":[1,0.5],"tail":{"type":"geometric","ratio":0.5,"bound":"inf"}}'),
    (["norm", "-"], '{"kind":"spherical","q":3,"s":NaN}'),
    (["verify"], ""),
    (["spherical", "--q", "3", "--s", "0.1", "--z", "0.3", "--grid", "0:0.1:2,0:0:1"], ""),
], ids=["z-overflow", "s-overflow", "s-nan", "s-inf", "usage-negative-q", "usage-foreign-option",
        "usage-fractional-n", "infinite-bound", "spec-nan", "usage-missing-suite", "usage-two-points"])
def test_refused_input_exits_1_with_one_line(argv, stdin):
    code, out, err = run_in_process(argv, stdin)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1, err


def test_spherical_s_far_outside_the_ellipse_is_not_a_multiplier():
    # s^2 overflows, but membership needs no square: the answer is that of --s 2
    for s in ("2", "1e200", "-1e200j"):
        code, out, err = run_in_process(["spherical", "--q", "3", f"--s={s}"])
        assert code == 0 and err == ""
        row = json.loads(out)["rows"][0]
        assert row["multiplier"] is False and row["schur_norm"] == "not-a-multiplier"


def test_spherical_z_whose_eigenvalue_overflows_names_the_option():
    for z in ("700", "-700", "1e200"):
        code, out, err = run_in_process(["spherical", "--q", "3", f"--z={z}"])
        assert code == 1 and out == ""
        assert err.startswith(f"error: --z {z}:") and "out of floating-point range" in err
        assert err.count("\n") == 1


def test_spherical_subnormal_z_reads_the_real_segment():
    code, out, _ = run_in_process(["spherical", "--q", "2", "--z", "1e-320"])
    assert code == 0
    assert json.loads(out)["rows"][0]["schur_norm"] == pytest.approx(1.0, abs=1e-12)


def test_parse_complex_refuses_non_finite_parts():
    from treeschur.symbol_io import parse_complex

    for obj in (math.nan, "inf", "nan+1j", [0.0, math.inf], {"re": "-inf"}, {"im": math.nan}):
        with pytest.raises(ValueError):
            parse_complex(obj)
    assert parse_complex([0.3, -0.2]) == complex(0.3, -0.2)


def test_usage_error_and_help_in_a_process():
    proc = run_cli_process(["peller", "-", "--q", "3"], '{"kind":"explicit","values":[1,0.5]}')
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr
    proc = run_cli_process(["norm", "--help"], "")
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: treeschur norm") and proc.stderr == ""


# ---------------------------------------------------------------------------
# the contract as a property: every input the grammar below draws ends in a
# documented exit code, with at most one stderr line and strict JSON or
# nothing on stdout
# ---------------------------------------------------------------------------

def run_in_process(argv, stdin=""):
    """(exit code, stdout, stderr) of ``main`` with ``stdin`` as standard input."""
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def _refuse_constant(name):
    raise AssertionError(f"stdout holds the non-JSON constant {name}")


# each grammar draws a well-formed value or an odd one with equal odds
_FINE_NUMBERS = [0, 1, -1, 0.5, 0.4, -0.3, 2, 1e-320, "0.4j", "0.3-0.2j", [0.3, 0.2], {"re": 0.0, "im": 0.4}]
_ODD_NUMBERS = [10 ** 400, -10 ** 400, 1e308, -1e308, math.nan, math.inf, -math.inf, "nan", "x", None, True,
                [1e308, -1e308], [0.1], {"re": "nan"}]
_NUMBERS = st.one_of(st.sampled_from(_FINE_NUMBERS), st.sampled_from(_ODD_NUMBERS))
_DEGREES = st.one_of(
    st.sampled_from([2, 3, 5, "inf", 3.0, "3"]),
    st.sampled_from([1, 0, -1, 3.5, "3.5", 10 ** 400, 1e308, math.nan, math.inf, None, "x", [3]]),
)
_TAIL_FIELDS = {
    "ratio": st.sampled_from([0, 0.5, 0.1, 1e-320, 1, -0.5, 1e308, math.nan, 10 ** 400, "0.5", None]),
    "bound": st.sampled_from([1, 2, 0, 1e308, -1, "inf", math.nan, 10 ** 400, None, "x"]),
}
_TAILS = st.one_of(
    st.sampled_from([{"type": "finite"}, {"type": "bogus"}, {}, [1], "geometric", None]),
    st.fixed_dictionaries({"type": st.just("geometric"), **_TAIL_FIELDS}, optional={
        "onset": st.sampled_from([0, 3, 10 ** 12, -1, 10 ** 400, 1.5, "x", None])}),
    st.fixed_dictionaries({"type": st.just("geometric")}, optional=_TAIL_FIELDS),
)
_SPECS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("explicit")}, optional={
        "values": st.one_of(st.lists(st.sampled_from(_FINE_NUMBERS), max_size=5),
                            st.lists(_NUMBERS, max_size=5), _NUMBERS),
        "tail": _TAILS}),
    st.fixed_dictionaries({"kind": st.just("spherical"), "q": _DEGREES, "s": _NUMBERS}),
    st.fixed_dictionaries({"kind": st.just("spherical"), "q": _DEGREES, "z": _NUMBERS}),
    st.fixed_dictionaries({}, optional={"kind": st.sampled_from(["spherical", "lacunary", "bogus", None, 3]),
                                        "q": _DEGREES, "s": _NUMBERS, "z": _NUMBERS}),
    st.sampled_from([{"kind": "lacunary"}, [], "x", 5, None]),
)
_MATRICES = st.sampled_from([
    [["1", "0"], ["0", "1"]], [["9", "0"], ["0", "1"]], [[1, 1], [1, 1 + 3 ** 70]], [["1/2", 0], [0, 3]],
    [[0, 0], [0, 0]], [["1/0", "0"], ["0", "1"]], [[1e308, 0], [0, 1]], [[math.nan, 0], [0, 1]],
    [[10 ** 400, 0], [0, 1]], HUGE_ENTRY, [[1, 2]], 5, None,
])
_PAYLOADS = st.one_of(
    st.fixed_dictionaries({"q": st.sampled_from([3, 2, 5, "3"]), "a": _MATRICES, "b": _MATRICES}),
    st.fixed_dictionaries({}, optional={
        "q": st.sampled_from([4, -3, 3.5, "1/0", 10 ** 400, math.nan, None]), "a": _MATRICES, "b": _MATRICES}),
    st.sampled_from([[1], "x", None]),
)
# (well-formed, odd) values of each option; odd ones include strings that
# start with '-', which the parser may read as options
_OPTIONS = {
    "--q": (["3", "2", "5", "inf"],
            ["1", "-1", "0", "3.5", "1e308", "-1e+308", str(10 ** 400), "nan", "-inf", "x", ""]),
    "--err": (["1e-8", "1e-12", "1e-320", "1e308"], ["0", "-1", "nan", "inf", "-1e+308", "x", ""]),
    "--n": (["1", "96", "128"], ["0", "-3", "4097", "1e3", "1.5", "-1e+308", str(10 ** 400), "x"]),
    "--s": (["0.4j", "0.3+0.2j", "-0.5", "1", "2", "1e-320"], ["1e308", "-1e308", "nan", "inf", "x", "-x"]),
    "--z": (["0.5", "0.3+1j", "1e-320", "1e-320+1j", "1"], ["1e308", "-1e308", "nan", "-inf", "x", "-x"]),
    "--grid": (["-0.5:0.5:3,-0.2:0.2:3", "0:1:2,0:0:1"],
               ["nan:1:2,0:0:1", "0:1:-1,0:0:1", "-1:-1e+308:2,0:0:1", HUGE_GRID, "x"]),
    "--seed": (["0", "7"], ["-1", "1e3", str(10 ** 400), "x"]),
    "--out": (["json"], ["xml", "-x"]),
}
_OWN_OPTIONS = {
    "norm": ["--q", "--err", "--out"], "peller": ["--n", "--err", "--out"],
    "spherical": ["--s", "--z", "--grid", "--out"], "verify": ["--seed", "--out"], "padic-distance": ["--out"],
}


def _option(flag, command):
    fine, odd = _OPTIONS[flag]
    if (command, flag) == ("peller", "--err"):
        fine = ["1e-6", "1e-3", "1e308"]  # a tighter disc target costs seconds
    return st.one_of(st.sampled_from(fine), st.sampled_from(odd))


@st.composite
def cli_inputs(draw):
    """(argv, stdin): a command, its input, and options that may be
    foreign to it, mistyped or missing their value."""
    command = draw(st.sampled_from(sorted(_OWN_OPTIONS)))
    argv, stdin = [command], ""
    if command in ("norm", "peller"):
        argv.append("-")
        stdin = json.dumps(draw(_SPECS))
    elif command == "padic-distance":
        argv.append("-")
        stdin = json.dumps(draw(_PAYLOADS))
    elif command == "verify":
        argv.append(draw(st.sampled_from(["padic", "nonsense", "-x", ""])))
    else:
        point = draw(st.sampled_from(["--s", "--z", "--grid"]))
        argv += ["--q", draw(_option("--q", command)), point, draw(_option(point, command))]
    rare = st.sampled_from([False] * 7 + [True])
    if draw(rare):
        argv = argv[:1]  # the input, or spherical's --q and point, is missing
    for flag in draw(st.lists(st.sampled_from(_OWN_OPTIONS[command]), max_size=2, unique=True)):
        argv += [flag, draw(_option(flag, command))]
    if draw(rare):
        argv += ["--q" if command == "peller" else "--n", "3"]  # an option foreign to the command
    if draw(rare):
        argv.append(draw(st.sampled_from(_OWN_OPTIONS[command])))  # an option without its value
    return argv, stdin


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(cli_inputs())
def test_every_input_ends_in_a_documented_exit_code(case):
    argv, stdin = case
    code, out, err = run_in_process(argv, stdin)
    assert code in (0, 1, 2, 3)
    # the PASS/FAIL lines of verify are its per-check results
    notes = [line for line in err.splitlines() if not line.startswith(("PASS ", "FAIL "))]
    assert len(notes) <= 1, err
    if out:
        json.loads(out, parse_constant=_refuse_constant)
    if code in (1, 3):
        assert out == "" and notes and notes[0].startswith("error:"), (out, err)
