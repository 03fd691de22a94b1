"""CLI tests: subcommand wiring, exit codes, deterministic reports, and the
file-output path.  Everything goes through main(argv) in-process."""

from __future__ import annotations

import cmath
import contextlib
import csv
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from appell_kit import bundles, cli, identities, modular, qexact
from appell_kit.bundles import BUNDLE_NOMES
from appell_kit.cli import EVAL_FUNCTIONS, SUITES, format_value, main, parse_complex
from appell_kit.modular import MODULAR_TAUS
from appell_kit.qexact import QSERIES_NAMES
from appell_kit.numeric import DomainError, NonconvergenceError, kappa, vartheta1


def _assert_no_child_left():
    """main reaps every worker it forked before it returns."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def run_cli(capsys, *argv):
    code = main(list(argv))
    _assert_no_child_left()
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_complex_accepts_both_notations():
    assert parse_complex("1.5i") == 1.5j
    assert parse_complex("0.4+0.1j") == 0.4 + 0.1j
    assert parse_complex(" 2 ") == 2.0 + 0j
    with pytest.raises(Exception):
        parse_complex("bogus")


def test_parse_complex_maps_only_a_trailing_imaginary_unit():
    assert parse_complex("1+2i") == 1 + 2j
    assert parse_complex("-0.5i") == -0.5j
    assert parse_complex("2j") == 2j
    assert parse_complex("3I") == 3j
    assert parse_complex("inf") == complex(math.inf, 0.0)
    assert parse_complex("-inf") == complex(-math.inf, 0.0)
    assert parse_complex("1+infi") == complex(1.0, math.inf)
    assert cmath.isnan(parse_complex("nan"))


def test_format_value_is_fifteen_digits():
    assert format_value(1 / 3 + 0j) == "0.333333333333333+0j"
    assert format_value(1.0 - 2.5j) == "1-2.5j"


def test_suite_constants():
    assert SUITES == ("all", "numeric", "exact", "bundles", "modular")
    assert len(BUNDLE_NOMES) == 2
    assert len(MODULAR_TAUS) == 3


def test_verify_single_identity_includes_exact_companion(capsys):
    code, out, err = run_cli(
        capsys, "verify", "FOR1", "--samples", "5", "--exact-order", "40"
    )
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert [r["record_id"] for r in report["records"]] == ["FOR1", "FOR1_EXACT"]
    assert report["records"][0]["kind"] == "numeric-sampled"
    assert report["records"][1]["kind"] == "exact-coefficients"
    assert "elapsed" in err


@pytest.mark.parametrize("relation, other", (("FOR1", "FOR2"), ("FOR2", "FOR1")))
def test_verify_for_builds_only_its_own_exact_record(capsys, monkeypatch, relation, other):
    def unused(*args, **kwargs):
        raise AssertionError("built a series verify FOR1/FOR2 does not report")

    for name in (
        f"check_{other.lower()}_exact",
        "triangular_gf",
        "double_sum_series",
        "andrews_series",
        "triangular_counts_bruteforce",
    ):
        monkeypatch.setattr(qexact, name, unused)
    code, out, _ = run_cli(capsys, "verify", relation, "--samples", "5", "--exact-order", "40")
    assert code == 0
    records = json.loads(out)["records"]
    assert [r["record_id"] for r in records] == [relation, f"{relation}_EXACT"]
    assert records[1]["detail"] == "coefficients through u**39 agree"


def _verify_report(*argv: str) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["verify", *argv])
    _assert_no_child_left()
    return code, json.loads(out.getvalue())


def test_suite_functions_report_the_table_ids():
    """Each suite's outcomes, rendered, carry exactly the ids, and the kind,
    that SUITE_TABLE lists for its suite."""
    produced = {
        "numeric": identities.suite_outcomes(identities.registry_ids(), 2, 0),
        "exact": qexact.suite_outcomes(8),
        "bundles": bundles.suite_outcomes(2, 0),
        "modular": modular.suite_outcomes(2, 0),
    }
    assert tuple(produced) == SUITES[1:]
    for suite, (kind, ids, _) in cli.SUITE_TABLE.items():
        records = [cli._record(outcome, 1e-9) for outcome in produced[suite]]
        assert sorted(r["record_id"] for r in records) == sorted(ids)
        assert {r["kind"] for r in records} == {kind}
    assert len(cli.RECORD_KINDS) == 47


@pytest.fixture(scope="module")
def all_records() -> dict:
    code, report = _verify_report("all", "--samples", "3", "--exact-order", "40")
    assert code == 0
    return {r["record_id"]: r for r in report["records"]}


def test_every_record_of_verify_all_has_a_detail(all_records):
    """Each of the 47 records of verify all says what it checks."""
    assert len(all_records) == 47
    assert [r for r, record in all_records.items() if not record["detail"]] == []


@pytest.mark.parametrize("record_id", tuple(cli.RECORD_KINDS))
def test_verify_record_id_reports_its_record_from_all(all_records, record_id):
    """verify <ID> reports that record, plus FOR1_EXACT or FOR2_EXACT for
    FOR1 and FOR2, exactly as verify all reports it."""
    code, report = _verify_report(record_id, "--samples", "3", "--exact-order", "40")
    assert code == 0
    companion = [f"{record_id}_EXACT"] if record_id in ("FOR1", "FOR2") else []
    assert [r["record_id"] for r in report["records"]] == [record_id, *companion]
    for record in report["records"]:
        assert record == all_records[record["record_id"]]


def test_verify_unknown_target_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "verify", "BOGUS")
    assert code == 2
    assert out == ""


def test_verify_exit_one_on_failed_tolerance(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "DEF", "--samples", "3", "--tolerance", "1e-30"
    )
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False
    assert report["records"][0]["passed"] is False


def test_verify_reports_are_byte_identical(capsys):
    args = ("verify", "numeric", "--samples", "4", "--seed", "11")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert len(report["records"]) == 25


def _set_cpus(monkeypatch, count):
    """The CLI sees ``count`` CPUs, and forks ``count - 1`` workers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


@pytest.mark.parametrize("target", ("all", "numeric", "bundles", "modular", "FOR1", "BEZOUT_PAIR"))
def test_one_cpu_gives_the_default_report(capsys, monkeypatch, target):
    argv = ("verify", target, "--samples", "200")
    code, out, _ = run_cli(capsys, *argv)
    assert out.count('"command": "verify"') == 1
    _set_cpus(monkeypatch, 1)
    assert run_cli(capsys, *argv)[:2] == (code, out)


def test_more_workers_or_no_fork_give_the_serial_report(capsys, monkeypatch):
    argv = ("verify", "all", "--samples", "20", "--seed", "3")
    _set_cpus(monkeypatch, 1)
    serial = run_cli(capsys, *argv)[:2]
    _set_cpus(monkeypatch, 4)
    assert run_cli(capsys, *argv)[:2] == serial
    monkeypatch.delattr(os, "fork", raising=False)
    assert run_cli(capsys, *argv)[:2] == serial


def test_a_failed_fork_leaves_the_tasks_to_this_process(capsys, monkeypatch):
    argv = ("verify", "all", "--samples", "20", "--seed", "3")
    _set_cpus(monkeypatch, 1)
    serial = run_cli(capsys, *argv)[:2]

    def refused():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    _set_cpus(monkeypatch, 3)
    monkeypatch.setattr(os, "fork", refused)
    assert run_cli(capsys, *argv)[:2] == serial


def _raising_pairs(monkeypatch, identity_id, error, delay=0.0):
    def pairs(b, u):
        time.sleep(delay)
        raise error

    ident = identities.REGISTRY[identity_id]
    monkeypatch.setitem(identities.REGISTRY, identity_id, ident._replace(pairs=pairs))


@pytest.mark.parametrize("cpus", (1, 2))
def test_the_first_failing_task_in_serial_order_decides_the_error(capsys, monkeypatch, cpus):
    """ADDF comes before SYM in serial order.  It raises later in time, yet
    its message is the one a run on any number of CPUs reports."""
    _set_cpus(monkeypatch, cpus)
    _raising_pairs(monkeypatch, "ADDF", DomainError("ADDF is broken"), delay=0.2)
    _raising_pairs(monkeypatch, "SYM", DomainError("SYM is broken"))
    assert run_cli(capsys, "verify", "numeric", "--samples", "3") == (2, "", "domain error: ADDF is broken\n")


def test_one_cpu_calls_each_suite_runner_once_per_task(capsys, monkeypatch):
    """The runners are looked up by name when called, so a wrapper sees
    every call: once per numeric identity and once for each other suite."""
    _set_cpus(monkeypatch, 1)
    calls = {}
    for suite, (_, _, runner) in cli.SUITE_TABLE.items():
        seen = calls[suite] = []
        monkeypatch.setattr(
            cli, runner, lambda args, ids, f=getattr(cli, runner), seen=seen: seen.append(tuple(ids)) or f(args, ids)
        )
    assert run_cli(capsys, "verify", "all", "--samples", "3")[0] == 0
    assert {suite: len(seen) for suite, seen in calls.items()} == {
        "numeric": 25, "exact": 1, "bundles": 1, "modular": 1
    }
    assert calls["numeric"] == [(identity_id,) for identity_id in identities.registry_ids()]


def test_one_cpu_runs_no_task_after_a_failing_one(capsys, monkeypatch):
    """ADDF is the first numeric task; once it has raised, none of the other
    24 runs, and the report exits 2 with ADDF's error line."""
    _set_cpus(monkeypatch, 1)
    _raising_pairs(monkeypatch, "ADDF", DomainError("ADDF is broken"))
    run, original = [], identities.max_residual_over_samples
    monkeypatch.setattr(
        identities, "max_residual_over_samples", lambda ident, *a: run.append(ident) or original(ident, *a)
    )
    assert run_cli(capsys, "verify", "numeric", "--samples", "3") == (2, "", "domain error: ADDF is broken\n")
    assert run == ["ADDF"]


@pytest.mark.parametrize("cpus", (1, 2))
def test_nonconvergence_in_a_task_keeps_its_error_line(capsys, monkeypatch, cpus):
    _set_cpus(monkeypatch, cpus)
    _raising_pairs(monkeypatch, "SP1", NonconvergenceError("SP1 did not converge"))
    assert run_cli(capsys, "verify", "all", "--samples", "3") == (2, "", "error: SP1 did not converge\n")


def test_a_worker_that_ends_without_its_records_is_exit_2(capsys, monkeypatch):
    """The worker dies on its first task; this process runs its own first
    task only after that, and reports the lost task as one error line."""
    _set_cpus(monkeypatch, 2)
    parent, run_task = os.getpid(), cli._run_task
    died, died_in = os.pipe()
    waited = []

    def dying(args, task):
        if os.getpid() != parent:
            os.write(died_in, b"x")
            os._exit(7)
        if not waited:
            waited.append(os.read(died, 1))
        return run_task(args, task)

    monkeypatch.setattr(cli, "_run_task", dying)
    try:
        code, out, err = run_cli(capsys, "verify", "numeric", "--samples", "3")
    finally:
        os.close(died)
        os.close(died_in)
    assert (code, out) == (2, "")
    assert re.fullmatch(r"error: a verify worker ended with exit code 7 before reporting [A-Z0-9_]+\n", err)


def test_keyboard_interrupt_reaps_the_workers(monkeypatch):
    """The workers take 20 ms a task, so this process, done forking, claims
    a task while they still run: without the sleep they could claim all 25
    first, and nothing would raise."""
    _set_cpus(monkeypatch, 3)
    parent, run_task = os.getpid(), cli._run_task

    def interrupted(args, task):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(0.02)
        return run_task(args, task)

    monkeypatch.setattr(cli, "_run_task", interrupted)
    _interrupted_main(["verify", "numeric", "--samples", "3"])


def _interrupted_main(argv):
    """``main(argv)`` raises KeyboardInterrupt, prints nothing and leaves no
    child behind."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(KeyboardInterrupt):
        main(argv)
    _assert_no_child_left()
    assert out.getvalue() == ""


def test_a_ctrl_c_while_reading_a_workers_pipe_reaps_every_worker(monkeypatch):
    """Both workers sleep on their first task, so this process has run the
    other tasks and is reading the first worker's pipe when they send it a
    SIGINT.  The interrupt waits until every worker is reaped."""
    _set_cpus(monkeypatch, 3)
    parent, run_task = os.getpid(), cli._run_task
    slept = []

    def slow_then_interrupt(args, task):
        if os.getpid() != parent and not slept:
            slept.append(time.sleep(0.3))
            os.kill(parent, signal.SIGINT)
        return run_task(args, task)

    monkeypatch.setattr(cli, "_run_task", slow_then_interrupt)
    _interrupted_main(["verify", "numeric", "--samples", "3"])


def test_a_ctrl_c_right_after_a_fork_still_reaps_that_worker(monkeypatch):
    """A SIGINT that arrives as soon as ``os.fork`` returns in this process,
    before the worker's pid is recorded, waits until the forking is done."""
    _set_cpus(monkeypatch, 3)
    parent, fork = os.getpid(), os.fork

    def fork_then_interrupt():
        pid = fork()
        if pid:
            os.kill(parent, signal.SIGINT)
        return pid

    monkeypatch.setattr(os, "fork", fork_then_interrupt)
    _interrupted_main(["verify", "numeric", "--samples", "3"])


def test_workers_are_capped_whatever_the_cpu_count(capsys, monkeypatch):
    argv = ("verify", "all", "--samples", "20", "--seed", "3")
    _set_cpus(monkeypatch, 1)
    serial = run_cli(capsys, *argv)[:2]
    parent, fork, forked = os.getpid(), os.fork, []

    def counted_fork():
        pid = fork()
        if os.getpid() == parent:
            forked.append(pid)
        return pid

    _set_cpus(monkeypatch, 64)
    monkeypatch.setattr(os, "fork", counted_fork)
    assert run_cli(capsys, *argv)[:2] == serial
    assert len(forked) == cli.MAX_VERIFY_PROCESSES - 1


def test_verify_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "FOR2", "--samples", "3", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "record_id,kind,worst,tolerance,passed,detail"
    assert lines[1].startswith("FOR2,numeric-sampled,")
    assert lines[2].startswith("FOR2_EXACT,exact-coefficients,,,True,")
    rows = list(csv.reader(io.StringIO(out)))
    assert [len(row) for row in rows] == [6, 6, 6]
    # FOR2's law holds commas, quoted in its field; FOR2_EXACT's holds none.
    _, report, _ = run_cli(capsys, "verify", "FOR2", "--samples", "3")
    assert [row[5] for row in rows[1:]] == [r["detail"] for r in json.loads(report)["records"]]
    assert "," in rows[1][5] and lines[2].endswith(f",{rows[2][5]}")


def test_verify_exact_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "exact", "--exact-order", "40")
    assert code == 0
    report = json.loads(out)
    ids = [r["record_id"] for r in report["records"]]
    assert ids == [
        "FOR1_EXACT",
        "FOR2_EXACT",
        "TRIANGULAR_ANDREWS",
        "TRIANGULAR_COUNTS",
        "TRIANGULAR_DOUBLE_SUM",
    ]
    assert all(r["passed"] for r in report["records"])


def test_verify_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "verify", "FOR1", "--samples", "3", "--out", str(path)
    )
    assert code == 0
    assert out == ""
    report = json.loads(path.read_text())
    assert report["target"] == "FOR1"


def test_verify_seed_ignores_the_environment(capsys, monkeypatch):
    """--seed is the only seed: without it the report runs at seed 0,
    whatever the environment holds."""
    code, out, _ = run_cli(capsys, "verify", "FOR1", "--samples", "3")
    assert code == 0
    for value in ("42", "not-a-number"):
        monkeypatch.setenv("APPELL_KIT_SEED", value)
        code, env_out, _ = run_cli(capsys, "verify", "FOR1", "--samples", "3")
        assert code == 0
        assert json.loads(env_out)["seed"] == 0
        assert env_out == out


def test_main_builds_its_parser_once(capsys, monkeypatch):
    """main builds its parser on the first call and reuses it, yet reads
    each call's --seed afresh."""
    built = []
    original = cli.build_parser
    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or original())
    for seed in (5, 6):
        code, out, _ = run_cli(capsys, "verify", "FOR1_EXACT", "--seed", str(seed))
        assert code == 0
        assert json.loads(out)["seed"] == seed
    assert len(built) == 1


def _perturbed_counts(original, m):
    def perturbed(order):
        counts = list(original(order))
        counts[m] += 1
        return tuple(counts)

    return perturbed


def _perturbed_series(original, m):
    def perturbed(trunc):
        return original(trunc) + qexact.USeries.monomial(2 * m, trunc)  # q**m

    return perturbed


@pytest.mark.parametrize("m", (0, 17, 40))
@pytest.mark.parametrize(
    "record_id, name, perturb",
    [
        ("TRIANGULAR_COUNTS", "triangular_counts_bruteforce", _perturbed_counts),
        ("TRIANGULAR_DOUBLE_SUM", "double_sum_series", _perturbed_series),
        ("TRIANGULAR_ANDREWS", "andrews_series", _perturbed_series),
    ],
)
def test_triangular_records_fail_at_the_perturbed_exponent(capsys, monkeypatch, record_id, name, perturb, m):
    """One brute-force count or one double-sum or Andrews coefficient off by
    one at q**m fails that record alone, at exponent m, and exits 1."""
    monkeypatch.setattr(qexact, name, perturb(getattr(qexact, name), m))
    code, out, _ = run_cli(capsys, "verify", "exact", "--exact-order", "82")
    assert code == 1
    records = {r["record_id"]: r for r in json.loads(out)["records"]}
    assert records[record_id]["detail"] == f"first mismatch at exponent {m}"
    assert [i for i, r in records.items() if not r["passed"]] == [record_id]


def _perturbed_at(original, point, m):
    def perturbed(*args):
        series = original(*args)
        return series + qexact.USeries.monomial(m, args[-1]) if args[:-1] == point else series  # u**m

    return perturbed


@pytest.mark.parametrize("m", (0, 1, 17, 40))
@pytest.mark.parametrize(
    "name, point, failing",
    [
        ("theta_at", (1, 0), ["FOR1_EXACT", "FOR2_EXACT"]),
        ("theta_at", (-1, 0), ["FOR1_EXACT", "FOR2_EXACT"]),
        ("theta_at", (1, 1), ["FOR1_EXACT", "FOR2_EXACT"]),
        ("twice_kappa_at", (1, 1, -1, 0), ["FOR1_EXACT", "FOR2_EXACT"]),
        ("twice_kappa_at", (-1, 1, 1, 0), ["FOR1_EXACT", "FOR2_EXACT"]),
        ("twice_kappa_at", (-1, 0, 1, 1), ["FOR2_EXACT"]),
    ],
)
def test_for_records_fail_at_the_perturbed_exponent(capsys, monkeypatch, name, point, failing, m):
    """One coefficient of theta(1), theta(-1), theta(u), 2 kappa(u, -1),
    2 kappa(-u, 1) or 2 kappa(-1, u) off by one at u**m fails each FOR
    record that reads that series, at exponent m, odd or even, and exits 1."""
    monkeypatch.setattr(qexact, name, _perturbed_at(getattr(qexact, name), point, m))
    code, out, _ = run_cli(capsys, "verify", "exact", "--exact-order", "82")
    assert code == 1
    records = {r["record_id"]: r for r in json.loads(out)["records"]}
    assert [i for i, r in records.items() if not r["passed"]] == failing
    for record_id in failing:
        assert records[record_id]["detail"] == f"first mismatch at exponent {m}"


def test_eval_kappa(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "kappa", "--a", "0.7+0.4i", "--z", "1.3-0.2j", "--u", "0.35"
    )
    assert code == 0
    assert out.strip() == "0.737152292187006+2.08245360811233j"


def test_eval_missing_argument_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "eval", "kappa", "--a", "0.5", "--z", "1.2")
    assert code == 2
    assert "requires --u" in err


def test_eval_at_pole_is_domain_error(capsys):
    code, _, err = run_cli(
        capsys, "eval", "kappa", "--a", "1", "--z", "1.2", "--u", "0.3"
    )
    assert code == 2
    assert "domain error" in err


def test_eval_bad_complex_literal(capsys):
    code, _, _ = run_cli(capsys, "eval", "theta", "--z", "huh", "--u", "0.3")
    assert code == 2


def test_eval_nonconvergence_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "eval", "theta", "--z", "5", "--u", "0.999")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


def test_eval_non_finite_is_domain_error(capsys):
    code, out, err = run_cli(capsys, "eval", "theta", "--z", "nan", "--u", "0.3")
    assert code == 2
    assert out == ""
    assert err.startswith("domain error: z must be finite")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("literal", ("inf", "-inf", "1+infi", "infj"))
def test_eval_infinite_literal_is_domain_error(capsys, literal):
    code, out, err = run_cli(capsys, "eval", "theta", f"--z={literal}", "--u", "0.3")
    assert code == 2
    assert out == ""
    assert err.startswith("domain error: z must be finite")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("literal", ("-1+2i", "-2j", "-1-2I", "-0.5"))
def test_eval_negative_complex_value_as_next_token(capsys, literal):
    joined = run_cli(capsys, "eval", "theta", f"--z={literal}", "--u", "0.3")
    code, out, err = run_cli(capsys, "eval", "theta", "--z", literal, "--u", "0.3")
    assert joined[0] == code == 0
    assert out == joined[1]
    assert "expected one argument" not in err


def test_eval_negative_values_for_every_complex_option(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "kappa", "--a", "-0.7+0.4i", "--z", "-1.3-0.2j", "--u", "-0.35+0.1i"
    )
    assert code == 0
    assert out.strip() == format_value(kappa(-0.7 + 0.4j, -1.3 - 0.2j, -0.35 + 0.1j))
    code, out, _ = run_cli(capsys, "eval", "vartheta1", "--z", "-1-1i", "--v", "-0.5i")
    assert code == 0
    assert out.strip() == format_value(vartheta1(-1 - 1j, -0.5j))


def test_eval_negative_infinite_value_as_next_token_is_domain_error(capsys):
    code, out, err = run_cli(capsys, "eval", "theta", "--z", "-inf", "--u", "0.3")
    assert code == 2
    assert out == ""
    assert err.startswith("domain error: z must be finite")
    assert len(err.strip().splitlines()) == 1


def test_complex_option_does_not_swallow_a_following_option(capsys):
    code, out, err = run_cli(capsys, "eval", "theta", "--z", "-h")
    assert code == 2
    assert out == ""
    assert "expected one argument" in err


def test_modular_negative_tau_as_next_token(capsys):
    joined = run_cli(capsys, "modular", "1", "2", "0", "1", "--tau=-0.5+1.5i")
    code, out, _ = run_cli(capsys, "modular", "1", "2", "0", "1", "--tau", "-0.5+1.5i")
    assert joined[0] == code == 0
    assert out == joined[1]
    assert json.loads(out)["tau"] == "(-0.5+1.5j)"


@pytest.mark.parametrize(
    "function, z, message",
    (
        ("vartheta1", "1e-200", "z*z*v**4 underflows to 0 at z = (1e-200+0j), v = (0.5+0j)"),
        ("vartheta1", "1e200", "z*z*v**4 overflows at z = (1e+200+0j), v = (0.5+0j)"),
        ("vartheta0", "1e-200", "z*z underflows to 0 at z = (1e-200+0j), v = (0.5+0j)"),
    ),
)
def test_eval_vartheta_derived_argument_error_names_user_values(capsys, function, z, message):
    code, out, err = run_cli(capsys, "eval", function, "--z", z, "--v", "0.5")
    assert code == 2
    assert out == ""
    assert err == f"domain error: {message}\n"


@pytest.mark.parametrize(
    "target, flag, value",
    [
        ("bundles", "--samples", "0"),
        ("DEF", "--samples", "-3"),
        ("DEF", "--samples", "many"),
        ("exact", "--exact-order", "0"),
        ("DEF", "--tolerance", "-1"),
        ("DEF", "--tolerance", "0"),
        ("DEF", "--tolerance", "inf"),
        ("bundles", "--tolerance", "nan"),
    ],
)
def test_verify_flag_validation_is_usage_error(capsys, target, flag, value):
    code, out, err = run_cli(capsys, "verify", target, flag, value)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith(f"appell-kit verify: error: argument {flag}: ")
    assert len(err.strip().splitlines()) == 1


def test_negative_order_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "qseries", "t3", "--order", "-1")
    assert code == 2
    assert out == ""
    assert err == "appell-kit qseries: error: argument --order: must be >= 0, got -1\n"


def test_order_zero_stays_valid(capsys):
    code, out, _ = run_cli(capsys, "qseries", "t3", "--order", "0")
    assert code == 0
    json.loads(out)


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "modular", "--grid", "1"),
        ("verify", "modular", "--grid", "0"),
        ("verify", "modular", "--grid", "-1"),
        ("verify", "modular", "--grid", "120"),
        ("verify", "DIVISIBILITY_WORDS", "--grid", "1000000000"),
        ("verify", "all", "--grid", "2260"),
        ("modular", "1", "2", "0", "1", "--grid", "-2"),
        ("modular", "--grid=3", "1", "2", "0", "1", "--tau", "2i"),
    ],
)
def test_grid_option_is_gone(capsys, argv):
    """Divisibility is checked at the three generating zeros only, so any
    --grid is an unrecognized argument: one usage line and exit 2."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("appell-kit: error: unrecognized arguments: --grid")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "exact", "--exact-order", "100000000000000000000"),
        ("qseries", "t3", "--order", "100000000000000000000"),
    ],
)
def test_order_past_the_index_range_is_one_line_exit_2(capsys, argv):
    """An order whose series length does not fit a Python index is an
    ``error:`` line and exit 2, not a traceback and exit 1."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: cannot fit 'int' into an index-sized integer\n"


@pytest.mark.parametrize("argv", [("verify", "exact"), ("qseries", "t3")])
def test_out_of_memory_is_one_line_exit_2(capsys, monkeypatch, argv):
    """A series too large to allocate raises MemoryError, which has no
    message: main names it and exits 2."""

    def exhausted(trunc):
        raise MemoryError

    monkeypatch.setattr(qexact, "triangular_gf", exhausted)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: out of memory\n"


def test_modular_at_tau_2i_reads_the_generating_zeros(capsys):
    """At tau = 2i the phases of zeros far down the lattice overflow; those
    of the three generating zeros stay finite, so the command passes."""
    code, out, err = run_cli(capsys, "modular", "1", "2", "0", "1", "--tau", "2i")
    assert code == 0
    assert "Traceback" not in err
    payload = json.loads(out)
    assert [(z["m"], z["n"]) for z in payload["divisibility_per_zero"]] == list(modular.GENERATING_ZEROS)
    assert payload["divisibility_worst"] == max(z["residual"] for z in payload["divisibility_per_zero"])
    assert payload["divisibility_worst"] < 1e-10


def test_modular_evaluates_the_kappa0_bases_once(capsys, monkeypatch):
    """One pass over the three generating zeros evaluates kappa0 at the two
    base zeros only, not twice per zero."""
    calls = []
    kappa0 = modular.kappa0
    monkeypatch.setattr(modular, "kappa0", lambda x, tau: calls.append(tau) or kappa0(x, tau))
    code, out, _ = run_cli(capsys, "modular", "1", "2", "0", "1")
    assert code == 0
    assert len(json.loads(out)["divisibility_per_zero"]) == 3
    assert len(calls) == 2


def _run_capped(*argv, timeout):
    """The CLI in a child process whose address space is capped at 512 MB,
    so a command whose output grew without bound would fail there instead of
    taking the machine's memory."""
    resource = pytest.importorskip("resource")
    cap = 512 * 2**20
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "appell_kit.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )


def test_modular_at_the_smallest_tau_runs_in_bounded_memory():
    """At Im tau = 0.1, the smallest the check admits, no phase overflows to
    cut a report short, so a per-zero list that grew with a lattice radius
    would take the whole cap; the three generating zeros make a small one."""
    proc = _run_capped("modular", "1", "2", "0", "1", "--tau", "0.1i", timeout=5)
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    assert len(json.loads(proc.stdout)["divisibility_per_zero"]) == 3


def test_unwritable_out_path_is_one_line_exit_2(tmp_path, capsys):
    for target in (tmp_path / "missing" / "report.json", tmp_path):
        code, out, err = run_cli(capsys, "verify", "FOR1", "--samples", "3", "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and str(target) in err
        assert len(err.strip().splitlines()) == 1


def test_closed_stdout_pipe_exits_2_without_traceback():
    """A reader that stops early (``| head -1``) ends the command with exit 2
    and an empty stderr; the output is larger than a pipe buffer."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "appell_kit.cli", "qseries", "t3", "--order", "3000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert err == ""


def test_unreachable_sampler_guard_is_domain_error(capsys, monkeypatch):
    monkeypatch.setattr(bundles, "mu_sample_ok", lambda a, b, u: False)
    code, out, err = run_cli(capsys, "verify", "bundles", "--samples", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("domain error: guard accepted only 0/4 points")


def test_verify_json_is_strict_when_no_element_is_valid(capsys, monkeypatch):
    monkeypatch.setattr(modular, "MODULAR_TAUS", (0.05j,))
    code, out, _ = run_cli(capsys, "verify", "modular")
    assert code == 1

    def reject(constant):
        raise ValueError(f"non-strict JSON constant {constant}")

    records = json.loads(out, parse_constant=reject)["records"]
    divisibility = {r["record_id"]: r for r in records if r["record_id"].startswith("DIVISIBILITY_")}
    assert divisibility["DIVISIBILITY_GENERATORS"]["detail"] == "valid=0 skipped=2"
    assert divisibility["DIVISIBILITY_WORDS"]["detail"] == "valid=0 skipped=10"
    for r in divisibility.values():
        assert r["worst"] is None and r["passed"] is False


def test_qseries_triangular_counts(capsys):
    code, out, _ = run_cli(capsys, "qseries", "t3", "--order", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["variable"] == "q"
    assert payload["coefficients"] == [
        [0, 1, 1],
        [1, 3, 1],
        [2, 3, 1],
        [3, 4, 1],
        [4, 6, 1],
        [5, 3, 1],
        [6, 6, 1],
        [7, 9, 1],
    ]


def test_qseries_routes_agree(capsys):
    _, t3_out, _ = run_cli(capsys, "qseries", "t3", "--order", "7")
    _, andrews_out, _ = run_cli(capsys, "qseries", "andrews", "--order", "7")
    _, double_out, _ = run_cli(capsys, "qseries", "double_sum", "--order", "7")
    t3 = json.loads(t3_out)["coefficients"]
    assert json.loads(andrews_out)["coefficients"] == t3
    assert json.loads(double_out)["coefficients"] == t3


def test_qseries_csv(capsys):
    code, out, _ = run_cli(
        capsys, "qseries", "for1_lhs", "--order", "5", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "exponent,numerator,denominator"
    assert lines[1] == "0,8,1"
    assert len(lines) == 13  # header + one row per exponent below trunc 2*5+2


def test_modular_subcommand(capsys):
    code, out, _ = run_cli(capsys, "modular", "1", "2", "0", "1", "--tau", "1.5i")
    assert code == 0
    payload = json.loads(out)
    assert payload["gamma"] == [1, 2, 0, 1]
    assert payload["chi"] == "1j"
    assert payload["zeta_sq"] == "(1+0j)"
    assert payload["divisibility_worst"] < 1e-10
    assert len(payload["divisibility_per_zero"]) == 3
    assert payload["divisibility_per_zero"][0] == {
        "m": 0,
        "n": 0,
        "residual": payload["divisibility_per_zero"][0]["residual"],
    }


def test_modular_rejects_non_member(capsys):
    code, _, err = run_cli(capsys, "modular", "1", "1", "0", "1")
    assert code == 2
    assert "domain error" in err


def test_modular_rejects_low_tau(capsys):
    code, _, err = run_cli(capsys, "modular", "1", "2", "0", "1", "--tau", "0.05i")
    assert code == 2
    assert "domain error" in err


def _assert_tau_refused(capsys, tau, message, gamma=("1", "2", "0", "1")):
    code, out, err = run_cli(capsys, "modular", *gamma, "--tau", tau)
    assert code == 2
    assert out == ""
    assert err.startswith("domain error: ") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("tau", ["inf+1j", "nan+1j", "1+infj", "-inf+1j"])
def test_modular_refuses_a_non_finite_tau(capsys, tau):
    """gamma.tau would be NaN (0 * inf); the refusal names the tau typed."""
    _assert_tau_refused(capsys, tau, f"tau must be finite with positive imaginary part, got {parse_complex(tau)}")


@pytest.mark.parametrize("tau", ["119j", "236j", "240j", "800j"])
def test_modular_refuses_a_tau_whose_nome_square_underflows(capsys, tau):
    im = parse_complex(tau).imag
    _assert_tau_refused(capsys, tau, f"Im tau = {im:.4g} gives a nome whose square underflows to 0")


@pytest.mark.parametrize("tau", ["6j", "10j", "100j", "118j", "3+6j"])
def test_modular_refuses_a_tau_whose_nome_meets_the_pole_guard(capsys, tau):
    """From Im tau of about 5.86, kappa's absolute pole guard takes kappa0's
    parameter -u for the pole q = u**2; the refusal names tau, not a
    parameter a the user never typed."""
    im = parse_complex(tau).imag
    code, out, err = run_cli(capsys, "modular", "1", "2", "0", "1", "--tau", tau)
    assert (code, out) == (2, "")
    assert err.startswith(f"domain error: Im tau = {im:.4g} gives |u| = ")
    assert err.endswith("; decrease Im tau\n")
    assert "a =" not in err and "Traceback" not in err


def test_modular_accepts_im_tau_just_below_the_pole_guard(capsys):
    code, out, _ = run_cli(capsys, "modular", "1", "2", "0", "1", "--tau", "5.8j")
    assert code == 0
    assert json.loads(out)["divisibility_worst"] < 1e-12


@pytest.mark.parametrize(
    "gamma, tau",
    [("1 2 0 1", "-1e300+1j"), ("1 2 0 1", "1e300+1j"), ("1 2 0 1", "9999+1j"), ("1 20000 0 1", "2j")],
)
def test_modular_refuses_a_very_large_re_tau(capsys, gamma, tau):
    """The phases at the theta zeros lose about |Re tau| * eps, so |Re tau|
    and |Re gamma.tau| above MAX_ABS_RE_TAU are refused, naming tau."""
    message = f"|Re| of tau = {parse_complex(tau)} or gamma.tau = "
    _assert_tau_refused(capsys, tau, message, gamma.split())


def test_modular_out_file(tmp_path, capsys):
    path = tmp_path / "modular.json"
    code, out, _ = run_cli(
        capsys, "modular", "0", "-1", "1", "0", "--tau", "2i", "--out", str(path)
    )
    assert code == 0
    assert out == ""
    payload = json.loads(path.read_text())
    assert payload["zeta_sq"] == "(-0-1j)" or payload["zeta_sq"] == "-1j"


def test_missing_subcommand_is_usage_error(capsys):
    assert run_cli(capsys)[0] == 2


# ---------------------------------------------------------------------------
# argv fuzzing: the exit contract holds for every argv
# ---------------------------------------------------------------------------

_COUNTS = st.sampled_from(["0", "1", "2", "3", "-1", "x", "1.5", ""])
_COMPLEX = st.sampled_from(
    ["0.3", "-0.2+0.1i", "1.5j", "0.5i", "-1", "2", "0", "0.9999", "inf", "-inf", "nan", "1e999", "abc",
     "1e-200", "1e-320", "-1e-170+1e-170i"]
)
# --grid is not an option: every draw that uses it must exit 2.
_GRIDS = st.sampled_from(["0", "1", "2", "-1", "2260", "1000000000"])
_FORMATS = st.sampled_from(["json", "csv", "xml"])
# Relative paths: the test runs main inside a temporary directory.
_OUT_PATHS = st.sampled_from(["out.json", "missing/out.json", "."])

#: subcommand -> (strategy for its positionals, {flag: value strategy}), with
#: every size option kept small so one example runs in milliseconds.
_GRAMMAR = {
    "verify": (
        st.tuples(st.sampled_from(SUITES + tuple(cli.RECORD_KINDS) + ("NOPE",))),
        {
            "--samples": st.sampled_from(["1", "2", "3", "0", "-2", "x"]),
            "--seed": st.sampled_from(["0", "1", "7", "-3", "y"]),
            "--tolerance": st.sampled_from(["1e-9", "1e-30", "1", "0", "-1", "inf", "nan"]),
            "--exact-order": st.sampled_from(["1", "8", "40", "0", "z"]),
            "--grid": _GRIDS,
            "--format": _FORMATS,
            "--out": _OUT_PATHS,
        },
    ),
    "eval": (
        st.tuples(st.sampled_from(tuple(EVAL_FUNCTIONS) + ("sin",))),
        {flag: _COMPLEX for flag in ("--a", "--z", "--u", "--v")},
    ),
    "qseries": (
        st.tuples(st.sampled_from(QSERIES_NAMES + ("t4",))),
        {"--order": st.sampled_from(["0", "1", "5", "30", "-1", "x"]), "--format": _FORMATS, "--out": _OUT_PATHS},
    ),
    "modular": (
        st.one_of(
            st.sampled_from([("1", "2", "0", "1"), ("0", "-1", "1", "0"), ("1", "0", "2", "1"), ("1", "1", "0", "1")]),
            st.tuples(_COUNTS, _COUNTS, _COUNTS, _COUNTS),
        ),
        {"--tau": _COMPLEX, "--grid": _GRIDS, "--out": _OUT_PATHS},
    ),
}

# No junk token is an option name or a prefix of one, so junk never turns a
# later token into a size or an output path.
_JUNK = st.sampled_from(
    ["", "-", "--", "--bogus", "-x", "foo", "nan", "-inf", "1e999", "3.5", "-1", "1+2i", "é", "--samples=", "-h"]
)


@st.composite
def _argvs(draw):
    sub = draw(st.sampled_from(sorted(_GRAMMAR) + ["bogus"]))
    positionals, options = _GRAMMAR.get(sub, (st.just(()), {}))
    pieces = [[sub]] + [[token] for token in draw(positionals)]
    if options:
        for flag in draw(st.lists(st.sampled_from(sorted(options)), max_size=4)):
            pieces.append([flag, draw(options[flag])])
    for token in draw(st.lists(_JUNK, max_size=2)):
        pieces.insert(draw(st.integers(0, len(pieces))), [token])
    return [token for piece in pieces for token in piece]


def _emits_json(argv: list[str]) -> bool:
    """Whether a successful run of argv writes a JSON document to stdout."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            args = cli.build_parser().parse_args(cli._join_complex_values(argv))
    except SystemExit:
        return False
    return args.subcommand != "eval" and args.out is None and getattr(args, "format", "json") == "json"


@settings(max_examples=80, deadline=None)
@given(argv=_argvs())
def test_argv_fuzz_keeps_the_exit_contract(tmp_path_factory, argv):
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(tmp_path_factory.mktemp("fuzz"))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    _assert_no_child_left()
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    if "--grid" in argv and "-h" not in argv:  # -h prints help and exits 0 first
        assert code == 2, argv
    if code in (0, 1) and _emits_json(argv):

        def reject(constant):
            raise ValueError(f"non-strict JSON constant {constant}")

        json.loads(out.getvalue(), parse_constant=reject)
