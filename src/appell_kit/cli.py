"""Command-line interface: verify / eval / qseries / modular.

Reports are deterministic for fixed arguments and seed: JSON output is
emitted with sorted keys and no timestamps, so identical invocations are
byte-identical.  Wall-clock timing goes to stderr only.

Exit codes: 0 = success, 1 = a verification record failed, 2 = usage or
domain error (bad arguments, parameters outside the numeric domain).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from typing import Callable, Iterator, NoReturn, Sequence

from appell_kit import bundles, identities, modular, qexact
from appell_kit.numeric import (
    DomainError,
    NonconvergenceError,
    Outcome,
    kappa,
    kappa_bar,
    theta,
    vartheta0,
    vartheta1,
)


def parse_complex(text: str) -> complex:
    """Parse a complex number accepting both 'i' and 'j' notation.  Only a
    trailing imaginary unit is rewritten, so 'inf' and 'nan' keep their
    letters."""
    cleaned = text.strip().replace(" ", "")
    if cleaned[-1:] in ("i", "I"):
        cleaned = cleaned[:-1] + "j"
    try:
        return complex(cleaned)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a complex number: {text!r}") from None


#: Options that take a complex literal, which may start with '-'.
COMPLEX_OPTIONS = ("--a", "--z", "--u", "--v", "--tau")


def _join_complex_values(argv: Sequence[str]) -> list[str]:
    """argparse reads a value such as '-1+2i', '-2j' or '-inf' as an option,
    so a complex option followed by a token that starts with '-' and parses
    as a complex number is rewritten to the '--z=-1+2i' spelling."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] in COMPLEX_OPTIONS and token.startswith("-"):
            try:
                parse_complex(token)
            except argparse.ArgumentTypeError:
                pass
            else:
                out[-1] += "=" + token
                continue
        out.append(token)
    return out


def format_value(value: complex) -> str:
    """15-significant-digit rendering re+imj, sign always explicit on im."""
    re, im = value.real, value.imag
    sign = "+" if (im >= 0 or im != im) else "-"
    return f"{re:.15g}{sign}{abs(im):.15g}j"


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one line, like a domain error, and exits 2."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _emit_json(payload: dict, out_path: str | None) -> None:
    _emit(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False), out_path)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


#: Each verify suite: the kind of its records, their ids, and the name of
#: the cli function that runs it for ``args`` and ``ids``, the wanted subset
#: of them.  The name is looked up when called, so a wrapper installed on
#: ``cli._bundle_records`` sees every call.  The numeric and exact suites
#: build only what ``ids`` needs; bundles and modular run whole.
SUITE_TABLE = {
    "numeric": ("numeric-sampled", identities.registry_ids(), "_numeric_records"),
    "exact": ("exact-coefficients", qexact.RECORD_IDS, "_exact_records"),
    "bundles": ("bundle", bundles.RECORD_IDS, "_bundle_records"),
    "modular": ("modular", modular.RECORD_IDS, "_modular_records"),
}

SUITES = ("all", *SUITE_TABLE)

#: Every record id, in table order, with its kind.
RECORD_KINDS = {record_id: kind for kind, ids, _ in SUITE_TABLE.values() for record_id in ids}


def _numeric_records(args: argparse.Namespace, ids: Sequence[str]) -> list[Outcome]:
    return identities.suite_outcomes(ids, args.samples, args.seed)


def _exact_records(args: argparse.Namespace, ids: Sequence[str]) -> list[Outcome]:
    return qexact.suite_outcomes(args.exact_order, ids)


def _bundle_records(args: argparse.Namespace, ids: Sequence[str]) -> list[Outcome]:
    return bundles.suite_outcomes(args.samples, args.seed)


def _modular_records(args: argparse.Namespace, ids: Sequence[str]) -> list[Outcome]:
    return modular.suite_outcomes(args.samples, args.seed)


#: A report row's fields, in the order of the CSV columns.
RECORD_FIELDS = ("record_id", "kind", "worst", "tolerance", "passed", "detail")


def _record(outcome: Outcome, tolerance: float) -> dict:
    """The report row of ``outcome``, its kind read from SUITE_TABLE; the
    only place where a tolerance decides ``passed``.  A measured record
    passes when its worst residual is below tolerance; a non-finite worst
    (no valid evaluation) is written as null and fails.  An exact record
    carries no worst and no tolerance, and passes when no coefficient
    mismatches."""
    record_id, worst, detail, mismatch = outcome
    if worst is None:
        tolerance, passed = None, mismatch is None
        detail = detail if passed else f"first mismatch at exponent {mismatch}"
    elif math.isfinite(worst):
        passed = worst < tolerance
    else:
        worst, passed = None, False
    return dict(zip(RECORD_FIELDS, (record_id, RECORD_KINDS[record_id], worst, tolerance, passed, detail)))


#: A verify task: a suite and the record ids it reports.
Task = tuple[str, Sequence[str]]


def _verify_tasks(target: str) -> list[Task]:
    """The records ``target`` wants as independent tasks, in serial order:
    one per numeric identity, and each other suite whole."""
    tasks: list[Task] = []
    for suite, (_, ids, _) in SUITE_TABLE.items():
        # A record id also reports its exact companion: FOR1 adds FOR1_EXACT.
        wanted = ids if target in ("all", suite) else [i for i in ids if i in (target, f"{target}_EXACT")]
        if suite == "numeric":
            tasks += [(suite, (identity_id,)) for identity_id in wanted]
        elif wanted:
            tasks.append((suite, wanted))
    return tasks


def _run_task(args: argparse.Namespace, task: Task) -> list[dict]:
    suite, wanted = task
    outcomes = globals()[SUITE_TABLE[suite][2]](args, wanted)
    return [_record(outcome, args.tolerance) for outcome in outcomes if outcome.record_id in wanted]


def _claim_tasks(
    args: argparse.Namespace, tasks: list[Task], claims: int
) -> Iterator[tuple[int, list[dict] | Exception | None]]:
    """Claim task indices from the ``claims`` pipe until it is empty, and
    yield each with its records or the error it raised.  Once a task has
    raised, a task claimed later with a higher index is not run (None): the
    report will raise at or before the failed one."""
    failed = len(tasks)  # the lowest index that raised here
    while claim := os.read(claims, 1):
        index, result = claim[0], None
        if index < failed:
            try:
                result = _run_task(args, tasks[index])
            except Exception as exc:  # raised by _run_tasks if no earlier task failed
                result, failed = exc, index
        yield index, result


#: At most this many processes share the verify tasks.  The bundle suite,
#: the longest task, is about a sixth of the work at --samples 2000, so more
#: processes would gain little, and each worker adds its own memory.
MAX_VERIFY_PROCESSES = 4


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _sigint_switches(forking: bool) -> tuple[Callable[[], object], Callable[[], object]]:
    """``hold`` blocks SIGINT and ``release`` restores the signal mask found
    here, so a Ctrl-C cannot cut forking or reaping a worker short: it waits,
    and raises its ``KeyboardInterrupt`` at ``release``.  A run that forks
    nothing switches nothing and does not import ``signal``."""
    if not forking:
        return (lambda: None), (lambda: None)
    import signal

    mask = signal.pthread_sigmask(signal.SIG_BLOCK, ())
    return (
        lambda: signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT}),
        lambda: signal.pthread_sigmask(signal.SIG_SETMASK, mask),
    )


def _worker(
    args: argparse.Namespace, tasks: list[Task], claims: int, results: int, release: Callable[[], object]
) -> NoReturn:
    """A forked worker's whole life: claim task indices until the pipe is
    empty and write one JSON line ``[index, records]`` per task, with null
    records for a task that raised or was not run.  It ends with
    ``os._exit``, a Ctrl-C included, so it never returns into the caller's
    stack and flushes nothing it inherited."""
    status = 1
    try:
        release()  # forked with SIGINT held back
        with open(results, "w", encoding="utf-8") as pipe:
            for index, result in _claim_tasks(args, tasks, claims):  # the parent reruns a task that raised
                pipe.write(json.dumps([index, None if isinstance(result, Exception) else result]) + "\n")
        status = 0
    finally:
        os._exit(status)


def _run_tasks(args: argparse.Namespace, tasks: list[Task]) -> list[dict]:
    """Every task's records, as running them one after another gives them.

    This process and one forked worker per further CPU, up to
    ``MAX_VERIFY_PROCESSES`` in all, claim task indices from a pipe, the
    bundle suite first because it takes longest.  With one CPU or one task,
    or without ``os.fork``, this process claims them all.  Each worker sends
    its records back as JSON lines on its own pipe; a float survives that
    trip exactly.  The first task in serial order that raised or went
    missing decides the error: a task that raised in a worker runs again
    here to raise it, and a task a process skipped after a failure runs
    here only if no earlier task failed.  SIGINT is held back while workers
    are forked and reaped, so every worker is reaped, a Ctrl-C included."""
    workers = min(_cpu_count(), len(tasks), MAX_VERIFY_PROCESSES) - 1 if hasattr(os, "fork") else 0
    hold, release = _sigint_switches(workers > 0)
    claims, claims_in = os.pipe()
    # Under 256 tasks (25 identities and three suites), so an index is a byte.
    os.write(claims_in, bytes(sorted(range(len(tasks)), key=lambda i: tasks[i][0] != "bundles")))
    os.close(claims_in)
    outcomes: dict[int, list[dict] | Exception | None] = {}
    pipes: dict[int, int] = {}  # worker pid -> read end of its results pipe
    lines: list[bytes] = []  # the workers' JSON lines
    try:
        hold()
        for _ in range(workers):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # at a process limit: this process and the workers so far share the tasks
                os.close(read_end)
                os.close(write_end)
                break
            if pid == 0:
                os.close(read_end)
                for other in pipes.values():
                    os.close(other)
                _worker(args, tasks, claims, write_end, release)
            os.close(write_end)
            pipes[pid] = read_end
        release()  # a Ctrl-C held back while forking raises here
        outcomes.update(_claim_tasks(args, tasks, claims))
    finally:
        hold()
        try:
            os.read(claims, len(tasks))  # an early exit leaves the workers no more tasks
            os.close(claims)
            for read_end in pipes.values():  # every pipe is read and closed before any wait
                try:
                    with open(read_end, "rb") as pipe:
                        lines += pipe.read().split(b"\n")[:-1]  # a cut-off last line is lost
                except OSError:  # that worker's tasks go unreported
                    pass
        finally:
            exits = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pipes]
            release()
    for line in lines:
        index, records = json.loads(line)
        outcomes[index] = records
    records = []
    for index, task in enumerate(tasks):
        if index not in outcomes:
            raise ChildProcessError(
                f"a verify worker ended with exit code {', '.join(str(code) for code in exits if code)} "
                f"before reporting {', '.join(task[1])}"
            )
        outcome = outcomes[index]
        if isinstance(outcome, Exception):
            raise outcome
        records += _run_task(args, task) if outcome is None else outcome
    return records


def _cmd_verify(args: argparse.Namespace) -> int:
    target = args.target
    records = _run_tasks(args, _verify_tasks(target))
    records.sort(key=lambda r: r["record_id"])
    passed = all(r["passed"] for r in records)
    report = {
        "command": "verify",
        "target": target,
        "samples": args.samples,
        "seed": args.seed,
        "tolerance": args.tolerance,
        "exact_order": args.exact_order,
        "passed": passed,
        "records": records,
    }
    if args.format == "json":
        _emit_json(report, args.out)
    else:
        import csv  # only on this path, so a JSON report does not import it
        import io

        # The writer quotes a detail that holds a comma, writes None as an
        # empty field, and a float as its repr.
        text = io.StringIO()
        writer = csv.writer(text, lineterminator="\n")
        writer.writerow(RECORD_FIELDS)
        writer.writerows([r[field] for field in RECORD_FIELDS] for r in records)
        _emit(text.getvalue().removesuffix("\n"), args.out)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# eval / qseries / modular subcommands
# ---------------------------------------------------------------------------

#: Each eval function with the flags it takes, in argument order.
EVAL_FUNCTIONS = {
    "theta": (theta, ("z", "u")),
    "kappa": (kappa, ("a", "z", "u")),
    "kappa_bar": (kappa_bar, ("a", "z", "u")),
    "vartheta0": (vartheta0, ("z", "v")),
    "vartheta1": (vartheta1, ("z", "v")),
}


def _cmd_eval(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    function, needed = EVAL_FUNCTIONS[args.function]
    values = []
    for name in needed:
        value = getattr(args, name)
        if value is None:
            parser.error(f"eval {args.function} requires --{name}")
        values.append(value)
    print(format_value(function(*values)))
    return 0


def _cmd_qseries(args: argparse.Namespace) -> int:
    series, variable = qexact.named_series(args.name, args.order)
    if args.format == "csv":
        _emit("\n".join(qexact.to_csv_rows(series)), args.out)
        return 0
    payload = {
        "command": "qseries",
        "series": args.name,
        "order": args.order,
        "variable": variable,
        "trunc": series.trunc,
        "coefficients": [[k, c, 1] for k, c in enumerate(series.coeffs)],
    }
    _emit_json(payload, args.out)
    return 0


def _cmd_modular(args: argparse.Namespace) -> int:
    gamma = modular.GammaElement(args.a, args.b, args.c, args.d)
    tau = args.tau
    per_zero = [
        {"m": index.m, "n": index.n, "residual": residual}
        for index, residual in modular.zero_residuals(gamma, tau, modular.GENERATING_ZEROS)
    ]
    payload = {
        "command": "modular",
        "gamma": [gamma.a, gamma.b, gamma.c, gamma.d],
        "tau": str(tau),
        "gamma_tau": str(modular.act_tau(gamma, tau)),
        "zeta_sq": str(modular.zeta_sq(gamma)),
        "chi": str(modular.chi(gamma)),
        "k_gamma": str(modular.k_gamma(gamma, tau)),
        "divisibility_worst": max(z["residual"] for z in per_zero),
        "divisibility_per_zero": per_zero,
    }
    _emit_json(payload, args.out)
    return 0


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="appell-kit",
        description="Verification toolkit for theta/kappa identities, bundle "
        "gauge matrices, and modular transformation laws.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_verify = sub.add_parser("verify", help="run residual checks and report pass/fail")
    p_verify.add_argument(
        "target",
        choices=SUITES + tuple(RECORD_KINDS),
        help="a suite name or a record id",
    )
    p_verify.add_argument("--samples", type=positive_int, default=100)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--tolerance", type=positive_float, default=1e-9)
    p_verify.add_argument("--exact-order", type=positive_int, default=80, dest="exact_order")
    p_verify.add_argument("--format", choices=("json", "csv"), default="json")
    p_verify.add_argument("--out", default=None)

    p_eval = sub.add_parser("eval", help="evaluate one special function")
    p_eval.add_argument("function", choices=tuple(EVAL_FUNCTIONS))
    p_eval.add_argument("--a", type=parse_complex, default=None)
    p_eval.add_argument("--z", type=parse_complex, default=None)
    p_eval.add_argument("--u", type=parse_complex, default=None)
    p_eval.add_argument("--v", type=parse_complex, default=None)

    p_qseries = sub.add_parser("qseries", help="emit exact series coefficients")
    p_qseries.add_argument("name", choices=qexact.QSERIES_NAMES)
    p_qseries.add_argument("--order", type=non_negative_int, default=40)
    p_qseries.add_argument("--format", choices=("json", "csv"), default="json")
    p_qseries.add_argument("--out", default=None)

    p_modular = sub.add_parser(
        "modular", help="characters and divisibility residuals for one element"
    )
    p_modular.add_argument("a", type=int)
    p_modular.add_argument("b", type=int)
    p_modular.add_argument("c", type=int)
    p_modular.add_argument("d", type=int)
    p_modular.add_argument("--tau", type=parse_complex, default=1.5j)
    p_modular.add_argument("--out", default=None)

    return parser


def _discard_stdout() -> None:
    """Point stdout at devnull once its reader has gone, so the flush at
    interpreter exit cannot raise BrokenPipeError again (the SIGPIPE note in
    the Python ``signal`` docs)."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # not a real file, so no flush at exit can fail
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


#: The parser main builds on its first call and reuses after that.
_PARSER: argparse.ArgumentParser | None = None


def main(argv: Sequence[str] | None = None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    parser = _PARSER
    try:
        args = parser.parse_args(_join_complex_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.monotonic()
    try:
        if args.subcommand == "verify":
            code = _cmd_verify(args)
        elif args.subcommand == "eval":
            code = _cmd_eval(args, parser)
        elif args.subcommand == "qseries":
            code = _cmd_qseries(args)
        else:
            code = _cmd_modular(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
    except SystemExit as exc:  # parser.error inside a subcommand
        return int(exc.code or 0)
    except BrokenPipeError:
        _discard_stdout()
        return 2
    except OSError as exc:  # --out could not be written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except (NonconvergenceError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # an order too large to allocate; the error has no message
        print("error: out of memory", file=sys.stderr)
        return 2
    print(f"elapsed {time.monotonic() - started:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
