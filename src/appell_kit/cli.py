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
import random
import sys
import time
from typing import Callable, NoReturn, Sequence

from appell_kit import bundles, identities, modular, qexact
from appell_kit.numeric import (
    GUARD_TOL,
    DomainError,
    NonconvergenceError,
    annulus_point,
    guarded_sample,
    kappa,
    kappa_bar,
    near_power_orbit,
    theta,
    vartheta0,
    vartheta1,
)

#: Nome values swept by the bundle suite; one real, one complex.
BUNDLE_NOMES = (0.2 + 0.0j, 0.4 + 0.1j)

#: MU_EXPANSION checks each (a, b) pair on this many of the bundle suite's
#: z-points, a prefix of the same list, so the record's cost grows linearly
#: in --samples.
MU_Z_POINTS = 50

#: tau values swept by the modular suite.
MODULAR_TAUS = (1.2j, 2.0j, 0.5 + 1.5j)

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


#: Each verify suite: the kind of its records, their ids, and how it runs
#: for ``ids``, the wanted subset of them.  The runners look the suite
#: functions up by name when called, so a wrapper installed on
#: ``cli._bundle_records`` sees every call.  The numeric and exact suites
#: build only what ``ids`` needs; bundles and modular run whole.
SUITE_TABLE = {
    "numeric": (
        "numeric-sampled",
        identities.registry_ids(),
        lambda args, ids: _numeric_records(ids, args.samples, args.seed, args.tolerance),
    ),
    "exact": (
        "exact-coefficients",
        ("FOR1_EXACT", "FOR2_EXACT", "TRIANGULAR_DOUBLE_SUM", "TRIANGULAR_ANDREWS", "TRIANGULAR_COUNTS"),
        lambda args, ids: _exact_records(args.exact_order, ids),
    ),
    "bundles": (
        "bundle",
        ("SECTION_THETA", "SECTION_PUSH", "SECTION_KAPPA_THETA", "SECTION_BASIS", "GAUGE_B_CONJ",
         "DET_B_SPREAD", "CONST_CA_CROSS", "GAUGE_C_CONJ", "DET_C_SPREAD", "CONST_C_CROSS",
         "BEZOUT_PAIR", "MU_EXPANSION"),
        lambda args, ids: _bundle_records(args.samples, args.seed, args.tolerance),
    ),
    "modular": (
        "modular",
        ("K_GAMMA_IDENTITY", "ZETA_SQ_COCYCLE", "CHI_MULTIPLICATIVITY", "DIVISIBILITY_GENERATORS",
         "DIVISIBILITY_WORDS"),
        lambda args, ids: _modular_records(args.samples, args.seed, args.tolerance),
    ),
}

SUITES = ("all", *SUITE_TABLE)

#: Every record id, in table order, with its kind.
RECORD_KINDS = {record_id: kind for kind, ids, _ in SUITE_TABLE.values() for record_id in ids}


def _record(
    record_id: str,
    detail: str,
    worst: float | None = None,
    tolerance: float | None = None,
    mismatch: int | None = None,
) -> dict:
    """One report row, its kind read from SUITE_TABLE.  A measured record
    passes when its worst residual is below tolerance; a non-finite worst
    (no valid evaluation) is written as null and fails.  An exact record
    carries no worst and passes when no coefficient mismatches."""
    if worst is None:
        passed = mismatch is None
        detail = detail if passed else f"first mismatch at exponent {mismatch}"
    elif math.isfinite(worst):
        passed = worst < tolerance
    else:
        worst, passed = None, False
    return {
        "record_id": record_id,
        "kind": RECORD_KINDS[record_id],
        "worst": worst,
        "tolerance": tolerance,
        "passed": passed,
        "detail": detail,
    }


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------


def _numeric_records(
    ids: Sequence[str], samples: int, seed: int, tolerance: float
) -> list[dict]:
    return [
        _record(
            identity_id,
            identities.REGISTRY[identity_id].description,
            identities.max_residual_over_samples(identity_id, samples, seed).rel_residual,
            tolerance,
        )
        for identity_id in ids
    ]


def _exact_records(exact_order: int, ids: Sequence[str] = SUITE_TABLE["exact"][1]) -> list[dict]:
    """The exact records among ``ids``: FOR1_EXACT and FOR2_EXACT are each
    built only when wanted, the three triangular records together when any
    of them is."""
    built: dict = {}  # the series FOR1 and FOR2 share, built once per call
    records = [
        _record(f"{relation}_EXACT", f"coefficients through u**{exact_order - 1} agree",
                mismatch=check(exact_order, built))
        for relation, check in (("FOR1", qexact.check_for1_exact), ("FOR2", qexact.check_for2_exact))
        if f"{relation}_EXACT" in ids
    ]
    if not any(record_id.startswith("TRIANGULAR_") for record_id in ids):
        return records
    q_order = exact_order // 2
    cube, _ = _qseries_build("t3", q_order)
    for name, route in (("TRIANGULAR_DOUBLE_SUM", "double_sum"), ("TRIANGULAR_ANDREWS", "andrews")):
        mismatch = cube.agrees_with(_qseries_build(route, q_order)[0])
        detail = f"matches the cubed generating function through q**{q_order}"
        records.append(_record(name, detail, mismatch=mismatch))
    counts = qexact.triangular_counts_bruteforce(q_order)
    mismatch = cube.agrees_with(qexact.USeries(len(counts), counts))
    detail = f"series coefficients equal brute-force triple counts through {q_order}"
    records.append(_record("TRIANGULAR_COUNTS", detail, mismatch=mismatch))
    return records


def _bundle_records(samples: int, seed: int, tolerance: float) -> list[dict]:
    rng = random.Random(seed)
    z_count = max(8, samples // 10)
    worst = dict.fromkeys(SUITE_TABLE["bundles"][1], 0.0)

    def bump(key: str, value: float) -> None:
        worst[key] = max(worst[key], value)

    for u in BUNDLE_NOMES:
        zs = bundles.sample_z_points(u, z_count, seed)
        bump("SECTION_THETA", bundles.check_section(bundles.make_L(u), bundles.theta_section(u), zs))
        bump("SECTION_PUSH", bundles.check_section(bundles.make_push(u), bundles.push_section(u), zs))
        a_values = guarded_sample(
            lambda: annulus_point(rng),
            lambda a: not near_power_orbit(a, u, sign=1, parity=0, tol=GUARD_TOL),
            2,
        )
        for a in a_values:
            bump(
                "SECTION_KAPPA_THETA",
                bundles.check_section(bundles.make_Fa(a, u), bundles.kappa_theta_section(a, u), zs),
            )
            factor = bundles.tensor(bundles.make_Fa(a, u), bundles.make_L(u))
            for section in bundles.basis_sections(a, u):
                bump("SECTION_BASIS", bundles.check_section(factor, section, zs))
            gauge_b = bundles.build_B(a, u)
            bump("GAUGE_B_CONJ", bundles.gauge_residual(gauge_b, zs))
            bump("DET_B_SPREAD", bundles.determinant_spread(gauge_b, zs))
            ca_t = bundles.c_a_theta(a, u)
            bump(
                "CONST_CA_CROSS",
                abs(ca_t - bundles.c_a_kappa(a, u)) / max(1.0, abs(ca_t)),
            )
        gauge_c = bundles.build_C(u)
        bump("GAUGE_C_CONJ", bundles.gauge_residual(gauge_c, zs))
        bump("DET_C_SPREAD", bundles.determinant_spread(gauge_c, zs))
        c_t = bundles.c_constant_theta(u)
        bump(
            "CONST_C_CROSS",
            abs(c_t - bundles.c_constant_kappa(u)) / max(1.0, abs(c_t)),
        )
        ws = bundles.sample_z_points(u, samples, seed + 1, radius_range=(0.3, 3.0))
        bump("BEZOUT_PAIR", max(bundles.bezout_residual(u, w) for w in ws))
        mu_pairs = guarded_sample(
            lambda: (annulus_point(rng), annulus_point(rng)),
            lambda ab: bundles.mu_sample_ok(*ab, u),
            max(4, samples // 20),
        )
        mu_zs = zs[:MU_Z_POINTS]
        thetas = bundles.mu_thetas(u, mu_zs)
        for a, b in mu_pairs:
            bump("MU_EXPANSION", bundles.mu_expansion_residual(a, b, u, mu_zs, thetas).rel_residual)
    return [_record(key, "", value, tolerance) for key, value in sorted(worst.items())]


def _random_word(rng: random.Random, alphabet, max_len: int) -> modular.GammaElement:
    g = modular.GAMMA_IDENTITY
    for _ in range(rng.randint(1, max_len)):
        g = g @ rng.choice(alphabet)
    return g


def _modular_records(samples: int, seed: int, tolerance: float) -> list[dict]:
    rng = random.Random(seed)

    # theta-null cocycle: theta(0, g.tau)**2 / theta(0, tau)**2 = zeta_sq * (c tau + d).
    t2, v_elt = modular.GammaElement(1, 2, 0, 1), modular.GammaElement(1, 0, 2, 1)
    s_elt = modular.GammaElement(0, -1, 1, 0)
    cocycle_worst = 0.0
    for g in (t2, v_elt, s_elt, t2 @ v_elt, v_elt @ v_elt @ t2, s_elt @ t2):
        for tau in (0.3 + 1.1j, 1.7j):
            lhs = modular.theta_additive(0, modular.act_tau(g, tau)) ** 2 / modular.theta_additive(0, tau) ** 2
            rhs = modular.zeta_sq(g) * (g.c * tau + g.d)
            cocycle_worst = max(cocycle_worst, abs(lhs - rhs) / max(1.0, abs(rhs)))

    # chi is multiplicative on words in the parabolic generators.
    parabolic = modular.GAMMA_GENERATORS[:4]
    chi_worst = 0.0
    for _ in range(max(1, samples // 2)):
        g1 = _random_word(rng, parabolic, 4)
        g2 = _random_word(rng, parabolic, 4)
        chi_worst = max(
            chi_worst, abs(modular.chi(g1 @ g2) - modular.chi(g1) * modular.chi(g2))
        )

    # Divisibility of the modular defect by theta, generators then random
    # words; an element the domain guards refuse at some tau is skipped.
    def divisibility(record_id: str, elements) -> dict:
        worst, valid, skipped = 0.0, 0, 0
        for g in elements:
            for tau in MODULAR_TAUS:
                try:
                    worst = max(worst, modular.divisibility_residual(g, tau))
                    valid += 1
                except DomainError:
                    skipped += 1
        return _record(record_id, f"valid={valid} skipped={skipped}", worst if valid else math.inf, tolerance)

    words = [_random_word(rng, modular.GAMMA_GENERATORS, 3) for _ in range(10)]
    return [
        # k_gamma at the identity is exactly 1.
        _record(
            "K_GAMMA_IDENTITY",
            "scalar cocycle equals 1 at the identity element",
            abs(modular.k_gamma(modular.GAMMA_IDENTITY, 1.3j) - 1.0),
            tolerance,
        ),
        _record(
            "ZETA_SQ_COCYCLE",
            "squared theta-null transformation matches zeta_sq * (c tau + d)",
            cocycle_worst,
            tolerance,
        ),
        _record(
            "CHI_MULTIPLICATIVITY",
            "character of a product equals the product of characters",
            chi_worst,
            tolerance,
        ),
        divisibility("DIVISIBILITY_GENERATORS", (t2, v_elt)),
        divisibility("DIVISIBILITY_WORDS", words),
    ]


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
    return [r for r in SUITE_TABLE[suite][2](args, wanted) if r["record_id"] in wanted]


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
    records for a task that raised.  It ends with ``os._exit``, a Ctrl-C
    included, so it never returns into the caller's stack and flushes
    nothing it inherited."""
    status = 1
    try:
        release()  # forked with SIGINT held back
        with open(results, "w", encoding="utf-8") as pipe:
            while claim := os.read(claims, 1):
                try:
                    records = _run_task(args, tasks[claim[0]])
                except Exception:  # the parent runs the task again to raise its error
                    records = None
                pipe.write(json.dumps([claim[0], records]) + "\n")
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
    here to raise it.  SIGINT is held back while workers are forked and
    reaped, so every worker is reaped, a Ctrl-C included."""
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
        while claim := os.read(claims, 1):
            try:
                outcomes[claim[0]] = _run_task(args, tasks[claim[0]])
            except Exception as exc:  # raised below if no earlier task failed
                outcomes[claim[0]] = exc
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
        rows = ["record_id,kind,worst,tolerance,passed,detail"]
        for r in records:
            worst = "" if r["worst"] is None else repr(r["worst"])
            tol = "" if r["tolerance"] is None else repr(r["tolerance"])
            detail = r["detail"].replace(",", ";")
            rows.append(
                f"{r['record_id']},{r['kind']},{worst},{tol},{r['passed']},{detail}"
            )
        _emit("\n".join(rows), args.out)
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


QSERIES_NAMES = ("t3", "double_sum", "andrews", "for1_lhs", "for1_rhs", "for2_lhs", "for2_rhs")


def _qseries_build(name: str, order: int) -> tuple[qexact.USeries, str]:
    if name == "t3":
        return qexact.triangular_gf(order + 1) ** 3, "q"
    if name == "double_sum":
        return qexact.as_q_series(qexact.double_sum_series(2 * order + 2)), "q"
    if name == "andrews":
        return qexact.as_q_series(qexact.andrews_series(2 * order + 2)), "q"
    trunc = 2 * order + 2
    if name.startswith("for1"):
        lhs, rhs = qexact.for1_sides(trunc)
    else:
        lhs, rhs = qexact.for2_sides(trunc)
    return (lhs if name.endswith("lhs") else rhs), "u"


def _cmd_qseries(args: argparse.Namespace) -> int:
    series, variable = _qseries_build(args.name, args.order)
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
    p_qseries.add_argument("name", choices=QSERIES_NAMES)
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
