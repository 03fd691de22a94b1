#!/usr/bin/env python3
"""appell-kit benchmark: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload report --seed 0 --seconds 20 --trace 0

Workloads (see README.md beside this file for why each exists):

  report   cold ``python -m appell_kit.cli verify all`` subprocesses, one at a time
  sampled  in-process ``verify all --samples 2000``
  exact    in-process ``verify exact --exact-order 800``
  kernel   direct theta / kappa / vartheta1 / qpochhammer calls on seeded points

Every operation goes through a correctness gate; a miss counts as failed and
never stops the run.  Human-readable lines come first; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import bisect
import cmath
import contextlib
import io
import json
import math
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"

#: The 47 record ids of ``verify all`` at the seed commit.
EXPECTED_ALL = (
    "ADDF", "BEZOUT_PAIR", "CHI_MULTIPLICATIVITY", "CONST_CA_CROSS", "CONST_C_CROSS",
    "DEF", "DEF2", "DET_B_SPREAD", "DET_C_SPREAD", "DIVISIBILITY_GENERATORS",
    "DIVISIBILITY_WORDS", "FOR1", "FOR1_EXACT", "FOR2", "FOR2_EXACT", "GAUGE_B_CONJ",
    "GAUGE_C_CONJ", "HADD", "HADD2", "HADD3", "HALFSER_M", "HALFSER_P", "ID4", "ID55",
    "ID5PROD", "ID5SUM", "ID6", "INV", "JAC", "K_GAMMA_IDENTITY", "MU_EXPANSION",
    "QUASI", "SECTION_BASIS", "SECTION_KAPPA_THETA", "SECTION_PUSH", "SECTION_THETA",
    "SP1", "SP2", "SP3", "SP4", "SP5", "SQRT", "SYM", "TRIANGULAR_ANDREWS",
    "TRIANGULAR_COUNTS", "TRIANGULAR_DOUBLE_SUM", "ZETA_SQ_COCYCLE",
)
EXPECTED_EXACT = (
    "FOR1_EXACT", "FOR2_EXACT", "TRIANGULAR_ANDREWS", "TRIANGULAR_COUNTS",
    "TRIANGULAR_DOUBLE_SUM",
)

#: Every untraced timed loop runs at least this many operations, whatever
#: --seconds says.  A traced run splits --seconds between an untraced and a
#: traced loop of at least one operation each.
MIN_OPS = 3
#: Set-up is repeated this often; setup_s is its median plus the one-off import.
SETUP_REPEATS = 3
#: Interpreter-start and import probes per traced run.
START_PROBES = 5

#: Size of one reference probe (about 2 ms where the baseline was measured).
PROBE_STEPS = 4000
PROBE_FRACTIONS = 100
#: Probes run back to back before and after every operation.
EDGE_PROBES = 5
#: Interval of the probes run inside an in-process operation.
TICK_S = 0.25
#: Median probe time on the machine baseline.json was measured on; setup_s
#: is the raw set-up time scaled to that machine's speed.
PROBE_REF_S = 0.0022

SAMPLED_SAMPLES = 2000
EXACT_ORDER = 800

KERNEL_POINTS = 20000
#: Points of the kernel set checked against the 50-digit oracle.
ORACLE_POINTS = 48
#: Largest scaled forward error the kernel gate accepts (the CLI's default tolerance).
FWD_TOL = 1e-9
#: Upper |u| edge of each kernel band; the last band is closed at 0.95.
BANDS = (("u50", 0.5), ("u75", 0.75), ("u95", 0.95))
KERNEL_FNS = ("theta", "kappa", "vartheta1", "qpochhammer")

clock = time.perf_counter


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def child_env() -> dict[str, str]:
    """Environment for every child interpreter: this checkout's package and
    bytecode caching on, as for an installed package."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(args: list[str]) -> tuple[float, int, str, str]:
    """Run one child interpreter to completion; (wall s, exit code, stdout, stderr)."""
    t0 = clock()
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    return clock() - t0, proc.returncode, proc.stdout, proc.stderr


def probe() -> float:
    """Wall time of a fixed reference computation that touches nothing of
    appell_kit: complex arithmetic, dict updates and Fraction arithmetic.
    The program under test cannot change it, so its time tracks only the
    machine's speed."""
    t0 = clock()
    z, acc, seen = 0.3 + 0.4j, 0j, {}
    for i in range(PROBE_STEPS):
        acc += z ** (i % 7) / (1.0 + i)
        seen[i & 255] = acc
    f = Fraction(1, 3)
    for i in range(PROBE_FRACTIONS):
        f = f * Fraction(i + 1, i + 2) + 1
    return clock() - t0


def measure(
    op: Callable, check: Callable, seconds: float, min_ops: int, ticks: bool
) -> tuple[list[float], list[float]]:
    """Closed loop with one client: time ``op``, then ``check`` its result
    outside the timed region, until ``seconds`` have passed and at least
    ``min_ops`` operations ran.  Returns (operation times, ratios).

    An operation's ratio is its time over the mean time of the reference
    probes that sample the machine's speed around it: EDGE_PROBES before
    and after, and with ``ticks`` one every TICK_S inside it, run from a
    SIGALRM handler in this thread and subtracted from the operation's
    time.  The machines this runs on change speed by 20-30% for seconds to
    minutes; that moves the operation and the probes alike, so the ratio
    holds where the raw time does not.  ``ticks`` is off for a cold report,
    whose work runs in a child process."""
    times: list[float] = []
    ratios: list[float] = []
    inside: list[float] = []
    previous = signal.signal(signal.SIGALRM, lambda *_: inside.append(probe()))
    try:
        start = clock()
        before = [probe() for _ in range(EDGE_PROBES)]
        while len(times) < min_ops or clock() - start < seconds:
            inside.clear()
            if ticks:
                signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
            t0 = clock()
            result = op()
            elapsed = clock() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            times.append(elapsed - sum(inside))
            after = [probe() for _ in range(EDGE_PROBES)]
            samples = before + inside + after
            ratios.append(times[-1] * len(samples) / sum(samples))
            before = after
            check(result)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return times, ratios


def repeated_setup(build: Callable, import_s: float):
    """Run ``build`` SETUP_REPEATS times.  Returns the last build's state,
    the raw set-up time (the median build plus ``import_s``, the one-off
    import of what the workload imports into this process) and that time
    scaled to the reference speed by the probes run after the import and
    after every build, for the same reason as the ratios of ``measure``."""
    probes = [probe() for _ in range(EDGE_PROBES)]
    times = []
    state = None
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        state = build()
        times.append(clock() - t0)
        probes += [probe() for _ in range(EDGE_PROBES)]
    raw = import_s + statistics.median(times)
    return state, raw, raw * PROBE_REF_S / statistics.median(probes)


def start_probes() -> dict[str, float]:
    """cli.interp_s (bare interpreter start) and cli.import_s (importing
    appell_kit.cli on top of it), medians of START_PROBES each."""
    bare = statistics.median(run_child(["-c", "pass"])[0] for _ in range(START_PROBES))
    imp = statistics.median(
        run_child(["-c", "import appell_kit.cli"])[0] for _ in range(START_PROBES)
    )
    return {"cli.interp_s": bare, "cli.import_s": imp - bare}


def trace_overhead(times: list[float], ratios: list[float], traced_ratios: list[float]) -> dict:
    """Traced over untraced median probe ratio, minus one, and that share of
    the untraced median operation time."""
    frac = statistics.median(traced_ratios) / statistics.median(ratios) - 1.0
    return {"trace.overhead_s": frac * statistics.median(times), "trace.overhead_frac": frac}


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with at least ten
    values beyond it, or None with fewer than eleven values."""
    ordered = sorted(values)
    k = len(ordered) - 11
    if k < 0:
        return None
    return 100.0 * k / (len(ordered) - 1), ordered[k]


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _reject_constant(name: str):
    raise ValueError(f"non-strict JSON constant {name}")


class Gate:
    """Correctness gate over verify reports.  Each report must exit 0, be
    strict JSON, hold exactly the expected record ids, all passed, and be
    byte-identical to the first report of the run.

    Every report of a run verifies the same records for the same seed, so
    an operation is one expected record, counted once however many reports
    the time allows: it fails if it fails in any report, and a report that
    misses as a whole fails every record.  ``attempted`` and ``failed`` are
    then fixed by the seed and the program, not by the machine's speed."""

    def __init__(self, expected: tuple[str, ...]) -> None:
        self.expected = expected
        self.reference: str | None = None
        self.failed_ids: set[str] = set()
        self.misses: list[str] = []
        self.residual_max = 0.0

    @property
    def attempted(self) -> int:
        return len(self.expected)

    @property
    def failed(self) -> int:
        return len(self.failed_ids)

    def __call__(self, result: tuple[int, str]) -> None:
        code, stdout = result
        failed, reason = self._check(code, stdout)
        self.failed_ids.update(failed)
        if reason:
            self.misses.append(reason)

    def _check(self, code: int, stdout: str) -> tuple[set[str], str | None]:
        every = set(self.expected)
        if self.reference is None:
            self.reference = stdout
        elif stdout != self.reference:
            return every, "report differs from the first report of the run"
        try:
            doc = json.loads(stdout, parse_constant=_reject_constant)
            records = doc["records"]
            if sorted(r["record_id"] for r in records) != sorted(self.expected):
                return every, "record ids differ from the expected set"
            failed = {r["record_id"] for r in records if r["passed"] is not True}
            residual = max(
                [0.0, *(float(r["worst"]) for r in records if r["kind"] == "numeric-sampled")]
            )
        except (ValueError, KeyError, TypeError) as exc:
            return every, f"malformed report (exit {code}): {exc}"
        if code != 0 and not failed:
            return every, f"exit code {code} with every record passed"
        self.residual_max = max(self.residual_max, residual)
        return failed, f"{len(failed)} records failed" if failed else None


def cold_report(seed: int, traced: bool) -> tuple[Callable[[], tuple[int, str]], list]:
    """An operation that runs one cold ``verify all`` subprocess and returns
    (exit code, stdout), and the list that collects its span rows when
    ``traced``."""
    verify = ["verify", "all", "--seed", str(seed)]
    args = [str(HERE / "traced_cli.py"), *verify] if traced else ["-m", "appell_kit.cli", *verify]
    spans: list[list] = []

    def op() -> tuple[int, str]:
        _, code, out, err = run_child(args)
        if traced:
            try:
                spans.append(json.loads(err.strip().splitlines()[-1]))
            except (ValueError, IndexError):  # a crashed child; the gate counts it
                pass
        return code, out

    return op, spans


def in_process(argv: list[str], traced: bool) -> tuple[Callable[[], tuple[int, str]], list]:
    """An operation that runs ``cli.main(argv)`` in this process and returns
    (exit code, stdout), and the list that collects its span rows: when
    ``traced``, each call runs under a fresh tracer."""
    from appell_kit import cli
    from tracer import Tracer, instrument

    spans: list[list] = []

    def op() -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if traced:
                    tracer = Tracer()
                    with instrument(tracer):
                        code = tracer.wrap("cli.main", cli.main)(argv)
                    spans.append(tracer.export())
                else:
                    code = cli.main(argv)
        except Exception:  # a crash is a failed report, not a failed benchmark
            traceback.print_exc()
            return -1, ""
        return code, out.getvalue()

    return op, spans


def median_metrics(per_op: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(m[key] for m in per_op) for key in per_op[0]}


def kernel_only_zeros() -> dict[str, float]:
    """Kernel-workload metrics, which a verify workload does not reach."""
    zeros = {}
    for fn in KERNEL_FNS:
        for band, _ in BANDS:
            zeros[f"numeric.{fn}.us_per_call.{band}"] = 0.0
        zeros[f"numeric.{fn}.fail_frac"] = 0.0
        zeros[f"numeric.{fn}.fwd_err_max"] = 0.0
    return zeros


# ---------------------------------------------------------------------------
# verify workloads: report, sampled, exact
# ---------------------------------------------------------------------------


def verify_workload(name: str, seed: int, seconds: float, trace: bool, import_s: float) -> dict:
    from appell_kit import identities
    from tracer import layer_metrics

    expected = EXPECTED_EXACT if name == "exact" else EXPECTED_ALL
    if name == "report":
        make_op = lambda traced: cold_report(seed, traced)  # noqa: E731
        warm, _ = make_op(False)
    else:
        suite, size = ("exact", "--exact-order") if name == "exact" else ("all", "--samples")
        amount = EXACT_ORDER if name == "exact" else SAMPLED_SAMPLES
        argv = ["verify", suite, size, str(amount), "--seed", str(seed)]
        make_op = lambda traced: in_process(argv, traced)  # noqa: E731
        # Warm-up at the CLI defaults: every code path, a fraction of the work.
        warm, _ = in_process(["verify", suite, "--seed", str(seed)], False)
    gate = Gate(expected)
    warm_gate = Gate(expected)
    _, raw_setup_s, setup_s = repeated_setup(lambda: warm_gate(warm()), import_s)
    if warm_gate.misses:
        gate.misses.append(f"warm-up: {warm_gate.misses[0]}")

    budget, min_ops = (seconds / 2, 1) if trace else (seconds, MIN_OPS)
    ticks = name != "report"
    times, ratios = measure(make_op(False)[0], gate, budget, min_ops, ticks)
    result = {
        "times": times,
        "ratios": ratios,
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "gate": gate,
        "rss": peak_rss_mb(children=name == "report"),
    }
    if trace:
        traced_op, spans = make_op(True)
        _, traced_ratios = measure(traced_op, gate, budget, min_ops, ticks)
        ids = identities.registry_ids()
        per_op = [layer_metrics(rows, ids) for rows in spans]
        layers = median_metrics(per_op or [layer_metrics([], ids)])
        layers.update(kernel_only_zeros())
        layers.update(start_probes())
        layers.update(trace_overhead(times, ratios, traced_ratios))
        layers["identities.residual_max"] = gate.residual_max
        result["layers"] = layers
    return result


def row(name: str, value: float, unit: str, note: str = "") -> str:
    return f"{name:<15} {value:<14.6g} {unit:<6} {note}".rstrip()


def rel_row(res: dict) -> tuple[float, str]:
    """Median probe ratio of the untraced operations and its printed line."""
    rel = statistics.median(res["ratios"])
    probe_ms = 1e3 * statistics.median(t / r for t, r in zip(res["times"], res["ratios"]))
    return rel, row("wall_rel", rel, "ratio", f"operation over probe, probe {probe_ms:.2f} ms")


def verify_summary(name: str, res: dict) -> tuple[float, float, list[str]]:
    """(wall_rel, fail_frac, human-readable lines) of a verify workload."""
    gate: Gate = res["gate"]
    times = res["times"]
    wall = statistics.median(times)
    label = "report_s" if name == "report" else "verify_s"
    fail_frac = gate.failed / gate.attempted
    rel, rel_line = rel_row(res)
    lines = [rel_line, row(label, wall, "s", f"median of {len(times)}")]
    t = tail(times)
    if t is not None:
        lines.append(row(f"{label}_tail", t[1], "s", f"p{t[0]:.0f} of {len(times)}"))
    lines += [
        row("fail_frac", fail_frac, "ratio", f"{gate.failed} of {gate.attempted} records"),
    ]
    if name != "exact":
        lines.append(row("residual_max", gate.residual_max, "rel", "worst numeric record"))
    lines.append(row("peak_rss_mb", res["rss"], "MB"))
    return rel, fail_frac, lines


# ---------------------------------------------------------------------------
# kernel workload
# ---------------------------------------------------------------------------


def kernel_points(seed: int) -> list[tuple[complex, complex, complex]]:
    """(u, z, a) with |u| uniform in [0.05, 0.95], |z| log-uniform in
    [1e-3, 1e3], |a| log-uniform in [0.5, 2], arguments uniform."""
    rng = random.Random(seed)
    two_pi = 2.0 * math.pi
    return [
        (
            cmath.rect(rng.uniform(0.05, 0.95), rng.uniform(0.0, two_pi)),
            cmath.rect(10.0 ** rng.uniform(-3.0, 3.0), rng.uniform(0.0, two_pi)),
            cmath.rect(2.0 ** rng.uniform(-1.0, 1.0), rng.uniform(0.0, two_pi)),
        )
        for _ in range(KERNEL_POINTS)
    ]


def kernel_calls(points) -> dict[str, list[tuple]]:
    """Argument tuples per function: theta(z, u), kappa(a, z, u),
    vartheta1(z, u) and qpochhammer(a, u*u)."""
    return {
        "theta": [(z, u) for u, z, a in points],
        "kappa": [(a, z, u) for u, z, a in points],
        "vartheta1": [(z, u) for u, z, a in points],
        "qpochhammer": [(a, u * u) for u, z, a in points],
    }


def kernel_pass(fns, calls) -> dict[str, list]:
    """One evaluation of every call; a refused call yields None."""
    from appell_kit.numeric import DomainError, NonconvergenceError

    out = {}
    for name in KERNEL_FNS:
        fn, results = fns[name], []
        for args in calls[name]:
            try:
                results.append(fn(*args))
            except (NonconvergenceError, DomainError):
                results.append(None)
        out[name] = results
    return out


def traced_kernel_pass(fns, calls, bands) -> tuple[dict[str, list], dict]:
    """kernel_pass with every call timed into its |u| band."""
    from appell_kit.numeric import DomainError, NonconvergenceError

    out, busy = {}, {}
    for name in KERNEL_FNS:
        fn, results = fns[name], []
        seconds = [0.0] * len(BANDS)
        for args, band in zip(calls[name], bands):
            t0 = clock()
            try:
                value = fn(*args)
            except (NonconvergenceError, DomainError):
                value = None
            seconds[band] += clock() - t0
            results.append(value)
        out[name] = results
        busy[name] = seconds
    return out, busy


def kernel_oracle(seed: int, points, calls, first_pass) -> tuple[dict[str, float], set]:
    """Worst scaled forward error per function over a seeded subset of the
    points, against 50-digit references; refused calls are left out.
    Also returns the (function, index) of every checked value beyond FWD_TOL."""
    import oracle

    subset = random.Random(seed + 1).sample(range(len(points)), ORACLE_POINTS)
    worst = dict.fromkeys(KERNEL_FNS, 0.0)
    bad = set()
    for name in KERNEL_FNS:
        ref_fn = getattr(oracle, name)
        for i in subset:
            value = first_pass[name][i]
            if value is None:
                continue
            ref, scale = ref_fn(*calls[name][i])
            err = abs(value - ref) / scale
            worst[name] = max(worst[name], err)
            if err > FWD_TOL:
                bad.add((name, i))
    return worst, bad


def kernel_workload(seed: int, seconds: float, trace: bool, import_s: float) -> dict:
    from appell_kit import identities, numeric
    from tracer import layer_metrics

    fns = {name: getattr(numeric, name) for name in KERNEL_FNS}

    def build():
        points = kernel_points(seed)
        calls = kernel_calls(points)
        first = kernel_pass(fns, calls)
        worst, bad = kernel_oracle(seed, points, calls, first)
        return points, calls, first, worst, bad

    (points, calls, first, worst, bad), raw_setup_s, setup_s = repeated_setup(build, import_s)
    misses = [f"{len(bad)} values beyond forward-error tolerance {FWD_TOL}"] if bad else []
    refused = {name: sum(v is None for v in first[name]) for name in KERNEL_FNS}
    # An operation is one call of the seeded set, counted once however many
    # passes the time allows: it fails if the first pass refused it, if the
    # oracle rejects its value, or if a later pass returns anything else.
    # ``attempted`` and ``failed`` are then fixed by the seed and the
    # program, not by the machine's speed.
    failed = {(name, i) for name in KERNEL_FNS for i, v in enumerate(first[name]) if v is None}
    failed |= bad
    state = {"attempted": len(KERNEL_FNS) * len(points), "failed_calls": failed}

    def check(result) -> None:
        if result == first:
            return
        misses.append("kernel values differ from the first pass")
        for name in KERNEL_FNS:
            failed.update(
                (name, i) for i, (v, w) in enumerate(zip(result[name], first[name])) if v != w
            )

    budget, min_ops = (seconds / 2, 1) if trace else (seconds, MIN_OPS)
    times, ratios = measure(lambda: kernel_pass(fns, calls), check, budget, min_ops, True)
    res = {
        "times": times,
        "ratios": ratios,
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "state": state,
        "misses": misses,
        "refused": refused,
        "worst": worst,
        "rss": peak_rss_mb(children=False),
    }
    if trace:
        edges = [hi for _, hi in BANDS[:-1]]
        bands = [bisect.bisect_right(edges, abs(u)) for u, _, _ in points]
        counts = [bands.count(i) for i in range(len(BANDS))]
        busy_runs: list[dict] = []

        def traced_op():
            out, busy = traced_kernel_pass(fns, calls, bands)
            busy_runs.append(busy)
            return out

        traced_times, traced_ratios = measure(traced_op, check, budget, min_ops, True)
        layers = layer_metrics([], identities.registry_ids())
        per_pass = []
        for busy, wall in zip(busy_runs, traced_times):
            m = {}
            for name in KERNEL_FNS:
                for i, (band, _) in enumerate(BANDS):
                    m[f"numeric.{name}.us_per_call.{band}"] = (
                        1e6 * busy[name][i] / counts[i] if counts[i] else 0.0
                    )
            self_s = sum(sum(b) for b in busy.values())
            m["numeric.self_s"] = self_s
            m["numeric.share"] = self_s / wall
            per_pass.append(m)
        layers.update(median_metrics(per_pass))
        for name in KERNEL_FNS:
            layers[f"numeric.{name}.fail_frac"] = refused[name] / len(points)
            layers[f"numeric.{name}.fwd_err_max"] = worst[name]
        layers["numeric.calls"] = len(KERNEL_FNS) * len(points)
        layers["identities.residual_max"] = 0.0
        layers.update(start_probes())
        layers.update(trace_overhead(times, ratios, traced_ratios))
        res["layers"] = layers
    return res


def kernel_summary(res: dict) -> tuple[float, float, list[str]]:
    """(wall_rel, fail_frac, human-readable lines) of the kernel workload."""
    times, state = res["times"], res["state"]
    wall = statistics.median(times)
    per_pass = len(KERNEL_FNS) * KERNEL_POINTS
    failed = len(state["failed_calls"])
    fail_frac = failed / state["attempted"]
    rel, rel_line = rel_row(res)
    lines = [
        rel_line,
        row("evals_per_s", per_pass * len(times) / sum(times), "1/s", f"{len(times)} passes"),
        row("pass_s", wall, "s", f"median pass of {per_pass} calls"),
        row("fail_frac", fail_frac, "ratio", f"{failed} of {state['attempted']} calls"),
        row("fwd_err_max", max(res["worst"].values()), "rel", f"{ORACLE_POINTS} points per function"),
    ]
    for name in KERNEL_FNS:
        lines.append(
            row(f"  {name}", res["worst"][name], "rel",
                f"refused {res['refused'][name]} of {KERNEL_POINTS}")
        )
    lines.append(row("peak_rss_mb", res["rss"], "MB"))
    return rel, fail_frac, lines


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    workloads = ("report", "sampled", "exact", "kernel")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "appell_kit" / "cli.py").is_file() or not spec_path.is_file():
        print(
            "run from the root of an appell-kit checkout (needs src/appell_kit and BENCHMARK.json)",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    spec = json.loads(spec_path.read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    # The in-process workloads import the package once; the report workload
    # pays its imports inside every cold report instead.
    t0 = clock()
    if args.workload == "kernel":
        import oracle  # noqa: F401  (imports mpmath)

        import appell_kit.numeric  # noqa: F401
    elif args.workload != "report":
        import appell_kit.cli  # noqa: F401
    import_s = clock() - t0

    if args.workload == "kernel":
        res = kernel_workload(args.seed, args.seconds, bool(args.trace), import_s)
        rel, fail_frac, lines = kernel_summary(res)
        attempted, failed = res["state"]["attempted"], len(res["state"]["failed_calls"])
        misses = res["misses"]
    else:
        res = verify_workload(args.workload, args.seed, args.seconds, bool(args.trace), import_s)
        rel, fail_frac, lines = verify_summary(args.workload, res)
        gate = res["gate"]
        attempted, failed, misses = gate.attempted, gate.failed, gate.misses

    print(f"workload {args.workload}  seed {args.seed}")
    setup_note = f"at reference speed; raw {res['raw_setup_s']:.4f} s = import {import_s:.4f} s + median of 3"
    for line in [row("setup_s", res["setup_s"], "s", setup_note), *lines]:
        print("  " + line)
    for miss in misses[:10]:
        print(f"  gate miss: {miss}")
    if args.trace:
        values = res["layers"]
        print("  " + row("trace.overhead_s", values["trace.overhead_s"], "s",
                         f"{100 * values['trace.overhead_frac']:.1f}% of the untraced median"))
    else:
        values = {
            "wall_rel": rel,
            "setup_s": res["setup_s"],
            "ok_frac": 1.0 - fail_frac,
            "peak_rss_mb": res["rss"],
        }
    names = {m["name"] for m in declared}
    if set(values) != names:
        print(
            f"benchmark bug: metrics {sorted(set(values) ^ names)} differ from BENCHMARK.json",
            file=sys.stderr,
        )
        return 3
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(
        json.dumps(
            {
                "correct": not misses,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
