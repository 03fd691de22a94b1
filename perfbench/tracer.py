"""In-memory span tracer for the traced benchmark run.

Spans wrap appell_kit's public calls where the calling module binds them
(``appell_kit.identities.kappa``, ``appell_kit.bundles.bezout_pair``,
``qexact.USeries.__mul__``), so the package itself is not edited and an
untraced run pays nothing.  Spans are aggregated per (parent, name): a
verify run at --samples 2000 makes close to a million kernel calls, and
one record per call would cost more memory than the program it measures.

A span name is ``<layer>.<what>``; the layer is one of the package's
modules.  A span's self time is its duration minus its child spans.
"""

from __future__ import annotations

import contextlib
import time
from typing import Callable, Iterator

#: Kernel functions wrapped wherever identities, bundles, modular and cli bind them.
KERNEL = (
    "theta",
    "theta2",
    "theta_scale",
    "kappa",
    "kappa_bar",
    "vartheta0",
    "vartheta1",
    "dtheta_dz",
    "qpochhammer",
)

#: Bundle functions the bundle suite calls, grouped by the records they feed.
BUNDLE_GROUPS = {
    "SECTION": ("check_section",),
    "GAUGE": ("build_B", "build_C", "gauge_residual"),
    "DET": ("determinant_spread",),
    "CONST": ("c_a_theta", "c_a_kappa", "c_constant_theta", "c_constant_kappa"),
    "BEZOUT_PAIR": ("bezout_residual",),
    "MU_EXPANSION": ("mu_sample_ok", "mu_expansion_residual"),
}

#: Exact-suite records and the qexact function that builds each one.
QEXACT_GROUPS = {
    "FOR1_EXACT": "check_for1_exact",
    "FOR2_EXACT": "check_for2_exact",
    "TRIANGULAR_DOUBLE_SUM": "double_sum_series",
    "TRIANGULAR_ANDREWS": "andrews_series",
    "TRIANGULAR_COUNTS": "triangular_counts_bruteforce",
}

#: cli suite functions and the layer whose work each one drives.
SUITES = {
    "_numeric_records": "identities",
    "_exact_records": "qexact",
    "_bundle_records": "bundles",
    "_modular_records": "modular",
}

ROOT = "<root>"


class Tracer:
    """Aggregates spans per (parent, name): calls, total, self and a tally
    that a span may add from its result (samples drawn, guard accepts)."""

    def __init__(self) -> None:
        self._stack: list[list] = [[ROOT, 0.0]]
        self.agg: dict[tuple[str, str], list] = {}

    def wrap(self, name: str, fn: Callable, tally: Callable | None = None) -> Callable:
        stack, agg, clock = self._stack, self.agg, time.perf_counter

        def span(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                rec = agg.get((parent[0], name))
                if rec is None:
                    rec = agg[(parent[0], name)] = [0, 0.0, 0.0, 0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
                # The parent's child time includes this bookkeeping, so the
                # parent's self time does not absorb the tracer's cost.
                parent[1] += clock() - t0
            if tally is not None:
                rec[3] += tally(result)
            return result

        return span

    def export(self) -> list[list]:
        return [[p, n, *rec] for (p, n), rec in self.agg.items()]


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Install spans on appell_kit's cross-module bindings; restore on exit."""
    from appell_kit import bundles, cli, identities, modular, qexact

    saved: list[tuple[object, str, object]] = []

    def patch(owner: object, attr: str, name: str, tally: Callable | None = None) -> None:
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, tally))

    for module in (identities, bundles, modular, cli):
        for fn in KERNEL:
            if hasattr(module, fn):
                patch(module, fn, f"numeric.{fn}")
    patch(identities, "near_power_orbit", "identities.guard")
    patch(identities, "sample_points", "identities.sample_points", len)
    patch(identities, "identity_residual", "identities.pairs")
    patch(identities, "kappa0", "modular.kappa0")
    original_max = identities.max_residual_over_samples
    saved.append((identities, "max_residual_over_samples", original_max))
    identities.max_residual_over_samples = lambda identity_id, *a, **k: tracer.wrap(
        f"identities.{identity_id}", original_max
    )(identity_id, *a, **k)
    for group in BUNDLE_GROUPS.values():
        for fn in group:
            patch(bundles, fn, f"bundles.{fn}", bool if fn == "mu_sample_ok" else None)
    patch(bundles, "bezout_pair", "bundles.bezout_pair")
    patch(bundles, "sample_z_points", "bundles.sample_z_points", len)
    for fn in (*QEXACT_GROUPS.values(), "triangular_gf", "as_q_series"):
        patch(qexact, fn, f"qexact.{fn}")
    patch(qexact.USeries, "__mul__", "qexact.mul")
    patch(modular, "divisibility_residual", "modular.divisibility_residual")
    for suite, layer in SUITES.items():
        patch(cli, suite, f"{layer}.suite")
    try:
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(rows: list[list], identity_ids: tuple[str, ...]) -> dict[str, float]:
    """Per-layer metrics of one traced ``cli.main`` call from its exported
    span rows.  The kernel-only metrics come from the kernel workload."""
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    tally: dict[str, int] = {}
    top_total: dict[str, float] = {}
    layer_self: dict[str, float] = {}
    mu_ok_calls = mu_ok_accepted = 0
    for parent, name, n, tot, own, tal in rows:
        calls[name] = calls.get(name, 0) + n
        total[name] = total.get(name, 0.0) + tot
        self_s[name] = self_s.get(name, 0.0) + own
        tally[name] = tally.get(name, 0) + tal
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + own
        if parent.endswith(".suite"):
            top_total[name] = top_total.get(name, 0.0) + tot
        if name == "bundles.mu_sample_ok" and parent == "bundles.suite":
            mu_ok_calls += n
            mu_ok_accepted += tal
    main_s = total.get("cli.main", 0.0)
    numeric_calls = sum(n for name, n in calls.items() if name.startswith("numeric."))
    samples = tally.get("identities.sample_points", 0)
    metrics = {
        "numeric.calls": numeric_calls,
        "numeric.self_s": layer_self.get("numeric", 0.0),
        "numeric.share": layer_self.get("numeric", 0.0) / main_s if main_s > 0 else 0.0,
        "identities.sample_points.us_per_sample": (
            1e6 * total.get("identities.sample_points", 0.0) / samples if samples else 0.0
        ),
        "identities.guard.calls_per_sample": (
            calls.get("identities.guard", 0) / samples if samples else 0.0
        ),
        "identities.guard.self_s": self_s.get("identities.guard", 0.0),
        "identities.pairs.self_s": self_s.get("identities.pairs", 0.0),
        "bundles.bezout_pair.calls": calls.get("bundles.bezout_pair", 0),
        "bundles.mu_expansion.calls": calls.get("bundles.mu_expansion_residual", 0),
        "bundles.z_points": tally.get("bundles.sample_z_points", 0),
        "bundles.mu_sample_ok.accept_ratio": (
            mu_ok_accepted / mu_ok_calls if mu_ok_calls else 0.0
        ),
        "bundles.self_s": layer_self.get("bundles", 0.0),
        "qexact.mul.calls": calls.get("qexact.mul", 0),
        "qexact.mul.s": total.get("qexact.mul", 0.0),
        "qexact.self_s": layer_self.get("qexact", 0.0),
        "modular.divisibility_residual.calls": calls.get("modular.divisibility_residual", 0),
        "modular.self_s": layer_self.get("modular", 0.0),
        "cli.self_s": self_s.get("cli.main", 0.0),
    }
    for group, fns in BUNDLE_GROUPS.items():
        metrics[f"bundles.{group}.s"] = sum(top_total.get(f"bundles.{fn}", 0.0) for fn in fns)
    for record, fn in QEXACT_GROUPS.items():
        metrics[f"qexact.{record}.s"] = top_total.get(f"qexact.{fn}", 0.0)
    for ident in identity_ids:
        metrics[f"identities.{ident}.ms"] = 1e3 * total.get(f"identities.{ident}", 0.0)
    return metrics
