#!/usr/bin/env python3
"""Survey identity residuals as the nome approaches the convergence boundary.

For each registry identity and each |u| window, draw guarded samples
restricted to that window and record the worst relative residual.  The
output is CSV (identity, u_lo, u_hi, samples, worst_residual), suitable for
plotting residual growth against |q| = |u|**2.

The interesting regime is |u| -> 0.9: truncation at the fixed stopping
rule starts to dominate and the survey shows which identities lose digits
first (the ones mixing u**(1/2) arguments and quotients of near-cancelling
theta values), while everything stays comfortably below 1e-9 inside the
default sampling window |u| <= 0.75.

A window that the kernel or the sampler refuses (a DomainError, which
includes NonReachableGuardError, or a NonconvergenceError) becomes a row
whose worst_residual is ``refused``; the reason goes to stderr and the
survey carries on.

Usage:
    python scripts/residual_survey.py [--samples 40] [--seed 0]
        [--windows 0.05:0.75:7] [--ids DEF,INV,...] [--out survey.csv]
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from appell_kit import identities
from appell_kit.numeric import DomainError, NonconvergenceError


def parse_windows(spec: str) -> tuple[tuple[float, float], ...]:
    """'lo:hi:n' -> n equal-width windows covering [lo, hi]."""
    lo_s, hi_s, n_s = spec.split(":")
    lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    if not (0.0 < lo < hi < 1.0) or n < 1:
        raise ValueError(f"bad window spec {spec!r}: need 0 < lo < hi < 1, n >= 1")
    step = (hi - lo) / n
    return tuple((lo + k * step, lo + (k + 1) * step) for k in range(n))


def survey_rows(ids, windows, samples: int, seed: int):
    """Yield (identity_id, u_lo, u_hi, samples, worst_residual, refusal)
    tuples; a refused window has worst_residual None and its exception."""
    for identity_id in ids:
        ident = identities.get_identity(identity_id)
        for lo, hi in windows:
            domain = dataclasses.replace(ident.domain, u_abs_range=(lo, hi))
            worst = 0.0
            try:
                for point, nome in identities.sample_points(domain, samples, seed):
                    report = identities.identity_residual(identity_id, point, nome)
                    worst = max(worst, report.rel_residual)
            except (DomainError, NonconvergenceError) as exc:
                yield identity_id, lo, hi, samples, None, exc
            else:
                yield identity_id, lo, hi, samples, worst, None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=40)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--windows", type=parse_windows, default=parse_windows("0.05:0.75:7"))
    parser.add_argument(
        "--ids",
        default=None,
        help="comma-separated identity ids (default: whole registry)",
    )
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    ids = tuple(args.ids.split(",")) if args.ids else identities.registry_ids()
    lines = ["identity,u_lo,u_hi,samples,worst_residual"]
    rows = survey_rows(ids, args.windows, args.samples, args.seed)
    for identity_id, lo, hi, samples, worst, refusal in rows:
        if refusal is not None:
            print(f"{identity_id} [{lo:.4f}, {hi:.4f}] refused: {refusal}", file=sys.stderr)
        cell = "refused" if worst is None else f"{worst:.6e}"
        lines.append(f"{identity_id},{lo:.4f},{hi:.4f},{samples},{cell}")
    text = "\n".join(lines)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out} ({len(lines) - 1} rows)")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
