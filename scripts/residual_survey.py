#!/usr/bin/env python3
"""Survey identity residuals as the nome approaches the convergence boundary.

For each registry identity and each |u| window, run the registry's sampled
loop, ``identities.max_residual_over_samples``, over that window and record
the worst relative residual.  The output is CSV (identity, u_lo, u_hi,
samples, worst_residual), suitable for plotting residual growth against
|q| = |u|**2.

Inside the default sampling window |u| <= 0.75 everything stays below 1e-9.
Near |u| -> 1 the growth is rounding in near-cancelling sums, not
truncation: HADD reads 1.55e-1 at |u| = 0.9968, where its left side cancels
two products of about 1e14 down to 0.16 while every kernel value agrees
with a 60-digit mpmath sum to 1.2e-13.

A window that the kernel or the sampler refuses (a DomainError, which
includes NonReachableGuardError, or a NonconvergenceError) becomes a row
whose worst_residual is ``refused``; the reason goes to stderr and the
survey carries on.  An --out path that cannot be written is one
``error: ...`` line on stderr and exit 2, before any row is computed.

Usage:
    python scripts/residual_survey.py [--samples 40] [--seed 0]
        [--windows 0.05:0.75:7] [--ids DEF,INV,...] [--out survey.csv]
"""

from __future__ import annotations

import argparse
import sys

from appell_kit import identities
from appell_kit.cli import positive_int
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
        for lo, hi in windows:
            try:
                report = identities.max_residual_over_samples(
                    identity_id, samples, seed, u_abs_range=(lo, hi)
                )
            except (DomainError, NonconvergenceError) as exc:
                yield identity_id, lo, hi, samples, None, exc
            else:
                yield identity_id, lo, hi, samples, report.rel_residual, None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=positive_int, default=40)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--windows", type=parse_windows, default=parse_windows("0.05:0.75:7"))
    parser.add_argument("--ids", help="comma-separated identity ids (default: whole registry)")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    ids = tuple(args.ids.split(",")) if args.ids else identities.registry_ids()
    unknown = sorted(set(ids).difference(identities.registry_ids()))
    if unknown:
        parser.error(f"unknown identity ids: {', '.join(map(repr, unknown))}")
    # The output is opened before the survey runs, so a path that cannot be
    # written fails at once, as one error line, not after every row.
    try:
        fh = open(args.out, "w", encoding="utf-8") if args.out else None
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    lines = ["identity,u_lo,u_hi,samples,worst_residual"]
    rows = survey_rows(ids, args.windows, args.samples, args.seed)
    for identity_id, lo, hi, samples, worst, refusal in rows:
        if refusal is not None:
            print(f"{identity_id} [{lo:.4f}, {hi:.4f}] refused: {refusal}", file=sys.stderr)
        cell = "refused" if worst is None else f"{worst:.6e}"
        lines.append(f"{identity_id},{lo:.4f},{hi:.4f},{samples},{cell}")
    text = "\n".join(lines)
    if fh is not None:
        with fh:
            fh.write(text + "\n")
        print(f"wrote {args.out} ({len(lines) - 1} rows)")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
