"""Locate the cavity-decay rate that kills degradability of the conversion.

With the field decaying at rate kappa (and the atom at gamma) the
photon-to-atom conversion stays degradable only while the atom ends up
holding at least as much of the excitation as the field keeps.  The
script scans kappa at fixed interaction time, evaluates the closed-form
sign expression and the population gap |h_env|^2 - |h_keep|^2 side by
side, then bisects each sign change of the gap and reports one critical
rate per transition.  A scan point that `jcchannel capacity` would call
boundary (|h_keep| within its 1e-12 tie band of |h_env|) belongs to
neither side; its degradable column reads "boundary".

Usage:
    python3 scripts/decay_boundary.py --g 1 --t 2.3562 --kmax 2
    python3 scripts/decay_boundary.py --delta 0.5 --gamma 0.05
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from jcchannel import DecayParams, JCParams, decayed_conversion, degradability_expression
from jcchannel.capacity import status_codes
from jcchannel.cli import check_values


def gap(g, delta, t, kappa, gamma):
    conv = decayed_conversion(JCParams.from_detuning(g=g, delta=delta, t=t),
                              DecayParams(kappa=kappa, gamma_at=gamma), t)
    return abs(conv.h_env) ** 2 - abs(conv.h_keep) ** 2, conv


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--g", type=float, default=1.0)
    ap.add_argument("--delta", type=float, default=0.0)
    ap.add_argument("--t", type=float, default=2.356194490192345,
                    help="interaction time, default 3*pi/4 at g=1")
    ap.add_argument("--gamma", type=float, default=0.0, help="atomic decay rate")
    ap.add_argument("--kmax", type=float, default=2.0)
    ap.add_argument("--points", type=int, default=21)
    args = ap.parse_args()
    check_values(ap, [(flag, name, getattr(args, flag)) for flag, name in
                      (("g", "g"), ("delta", "delta"), ("t", "t"), ("gamma", "gamma"), ("kmax", "kappa"))])
    if args.points < 2:
        ap.error(f"--points must be at least 2, got {args.points}")

    print(f"{'kappa':>8} {'|h_keep|^2':>12} {'|h_env|^2':>12} "
          f"{'pop gap':>12} {'sign expr':>12} {'degradable':>10}")
    side = None  # (kappa, gap > 0) of the last scan point off the boundary
    brackets = []  # (lo, hi) of each sign change of the gap between such points
    for i in range(args.points):
        kappa = args.kmax * i / (args.points - 1)
        g, conv = gap(args.g, args.delta, args.t, kappa, args.gamma)
        expr = degradability_expression(conv)
        on_a_side = status_codes(abs(conv.h_keep), abs(conv.h_env)) != 0
        # on the boundary the sign expression has no precision left to pick a side
        verdict = str(expr <= 0.0) if on_a_side else "boundary"
        print(f"{kappa:8.4f} {abs(conv.h_keep) ** 2:12.8f} "
              f"{abs(conv.h_env) ** 2:12.8f} {g:12.4e} {expr:12.4e} "
              f"{verdict:>10}")
        if on_a_side:
            if side is not None and side[1] != (g > 0.0):
                brackets.append((side[0], kappa))
            side = (kappa, g > 0.0)

    if not brackets:
        print("\nno degradability transition inside the scan range")
        return

    for lo, hi in brackets:
        above = gap(args.g, args.delta, args.t, lo, args.gamma)[0] > 0.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if (gap(args.g, args.delta, args.t, mid, args.gamma)[0] > 0.0) == above:
                lo = mid
            else:
                hi = mid
        crit = 0.5 * (lo + hi)
        g_crit, conv = gap(args.g, args.delta, args.t, crit, args.gamma)
        print(f"\ncritical kappa = {crit:.12f}  (population gap there: {g_crit:.3e})")
        print(f"unit budget at boundary: |h_keep|^2 + |h_env|^2 = "
              f"{abs(conv.h_keep) ** 2 + abs(conv.h_env) ** 2:.8f} "
              f"(deficit is the leak into the decay environments)")


if __name__ == "__main__":
    try:
        main()
    except ValueError as e:  # a value the model cannot evaluate, such as a propagator past the float range
        print(f"error: {e}", file=sys.stderr)
        sys.exit(2)
