"""Locate the cavity-decay rate that kills degradability of the conversion.

With the field decaying at rate kappa (and the atom at gamma) the
photon-to-atom conversion stays degradable only while the atom ends up
holding at least as much of the excitation as the field keeps.  The
script scans kappa at fixed interaction time, evaluates the closed-form
sign expression and the population gap |h_env|^2 - |h_keep|^2 side by
side, then bisects each sign change of the gap and reports one critical
rate per transition.  A scan point whose gap is within BOUNDARY of zero
lies on the boundary and belongs to neither side.

Usage:
    python3 scripts/decay_boundary.py --g 1 --t 2.3562 --kmax 2
    python3 scripts/decay_boundary.py --delta 0.5 --gamma 0.05
"""

import argparse
import math
import sys

sys.path.insert(0, "src")

from jcchannel import (
    DecayParams,
    JCParams,
    decayed_conversion,
    degradability_expression,
)

BOUNDARY = 1e-12  # |gap| at most this: on the boundary, not on a side


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
    for name in ("g", "delta", "t", "gamma", "kmax"):
        if not math.isfinite(getattr(args, name)):
            ap.error(f"--{name} must be finite, got {getattr(args, name)}")
    for name, ok, rule in (("g", args.g > 0, "must be positive"), ("t", args.t >= 0, "must be nonnegative"),
                           ("gamma", args.gamma >= 0, "must be nonnegative"),
                           ("kmax", args.kmax >= 0, "must be nonnegative"),
                           ("points", args.points >= 2, "must be at least 2")):
        if not ok:
            ap.error(f"--{name} {rule}, got {getattr(args, name)}")

    print(f"{'kappa':>8} {'|h_keep|^2':>12} {'|h_env|^2':>12} "
          f"{'pop gap':>12} {'sign expr':>12} {'degradable':>10}")
    sides = []  # (kappa, gap > 0) of each scan point off the boundary
    for i in range(args.points):
        kappa = args.kmax * i / (args.points - 1)
        g, conv = gap(args.g, args.delta, args.t, kappa, args.gamma)
        expr = degradability_expression(conv)
        print(f"{kappa:8.4f} {abs(conv.h_keep) ** 2:12.8f} "
              f"{abs(conv.h_env) ** 2:12.8f} {g:12.4e} {expr:12.4e} "
              f"{str(expr <= 0.0):>10}")
        if abs(g) > BOUNDARY:
            sides.append((kappa, g > 0.0))

    brackets = [(lo, hi) for (lo, above), (hi, now) in zip(sides, sides[1:]) if above != now]
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
