"""Sweep the interaction time and map the degradable capacity window.

For the plain atom-to-field conversion the transfer probability is
sin^2(Omega t) g^2/Omega^2, so the channel crosses in and out of the
degradable region as t grows.  This script tabulates status, capacity
and the optimal input population along the sweep, optionally through a
lossy fiber link, and reports the window edges.

Usage:
    python3 scripts/capacity_window.py --g 1 --delta 0 --points 81
    python3 scripts/capacity_window.py --loss 0.8 --csv window.csv
"""

import argparse
import csv
import math
import sys

sys.path.insert(0, "src")

from jcchannel import (
    DegradabilityStatus,
    JCParams,
    LossChannel,
    concatenate,
    conversion_channel,
    quantum_capacity,
)


def build_channel(g, delta, t, loss):
    if loss is None:
        return conversion_channel(JCParams.from_detuning(g=g, delta=delta, t=t))
    # symmetric link: half-cycle resonant reception after the fiber
    first = JCParams.from_detuning(g=g, delta=delta, t=t)
    second = JCParams.resonant(g=g, t=math.pi / (2.0 * g))
    return concatenate(first, LossChannel(T=loss), second)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--g", type=float, default=1.0)
    ap.add_argument("--delta", type=float, default=0.0)
    ap.add_argument("--tmax", type=float, default=None, help="default 2*pi/g")
    ap.add_argument("--points", type=int, default=81)
    ap.add_argument("--loss", type=float, default=None,
                    help="fiber transmittance; adds a resonant receiving stage")
    ap.add_argument("--csv", type=str, default=None)
    args = ap.parse_args()
    for name, value in (("g", args.g), ("delta", args.delta), ("tmax", args.tmax), ("loss", args.loss)):
        if value is not None and not math.isfinite(value):
            ap.error(f"--{name} must be finite, got {value}")
    for name, ok, rule in (("g", args.g > 0, "must be positive"),
                           ("tmax", args.tmax is None or args.tmax >= 0, "must be nonnegative"),
                           ("loss", args.loss is None or 0 <= args.loss <= 1, "must lie in [0, 1]"),
                           ("points", args.points >= 1, "must be at least 1")):
        if not ok:
            ap.error(f"--{name} {rule}, got {getattr(args, name)}")

    tmax = args.tmax if args.tmax is not None else 2.0 * math.pi / args.g
    if not math.isfinite(tmax):  # a tiny g overflows the default
        ap.error(f"--g must keep the default --tmax = 2*pi/g finite, got {args.g}")
    ts = [tmax * i / (args.points - 1) if args.points > 1 else tmax
          for i in range(args.points)]
    chans = [build_channel(args.g, args.delta, t, args.loss) for t in ts]
    rows = [
        (t, ch.keep_prob, res.status.value, res.q, res.p_star)
        for t, ch, res in zip(ts, chans, map(quantum_capacity, chans))
    ]

    print(f"{'g*t':>10} {'keep_prob':>10} {'status':>16} {'Q':>12} {'p*':>8}")
    for t, kp, status, q, p_star in rows:
        print(f"{args.g * t:10.5f} {kp:10.6f} {status:>16} {q:12.8f} {p_star:8.4f}")

    # contiguous runs of sweep points with Q > 0
    runs = []
    last_idx = None
    for i, r in enumerate(rows):
        if r[3] > 0.0:
            if last_idx == i - 1:
                runs[-1].append(r)
            else:
                runs.append([r])
            last_idx = i
    if runs:
        for run in runs:
            print(f"\npositive-capacity window: g*t in "
                  f"[{args.g * run[0][0]:.5f}, {args.g * run[-1][0]:.5f}] "
                  f"(peak Q = {max(r[3] for r in run):.8f})")
    else:
        print("\nno positive-capacity point on this sweep")
    n_deg = sum(1 for r in rows if r[2] == DegradabilityStatus.DEGRADABLE.value)
    print(f"degradable points: {n_deg}/{len(rows)}")

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "keep_prob", "status", "Q", "p_star"])
            for r in rows:
                w.writerow([repr(float(v)) if isinstance(v, float) else v for v in r])
        print(f"wrote {args.csv}")


if __name__ == "__main__":
    try:
        main()
    except ValueError as e:  # a value the model cannot evaluate, such as a propagator past the float range
        print(f"error: {e}", file=sys.stderr)
        sys.exit(2)
