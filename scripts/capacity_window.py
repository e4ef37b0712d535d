"""Sweep the interaction time and map the degradable capacity window.

For the plain atom-to-field conversion the transfer probability is
sin^2(Omega t) g^2/Omega^2, so the channel crosses in and out of the
degradable region as t grows.  This script tabulates status, capacity
and the optimal input population along the sweep, optionally through a
lossy fiber link, and reports the window edges.  Each row is printed,
and written to the CSV, as it is made.

Usage:
    python3 scripts/capacity_window.py --g 1 --delta 0 --points 81
    python3 scripts/capacity_window.py --loss 0.8 --csv window.csv
"""

import argparse
import collections
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from jcchannel import DegradabilityStatus, quantum_capacity
from jcchannel.cli import MODES, _emit, check_values


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
    flags = (("g", "g", args.g), ("delta", "delta", args.delta), ("tmax", "t", args.tmax), ("loss", "T", args.loss))
    check_values(ap, [flag for flag in flags if flag[2] is not None])
    if args.points < 1:
        ap.error(f"--points must be at least 1, got {args.points}")

    tmax = args.tmax if args.tmax is not None else 2.0 * math.pi / args.g
    if tmax == math.inf:  # a tiny g overflows the default
        ap.error(f"--g must keep the default --tmax = 2*pi/g finite, got {args.g}")
    vals = {"g": args.g, "delta": args.delta, "nu": 0.0}
    mode = MODES["conversion" if args.loss is None else "concat"]
    if args.loss is not None:  # symmetric link: half-cycle resonant reception after the fiber
        vals.update(g2=args.g, delta2=0.0, t2=math.pi / (2.0 * args.g), T=args.loss)
    windows = []  # [first t, last t, peak Q] of each contiguous run of points with Q > 0
    n_deg = 0

    def rows():  # prints the table row of each point, yields its CSV row if asked, tallies both summaries
        nonlocal n_deg
        print(f"{'g*t':>10} {'keep_prob':>10} {'status':>16} {'Q':>12} {'p*':>8}")
        yield "t,keep_prob,status,Q,p_star\r\n"
        last = args.points - 1
        positive = False
        for i in range(args.points):
            t = tmax * i / last if last else tmax
            if t == math.inf:  # tmax * i overflowed; i / last <= 1 cannot
                t = i / last * tmax
            vals["t"] = t
            ch = mode.build(vals)
            res = quantum_capacity(ch)
            kp, status, q, p_star = ch.keep_prob, res.status.value, res.q, res.p_star
            print(f"{args.g * t:10.5f} {kp:10.6f} {status:>16} {q:12.8f} {p_star:8.4f}")
            if args.csv:
                yield f"{t!r},{kp!r},{status},{q!r},{p_star!r}\r\n"
            n_deg += status == DegradabilityStatus.DEGRADABLE.value
            if q > 0.0 and positive:
                windows[-1][1:] = t, max(windows[-1][2], q)
            elif q > 0.0:
                windows.append([t, t, q])
            positive = q > 0.0

    if args.csv:
        _emit(rows(), args.csv)
    else:
        collections.deque(rows(), maxlen=0)
    for first, last, peak in windows:
        print(f"\npositive-capacity window: g*t in "
              f"[{args.g * first:.5f}, {args.g * last:.5f}] (peak Q = {peak:.8f})")
    if not windows:
        print("\nno positive-capacity point on this sweep")
    print(f"degradable points: {n_deg}/{args.points}")
    if args.csv:
        print(f"wrote {args.csv}")


if __name__ == "__main__":
    try:
        main()
    except ValueError as e:  # a value the model cannot evaluate, such as a propagator past the float range
        print(f"error: {e}", file=sys.stderr)
        sys.exit(2)
