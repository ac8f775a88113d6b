"""Refinement study for the grid iteration error budget.

Measures how the interior sup error of the converged lattice field depends
on the lattice step h, the circle radius r, and the stopping tolerance.
Findings from the full sweep at p = 2 on exp data (run with --full; about
4.5 s on a 2-core machine, 3.5 s without it, most of it the p = 4 case):

  * the error is flat in h (2.2e-2 to 2.6e-2 over h in [0.02, 0.05] at
    r = 0.1, tol = 1e-3): it is iteration error.  The solve stops on a
    small update, far from the discrete fixed point u*, which lies 1.6e-3,
    3.1e-4 and 1.0e-4 from exp at h = 0.05, 0.025 and 0.02 (u* by GMRES,
    ROADMAP item 13);
  * the error scales like 1/r^2 (r = 0.2: 5.9e-3, r = 0.15: 1.0e-2,
    r = 0.1: 2.3e-2 at h = 0.025);
  * tightening the stopping tolerance to 3e-4 at h = 0.025 drops the error
    to 7.1e-3: the fixed-point stopping criterion dominates the budget.

These numbers calibrate the 5e-2 acceptance threshold for the exponential
boundary-value problem at h = 0.02, r = 0.1, tol = 1e-3 (measured 2.3e-2,
about 2x headroom).

They hold on the unit square (L = 1) for L/r up to about 10, that is r >=
0.1 here.  The fixed point u* amplifies the map's consistency error: ROADMAP
item 14 measured sup|u* - exp| / sup|T exp - exp| (u* by GMRES, h 0.005 to
0.02) at about 8.5 for L/r = 5, 86-96 for L/r = 10 (criterion 10(b)) and
1e5 or more for L/r = 20, where the damped solve stops with
DivergenceError at r = 0.05.

These findings hold at p = 2 only.  At p = 3 on pharm-radial:3 data, an
exact solution, on [0.5, 1.5]^2 with damping 0.5 and tolerance 1e-5, the
error from the exact start is flat at about 1e-2 across (h, r): 9.0e-3 at
(h, r) = (0.05, 0.2), 1.3e-2 at (0.05, 0.1) after 262 sweeps, 1.1e-2 at
(0.025, 0.1).  The mean start at (0.05, 0.1) reaches a second fixed point,
with sup error 0.87.  The p = 4 case below checks only the residual decay:
its exp data does not solve the p = 4 system.
"""

import argparse
import time

import numpy as np

import holomeans as hm


def solve_case(h, r, tol, p=2.0, damping=0.8, max_iterations=900):
    d = hm.power_density(p)
    grid = hm.grid_from_function(0.0, 1.0, 0.0, 1.0, h, r, np.exp)
    grid = hm.with_interior(grid, complex(np.mean(grid.values)))
    cfg = hm.DppConfig(
        radius=r, damping=damping, residual_tol=tol, max_iterations=max_iterations
    )
    t0 = time.perf_counter()
    res = hm.dpp_solve(grid, d, cfg)
    dt = time.perf_counter() - t0
    mask = res.field.interior_mask()
    err = np.abs(res.field.values - np.exp(res.field.points()))[mask].max()
    return err, res, dt


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--full", action="store_true", help="include the slow h = 0.02 cases")
    args = ap.parse_args()

    hs = [0.05, 0.04, 0.025] + ([0.02] if args.full else [])
    print("h-refinement at r = 0.1, tol = 1e-3 (quadratic density, exp data):")
    for h in hs:
        err, res, dt = solve_case(h, 0.1, 1e-3)
        print(
            f"  h = {h:5.3f}: sup error {err:.3e}  "
            f"({res.iterations} sweeps, {dt:.1f}s)"
        )

    print("\nr-scaling at h = 0.025, tol = 1e-3:")
    for r in [0.2, 0.15, 0.1]:
        err, res, dt = solve_case(0.025, r, 1e-3)
        print(
            f"  r = {r:5.3f}: sup error {err:.3e}  "
            f"({res.iterations} sweeps, {dt:.1f}s)"
        )

    print("\nstopping-tolerance sweep at h = 0.025, r = 0.1:")
    for tol in [1e-3, 3e-4]:
        err, res, dt = solve_case(0.025, 0.1, tol)
        print(
            f"  tol = {tol:.0e}: sup error {err:.3e}  "
            f"({res.iterations} sweeps, {dt:.1f}s)"
        )

    print("\np = 4 damped iteration (h = 0.05, r = 0.15, damping 0.5, tol 1e-4):")
    err, res, dt = solve_case(0.05, 0.15, 1e-4, p=4.0, damping=0.5, max_iterations=1500)
    hist = np.asarray(res.residual_history)
    drops = np.flatnonzero(np.diff(hist) > 0.0)
    first_mono = int(drops[-1]) + 1 if drops.size else 0
    print(
        f"  converged = {res.converged} in {res.iterations} sweeps ({dt:.1f}s); "
        f"residuals monotone from sweep {first_mono}"
    )


if __name__ == "__main__":
    main()
