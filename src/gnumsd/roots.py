"""Bracketed root refinement shared by the solver and the protocol searches.

`bisect_sign_change` is the package's one bisection: `solver.solve_for_magic`
and the threshold and crossover searches in `protocols` each find a
sign-change bracket on their own grid and refine it here.
"""
from __future__ import annotations


def bisect_sign_change(fn, lo: float, hi: float, f_lo: float, width: float):
    """Bisect a bracket [lo, hi] across which fn changes sign, given f_lo = fn(lo).

    Halves the bracket, keeping the half whose ends differ in sign, until it
    is at most width wide.  Returns (root, final bracket width, evaluations
    of fn); the root is the final bracket's midpoint, or the first midpoint
    where fn is exactly zero, with width 0.
    """
    evaluations = 0
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        f_mid = fn(mid)
        evaluations += 1
        if f_mid == 0.0:
            return mid, 0.0, evaluations
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi), hi - lo, evaluations
