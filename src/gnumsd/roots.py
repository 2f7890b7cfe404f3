"""Sampled grids and the one root search on them.

`step_grid` builds every sweep grid; `first_root` finds the first root of a
curve sampled on one (the threshold, crossover and magic searches), bisecting
through `bisect_sign_change`.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import OutOfRangeError


def step_grid(stop: float, step: float) -> np.ndarray:
    """The points k * step for k = 0, 1, ... up to stop, a sweep of [0, stop].

    The last point may pass stop by rounding only, at most 4 ulps (a step
    that divides the range can end an ulp above it), so a step that does not
    divide the range ends short of stop.  Raises OutOfRangeError unless step
    is a positive finite number.
    """
    if not (math.isfinite(step) and step > 0.0):
        raise OutOfRangeError(f"grid step must be a positive finite number, got {step!r}")
    last = int(round(stop / step))
    if last * step > stop + 4 * math.ulp(stop):
        last -= 1
    return np.arange(last + 1) * step


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


def first_root(xs, diffs, fn, atol: float, width: float):
    """The first root of fn among its samples diffs[i] = fn(xs[i]), in order of i.

    The first sample with |diff| <= atol is returned as (xs[i], 0.0, 0) unless
    a sign change between neighbours comes first; that one is bisected through
    fn down to width.  None when the samples neither touch zero nor change sign.
    """
    diffs = np.asarray(diffs, dtype=float)
    touch = np.abs(diffs) <= atol
    hits = np.flatnonzero(touch | np.r_[False, np.diff(diffs < 0.0)])
    if hits.size == 0:
        return None
    i = hits[0]
    if touch[i]:
        return float(xs[i]), 0.0, 0
    return bisect_sign_change(fn, float(xs[i - 1]), float(xs[i]), float(diffs[i - 1]), width)
