"""Order statistics and reference-output comparison for the benchmark."""
from __future__ import annotations

import math
import re

# Percentiles considered for the reported tail, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)
MIN_BEYOND = 10


def percentile(samples, pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least pct% at or below it."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(samples) -> tuple[float, float] | None:
    """Highest ladder percentile with at least ten samples beyond it, and its value.

    Returns None when even the median has fewer than ten samples above it.
    """
    count = len(samples)
    best = None
    for pct in TAIL_LADDER:
        rank = max(1, math.ceil(pct / 100.0 * count))
        if count - rank >= MIN_BEYOND:
            best = pct
    if best is None:
        return None
    return best, percentile(samples, best)


_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf)\b")


def _split(text: str):
    """Text as alternating literal and numeric tokens."""
    pieces, numbers, last = [], [], 0
    for match in _NUMBER.finditer(text):
        pieces.append(text[last:match.start()])
        numbers.append(float(match.group()))
        last = match.end()
    pieces.append(text[last:])
    return pieces, numbers


def numbers_close(actual: float, expected: float, tol: float) -> bool:
    if math.isnan(expected):
        return math.isnan(actual)
    if math.isinf(expected):
        return actual == expected
    return abs(actual - expected) <= tol * max(1.0, abs(expected))


def compare_output(actual: str, expected: str, tol: float = 1e-9) -> str | None:
    """None when the outputs agree, else a one-line reason.

    Every non-numeric stretch of text must match exactly; every number must
    agree to `tol`, relative for magnitudes above one and absolute below.
    """
    got_text, got_nums = _split(actual)
    want_text, want_nums = _split(expected)
    if got_text != want_text or len(got_nums) != len(want_nums):
        for index, (got, want) in enumerate(zip(got_text, want_text)):
            if got != want:
                return f"text differs near token {index}: {got[:40]!r} != {want[:40]!r}"
        return f"token count {len(got_nums)} != {len(want_nums)}"
    for index, (got, want) in enumerate(zip(got_nums, want_nums)):
        if not numbers_close(got, want, tol):
            return f"number {index} is {got!r}, reference {want!r}"
    return None


def compare_table(rows, expected_csv: str, tol: float = 1e-9) -> str | None:
    """Compare an in-process (header, rows) dataset against a reference CSV."""
    header, data = rows
    lines = expected_csv.rstrip("\n").split("\n")
    if lines[0] != ",".join(header):
        return f"header {header!r} differs from the reference"
    if len(lines) - 1 != len(data):
        return f"{len(data)} rows, reference has {len(lines) - 1}"
    for row, line in zip(data, lines[1:]):
        want = [float(x) for x in line.split(",")]
        if len(want) != len(row) or not all(
            numbers_close(float(got), ref, tol) for got, ref in zip(row, want)
        ):
            return f"row {row[:1]} differs from the reference {line!r}"
    return None
