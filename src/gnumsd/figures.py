"""Figure-ready datasets: every headline curve as a (header, rows) table.

Rows are plain lists of floats (math.nan marks a skipped singular point), so
the CLI can render them as CSV without any further shaping.  Sweeps are
`roots.step_grid` grids.  Every eps figure is `_curve_dataset` over a list of
`protocols.ErrorCurve`s, reference rounds included, and each column is one
`on_grid` call.  Which target and which reference round a plain T or H pairs
with is read from `protocols.pairing`, not decided here.
"""
from __future__ import annotations

import math
from functools import partial

from .codes import GnuParams
from .errors import OutOfRangeError
from .protocols import combined_curve, gnu_error_curve, pairing, repetition_error_curve
from .roots import step_grid
from .solver import MAGIC_GRID_STEP, default_magic_grid, magic_curve

EPS_GRID_STEP = 1e-3


def _curve_dataset(
    header: list[str], curves, grid_step: float
) -> tuple[list[str], list[list[float]]]:
    """The eps sweep of [0, 0.5] followed by one column per error curve."""
    grid = step_grid(0.5, grid_step)
    columns = [curve.on_grid(grid).tolist() for curve in curves]
    return header, [list(row) for row in zip(grid.tolist(), *columns)]


def magic_dataset(grid_step: float = MAGIC_GRID_STEP) -> tuple[list[str], list[list[float]]]:
    """Magic of the noiseless distilled state vs v at theta = pi/4, u = 2, 3, 4."""
    vs = default_magic_grid(grid_step)
    curves = [dict(magic_curve(GnuParams(1, 1, u), math.pi / 4.0, vs)) for u in (2, 3, 4)]
    rows = [[v, *(curve.get(v, math.nan) for curve in curves)] for v in vs]
    return ["v", "M2_u2", "M2_u3", "M2_u4"], rows


def error_dataset(
    kind: str, grid_step: float = EPS_GRID_STEP
) -> tuple[list[str], list[list[float]]]:
    """Worst-case output error vs input error for u = 2, 3, 4, plus the reference curve.

    kind "T" or "H" aims the codes at the X-conjugated target and compares
    them with the reference round of the same type, as `protocols.pairing` says.
    """
    x_kind, reference = pairing(kind)
    curves = [gnu_error_curve(GnuParams(1, 1, u), x_kind) for u in (2, 3, 4)]
    return _curve_dataset(["eps", "E_u2", "E_u3", "E_u4", "E_bk"], [*curves, reference], grid_step)


def composition_dataset(
    grid_step: float = EPS_GRID_STEP,
) -> tuple[list[str], list[list[float]]]:
    """Combined two-stage error curves next to single reference rounds."""
    curves = [combined_curve(kind) for kind in ("T", "H")]
    curves += [pairing(kind)[1] for kind in ("T", "H")]
    header = ["eps", "E_combined_T", "E_combined_H", "E_bk_T", "E_bk_H"]
    return _curve_dataset(header, curves, grid_step)


def repetition_dataset(
    grid_step: float = EPS_GRID_STEP,
) -> tuple[list[str], list[list[float]]]:
    """Two-qubit repetition-code error curves at the exact T/H reference parameters."""
    curves = [repetition_error_curve(kind) for kind in ("T", "H")]
    return _curve_dataset(["eps", "E_T", "E_H"], curves, grid_step)


FIGURE_BUILDERS = {
    "1c": magic_dataset,
    "2b": partial(error_dataset, "T"),
    "2c": partial(error_dataset, "H"),
    "3b": composition_dataset,
    "4": repetition_dataset,
}


def build_figure(figure_id: str, grid_step: float | None = None):
    """Dataset for one figure id; grid_step overrides the default sweep step."""
    if figure_id not in FIGURE_BUILDERS:
        raise OutOfRangeError(
            f"unknown figure id {figure_id!r}; expected one of {sorted(FIGURE_BUILDERS)}"
        )
    builder = FIGURE_BUILDERS[figure_id]
    if grid_step is None:
        return builder()
    return builder(grid_step=grid_step)
