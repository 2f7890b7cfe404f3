"""Figure-ready datasets: every headline curve as a (header, rows) table.

Rows are plain lists of floats (math.nan marks a skipped singular point), so
the CLI can render them as CSV without any further shaping.
"""
from __future__ import annotations

import math
from functools import partial

from .codes import GnuParams
from .errors import OutOfRangeError
from .protocols import (
    bk_h_error,
    bk_t_error,
    compose_total_error,
    gnu_error_curve,
    repetition_error_curve,
)
from .solver import magic_curve

EPS_GRID_STEP = 1e-3
V_GRID_STEP = math.pi / 1000


def _eps_grid(grid_step: float) -> list[float]:
    steps = int(round(0.5 / grid_step))
    return [k * grid_step for k in range(steps + 1)]


def _v_grid(grid_step: float) -> list[float]:
    steps = int(round((math.pi / 2.0) / grid_step))
    return [k * grid_step for k in range(steps + 1)]


def magic_dataset(grid_step: float = V_GRID_STEP) -> tuple[list[str], list[list[float]]]:
    """Magic of the noiseless distilled state vs v at theta = pi/4, u = 2, 3, 4."""
    vs = _v_grid(grid_step)
    curves = [dict(magic_curve(GnuParams(1, 1, u), math.pi / 4.0, vs)) for u in (2, 3, 4)]
    rows = [[v, *(curve.get(v, math.nan) for curve in curves)] for v in vs]
    return ["v", "M2_u2", "M2_u3", "M2_u4"], rows


def error_dataset(
    kind: str, grid_step: float = EPS_GRID_STEP
) -> tuple[list[str], list[list[float]]]:
    """Worst-case output error vs input error for u = 2, 3, 4, plus the reference curve.

    kind "T" aims the codes at the X-conjugated T-type target, "H" at the
    X-conjugated H-type target, mirroring the solved-parameter tables.
    """
    x_kind = {"T": "XT", "H": "XH"}[kind]
    curves = [gnu_error_curve(GnuParams(1, 1, u), x_kind) for u in (2, 3, 4)]
    bk_fn = bk_t_error if kind == "T" else bk_h_error
    rows = [
        [eps, *(curve(eps) for curve in curves), bk_fn(eps)] for eps in _eps_grid(grid_step)
    ]
    return ["eps", "E_u2", "E_u3", "E_u4", "E_bk"], rows


def composition_dataset(
    grid_step: float = EPS_GRID_STEP,
) -> tuple[list[str], list[list[float]]]:
    """Combined two-stage error curves next to single reference rounds."""
    rows = [
        [
            eps,
            compose_total_error(eps, "T"),
            compose_total_error(eps, "H"),
            bk_t_error(eps),
            bk_h_error(eps),
        ]
        for eps in _eps_grid(grid_step)
    ]
    return ["eps", "E_combined_T", "E_combined_H", "E_bk_T", "E_bk_H"], rows


def repetition_dataset(
    grid_step: float = EPS_GRID_STEP,
) -> tuple[list[str], list[list[float]]]:
    """Two-qubit repetition-code error curves at the exact T/H reference parameters."""
    curves = [repetition_error_curve(kind) for kind in ("T", "H")]
    rows = [[eps, *(curve(eps) for curve in curves)] for eps in _eps_grid(grid_step)]
    return ["eps", "E_T", "E_H"], rows


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
