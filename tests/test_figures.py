import pytest

from gnumsd.codes import GnuParams
from gnumsd.figures import build_figure
from gnumsd.protocols import (
    bk_h_curve,
    bk_t_curve,
    combined_curve,
    gnu_error_curve,
    repetition_error_curve,
)

# Each eps figure's columns after eps, as the error curves they plot.
FIGURE_CURVES = {
    "2b": lambda: [*(gnu_error_curve(GnuParams(1, 1, u), "XT") for u in (2, 3, 4)), bk_t_curve()],
    "2c": lambda: [*(gnu_error_curve(GnuParams(1, 1, u), "XH") for u in (2, 3, 4)), bk_h_curve()],
    "3b": lambda: [combined_curve("T"), combined_curve("H"), bk_t_curve(), bk_h_curve()],
    "4": lambda: [repetition_error_curve("T"), repetition_error_curve("H")],
}


@pytest.mark.parametrize("grid_step", [None, 0.013], ids=["default", "0.013"])
@pytest.mark.parametrize("figure_id", sorted(FIGURE_CURVES))
def test_columns_are_the_curves_point_by_point(figure_id, grid_step):
    curves = FIGURE_CURVES[figure_id]()
    header, rows = build_figure(figure_id, grid_step)
    assert len(header) == 1 + len(curves)
    for eps, *values in rows:
        # float.hex compares bits: -0.0 and 0.0 differ, a nan equals itself.
        assert [v.hex() for v in values] == [curve(eps).hex() for curve in curves], eps
