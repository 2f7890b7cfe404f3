"""Deterministic command-line front end.

Every command returns its result with its exit status and writes nothing:
a record (a dict), a (header, rows) table, or report text.  `main` alone
renders the result and writes it once, to stdout or atomically to --out: a
table as CSV, a record as JSON or as a one-row CSV table per --format, a
report as it is.  Floats are fixed at 12 significant digits, so identical
inputs produce identical bytes.

Angles are radians; `pi`-fraction literals such as pi/4, -7pi/8 or 0.5pi
are accepted anywhere an angle flag is.  A negative value may follow its
flag after a space or an `=`: `--theta -pi/4`, `--theta=-pi/4`.

Exit codes: 0 success, 1 failed verification, 2 usage or validation error
or an --out path that cannot be written, 3 numeric-domain failure (zero
success probability, unreachable target, no crossover).
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys
import tempfile

from .codes import GnuParams
from .engine import (
    InputEnsemble,
    codespace_projection,
    final_state,
    success_probability,
)
from .errors import (
    NoCrossoverError,
    NoSolutionError,
    OutOfRangeError,
    ZeroSuccessProbabilityError,
)
from .figures import FIGURE_BUILDERS, build_figure
from .protocols import (
    PAIRINGS,
    combined_curve,
    compose_errors,
    find_threshold,
    gnu_error_curve,
    pairing,
)
from .qmath import PureQubit, m2_density, trace_distance
from .solver import (
    MAGIC_GRID_STEP,
    TARGET_KINDS,
    SolvedInput,
    TargetSpec,
    default_magic_grid,
    magic_curve,
    solve_input_params,
)

_PI_LITERAL = re.compile(
    r"^(?P<sign>[+-]?)(?P<mult>\d+(?:\.\d*)?)?\*?pi(?:/(?P<div>\d+(?:\.\d*)?))?$",
    re.IGNORECASE,
)


def parse_angle(text: str) -> float:
    """Parse a radian value, accepting pi-fraction literals like '3pi/8'."""
    token = text.strip().replace(" ", "")
    match = _PI_LITERAL.match(token)
    if match:
        value = math.pi
        if match.group("mult"):
            value *= float(match.group("mult"))
        if match.group("div"):
            if float(match.group("div")) == 0.0:
                raise argparse.ArgumentTypeError(f"zero divisor in angle {text!r}")
            value /= float(match.group("div"))
        return -value if match.group("sign") == "-" else value
    try:
        return float(token)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected radians or a pi fraction (e.g. pi/4), got {text!r}"
        )


# argparse reads a '-' token as a value only if it is a plain negative
# decimal; no option of this CLI starts like -pi/4, -1e-13 or -inf either.
_NEGATIVE_VALUE = re.compile(r"-(?:\.?\d|pi|inf|nan)", re.IGNORECASE)


def _joined_negative_values(argv: list[str]) -> list[str]:
    """argv with each `--flag -value` written as `--flag=-value`, which argparse reads."""
    joined: list[str] = []
    for token in argv:
        if joined and re.fullmatch(r"--[^=]+", joined[-1]) and _NEGATIVE_VALUE.match(token):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def _fmt(value: float) -> str:
    return format(value, ".12g")


def _json_ready(obj):
    """Round every float to 12 significant digits for stable serialisation."""
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {key: _json_ready(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(item) for item in obj]
    return obj


def _render(result, fmt: str | None) -> str:
    """A command's result as text: a report as it is, a (header, rows) table as
    CSV, a record as JSON for fmt "json", else as a one-row CSV table."""
    if isinstance(result, str):
        return result
    if isinstance(result, dict):
        if fmt == "json":
            return json.dumps(_json_ready(result), indent=2) + "\n"
        result = list(result), [list(result.values())]
    header, rows = result
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) if isinstance(x, float) else str(x) for x in row))
    return "\n".join(lines) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out in (None, "-"):
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out)) or "."
    tmp_path = None
    try:
        fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".gnumsd-", suffix=".tmp")
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_path, out)
    except BaseException as exc:
        if tmp_path is not None and os.path.exists(tmp_path):
            os.unlink(tmp_path)
        if isinstance(exc, OSError):  # a bad --out, not a failed command
            raise ValueError(f"cannot write {out}: {exc.strerror or exc}") from exc
        raise


# Defaults of the code flags.  `threshold` parses them with None defaults
# instead, so that --protocol bk and combined can refuse the flags given.
_CODE_DEFAULTS = {"g": 1, "n": 1, "u": 2}


def _add_code_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--g", type=int, default=_CODE_DEFAULTS["g"], help="code parameter g (default 1)"
    )
    parser.add_argument(
        "--n", type=int, default=_CODE_DEFAULTS["n"], help="code parameter n (default 1)"
    )
    parser.add_argument(
        "--u",
        type=float,
        default=_CODE_DEFAULTS["u"],
        help="code parameter u; N = g*n*u (default 2)",
    )


def _add_out_flags(parser: argparse.ArgumentParser, formats=("json", "csv")) -> None:
    if formats:
        parser.add_argument(
            "--format", choices=formats, default=formats[0], help="output format"
        )
    parser.add_argument("--out", default=None, help="output path (default: stdout)")


def _code_from_args(args) -> GnuParams:
    return GnuParams(args.g, args.n, args.u)


def _target_from_args(args) -> TargetSpec | None:
    kind = getattr(args, "target", None)
    raw = getattr(args, "custom_state", None)
    if raw is not None and kind != "custom":
        raise OutOfRangeError("--custom-state applies to --target custom only")
    if kind is None:
        return None
    if kind != "custom":
        return TargetSpec(kind)
    if raw is None:
        raise OutOfRangeError("--target custom requires --custom-state c0re,c0im,c1re,c1im")
    parts = [float(p) for p in raw.split(",")]
    if len(parts) != 4:
        raise OutOfRangeError("--custom-state takes four comma-separated reals")
    return TargetSpec("custom", PureQubit(complex(parts[0], parts[1]), complex(parts[2], parts[3])))


def cmd_distill(args) -> tuple[dict, int]:
    code = _code_from_args(args)
    ens = InputEnsemble(args.v, args.theta, args.eps)
    # The flags first, so a usage error is never reported as a refusal.
    target = _target_from_args(args)
    projection = codespace_projection(code, ens)
    state = final_state(projection)
    record = {
        "g": code.g,
        "n": code.n,
        "u": code.u,
        "v": ens.v,
        "theta": ens.theta,
        "eps": ens.eps,
        "a": projection.w00,
        "b": projection.w11,
        "c_re": projection.w01.real,
        "c_im": projection.w01.imag,
        "ps": success_probability(projection),
        "rho00": state.m00,
        "rho11": state.m11,
        "rho01_re": state.m01.real,
        "rho01_im": state.m01.imag,
        "rho10_re": state.m01.real,
        "rho10_im": -state.m01.imag,
        "m2": m2_density(state),
    }
    if target is not None:
        record["trace_distance_to_target"] = trace_distance(state, target.density())
    return record, 0


def cmd_figure(args) -> tuple[tuple, int]:
    return build_figure(args.id, args.grid_step), 0


def _curve_from_args(args):
    given = {k: v for k, v in vars(args).items() if k in _CODE_DEFAULTS and v is not None}
    if args.protocol == "gnu":
        return gnu_error_curve(GnuParams(**{**_CODE_DEFAULTS, **given}), args.target)
    if given:
        flags = ", ".join(f"--{name}" for name in given)
        raise OutOfRangeError(
            f"--protocol {args.protocol} has fixed codes and ignores {flags}; "
            "the code flags apply to --protocol gnu only"
        )
    if args.protocol == "bk":
        return pairing(args.target)[1]
    return combined_curve(args.target)


def cmd_threshold(args) -> tuple[dict, int]:
    curve = _curve_from_args(args)
    result = find_threshold(curve)
    return {
        "curve": curve.label,
        "threshold": result.threshold,
        "kind": result.kind,
        "certified_at_half": result.certified_at_half,
        "bracket_width": result.bracket_width,
        "evaluations": result.evaluations,
    }, 0


def cmd_solve(args) -> tuple[dict | tuple, int]:
    """The solutions as a table for --format csv, else in a record with the inputs."""
    code = _code_from_args(args)
    target = _target_from_args(args)
    solutions = solve_input_params(code, target, args.tol)
    if args.format == "csv":
        header = [f.name for f in dataclasses.fields(SolvedInput)]
        return (header, [list(dataclasses.astuple(s)) for s in solutions]), 0
    return {
        "g": code.g,
        "n": code.n,
        "u": code.u,
        "target": args.target,
        "tol": args.tol,
        "solutions": [dataclasses.asdict(s) for s in solutions],
    }, 0


def cmd_magic_curve(args) -> tuple[tuple, int]:
    code = _code_from_args(args)
    grid = default_magic_grid(args.grid_step)
    points = magic_curve(code, args.theta, grid)
    evaluated = dict(points)
    return (["v", "M2"], [[v, evaluated.get(v, math.nan)] for v in grid]), 0


def cmd_compose(args) -> tuple[dict, int]:
    # InputEnsemble's range check and zero sign, so the record echoes the eps evaluated.
    eps = InputEnsemble(0.0, 0.0, args.eps).eps
    stage_a, total = compose_errors(eps, args.target)
    if not 0.0 <= total <= 1.0:
        # bk_h_error exceeds 1 for inputs above ~0.86859, which stage A passes at eps ~0.86654.
        raise OutOfRangeError(
            f"the {pairing(args.target)[1].label} round maps the stage-A error "
            f"{stage_a!r} to {total!r}, outside [0, 1]"
        )
    return {
        "target": args.target,
        "eps": eps,
        "error_stage_a": stage_a,
        "error_total": total,
    }, 0


def cmd_verify(args) -> tuple[str, int]:
    # Imported here: only this command needs verify, oracle and closed_forms.
    from .verify import run_verification

    ok, report = run_verification()
    return report + "\n", 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gnumsd",
        description="Magic-state distillation with permutation-invariant gnu codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("distill", help="distil one parameter point and report the output state")
    _add_code_flags(p)
    p.add_argument("--v", type=parse_angle, required=True, help="input angle v in [0, pi/2]")
    p.add_argument("--theta", type=parse_angle, default=0.0, help="input angle theta (default 0)")
    p.add_argument("--eps", type=float, default=0.0, help="input error weight in [0, 1]")
    p.add_argument("--target", choices=TARGET_KINDS, default=None)
    p.add_argument("--custom-state", default=None, help="c0re,c0im,c1re,c1im for --target custom")
    _add_out_flags(p)
    p.set_defaults(func=cmd_distill)

    p = sub.add_parser("figure", help="write one figure dataset as CSV")
    p.add_argument("--id", required=True, choices=sorted(FIGURE_BUILDERS), help="dataset id")
    p.add_argument(
        "--grid-step",
        type=parse_angle,
        default=None,
        help="override the sweep step (radians for v sweeps, plain for eps sweeps)",
    )
    _add_out_flags(p, formats=())
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("threshold", help="locate the error threshold of a curve")
    p.add_argument(
        "--protocol",
        choices=("gnu", "bk", "combined"),
        default="gnu",
        help="curve family (default gnu)",
    )
    p.add_argument("--target", choices=[k for k in TARGET_KINDS if k != "custom"], required=True)
    _add_code_flags(p)
    _add_out_flags(p)
    p.set_defaults(func=cmd_threshold, **dict.fromkeys(_CODE_DEFAULTS))

    p = sub.add_parser("solve", help="find input parameters that distil a target")
    _add_code_flags(p)
    p.add_argument("--target", choices=TARGET_KINDS, required=True)
    p.add_argument("--custom-state", default=None, help="c0re,c0im,c1re,c1im for --target custom")
    p.add_argument("--tol", type=float, default=1e-9, help="residual tolerance (default 1e-9)")
    _add_out_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("magic-curve", help="magic of the noiseless output vs input angle v")
    _add_code_flags(p)
    p.add_argument("--theta", type=parse_angle, default=math.pi / 4.0, help="default pi/4")
    p.add_argument("--grid-step", type=parse_angle, default=MAGIC_GRID_STEP)
    _add_out_flags(p, formats=())
    p.set_defaults(func=cmd_magic_curve)

    p = sub.add_parser("compose", help="total error of the two-stage protocol at one eps")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--target", choices=tuple(PAIRINGS), required=True)
    _add_out_flags(p)
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("verify", help="run the oracle/circuit/closed-form self-checks")
    _add_out_flags(p, formats=())
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_joined_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        result, status = args.func(args)
        _emit(_render(result, getattr(args, "format", None)), args.out)
        return status
    except (OutOfRangeError, ValueError) as exc:
        print(f"gnumsd: invalid input: {exc}", file=sys.stderr)
        return 2
    except (ZeroSuccessProbabilityError, NoSolutionError, NoCrossoverError) as exc:
        print(f"gnumsd: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
