"""The benchmark's three seeded workloads: op lists, one op, and output checks.

A workload is built from a seed (its set-up), then run as repeated passes
over its fixed op list.  `run_op` is the timed unit; `check` is the output
check and runs outside the timed region.  Every op's cost depends on the
code shapes, which are fixed, and not on the seeded angles and noise, so
passes cost the same for every seed.
"""
from __future__ import annotations

import importlib
import json
import math
import os
import random
import subprocess
import sys
import time
import types
from dataclasses import dataclass, field
from pathlib import Path

from perfbench.speed import SPEED_MARKER
from perfbench.stats import compare_output, compare_table
from perfbench.tracing import TRACE_MARKER, CacheLedger

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"
CHILD = BENCH_DIR / "clichild.py"
SAMPLED_CHILD = BENCH_DIR / "clirun.py"

SOLVE_TOL = 1e-9
# The generating input of a custom target must be among the solutions.
ORIGIN_ATOL = 1e-6
# float64 sums of O(n N^2) terms: the two sides of the relation agree to
# about 3e-12 on these codes; a broken relation misses by far more.
METAMORPHIC_ATOL = 1e-9
# Bisection stops at a 1e-8 bracket, so fixed points and crossings are this
# close on the curve.
ROOT_ATOL = 1e-6
MAGIC_ATOL = 1e-6
CLI_TIMEOUT_S = 170


@dataclass
class Op:
    label: str
    kind: str
    params: dict = field(default_factory=dict)


# Library entry points the workloads call directly, by defining layer.
API_NAMES = {
    "engine": ("distilled_state", "max_error"),
    "protocols": ("find_threshold", "find_crossover"),
    "solver": ("solve_to_density", "solve_input_params", "solve_for_magic"),
    "figures": ("build_figure",),
}


def make_api(tracer=None, speed=None):
    """The library functions a workload calls, wrapped in spans when traced.

    `speed` is the run's `SpeedSampler` when the passes are timed.
    """
    api = types.SimpleNamespace(tracer=tracer, speed=speed)
    for layer, names in API_NAMES.items():
        module = importlib.import_module(f"gnumsd.{layer}")
        for name in names:
            fn = getattr(module, name)
            setattr(api, name, tracer.wrap(layer, fn, name) if tracer else fn)
    return api


def _own_target(code, rng):
    """A seeded clean input and the noiseless output it distils, as the target."""
    from gnumsd import InputEnsemble, distilled_state

    v0 = rng.uniform(0.25, 1.32)
    theta0 = rng.uniform(-math.pi, math.pi)
    return v0, theta0, distilled_state(code, InputEnsemble(v0, theta0, 0.0))


class SolveWorkload:
    """Cold parameter inversion: one solve per op, every lru cache cleared first."""

    name = "solve"
    latency_kind = "solve"
    PAPER_TARGETS = (((1, 1, 2), "XT"), ((2, 1, 1), "T"))
    # n = 1 keeps the noiseless point cost, and so the solve cost, flat in N.
    CUSTOM_CODES = ((1, 1, 2), (1, 1, 12), (1, 1, 30), (1, 1, 60))

    def __init__(self, seed: int):
        from gnumsd import GnuParams, TargetSpec

        rng = random.Random(seed)
        self.ledger = CacheLedger()
        self.ops = []
        for shape, kind in self.PAPER_TARGETS:
            code = GnuParams(*shape)
            spec = TargetSpec(kind)
            self.ops.append(
                Op(
                    f"paper-{kind}-N{code.num_qubits}",
                    "solve",
                    {"code": code, "spec": spec, "target": spec.density(), "origin": None},
                )
            )
        for shape in self.CUSTOM_CODES:
            code = GnuParams(*shape)
            v0, theta0, target = _own_target(code, rng)
            self.ops.append(
                Op(
                    f"custom-N{code.num_qubits}",
                    "solve",
                    {"code": code, "spec": None, "target": target, "origin": (v0, theta0)},
                )
            )

    def begin_pass(self) -> None:
        self.ledger.clear()

    def run_op(self, op: Op, api):
        self.ledger.clear()
        p = op.params
        if p["spec"] is not None:
            return api.solve_input_params(p["code"], p["spec"], SOLVE_TOL)
        return api.solve_to_density(p["code"], p["target"], SOLVE_TOL)

    def check(self, op: Op, solutions) -> str | None:
        from gnumsd import InputEnsemble, distilled_state, trace_distance
        from gnumsd.engine import wrap_angle

        p = op.params
        if not solutions:
            return "no solutions"
        for sol in solutions:
            state = distilled_state(p["code"], InputEnsemble(sol.v, sol.theta, 0.0))
            residual = trace_distance(state, p["target"])
            if residual > SOLVE_TOL:
                return f"residual {residual:.3e} at v={sol.v!r}, theta={sol.theta!r}"
        if p["origin"] is not None:
            v0, theta0 = p["origin"]
            if not any(
                abs(s.v - v0) <= ORIGIN_ATOL and abs(wrap_angle(s.theta - theta0)) <= ORIGIN_ATOL
                for s in solutions
            ):
                return f"generating input ({v0!r}, {theta0!r}) not among the solutions"
        return None


class ScanWorkload:
    """Noisy large-code points, threshold/crossover searches, no grid solver."""

    name = "scan"
    latency_kind = "point"
    # (shape, points per pass); shapes fix the cost, the seed the inputs.
    POINT_CODES = (
        ((1, 1, 12), 70), ((1, 2, 6), 70), ((2, 2, 3), 70), ((1, 4, 3), 70),
        ((1, 6, 2), 80), ((2, 6, 1), 80), ((1, 12, 1), 80),
        ((1, 2, 15), 80), ((3, 2, 5), 80), ((1, 4, 7.5), 80),
        ((1, 8, 3.75), 50), ((3, 10, 1), 50),
        ((5, 2, 6), 40), ((1, 4, 15), 40), ((3, 4, 5), 40),
        ((1, 15, 4), 25), ((4, 15, 1), 25),
    )
    THRESHOLD_CODES = ((1, 2, 6), (2, 2, 3))
    CROSSOVER_CODES = ((1, 2, 6), (1, 1, 12))
    MAGIC_CODE = (1, 2, 6)
    FIGURES = ("1c", "4")
    CROSSOVER_TRIES = 64

    def __init__(self, seed: int):
        from gnumsd import GnuParams, InputEnsemble, distilled_state, m2_density

        rng = random.Random(seed)
        self.ledger = CacheLedger()
        points = []
        for shape, count in self.POINT_CODES:
            code = GnuParams(*shape)
            for _ in range(count):
                v = rng.uniform(0.05, math.pi / 2 - 0.05)
                theta = rng.uniform(-math.pi, math.pi)
                eps = rng.uniform(0.01, 0.45)
                points.append(
                    Op(
                        f"point-N{code.num_qubits}-n{code.n}",
                        "point",
                        {"code": code, "ens": InputEnsemble(v, theta, eps)},
                    )
                )
        rng.shuffle(points)
        self.ops = points
        for shape in self.THRESHOLD_CODES:
            code = GnuParams(*shape)
            self.ops.append(
                Op(f"threshold-N{code.num_qubits}-n{code.n}", "threshold", self._curve(code, rng))
            )
        self.ops.append(Op("crossover-N12", "crossover", self._crossing_pair(rng)))
        code = GnuParams(*self.MAGIC_CODE)
        v0, theta = rng.uniform(0.25, 1.32), rng.uniform(-math.pi, math.pi)
        magic = m2_density(distilled_state(code, InputEnsemble(v0, theta, 0.0)))
        self.ops.append(
            Op("solve-for-magic", "magic", {"code": code, "theta": theta, "magic": magic})
        )
        for figure_id in self.FIGURES:
            self.ops.append(Op(f"figure-{figure_id}", "figure", {"id": figure_id}))

    @staticmethod
    def _curve(code, rng) -> dict:
        v0, theta0, target = _own_target(code, rng)
        return {"code": code, "v": v0, "theta": theta0, "target": target}

    @staticmethod
    def error_curve(params: dict, max_error):
        from gnumsd.protocols import ErrorCurve

        code, v, theta, target = params["code"], params["v"], params["theta"], params["target"]
        return ErrorCurve(
            f"gnu({code.g},{code.n},{code.u:g})-own",
            lambda eps: max_error(code, v, theta, eps, target),
        )

    def _crossing_pair(self, rng) -> dict:
        """Seeded curve pair whose difference changes sign across the search grid."""
        from gnumsd import GnuParams, max_error

        codes = [GnuParams(*shape) for shape in self.CROSSOVER_CODES]
        for _ in range(self.CROSSOVER_TRIES):
            pair = [self._curve(code, rng) for code in codes]
            f, g = (self.error_curve(params, max_error) for params in pair)
            if (f(0.001) - g(0.001)) * (f(0.499) - g(0.499)) < 0.0:
                return {"f": pair[0], "g": pair[1]}
        raise RuntimeError("no crossing curve pair in the seeded candidates")

    def begin_pass(self) -> None:
        self.ledger.clear()

    def run_op(self, op: Op, api):
        p = op.params
        if op.kind == "point":
            return api.distilled_state(p["code"], p["ens"])
        if op.kind == "threshold":
            return api.find_threshold(self.error_curve(p, api.max_error))
        if op.kind == "crossover":
            return api.find_crossover(
                self.error_curve(p["f"], api.max_error), self.error_curve(p["g"], api.max_error)
            )
        if op.kind == "magic":
            return api.solve_for_magic(p["code"], p["theta"], p["magic"])
        return api.build_figure(p["id"])

    def check(self, op: Op, out) -> str | None:
        from gnumsd import InputEnsemble, distilled_state, m2_density, max_error

        p = op.params
        if op.kind == "point":
            ens = p["ens"]
            mirror = distilled_state(
                p["code"], InputEnsemble(math.pi / 2 - ens.v, ens.theta + math.pi, 1.0 - ens.eps)
            )
            dev = max(abs(out.m00 - mirror.m00), abs(out.m11 - mirror.m11), abs(out.m01 - mirror.m01))
            if dev > METAMORPHIC_ATOL:
                return f"metamorphic relation off by {dev:.3e}"
            return None
        if op.kind == "threshold":
            if out.kind != "fixed_point":
                return None
            gap = abs(self.error_curve(p, max_error)(out.threshold) - out.threshold)
            return f"|curve(t) - t| = {gap:.3e} at t={out.threshold!r}" if gap > ROOT_ATOL else None
        if op.kind == "crossover":
            f = self.error_curve(p["f"], max_error)
            g = self.error_curve(p["g"], max_error)
            gap = abs(f(out) - g(out))
            return f"|f - g| = {gap:.3e} at eps={out!r}" if gap > ROOT_ATOL else None
        if op.kind == "magic":
            got = m2_density(distilled_state(p["code"], InputEnsemble(out, p["theta"], 0.0)))
            gap = abs(got - p["magic"])
            return f"magic off by {gap:.3e} at v={out!r}" if gap > MAGIC_ATOL else None
        return compare_table(out, reference(f"figure-{p['id']}"))


def reference(name: str) -> str:
    return (REFERENCE_DIR / f"{name}.out").read_text()


# The README command set.  Entries are (label, reference name, argv); the
# distill and compose commands take a seeded variant from their menus.
CLI_COMMANDS = (
    ("figure-1c", "figure-1c", ["figure", "--id", "1c"]),
    ("figure-2b", "figure-2b", ["figure", "--id", "2b"]),
    ("figure-2c", "figure-2c", ["figure", "--id", "2c"]),
    ("figure-3b", "figure-3b", ["figure", "--id", "3b"]),
    ("figure-4", "figure-4", ["figure", "--id", "4"]),
    (
        "threshold-gnu-XT",
        "threshold-gnu-XT",
        ["threshold", "--protocol", "gnu", "--target", "XT", "--g", "1", "--n", "1", "--u", "2"],
    ),
    ("threshold-bk-T", "threshold-bk-T", ["threshold", "--protocol", "bk", "--target", "T"]),
    (
        "threshold-combined-H",
        "threshold-combined-H",
        ["threshold", "--protocol", "combined", "--target", "H"],
    ),
    (
        "solve",
        "solve",
        ["solve", "--g", "2", "--n", "1", "--u", "1", "--target", "T", "--format", "csv"],
    ),
    (
        "magic-curve",
        "magic-curve",
        ["magic-curve", "--g", "1", "--n", "1", "--u", "2", "--theta", "pi/4"],
    ),
    ("verify", "verify", ["verify"]),
)
DISTILL_MENU = (
    "--g 1 --n 1 --u 2 --v pi/4 --theta 0 --eps 0 --target XT",
    "--g 1 --n 1 --u 3 --v 3pi/16 --theta pi/4 --eps 0.05 --target XT",
    "--g 2 --n 1 --u 1 --v 0.6 --theta=-7pi/8 --eps 0.1 --target T",
    "--g 1 --n 2 --u 3 --v pi/5 --theta pi/3 --eps 0.02",
    "--g 1 --n 1 --u 4 --v 0.9 --theta 0.25pi --eps 0.2 --target XH --format csv",
    "--g 3 --n 4 --u 5 --v 0.7 --theta 1.1 --eps 0.1",
    "--g 1 --n 1 --u 2 --v pi/8 --theta pi/2 --eps 0 --target H",
    "--g 1 --n 5 --u 2 --v 1.2 --theta -2.0 --eps 0.3 --format csv",
)
COMPOSE_MENU = (
    "--eps 0.1 --target T",
    "--eps 0.01 --target T",
    "--eps 0.05 --target T --format csv",
    "--eps 0.2 --target T",
    "--eps 0.1 --target H",
    "--eps 0.02 --target H",
    "--eps 0.15 --target H --format csv",
    "--eps 0.3 --target H",
)


def cli_menu() -> list[tuple[str, str, list[str]]]:
    """Every (label, reference name, argv) the cli workload can run."""
    entries = list(CLI_COMMANDS)
    entries += [("distill", f"distill-{i}", ["distill", *a.split()]) for i, a in enumerate(DISTILL_MENU)]
    entries += [("compose", f"compose-{i}", ["compose", *a.split()]) for i, a in enumerate(COMPOSE_MENU)]
    return entries


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_cli(argv: list[str], env: dict, traced_label: str | None = None, sampled: bool = False):
    """Run one gnumsd command in a fresh interpreter; returns the CompletedProcess.

    A traced command runs through `clichild.py`, a sampled one through
    `clirun.py`, any other as `python -m gnumsd.cli`.
    """
    if traced_label is not None:
        cmd = [sys.executable, str(CHILD), traced_label, *argv]
    elif sampled:
        cmd = [sys.executable, str(SAMPLED_CHILD), *argv]
    else:
        cmd = [sys.executable, "-m", "gnumsd.cli", *argv]
    return subprocess.run(
        cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=CLI_TIMEOUT_S
    )


def child_report(stderr: str, marker: str) -> dict:
    """The JSON report a child printed on stderr after `marker`."""
    for line in reversed(stderr.splitlines()):
        if line.startswith(marker):
            return json.loads(line[len(marker):])
    raise RuntimeError(f"child sent no {marker.strip()} report")


class CliWorkload:
    """The README command set, each command a fresh `python -m gnumsd.cli` process."""

    name = "cli"
    latency_kind = "cmd"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        picks = {
            "distill": f"distill-{rng.randrange(len(DISTILL_MENU))}",
            "compose": f"compose-{rng.randrange(len(COMPOSE_MENU))}",
        }
        self.ops = [
            Op(label, "cmd", {"ref": ref, "argv": argv})
            for label, ref, argv in cli_menu()
            if picks.get(label, ref) == ref
        ]
        self.env = cli_env()
        # Filled by traced passes: one child report per command run.
        self.child_reports = []

    def begin_pass(self) -> None:
        pass

    def run_op(self, op: Op, api) -> str:
        label = op.label if api.tracer is not None else None
        speed = api.speed
        if speed is not None:
            # The child samples itself; the parent's sampler would only
            # take CPU time from it.
            speed.pause()
        try:
            start = time.perf_counter()
            done = run_cli(op.params["argv"], self.env, label, sampled=speed is not None)
            end = time.perf_counter()
        finally:
            if speed is not None:
                speed.resume()
        if done.returncode != 0:
            raise RuntimeError(f"exit {done.returncode}: {done.stderr.strip()[-300:]}")
        if speed is not None:
            speed.child(start, end, child_report(done.stderr, SPEED_MARKER))
        if label is not None:
            report = child_report(done.stderr, TRACE_MARKER)
            report["label"] = label
            self.child_reports.append(report)
        return done.stdout

    def check(self, op: Op, stdout: str) -> str | None:
        return compare_output(stdout, reference(op.params["ref"]))

    def bytes_changed(self, op: Op, stdout: str) -> bool:
        return stdout != reference(op.params["ref"])


WORKLOADS = {w.name: w for w in (SolveWorkload, ScanWorkload, CliWorkload)}
