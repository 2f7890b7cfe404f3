"""Layered benchmark of gnumsd: one seeded workload, timed or traced.

    python3 perfbench/run.py --workload {solve,scan,cli} --seed N --seconds S --trace {0,1}

Run from the repository root; the program is imported from `src/`.  With
`--trace 0` the workload's fixed op list is run in passes, untraced, for
about S seconds and the end-to-end metrics are reported.  With `--trace 1`
the first half of the time runs untraced passes and the second half traced
ones, and the per-layer metrics are reported.  Outputs are checked outside
the timed region.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# Set-up probes per untraced run: at least MIN, at most MAX.
SETUP_PROBES = (5, 9)
PROBE_TIMEOUT_S = 60
FIGURE_IDS = ("1c", "4", "2b", "2c", "3b")


def pin_environment() -> None:
    """Serial everywhere: no figure worker pool, one BLAS/OpenMP thread, one CPU.

    The process and every child it starts share one CPU, so the speed
    sampler times the kernel on the CPU that runs the work it rescales.
    """
    os.environ.pop("MSD_THREADS", None)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "MSD_THREADS": os.environ.get("MSD_THREADS"),
        **{var: os.environ[var] for var in THREAD_VARS},
    }


def probe_setup(workload: str, seed: int, env: dict) -> tuple[float, float]:
    """Wall interval from launching a fresh interpreter to a built workload."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "probe.py"), workload, str(seed)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    ) as probe:
        line = probe.stdout.readline()
        end = time.perf_counter()
        probe.stdout.read()
        code = probe.wait(timeout=PROBE_TIMEOUT_S)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe for {workload} failed with exit {code}")
    return start, end


class OpError:
    """An op that raised instead of returning an output."""

    def __init__(self, reason: str):
        self.reason = reason


class Runner:
    """Runs passes of a workload's op list and checks every output."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []
        self.bytes_changed = 0
        # op index -> (output, verdict) of its first check; equal outputs
        # on later passes reuse the verdict instead of re-running the check.
        self._verdicts: dict[int, tuple[object, str | None]] = {}

    def run(self, api, budget_s: float, between=None) -> dict:
        """Passes until the next would overrun `budget_s` (at least one).

        Each pass runs the op list in its own fixed shuffled order, so an op's
        samples fall at different points of the machine's slow phases.
        `between()` runs after each pass, inside the budget.  Returns
        {"walls": [seconds per pass], "op_s": [[seconds per pass] per op],
        "spans": [[(start, end) per pass] per op], "peak_rss_mb": high-water
        mark after the first pass}.
        """
        clock, workload = time.perf_counter, self.workload
        log = {"walls": [], "op_s": [[] for _ in workload.ops], "spans": [[] for _ in workload.ops]}
        start = clock()
        while True:
            order = list(range(len(workload.ops)))
            random.Random(len(log["walls"])).shuffle(order)
            workload.begin_pass()
            outputs = [None] * len(order)
            pass_start = clock()
            for index in order:
                op_start = clock()
                try:
                    outputs[index] = workload.run_op(workload.ops[index], api)
                except Exception as exc:  # counted as a failed op; the run goes on
                    outputs[index] = OpError(f"{type(exc).__name__}: {exc}")
                op_end = clock()
                log["op_s"][index].append(op_end - op_start)
                log["spans"][index].append((op_start, op_end))
            log["walls"].append(clock() - pass_start)
            if len(log["walls"]) == 1:
                # Taken before these logs grow with the number of passes.
                log["peak_rss_mb"] = peak_rss_mb(children=workload.name == "cli")
            self._check(outputs)
            if between is not None:
                between()
            if clock() - start + log["walls"][-1] > budget_s:
                return log

    def _check(self, outputs) -> None:
        workload = self.workload
        for index, (op, out) in enumerate(zip(workload.ops, outputs)):
            self.attempted += 1
            if isinstance(out, OpError):
                self.failures.append((op.label, out.reason))
                continue
            first = self._verdicts.get(index)
            if first is not None and _same(first[0], out):
                verdict = first[1]
            else:
                try:
                    verdict = workload.check(op, out)
                except Exception as exc:  # a check that cannot run is a failed op
                    verdict = f"check raised {type(exc).__name__}: {exc}"
                self._verdicts.setdefault(index, (out, verdict))
            if verdict:
                self.failures.append((op.label, verdict))
            if hasattr(workload, "bytes_changed"):
                self.bytes_changed += workload.bytes_changed(op, out)


def _same(a, b) -> bool:
    try:
        return bool(a == b)
    except (TypeError, ValueError):
        return False


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def pass_time(op_s) -> float:
    """One pass with every op at its median time over the run's passes.

    The machine's speed swings for seconds at a time; the per-op median
    discards the slow phases a pass total would absorb.
    """
    return sum(_median(samples) for samples in op_s)


def op_medians(workload, op_s) -> list[float]:
    """Median time over passes of each op of the workload's latency kind."""
    return [
        _median(samples)
        for op, samples in zip(workload.ops, op_s)
        if op.kind == workload.latency_kind
    ]


def end_to_end(workload, log, setup_spans, speed) -> dict:
    """The end-to-end metrics, every time in seconds at the reference speed."""
    in_process = workload.name != "cli"
    op_s = [[speed.ref_s(*span, in_process) for span in spans] for spans in log["spans"]]
    return {
        "wall_s": (pass_time(op_s), "s"),
        "setup_s": (_median([speed.ref_s(*span, False) for span in setup_spans]), "s"),
        "peak_rss_mb": (log["peak_rss_mb"], "MB"),
        "op_p50_s": (_median(op_medians(workload, op_s)), "s"),
    }


def latency_line(workload, log) -> str:
    """The workload's own latency names over every sample, with the tail."""
    from perfbench.stats import percentile, tail_percentile

    samples = [
        t
        for op, times in zip(workload.ops, log["op_s"])
        if op.kind == workload.latency_kind
        for t in times
    ]
    scale, unit, name = {
        "solve": (1.0, "s", "solve"),
        "point": (1e6, "us", "point"),
        "cmd": (1.0, "s", "cmd"),
    }[workload.latency_kind]
    parts = [f"{name}_p50_{unit}={percentile(samples, 50) * scale:.6g}"]
    if len(samples) >= 1000:
        parts.append(f"{name}_p99_{unit}={percentile(samples, 99) * scale:.6g}")
    tail = tail_percentile(samples)
    if tail is not None:
        parts.append(f"tail p{tail[0]:g}={tail[1] * scale:.6g}{unit}")
    return " ".join(parts) + f" (n={len(samples)}; tail = highest percentile with >= 10 samples beyond)"


def layer_metrics(tracer, passes: int, caches: dict, workload, untraced, traced, bytes_changed) -> dict:
    """Per-layer metrics of one traced pass (totals over traced passes / passes)."""
    from perfbench.tracing import LAYERS, N_CLASSES

    per = 1.0 / passes
    m = {}
    calls = defaultdict(int)
    self_s = defaultdict(float)
    engine = defaultdict(lambda: [0, 0.0])  # (noise, class) -> [calls, self_s]
    for (_, layer, name, tag), (n_calls, total, own) in tracer.spans.items():
        calls[layer] += n_calls
        self_s[layer] += own
        if layer == "engine" and tag:
            noise, n_cls, comp_cls = tag.split("|")
            for key in ((noise, n_cls), (noise, comp_cls), (noise, "all")):
                engine[key][0] += n_calls
                engine[key][1] += own

    def per_call_us(key) -> float:
        n_calls, own = engine[key]
        return own / n_calls * 1e6 if n_calls else 0.0

    def total_s(layer, name, tag=None) -> float:
        return per * sum(
            rec[1]
            for (_, l, n, t), rec in tracer.spans.items()
            if l == layer and n == name and tag in (None, t)
        )

    m["engine.calls"] = (calls["engine"] * per, "count")
    m["qmath.calls"] = (calls["qmath"] * per, "count")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_s[layer] * per, "s")
    for n_cls, _ in N_CLASSES:
        m[f"engine.noiseless_us.{n_cls}"] = (per_call_us(("noiseless", n_cls)), "us")
    for cls in ("N12", "N30", "N60", "n_small", "n_large"):
        m[f"engine.noisy_us.{cls}"] = (per_call_us(("noisy", cls)), "us")

    classified = engine[("noiseless", "all")][0] + engine[("noisy", "all")][0]

    def share(key) -> float:
        return engine[key][0] / classified if classified else 0.0

    for noise in ("noiseless", "noisy"):
        m[f"input.share.{noise}"] = (share((noise, "all")), "ratio")
        for cls in [c for c, _ in N_CLASSES] + ["n_small", "n_mid", "n_large"]:
            m[f"input.share.{noise}.{cls}"] = (share((noise, cls)), "ratio")

    hits, misses = caches.get("solve_to_density.hits", 0), caches.get("solve_to_density.misses", 0)
    solver_engine = tracer.calls("solver", "engine")
    m["input.share.solver_cache_hits"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    m["solver.cache_hits"] = (hits * per, "count")
    m["solver.cache_misses"] = (misses * per, "count")
    m["solver.engine_calls_per_solve"] = (solver_engine / misses if misses else 0.0, "count")
    m["solver.solutions_per_engine_call"] = (
        tracer.counters.get("solver.solutions", 0) / solver_engine if solver_engine else 0.0,
        "ratio",
    )
    m["protocols.curve_evals"] = (tracer.counters.get("protocols.curve_evals", 0) * per, "count")
    m["protocols.threshold_s"] = (total_s("protocols", "find_threshold"), "s")
    m["protocols.crossover_s"] = (total_s("protocols", "find_crossover"), "s")
    m["protocols.canonical_cache_hits"] = (caches.get("canonical_params.hits", 0) * per, "count")
    m["protocols.canonical_cache_misses"] = (caches.get("canonical_params.misses", 0) * per, "count")
    for figure_id in FIGURE_IDS:
        m[f"figures.build_s.{figure_id}"] = (total_s("figures", "build_figure", figure_id), "s")

    m.update(cli_metrics(workload, traced, per, bytes_changed))
    m["trace.overhead_s"] = (pass_time(traced["op_s"]) - pass_time(untraced["op_s"]), "s")
    return m


def cli_metrics(workload, traced, per: float, bytes_changed: int) -> dict:
    """Child-process timings of the cli workload; zeros for the other workloads."""
    from perfbench.workloads import CLI_COMMANDS

    labels = [label for label, _, _ in CLI_COMMANDS] + ["distill", "compose"]
    reports = getattr(workload, "child_reports", [])
    wall_s = {op.label: _median(samples) for op, samples in zip(workload.ops, traced["op_s"])}
    main_s = defaultdict(list)
    for report in reports:
        main_s[report["label"]].append(report["main_s"])
    m = {"cli.import_s": (_median([r["import_s"] for r in reports]), "s")}
    overheads = []
    for label in sorted(labels):
        in_process = _median(main_s[label])
        m[f"cli.cmd_s.{label}"] = (in_process, "s")
        overhead = wall_s[label] - in_process if main_s[label] else 0.0
        m[f"cli.process_overhead_s.{label}"] = (overhead, "s")
        if main_s[label]:
            overheads.append(overhead)
    m["cli.process_overhead_s"] = (_median(overheads), "s")
    m["cli.bytes_changed"] = (bytes_changed * per, "count")
    return m


def child_caches(workload) -> dict:
    totals = defaultdict(int)
    for report in getattr(workload, "child_reports", []):
        for name, info in report["caches"].items():
            totals[f"{name}.hits"] += info["hits"]
            totals[f"{name}.misses"] += info["misses"]
    return totals


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("solve", "scan", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gnumsd" / "__init__.py").is_file():
        print(f"perfbench: no gnumsd sources at {SRC}", file=sys.stderr)
        return 2
    pin_environment()
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.speed import SpeedSampler
    from perfbench.tracing import Tracer, installed
    from perfbench.workloads import WORKLOADS, cli_env, make_api

    env = cli_env()
    setup_spans = []

    def probe() -> None:
        if len(setup_spans) < SETUP_PROBES[1]:
            setup_spans.append(probe_setup(args.workload, args.seed, env))

    workload = WORKLOADS[args.workload](args.seed)
    runner = Runner(workload)
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} ops/pass={len(workload.ops)}")
    print("env " + json.dumps(environment()))

    start = time.perf_counter()
    if not args.trace:
        # Set-up probes are spread over the run, one after each pass, so
        # their median does not hang on one phase of the machine's speed.
        with SpeedSampler() as speed:
            log = runner.run(make_api(speed=speed), args.seconds, between=probe)
            while len(setup_spans) < SETUP_PROBES[0]:
                probe()
        metrics = end_to_end(workload, log, setup_spans, speed)
        print(f"passes={len(log['walls'])} " + latency_line(workload, log))
        raw_setup = _median([end - start for start, end in setup_spans])
        print(
            f"raw wall clock: wall_s={pass_time(log['op_s']):.6g} "
            f"op_p50_s={_median(op_medians(workload, log['op_s'])):.6g} setup_s={raw_setup:.6g}; "
            f"speed samples={len(speed.samples)} "
            f"kernel_p50_s={_median([k for _, k, _ in speed.samples]):.6g}"
        )
    else:
        untraced = runner.run(make_api(), args.seconds / 2)
        ledger = getattr(workload, "ledger", None)
        if ledger is not None:
            ledger.take()
        tracer = Tracer()
        remaining = args.seconds - (time.perf_counter() - start)
        changed_before = runner.bytes_changed
        with installed(tracer):
            traced = runner.run(make_api(tracer), remaining)
        for report in getattr(workload, "child_reports", []):
            tracer.merge(report["trace"])
        caches = ledger.take() if ledger is not None else child_caches(workload)
        metrics = layer_metrics(
            tracer,
            len(traced["walls"]),
            caches,
            workload,
            untraced,
            traced,
            runner.bytes_changed - changed_before,
        )
        print(f"passes untraced={len(untraced['walls'])} traced={len(traced['walls'])}")
        for (caller, layer, name, tag), (n_calls, total, own) in sorted(tracer.spans.items()):
            print(
                f"span {caller}->{layer}.{name}[{tag}] calls={n_calls} "
                f"total_s={total:.6f} self_s={own:.6f}"
            )

    failed_ops = len(runner.failures)
    print(f"error_rate={failed_ops / runner.attempted:.6g} ({failed_ops} of {runner.attempted} ops failed)")
    for label, reason in runner.failures[:20]:
        print(f"perfbench: {label}: {reason}", file=sys.stderr)
    result = {
        "correct": failed_ops == 0,
        "attempted": runner.attempted,
        "failed": failed_ops,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
