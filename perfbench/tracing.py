"""Run-time layer tracing for gnumsd, applied from outside the package.

Every gnumsd module is one layer.  `installed(tracer)` replaces, in each
module's namespace, the functions that module imported from another gnumsd
module with a wrapper that records a span, so each span sits on a boundary
between two layers and is attributed to the callee.  Nothing under `src/`
changes; leaving the context restores every original binding.

Spans are aggregated as they close, keyed by (layer, function, tag): a cold
solve alone crosses a boundary about 80k times, so the tracer keeps counts
and sums rather than one record per span.  A span's self time is its
duration minus the time its child spans cover.
"""
from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = (
    "qmath",
    "codes",
    "engine",
    "closed_forms",
    "oracle",
    "verify",
    "protocols",
    "solver",
    "figures",
    "cli",
)

# Prefix of the stderr line on which a traced child process reports.
TRACE_MARKER = "PERFBENCH-TRACE "

# Helpers called from the engine's and solver's innermost loops.  Wrapping
# them would multiply the cost of the code under test, so their time stays
# in the caller's self time.
UNTRACED = frozenset({"binomial", "wrap_angle"})

# (code, eps) classes of engine calls.  N classes are named after the code
# sizes the workloads use; their edges are inclusive upper bounds.
N_CLASSES = (("N2", 6), ("N12", 20), ("N30", 44), ("N60", 60))
N_SMALL_MAX = 4


def n_class(num_qubits: int) -> str:
    for name, upper in N_CLASSES:
        if num_qubits <= upper:
            return name
    raise ValueError(f"no N class for {num_qubits} qubits")


def component_class(n: int, num_qubits: int) -> str:
    """n_small: n <= 4; n_large: n > 4 and n >= N/4; n_mid otherwise."""
    if n <= N_SMALL_MAX:
        return "n_small"
    return "n_large" if 4 * n >= num_qubits else "n_mid"


def engine_class(code, eps: float) -> str:
    noise = "noiseless" if eps == 0.0 else "noisy"
    return f"{noise}|{n_class(code.num_qubits)}|{component_class(code.n, code.num_qubits)}"


# Boundary functions whose results are counted: the solutions a solve returns.
RESULT_COUNTERS = {
    "solve_to_density": "solver.solutions",
    "solve_input_params": "solver.solutions",
}


class Tracer:
    """Aggregating span recorder for one single-threaded process.

    `spans` maps (caller layer, layer, function, tag) to [calls, total_s,
    self_s]; the caller of a span opened by the benchmark itself is "bench".
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # Each frame is [layer, time covered by its child spans].
        self._stack = [["bench", 0.0]]
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters = defaultdict(int)
        # id(code) -> (code, noiseless tag, noisy tag); building the tag
        # string on every engine call would double the tracing cost.
        self._code_tags = {}

    def _engine_tag(self, code, eps: float) -> str:
        entry = self._code_tags.get(id(code))
        if entry is None or entry[0] is not code:
            entry = (code, engine_class(code, 0.0), engine_class(code, 1.0))
            self._code_tags[id(code)] = entry
        return entry[1] if eps == 0.0 else entry[2]

    def _tagger(self, name: str):
        """Tag extractor for the boundary functions whose arguments matter."""
        if name in ("distilled_state", "codespace_projection"):
            return lambda args: self._engine_tag(args[0], args[1].eps)
        if name == "max_error":
            return lambda args: self._engine_tag(args[0], args[3])
        if name == "build_figure":
            return lambda args: str(args[0])
        return None

    def wrap(self, layer: str, fn, name: str | None = None, tag=None):
        """Return `fn` wrapped in a span of `layer`; `tag(args)` refines the key."""
        name = name or fn.__name__
        tag = tag or self._tagger(name)
        counter = RESULT_COUNTERS.get(name)
        clock, stack, spans, counters = self.clock, self._stack, self.spans, self.counters

        def traced(*args, **kwargs):
            parent = stack[-1]
            record = spans[(parent[0], layer, name, tag(args) if tag and args else "")]
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - frame[1]
            if counter:
                counters[counter] += len(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = name
        return traced

    def calls(self, caller: str, layer: str) -> int:
        """Boundary crossings from one layer into another."""
        return sum(
            rec[0] for (c, l, _, _), rec in self.spans.items() if c == caller and l == layer
        )

    def snapshot(self) -> dict:
        """Plain-JSON form of everything recorded, for merging across processes."""
        return {
            "spans": [[*key, *value] for key, value in self.spans.items()],
            "counters": dict(self.counters),
        }

    def merge(self, snap: dict) -> None:
        for caller, layer, name, tag, calls, total, self_s in snap["spans"]:
            record = self.spans[(caller, layer, name, tag)]
            record[0] += calls
            record[1] += total
            record[2] += self_s
        for key, value in snap["counters"].items():
            self.counters[key] += value


def _layer_of(value) -> str | None:
    """The gnumsd layer defining a callable, or None for anything else."""
    if isinstance(value, type) or not callable(value):
        return None
    module = getattr(value, "__module__", None) or ""
    if module.startswith("gnumsd.") and module[len("gnumsd."):] in LAYERS:
        return module[len("gnumsd."):]
    return None


def _count_curve_evals(tracer: Tracer, call):
    def counted(self, eps):
        tracer.counters["protocols.curve_evals"] += 1
        return call(self, eps)

    return counted


@contextmanager
def installed(tracer: Tracer):
    """Wrap every cross-layer function binding in gnumsd for the duration."""
    patches = []
    try:
        for layer in LAYERS:
            module = importlib.import_module(f"gnumsd.{layer}")
            for attr, value in list(vars(module).items()):
                callee = _layer_of(value)
                if callee is not None and callee != layer and attr not in UNTRACED:
                    patches.append((module, attr, value))
                    setattr(module, attr, tracer.wrap(callee, value, attr))
                elif isinstance(value, dict) and value:
                    # Dispatch tables such as verify.CLOSED_FORMS.
                    callees = {_layer_of(v) for v in value.values()}
                    if len(callees) == 1 and None not in callees and layer not in callees:
                        (callee,) = callees
                        patches.append((module, attr, value))
                        setattr(
                            module,
                            attr,
                            {k: tracer.wrap(callee, v) for k, v in value.items()},
                        )
        curve = importlib.import_module("gnumsd.protocols").ErrorCurve
        patches.append((curve, "__call__", curve.__call__))
        curve.__call__ = _count_curve_evals(tracer, curve.__call__)
        yield tracer
    finally:
        for owner, attr, value in reversed(patches):
            setattr(owner, attr, value)


def lru_caches() -> dict:
    """The package's lru caches whose hit rates the benchmark reports."""
    solver = importlib.import_module("gnumsd.solver")
    protocols = importlib.import_module("gnumsd.protocols")
    return {
        "solve_to_density": solver.solve_to_density,
        "canonical_params": protocols.canonical_params,
        "stage_a_curve": protocols.stage_a_curve,
    }


class CacheLedger:
    """Hit and miss totals of the lru caches across `clear()` calls."""

    def __init__(self):
        self.totals = defaultdict(int)

    def clear(self) -> None:
        """Bank the current cache statistics, then empty every cache."""
        for name, cached in lru_caches().items():
            info = cached.cache_info()
            self.totals[f"{name}.hits"] += info.hits
            self.totals[f"{name}.misses"] += info.misses
            cached.cache_clear()

    def take(self) -> dict:
        """Clear, and return and reset the banked totals."""
        self.clear()
        totals, self.totals = dict(self.totals), defaultdict(int)
        return totals
