"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench -q
"""
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import gnumsd.solver  # noqa: E402
from perfbench.run import Runner  # noqa: E402
from perfbench.speed import REF_KERNEL_S, SpeedSampler  # noqa: E402
from perfbench.stats import compare_output, percentile, tail_percentile  # noqa: E402
from perfbench.tracing import Tracer, installed  # noqa: E402
from perfbench.workloads import Op, ScanWorkload, make_api, reference  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_span_minus_covered_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.now += 1.0

    def middle():
        clock.now += 2.0
        inner()
        clock.now += 3.0

    def outer():
        clock.now += 4.0
        mid()
        clock.now += 5.0
        mid()

    inner = tracer.wrap("qmath", leaf, "leaf")
    mid = tracer.wrap("engine", middle, "middle")
    tracer.wrap("solver", outer, "outer")()

    assert tracer.spans[("bench", "solver", "outer", "")] == [1, 21.0, 9.0]
    assert tracer.spans[("solver", "engine", "middle", "")] == [2, 12.0, 10.0]
    assert tracer.spans[("engine", "qmath", "leaf", "")] == [2, 2.0, 2.0]
    assert tracer.calls("solver", "engine") == 2


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def boom():
        clock.now += 1.5
        raise ValueError("no")

    wrapped = tracer.wrap("engine", boom, "boom")
    try:
        wrapped()
    except ValueError:
        pass
    assert tracer.spans[("bench", "engine", "boom", "")] == [1, 1.5, 1.5]
    assert tracer._stack == [["bench", 1.5]]


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    samples = list(range(1, 1001))  # 1000 samples
    pct, value = tail_percentile(samples)
    assert (pct, value) == (99.0, 990)  # exactly 10 above; p99.9 leaves 1
    assert sum(s > value for s in samples) == 10
    assert tail_percentile(list(range(999)))[0] == 95.0  # p99 would leave 9
    assert tail_percentile(list(range(20)))[0] == 50.0
    assert tail_percentile(list(range(19))) is None
    assert percentile([5, 1, 3], 50) == 3


def test_perturbed_reference_value_is_a_failure():
    text = reference("compose-0")
    assert compare_output(text, text) is None
    # A 12th-significant-digit flip stays within the 1e-9 tolerance.
    flipped = text.replace("0.0653820055896", "0.0653820055897")
    assert flipped != text and compare_output(flipped, text) is None
    perturbed = text.replace("0.0653820055896", "0.0653820155896")
    assert "number" in compare_output(perturbed, text)
    assert "text differs" in compare_output(text.replace("error_total", "error"), text)

    class Fake:
        name = "fake"
        latency_kind = "cmd"
        ops = [Op("compose", "cmd", {})]

        def __init__(self, outputs):
            self.outputs = iter(outputs)

        def begin_pass(self):
            pass

        def run_op(self, op, api):
            return next(self.outputs)

        def check(self, op, out):
            return compare_output(out, text)

        def bytes_changed(self, op, out):
            return out != text

    runner = Runner(Fake([text, flipped, perturbed]))
    for _ in range(3):
        runner.run(None, budget_s=0.0)
    assert runner.attempted == 3
    assert [label for label, _ in runner.failures] == ["compose"]
    assert runner.bytes_changed == 2


def _traced_engine_calls(seed: int) -> int:
    workload = ScanWorkload(seed)
    workload.ops = workload.ops[:60] + [op for op in workload.ops if op.kind == "threshold"][:1]
    tracer = Tracer()
    with installed(tracer):
        log = Runner(workload).run(make_api(tracer), budget_s=0.0)
    assert len(log["walls"]) == 1
    return sum(rec[0] for key, rec in tracer.spans.items() if key[1] == "engine")


def test_traced_engine_calls_repeat_for_a_seed():
    first = _traced_engine_calls(7)
    assert first > 60
    assert _traced_engine_calls(7) == first


def test_installed_restores_every_binding():
    original = gnumsd.solver.distilled_state
    with installed(Tracer()):
        assert gnumsd.solver.distilled_state is not original
        assert gnumsd.solver.distilled_state.__wrapped__ is original
    assert gnumsd.solver.distilled_state is original


def test_reference_seconds_rescale_by_kernel_speed_and_drop_sampler_time():
    speed = SpeedSampler()
    # One sample a second; the kernel runs at half the reference speed
    # until t = 10, and each handler call takes 0.1 s.
    speed.samples = [(t, 2 * REF_KERNEL_S if t < 10 else REF_KERNEL_S, 0.1) for t in range(20)]
    # Inside (0.5, 3.5): samples at 1, 2, 3; with neighbours 0..7, all at
    # half speed.
    assert abs(speed.ref_s(0.5, 3.5) - (3.0 - 0.3) / 2) < 1e-12
    # Waiting on a child process: the sampler's time stays in.
    assert abs(speed.ref_s(0.5, 3.5, in_process=False) - 3.0 / 2) < 1e-12
    # Sample 10 and its neighbours 6..14: four slow, five fast, weighed by count.
    assert abs(speed.ref_s(9.5, 10.5, in_process=False) - (4 * 0.5 + 5 * 1.0) / 9) < 1e-12
    # A child that sampled itself supplies its own kernel times and sampler time.
    speed.child(20.1, 21.1, {"kernel_s": [REF_KERNEL_S, 2 * REF_KERNEL_S], "handler_s": 0.2})
    assert abs(speed.ref_s(20.0, 21.2) - (1.2 - 0.2) * 0.75) < 1e-12


def test_sampler_times_the_kernel_while_active_and_stops_after():
    import signal
    import time

    with SpeedSampler() as speed:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    taken = len(speed.samples)
    assert taken >= 3
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    time.sleep(0.05)
    assert len(speed.samples) == taken
