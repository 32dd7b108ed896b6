"""Outside-in span tracing for the benchmark.

Timing wrappers are swapped onto the module attributes through which quantlink
looks its functions up (``quantlink.library.design_channel_optimized``,
``quantlink.simulator.optimize_plan``, ``QuantizerLibrary.digest`` ...), so the
program itself is unchanged. Each wrapped call records a span: name, start,
end, parent span and op id. Spans are kept in memory and written out once, at
the end of the run. A wrapper records nothing unless a benchmark operation is
open (``Tracer.op``) and not paused (``Tracer.paused``), so the benchmark's own
output checks, which call the same functions, stay out of the layer figures.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict
from contextlib import contextmanager

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    """In-memory span store plus named counters."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, op id]
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._op = -1
        self._next_op = 0
        self._paused = 0

    @property
    def recording(self) -> bool:
        return bool(self._stack) and not self._paused

    @contextmanager
    def paused(self):
        """Wrapped calls made inside record nothing; their time stays in the caller's span."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def enter(self, name: str, new_op: bool = False) -> int:
        if new_op:
            self._op = self._next_op
            self._next_op += 1
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self._op])
        self._stack.append(idx)
        return idx

    def exit(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def parent_name(self) -> str | None:
        return self.spans[self._stack[-1]][NAME] if self._stack else None

    @contextmanager
    def op(self, kind: str):
        """Root span for one benchmark operation; it gets a fresh op id."""
        idx = self.enter(f"bench.{kind}", new_op=True)
        try:
            yield
        finally:
            self.exit(idx)

    def write(self, path) -> None:
        names = sorted({s[NAME] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "fields": ["name", "start", "end", "parent", "op"],
            "names": names,
            "spans": [[index[s[NAME]], s[START], s[END], s[PARENT], s[OP]] for s in self.spans],
            "counters": dict(self.counters),
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the part of its interval its children cover."""
    out = [s[END] - s[START] for s in spans]
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    for idx, kids in children.items():
        lo, hi = spans[idx][START], spans[idx][END]
        covered, reach = 0.0, lo
        for a, b in sorted(kids):
            a, b = max(a, reach), min(b, hi)
            if b > a:
                covered += b - a
                reach = b
        out[idx] -= covered
    return out


class Installer:
    """Swaps wrappers onto attributes and puts every original back on restore()."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name, on_return=None, new_op_under: str | None = None):
        """Wrap owner.attr so that each call records a span called `name`.

        on_return(tracer, args, kwargs, result) updates counters after the call;
        new_op_under starts a fresh op id when the parent span has that name.
        """
        fn = getattr(owner, attr)
        tracer = self.tracer

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            idx = tracer.enter(name, new_op_under is not None and tracer.parent_name() == new_op_under)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(idx)
            if on_return is not None:
                on_return(tracer, args, kwargs, result)
            return result

        self.replace(owner, attr, wrapper)

    def replace(self, owner, attr: str, wrapper) -> None:
        fn = getattr(owner, attr)
        wrapper.__wrapped__ = fn
        wrapper.benchmark_wrapper = True
        self._saved.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def install(tracer: Tracer, ql) -> Installer:
    """Wrap quantlink's layer boundaries; `ql` maps module names to modules."""
    import numpy as np

    inst = Installer(tracer)
    library, quantizer, modem = ql["library"], ql["quantizer"], ql["modem"]
    allocator, channel, simulator = ql["allocator"], ql["channel"], ql["simulator"]

    # quantizer design: pass a trace list through to count alternation iterations
    design = library.design_channel_optimized

    def traced_design(bit_depth, *args, **kwargs):
        if not tracer.recording:
            return design(bit_depth, *args, **kwargs)
        trace = kwargs.get("trace")
        if trace is None:
            trace = kwargs["trace"] = []
        before = len(trace)
        idx = tracer.enter(f"quantizer.design.b{bit_depth}")
        try:
            return design(bit_depth, *args, **kwargs)
        finally:
            tracer.exit(idx)
            tracer.counters[f"quantizer.iters.b{bit_depth}"] += len(trace) - before

    inst.replace(library, "design_channel_optimized", traced_design)

    inst.wrap(quantizer, "design_lloyd_max", "quantizer.lloyd_max")
    inst.wrap(quantizer, "interval_moments", "gaussian.interval_moments")

    def count_symbols(t, args, kwargs, result):
        t.counters["modem.demodulate.symbols"] += int(np.size(_arg(args, kwargs, 0, "symbol")))

    inst.wrap(modem, "snr_threshold", "modem.snr_threshold")
    inst.wrap(modem, "demodulate", "modem.demodulate", count_symbols)

    inst.wrap(library, "build_library", "library.build")
    inst.wrap(library, "save_library", "library.save")
    inst.wrap(library, "load_library", "library.load")
    inst.wrap(library.QuantizerLibrary, "digest", "library.digest")

    def count_steps(t, args, kwargs, result):
        t.counters["allocator.loading.steps"] += result[2] // 2  # each step adds 2 bits

    def count_rounds(t, args, kwargs, result):
        before = int(np.sum(_arg(args, kwargs, 2, "bits")))
        t.counters["allocator.refine.rounds"] += int(result[0].sum()) - before

    def count_plan(t, args, kwargs, result):
        t.counters["allocator.dummy_bits"] += result.dummy_bits
        t.counters["allocator.capacity_bits"] += result.t_sym * result.r_sym

    inst.wrap(allocator, "minimum_bit_allocation", "allocator.min_bits")
    inst.wrap(allocator, "allocate_power_modulation", "allocator.loading", count_steps)
    inst.wrap(allocator, "select_ber_target", "allocator.select")
    inst.wrap(allocator, "refine_bit_allocation", "allocator.refine", count_rounds)
    inst.wrap(allocator, "build_bit_mapping", "allocator.mapping")
    inst.wrap(allocator, "validate_plan", "allocator.validate")
    for owner in (allocator, simulator):
        inst.wrap(owner, "optimize_plan", "allocator.optimize_plan", count_plan,
                  new_op_under="simulator.run_experiment")

    inst.wrap(channel, "realize_channel", "channel.realize")
    inst.wrap(channel, "transmit_symbols", "channel.transmit")
    inst.wrap(channel, "equalize", "channel.equalize")

    def count_frame(t, args, kwargs, result):
        plan = _arg(args, kwargs, 2, "plan")
        t.counters["simulator.frames"] += 1
        t.counters["simulator.bits_sent"] += result.bits_sent
        t.counters["simulator.bit_errors"] += float(result.realized_errors_per_subcarrier.sum())
        t.counters["simulator.expected_errors"] += float(
            result.realized_bits_per_subcarrier.sum() * plan.epsilon_star
        )

    inst.wrap(simulator, "run_experiment", "simulator.run_experiment")
    inst.wrap(simulator, "run_trial", "simulator.run_trial", count_frame)
    inst.wrap(simulator, "sample_latents", "simulator.sample",
              new_op_under="simulator.run_experiment")
    return inst


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, ops: int, loads: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures from the spans and counters of one traced pass.

    Times are seconds per benchmark operation (column, block or frame), except
    the per-depth design times (seconds per cell) and library.load_s (seconds
    per load). Layers a workload does not reach read 0.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    root = [0] * len(spans)
    for i, s in enumerate(spans):
        root[i] = i if s[PARENT] < 0 else root[s[PARENT]]
    # set-up spans only feed library.load_s; everything else is the operation phase
    in_ops = [spans[root[i]][NAME] != "bench.setup" for i in range(len(spans))]
    load_s = sum(s[END] - s[START] for s, keep in zip(spans, in_ops)
                 if not keep and s[NAME] == "library.load")
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    lm_under: dict[str, float] = defaultdict(float)
    plan_under_sim = 0.0
    for s, self_s, keep in zip(spans, selfs, in_ops):
        if not keep:
            continue
        name, dur = s[NAME], s[END] - s[START]
        total[name] += dur
        own[name] += self_s
        calls[name] += 1
        parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else None
        if name == "quantizer.lloyd_max" and parent:
            lm_under[parent] += dur
        if name == "allocator.optimize_plan" and parent == "simulator.run_experiment":
            plan_under_sim += dur
    c = tracer.counters
    per_op = max(ops, 1)
    m: dict[str, tuple[float, str]] = {}
    for b in range(1, 9):
        key = f"quantizer.design.b{b}"
        cells = calls[key]
        m[f"quantizer.design_s.b{b}"] = (_ratio(total[key] - lm_under[key], cells), "s/cell")
        m[f"quantizer.iters.b{b}"] = (_ratio(c[f"quantizer.iters.b{b}"], cells), "iters/cell")
    m["quantizer.ms_per_iter.b8"] = (
        _ratio(1e3 * (total["quantizer.design.b8"] - lm_under["quantizer.design.b8"]),
               c["quantizer.iters.b8"]),
        "ms",
    )
    m["quantizer.lloyd_max_s"] = (total["quantizer.lloyd_max"] / per_op, "s/op")
    m["gaussian.interval_moments_s"] = (total["gaussian.interval_moments"] / per_op, "s/op")
    m["gaussian.interval_moments.calls"] = (calls["gaussian.interval_moments"] / per_op, "calls/op")
    m["modem.snr_threshold_s"] = (total["modem.snr_threshold"] / per_op, "s/op")
    m["modem.demodulate_s"] = (total["modem.demodulate"] / per_op, "s/op")
    m["modem.demodulate.symbols"] = (c["modem.demodulate.symbols"] / per_op, "symbols/op")
    m["library.self_s"] = (own["library.build"] / per_op, "s/op")
    m["library.serialize_s"] = (total["library.save"] / per_op, "s/op")
    m["library.load_s"] = (_ratio(load_s, loads), "s/load")
    m["library.digest_s"] = (total["library.digest"] / per_op, "s/op")
    m["library.digest.calls"] = (calls["library.digest"] / per_op, "calls/op")
    m["allocator.min_bits_s"] = (total["allocator.min_bits"] / per_op, "s/op")
    m["allocator.loading_s"] = (total["allocator.loading"] / per_op, "s/op")
    m["allocator.loading.steps"] = (c["allocator.loading.steps"] / per_op, "steps/op")
    m["allocator.select_s"] = (total["allocator.select"] / per_op, "s/op")
    m["allocator.refine_s"] = (total["allocator.refine"] / per_op, "s/op")
    m["allocator.refine.rounds"] = (c["allocator.refine.rounds"] / per_op, "rounds/op")
    m["allocator.mapping_s"] = (total["allocator.mapping"] / per_op, "s/op")
    m["allocator.self_s"] = (own["allocator.optimize_plan"] / per_op, "s/op")
    m["allocator.validate_s"] = (total["allocator.validate"] / per_op, "s/op")
    m["allocator.dummy_fraction"] = (_ratio(c["allocator.dummy_bits"], c["allocator.capacity_bits"]), "ratio")
    m["channel.realize_s"] = (total["channel.realize"] / per_op, "s/op")
    m["channel.transmit_s"] = (total["channel.transmit"] / per_op, "s/op")
    m["channel.equalize_s"] = (total["channel.equalize"] / per_op, "s/op")
    m["simulator.plan_s"] = (plan_under_sim / per_op, "s/op")
    m["simulator.trial_s"] = (total["simulator.run_trial"] / per_op, "s/op")
    m["simulator.trial_self_s"] = (own["simulator.run_trial"] / per_op, "s/op")
    m["simulator.sample_s"] = (total["simulator.sample"] / per_op, "s/op")
    m["simulator.self_s"] = (own["simulator.run_experiment"] / per_op, "s/op")
    m["simulator.bits_per_frame"] = (_ratio(c["simulator.bits_sent"], c["simulator.frames"]), "bits")
    m["simulator.realized_ber_over_target"] = (
        _ratio(c["simulator.bit_errors"], c["simulator.expected_errors"]),
        "ratio",
    )
    m["trace.spans"] = (float(sum(in_ops)), "count")
    m["trace.self_sum_s"] = (sum(v for v, keep in zip(selfs, in_ops) if keep), "s")
    m["trace.bench_self_s"] = (
        sum(v for i, v in enumerate(selfs) if in_ops[i] and root[i] == i), "s"
    )
    return m
