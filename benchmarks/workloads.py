"""The three benchmark workloads and the pass that runs one of them.

Every workload is closed-loop: one caller runs its operations one after
another through quantlink's public API. Inputs come from the seed only:

  design-grid  build_library at b_max = 8, one call per BER-target column; the
               seed picks one target from each adjacent pair of the default
               10-target grid; one operation is one column
  plan-blocks  optimize_plan on one coherence block per operation; a round
               holds every (profile, source, SNR) combination of exp-pdp(300)
               or tdl-c, 512 or 4096 log-uniform latents and 5, 10 or 15 dB,
               block_reps times, each block with its own seeded channel
  link-frames  run_experiment on a seeded 4096-latent source over
               exp-pdp(300), one call per (experiment, SNR) with 64 frames of
               one realization; one operation is one frame

A pass runs set-up SETUP_REPEATS times (fresh import of quantlink, fixture load
and source draw) and then the batch of items in rounds; see run_pass.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import statistics
import signal
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracing import Tracer, install

SETUP_REPEATS = 7
PROBE_INTERVAL_S = 0.05
MODULES = ("gaussian", "quantizer", "library", "modem", "channel", "allocator", "simulator")
BENCH_DIR = Path(__file__).resolve().parent
FIXTURE = BENCH_DIR / "default_library.json"
FIXTURE_SHA256 = BENCH_DIR / "default_library.json.sha256"

# seed-stream labels, so each input family draws from its own stream
_COLUMNS, _SOURCE, _BLOCK, _EXPERIMENT = 1, 2, 3, 4


@dataclass(frozen=True)
class Sizes:
    """How much work one pass does; tests shrink it."""

    b_max: int = 8
    design_pairs: int = 5  # columns per pass: one from each adjacent pair of targets
    block_reps: int = 4  # plan-blocks round: each (profile, source, SNR) combination this often
    latents: tuple = (512, 4096)
    link_calls: int = 4  # link-frames round: this many experiments, each at every SNR
    link_latents: int = 4096
    frames_per_realization: int = 64


class FixtureError(Exception):
    """The committed library fixture is missing or does not match its digest."""


@dataclass
class PassResult:
    """What one pass measured and checked."""

    setup_s: list = field(default_factory=list)
    best_s: list = field(default_factory=list)  # fastest time of each batch item over the rounds
    setup_cost: list = field(default_factory=list)  # set-up time / reference time
    best_cost: list = field(default_factory=list)  # lowest item time / reference time, per item
    samples_s: list = field(default_factory=list)  # every timed run of every item
    reference_s: float = math.inf  # fastest reference-kernel time seen
    ops_per_item: int = 1  # operations per batch item (frames per run_experiment call)
    rounds: int = 0
    work_s: float = 0.0  # wall time inside the items, checks included
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    report: dict = field(default_factory=dict)  # workload-specific, deterministic per seed

    @property
    def ops(self) -> int:
        """Operations in one round."""
        return len(self.best_s) * self.ops_per_item


@dataclass
class Outcome:
    """One batch item run once: its time, failed operations and round-one details."""

    seconds: float
    failed: int = 0
    failures: list = field(default_factory=list)
    detail: object = None


def reference_kernel() -> None:
    """Fixed work independent of quantlink: a greedy argmin loop over 512 values.

    Small numpy calls driven from Python, the mix that dominates planning and
    much of the link; it takes about 0.3 ms.
    """
    a = np.arange(512, dtype=np.float64)
    w = np.ones(512)
    for _ in range(100):
        k = int(np.argmin(a))
        a[k] += w[k] * 700.0
        a * w + 1.0


def reference_seconds() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


class ReferenceProbe:
    """Times the reference kernel around and during a piece of work.

    The kernel runs just before the work, just after it, and every
    PROBE_INTERVAL_S while it runs, from a SIGALRM handler in this thread
    between two bytecodes of the work. So the samples see the same load as the
    work, which they slow by about 1 %.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.fastest = math.inf

    def _tick(self, signum, frame):
        self.samples.append(reference_seconds())

    def run(self, work):
        """Return (work(), mean reference time around and during it)."""
        self.samples = [reference_seconds()]
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            result = work()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        self.samples.append(reference_seconds())
        self.fastest = min(self.fastest, *self.samples)
        return result, statistics.fmean(self.samples)


def _rng(seed: int, *labels: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *labels]))


def fresh_import() -> dict:
    """Import quantlink from scratch (module code, tables, caches) and return its modules."""
    for name in [m for m in sys.modules if m == "quantlink" or m.startswith("quantlink.")]:
        del sys.modules[name]
    importlib.import_module("quantlink")
    return {name: sys.modules[f"quantlink.{name}"] for name in MODULES}


def load_fixture(ql):
    """Load the committed default library after checking the file's sha256."""
    try:
        expected = FIXTURE_SHA256.read_text(encoding="utf-8").split()[0]
        digest = hashlib.sha256(FIXTURE.read_bytes()).hexdigest()
    except (OSError, IndexError) as exc:
        raise FixtureError(f"cannot read library fixture: {exc}") from exc
    if digest != expected:
        raise FixtureError(f"{FIXTURE.name} has sha256 {digest}, expected {expected}")
    return ql["library"].load_library(FIXTURE)


# ---------------------------------------------------------------------------
# design-grid
# ---------------------------------------------------------------------------


def design_columns(seed: int, pairs: int) -> list[int]:
    """One target index from each adjacent pair (0,1), (2,3), ... of the grid."""
    rng = _rng(seed, _COLUMNS)
    return [2 * k + int(rng.integers(2)) for k in range(pairs)]


def setup_design(ql, seed: int, sizes: Sizes, out_dir: Path) -> dict:
    grid = ql["library"].default_epsilon_grid()
    out_dir.mkdir(parents=True, exist_ok=True)
    return {"grid": grid, "columns": design_columns(seed, sizes.design_pairs), "out_dir": out_dir}


def check_column(ql, lib, path: Path) -> tuple[list[str], list[float]]:
    """Output checks for a one-column library; returns (failures, per-cell gain in dB)."""
    quantizer, library = ql["quantizer"], ql["library"]
    eps = float(lib.epsilons[0])
    col = lib.distortion_column(0)
    failures, gains = [], []
    for b in range(1, lib.b_max + 1):
        lm = quantizer.analytic_distortion(
            quantizer.design_lloyd_max(b, lib.design), quantizer.uniform_bsc(b, eps)
        )
        d = col[b - 1]
        if not d <= lm + 1e-12:
            failures.append(f"eps {eps!r} b {b}: distortion {d!r} above Lloyd-Max {lm!r}")
        gains.append(10.0 * math.log10(lm / d))
    if np.any(np.diff(col) > 1e-12):
        failures.append(f"eps {eps!r}: distortion rises with b")
    text = path.read_text(encoding="utf-8")
    if library.serialize_library(lib) != text:
        failures.append(f"eps {eps!r}: saved file differs from the built library")
    elif library.serialize_library(library.load_library(path)) != text:
        failures.append(f"eps {eps!r}: save/load round trip is not bit-exact")
    return failures, gains


def design_batch(ql, state, sizes: Sizes) -> list:
    """The drawn columns, lowest target first (that build also pays for Lloyd-Max)."""
    return sorted(state["columns"])


def design_op(ql, state, qi: int, sizes: Sizes, quiet) -> Outcome:
    library = ql["library"]
    path = state["out_dir"] / f"column-{qi}.json"
    t0 = time.perf_counter()
    lib = library.build_library(sizes.b_max, [state["grid"][qi]])
    library.save_library(lib, path)
    seconds = time.perf_counter() - t0
    with quiet():
        failures, gains = check_column(ql, lib, path)
    return Outcome(seconds, int(bool(failures)), failures, gains)


def design_report(state, res: PassResult, details: list) -> dict:
    columns = sorted(state["columns"])
    return {
        "columns": columns,
        "epsilons": [float(state["grid"][qi]) for qi in columns],
        "build_s": sum(res.best_s),
        "design_gain_db": statistics.fmean(g for gains in details for g in gains),
    }


# ---------------------------------------------------------------------------
# plan-blocks
# ---------------------------------------------------------------------------

PLAN_SNR_DB = (5.0, 10.0, 15.0)
N_SC = 512
SPACING_HZ = 30e3


def setup_plan(ql, seed: int, sizes: Sizes, out_dir: Path) -> dict:
    lib = load_fixture(ql)
    simulator, channel = ql["simulator"], ql["channel"]
    smax = ql["library"].sigma_max(lib)
    sources = [
        simulator.draw_stats(simulator.SyntheticSourceConfig(n_latents=n), smax, _rng(seed, _SOURCE, n))
        for n in sizes.latents
    ]
    profiles = [channel.parse_profile_ref("exp-pdp(300)"), channel.parse_profile_ref("tdl-c")]
    return {"seed": seed, "lib": lib, "sources": sources, "profiles": profiles}


def check_plan(ql, plan, lib, stats, p_tot) -> list[str]:
    """validate_plan plus the benchmark's own power and distortion checks."""
    failures = []
    try:
        ql["allocator"].validate_plan(plan, lib, stats, p_tot)
    except ValueError as exc:
        failures.append(f"validate_plan: {exc}")
    if not plan.powers.sum() <= p_tot * (1.0 + 1e-12):
        failures.append(f"power {plan.powers.sum()!r} above budget {p_tot!r}")
    checked = np.flatnonzero(stats.variances >= ql["library"].DEFAULT_DELTA)
    bits = plan.bits[checked]
    if np.any(bits < 1) or np.any(bits > lib.b_max):
        failures.append("a checked element has no valid bit depth")
    else:
        col = lib.distortion_column(plan.eps_index)
        if np.any(col[bits - 1] > 1.0 / (stats.variances[checked] + 1.0)):
            failures.append("a checked element misses its distortion bound")
    return failures


def plan_batch(ql, state, sizes: Sizes) -> list:
    """Seeded blocks (stats, realization, p_tot).

    Every (profile, source, SNR) combination occurs block_reps times, in seeded
    order, so the mix of cheap and expensive blocks is the same for every seed;
    each block draws its own channel.
    """
    channel, sources, profiles = ql["channel"], state["sources"], state["profiles"]
    combos = [
        (p, s, snr) for p in range(len(profiles)) for s in range(len(sources)) for snr in PLAN_SNR_DB
    ] * sizes.block_reps
    order = _rng(state["seed"], _BLOCK).permutation(len(combos))
    blocks = []
    for k, c in enumerate(order):
        p, s, snr = combos[c]
        rng = _rng(state["seed"], _BLOCK, k)
        realization = channel.realize_channel(profiles[p], N_SC, SPACING_HZ, seed=k, rng=rng)
        blocks.append((sources[s], realization, N_SC * 10.0 ** (snr / 10.0)))
    return blocks


def plan_op(ql, state, block, sizes: Sizes, quiet) -> Outcome:
    stats, realization, p_tot = block
    lib = state["lib"]
    t0 = time.perf_counter()
    plan = ql["allocator"].optimize_plan(lib, stats, realization, p_tot)
    seconds = time.perf_counter() - t0
    failures = check_plan(ql, plan, lib, stats, p_tot)  # validate_plan is traced
    return Outcome(seconds, int(bool(failures)), failures, plan.t_sym)


def plan_report(state, res: PassResult, details: list) -> dict:
    ms = np.array(res.samples_s) * 1e3  # every plan run, repeats included
    p95 = float(np.percentile(ms, 95))
    return {
        "blocks": len(res.best_s),
        "plan_samples": len(ms),
        "plan_ms_p50": float(np.percentile(ms, 50)),
        "plan_ms_p95": p95,
        "plan_samples_above_p95": int(np.sum(ms > p95)),
        "mean_t_sym": statistics.fmean(details),
    }


# ---------------------------------------------------------------------------
# link-frames
# ---------------------------------------------------------------------------


def setup_link(ql, seed: int, sizes: Sizes, out_dir: Path) -> dict:
    return {"seed": seed, "lib": load_fixture(ql)}


def experiment_seed(seed: int, call: int) -> int:
    return int(_rng(seed, _EXPERIMENT, call).integers(2**31))


def link_batch(ql, state, sizes: Sizes) -> list:
    """One run_experiment config per (experiment, SNR): short items time more cleanly."""
    simulator = ql["simulator"]
    configs = []
    for call in range(sizes.link_calls):
        exp_seed = experiment_seed(state["seed"], call)
        for snr in PLAN_SNR_DB:
            configs.append(
                simulator.ExperimentConfig(
                    source=simulator.SyntheticSourceConfig(n_latents=sizes.link_latents, seed=exp_seed),
                    profile_ref="exp-pdp(300)",
                    snr_db=(snr,),
                    trials=1,
                    frames_per_realization=sizes.frames_per_realization,
                    seed=exp_seed,
                )
            )
    return configs


def link_op(ql, state, cfg, sizes: Sizes, quiet) -> Outcome:
    t0 = time.perf_counter()
    reports = ql["simulator"].run_experiment(cfg, state["lib"])
    seconds = time.perf_counter() - t0
    out = Outcome(seconds, detail=([], []))
    for r in reports:
        if r.violation_rate != 0.0:
            out.failed += r.frames
            out.failures.append(f"experiment seed {cfg.seed} at {r.snr_db} dB: violation rate {r.violation_rate!r}")
        out.detail[0].append(r.mean_distortion_per_element[r.checked] / r.per_element_target[r.checked])
        out.detail[1].append(r.mean_t_sym)
    return out


def link_report(state, res: PassResult, details: list) -> dict:
    return {
        "items": len(details),
        "frames": res.ops,
        "frames_per_s": res.ops / sum(res.best_s),
        "distortion_ratio": float(np.mean(np.concatenate([r for ratios, _ in details for r in ratios]))),
        "mean_t_sym": statistics.fmean(t for _, t_syms in details for t in t_syms),
    }


@dataclass(frozen=True)
class Workload:
    setup: object
    batch: object
    op: object
    report: object
    op_kind: str  # root span name of one batch item
    repeat: bool  # rounds repeat the batch while the run has time left
    ops_per_item: object = lambda sizes: 1


WORKLOADS = {
    "design-grid": Workload(setup_design, design_batch, design_op, design_report, "column", False),
    "plan-blocks": Workload(setup_plan, plan_batch, plan_op, plan_report, "block", True),
    "link-frames": Workload(setup_link, link_batch, link_op, link_report, "experiment", True,
                            lambda sizes: sizes.frames_per_realization),
}
MIN_ROUNDS = 2


def run_pass(
    name: str,
    seed: int,
    out_dir: Path,
    sizes: Sizes = Sizes(),
    seconds: float | None = None,
    tracer: Tracer | None = None,
) -> PassResult:
    """Set up SETUP_REPEATS times, then run the workload's batch in rounds.

    Without `seconds` one round runs, as the traced run needs. With it,
    repeatable workloads run at least MIN_ROUNDS rounds and start another
    while it should end in time. Every set-up and item runs under a
    ReferenceProbe; its cost is its time over the probe's mean reference time,
    which cancels most of the slow-down that other processes on a shared host
    cause. Each item keeps its fastest time and its lowest cost over the
    rounds. Every run of every item is checked and counted. With a tracer,
    wrappers go onto each freshly imported quantlink and come off again before
    this returns; without one, nothing is installed.
    """
    wl = WORKLOADS[name]
    res = PassResult(ops_per_item=wl.ops_per_item(sizes))
    probe = ReferenceProbe()
    installer = None

    def set_up():
        nonlocal installer
        t0 = time.perf_counter()
        ql = fresh_import()
        if tracer is not None:
            installer = install(tracer, ql)
        with tracer.op("setup") if tracer else nullcontext():
            state = wl.setup(ql, seed, sizes, out_dir)
        return ql, state, time.perf_counter() - t0

    try:
        for _ in range(SETUP_REPEATS):
            if installer is not None:
                installer.restore()
            (ql, state, elapsed), ref = probe.run(set_up)
            res.setup_s.append(elapsed)
            res.setup_cost.append(elapsed / ref)
        batch = wl.batch(ql, state, sizes)
        res.best_s = [math.inf] * len(batch)
        res.best_cost = [math.inf] * len(batch)
        details = []
        quiet = tracer.paused if tracer else nullcontext
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            for i, item in enumerate(batch):
                t0 = time.perf_counter()
                with tracer.op(wl.op_kind) if tracer else nullcontext():
                    out, ref = probe.run(lambda: wl.op(ql, state, item, sizes, quiet))
                res.work_s += time.perf_counter() - t0
                res.best_cost[i] = min(res.best_cost[i], out.seconds / ref)
                res.best_s[i] = min(res.best_s[i], out.seconds)
                res.samples_s.append(out.seconds)
                res.attempted += res.ops_per_item
                res.failed += out.failed
                res.failures += out.failures
                if res.rounds == 0:
                    details.append(out.detail)
            res.rounds += 1
            now = time.perf_counter()
            if seconds is None or not wl.repeat:
                break
            if res.rounds >= MIN_ROUNDS and now + (now - round_start) > start + seconds:
                break
        res.reference_s = probe.fastest
        res.report = wl.report(state, res, details)
    finally:
        if installer is not None:
            installer.restore()
    return res
