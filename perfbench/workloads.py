"""The benchmark's workloads: the whole product flow, with the work in one stage.

Every workload runs the same four stages, so every end-to-end metric is
defined on each of them:

1. **table** — the quick-scale Table-I chain of ``benchmarks.common``:
   float pretrain (``fit``), a CSQ T3 A4 search plus finetune and freeze, and
   a BSQ A4 row from the same checkpoint.  Both rows are exported with
   ``save_artifact``, reloaded, and evaluated through ``InferenceSession``.
2. **cold start** — repeated ``load_artifact`` → ``InferenceSession`` →
   first batch-1 response, round-robin over the workload's artifacts.
3. **offline** — batch-64 ``InferenceSession.evaluate`` over each artifact.
4. **serve** — a seeded Poisson open loop of single requests into
   ``Server(workers=1, cache_size>0)`` over the CSQ artifact, at a fixed
   ladder of offered rates.

The workloads differ in where their work goes (see :data:`WORKLOADS`):
``table_quick`` trains at the table benches' quick scale and also deploys
three artifacts that need no training (certified int GEMM, grouped
convolution, attention), while ``serve_open_loop`` runs the same float and
CSQ schedules with a short BSQ row and spends the rest of its time in an
open loop whose repeated payloads hit the response cache.
Training runs at the table benches' pinned seeds (data seed 0, pretrain
seed 0, row seed 1): with the seed free, the served top-1 of the quick
chain moves by about 15% between seeds, more than any bound allows, so the
quality metrics would only measure seed luck.  The workload seed drives
everything else: request payloads, repeats, arrival times, the deploy-only
artifacts and their test sets.
"""

from __future__ import annotations

import contextlib
import gc
import os
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

import repro.deploy.artifact as artifact_module
from benchmarks.common import bench_scale, build_model
from repro.autograd.tensor import Tensor, no_grad
from repro.baselines import BSQConfig, BSQTrainer
from repro.csq import CSQConfig, CSQTrainer
from repro.data import DataLoader
from repro.data.synthetic import SyntheticConfig, SyntheticImageClassification
from repro.deploy import InferenceSession, Server
from repro.deploy.testing import frozen_scheme_model
from repro.optim import SGD, WarmupCosine
from repro.training import fit
from repro.utils import seed_everything

from perfbench.openloop import Traffic, make_traffic, run_rung
from perfbench.stats import max_rate_meeting, percentile, summarize

#: The CSQ row's target average precision and both rows' activation bits.
TARGET_BITS = 3.0
ACT_BITS = 4
#: CSQ finetune epochs of the table benches' rows; the pretrain and CSQ
#: epochs are the quick scale's (``benchmarks.common``).  Every workload
#: trains this schedule: cut to 10 pretrain and 6 + 1 CSQ epochs, the CSQ
#: row collapses to 13% top-1 and its eval graph moves by over a logit under
#: a 1e-6 relative input change, so its served and training-stack
#: predictions part on some test images.
FINETUNE_EPOCHS = 3
#: p99 latency limit of the serving ladder (ms).  Measured on a 2-core host,
#: p99 below the knee ranges from 20 ms to 250 ms with the load other tenants
#: put on the host, and one worker completes 1550 to 2400 requests per second
#: at saturation.  Past that knee the backlog grows for the whole rung, so a
#: rung either meets the limit with room to spare or misses it (or falls
#: behind its schedule).
P99_LIMIT_MS = 400.0
#: The long light-load rung whose latency is reported as ``serve_p50_ms`` and
#: ``serve.p99_ms``: far below the knee, so it times the server and session
#: rather than a queue, whose p99 at 1000 to 1650 rps ranged from 30 to 220 ms
#: between runs.
LIGHT_RATE = 150.0
#: The rungs ``serve.max_rps`` is read from: roughly geometric steps of 20 to
#: 30% up to and past the knee, so a change in serving capacity moves the
#: metric by a rung.
KNEE_RATES = (600.0, 800.0, 1000.0, 1300.0, 1650.0, 2000.0, 2500.0)
#: Every workload's ladder: (offered rps, share of --seconds) per rung.
LADDER = ((LIGHT_RATE, 0.3),) + tuple((rate, 0.05) for rate in KNEE_RATES)
#: Every rung sends at least this many requests, so its p99 has ten samples
#: beyond it (:data:`perfbench.stats.MIN_BEYOND`).
MIN_RUNG_REQUESTS = 1000
SERVER = dict(max_batch=32, max_wait_ms=2.0, cache_size=256, workers=1)
#: Repeats pick a payload among this many previous requests (inside the cache).
REPEAT_WINDOW = 128
#: Served responses compared bitwise with ``session.run`` per rung.
RESPONSE_CHECKS = 64
#: The region around the benchmark's own set-up and reference work; the
#: traced run leaves what runs inside it out of the per-layer metrics.
HARNESS = "harness"
#: Setup is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 7


@dataclass(frozen=True)
class ExtraArtifact:
    """A deploy-only artifact built with the conformance-matrix constructions."""

    label: str
    scheme: str
    arch: str
    arch_kwargs: Tuple[Tuple[str, object], ...]
    image_size: int


@dataclass(frozen=True)
class Workload:
    name: str
    bsq_epochs: int
    cold_starts: int  # per artifact
    offline_share: float  # share of --seconds spent in batched evaluate
    repeat_share: float = 0.0
    extras: Tuple[ExtraArtifact, ...] = ()


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        # The paper's own workload, bound by training (autograd, nn, csq,
        # optim, data); its deploy stage adds the artifacts that need no
        # training: certified int GEMM (A32), grouped GEMM (mobilenet_tiny)
        # and palette dequant with attention steps (lqnets tiny_attention).
        Workload(
            name="table_quick",
            bsq_epochs=6,
            cold_starts=60, offline_share=0.15,
            extras=(
                ExtraArtifact("csq-resnet20-a32", "csq", "resnet20",
                              (("num_classes", 10), ("width_mult", 0.2)), 12),
                ExtraArtifact("csq-mobilenet_tiny", "csq", "mobilenet_tiny",
                              (("num_classes", 10), ("in_channels", 3)), 16),
                ExtraArtifact("lqnets-tiny_attention", "lqnets", "tiny_attention",
                              (("num_classes", 10), ("dim", 16), ("patch_size", 4)), 16),
            ),
        ),
        # The latency regime: small batches and Python dispatch in the
        # server and session.  The only workload whose repeated payloads hit
        # the response cache.
        Workload(
            name="serve_open_loop",
            bsq_epochs=2,
            cold_starts=100, offline_share=0.1,
            repeat_share=0.2,
        ),
    )
}


class Checks:
    """Operations attempted and failed, with a note for every failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def record(self, what: str, count: int, failures: int = 0) -> None:
        self.attempted += count
        if failures:
            self.failed += failures
            self.notes.append(f"{what}: {failures} of {count} failed")


# ---------------------------------------------------------------------------
# Setup
# ---------------------------------------------------------------------------


@dataclass
class Deployable:
    """An artifact on disk with its reference model and evaluation batches."""

    label: str
    path: str
    model: object  # the frozen model the artifact was exported from
    batches: List[Tuple[np.ndarray, np.ndarray]]  # batch-64 evaluation set
    probe: np.ndarray  # the batch-1 input of each cold start


@dataclass
class Inputs:
    train: SyntheticImageClassification
    test: SyntheticImageClassification
    extras: List[Deployable]
    traffic: List[Traffic]


def _cifar(train: bool) -> SyntheticImageClassification:
    """The CIFAR-10 stand-in of the table benches (``benchmarks.common``)."""
    scale = bench_scale()
    config = SyntheticConfig(
        num_classes=10, image_size=scale.image_size, train_size=scale.train_size,
        test_size=scale.test_size, modes_per_class=2, noise=0.8, seed=0,
    )
    return SyntheticImageClassification(config, train=train)


def _batches(dataset, batch_size: int) -> List[Tuple[np.ndarray, np.ndarray]]:
    return [(images, labels) for images, labels in DataLoader(dataset, batch_size=batch_size)]


def build_inputs(workload: Workload, seed: int, seconds: float, out_dir: str) -> Inputs:
    """Everything a run consumes, made from the seed (the repeated set-up)."""
    image_size = bench_scale().image_size
    extras = []
    for index, spec in enumerate(workload.extras):
        kwargs = dict(spec.arch_kwargs)
        shape = (4, 3, spec.image_size, spec.image_size)
        model = frozen_scheme_model(
            spec.scheme, spec.arch, seed=seed + index, calibration_shape=shape, **kwargs,
        )
        path = os.path.join(out_dir, f"{spec.label}.npz")
        artifact_module.save_artifact(model, path, spec.arch, arch_kwargs=kwargs)
        test = SyntheticImageClassification(SyntheticConfig(
            num_classes=10, image_size=spec.image_size, train_size=1, test_size=512,
            seed=seed + index,
        ), train=False)
        batches = _batches(test, 64)
        extras.append(Deployable(spec.label, path, model, batches, batches[0][0][:1]))
    rng = np.random.default_rng(seed)
    traffic = [
        make_traffic(
            rng, rate, max(share * seconds, MIN_RUNG_REQUESTS / rate), (3, image_size, image_size),
            workload.repeat_share, REPEAT_WINDOW, RESPONSE_CHECKS,
        )
        for rate, share in LADDER
    ]
    return Inputs(_cifar(True), _cifar(False), extras, traffic)


# ---------------------------------------------------------------------------
# Stage 1: the table chain
# ---------------------------------------------------------------------------


class StepClock:
    """Training-loader wrapper noting when each batch is requested.

    Requests are throttled by the consumer: without prefetch each request
    starts a step, and with a prefetch queue of depth ``d`` the producer
    requests batch ``k + d + 1`` as step ``k`` begins.  In both cases the
    intervals between requests, past the first few of a pass, are the
    training step times, so the trainers need no hooks to be timed.
    """

    def __init__(self, loader: DataLoader) -> None:
        self._loader = loader
        self.passes: List[List[float]] = []

    def __iter__(self):
        marks: List[float] = []
        self.passes.append(marks)
        iterator = iter(self._loader)
        while True:
            marks.append(time.perf_counter())
            try:
                item = next(iterator)
            except StopIteration:
                return
            yield item

    def __len__(self) -> int:
        return len(self._loader)

    def __getattr__(self, name: str):
        return getattr(self._loader, name)


#: Request intervals left out at the start of each pass: the prefetch queue
#: filling (depth 2) and the first step of the pass.
SKIPPED_INTERVALS = 3


def step_rates(passes: List[List[float]], batch_size: int) -> List[float]:
    """Images per second of every timed training step."""
    rates: List[float] = []
    for marks in passes:
        intervals = np.diff(marks)[SKIPPED_INTERVALS:]
        rates.extend(float(batch_size / interval) for interval in intervals if interval > 0)
    return rates


def _loaders(inputs: Inputs) -> Tuple[StepClock, DataLoader]:
    scale = bench_scale()
    train = DataLoader(inputs.train, batch_size=scale.batch_size, shuffle=True, seed=0)
    return StepClock(train), DataLoader(inputs.test, batch_size=2 * scale.batch_size)


def _resnet20_kwargs() -> Dict[str, object]:
    return {"num_classes": 10, "width_mult": bench_scale().width_mult}


def _served_eval(model, path: str, batches, checks: Checks, label: str, region) -> float:
    """Served top-1 through a reloaded artifact, checked per sample."""
    session = InferenceSession(artifact_module.load_artifact(path))
    served = [session.run(images).argmax(axis=-1) for images, _ in batches]
    with region(HARNESS):
        reference = [logits.argmax(axis=-1) for logits in _reference_logits(model, batches)]
    correct = total = mismatched = 0
    for (_, labels), got, want in zip(batches, served, reference):
        mismatched += int((got != want).sum())
        correct += int((got == labels).sum())
        total += len(labels)
    checks.record(f"{label} served predictions equal training-stack predictions",
                  count=total, failures=mismatched)
    return correct / total


@dataclass
class ChainResult:
    wall_s: float
    float_rates: List[float]
    csq_rates: List[float]
    csq_top1: float
    bsq_top1: float
    csq_bits: float
    deployables: List[Deployable]
    artifact_bytes: int


def run_chain(workload: Workload, inputs: Inputs, out_dir: str, checks: Checks, region) -> ChainResult:
    scale = bench_scale()
    with region(HARNESS):
        test_batches = _batches(inputs.test, 2 * scale.batch_size)
        eval_batches = _batches(inputs.test, 64)
    kwargs = _resnet20_kwargs()
    started = time.perf_counter()

    with region("stage.pretrain"):
        seed_everything(0)
        model = build_model("resnet20", 10)
        float_clock, test = _loaders(inputs)
        optimizer = SGD(model.parameters(), lr=0.1, momentum=0.9, weight_decay=5e-4)
        scheduler = WarmupCosine(optimizer, total_epochs=scale.pretrain_epochs)
        fit(model, float_clock, test, optimizer, scale.pretrain_epochs, scheduler=scheduler)
        state = model.state_dict()

    def fresh_model():
        seed_everything(1)
        row_model = build_model("resnet20", 10)
        row_model.load_state_dict(state)
        return row_model

    with region("stage.csq"):
        csq_clock, test = _loaders(inputs)
        config = CSQConfig(
            epochs=scale.epochs, finetune_epochs=FINETUNE_EPOCHS, lr=0.05,
            rep_lr_scale=4.0, mask_lr_scale=0.5, weight_decay=0.0,
            target_bits=TARGET_BITS, act_bits=ACT_BITS,
        )
        csq = CSQTrainer(fresh_model(), csq_clock, test, config)
        csq.train()
        csq_path = os.path.join(out_dir, "csq-resnet20-a4.npz")
        with region("artifact.save"):
            artifact_module.save_artifact(csq.model, csq_path, "resnet20", arch_kwargs=kwargs)
        csq_top1 = _served_eval(csq.model, csq_path, test_batches, checks, "csq", region)

    with region("stage.bsq"):
        train, test = _loaders(inputs)
        config = BSQConfig(
            epochs=workload.bsq_epochs, lr=0.02, weight_decay=0.0, sparsity_strength=0.05,
            prune_interval=max(workload.bsq_epochs // 3, 1), prune_threshold=0.05,
            act_bits=ACT_BITS,
        )
        bsq = BSQTrainer(fresh_model(), train, test, config)
        bsq.train()
        bsq_path = os.path.join(out_dir, "bsq-resnet20-a4.npz")
        with region("artifact.save"):
            artifact_module.save_artifact(bsq.model, bsq_path, "resnet20", arch_kwargs=kwargs)
        bsq_top1 = _served_eval(bsq.model, bsq_path, test_batches, checks, "bsq", region)

    wall = time.perf_counter() - started
    probe = test_batches[0][0][:1]
    deployables = [
        Deployable("csq-resnet20-a4", csq_path, csq.model, eval_batches, probe),
        Deployable("bsq-resnet20-a4", bsq_path, bsq.model, eval_batches, probe),
    ]
    return ChainResult(
        wall_s=wall,
        float_rates=step_rates(float_clock.passes, scale.batch_size),
        # The loader's first passes are the CSQ phase; the finetune passes
        # after them run without the regularizer and the mask parameters.
        csq_rates=step_rates(csq_clock.passes[:scale.epochs], scale.batch_size),
        csq_top1=csq_top1,
        bsq_top1=bsq_top1,
        csq_bits=csq.average_precision(),
        deployables=deployables,
        artifact_bytes=os.path.getsize(csq_path) + os.path.getsize(bsq_path),
    )


# ---------------------------------------------------------------------------
# Stages 2 and 3: cold starts and batched evaluation
# ---------------------------------------------------------------------------


def cold_starts(deployables: List[Deployable], rounds: int, checks: Checks, region) -> List[List[float]]:
    """Milliseconds from ``load_artifact`` to the first batch-1 response, per artifact."""
    with region(HARNESS):
        expected = [InferenceSession(d.path).run(d.probe) for d in deployables]
    times: List[List[float]] = [[] for _ in deployables]
    mismatched = 0
    for _ in range(rounds):
        for deployable, want, samples in zip(deployables, expected, times):
            started = time.perf_counter()
            with region("artifact.load"):
                artifact = artifact_module.load_artifact(deployable.path)
            session = InferenceSession(artifact)
            with region("session.first_run"):
                got = session.run(deployable.probe)
            samples.append(1e3 * (time.perf_counter() - started))
            mismatched += not np.array_equal(got, want)
    checks.record("cold-start responses equal a warm session's",
                  count=rounds * len(deployables), failures=mismatched)
    return times


def _reference_logits(model, batches) -> List[np.ndarray]:
    model.eval()
    with no_grad():
        return [model(Tensor(images)).data for images, _ in batches]


def check_conformance(deployables: List[Deployable], checks: Checks) -> None:
    """Served logits within the conformance-matrix bound (1e-5 absolute and
    relative) of each artifact's frozen eval model, over its evaluation set."""
    for deployable in deployables:
        session = InferenceSession(deployable.path)
        reference = _reference_logits(deployable.model, deployable.batches)
        bad = sum(
            int((~np.isclose(session.run(images), want, rtol=1e-5, atol=1e-5)).any(axis=-1).sum())
            for (images, _), want in zip(deployable.batches, reference)
        )
        checks.record(f"{deployable.label} logits within 1e-5 of the eval graph",
                      count=sum(len(labels) for _, labels in deployable.batches), failures=bad)


def offline(deployables: List[Deployable], budget_s: float, checks: Checks) -> Tuple[float, int]:
    """Images per second of batch-64 ``evaluate`` over every artifact.

    Passes over all evaluation batches repeat for ``budget_s``; a pass is
    costed at each batch's median time, so a burst of contention on the host
    moves the result less than it moves the pass that it hit.  Returns the
    rate and the number of passes.
    """
    sessions = [InferenceSession(d.path) for d in deployables]
    samples = [[[] for _ in d.batches] for d in deployables]
    passes = 0
    stop = time.perf_counter() + budget_s
    while not passes or time.perf_counter() < stop:
        for deployable, session, per_batch in zip(deployables, sessions, samples):
            for batch, times in zip(deployable.batches, per_batch):
                started = time.perf_counter()
                session.evaluate([batch])
                times.append(time.perf_counter() - started)
        passes += 1
    checks.record("offline evaluation passes", count=passes * len(deployables))
    images = sum(len(labels) for d in deployables for _, labels in d.batches)
    return images / sum(statistics.median(t) for per_batch in samples for t in per_batch), passes


# ---------------------------------------------------------------------------
# Stage 4: open-loop serving
# ---------------------------------------------------------------------------


@dataclass
class ServeResult:
    rungs: list
    max_rps: float
    light: object  # the RungResult at LIGHT_RATE


def serve(path: str, traffic: List[Traffic], checks: Checks, region) -> ServeResult:
    session = InferenceSession(path)
    for size in (1, 2, 4, 8, 16, 32):  # warm every batch shape the server forms
        session.run(np.zeros((size,) + traffic[0].payloads.shape[1:], dtype=np.float32))
    server = Server(session, **SERVER).start()
    results = []
    try:
        for rung in traffic:
            server.clear_cache()
            results.append(run_rung(server, rung))
    finally:
        server.stop()
    mismatched = checked = 0
    for rung, result in zip(traffic, results):
        checks.record(f"requests at {rung.rate:g} rps", count=result.sent, failures=result.failed)
        with region(HARNESS):
            for index, response in result.responses.items():
                checked += 1
                mismatched += not np.array_equal(response, session.run(rung.payloads[index][None])[0])
    checks.record("served responses bitwise equal session.run", count=checked, failures=mismatched)
    ladder = [result.rung() for result in results]
    light = next(result for result in results if result.offered_rps == LIGHT_RATE)
    return ServeResult(results, max_rate_meeting(ladder, P99_LIMIT_MS), light)


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    #: End-to-end metrics: name → (value, unit, sample note).
    metrics: Dict[str, Tuple[float, str, str]]
    #: Timings measured like the end-to-end metrics but reported among the
    #: per-layer ones (see :func:`run_workload`): same layout.
    ungated: Dict[str, Tuple[float, str, str]]
    checks: Checks
    chain: ChainResult
    serving: ServeResult
    extra_bytes: int


def _tail(summary: Dict[str, object]) -> str:
    tail = summary.get("tail")
    return f"n={summary['n']}, {tail} {summary[tail]:.4g}" if tail else f"n={summary['n']}"


def run_workload(workload: Workload, seed: int, seconds: float, out_dir: str, region=None) -> RunResult:
    """Run every stage once; ``region(name)`` wraps the stages and the
    benchmark's own work (no-op untraced)."""
    region = region or (lambda name: contextlib.nullcontext())
    checks = Checks()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        with region(HARNESS):
            inputs = build_inputs(workload, seed, seconds, out_dir)
        setup_times.append(time.perf_counter() - started)

    with region("stage.table"):
        chain = run_chain(workload, inputs, out_dir, checks, region)
    deployables = chain.deployables + inputs.extras
    gc.collect()  # the chain's garbage is not the deploy stages' cost
    with region("stage.cold_start"):
        cold_ms = cold_starts(deployables, workload.cold_starts, checks, region)
    with region(HARNESS):
        check_conformance(inputs.extras, checks)
    with region("stage.offline"):
        offline_rate, offline_passes = offline(deployables, workload.offline_share * seconds, checks)
    gc.collect()
    with region("stage.serve"):
        serving = serve(chain.deployables[0].path, inputs.traffic, checks, region)

    # Artifacts differ in cold-start cost, and the median of their pooled
    # times can jump between two artifacts' modes; each artifact's median,
    # averaged over the artifacts, cannot.
    cold_typical = statistics.mean(statistics.median(samples) for samples in cold_ms)
    pooled = [ms for round_robin in zip(*cold_ms) for ms in round_robin]  # in time order
    cold = summarize(pooled)
    light = summarize(serving.light.latency_ms)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s", f"median of {len(setup_times)} set-ups"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", "whole run"),
        "table_wall_s": (chain.wall_s, "s", "one chain"),
        "csq_train_images_per_s": (statistics.median(chain.csq_rates), "1/s",
                                   f"median of {len(chain.csq_rates)} CSQ-phase steps"),
        "csq_served_top1": (chain.csq_top1, "fraction", f"{len(inputs.test)} test images"),
        "bsq_served_top1": (chain.bsq_top1, "fraction", f"{len(inputs.test)} test images"),
        "csq_bits_gap": (abs(chain.csq_bits - TARGET_BITS), "bits",
                         f"achieved {chain.csq_bits:.4f} vs target {TARGET_BITS}"),
        "serve_p50_ms": (light["p50"], "ms", f"{_tail(light)} at {LIGHT_RATE:g} rps"),
    }
    # Printed with every run but not gated: over ten runs on a shared 2-core
    # host each one's spread (quartile distance over median) exceeded the
    # largest bound a gate may have (0.25) on some workload, while those of
    # the metrics above stayed within it.  They move with the load other
    # guests put on the host, which the threaded GEMMs (two runtime and two
    # BLAS threads on two cores) and the serving threads amplify;
    # ``serve.max_rps`` also moves a whole rung when serving capacity sits
    # near one.
    ungated = {
        "training.float_images_per_s": (statistics.median(chain.float_rates), "1/s",
                                        f"median of {len(chain.float_rates)} pretrain steps"),
        "serve.max_rps": (serving.max_rps, "1/s",
                          f"highest of {len(serving.rungs)} rungs with p99 <= {P99_LIMIT_MS:g} ms"),
        "serve.p99_ms": (percentile(serving.light.latency_ms, 99), "ms", f"n={light['n']} at {LIGHT_RATE:g} rps"),
        "deploy.cold_start_ms": (cold_typical, "ms",
                                 f"mean of {len(cold_ms)} artifacts' medians; pooled {_tail(cold)}"),
        "deploy.cold_start_p90_ms": (percentile(pooled, 90), "ms", f"pooled n={cold['n']}"),
        "offline.images_per_s": (offline_rate, "1/s",
                                 f"median batch times of {offline_passes} passes over {len(deployables)} artifacts"),
    }
    return RunResult(
        metrics=metrics, ungated=ungated, checks=checks, chain=chain, serving=serving,
        extra_bytes=sum(os.path.getsize(d.path) for d in inputs.extras),
    )
