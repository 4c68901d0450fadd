"""In-memory span tracing for the traced run, installed from outside the program.

:func:`install` wraps the public functions of each layer where their callers
look them up, and records one span per call: name, start, end, parent span
and a step or batch id.  Spans stay in memory until :meth:`Tracer.write`
puts them in an NDJSON file at exit.  :func:`layer_table` gives each span
name's count, total and self time (its duration minus the part covered by
its child spans).  The untraced run never calls :func:`install`.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    step: int
    thread: str


class Tracer:
    """Collects spans from any thread; parents follow each thread's open spans.

    Inside a :meth:`region` named ``muted`` nothing is recorded or counted
    but the region's own span: the benchmark's set-up and reference checks
    call the same layers as the program, and would be charged to them.
    """

    def __init__(self, muted: Optional[str] = None) -> None:
        self.muted = muted
        self.spans: List[Span] = []
        self.step = 0  # optimizer steps taken so far: the id of the step running
        self.counts: Dict[str, float] = {}
        self._local = threading.local()
        self._ids = iter(range(1, 1 << 62))
        self._id_lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _is_muted(self) -> bool:
        return getattr(self._local, "muted", 0) > 0

    def open(self) -> Tuple[int, Optional[int], float]:
        stack = self._stack()
        with self._id_lock:
            span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def close(self, name: str, token: Tuple[int, Optional[int], float], step: Optional[int] = None) -> None:
        end = time.perf_counter()
        span_id, parent, start = token
        self._stack().pop()
        if self._is_muted():
            return
        self.spans.append(Span(
            span_id, name, start, end, parent,
            self.step if step is None else step, threading.current_thread().name,
        ))

    def count(self, name: str, amount: float) -> None:
        if not self._is_muted():
            self.counts[name] = self.counts.get(name, 0) + amount

    @contextlib.contextmanager
    def region(self, name: str):
        """A span around a block of the benchmark's own code."""
        muting = name == self.muted
        token = self.open()
        self._local.muted = getattr(self._local, "muted", 0) + muting
        try:
            yield
        finally:
            self._local.muted -= muting
            self.close(name, token)

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.__dict__) + "\n")


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id → duration minus the union of its children's intervals."""
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(span.span_id, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result[span.span_id] = (span.end - span.start) - covered
    return result


def layer_table(spans: Iterable[Span]) -> Dict[str, Dict[str, float]]:
    """Span name → ``{"count", "total_ms", "self_ms"}``."""
    spans = list(spans)
    own = self_times(spans)
    table: Dict[str, Dict[str, float]] = {}
    for span in spans:
        row = table.setdefault(span.name, {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["count"] += 1
        row["total_ms"] += 1e3 * (span.end - span.start)
        row["self_ms"] += 1e3 * own[span.span_id]
    return table


def render(table: Dict[str, Dict[str, float]], title: str) -> str:
    lines = [f"per-layer spans: {title}", f"{'span':<26}{'count':>9}{'total_ms':>13}{'self_ms':>13}"]
    for name, row in sorted(table.items(), key=lambda item: -item[1]["total_ms"]):
        lines.append(f"{name:<26}{row['count']:>9}{row['total_ms']:>13.1f}{row['self_ms']:>13.1f}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------


class Installation:
    """The wrappers :func:`install` put in place, so they can be removed again."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: List[Tuple[object, str, object]] = []

    def replace(self, owner: object, attr: str, factory: Callable) -> None:
        """Set ``owner.attr`` to ``factory(original)``; classes must define ``attr``."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(factory(original)))

    def span(self, owner: object, attr: str, name: str, top_level: bool = False) -> None:
        """Record a span named ``name`` around each call of ``owner.attr``.

        With ``top_level`` only the outermost call on a thread is recorded
        (``Module.__call__`` recurses through every submodule).
        """
        tracer = self.tracer
        active = threading.local()

        def factory(original):
            def wrapper(*args, **kwargs):
                if top_level:
                    if getattr(active, "on", False):
                        return original(*args, **kwargs)
                    active.on = True
                token = tracer.open()
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer.close(name, token)
                    if top_level:
                        active.on = False
            return wrapper

        self.replace(owner, attr, factory)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def timed_iteration(tracer: Tracer, name: str, iterable) -> Iterable:
    """Yield from ``iterable``, recording the wait for each item as a span."""
    iterator = iter(iterable)
    try:
        while True:
            token = tracer.open()
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                tracer.close(name, token)
            yield item
    finally:
        close = getattr(iterator, "close", None)
        if close is not None:
            close()


#: ``session.run`` spans are named by the batch size they executed.
BATCH_BUCKETS = ((1, "b1"), (8, "b2-8"), (32, "b9-32"), (128, "b33-128"))


def batch_bucket(size: int) -> str:
    for upper, label in BATCH_BUCKETS:
        if size <= upper:
            return label
    return "b129-up"


def install(tracer: Tracer) -> Installation:
    """Wrap the layer boundaries the per-layer metrics are read from.

    Each function is replaced where its callers look it up: ``parallel_gemm``
    separately in ``autograd.ops`` (training) and in ``deploy.plan`` and
    ``runtime.intgemm`` (serving), ``evaluate`` and ``iter_batches`` in every
    module that imported them.
    """
    import repro.autograd.ops as autograd_ops
    import repro.baselines.bsq as bsq
    import repro.csq.trainer as csq_trainer
    import repro.deploy.plan as plan
    import repro.deploy.session as session
    import repro.runtime.intgemm as intgemm
    import repro.training.loop as loop
    from repro.autograd.tensor import Tensor
    from repro.csq.bitparam import BitParameterization
    from repro.csq.regularizer import BudgetAwareRegularizer
    from repro.data.dataloader import DataLoader
    from repro.nn.module import Module
    from repro.optim.optimizer import Optimizer
    from repro.optim.sgd import SGD
    from repro.runtime import default_arena

    done = Installation(tracer)
    done.span(Module, "__call__", "nn.forward", top_level=True)
    done.span(Tensor, "backward", "autograd.backward")
    done.span(Optimizer, "zero_grad", "optim.zero_grad")
    done.span(BitParameterization, "relaxed_weight", "csq.relaxed_weight")
    done.span(BudgetAwareRegularizer, "__call__", "csq.regularizer")
    done.span(csq_trainer.CSQTrainer, "freeze", "csq.freeze")
    done.span(csq_trainer.CSQTrainer, "train", "csq.train")
    done.span(bsq.BSQTrainer, "train", "bsq.train")
    for module in (loop, csq_trainer, bsq):
        done.span(module, "evaluate", "training.evaluate")
    done.span(autograd_ops, "parallel_gemm", "runtime.gemm.train")
    for module in (plan, intgemm):
        done.span(module, "parallel_gemm", "runtime.gemm.serve")
    done.span(session, "compile_plan", "plan.compile")

    arena = default_arena()
    previous = {"optimizer": None, "misses": 0}

    def step_factory(original):
        def step(self, *args, **kwargs):
            token = tracer.open()
            try:
                return original(self, *args, **kwargs)
            finally:
                tracer.close("optim.step", token)
                # Arena misses per step, leaving out each phase's first step
                # (a new optimizer instance), which allocates its shapes.
                misses = arena.stats()["misses"]
                if previous["optimizer"] is self:
                    tracer.count("runtime.arena_misses", misses - previous["misses"])
                    tracer.count("runtime.warm_steps", 1)
                previous.update(optimizer=self, misses=misses)
                tracer.step += 1
        return step

    done.replace(SGD, "step", step_factory)

    def iter_batches_factory(original):
        def iter_batches(loader, prefetch):
            return timed_iteration(tracer, "data.next_batch", original(loader, prefetch))
        return iter_batches

    for module in (loop, csq_trainer):
        done.replace(module, "iter_batches", iter_batches_factory)

    def loader_iter_factory(original):
        def loader_iter(self):
            # Prefetch workers iterate loaders off the main thread; the wait
            # the consumer sees is recorded by the iter_batches wrapper.
            if threading.current_thread() is not threading.main_thread():
                return original(self)
            return timed_iteration(tracer, "data.next_batch", original(self))
        return loader_iter

    done.replace(DataLoader, "__iter__", loader_iter_factory)

    def run_factory(original):
        def run(self, x, *args, **kwargs):
            size = len(x)
            token = tracer.open()
            try:
                return original(self, x, *args, **kwargs)
            finally:
                tracer.close(f"session.run.{batch_bucket(size)}", token, step=self._calls)
                tracer.count("session.examples", size)
                tracer.count("session.runs", 1)
        return run

    done.replace(session.InferenceSession, "run", run_factory)
    return done
