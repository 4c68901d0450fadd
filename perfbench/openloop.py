"""Seeded open-loop load generator for :class:`repro.deploy.Server`.

The whole arrival schedule and every payload are fixed up front from the
workload seed; one thread then dispatches each request at its due time,
whether or not earlier requests have completed.  Latency is timed from the
due time, not from the submit call, so a dispatcher or server stall is
charged to every request it delays.  How late the dispatcher itself ran is
reported separately.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.deploy import ServerError

from perfbench.stats import Rung, middle_rate, percentile


@dataclass
class Traffic:
    """The generated inputs of one rung: due offsets and payloads."""

    rate: float
    due_s: np.ndarray  # offsets from the rung start, ascending
    payloads: np.ndarray  # (count, C, H, W) float32
    source: np.ndarray  # request i sends the payload first sent by source[i]
    checked: np.ndarray  # indices whose responses are verified afterwards


def make_traffic(
    rng: np.random.Generator,
    rate: float,
    seconds: float,
    shape: Tuple[int, ...],
    repeat_share: float,
    repeat_window: int,
    checks: int,
) -> Traffic:
    """A Poisson arrival schedule at ``rate`` for ``seconds`` plus its payloads.

    A seeded ``repeat_share`` of the requests re-send, byte for byte, the
    payload of one of the previous ``repeat_window`` requests; the rest are
    fresh standard-normal tensors.  ``checks`` request indices are drawn for
    the response check.
    """
    count = max(1, int(round(rate * seconds)))
    due = np.cumsum(rng.exponential(1.0 / rate, size=count))
    source = np.arange(count)
    repeats = rng.random(count) < repeat_share
    repeats[0] = False
    for i in np.flatnonzero(repeats):
        back = int(rng.integers(1, min(i, repeat_window) + 1))
        source[i] = source[i - back]
    payloads = rng.standard_normal((count,) + tuple(shape)).astype(np.float32)
    payloads = payloads[source]
    checked = np.sort(rng.choice(count, size=min(checks, count), replace=False))
    return Traffic(rate=rate, due_s=due, payloads=payloads, source=source, checked=checked)


@dataclass
class RungResult:
    """What one rung measured."""

    offered_rps: float  # the rung's nominal rate
    scheduled_rps: float  # the rate its seeded schedule offers (middle 80% of due times)
    sent: int
    ok: int
    failed: int
    latency_ms: np.ndarray  # per request, from due time; inf when failed
    late_ms: np.ndarray  # per request, submit time minus due time
    achieved_rps: float  # completions per second (middle 80% of completion times)
    server: Dict[str, object]
    responses: Dict[int, np.ndarray] = field(default_factory=dict)

    def rung(self) -> Rung:
        return Rung(
            self.offered_rps, self.scheduled_rps, self.achieved_rps,
            percentile(self.latency_ms, 99),
        )


def run_rung(server, traffic: Traffic, timeout_s: float = 60.0) -> RungResult:
    """Dispatch ``traffic`` into a started ``server`` and wait for every reply."""
    count = len(traffic.due_s)
    done_at = np.full(count, np.nan)
    ok = np.zeros(count, dtype=bool)
    late = np.zeros(count)
    futures: List[Optional[object]] = [None] * count
    keep = set(traffic.checked.tolist())

    def on_done(future, index: int) -> None:
        done_at[index] = time.perf_counter()
        ok[index] = future.exception() is None

    server.stats.reset()
    start = time.perf_counter() + 0.005
    for i in range(count):
        due = start + traffic.due_s[i]
        wait = due - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        late[i] = time.perf_counter() - due
        try:
            future = server.submit(traffic.payloads[i])
        except ServerError:
            done_at[i] = time.perf_counter()
            continue
        future.add_done_callback(lambda f, i=i: on_done(f, i))
        futures[i] = future
    deadline = time.perf_counter() + timeout_s
    responses: Dict[int, np.ndarray] = {}
    for i, future in enumerate(futures):
        if future is None:
            continue
        try:
            value = future.result(timeout=max(0.0, deadline - time.perf_counter()))
        except Exception:  # counted below: ok[i] stays False
            continue
        if i in keep:
            responses[i] = value
    # Callbacks run in the worker that resolves the future, possibly just
    # after result() returns; wait for the last of them to land.
    submitted = np.array([f is not None for f in futures])
    while np.isnan(done_at[submitted]).any() and time.perf_counter() < deadline:
        time.sleep(1e-3)
    latency = np.where(ok, (done_at - (start + traffic.due_s)) * 1e3, np.inf)
    n_ok = int(ok.sum())
    return RungResult(
        offered_rps=traffic.rate,
        scheduled_rps=middle_rate(traffic.due_s),
        sent=count,
        ok=n_ok,
        failed=count - n_ok,
        latency_ms=latency,
        late_ms=late * 1e3,
        achieved_rps=middle_rate(done_at[ok]),
        server=server.stats.snapshot(),
        responses=responses,
    )
