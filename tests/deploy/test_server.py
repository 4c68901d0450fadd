"""Serving engine: micro-batching, caching, stats, lifecycle."""

import threading

import numpy as np
import pytest

from repro.deploy import FaultPlan, InferenceSession, Server, load_artifact, save_artifact
from tests.deploy.conftest import frozen_mixed_model


@pytest.fixture
def session(artifact_path):
    model = frozen_mixed_model("simple_convnet", num_classes=10, width=8)
    save_artifact(model, artifact_path, arch="simple_convnet",
                  arch_kwargs={"num_classes": 10, "width": 8})
    return InferenceSession(load_artifact(artifact_path))


def _examples(rng, n):
    return [rng.standard_normal((3, 10, 10)).astype(np.float32) for _ in range(n)]


def test_served_results_match_session(session, rng):
    examples = _examples(rng, 6)
    want = session.run(np.stack(examples))
    with Server(session, max_batch=4, max_wait_ms=1.0) as server:
        got = np.stack(server.predict_many(examples))
    np.testing.assert_allclose(got, want, atol=1e-6)


def test_microbatching_coalesces_requests(session, rng):
    examples = _examples(rng, 16)
    # The first request's batch stalls, so the other 15, submitted from many
    # client threads meanwhile, find a backlog however slowly those threads
    # start; then gather.
    faults = FaultPlan(seed=0).slow_at(0, ms=300)
    with Server(session, max_batch=16, max_wait_ms=50.0, faults=faults) as server:
        futures = [server.submit(examples[0])]
        lock = threading.Lock()

        def client(x):
            f = server.submit(x)
            with lock:
                futures.append(f)

        threads = [threading.Thread(target=client, args=(x,)) for x in examples[1:]]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for f in futures:
            f.result(timeout=10.0)
        stats = server.stats.snapshot()
    assert stats["requests"] == 16
    assert stats["served"] == 16
    # Coalescing must actually happen: far fewer forward passes than requests.
    assert stats["batches"] < 16
    assert stats["mean_batch_size"] > 1.0


def test_max_batch_respected(session, rng):
    examples = _examples(rng, 9)
    with Server(session, max_batch=4, max_wait_ms=20.0) as server:
        server.predict_many(examples)
        stats = server.stats.snapshot()
    assert stats["mean_batch_size"] <= 4.0


def test_cache_hits_identical_requests(session, rng):
    example = _examples(rng, 1)[0]
    with Server(session, max_batch=4, max_wait_ms=0.0, cache_size=8) as server:
        first = server.predict(example)
        second = server.predict(example)
        stats = server.stats.snapshot()
    np.testing.assert_array_equal(first, second)
    assert stats["cache_hits"] == 1
    # Only the first request reached the model.
    assert stats["served"] == 1


def test_cache_evicts_lru(session, rng):
    examples = _examples(rng, 3)
    with Server(session, max_batch=1, max_wait_ms=0.0, cache_size=2) as server:
        for x in examples:  # fills cache with [1, 2] after evicting 0
            server.predict(x)
        server.predict(examples[0])  # evicted: must be recomputed
        stats = server.stats.snapshot()
    assert stats["cache_hits"] == 0
    assert stats["served"] == 4


def test_stats_latency_fields(session, rng):
    with Server(session, max_batch=2, max_wait_ms=0.0) as server:
        server.predict_many(_examples(rng, 4))
        stats = server.stats.snapshot()
    for key in ("latency_mean_ms", "latency_p50_ms", "latency_p95_ms", "throughput_rps"):
        assert stats[key] > 0.0


def test_submit_after_stop_raises(session, rng):
    server = Server(session).start()
    server.stop()
    with pytest.raises(RuntimeError, match="not running"):
        server.submit(_examples(rng, 1)[0])


def test_stop_fails_unserved_requests(session, rng):
    """Requests the worker never reached resolve with an error, not a hang."""
    server = Server(session, max_batch=2, max_wait_ms=0.0)
    # Enqueue without a running worker, then stop: the drain must fail them.
    server._running = True
    futures = [server.submit(x) for x in _examples(rng, 3)]
    server.stop()
    for future in futures:
        with pytest.raises(RuntimeError, match="stopped before"):
            future.result(timeout=1.0)


def test_bad_input_propagates_exception(session):
    with Server(session, max_wait_ms=0.0) as server:
        future = server.submit(np.zeros((1, 1, 1), dtype=np.float32))  # wrong geometry
        with pytest.raises(Exception):
            future.result(timeout=10.0)


def test_malformed_request_does_not_poison_batch(session, rng):
    """A wrong-shaped request in a coalesced batch fails alone."""
    good = _examples(rng, 3)
    with Server(session, max_batch=8, max_wait_ms=100.0) as server:
        futures = [server.submit(x) for x in good]
        bad = server.submit(np.zeros((2, 2, 2), dtype=np.float32))
        results = [f.result(timeout=10.0) for f in futures]
        with pytest.raises(Exception):
            bad.result(timeout=10.0)
    want = session.run(np.stack(good))
    np.testing.assert_allclose(np.stack(results), want, atol=1e-6)


def test_cache_hit_on_stopped_server_raises(session, rng):
    example = _examples(rng, 1)[0]
    server = Server(session, max_wait_ms=0.0, cache_size=8).start()
    server.predict(example)
    server.stop()
    with pytest.raises(RuntimeError, match="not running"):
        server.submit(example)


def test_constructor_validation(session):
    with pytest.raises(ValueError):
        Server(session, max_batch=0)
    with pytest.raises(ValueError):
        Server(session, max_wait_ms=-1.0)


def test_stats_p99_and_queue_service_split(session, rng):
    """Latency carries p99; queue wait and service time are reported apart."""
    with Server(session, max_batch=2, max_wait_ms=0.0) as server:
        server.predict_many(_examples(rng, 6))
        stats = server.stats.snapshot()
    assert stats["latency_p50_ms"] <= stats["latency_p95_ms"] <= stats["latency_p99_ms"]
    for prefix in ("queue_wait", "service"):
        p50 = stats[f"{prefix}_p50_ms"]
        p95 = stats[f"{prefix}_p95_ms"]
        p99 = stats[f"{prefix}_p99_ms"]
        assert 0.0 <= p50 <= p95 <= p99
    # Latency decomposes as queue wait + service: each component's p99 is
    # bounded by the end-to-end p99 (histogram resolution gives slack).
    assert stats["service_p99_ms"] <= stats["latency_p99_ms"] * 1.1


def test_stats_cache_hit_rate_and_queue_depth(session, rng):
    example = _examples(rng, 1)[0]
    with Server(session, max_batch=4, max_wait_ms=0.0, cache_size=8) as server:
        server.predict(example)
        server.predict(example)
        server.predict(example)
        stats = server.stats.snapshot()
    assert stats["cache_hit_rate"] == pytest.approx(2.0 / 3.0)
    # Nothing pending once predicts returned.
    assert stats["queue_depth"] == 0.0


def test_stats_batch_size_distribution(session, rng):
    examples = _examples(rng, 5)
    with Server(session, max_batch=1, max_wait_ms=0.0) as server:
        server.predict_many(examples)
        stats = server.stats.snapshot()
    # max_batch=1 forces singleton batches: the distribution is {1: 5}.
    assert stats["batch_size_dist"] == {1: 5}
    assert sum(stats["batch_size_dist"].values()) == stats["batches"]


def test_stats_fixed_memory(session, rng):
    """The stats object does not grow with request count (streaming hists)."""
    stats = server_stats = None
    with Server(session, max_batch=4, max_wait_ms=0.0) as server:
        server.predict(_examples(rng, 1)[0])
        server_stats = server.stats
        buckets_before = server_stats._latency._counts.size
        server.predict_many(_examples(rng, 12))
        assert server_stats._latency._counts.size == buckets_before
        stats = server_stats.snapshot()
    assert stats["served"] == 13


def test_clear_cache_forces_recompute(session, rng):
    example = _examples(rng, 1)[0]
    with Server(session, max_batch=4, max_wait_ms=0.0, cache_size=8) as server:
        server.predict(example)
        server.predict(example)  # hit
        server.clear_cache()
        server.predict(example)  # cold again: recomputed
        stats = server.stats.snapshot()
    assert stats["cache_hits"] == 1
    assert stats["served"] == 2


def test_request_ids_are_sequential(session, rng):
    with Server(session, max_batch=4, max_wait_ms=0.0) as server:
        server.predict_many(_examples(rng, 3))
        assert server.stats.requests == 3


def test_lone_request_skips_the_coalescing_window(session, rng):
    """A request that finds an idle server runs at once, not after max_wait_ms."""
    example = _examples(rng, 1)[0]
    with Server(session, max_batch=8, max_wait_ms=500.0) as server:
        got = server.predict(example)
    # Snapshot after stop(): the worker records stats after resolving futures.
    stats = server.stats.snapshot()
    np.testing.assert_allclose(got, session.run(example[None])[0], atol=1e-6)
    # Waiting out the window would make this at least 500 ms.
    assert stats["service_p99_ms"] < 250.0
    assert stats["batches"] == 1
    assert stats["windowed_batches"] == 0


def test_backlog_behind_a_stall_is_coalesced(session, rng):
    """Requests that pile up behind a busy worker still share forward passes."""
    examples = _examples(rng, 8)
    faults = FaultPlan(seed=0).slow_at(0, ms=300)
    with Server(session, max_batch=8, max_wait_ms=50.0, faults=faults) as server:
        stalled = server.submit(examples[0])
        futures = [server.submit(x) for x in examples[1:]]
        got = [stalled.result(timeout=10.0)] + [f.result(timeout=10.0) for f in futures]
    stats = server.stats.snapshot()
    np.testing.assert_allclose(np.stack(got), session.run(np.stack(examples)), atol=1e-5)
    assert stats["served"] == 8
    assert stats["windowed_batches"] >= 1
    assert max(stats["batch_size_dist"]) > 1
