"""NDJSON sink: round-trip, thread-safety, manifests, malformed input."""

import json
import os
import threading

import numpy as np
import pytest

from repro.obs.provenance import (
    REQUIRED_ENVIRONMENT_FIELDS,
    REQUIRED_MANIFEST_FIELDS,
    environment_block,
    run_manifest,
    validate_manifest,
)
from repro.obs.sink import NdjsonSink, read_ndjson


class TestRoundTrip:
    def test_emit_read_round_trip(self, tmp_path):
        sink = NdjsonSink(str(tmp_path), run_id="rt")
        records = [
            {"type": "request", "id": 1, "latency_ms": 2.5, "cache_hit": False},
            {"type": "batch", "size": 4, "run_ms": 1.25},
            {"type": "span", "name": "server.batch", "attrs": {"size": 4}},
        ]
        for record in records:
            sink.emit(record)
        sink.close()
        got = read_ndjson(sink.events_path)
        assert len(got) == 3
        for original, loaded in zip(records, got):
            for key, value in original.items():
                assert loaded[key] == value
            assert "ts_unix" in loaded  # stamped on emit when absent

    def test_explicit_ts_unix_preserved(self, tmp_path):
        sink = NdjsonSink(str(tmp_path), run_id="ts")
        sink.emit({"type": "request", "ts_unix": 123.5})
        sink.close()
        assert read_ndjson(sink.events_path)[0]["ts_unix"] == 123.5

    def test_numpy_values_serialize(self, tmp_path):
        sink = NdjsonSink(str(tmp_path), run_id="np")
        sink.emit({
            "type": "request",
            "latency_ms": np.float64(1.5),
            "batch": np.int64(4),
            "shape": np.array([3, 8, 8]),
        })
        sink.close()
        record = read_ndjson(sink.events_path)[0]
        assert record["latency_ms"] == 1.5
        assert record["batch"] == 4
        assert record["shape"] == [3, 8, 8]

    def test_concurrent_emit_no_interleaving(self, tmp_path):
        """Line-atomic writes: concurrent emitters never corrupt lines."""
        sink = NdjsonSink(str(tmp_path), run_id="conc")

        def worker(worker_id):
            for index in range(200):
                sink.emit({"type": "request", "worker": worker_id, "i": index})

        threads = [threading.Thread(target=worker, args=(w,)) for w in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        sink.close()
        records = read_ndjson(sink.events_path)  # raises on any malformed line
        assert len(records) == 800
        assert sink.emitted == 800

    def test_malformed_line_raises_with_line_number(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text('{"ok": 1}\nnot json\n')
        with pytest.raises(ValueError, match="bad.ndjson:2"):
            read_ndjson(str(path))

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gappy.ndjson"
        path.write_text('{"a": 1}\n\n{"b": 2}\n')
        assert len(read_ndjson(str(path))) == 2

    def test_context_manager_closes(self, tmp_path):
        with NdjsonSink(str(tmp_path), run_id="cm") as sink:
            sink.emit({"type": "request"})
        assert len(read_ndjson(sink.events_path)) == 1

    def test_run_scoped_directory(self, tmp_path):
        sink = NdjsonSink(str(tmp_path), run_id="scoped")
        assert sink.run_dir == os.path.join(str(tmp_path), "scoped")
        assert os.path.isdir(sink.run_dir)


class TestManifest:
    def test_write_manifest_is_complete(self, tmp_path):
        sink = NdjsonSink(str(tmp_path), run_id="prov")
        path = sink.write_manifest(label="test-run", params={"rate": 50})
        with open(path) as handle:
            manifest = json.load(handle)
        assert validate_manifest(manifest) == []
        assert manifest["label"] == "test-run"
        assert manifest["params"]["rate"] == 50
        assert manifest["schema_version"] == 1

    def test_environment_block_fields(self):
        environment = environment_block()
        for field in REQUIRED_ENVIRONMENT_FIELDS:
            assert field in environment, field
        assert environment["numpy"] == np.__version__
        assert environment["cpu_count"] == os.cpu_count()
        for field in ("blas_vendor", "blas_version", "blas_threads", "openblas_num_threads_env"):
            assert field in environment, field
        # The BLAS thread count decides GEMM bits, so a manifest without it
        # does not count as reproducible.
        assert "blas_threads" in REQUIRED_ENVIRONMENT_FIELDS
        assert not {"repro_num_threads", "repro_int_gemm"} & set(environment)

    def test_validate_manifest_reports_missing(self):
        manifest = run_manifest("x")
        del manifest["environment"]["git_sha"]
        del manifest["params"]
        missing = validate_manifest(manifest)
        assert "params" in missing
        assert "environment.git_sha" in missing
        assert set(REQUIRED_MANIFEST_FIELDS) - {"params"} <= set(manifest)
