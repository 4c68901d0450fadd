"""Crash-safe training checkpoints: atomic save, verified load, exact resume.

A :class:`TrainState` captures *everything* a training run needs to
continue bitwise-exactly after a kill: the model ``state_dict`` (including
BatchNorm running statistics, CSQ gate/bit parameters, and activation-
observer moving averages — all registered buffers/parameters), the
optimizer state (SGD momentum buffers, Adam moments and step counts, per-
group LR overrides), LR-scheduler counters, the CSQ phase state (gate
temperature, hard-mask flags, phase + epoch cursor), the accumulated
:class:`~repro.training.loop.TrainingHistory`, and every RNG stream the
loop consumes (Python ``random``, NumPy's legacy global, the
``DataLoader`` shuffle generator, per-``Dropout`` generators).

On disk a checkpoint is one ``.npz`` file, mirroring the deployment
artifact format: a JSON manifest member plus one member per tensor, with
per-blob CRC32 checksums recorded in the manifest
(:mod:`repro.utils.integrity` — the same scheme PR 8 introduced for
artifacts).  Writes are atomic (temp file → fsync → ``os.replace``), so a
crash mid-save never leaves a torn file; loads verify every checksum and
raise the typed :class:`CheckpointCorrupt` on any mismatch, truncation,
or undecodable container.

:class:`Checkpointer` manages a checkpoint directory: cadence
(``every`` epochs), retention (``keep`` newest files), and ``resume()``
— which walks checkpoints newest-first, *skipping* corrupt/torn files
(counted in ``train.corrupt_skipped`` with a telemetry warning) and
returning the newest valid state, so resume degrades gracefully to the
previous checkpoint instead of failing.

Telemetry (when ``REPRO_TELEMETRY`` is on): ``checkpoint.save`` /
``checkpoint.load`` spans, ``train.checkpoints_written`` /
``train.resumes`` / ``train.corrupt_skipped`` counters, and one NDJSON
``{"type": "checkpoint", ...}`` record per write.  All of it is behind
the usual ``telemetry() is not None`` gate — zero cost when off.
"""

from __future__ import annotations

import io
import json
import os
import random
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro
from repro import obs
from repro.nn.dropout import Dropout
from repro.nn.module import Module
from repro.training.loop import TrainingHistory
from repro.utils.integrity import atomic_write_bytes, checksum_blobs, corrupt_blobs

FORMAT_VERSION = 1
_MANIFEST_KEY = "manifest"
_MODEL_PREFIX = "model::"
_OPT_PREFIX = "opt::"
_BLOB_REF = "__blob__"
_FILE_PATTERN = re.compile(r"^ckpt-(\d+)\.npz$")


class CheckpointError(ValueError):
    """Raised when a checkpoint file is malformed or incompatible."""


class CheckpointCorrupt(CheckpointError):
    """Raised when a checkpoint fails integrity verification.

    Covers torn/truncated containers, undecodable manifests, and stored
    blobs whose CRC32 does not match the manifest — anything where the
    bytes on disk cannot be trusted to reproduce the saved state.
    """


@dataclass
class TrainState:
    """Everything needed to continue a training run bitwise-exactly.

    ``epoch`` is the index of the last *completed* epoch within ``phase``
    (resume continues at ``epoch + 1``); ``step`` counts completed
    optimizer steps across all phases — the index space of ``preempt``
    faults and the checkpoint filename ordinal.
    """

    model_state: Dict[str, np.ndarray]
    phase: str = "fit"
    epoch: int = -1
    step: int = 0
    optimizer_state: Optional[Dict] = None
    scheduler_state: Optional[Dict] = None
    history: Optional[TrainingHistory] = None
    finetune_history: Optional[TrainingHistory] = None
    csq: Dict[str, object] = field(default_factory=dict)
    rng: Dict[str, object] = field(default_factory=dict)
    metadata: Dict[str, object] = field(default_factory=dict)


# ----------------------------------------------------------------------
# RNG stream capture
# ----------------------------------------------------------------------
def capture_rng(train_loader=None, model: Optional[Module] = None) -> Dict[str, object]:
    """Snapshot every RNG stream a training loop consumes (JSON-serializable).

    * ``python`` — the ``random`` module's Mersenne Twister,
    * ``numpy_legacy`` — NumPy's global legacy RNG (``np.random.*``),
    * ``train_loader`` — the DataLoader's shuffle generator, so the
      remaining epochs draw the exact permutations of an uninterrupted run,
    * ``dropout`` — per-module generator state for every ``Dropout`` in
      ``model`` (keyed by module name), since each owns a private stream.
    """
    version, keys, gauss = random.getstate()
    name, mt_keys, pos, has_gauss, cached = np.random.get_state()
    state: Dict[str, object] = {
        "python": [version, list(keys), gauss],
        "numpy_legacy": [name, [int(k) for k in mt_keys], int(pos), int(has_gauss), float(cached)],
    }
    if train_loader is not None:
        state["train_loader"] = train_loader.rng_state()
    if model is not None:
        dropout = {
            module_name: module._rng.bit_generator.state
            for module_name, module in model.named_modules()
            if isinstance(module, Dropout)
        }
        if dropout:
            state["dropout"] = dropout
    return state


def restore_rng(state: Dict[str, object], train_loader=None, model: Optional[Module] = None) -> None:
    """Restore streams captured by :func:`capture_rng` (missing keys are skipped)."""
    python = state.get("python")
    if python is not None:
        version, keys, gauss = python
        random.setstate((int(version), tuple(int(k) for k in keys), gauss))
    legacy = state.get("numpy_legacy")
    if legacy is not None:
        name, keys, pos, has_gauss, cached = legacy
        np.random.set_state(
            (str(name), np.array(keys, dtype=np.uint32), int(pos), int(has_gauss), float(cached))
        )
    loader_state = state.get("train_loader")
    if train_loader is not None and loader_state is not None:
        train_loader.set_rng_state(loader_state)
    dropout = state.get("dropout")
    if model is not None and dropout:
        modules = dict(model.named_modules())
        for module_name, rng_state in dropout.items():
            module = modules.get(module_name)
            if isinstance(module, Dropout):
                module._rng.bit_generator.state = rng_state


# ----------------------------------------------------------------------
# History (de)serialization
# ----------------------------------------------------------------------
def _history_dict(history: Optional[TrainingHistory]) -> Optional[Dict[str, object]]:
    if history is None:
        return None
    return {
        "train_loss": list(history.train_loss),
        "train_accuracy": list(history.train_accuracy),
        "test_loss": list(history.test_loss),
        "test_accuracy": list(history.test_accuracy),
        "extra": {key: list(values) for key, values in history.extra.items()},
    }


def _history_from_dict(data: Optional[Dict[str, object]]) -> Optional[TrainingHistory]:
    if data is None:
        return None
    return TrainingHistory(
        train_loss=[float(v) for v in data.get("train_loss", [])],
        train_accuracy=[float(v) for v in data.get("train_accuracy", [])],
        test_loss=[float(v) for v in data.get("test_loss", [])],
        test_accuracy=[float(v) for v in data.get("test_accuracy", [])],
        extra={k: [float(v) for v in vals] for k, vals in data.get("extra", {}).items()},
    )


# ----------------------------------------------------------------------
# Save / load
# ----------------------------------------------------------------------
def save_checkpoint(state: TrainState, path: str) -> int:
    """Atomically write ``state`` to ``path``; returns the file size in bytes.

    Array-valued state becomes one npz member each (``model::{name}`` for
    model tensors, ``opt::{index}::{key}`` for optimizer buffers, dtypes
    preserved exactly); scalars, counters, histories, and RNG streams ride
    in the JSON manifest together with a CRC32 per member.
    """
    arrays: Dict[str, np.ndarray] = {}
    for name, value in state.model_state.items():
        arrays[_MODEL_PREFIX + name] = np.asarray(value)

    opt_manifest: Optional[Dict[str, object]] = None
    if state.optimizer_state is not None:
        packed_state: Dict[str, Dict[str, object]] = {}
        for index, entry in state.optimizer_state["state"].items():
            packed_entry: Dict[str, object] = {}
            for key, value in entry.items():
                if isinstance(value, np.ndarray):
                    member = f"{_OPT_PREFIX}{index}::{key}"
                    arrays[member] = value
                    packed_entry[key] = {_BLOB_REF: member}
                else:
                    packed_entry[key] = value
            packed_state[str(index)] = packed_entry
        opt_manifest = {
            "param_groups": state.optimizer_state["param_groups"],
            "state": packed_state,
        }

    manifest: Dict[str, object] = {
        "format_version": FORMAT_VERSION,
        "framework_version": repro.__version__,
        "phase": state.phase,
        "epoch": int(state.epoch),
        "step": int(state.step),
        "optimizer": opt_manifest,
        "scheduler": state.scheduler_state,
        "history": _history_dict(state.history),
        "finetune_history": _history_dict(state.finetune_history),
        "csq": state.csq,
        "rng": state.rng,
        "metadata": state.metadata,
        "model_tensors": sorted(state.model_state),
        "checksums": checksum_blobs(arrays),
    }
    arrays[_MANIFEST_KEY] = np.frombuffer(
        json.dumps(manifest, sort_keys=True).encode("utf-8"), dtype=np.uint8
    )

    telemetry = obs.telemetry()
    if telemetry is None:
        buffer = io.BytesIO()
        np.savez(buffer, **arrays)
        payload = buffer.getvalue()
        atomic_write_bytes(path, payload)
        return len(payload)
    with telemetry.tracer.span("checkpoint.save", phase=state.phase, step=state.step):
        buffer = io.BytesIO()
        np.savez(buffer, **arrays)
        payload = buffer.getvalue()
        atomic_write_bytes(path, payload)
    telemetry.registry.counter("train.checkpoints_written").inc()
    telemetry.emit(
        {
            "type": "checkpoint",
            "event": "save",
            "path": path,
            "phase": state.phase,
            "epoch": int(state.epoch),
            "step": int(state.step),
            "bytes": len(payload),
        }
    )
    return len(payload)


def load_checkpoint(path: str) -> TrainState:
    """Load and verify a checkpoint written by :func:`save_checkpoint`.

    Raises :class:`CheckpointCorrupt` when the file is truncated, the
    manifest does not decode, any stored blob fails its manifest CRC32, or
    a referenced member is missing; ``FileNotFoundError`` when the path
    does not exist.  Verification happens *before* any state is handed to
    the caller, so a resumed run never sees partially-trustworthy state.
    """
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    telemetry = obs.telemetry()
    if telemetry is None:
        return _load_verified(path)
    with telemetry.tracer.span("checkpoint.load", path=path):
        return _load_verified(path)


def _load_verified(path: str) -> TrainState:
    try:
        with np.load(path, allow_pickle=False) as archive:
            if _MANIFEST_KEY not in archive:
                raise CheckpointCorrupt(f"{path} has no checkpoint manifest")
            manifest = json.loads(bytes(archive[_MANIFEST_KEY]).decode("utf-8"))
            version = manifest.get("format_version")
            if version != FORMAT_VERSION:
                raise CheckpointError(
                    f"Checkpoint format version {version!r} is not supported "
                    f"(this build reads version {FORMAT_VERSION})"
                )
            checksums = manifest.get("checksums")
            if not isinstance(checksums, dict):
                raise CheckpointCorrupt(f"{path} manifest carries no checksums")
            corrupt = corrupt_blobs(archive, checksums)
            if corrupt:
                raise CheckpointCorrupt(
                    f"Checkpoint {path} failed its integrity check: stored "
                    f"blob(s) {corrupt} do not match the manifest CRC32 "
                    f"checksums — the file is corrupt or was tampered with"
                )
            model_state = {
                name[len(_MODEL_PREFIX):]: archive[name].copy()
                for name in archive.files
                if name.startswith(_MODEL_PREFIX)
            }
            optimizer_state = None
            opt_manifest = manifest.get("optimizer")
            if opt_manifest is not None:
                unpacked: Dict[int, Dict[str, object]] = {}
                for index, entry in opt_manifest["state"].items():
                    restored: Dict[str, object] = {}
                    for key, value in entry.items():
                        if isinstance(value, dict) and _BLOB_REF in value:
                            member = value[_BLOB_REF]
                            if member not in archive:
                                raise CheckpointCorrupt(
                                    f"Checkpoint {path} references missing member {member!r}"
                                )
                            restored[key] = archive[member].copy()
                        else:
                            restored[key] = value
                    unpacked[int(index)] = restored
                optimizer_state = {
                    "param_groups": opt_manifest["param_groups"],
                    "state": unpacked,
                }
    except (CheckpointError, FileNotFoundError):
        raise
    except Exception as error:
        # Torn zip containers, truncated npy members, undecodable JSON —
        # all the shapes a killed-mid-write or bit-rotted file can take.
        raise CheckpointCorrupt(f"Checkpoint {path} is unreadable: {error}") from error
    return TrainState(
        model_state=model_state,
        phase=str(manifest.get("phase", "fit")),
        epoch=int(manifest.get("epoch", -1)),
        step=int(manifest.get("step", 0)),
        optimizer_state=optimizer_state,
        scheduler_state=manifest.get("scheduler"),
        history=_history_from_dict(manifest.get("history")),
        finetune_history=_history_from_dict(manifest.get("finetune_history")),
        csq=dict(manifest.get("csq", {})),
        rng=dict(manifest.get("rng", {})),
        metadata=dict(manifest.get("metadata", {})),
    )


# ----------------------------------------------------------------------
# Directory management
# ----------------------------------------------------------------------
def checkpoint_path(directory: str, step: int) -> str:
    """Canonical filename for the checkpoint at global step ``step``."""
    return os.path.join(directory, f"ckpt-{int(step):010d}.npz")


def list_checkpoints(directory: str) -> List[str]:
    """Checkpoint paths in ``directory``, sorted oldest → newest by step."""
    if not os.path.isdir(directory):
        return []
    entries: List[Tuple[int, str]] = []
    for name in os.listdir(directory):
        match = _FILE_PATTERN.match(name)
        if match:
            entries.append((int(match.group(1)), os.path.join(directory, name)))
    return [path for _, path in sorted(entries)]


def latest_valid_checkpoint(directory: str) -> Optional[Tuple[str, TrainState]]:
    """Newest checkpoint that loads and verifies, skipping corrupt files.

    Walks the directory newest-first; every torn/corrupt file is skipped
    (with a ``train.corrupt_skipped`` count and a telemetry warning) and
    the walk falls back to the previous one — the recovery semantics the
    resilient-serving tier established for artifacts, applied to training.
    Returns ``None`` when no valid checkpoint exists.
    """
    for path in reversed(list_checkpoints(directory)):
        try:
            return path, load_checkpoint(path)
        except CheckpointCorrupt as error:
            telemetry = obs.telemetry()
            if telemetry is not None:
                telemetry.registry.counter("train.corrupt_skipped").inc()
                telemetry.warn(
                    "skipping corrupt checkpoint during resume",
                    path=path,
                    error=str(error),
                )
    return None


class Checkpointer:
    """Cadence, retention, and resume policy over one checkpoint directory.

    Parameters
    ----------
    directory:
        Where checkpoints live (created on first save).
    every:
        Save after every ``every``-th completed epoch of a phase.
    keep:
        Retain at most this many newest checkpoints; older ones are
        deleted after each successful save.  ``keep >= 2`` is what makes
        corrupt-skip fallback meaningful.
    """

    def __init__(self, directory: str, every: int = 1, keep: int = 3) -> None:
        if every < 1:
            raise ValueError(f"checkpoint_every must be >= 1, got {every}")
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.directory = directory
        self.every = int(every)
        self.keep = int(keep)

    def maybe_save(self, state: TrainState, epoch_in_phase: int) -> Optional[str]:
        """Save if the cadence says so; returns the path when written."""
        if (epoch_in_phase + 1) % self.every != 0:
            return None
        return self.save(state)

    def save(self, state: TrainState) -> str:
        os.makedirs(self.directory, exist_ok=True)
        path = checkpoint_path(self.directory, state.step)
        save_checkpoint(state, path)
        self._prune()
        return path

    def _prune(self) -> None:
        paths = list_checkpoints(self.directory)
        for path in paths[: max(len(paths) - self.keep, 0)]:
            try:
                os.unlink(path)
            except OSError:
                pass

    def resume(self) -> Optional[TrainState]:
        """Newest valid checkpoint state, or ``None`` (fresh start).

        Counts one ``train.resumes`` when a state is found.
        """
        found = latest_valid_checkpoint(self.directory)
        if found is None:
            return None
        path, state = found
        telemetry = obs.telemetry()
        if telemetry is not None:
            telemetry.registry.counter("train.resumes").inc()
            telemetry.emit(
                {
                    "type": "checkpoint",
                    "event": "resume",
                    "path": path,
                    "phase": state.phase,
                    "epoch": int(state.epoch),
                    "step": int(state.step),
                }
            )
        return state


#: Values of the trainers' ``resume`` argument.
RESUME_POLICIES = ("auto", "never")


def resume_from(checkpointer: Optional[Checkpointer], resume: str) -> Optional[TrainState]:
    """The state a run continues from under the ``resume`` policy, or ``None``.

    ``"auto"`` restores the newest valid checkpoint, ``"never"`` starts
    fresh.  Any other value raises ``ValueError`` even without a
    checkpointer: a mistyped policy would otherwise train from scratch into
    a directory holding another run's checkpoints.
    """
    if resume not in RESUME_POLICIES:
        raise ValueError(f"resume must be one of {RESUME_POLICIES}, got {resume!r}")
    if checkpointer is None or resume == "never":
        return None
    return checkpointer.resume()
