#!/usr/bin/env bash
# Tier-1 fast path: the full unit test suite (no paper-reproduction benches)
# plus the deployment serve smoke.  The benches live in benchmarks/ and are
# run separately because they train models; this script is what CI and
# pre-commit hooks should gate on.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
python -m pytest tests -q "$@"

# Benchmark self-tests (seconds, no workload runs): they import the library
# the way perfbench/run.py does, so a src/ change that breaks the
# benchmark's calls (e.g. the Server keyword set it passes) fails here.
python -m pytest perfbench -q -p no:cacheprovider

# Serve smoke: artifact -> session -> server round trip (seconds, no
# training), including two deterministic chaos legs (REPRO_FAULTS env knob
# and a programmatic FaultPlan) that pin crash-restart bitwise parity,
# poison quarantine, and exact shed/expiry counts.
python scripts/serve_smoke.py

# Train-resume smoke: crash-safe training round trip (seconds, quick
# resnet20 CSQ on synthetic data).  Kills the run at injected steps via
# REPRO_FAULTS="preempt@N", auto-resumes from the newest checkpoint, and
# asserts final weights and histories are bitwise identical to an
# uninterrupted run; a corrupt-checkpoint leg must skip the torn file
# with a telemetry warning and fall back to the previous valid one.
python scripts/train_resume_smoke.py

# Load-generator smoke: one tiny open-loop sweep + soak against a packed
# resnet20, with the built-in self-check (report parses, percentiles
# monotone, provenance manifest complete), plus a seeded --chaos phase
# whose self-check cross-validates client-observed typed errors against
# the server's shed/expired/restart/quarantine counters.  See
# OBSERVABILITY.md and DEPLOYMENT.md ("Resilience").
LOADGEN_OUT="$(mktemp -d /tmp/loadgen_smoke.XXXXXX)"
trap 'rm -rf "$LOADGEN_OUT"' EXIT
python scripts/loadgen.py --smoke --chaos --out "$LOADGEN_OUT"
