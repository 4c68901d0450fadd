"""The repository benchmark: seeded workloads over the train → deploy → serve flow.

``perfbench/run.py`` is the entry point; :mod:`perfbench.workloads` defines
the workloads and end-to-end metrics, :mod:`perfbench.openloop` the open-loop
load generator, :mod:`perfbench.trace` the traced run's span wrappers, and
:mod:`perfbench.stats` the percentile and rate-ladder rules.
"""
