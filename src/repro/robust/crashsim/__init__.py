"""Deterministic crash-consistency certification for the durability layers.

Sampled chaos (seeded SIGKILLs, fault-injecting proxies) certifies recovery
from the crash states a random seed happened to visit.  This subpackage
provides the stronger, deterministic guarantee in the ALICE style
(Pillai et al., OSDI'14): record every filesystem operation a workload
issues through a pluggable IO fabric, cut the operation log at every
prefix point, materialize the set of *legal* on-disk states at each cut
(unsynced writes dropped or torn, renames rolled back when their directory
entry was never fsync'd), and run the real recovery path against every
state, asserting the layer's invariants.

Pieces:

* :mod:`.fabric` — the :class:`IoFabric` protocol, the :class:`RealIo`
  passthrough default, the recording :class:`SimDisk`, and the chaos
  wrappers (:class:`BrokenFsyncFabric`, :class:`FaultPointFabric`).
  Threaded under :class:`repro.eval.wal.ChecksumLog` (and through it the
  :class:`repro.eval.sweep.SweepJournal`), the
  :class:`repro.service.store.JobStore`, and the
  :class:`repro.eval.cache.DiskCache`.
* :mod:`.model` — the abstract filesystem model: replay an op log,
  enumerate legal crash states at a cut, materialize a state to disk.
* :mod:`.lint` — the durability-ordering linter: fails any execution
  where an acknowledgement is reachable before the covering fsync.
* :mod:`.workloads` / :mod:`.certify` — per-layer workload drivers and
  the certification sweep behind ``python -m repro.eval crashsim``
  (imported lazily: they pull in the evaluation and service layers).
"""

from __future__ import annotations

from .fabric import (
    BrokenFsyncFabric,
    FabricFile,
    FaultPointFabric,
    IoFabric,
    IoOp,
    RealIo,
    SimDisk,
    active,
    install,
    scope,
)
from .lint import LintViolation, lint_durability
from .model import CrashState, ReplayState, enumerate_states, replay

__all__ = [
    "BrokenFsyncFabric",
    "CrashState",
    "FabricFile",
    "FaultPointFabric",
    "IoFabric",
    "IoOp",
    "LintViolation",
    "RealIo",
    "ReplayState",
    "SimDisk",
    "active",
    "enumerate_states",
    "install",
    "lint_durability",
    "replay",
    "scope",
]


def __getattr__(name: str):
    # certify/workloads import the evaluation and service layers, which
    # themselves import this package's fabric — loading them lazily keeps
    # ``import repro.robust.crashsim`` (and through it ``repro.eval.wal``)
    # cycle-free.
    if name in ("certify", "workloads"):
        import importlib

        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
