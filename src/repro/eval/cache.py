"""Persistent, content-addressed result cache for the evaluation engine.

The in-memory ``experiments._CACHE`` dies with the process and is keyed by
*position* (benchmark index).  This module adds a second, durable layer keyed
by *content*: a stable SHA-256 over the quantized coefficients, every option
that affects the synthesis result, and a code-relevant version tag — so a
result can never be served to a design point it was not computed for, and
bumping :data:`CACHE_SCHEMA_VERSION` (or the package version) invalidates
every stale entry at once.

Entries are one JSON file each, sharded by key prefix, written atomically
(tmp + rename) so concurrent writers — the process-pool workers of
:mod:`repro.eval.sweep` — can share one directory without locks: both
sides compute identical bytes for identical keys, so a lost race is merely a
wasted write.

The active cache is process-global (:func:`configure` / :func:`active_cache`)
because the memoization sits under :func:`repro.eval.experiments._method_result`,
deep below the experiment runners' call graph.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, Mapping, Optional

from ..errors import ReproError
from ..obs import metrics as obs_metrics
from ..robust.crashsim import fabric as iofabric

logger = logging.getLogger(__name__)

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CacheStats",
    "DiskCache",
    "QUARANTINE_DIR",
    "active_cache",
    "cache_key",
    "clear_cache",
    "configure",
    "install_fault_injector",
    "version_tag",
]

#: Subdirectory (under the cache root) holding corrupt entries moved aside
#: by :meth:`DiskCache.get` — preserved for forensics, never served.
QUARANTINE_DIR = "quarantine"

#: Bump when the cached payload's meaning changes (new fields, changed
#: semantics of an existing one) to orphan every previously written entry.
CACHE_SCHEMA_VERSION = 1

#: Bump when a synthesis kernel's output could have differed from its
#: reference (i.e. an equivalence bug was fixed), to orphan every entry the
#: buggy kernel computed.
KERNEL_VERSION = 1


def version_tag() -> str:
    """The code-relevant version folded into every cache key.

    :data:`KERNEL_VERSION` is mixed in so a fixed kernel bug cannot keep
    serving results computed by the broken kernel — bumping it orphans every
    entry, exactly like a schema bump.
    """
    from .. import __version__

    return f"{__version__}+schema{CACHE_SCHEMA_VERSION}+k{KERNEL_VERSION}"


def cache_key(payload: Mapping[str, Any]) -> str:
    """Stable content hash of a key payload (version tag included).

    The payload must be JSON-serializable; canonical serialization
    (sorted keys, no whitespace) makes the hash independent of dict
    construction order.
    """
    tagged = dict(payload)
    tagged["__version__"] = version_tag()
    canonical = json.dumps(
        tagged, sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss/store counters for one cache layer."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    quarantined: int = 0
    put_errors: int = 0

    @property
    def lookups(self) -> int:
        """Total get() calls observed."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view for reports and JSON export."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "quarantined": self.quarantined,
            "put_errors": self.put_errors,
            "hit_rate": self.hit_rate,
        }


class DiskCache:
    """A directory of content-addressed JSON entries.

    Layout: ``<root>/<key[:2]>/<key>.json`` — the two-character shard keeps
    directory listings tractable for large sweeps.
    """

    def __init__(self, directory: os.PathLike) -> None:
        self.root = Path(directory)
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()

    def _path(self, key: str, suffix: str = "json") -> Path:
        if len(key) < 3 or not all(c in "0123456789abcdef" for c in key):
            raise ReproError(f"malformed cache key {key!r}")
        return self.root / key[:2] / f"{key}.{suffix}"

    @property
    def quarantine_dir(self) -> Path:
        """Where corrupt entries are moved aside (may not exist yet)."""
        return self.root / QUARANTINE_DIR

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry into ``quarantine/``, preserving its bytes.

        A crashed or chaos-faulted writer leaves evidence worth keeping;
        silently unlinking it would destroy the only forensic record.  A
        numeric suffix keeps repeated corruptions of the same key apart.
        """
        target_dir = self.quarantine_dir
        try:
            target_dir.mkdir(parents=True, exist_ok=True)
            target = target_dir / path.name
            suffix = 0
            while target.exists():
                suffix += 1
                target = target_dir / f"{path.name}.{suffix}"
            iofabric.active().replace(path, target)
        except OSError:
            # Quarantine is best-effort: on a sick filesystem fall back to
            # unlinking so the corrupt entry at least stops shadowing puts.
            try:
                iofabric.active().unlink(path)
            except OSError:
                return
        self.stats.quarantined += 1
        obs_metrics.counter("repro_cache_quarantined_total").inc()
        logger.warning("quarantined corrupt cache entry %s", path.name)

    def quarantined_entries(self) -> int:
        """Number of corrupt entries currently held in ``quarantine/``."""
        if not self.quarantine_dir.is_dir():
            return 0
        return sum(1 for p in self.quarantine_dir.iterdir() if p.is_file())

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """Return the stored payload for ``key``, or ``None`` on a miss.

        A corrupt entry (truncated write from a killed process, manual
        tampering, simulated filesystem corruption) counts as a miss and is
        moved to ``quarantine/`` for post-mortem inspection.
        """
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except FileNotFoundError:
            self.stats.misses += 1
            obs_metrics.counter("repro_cache_misses_total", layer="disk").inc()
            return None
        except (json.JSONDecodeError, OSError):
            self.stats.misses += 1
            obs_metrics.counter("repro_cache_misses_total", layer="disk").inc()
            self._quarantine(path)
            return None
        self.stats.hits += 1
        obs_metrics.counter("repro_cache_hits_total", layer="disk").inc()
        return payload

    def put(self, key: str, payload: Mapping[str, Any]) -> None:
        """Atomically persist ``payload`` under ``key``."""
        injector = _FAULT_INJECTOR
        fault = injector.draw_put(key) if injector is not None else None
        if fault == "enospc":
            raise injector.enospc_error(key)
        fab = iofabric.active()
        path = self._path(key)
        fab.makedirs_durable(path.parent)
        # Deliberately no file fsync: the cache is best-effort (an entry
        # lost to a crash is recomputed); atomic rename alone guarantees a
        # reader never sees a torn entry *while the system stays up*, and
        # the integrity check quarantines anything a crash tears.
        fh, tmp = fab.mkstemp(path.parent, prefix=".tmp-", suffix=".json")
        try:
            with fh:
                body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
                if fault == "truncate":
                    body = body[: max(1, len(body) // 2)]
                fh.write(body)
            fab.replace(tmp, path)
        except BaseException:
            try:
                fab.unlink(tmp)
            except OSError:
                pass
            raise
        self.stats.stores += 1
        obs_metrics.counter("repro_cache_stores_total", layer="disk").inc()

    # -- text artifacts ------------------------------------------------------
    #
    # Generated artifacts (Verilog, C models, DOT graphs) are content-
    # addressed text, not JSON payloads; wrapping kilobytes of RTL in a JSON
    # string would double-escape every quote and newline.  They share the
    # same sharding, atomic-rename discipline, and chaos fault injection as
    # JSON entries, with a sha256 trailer line standing in for JSON's
    # implicit parse check: a torn write from a killed process fails the
    # digest check and is quarantined rather than served.

    _TEXT_TRAILER = "// repro-cache-sha256: "

    def get_text(self, key: str) -> Optional[str]:
        """Return the stored text artifact for ``key``, or ``None`` on a miss.

        A corrupt artifact (missing or mismatching integrity trailer) counts
        as a miss and is moved to ``quarantine/``, exactly like a corrupt
        JSON entry.
        """
        path = self._path(key, "txt")
        try:
            stored = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            self.stats.misses += 1
            obs_metrics.counter("repro_cache_misses_total", layer="disk").inc()
            return None
        except (OSError, UnicodeDecodeError):
            self.stats.misses += 1
            obs_metrics.counter("repro_cache_misses_total", layer="disk").inc()
            self._quarantine(path)
            return None
        body, sep, digest = stored.rpartition(self._TEXT_TRAILER)
        if not sep or hashlib.sha256(
            body.encode("utf-8")
        ).hexdigest() != digest.strip():
            self.stats.misses += 1
            obs_metrics.counter("repro_cache_misses_total", layer="disk").inc()
            self._quarantine(path)
            return None
        self.stats.hits += 1
        obs_metrics.counter("repro_cache_hits_total", layer="disk").inc()
        return body

    def put_text(self, key: str, text: str) -> None:
        """Atomically persist the text artifact ``text`` under ``key``."""
        injector = _FAULT_INJECTOR
        fault = injector.draw_put(key) if injector is not None else None
        if fault == "enospc":
            raise injector.enospc_error(key)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        body = f"{text}{self._TEXT_TRAILER}{digest}\n"
        if fault == "truncate":
            body = body[: max(1, len(body) // 2)]
        fab = iofabric.active()
        path = self._path(key, "txt")
        fab.makedirs_durable(path.parent)
        # Same best-effort discipline as put(): no file fsync, the sha256
        # trailer catches (and quarantines) anything a crash tears.
        fh, tmp = fab.mkstemp(path.parent, prefix=".tmp-", suffix=".txt")
        try:
            with fh:
                fh.write(body)
            fab.replace(tmp, path)
        except BaseException:
            try:
                fab.unlink(tmp)
            except OSError:
                pass
            raise
        self.stats.stores += 1
        obs_metrics.counter("repro_cache_stores_total", layer="disk").inc()

    def _shards(self) -> Iterator[Path]:
        """The two-hex-character shard directories (quarantine excluded)."""
        for shard in self.root.iterdir():
            if (
                shard.is_dir()
                and len(shard.name) == 2
                and all(c in "0123456789abcdef" for c in shard.name)
            ):
                yield shard

    def keys(self) -> Iterator[str]:
        """Iterate over every stored key (filesystem order, not sorted)."""
        for shard in self._shards():
            for entry in shard.glob("*.json"):
                yield entry.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def clear(self) -> int:
        """Remove every live entry, JSON and text artifact alike
        (quarantined ones stay); returns the count."""
        removed = 0
        for shard in list(self._shards()):
            for pattern in ("*.json", "*.txt"):
                for entry in list(shard.glob(pattern)):
                    entry.unlink()
                    removed += 1
            try:
                shard.rmdir()
            except OSError:
                pass
        return removed


# --- process-global active cache -------------------------------------------

_ACTIVE: Optional[DiskCache] = None

# Consulted by DiskCache.put; anything with draw_put(key) / enospc_error(key)
# qualifies (canonically repro.robust.chaos.CacheFaultInjector).  Kept here,
# not on the cache instance, so pool workers can arm it from their
# initializer regardless of which DiskCache object they construct.
_FAULT_INJECTOR: Optional[Any] = None


def install_fault_injector(injector: Optional[Any]) -> Optional[Any]:
    """Arm (or with ``None`` disarm) chaos faults for every cache write.

    Returns the previously installed injector so tests can restore it.
    """
    global _FAULT_INJECTOR
    previous = _FAULT_INJECTOR
    _FAULT_INJECTOR = injector
    return previous


def configure(directory: Optional[os.PathLike]) -> Optional[DiskCache]:
    """Install (or, with ``None``, uninstall) the process-wide disk cache.

    Returns the installed cache so callers can inspect ``.stats``.
    """
    global _ACTIVE
    _ACTIVE = DiskCache(directory) if directory is not None else None
    return _ACTIVE


def active_cache() -> Optional[DiskCache]:
    """The currently installed disk cache, if any."""
    return _ACTIVE


def clear_cache(directory: Optional[os.PathLike] = None) -> int:
    """Clear the given cache directory, or the active one; returns entry count.

    Clearing never uninstalls the cache — subsequent results repopulate it.
    """
    if directory is not None:
        return DiskCache(directory).clear()
    if _ACTIVE is not None:
        return _ACTIVE.clear()
    return 0


# --- MethodResult (de)serialization ----------------------------------------


def encode_method_result(result: Any) -> Dict[str, Any]:
    """JSON-safe dict form of an ``experiments.MethodResult``."""
    payload = dataclasses.asdict(result)
    if payload.get("seed_size") is not None:
        payload["seed_size"] = list(payload["seed_size"])
    return payload


def decode_method_result(payload: Mapping[str, Any]) -> Any:
    """Inverse of :func:`encode_method_result`."""
    from .experiments import MethodResult

    seed_size = payload.get("seed_size")
    return MethodResult(
        method=payload["method"],
        adders=int(payload["adders"]),
        depth=int(payload["depth"]),
        cla_weighted=float(payload["cla_weighted"]),
        seed_size=tuple(seed_size) if seed_size is not None else None,
    )
