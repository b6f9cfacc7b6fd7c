"""The pluggable IO fabric under every durability layer.

Every ``open``/``write``/``fsync``/``replace``/``unlink``/``mkdir``/
``fsync-dir`` a durability layer performs goes through the process-global
*active fabric*:

* :class:`RealIo` (the default) passes straight through to ``os`` /
  ``tempfile`` — zero recording, production behavior.
* :class:`SimDisk` performs the same real IO inside a sandbox root **and**
  journals every operation as an :class:`IoOp`, producing the op log the
  crash-state enumerator (:mod:`.model`) and the durability-ordering
  linter (:mod:`.lint`) consume.  Temp names are deterministic so a
  recorded run is byte-replayable.
* :class:`BrokenFsyncFabric` deliberately swallows matching fsyncs — the
  "remove one fsync" probe that proves the certifier catches a real
  durability hole.
* :class:`FaultPointFabric` raises ``ENOSPC`` at chosen operations, or
  tears a chosen rename — the one way tests inject disk faults into the
  store, the journals and the disk cache.

Workloads additionally mark acknowledgement points with :meth:`IoFabric.ack`
(the moment an ``append()`` returns or an HTTP 2xx becomes reachable); acks
are recorded ops, so the linter can check that every ack is *covered* by
the fsyncs before it.
"""

from __future__ import annotations

import contextlib
import errno
import os
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, IO, List, Optional, Set, Tuple

__all__ = [
    "BrokenFsyncFabric",
    "FabricFile",
    "FaultPointFabric",
    "IoFabric",
    "IoOp",
    "RealIo",
    "SimDisk",
    "TORN",
    "active",
    "install",
    "scope",
]


#: A :class:`FaultPointFabric` predicate verdict asking for a torn
#: ``replace`` instead of an ``ENOSPC``.
TORN = "torn"


@dataclass(frozen=True)
class IoOp:
    """One journaled filesystem operation (paths sandbox-relative, POSIX).

    ``kind`` is one of ``create`` (a new file's directory entry, or a
    ``w``-mode truncating reopen when ``existed``), ``write`` (appended
    ``data`` bytes), ``truncate`` (to ``size`` bytes), ``fsync`` (file
    data durable), ``mkdir``, ``replace`` (``path`` renamed onto ``dst``),
    ``unlink``, ``fsync_dir`` (the directory's pending entries durable),
    ``exists`` (a file predating the recording, imported as durable), or
    ``ack`` (a workload acknowledgement point, not an IO at all).
    """

    index: int
    kind: str
    path: str = ""
    data: bytes = b""
    dst: str = ""
    size: int = -1
    existed: bool = False
    label: str = ""
    info: Tuple[Tuple[str, str], ...] = ()


class FabricFile:
    """A write-intercepting file handle handed out by a recording fabric."""

    def __init__(
        self,
        fh: IO,
        path: Path,
        on_write: Optional[Callable[[Path, bytes], None]] = None,
    ) -> None:
        self._fh = fh
        self.fabric_path = path
        self._on_write = on_write

    def write(self, data) -> int:
        if self._on_write is not None:
            raw = data.encode("utf-8") if isinstance(data, str) else bytes(data)
            self._on_write(self.fabric_path, raw)
        return self._fh.write(data)

    def flush(self) -> None:
        self._fh.flush()

    def fileno(self) -> int:
        return self._fh.fileno()

    def close(self) -> None:
        self._fh.close()

    @property
    def closed(self) -> bool:
        return self._fh.closed

    def __enter__(self) -> "FabricFile":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class IoFabric:
    """Protocol-by-inheritance: the operation vocabulary of a fabric.

    :class:`RealIo` is the canonical implementation; wrappers subclass or
    delegate.  All paths are accepted as ``str``/``Path``.
    """

    def open(self, path: os.PathLike, mode: str = "w"):  # pragma: no cover
        raise NotImplementedError

    def mkstemp(self, directory, prefix, suffix):  # pragma: no cover
        raise NotImplementedError

    def fsync(self, fh) -> None:  # pragma: no cover
        raise NotImplementedError

    def truncate(self, path, size: int) -> None:  # pragma: no cover
        raise NotImplementedError

    def replace(self, src, dst) -> None:  # pragma: no cover
        raise NotImplementedError

    def unlink(self, path) -> None:  # pragma: no cover
        raise NotImplementedError

    def mkdir(self, path) -> None:  # pragma: no cover
        raise NotImplementedError

    def makedirs_durable(self, path) -> None:
        """Create missing directory levels, fsyncing each new level's parent.

        A directory whose own entry was never fsync'd into *its* parent can
        vanish on power loss, taking everything inside with it — so every
        level this call actually creates is followed by an fsync of the
        directory it was created in.
        """
        target = Path(path)
        missing: List[Path] = []
        probe = target
        while not probe.exists() and probe != probe.parent:
            missing.append(probe)
            probe = probe.parent
        for directory in reversed(missing):
            self.mkdir(directory)
            self.fsync_dir(directory.parent)

    def fsync_dir(self, path) -> None:  # pragma: no cover
        raise NotImplementedError

    def ack(self, label: str, **info: str) -> None:
        """Mark an acknowledgement point (recorded fabrics journal it)."""

    def exists(self, path) -> bool:
        return Path(path).exists()


class RealIo(IoFabric):
    """Passthrough fabric: plain ``os``/``tempfile`` calls, no recording."""

    name = "real"

    def open(self, path: os.PathLike, mode: str = "w"):
        if "b" in mode:
            return open(path, mode)
        return open(path, mode, encoding="utf-8")

    def mkstemp(self, directory, prefix, suffix):
        fd, name = tempfile.mkstemp(
            dir=str(directory), prefix=prefix, suffix=suffix
        )
        return os.fdopen(fd, "w", encoding="utf-8"), name

    def fsync(self, fh) -> None:
        fh.flush()
        os.fsync(fh.fileno())

    def truncate(self, path, size: int) -> None:
        with open(path, "r+b") as fh:
            fh.truncate(size)

    def replace(self, src, dst) -> None:
        os.replace(src, dst)

    def unlink(self, path) -> None:
        os.unlink(path)

    def mkdir(self, path) -> None:
        Path(path).mkdir(exist_ok=True)

    def fsync_dir(self, path) -> None:
        """Flush a directory's entries (no-op where unsupported)."""
        try:
            fd = os.open(str(path), os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)


class SimDisk(RealIo):
    """A recording fabric: real IO inside ``root`` plus an op journal.

    Operations on paths outside ``root`` pass through unrecorded, so a
    workload's durable tree can be journaled while its caches or scratch
    files elsewhere stay invisible.  Temp names are deterministic
    (``<prefix>simNNNN<suffix>``) so two recordings of the same workload
    produce identical op logs — the property the CI coverage report's
    stable state counts rest on.
    """

    name = "simdisk"

    def __init__(self, root: os.PathLike) -> None:
        self.root = Path(root).resolve()
        self.ops: List[IoOp] = []
        self._tmp_counter = 0
        self._lock = threading.Lock()

    # -- recording helpers ---------------------------------------------------

    def _rel(self, path) -> Optional[str]:
        try:
            return Path(path).resolve().relative_to(self.root).as_posix()
        except ValueError:
            return None

    def _record(self, kind: str, **kwargs) -> None:
        with self._lock:
            self.ops.append(IoOp(index=len(self.ops), kind=kind, **kwargs))

    def _on_write(self, path: Path, data: bytes) -> None:
        rel = self._rel(path)
        if rel is not None and data:
            self._record("write", path=rel, data=data)

    def _import_untracked(self, path: Path, rel: str) -> None:
        """A file that predates the recording: journal it as fully durable."""
        known = {
            op.path for op in self.ops if op.kind in ("create", "exists")
        } | {op.dst for op in self.ops if op.kind == "replace"}
        if rel not in known:
            self._record("exists", path=rel, data=path.read_bytes())

    # -- the fabric vocabulary ----------------------------------------------

    def open(self, path: os.PathLike, mode: str = "w"):
        target = Path(path)
        rel = self._rel(target)
        if rel is None:
            return super().open(target, mode)
        existed = target.exists()
        if existed:
            self._import_untracked(target, rel)
        fh = super().open(target, mode)
        if mode.startswith(("w", "x")):
            self._record("create", path=rel, existed=existed)
        elif mode.startswith("a") and not existed:
            self._record("create", path=rel, existed=False)
        return FabricFile(fh, target, on_write=self._on_write)

    def mkstemp(self, directory, prefix, suffix):
        rel_dir = self._rel(directory)
        if rel_dir is None:
            return super().mkstemp(directory, prefix, suffix)
        with self._lock:
            self._tmp_counter += 1
            counter = self._tmp_counter
        name = Path(directory) / f"{prefix}sim{counter:04d}{suffix}"
        fd = os.open(str(name), os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o600)
        fh = os.fdopen(fd, "w", encoding="utf-8")
        self._record("create", path=self._rel(name), existed=False)
        return FabricFile(fh, name, on_write=self._on_write), str(name)

    def fsync(self, fh) -> None:
        super().fsync(fh)
        path = getattr(fh, "fabric_path", None)
        if path is not None:
            rel = self._rel(path)
            if rel is not None:
                self._record("fsync", path=rel)

    def truncate(self, path, size: int) -> None:
        rel = self._rel(path)
        if rel is not None:
            self._import_untracked(Path(path), rel)
        super().truncate(path, size)
        if rel is not None:
            self._record("truncate", path=rel, size=size)

    def replace(self, src, dst) -> None:
        rel_src, rel_dst = self._rel(src), self._rel(dst)
        super().replace(src, dst)
        if rel_src is not None and rel_dst is not None:
            self._record("replace", path=rel_src, dst=rel_dst)

    def unlink(self, path) -> None:
        rel = self._rel(path)
        super().unlink(path)
        if rel is not None:
            self._record("unlink", path=rel)

    def mkdir(self, path) -> None:
        rel = self._rel(path)
        existed = Path(path).is_dir()
        super().mkdir(path)
        if rel is not None and not existed:
            self._record("mkdir", path=rel)

    def fsync_dir(self, path) -> None:
        super().fsync_dir(path)
        rel = self._rel(path)
        if rel is not None:
            self._record("fsync_dir", path=rel)
        elif Path(path).resolve() == self.root:
            self._record("fsync_dir", path=".")

    def ack(self, label: str, **info: str) -> None:
        def normalize(value) -> str:
            # In-root paths are journaled sandbox-relative so the linter
            # can match them against the abstract model's namespace.
            text = str(value)
            if os.sep in text or "/" in text:
                rel = self._rel(text)
                if rel is not None:
                    return rel
            return text

        self._record(
            "ack",
            label=label,
            info=tuple(sorted((k, normalize(v)) for k, v in info.items())),
        )


class _Delegating(IoFabric):
    """Base for wrappers: forward every operation to an inner fabric."""

    def __init__(self, inner: IoFabric) -> None:
        self.inner = inner

    def open(self, path, mode="w"):
        return self.inner.open(path, mode)

    def mkstemp(self, directory, prefix, suffix):
        return self.inner.mkstemp(directory, prefix, suffix)

    def fsync(self, fh):
        self.inner.fsync(fh)

    def truncate(self, path, size):
        self.inner.truncate(path, size)

    def replace(self, src, dst):
        self.inner.replace(src, dst)

    def unlink(self, path):
        self.inner.unlink(path)

    def mkdir(self, path):
        self.inner.mkdir(path)

    def fsync_dir(self, path):
        self.inner.fsync_dir(path)

    def ack(self, label, **info):
        self.inner.ack(label, **info)


class BrokenFsyncFabric(_Delegating):
    """Swallow fsyncs whose path contains ``match`` — the planted bug.

    The swallowed fsync is neither executed nor recorded, exactly as if a
    developer deleted the call: the durability-ordering linter must flag
    the now-uncovered ack, and the crash-state enumerator must find a
    state that loses an acknowledged record.
    """

    def __init__(self, inner: IoFabric, match: str, dirs: bool = False) -> None:
        super().__init__(inner)
        self.match = match
        self.dirs = dirs
        self.swallowed = 0

    def fsync(self, fh) -> None:
        path = str(getattr(fh, "fabric_path", ""))
        if self.match in path:
            self.swallowed += 1
            return
        self.inner.fsync(fh)

    def fsync_dir(self, path) -> None:
        if self.dirs and self.match in str(path):
            self.swallowed += 1
            return
        self.inner.fsync_dir(path)


class FaultPointFabric(_Delegating):
    """Fail the operations ``predicate(kind, path)`` picks, once per target.

    ``kind`` is the op vocabulary name (``open``/``mkstemp``/``write``/
    ``fsync``/``replace``).  A truthy verdict raises ``ENOSPC`` before the
    operation touches the disk; a :data:`TORN` verdict on ``replace``
    instead publishes the first half of the source file under the
    destination name — the state a crash leaves behind a rename whose data
    was never fsync'd.  Every handle this fabric opens is a
    :class:`FabricFile`, so ``write`` is a fault point and ``fsync`` sees
    the file's path whatever the inner fabric.  Each distinct
    ``(kind, path)`` fires at most once and is recorded in :attr:`fired`:
    a retry of the failed operation runs against a healthy disk, while
    operations on other paths (every cache key, every temp file) still
    fault.
    """

    def __init__(
        self, inner: IoFabric, predicate: Callable[[str, str], object]
    ) -> None:
        super().__init__(inner)
        self.predicate = predicate
        self.fired: Set[Tuple[str, str]] = set()
        self._lock = threading.Lock()

    def _fault(self, kind: str, path) -> object:
        target = (kind, str(path))
        with self._lock:
            if target in self.fired:
                return None
            verdict = self.predicate(*target)
            if not verdict:
                return None
            self.fired.add(target)
        if verdict == TORN and kind == "replace":
            return verdict
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

    def _wrap(self, fh, path) -> FabricFile:
        return FabricFile(
            fh, Path(path), on_write=lambda p, _: self._fault("write", p)
        )

    def open(self, path, mode="w"):
        self._fault("open", path)
        return self._wrap(self.inner.open(path, mode), path)

    def mkstemp(self, directory, prefix, suffix):
        self._fault("mkstemp", directory)
        fh, name = self.inner.mkstemp(directory, prefix, suffix)
        return self._wrap(fh, name), name

    def fsync(self, fh) -> None:
        self._fault("fsync", getattr(fh, "fabric_path", ""))
        self.inner.fsync(fh)

    def replace(self, src, dst) -> None:
        if self._fault("replace", dst):
            self.inner.truncate(src, os.path.getsize(src) // 2)
        self.inner.replace(src, dst)


# --- the process-global active fabric ---------------------------------------

_REAL = RealIo()
_ACTIVE: IoFabric = _REAL


def active() -> IoFabric:
    """The fabric every durability layer routes its IO through."""
    return _ACTIVE


def install(fabric: Optional[IoFabric]) -> IoFabric:
    """Install ``fabric`` (``None`` restores the passthrough default).

    Returns the previously active fabric so callers can restore it.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = fabric if fabric is not None else _REAL
    return previous


@contextlib.contextmanager
def scope(fabric: IoFabric):
    """Make ``fabric`` active for the duration of the block."""
    previous = install(fabric)
    try:
        yield fabric
    finally:
        install(previous)
