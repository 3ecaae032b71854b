"""Persistent, mmap-backed on-disk tier for the workload cache.

The process-wide memo store (:mod:`repro.experiments.cache`) dies with the
process, so CLI one-shots, CI jobs and ``repro serve`` cold starts pay the
full netlist-compile + golden-sim + fault-sim cost every time.  This
module adds a content-addressed disk tier under the directory named by
``REPRO_DISK_CACHE`` (unset = disabled): compiled workloads, partition
tables, compactors and SoA gate schedules are written once and re-read
by any later process with the same configuration.

Entry format (one file per entry, ``<kind>-<digest>.rpdc``):

* a versioned header — magic ``RPDC``, a format version, and a JSON meta
  block carrying the kind, the ``repr`` of the memo key, the code digest
  (:func:`code_digest`) and section lengths;
* the pickle-protocol-5 stream of the value with every large numpy buffer
  externalized (``buffer_callback``), followed by the raw buffers, each
  64-byte aligned.

Loads ``mmap`` the file (copy-on-write) and hand the buffer slices back
to ``pickle.loads(..., buffers=...)``, so multi-megabyte error matrices
and golden-simulation planes are wired straight onto the page cache
instead of being copied through the pickle stream — repeated cold starts
touch only the pages they read.

Writes are atomic and multi-writer safe (pid-tagged ``O_EXCL`` temp file
+ ``os.replace``) so concurrent processes — cluster workers warming the
same circuits included — can share one cache directory; losing a write
race to a sibling is a benign hit (``cache.disk.races``), since the
digest covers the kind, the full memo key and the code digest, and any
config or code change simply misses.  Corrupt,
truncated or stale-format files are treated as misses, counted
(``cache.disk.errors``) and quarantined — never a traceback.
"""

from __future__ import annotations

import ast
import functools
import hashlib
import json
import mmap
import os
import pickle
import struct
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Dict, Hashable, Iterator, List, Optional, Tuple

from ..telemetry import METRICS, debug, log

MAGIC = b"RPDC"
#: On-disk layout version; bump when the file format changes.
FORMAT_VERSION = 1
#: Buffer sections are aligned to this many bytes so mmap-backed uint64
#: arrays come out aligned.
ALIGN = 64
#: Memo kinds worth persisting (small derived objects ride along free).
DISK_KINDS = frozenset(
    {"workload", "soc-workloads", "partitions", "compactor", "soa-schedule"}
)

_SUFFIX = ".rpdc"
_PREAMBLE = struct.Struct("<4sII")  # magic, format version, header length

_LOCK = threading.Lock()
_STATS = {"hits": 0, "misses": 0, "errors": 0, "races": 0,
          "bytes_read": 0, "bytes_written": 0}


class DiskCacheError(Exception):
    """A disk-cache directory or entry that cannot be used (missing dir,
    corrupt file) — raised only by the explicit inspection API
    (:func:`scan`); the read/write fast path degrades to misses instead."""


def cache_dir() -> Optional[Path]:
    """The disk-tier root from ``REPRO_DISK_CACHE`` (``None`` = disabled)."""
    raw = os.environ.get("REPRO_DISK_CACHE", "").strip()
    return Path(raw) if raw else None


def enabled_for(kind: str) -> bool:
    return kind in DISK_KINDS and cache_dir() is not None


@functools.lru_cache(maxsize=1)
def code_digest() -> str:
    """Digest of every ``.py`` source of the ``repro`` package (computed
    once per process).

    Entries are keyed on it, so any code change — a new field on a cached
    object, a fixed builder — misses instead of resurrecting what older
    code built.
    """
    package = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        digest.update(path.relative_to(package).as_posix().encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def key_digest(kind: str, key: Hashable) -> str:
    """Content address: kind + code digest + the full memo key.

    Memo keys are tuples of primitives with stable ``repr`` (circuit
    names, scales, seeds, chain tuples — see ``experiments.cache``), so
    the digest is deterministic across processes and machines running
    the same code.
    """
    raw = f"{kind}|code{code_digest()}|{key!r}"
    return hashlib.sha256(raw.encode("utf-8")).hexdigest()[:40]


def entry_path(root: Path, kind: str, key: Hashable) -> Path:
    return root / f"{kind}-{key_digest(kind, key)}{_SUFFIX}"


# -- read path ----------------------------------------------------------------


def load(kind: str, key: Hashable) -> Tuple[Any, bool]:
    """``(value, True)`` on a disk hit, ``(None, False)`` otherwise.

    Every failure mode — missing dir, missing entry, bad magic, stale
    version, truncated payload, unpicklable content — is a miss; corrupt
    files are additionally quarantined so they only cost one attempt.
    """
    root = cache_dir()
    if root is None or kind not in DISK_KINDS:
        return None, False
    path = entry_path(root, kind, key)
    try:
        value, _meta = _read_entry(path)
    except FileNotFoundError:
        _bump("misses")
        METRICS.incr("cache.disk.misses", 1, labels={"kind": kind})
        return None, False
    except Exception as exc:  # noqa: BLE001 - any corruption is a miss
        _bump("errors")
        METRICS.incr("cache.disk.errors", 1, labels={"kind": kind})
        log(f"disk cache: dropping unreadable entry {path.name}: {exc!r}")
        _quarantine(path)
        return None, False
    _bump("hits")
    _bump("bytes_read", path.stat().st_size if path.exists() else 0)
    METRICS.incr("cache.disk.hits", 1, labels={"kind": kind})
    debug(f"disk cache: hit {kind} {path.name}")
    return value, True


def _read_entry(path: Path) -> Tuple[Any, Dict[str, Any]]:
    """Decode one entry through a copy-on-write mmap.

    The returned value's numpy arrays reference the mapping directly
    (pickle-5 out-of-band buffers), so the pages stay shared with the OS
    page cache; the mapping lives as long as any array does.
    """
    with open(path, "rb") as handle:
        if path.stat().st_size < _PREAMBLE.size:
            raise DiskCacheError("truncated preamble")
        mm = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_COPY)
    magic, version, header_len = _PREAMBLE.unpack_from(mm, 0)
    if magic != MAGIC:
        raise DiskCacheError(f"bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise DiskCacheError(f"format version {version} != {FORMAT_VERSION}")
    header_end = _PREAMBLE.size + header_len
    if header_end > len(mm):
        raise DiskCacheError("truncated header")
    meta = json.loads(bytes(mm[_PREAMBLE.size:header_end]).decode("utf-8"))
    if meta.get("code") != code_digest():
        raise DiskCacheError(f"code {meta.get('code')} != {code_digest()}")
    view = memoryview(mm)
    offset = _align_up(header_end)
    pickle_len = int(meta["pickle_len"])
    if offset + pickle_len > len(mm):
        raise DiskCacheError("truncated pickle section")
    stream = view[offset:offset + pickle_len]
    offset = _align_up(offset + pickle_len)
    buffers: List[pickle.PickleBuffer] = []
    for length in meta.get("buffer_lens", []):
        length = int(length)
        if offset + length > len(mm):
            raise DiskCacheError("truncated buffer section")
        buffers.append(pickle.PickleBuffer(view[offset:offset + length]))
        offset = _align_up(offset + length)
    value = pickle.loads(stream, buffers=buffers)
    return value, meta


# -- write path ---------------------------------------------------------------


def store(kind: str, key: Hashable, value: Any) -> bool:
    """Persist one freshly built entry (atomic; best-effort).

    Returns True when the entry landed on disk.  IO failures (read-only
    dir, disk full) are logged and swallowed — persistence is an
    optimization, never a correctness dependency.
    """
    root = cache_dir()
    if root is None or kind not in DISK_KINDS:
        return False
    try:
        root.mkdir(parents=True, exist_ok=True)
        buffers: List[pickle.PickleBuffer] = []
        stream = pickle.dumps(value, protocol=5, buffer_callback=buffers.append)
        raw_buffers = [buf.raw() for buf in buffers]
        meta = {
            "kind": kind,
            "key": repr(key),
            "code": code_digest(),
            "created": time.time(),
            "pickle_len": len(stream),
            "buffer_lens": [raw.nbytes for raw in raw_buffers],
        }
        header = json.dumps(meta, separators=(",", ":")).encode("utf-8")
        path = entry_path(root, kind, key)
        if path.exists():
            # Another process (e.g. a sibling cluster worker warming the
            # same circuit) already published this entry.  The digest
            # covers kind + key + code, so the contents are identical —
            # losing the race is a benign hit, not a failure.
            _bump("races")
            METRICS.incr("cache.disk.races", 1, labels={"kind": kind})
            debug(f"disk cache: lost write race for {path.name} (benign)")
            return True
        # mkstemp opens with O_EXCL and a random component; the pid in the
        # prefix keeps names from many concurrent writer processes disjoint
        # even under pathological RNG collisions, and makes leftover temp
        # files attributable.
        fd, tmp_name = tempfile.mkstemp(
            prefix=f".tmp-{kind}-{os.getpid()}-", suffix=_SUFFIX, dir=root
        )
        try:
            with os.fdopen(fd, "wb") as out:
                out.write(_PREAMBLE.pack(MAGIC, FORMAT_VERSION, len(header)))
                out.write(header)
                _pad_to_align(out)
                out.write(stream)
                for raw in raw_buffers:
                    _pad_to_align(out)
                    out.write(raw)
            os.replace(tmp_name, path)
        except BaseException:
            _unlink_quietly(Path(tmp_name))
            raise
        written = path.stat().st_size
        _bump("bytes_written", written)
        METRICS.incr("cache.disk.writes", 1, labels={"kind": kind})
        _refresh_size_gauge(root)
        debug(f"disk cache: wrote {kind} {path.name} ({written} B)")
        return True
    except Exception as exc:  # noqa: BLE001 - persistence is best-effort
        _bump("errors")
        METRICS.incr("cache.disk.errors", 1, labels={"kind": kind})
        log(f"disk cache: write failed for kind={kind}: {exc!r}")
        return False


# -- inspection / warm-up -----------------------------------------------------


def iter_entries(
    root: Optional[Path] = None,
) -> Iterator[Tuple[Path, Dict[str, Any]]]:
    """Yield ``(path, meta)`` for every readable entry; corrupt files are
    skipped (and counted) rather than raised."""
    root = root or cache_dir()
    if root is None or not root.is_dir():
        return
    for path in sorted(root.glob(f"*{_SUFFIX}")):
        if path.name.startswith(".tmp-"):
            continue
        try:
            meta = _read_meta(path)
        except Exception as exc:  # noqa: BLE001 - skip, don't die
            _bump("errors")
            log(f"disk cache: skipping unreadable entry {path.name}: {exc!r}")
            continue
        yield path, meta


def _read_meta(path: Path) -> Dict[str, Any]:
    with open(path, "rb") as handle:
        preamble = handle.read(_PREAMBLE.size)
        if len(preamble) < _PREAMBLE.size:
            raise DiskCacheError("truncated preamble")
        magic, version, header_len = _PREAMBLE.unpack(preamble)
        if magic != MAGIC:
            raise DiskCacheError(f"bad magic {magic!r}")
        if version != FORMAT_VERSION:
            raise DiskCacheError(f"format version {version} != {FORMAT_VERSION}")
        header = handle.read(header_len)
        if len(header) < header_len:
            raise DiskCacheError("truncated header")
        return json.loads(header.decode("utf-8"))


def parse_key(meta: Dict[str, Any]) -> Hashable:
    """Reconstruct a memo key from an entry's header.

    Keys are tuples of primitives, so ``ast.literal_eval`` of the stored
    ``repr`` round-trips them exactly.
    """
    return ast.literal_eval(meta["key"])


def scan(root: Optional[Path] = None) -> Dict[str, Any]:
    """Summarize a disk-cache directory for ``repro stats``.

    Raises :class:`DiskCacheError` with a clear message when the directory
    is missing or not a directory; corrupt entries are reported in the
    summary, not raised.
    """
    root = root or cache_dir()
    if root is None:
        raise DiskCacheError(
            "no disk cache configured (set REPRO_DISK_CACHE or pass a path)")
    if not root.exists():
        raise DiskCacheError(f"disk cache directory does not exist: {root}")
    if not root.is_dir():
        raise DiskCacheError(f"disk cache path is not a directory: {root}")
    kinds: Dict[str, Dict[str, int]] = {}
    corrupt = 0
    total_bytes = 0
    for path in sorted(root.glob(f"*{_SUFFIX}")):
        if path.name.startswith(".tmp-"):
            continue
        size = path.stat().st_size
        total_bytes += size
        try:
            meta = _read_meta(path)
        except Exception:  # noqa: BLE001 - summarizing, not loading
            corrupt += 1
            continue
        entry = kinds.setdefault(meta.get("kind", "?"),
                                 {"entries": 0, "bytes": 0})
        entry["entries"] += 1
        entry["bytes"] += size
    return {
        "dir": str(root),
        "kinds": kinds,
        "entries": sum(k["entries"] for k in kinds.values()),
        "bytes": total_bytes,
        "corrupt": corrupt,
    }


def stats() -> Dict[str, int]:
    """Process-local disk-tier counters (hits/misses/errors/bytes)."""
    with _LOCK:
        return dict(_STATS)


def reset_stats() -> None:
    with _LOCK:
        for key in _STATS:
            _STATS[key] = 0


# -- internals ----------------------------------------------------------------


def _align_up(offset: int) -> int:
    return (offset + ALIGN - 1) // ALIGN * ALIGN


def _pad_to_align(out) -> None:
    pos = out.tell()
    pad = _align_up(pos) - pos
    if pad:
        out.write(b"\0" * pad)


def _bump(counter: str, amount: int = 1) -> None:
    with _LOCK:
        _STATS[counter] += amount


def _refresh_size_gauge(root: Path) -> None:
    try:
        total = sum(
            p.stat().st_size for p in root.glob(f"*{_SUFFIX}")
            if not p.name.startswith(".tmp-")
        )
        METRICS.gauge("cache.disk.bytes", total)
    except OSError:  # pragma: no cover - racing deletions
        pass


def _quarantine(path: Path) -> None:
    _unlink_quietly(path)


def _unlink_quietly(path: Path) -> None:
    try:
        path.unlink()
    except OSError:  # pragma: no cover - already gone / read-only
        pass
