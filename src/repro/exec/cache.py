"""The one on-disk cache: its directory, key, writer and read policy.

Re-running a benchmark, or re-evaluating the same candidate table
inside the Algorithm 1 search, repeats simulations whose outcome is a
pure function of the :class:`~repro.exec.spec.CellSpec`; rebuilding a
workload repeats the metering of its query pool.  Both are stored here,
side by side in one directory, :func:`cache_dir` (``REPRO_CACHE_DIR``,
default ``~/.cache/repro-tpc``): cell results as ``cell-<hash>.pkl``
and metered pools (see :mod:`repro.search.workload`) as
``search-pool-<hash>.npz``.  Every key is a
:func:`~repro.exec.spec.spec_hash`.

Every entry is written by :func:`write_entry` (a temp file of its own,
then ``os.replace``) and read by :func:`read_entry`.  A cache can cost
time but never a result: a write that fails leaves nothing behind and
returns None, and an entry that cannot be read is a miss, so the work
is redone (and, for a pool, rewritten).

Cell caching is **opt-in**: pass a :class:`ResultCache` to the pool
runner, or set ``REPRO_EXEC_CACHE=1`` to let :func:`default_cache`
supply one.  Every ``cache=`` parameter defaults to :data:`ENV_CACHE`,
which :func:`repro.exec.run_sweep` resolves through
:func:`default_cache`; an explicit ``cache=None`` is a cold run.
"""

from __future__ import annotations

import contextlib
import enum
import os
import pickle
import secrets
from pathlib import Path
from typing import IO, Any, Callable

from .spec import CellResult, CellSpec

__all__ = [
    "ResultCache",
    "default_cache",
    "ENV_CACHE",
    "CacheArg",
    "cache_dir",
    "read_entry",
    "write_entry",
]


def cache_dir() -> Path:
    """The cache directory: ``REPRO_CACHE_DIR``, else ``~/.cache/repro-tpc``.

    An empty ``REPRO_CACHE_DIR`` counts as unset, as an empty
    ``REPRO_BENCH_WORKERS`` does; taken as a path it would be ``.``.
    """
    env = os.environ.get("REPRO_CACHE_DIR", "")
    if env.strip():
        return Path(env)
    return Path(os.path.expanduser("~"), ".cache", "repro-tpc")


def read_entry(path: Path, load: Callable[[IO[bytes]], Any]) -> Any | None:
    """``load`` the open entry at ``path``; None on any failure (a miss).

    Loading can raise almost anything: a missing or truncated file, an
    unknown pickle protocol (ValueError), a class or module a refactor
    removed (AttributeError, ModuleNotFoundError), a damaged zip
    (BadZipFile).  Every such entry is a miss, never a crash.
    """
    try:
        with path.open("rb") as fh:
            return load(fh)
    except Exception:
        return None


def write_entry(path: Path, dump: Callable[[IO[bytes]], None]) -> Path | None:
    """Write an entry atomically with ``dump``; None if it could not be.

    Each write gets a temp file of its own: concurrent writers of one
    entry (sweep workers on a cold cache) must never rename or
    overwrite each other's file.  ``O_EXCL`` under a random name
    guarantees that, and the kernel applies the umask to 0o666 as a
    plain open would, so a shared cache directory stays readable.  On
    any failure (unwritable directory, disk full, a dump that raises)
    the temp file is removed and the caller keeps its result.
    """
    tmp = path.parent / f".{path.stem}-{secrets.token_hex(8)}{path.suffix}"
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError:
        return None
    try:
        with os.fdopen(fd, "wb") as fh:
            dump(fh)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        if isinstance(exc, Exception):
            return None
        raise
    return path


class ResultCache:
    """Filesystem cache of executed cells, keyed by spec hash."""

    def __init__(self, directory: str | Path | None = None) -> None:
        self.directory = cache_dir() if directory is None else Path(directory)
        self.hits = 0
        self.misses = 0

    def path_for(self, spec: CellSpec) -> Path:
        """Where the given cell's result lives (whether or not present)."""
        return self.directory / f"cell-{spec.content_hash}.pkl"

    def get(self, spec: CellSpec) -> CellResult | None:
        """Load a previously stored result, or None on a miss."""
        result = read_entry(self.path_for(spec), pickle.load)
        if not isinstance(result, CellResult):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, spec: CellSpec, result: CellResult) -> Path | None:
        """Store a result; None if it could not be written.

        A failed write must not discard the simulation work that
        produced the result.
        """
        return write_entry(
            self.path_for(spec),
            lambda fh: pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL),
        )

    def clear(self) -> int:
        """Delete every cached cell; returns the number removed."""
        removed = 0
        for entry in self.directory.glob("cell-*.pkl"):
            with contextlib.suppress(OSError):
                entry.unlink()
                removed += 1
        return removed

    def __repr__(self) -> str:
        return (
            f"ResultCache({str(self.directory)!r}, hits={self.hits}, "
            f"misses={self.misses})"
        )


def default_cache() -> ResultCache | None:
    """The environment-selected cache: enabled iff ``REPRO_EXEC_CACHE=1``."""
    if os.environ.get("REPRO_EXEC_CACHE", "0") != "1":
        return None
    return ResultCache()


class _Default(enum.Enum):
    """Marker type of :data:`ENV_CACHE`."""

    CACHE = "the environment-selected cache"


#: Default of every ``cache=`` parameter: "use :func:`default_cache`",
#: resolved once, by :func:`repro.exec.run_sweep`.  Forwarders pass it
#: through unchanged, so one place decides whether a cell is cached.
ENV_CACHE = _Default.CACHE

#: Type of every ``cache=`` parameter: a cache, ``None`` for a cold
#: run, or :data:`ENV_CACHE`.
CacheArg = ResultCache | None | _Default
