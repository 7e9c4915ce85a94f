"""On-disk result cache keyed by cell content hash.

Re-running a benchmark, or re-evaluating the same candidate table
inside the Algorithm 1 search, repeats simulations whose outcome is a
pure function of the :class:`~repro.exec.spec.CellSpec`.  The cache
turns those repeats into a file read.

The cache is **opt-in**: pass a :class:`ResultCache` to the pool
runner, or set ``REPRO_EXEC_CACHE=1`` to let :func:`default_cache`
supply one rooted at ``REPRO_EXEC_CACHE_DIR`` (default
``~/.cache/repro-tpc/exec``).  Every ``cache=`` parameter defaults to
:data:`ENV_CACHE`, which :func:`repro.exec.run_sweep` resolves through
:func:`default_cache`; an explicit ``cache=None`` is a cold run.
Entries are pickled :class:`~repro.exec.spec.CellResult` payloads
written atomically; corrupt or unreadable entries degrade to cache
misses.
"""

from __future__ import annotations

import enum
import os
import pickle
from pathlib import Path

from .spec import CellResult, CellSpec

__all__ = [
    "ResultCache",
    "default_cache",
    "ENV_CACHE",
    "CacheArg",
    "DEFAULT_CACHE_DIR",
]

#: Default cache root (override with ``REPRO_EXEC_CACHE_DIR``).
DEFAULT_CACHE_DIR = os.path.join(
    os.path.expanduser("~"), ".cache", "repro-tpc", "exec"
)


class ResultCache:
    """Filesystem cache of executed cells, keyed by spec hash."""

    def __init__(self, directory: str | Path | None = None) -> None:
        if directory is None:
            directory = os.environ.get("REPRO_EXEC_CACHE_DIR", DEFAULT_CACHE_DIR)
        self.directory = Path(directory)
        self.hits = 0
        self.misses = 0

    def path_for(self, spec: CellSpec) -> Path:
        """Where the given cell's result lives (whether or not present)."""
        return self.directory / f"cell-{spec.content_hash}.pkl"

    def get(self, spec: CellSpec) -> CellResult | None:
        """Load a previously stored result, or None on a miss."""
        path = self.path_for(spec)
        try:
            with path.open("rb") as fh:
                result = pickle.load(fh)
        except Exception:
            # Unpickling can raise almost anything: a truncated file, an
            # unknown protocol (ValueError), a class or module a refactor
            # removed (AttributeError, ModuleNotFoundError).  Every such
            # entry is a miss, never a crash.
            self.misses += 1
            return None
        if not isinstance(result, CellResult):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, spec: CellSpec, result: CellResult) -> Path | None:
        """Store a result atomically (tmp file + rename).

        Returns None if the entry could not be written (unwritable
        directory, disk full, ...) — a failed write must not discard
        the simulation work that produced the result.
        """
        path = self.path_for(spec)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(f".tmp.{os.getpid()}")
            with tmp.open("wb") as fh:
                pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except OSError:
            return None
        return path

    def clear(self) -> int:
        """Delete every cached entry; returns the number removed."""
        removed = 0
        if self.directory.is_dir():
            # payload-*.pkl: entries of a generic payload cache that
            # older versions kept alongside the cells.
            for pattern in ("cell-*.pkl", "payload-*.pkl"):
                for entry in self.directory.glob(pattern):
                    try:
                        entry.unlink()
                        removed += 1
                    except OSError:
                        pass
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
