"""Framed logs: the line-level crash contract the WAL and the trace share.

A framed log is an append-only text file of newline-terminated lines: a
schema header line, then one record per line.  :mod:`repro.service.wal`
and :mod:`repro.trace.record` both store their records this way; this
module holds the part of the contract that does not depend on what a
record is:

- a line is durable once its trailing newline is on disk.  A final line
  without one is a *torn tail* -- the signature of a crash mid-append --
  and :func:`complete_lines` never yields it, even if its bytes decode;
- :class:`FramedAppender` truncates a torn tail back to the durable
  prefix on open, writes the header only when the file is fresh, and,
  when an append fails partway (transient error, torn write, failed
  fsync), truncates back to the durable prefix before re-raising, so the
  failed line vanishes and a retry appends onto a clean tail.

Decoding records, checking their sequence, and telling mid-file
corruption from a torn tail stay with each log.  Every durable byte goes
through the :class:`~repro.service.storage.StorageIO` seam.
"""

from __future__ import annotations

import pathlib
from typing import Iterator

from repro.service.storage import REAL_IO, StorageIO


def complete_lines(raw: bytes) -> Iterator[tuple[str, int]]:
    """Each non-blank, newline-terminated line of ``raw`` with the byte
    offset just past its newline; a final line missing its newline is a
    torn tail and is not yielded."""
    pos = 0
    while (nl := raw.find(b"\n", pos)) >= 0:
        if nl > pos:
            yield raw[pos:nl].decode("utf-8", errors="replace"), nl + 1
        pos = nl + 1


class FramedAppender:
    """An open framed log file, appended to one line at a time.

    ``good`` is the byte length of the durable prefix, as the owning
    log's reader found it (the end of the last complete line); anything
    past it is truncated away on open.  A fresh (empty) file gets
    ``header`` as its first line.  Not thread-safe: the owning log
    serializes appends.
    """

    def __init__(
        self,
        path: str | pathlib.Path,
        good: int,
        header: str,
        fsync: bool = False,
        io: StorageIO | None = None,
    ) -> None:
        self.path = pathlib.Path(path)
        self._fsync = fsync
        self._io = io or REAL_IO
        if self.path.exists() and good < self.path.stat().st_size:
            with self.path.open("r+b") as f:
                self._io.truncate(f, good)
                if fsync:
                    self._io.fsync(f)
        fresh = not self.path.exists() or self.path.stat().st_size == 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._f = self.path.open("ab")
        self._good = good
        if fresh:
            line = (header + "\n").encode("utf-8")
            try:
                self._io.append(self._f, line)
                if fsync:
                    self._io.fsync(self._f)
                    self._io.fsync_dir(self.path.parent)
            except Exception:
                # A torn header is self-repairing: the next open finds no
                # newline-terminated header line, truncates to zero, and
                # rewrites it.  Just do not leak the handle.
                self._f.close()
                raise
            self._good = len(line)

    @property
    def bytes_written(self) -> int:
        """Durable size of the file in bytes."""
        return self._good if not self._f.closed else self.path.stat().st_size

    def append(self, line: str) -> None:
        """Append ``line`` plus its newline; returns once it is durable.

        On *any* failure the file is truncated back to the durable prefix
        before the exception propagates.  (After a successful write but a
        failed fsync the line's durability is unknown; discarding it is
        the only answer that keeps "append returned means durable".)
        """
        if self._f.closed:
            raise ValueError(f"{self.path} is closed")
        data = (line + "\n").encode("utf-8")
        try:
            self._io.append(self._f, data)
            if self._fsync:
                self._io.fsync(self._f)
        except Exception:
            self._io.truncate(self._f, self._good)
            raise
        self._good += len(data)

    def close(self) -> None:
        """Flush and close the file (idempotent)."""
        if not self._f.closed:
            self._f.flush()
            self._f.close()
