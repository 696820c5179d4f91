"""Write-ahead edge log: the durability substrate of :mod:`repro.service`.

The log is an append-only text format of one JSON record per line.  Each
record is one *round* -- the ordered op list of one micro-batch flush --
stamped with a monotonically increasing log sequence number (LSN), the
*epoch* of the primary that wrote it (see below), and a CRC32 of its
canonical serialization:

    {"lsn": 7, "epoch": 0, "ops": [["i", [[0, 1]]], ["e", 3]], "crc": ...}

Ops are ``["i", edges]`` (insert ``edges`` on the new side of the window)
and ``["e", delta]`` (expire the ``delta`` oldest items).  Edges are stored
verbatim -- ``[u, v]`` or ``[u, v, w]`` rows -- because the sliding-window
structures assign stream positions (taus) and edge ids deterministically
from arrival order, so replaying the same rounds reproduces the exact same
state, coin flips included.

Segments
--------

Since the replication layer landed, the log is *segmented*: a directory of
files ``wal-<start lsn>-<epoch>.jsonl``, each starting with a header line
``{"wal": "repro.service/wal/v2", "start": <lsn>}`` followed by the
records ``start, start+1, ...``.  :class:`SegmentedWal` appends to the
newest segment, **rotates** to a fresh segment after every snapshot, and
**truncates** segments that no retained snapshot needs -- followers
bootstrap from snapshot + suffix, so the prefix is dead weight
(``python -m repro.report --wal`` inspects a live directory).  The
single-file :class:`WriteAheadLog` remains as the one-segment primitive.

Epochs and fencing
------------------

``epoch`` is the primary-fencing token of :mod:`repro.replication`: a
monotone counter bumped on every ``promote()``.  A promoted primary starts
a new segment at its adoption LSN with the new epoch, so a *zombie*
ex-primary that keeps appending (with its stale epoch) to the old segment
creates two chains claiming the same LSNs.  Readers resolve the conflict
in favour of the **highest epoch**: :func:`read_wal_dir` drops the stale
suffix, and a tailing :class:`WalCursor` that has been fenced rejects
stale-epoch records outright.  Two different writers appending the same
LSN under the *same* epoch is real corruption, never repaired.

Crash semantics follow the standard WAL contract (the line framing
behind it is :mod:`repro.service.framing`, shared with trace files):

- a record is *durable* once its line -- including the trailing newline --
  is fully on disk (``fsync=True`` additionally forces it through the OS
  cache before ``append`` returns, and fsyncs the directory whenever a
  segment file is created or renamed, so the directory entry itself
  survives a crash immediately after rotation);
- a *torn tail* -- a final line that lacks its newline, even if its bytes
  decode cleanly -- is the signature of a crash mid-append; opening the
  log repairs it by truncating back to the last good record.  A bad
  record anywhere *before* the tail (i.e. one whose newline is on disk)
  is real corruption and raises :class:`WalCorruption`.
- a *failed append* (transient I/O error, torn write, failed fsync) is
  repaired immediately: the file is truncated back to the last durable
  record before the error re-raises, so a caller-level
  retry (:class:`repro.service.resilience.RetryPolicy`) re-appends the
  same LSN onto a clean tail instead of concatenating garbage.

Every filesystem operation routes through the pluggable
:class:`repro.service.storage.StorageIO` seam (``io=`` on every
constructor); :class:`repro.chaos.faults.FaultyIO` plugs in there to
inject deterministic faults.
"""

from __future__ import annotations

import json
import pathlib
import re
import zlib
from dataclasses import dataclass
from typing import Sequence

from repro.service.framing import FramedAppender, complete_lines
from repro.service.storage import REAL_IO, StorageIO

WAL_SCHEMA = "repro.service/wal/v2"

OP_INSERT = "i"
OP_EXPIRE = "e"

#: One op: ``("i", ((u, v[, w]), ...))`` or ``("e", delta)``.
Op = tuple

_SEGMENT_RE = re.compile(r"^wal-(\d{12})-(\d{6})\.jsonl$")


class WalCorruption(RuntimeError):
    """A non-tail record failed to decode: the log is genuinely damaged."""


class WalTruncated(RuntimeError):
    """The requested LSN precedes the oldest retained segment; the caller
    must bootstrap from a snapshot instead of replaying the full log."""


@dataclass(frozen=True)
class WalRecord:
    """One durable round: an LSN, the writer's epoch, and its op list."""

    lsn: int
    ops: tuple[Op, ...]
    epoch: int = 0


@dataclass(frozen=True)
class SegmentInfo:
    """One on-disk segment: its start LSN, writer epoch, path, and size."""

    start: int
    epoch: int
    path: pathlib.Path

    @property
    def size(self) -> int:
        """Current byte size of the segment file (0 if deleted)."""
        try:
            return self.path.stat().st_size
        except OSError:
            return 0


def ops_to_json(ops: Sequence[Op]) -> list[list]:
    """Ops as the JSON lists the WAL and traces store."""
    out: list[list] = []
    for kind, payload in ops:
        if kind == OP_INSERT:
            out.append([kind, [list(e) for e in payload]])
        elif kind == OP_EXPIRE:
            out.append([kind, int(payload)])
        else:
            raise ValueError(f"unknown op kind {kind!r}")
    return out


def ops_from_json(ops_json: Sequence) -> tuple[Op, ...]:
    """The inverse of :func:`ops_to_json` (tuples, ready for apply_ops)."""
    ops: list[Op] = []
    for entry in ops_json:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise ValueError(f"malformed op {entry!r}")
        kind, payload = entry
        if kind == OP_INSERT:
            ops.append((OP_INSERT, tuple(tuple(e) for e in payload)))
        elif kind == OP_EXPIRE:
            ops.append((OP_EXPIRE, int(payload)))
        else:
            raise ValueError(f"unknown op kind {kind!r}")
    return tuple(ops)


def _crc(lsn: int, epoch: int, ops_json: list[list]) -> int:
    body = json.dumps([lsn, epoch, ops_json], separators=(",", ":"))
    return zlib.crc32(body.encode("utf-8"))


def encode_record(lsn: int, ops: Sequence[Op], epoch: int = 0) -> str:
    """One WAL line (no trailing newline) for ``ops`` at ``lsn``."""
    ops_json = ops_to_json(ops)
    return json.dumps(
        {
            "lsn": lsn,
            "epoch": epoch,
            "ops": ops_json,
            "crc": _crc(lsn, epoch, ops_json),
        },
        separators=(",", ":"),
    )


def decode_record(line: str) -> WalRecord | None:
    """Parse one WAL line; ``None`` when the line is torn or corrupt."""
    try:
        doc = json.loads(line)
        lsn, epoch, crc = doc["lsn"], doc["epoch"], doc["crc"]
        ops = ops_from_json(doc["ops"])
    except (ValueError, KeyError, TypeError):
        return None
    if _crc(lsn, epoch, ops_to_json(ops)) != crc:
        return None
    return WalRecord(lsn=int(lsn), ops=ops, epoch=int(epoch))


def _parse_header(line: str) -> int | None:
    """The segment's start LSN, or ``None`` when the header is invalid."""
    try:
        header = json.loads(line)
    except ValueError:
        return None
    if not isinstance(header, dict) or header.get("wal") != WAL_SCHEMA:
        return None
    start = header.get("start", 0)
    return start if isinstance(start, int) and start >= 0 else None


def read_wal(
    path: str | pathlib.Path, io: StorageIO | None = None
) -> tuple[list[WalRecord], int]:
    """Read every durable record of the one-file log (segment) at ``path``.

    Returns ``(records, good_bytes)`` where ``good_bytes`` is the byte
    length of the durable prefix -- everything past it is a torn tail from
    a crash mid-append and is safe to truncate.  Raises
    :class:`WalCorruption` when a record *before* the tail is damaged, the
    LSN sequence has a gap, or epochs decrease (all mean the file was
    edited, not torn).
    """
    path = pathlib.Path(path)
    raw = (io or REAL_IO).read_bytes(path) if path.exists() else b""
    records: list[WalRecord] = []
    good = 0
    start: int | None = None
    for line, end in complete_lines(raw):
        if start is None:
            start = _parse_header(line)
            if start is None:
                raise WalCorruption(f"{path}: missing or bad WAL header")
            good = end
            continue
        rec = decode_record(line)
        if rec is None:
            raise WalCorruption(
                f"{path}: corrupt record after {len(records)} good records"
            )
        if rec.lsn != start + len(records):
            raise WalCorruption(
                f"{path}: LSN gap, expected {start + len(records)} got {rec.lsn}"
            )
        if records and rec.epoch < records[-1].epoch:
            raise WalCorruption(
                f"{path}: epoch went backwards at lsn {rec.lsn} "
                f"({records[-1].epoch} -> {rec.epoch})"
            )
        records.append(rec)
        good = end
    return records, good


def list_segments(directory: str | pathlib.Path) -> list[SegmentInfo]:
    """The WAL segments under ``directory``, sorted by (start, epoch)."""
    directory = pathlib.Path(directory)
    if not directory.is_dir():
        return []
    out = []
    for p in directory.iterdir():
        m = _SEGMENT_RE.match(p.name)
        if m:
            out.append(SegmentInfo(int(m.group(1)), int(m.group(2)), p))
    return sorted(out, key=lambda s: (s.start, s.epoch))


def read_wal_dir(
    directory: str | pathlib.Path, io: StorageIO | None = None
) -> tuple[list[WalRecord], int]:
    """The *winning* record chain across every segment of ``directory``.

    Returns ``(records, base)`` where ``base`` is the LSN of the first
    retained record (segments before it were truncated away).  Where two
    segments claim the same LSNs -- the split-brain signature of a fenced
    ex-primary that kept appending -- the chain with the **higher epoch**
    wins and the stale suffix is dropped.  The mere *existence* of a
    newer-epoch segment starting at LSN ``S`` fences every older-epoch
    record at ``S`` onward, even before that segment holds any records (a
    promotion is effective the instant its segment is durable).  An
    overlap at *equal* epochs is :class:`WalCorruption` (two live writers
    means fencing failed).
    """
    segs = list_segments(directory)
    fences = [(s.start, s.epoch) for s in segs]

    def _fenced(rec: WalRecord) -> bool:
        return any(fe > rec.epoch and rec.lsn >= fs for fs, fe in fences)

    chain: list[WalRecord] = []
    base = segs[0].start if segs else 0
    for seg in segs:
        records = [r for r in read_wal(seg.path, io)[0] if not _fenced(r)]
        if not records:
            continue
        first = records[0].lsn
        tip = base + len(chain)
        if first > tip:
            raise WalCorruption(
                f"{seg.path}: LSN gap between segments, expected {tip} "
                f"got {first}"
            )
        if first < tip:
            incumbent = chain[first - base]
            if records[0].epoch > incumbent.epoch:
                del chain[first - base :]  # stale suffix loses to new epoch
            elif records[0].epoch < incumbent.epoch:
                continue  # this whole segment is fenced-zombie garbage
            else:
                raise WalCorruption(
                    f"{seg.path}: two writers claimed lsn {first} in "
                    f"epoch {incumbent.epoch}"
                )
        if chain and records[0].epoch < chain[-1].epoch:
            raise WalCorruption(
                f"{seg.path}: epoch went backwards across segments at "
                f"lsn {first}"
            )
        chain.extend(records)
    return chain, base


def read_records_from(
    directory: str | pathlib.Path, start_lsn: int, io: StorageIO | None = None
) -> list[WalRecord]:
    """Winning records with ``lsn >= start_lsn`` (replication bootstrap).

    Raises :class:`WalTruncated` when ``start_lsn`` precedes the oldest
    retained segment -- the caller must restore a snapshot first.
    """
    chain, base = read_wal_dir(directory, io)
    if start_lsn < base:
        raise WalTruncated(
            f"{directory}: lsn {start_lsn} precedes the oldest retained "
            f"segment (base {base}); bootstrap from a snapshot"
        )
    return chain[start_lsn - base :]


class WriteAheadLog:
    """Appendable single-file WAL handle (one segment).

    Opening an existing log scans it, repairs a torn tail (truncating to
    the durable prefix), and resumes the LSN sequence; opening a fresh
    path writes the schema header.  A failed append truncates back to the
    durable prefix before re-raising (see
    :class:`~repro.service.framing.FramedAppender`), so the failed record
    vanishes and a retry starts from a clean tail.  ``append`` is not
    thread-safe by itself -- :class:`~repro.service.service.StreamService`
    serializes all appends behind its single-writer lock.
    """

    def __init__(
        self,
        path: str | pathlib.Path,
        fsync: bool = False,
        start: int = 0,
        io: StorageIO | None = None,
    ) -> None:
        self.path = pathlib.Path(path)
        self._io = io or REAL_IO
        records, good = read_wal(self.path, self._io)
        self.start = records[0].lsn if records else start
        self._next_lsn = self.start + len(records)
        self._last_epoch = records[-1].epoch if records else 0
        header = json.dumps({"wal": WAL_SCHEMA, "start": self.start})
        self._log = FramedAppender(self.path, good, header, fsync, self._io)

    @property
    def next_lsn(self) -> int:
        """The LSN the next :meth:`append` will be stamped with."""
        return self._next_lsn

    @property
    def last_epoch(self) -> int:
        """Epoch of the newest durable record (0 for an empty log)."""
        return self._last_epoch

    @property
    def bytes_written(self) -> int:
        """Durable size of the log file in bytes."""
        return self._log.bytes_written

    def append(self, ops: Sequence[Op], epoch: int = 0) -> int:
        """Append one round; returns its LSN once the line is durable.

        On any failure the half-written record is gone and the LSN is not
        consumed, so a retry re-appends cleanly.
        """
        if epoch < self._last_epoch:
            raise ValueError(
                f"epoch must be monotone: {self._last_epoch} -> {epoch}"
            )
        lsn = self._next_lsn
        self._log.append(encode_record(lsn, ops, epoch=epoch))
        self._next_lsn += 1
        self._last_epoch = epoch
        return lsn

    def records(self) -> list[WalRecord]:
        """Re-read every durable record from disk (used by recovery)."""
        return read_wal(self.path, self._io)[0]

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        self._log.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def _segment_path(
    directory: pathlib.Path, start: int, epoch: int
) -> pathlib.Path:
    return directory / f"wal-{start:012d}-{epoch:06d}.jsonl"


class SegmentedWal:
    """A directory of WAL segments behaving as one appendable log.

    Opening scans every segment, resolves epoch conflicts (highest epoch
    wins -- see module docstring), repairs the winning tail segment's torn
    tail, and resumes appending to it.  :meth:`rotate` seals the current
    segment and starts the next (called by the service after each
    snapshot); :meth:`truncate_before` deletes segments no retained
    snapshot needs; :meth:`reset_to` is the promotion primitive -- it
    abandons the inherited chain at an LSN and opens a fresh segment under
    a new epoch, fencing whatever the old primary appends afterwards.
    """

    def __init__(
        self,
        directory: str | pathlib.Path,
        fsync: bool = False,
        epoch: int = 0,
        io: StorageIO | None = None,
    ) -> None:
        self.directory = pathlib.Path(directory)
        self.fsync = fsync
        self._io = io or REAL_IO
        self.directory.mkdir(parents=True, exist_ok=True)
        chain, base = read_wal_dir(self.directory, self._io)
        self._base = base
        self._next_lsn = base + len(chain)
        # Append to the segment that owns the chain tip: the one with the
        # highest (epoch, start) at or below next_lsn.  An *empty*
        # newer-epoch segment (a promotion that has not committed yet)
        # counts -- appending must continue it, not a fenced predecessor.
        candidates = [
            s for s in list_segments(self.directory) if s.start <= self._next_lsn
        ]
        if candidates:
            tip_seg = max(candidates, key=lambda s: (s.epoch, s.start))
            self.epoch = max(
                epoch, tip_seg.epoch, chain[-1].epoch if chain else 0
            )
            self._writer = WriteAheadLog(
                tip_seg.path, fsync=fsync, start=tip_seg.start, io=self._io
            )
        else:
            self.epoch = epoch
            self._writer = WriteAheadLog(
                _segment_path(self.directory, base, self.epoch),
                fsync=fsync,
                start=base,
                io=self._io,
            )
        if fsync:
            self._io.fsync_dir(self.directory)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def next_lsn(self) -> int:
        """The LSN the next :meth:`append` will be stamped with."""
        return self._next_lsn

    @property
    def base_lsn(self) -> int:
        """LSN of the oldest retained record (rises with truncation)."""
        return self._base

    @property
    def bytes_written(self) -> int:
        """Total bytes across all live segments."""
        return sum(s.size for s in self.segments())

    def segments(self) -> list[SegmentInfo]:
        """The on-disk segments, sorted by (start, epoch)."""
        return list_segments(self.directory)

    @property
    def is_fenced(self) -> bool:
        """True when a newer-epoch segment exists: this writer lost a
        promotion.  Appends still land (replay rejects them); destructive
        retention (:meth:`rotate`, :meth:`truncate_before`) becomes a
        no-op so a zombie cannot destroy the winner's shared prefix."""
        return any(s.epoch > self.epoch for s in list_segments(self.directory))

    # ------------------------------------------------------------------
    # The appender
    # ------------------------------------------------------------------

    def append(self, ops: Sequence[Op], epoch: int | None = None) -> int:
        """Append one round under ``epoch`` (default: the log's epoch)."""
        epoch = self.epoch if epoch is None else epoch
        if epoch < self.epoch:
            raise ValueError(f"epoch must be monotone: {self.epoch} -> {epoch}")
        lsn = self._writer.append(ops, epoch=epoch)
        self.epoch = epoch
        self._next_lsn = lsn + 1
        return lsn

    def rotate(self) -> pathlib.Path:
        """Seal the current segment and start the next one at ``next_lsn``.

        The new segment's directory entry is fsynced (under ``fsync=True``)
        before the method returns, so a crash immediately after rotation
        cannot lose it.  A fenced writer (see :attr:`is_fenced`) does not
        rotate: the current segment stays open.
        """
        if self.is_fenced:
            return self._writer.path
        # Open the successor before closing the incumbent: if the new
        # segment's header append fails (a transient fault), the current
        # writer is untouched and the rotation can simply be retried.
        successor = WriteAheadLog(
            _segment_path(self.directory, self._next_lsn, self.epoch),
            fsync=self.fsync,
            start=self._next_lsn,
            io=self._io,
        )
        self._writer.close()
        self._writer = successor
        if self.fsync:
            self._io.fsync_dir(self.directory)
        return self._writer.path

    def reset_to(self, lsn: int, epoch: int) -> pathlib.Path:
        """Adopt the log at ``lsn`` under a strictly newer ``epoch``.

        The promotion primitive: the chain above ``lsn`` (committed by the
        old primary but never replicated) is abandoned -- readers will
        drop it in favour of the new epoch's records -- and appending
        resumes in a fresh segment ``wal-<lsn>-<epoch>``.
        """
        if epoch <= self.epoch:
            raise ValueError(
                f"promotion needs a strictly newer epoch: {self.epoch} -> {epoch}"
            )
        if not (self._base <= lsn <= self._next_lsn):
            raise ValueError(
                f"adoption lsn {lsn} outside retained range "
                f"[{self._base}, {self._next_lsn}]"
            )
        self._writer.close()
        self.epoch = epoch
        self._next_lsn = lsn
        self._writer = WriteAheadLog(
            _segment_path(self.directory, lsn, epoch),
            fsync=self.fsync,
            start=lsn,
            io=self._io,
        )
        if self.fsync:
            self._io.fsync_dir(self.directory)
        return self._writer.path

    def truncate_before(self, lsn: int) -> int:
        """Delete segments wholly superseded below ``lsn``; returns count.

        A segment is dead once a *winning-chain* successor segment starts
        at or below ``lsn`` -- every record the dead segment contributes
        is then both older than ``lsn`` and re-coverable from the
        successor onward.  The active tail segment is never deleted, and
        a fenced writer (see :attr:`is_fenced`) deletes nothing at all.
        """
        if self.is_fenced:
            return 0
        chain, base = read_wal_dir(self.directory, self._io)
        if not chain:
            return 0
        # Contribution ranges: which LSNs each segment supplies to the
        # winning chain (None for fenced/stale segments).
        contrib: dict[pathlib.Path, tuple[int, int] | None] = {}
        tip = base
        for seg in self.segments():
            records, _ = read_wal(seg.path, self._io)
            if not records:
                contrib[seg.path] = None
                continue
            lo = max(records[0].lsn, tip)
            hi = records[-1].lsn
            # A later, higher-epoch segment may shadow this one's suffix.
            shadow = min(
                (
                    s.start
                    for s in self.segments()
                    if s.start >= lo and (s.start, s.epoch) > (seg.start, seg.epoch)
                    and s.epoch > seg.epoch
                ),
                default=hi + 1,
            )
            hi = min(hi, shadow - 1)
            contrib[seg.path] = (lo, hi) if lo <= hi else None
            tip = max(tip, hi + 1)
        removed = 0
        for seg in self.segments():
            if seg.path == self._writer.path:
                continue
            rng = contrib.get(seg.path)
            if rng is None or rng[1] < lsn:
                try:
                    self._io.unlink(seg.path)
                    removed += 1
                except OSError:  # pragma: no cover - best-effort cleanup
                    pass
        if removed:
            if self.fsync:
                self._io.fsync_dir(self.directory)
            live = self.segments()
            self._base = live[0].start if live else self._next_lsn
        return removed

    def records(self, start_lsn: int | None = None) -> list[WalRecord]:
        """Winning records from ``start_lsn`` (default: everything retained)."""
        if start_lsn is None:
            return read_wal_dir(self.directory, self._io)[0]
        return read_records_from(self.directory, start_lsn, self._io)

    def close(self) -> None:
        """Flush and close the active segment (idempotent)."""
        self._writer.close()

    def __enter__(self) -> "SegmentedWal":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class WalCursor:
    """An incremental reader tailing a :class:`SegmentedWal` directory.

    The replication shipper: a follower keeps one cursor positioned at its
    ``replayed_lsn`` and calls :meth:`poll` to fetch newly durable rounds.
    The cursor re-selects the segment to read on every poll -- preferring
    the **highest epoch** whose start is at or below the next expected LSN
    -- so it follows rotations and, after a promotion, abandons the old
    primary's segment for the new epoch's.

    Fencing: after :meth:`fence`, records at ``lsn >= fence_lsn`` whose
    epoch is below ``fence_epoch`` are *rejected* (they are a zombie
    primary's post-promotion appends); the cursor stops at the boundary
    and reports the rejection instead of applying garbage.
    """

    def __init__(
        self,
        directory: str | pathlib.Path,
        next_lsn: int = 0,
        io: StorageIO | None = None,
    ) -> None:
        self.directory = pathlib.Path(directory)
        self.next_lsn = next_lsn
        self._io = io or REAL_IO
        self._fence: tuple[int, int] = (0, 0)  # (lsn, min epoch from there)
        self._seg: SegmentInfo | None = None
        self._offset = 0
        self.fenced_rejections = 0

    def fence(self, lsn: int, epoch: int) -> None:
        """Reject records at ``lsn`` onward with epoch below ``epoch``."""
        self._fence = (lsn, epoch)
        self._seg = None  # force re-selection away from a stale segment

    def _select_segment(self) -> SegmentInfo | None:
        candidates = [
            s for s in list_segments(self.directory) if s.start <= self.next_lsn
        ]
        return max(candidates, key=lambda s: (s.epoch, s.start), default=None)

    def _stale(self, rec: WalRecord) -> bool:
        fence_lsn, fence_epoch = self._fence
        return rec.lsn >= fence_lsn and rec.epoch < fence_epoch

    def poll(self, max_records: int | None = None) -> list[WalRecord]:
        """Newly durable records starting at ``next_lsn`` (may be empty).

        Advances ``next_lsn`` past what it returns.  Raises
        :class:`WalTruncated` when the position was truncated away (the
        follower must re-bootstrap from a snapshot).
        """
        out: list[WalRecord] = []
        while max_records is None or len(out) < max_records:
            target = self._select_segment()
            if target is None:
                segs = list_segments(self.directory)
                if segs and segs[0].start > self.next_lsn:
                    raise WalTruncated(
                        f"{self.directory}: lsn {self.next_lsn} precedes the "
                        f"oldest retained segment (base {segs[0].start})"
                    )
                break
            if self._seg is None or target.path != self._seg.path:
                self._seg = target
                self._offset = 0
            try:
                got = self._poll_segment(max_records, out)
            except OSError:
                # A transient read fault mid-poll.  If earlier iterations
                # already shipped records, the cursor has advanced past
                # them -- raising now would discard them while keeping the
                # advanced position, silently skipping those rounds
                # forever.  Deliver what we have; a persistent fault
                # resurfaces on the next poll's *first* read, where
                # raising is safe (no position was consumed yet).
                if out:
                    return out
                raise
            if not got:
                break
        return out

    def _poll_segment(
        self, max_records: int | None, out: list[WalRecord]
    ) -> bool:
        """Read new complete lines from the current segment; True if any
        record was appended to ``out`` or the cursor switched segments."""
        assert self._seg is not None
        try:
            raw = self._io.read_from(self._seg.path, self._offset)
        except FileNotFoundError:
            self._seg = None
            raise WalTruncated(
                f"{self.directory}: segment vanished under the cursor"
            )
        # Any other OSError is a *transient* read failure: the cursor's
        # position is untouched, so the caller (Follower.catch_up under a
        # RetryPolicy) simply polls again.
        progressed = False
        consumed = 0
        for line, end in complete_lines(raw):
            if self._offset == 0 and consumed == 0:
                if _parse_header(line) is None:
                    raise WalCorruption(
                        f"{self._seg.path}: missing or bad WAL header"
                    )
                consumed = end
                continue
            rec = decode_record(line)
            if rec is None:
                break  # torn bytes that happen to end in newline: stop here
            if rec.lsn < self.next_lsn:
                consumed = end
                continue
            if rec.lsn > self.next_lsn:
                break  # gap within a segment: never durable, stop
            if self._stale(rec):
                # A fenced zombie's append: reject it.  If a newer-epoch
                # segment owns this LSN, switch to it in the same poll;
                # otherwise park and re-select on the next poll.
                self.fenced_rejections += 1
                stale_path = self._seg.path
                self._seg = None
                self._offset = 0
                nxt = self._select_segment()
                if nxt is not None and nxt.path != stale_path:
                    self._seg = nxt
                    return True
                return False
            out.append(rec)
            self.next_lsn = rec.lsn + 1
            consumed = end
            progressed = True
            if max_records is not None and len(out) >= max_records:
                break
        self._offset += consumed
        if not progressed:
            # Nothing new in this segment; a rotated successor may exist.
            nxt = self._select_segment()
            if nxt is not None and self._seg is not None and nxt.path != self._seg.path:
                self._seg = nxt
                self._offset = 0
                return True
        return progressed


def wal_summary(directory: str | pathlib.Path) -> dict:
    """One-glance stats of a WAL directory (``repro.report --wal``).

    Returns segment count, retained LSN range, total bytes, and the
    newest epoch; all zeros for an empty or missing directory.
    """
    directory = pathlib.Path(directory)
    segs = list_segments(directory)
    chain, base = read_wal_dir(directory)
    return {
        "segments": len(segs),
        "base_lsn": base,
        "next_lsn": base + len(chain),
        "rounds": len(chain),
        "bytes": sum(s.size for s in segs),
        "epoch": chain[-1].epoch if chain else (segs[-1].epoch if segs else 0),
    }
