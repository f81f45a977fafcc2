"""Call/reply pairing.

A passive tracer sees calls and replies as separate packets; analyses
want one object per operation.  Pairing also surfaces the capture-loss
phenomenon of Section 4.1.4: a reply whose call was dropped cannot be
decoded (it is counted, not used), and a call with no reply within the
timeout was either dropped on the mirror or never answered.

The pairing contract.  :class:`StreamPairer` is the only code that
matches replies to calls; :func:`pair_records`, :func:`pair_all`, the
streaming engine and the ``--jobs`` fan-out of
:mod:`repro.analysis.parallel` all drive it.  Over a wire-time-ordered
record stream, with calls keyed by ``(client, xid)``:

* ops come out in *reply order*: one op at each reply that completes
  a pair, carrying its call's wire time as ``time``;
* a call whose key is already outstanding is a retransmission: the
  earlier call is charged as unanswered and the newest kept;
* a reply pairs its outstanding call only if
  ``reply.time - call.time <= reply_timeout``, checked when the reply
  arrives; a later reply charges the call as unanswered and then
  counts as a reply without a call;
* a reply without a call is a duplicate when the same key paired (or
  was duplicated) at most ``reply_timeout`` earlier, else an orphan;
* calls still outstanding at end of stream are unanswered.

Every 4096 calls the pairer drops outstanding calls and recent pairs
older than ``reply_timeout``.  In an ordered stream no later reply can
use them, so the sweep frees memory and changes no result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.nfs.messages import NfsStatus
from repro.nfs.procedures import NfsProc
from repro.obs.gcpause import paused_gc
from repro.trace.record import Direction, TraceRecord

#: A reply arriving this long after its call is assumed lost (the
#: paper's nfsiod delays top out at 1 s; retransmission adds a little).
DEFAULT_REPLY_TIMEOUT = 8.0


@dataclass(slots=True)
class PairedOp:
    """One matched NFS operation.

    ``time`` is the call's wire time (what run/lifetime analyses key
    on); ``reply_time`` the reply's.  ``count`` is the *actual* byte
    count: for reads, the reply's short-read-aware count; for writes,
    the call's.  ``post_size``/``post_mtime`` come from the reply's
    post-op attributes.
    """

    time: float
    reply_time: float
    proc: NfsProc
    client: str
    xid: int
    status: NfsStatus
    version: int = 3
    uid: int | None = None
    fh: str | None = None
    name: str | None = None
    target_fh: str | None = None
    target_name: str | None = None
    offset: int | None = None
    count: int | None = None
    size: int | None = None
    eof: bool | None = None
    reply_fh: str | None = None
    post_size: int | None = None
    post_mtime: float | None = None
    post_ftype: str | None = None

    def ok(self) -> bool:
        """True when the operation succeeded."""
        return self.status is NfsStatus.OK

    def is_read(self) -> bool:
        """True for READ operations."""
        return self.proc is NfsProc.READ

    def is_write(self) -> bool:
        """True for WRITE operations."""
        return self.proc is NfsProc.WRITE


@dataclass
class PairingStats:
    """What pairing saw — including what it could not pair."""

    calls: int = 0
    replies: int = 0
    paired: int = 0
    orphan_replies: int = 0  # reply seen, call packet lost
    unanswered_calls: int = 0  # call seen, reply packet lost
    errors: int = 0  # paired ops with non-OK status
    duplicate_replies: int = 0  # reply re-captured after its pair completed

    @property
    def estimated_loss_rate(self) -> float:
        """Estimated fraction of packets the capture lost.

        Each orphan reply implies one lost call packet; each
        unanswered call implies one lost reply.  (Section 4.1.4's
        estimator.)  Duplicate replies imply nothing — the mirror
        showed the same packet twice — so they are excluded.
        """
        observed = self.calls + self.replies
        lost = self.orphan_replies + self.unanswered_calls
        if observed + lost == 0:
            return 0.0
        return lost / (observed + lost)


def pair_records(
    records: Iterable[TraceRecord],
    *,
    reply_timeout: float = DEFAULT_REPLY_TIMEOUT,
    stats: PairingStats | None = None,
    spans=None,
) -> Iterator[PairedOp]:
    """Pair a wire-time-ordered record stream into operations.

    Yields ops in reply order (see the module docstring).  Pass a
    :class:`PairingStats` to collect loss accounting.  Pass a
    :class:`~repro.obs.spans.SpanRecorder` to emit a ``pairer`` span
    per resolution verdict (paired / orphan_reply / duplicate_reply)
    for sampled operations.
    """
    pairer = StreamPairer(reply_timeout=reply_timeout, stats=stats, spans=spans)
    push = pairer.push
    for record in records:
        op = push(record)
        if op is not None:
            yield op
    pairer.close()


def pair_all(records: Iterable[TraceRecord]) -> tuple[list[PairedOp], PairingStats]:
    """Convenience: pair everything into a list, returning stats too.

    Cyclic GC is paused while the list materializes: pairing a week of
    trace allocates hundreds of thousands of acyclic PairedOps whose
    generation-2 rescans roughly double the wall time otherwise.
    """
    stats = PairingStats()
    with paused_gc():
        ops = list(pair_records(records, stats=stats))
    return ops, stats


_CALL = Direction.CALL
_READ = NfsProc.READ
_OK = NfsStatus.OK


class StreamPairer:
    """The pairing kernel: push one record at a time, get ops back.

    Implements the module's pairing contract for live taps, the
    streaming engine, :func:`pair_records` and the fan-out's chunk
    workers and boundary pass (:meth:`handoff`, :meth:`supersede` and
    :meth:`adopt` carry state across chunk boundaries).  Memory is
    bounded by the calls awaiting replies within ``reply_timeout``.
    """

    __slots__ = ("stats", "reply_timeout", "spans", "_outstanding",
                 "_recent")

    def __init__(
        self,
        *,
        reply_timeout: float = DEFAULT_REPLY_TIMEOUT,
        stats: PairingStats | None = None,
        spans=None,
    ) -> None:
        self.stats = stats if stats is not None else PairingStats()
        self.reply_timeout = reply_timeout
        #: optional repro.obs.spans.SpanRecorder for verdict spans
        self.spans = spans
        self._outstanding: dict[tuple[str, int], TraceRecord] = {}
        #: keys paired recently, mapped to the pairing reply's wire time;
        #: a second reply for such a key within reply_timeout is a capture
        #: duplicate, not an orphan (its call was not lost)
        self._recent: dict[tuple[str, int], float] = {}

    def push(self, record: TraceRecord) -> PairedOp | None:
        """Consume one record; returns the completed op on replies."""
        stats = self.stats
        key = (record.client, record.xid)
        if record.direction == _CALL:
            calls = stats.calls = stats.calls + 1
            outstanding = self._outstanding
            if key in outstanding:
                # retransmission: the earlier call goes unanswered
                stats.unanswered_calls += 1
            outstanding[key] = record
            if not calls & 4095:
                self._sweep(record.time)
            return None
        stats.replies += 1
        time = record.time
        call = self._outstanding.pop(key, None)
        if call is not None:
            if time - call.time <= self.reply_timeout:
                self._recent[key] = time
                stats.paired += 1
                count = call.count
                if call.proc is _READ and record.count is not None:
                    count = record.count  # short reads: believe the reply
                status = record.status
                if status is None:
                    status = _OK
                elif status is not _OK:
                    stats.errors += 1
                if self.spans is not None:
                    self._span(call, call.time, time, "paired")
                # positional, in PairedOp declaration order: one op per
                # reply makes a kwargs dict measurable
                return PairedOp(
                    call.time, time, call.proc, call.client, call.xid,
                    status, call.version, call.uid, call.fh, call.name,
                    call.target_fh, call.target_name, call.offset, count,
                    call.size, record.eof, record.fh, record.attr_size,
                    record.attr_mtime, record.attr_ftype,
                )
            stats.unanswered_calls += 1  # its reply came too late
        seen = self._recent.get(key)
        if seen is not None and time - seen <= self.reply_timeout:
            stats.duplicate_replies += 1
            self._recent[key] = time
            if self.spans is not None:
                self._span(record, time, time, "duplicate_reply")
        else:
            self._orphan(record)
        return None

    def _orphan(self, reply: TraceRecord) -> None:
        """A reply with neither its call nor a recent pair: call lost."""
        self.stats.orphan_replies += 1
        if self.spans is not None:
            self._span(reply, reply.time, reply.time, "orphan_reply")

    def _span(self, record: TraceRecord, start: float, end: float,
              verdict: str) -> None:
        proc = record.proc._value_
        tid = self.spans.trace_of(record.client, record.xid, proc)
        if tid is not None:
            self.spans.pairer_span(tid, proc, start, end, verdict)

    def _sweep(self, now: float) -> None:
        """Free what no later reply can use (memory only, see module doc)."""
        horizon = now - self.reply_timeout
        outstanding = self._outstanding
        stale = [k for k, c in outstanding.items() if c.time < horizon]
        for key in stale:
            del outstanding[key]
        self.stats.unanswered_calls += len(stale)
        recent = self._recent
        for key in [k for k, t in recent.items() if t < horizon]:
            del recent[key]

    def supersede(self, call: TraceRecord) -> None:
        """Another kernel saw ``call``: charge the call it retransmits."""
        if self._outstanding.pop((call.client, call.xid), None) is not None:
            self.stats.unanswered_calls += 1

    def handoff(self, end: float) -> tuple[list[TraceRecord], dict]:
        """End a chunk that ended at ``end`` without charging anything.

        Returns the outstanding calls and the recent pairs a later
        chunk's replies could still use, for :meth:`adopt`.
        """
        horizon = end - self.reply_timeout
        recent = {k: t for k, t in self._recent.items() if t >= horizon}
        return list(self._outstanding.values()), recent

    def adopt(self, calls: list[TraceRecord], recent: dict) -> None:
        """Continue after a chunk's :meth:`handoff` (boundary pass)."""
        for call in calls:
            self.push(call)
        mine = self._recent
        for key, when in recent.items():
            seen = mine.get(key)
            if seen is None or when > seen:
                mine[key] = when

    def close(self) -> PairingStats:
        """End of stream: count leftovers as unanswered; returns stats."""
        self.stats.unanswered_calls += len(self._outstanding)
        self._outstanding.clear()
        self._recent.clear()
        return self.stats

    def __len__(self) -> int:
        """Outstanding (unreplied) calls currently buffered."""
        return len(self._outstanding)
