"""Parallel analysis fan-out over trace chunks.

``parallel_pair(path, jobs=N)`` returns exactly what
:func:`~repro.analysis.pairing.pair_all` returns for the whole trace:
the same ops in the same (reply) order and the same
:class:`~repro.analysis.pairing.PairingStats`.  With ``jobs=1``, or
when the trace plans as a single chunk, it *is* that serial pass:
:class:`~repro.trace.TraceReader` into the pairing kernel, with no
chunk plan and no spool.

With ``jobs > 1`` the trace is split into *content-derived* chunks
(boundaries nudged so records sharing one timestamp stay together) and
each chunk is decoded and paired by a pool worker driving its own
:class:`~repro.analysis.pairing.StreamPairer`.  What a chunk cannot
settle alone it hands back in file order: replies whose call may sit
in an earlier chunk (each with the number of local ops before it),
calls near its start that may retransmit an earlier chunk's call, its
outstanding calls at the end and its recent pairs.  One boundary pass
drives a parent-side kernel over those leftovers, chunk by chunk, and
the final op list is the per-chunk op streams concatenated in chunk
order, each boundary op spliced in at its reply's position.

The fan-out keeps the *parent's* serial section small, because that is
what Amdahl charges for:

* Workers never receive record objects: a :class:`ChunkSpec` carries a
  path plus a byte range, and each worker seeks and decodes its own
  slice.  Gzipped inputs are decompressed once into a spooled copy so
  workers seek raw bytes instead of each re-inflating the prefix.
* Workers never *return* op objects either: each serializes its ops
  into a binary segment (:mod:`repro.analysis.opsegment`: shared
  memory, or spooled files) and returns a small result struct plus a
  handle; the parent decodes the segments in chunk order.
* The binary string table is written once to a side file that workers
  read directly, instead of pickling a per-chunk snapshot of the whole
  table into every :class:`ChunkSpec`.
* Pools are kept warm in a per-size cache and reused by later
  ``parallel_pair`` calls, so repeated analyses don't pay fork+spawn
  per call.

The paired operation list is built once and reused by every analysis
(summary, runs, characterization) instead of re-pairing per analysis —
see :func:`repro.cli.main.cmd_analyze`.
"""

from __future__ import annotations

import functools
import io
import shutil
import tempfile
import time as _time
from dataclasses import dataclass, field, replace
from itertools import islice
from pathlib import Path
from struct import Struct
from typing import Iterable

import repro.parallel as repro_parallel
from repro.errors import TraceFormatError
from repro.obs.gcpause import paused_gc
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import sample_decision, sample_threshold, trace_id
from repro.trace.binfmt import (
    _CONTAINER_ERRORS,
    _FRAME_HEAD,
    _RECORD_TAG,
    _STRING_TAG,
    BinaryTraceDecoder,
    is_binary_trace_path,
    open_binary_for_read,
    read_trace_header,
)
from repro.trace.reader import TraceReader
from repro.trace.record import Direction, TraceRecord, record_from_line
from repro.analysis.opsegment import (
    claim_segment,
    decode_ops,
    default_transport,
    encode_ops,
    publish_segment,
    sweep_segments,
)
from repro.analysis.pairing import (
    DEFAULT_REPLY_TIMEOUT,
    PairedOp,
    PairingStats,
    StreamPairer,
    pair_records,
)

#: Nominal records per chunk when a fixed size is requested.  The
#: default (``chunk_records=None``) auto-tunes from the trace instead:
#: see :data:`_AUTO_TARGET_CHUNKS`.
DEFAULT_CHUNK_RECORDS = 65536

#: Auto-tuning: scan at a fine granule, then coalesce to ~this many
#: chunks (clamped to [_AUTO_MIN, _AUTO_MAX] records per chunk).  Many
#: smallish chunks balance well up to 8 workers; the clamp keeps
#: per-chunk overhead (task dispatch, segment setup) negligible on
#: tiny and huge traces alike.  Content-derived and jobs-independent.
_AUTO_GRANULE = 8192
_AUTO_TARGET_CHUNKS = 32
_AUTO_MIN_RECORDS = 16384
_AUTO_MAX_RECORDS = 262144

_TIME_STRUCT = Struct("<d")
_TABLE_LEN = Struct("<I")


@dataclass(frozen=True)
class ChunkSpec:
    """One self-contained slice of a trace file.

    ``offset``/``nbytes`` are in *decompressed* stream coordinates for
    ``.gz`` inputs (workers seek through the gzip stream).  For binary
    traces the string table as of ``offset`` comes either inline
    (``strings``) or — when planned for a pool — as the first
    ``table_count`` entries of the shared side file ``table``, which
    workers read and cache instead of unpickling a snapshot per chunk.
    """

    path: str
    binary: bool
    offset: int
    nbytes: int
    records: int
    strings: tuple[str, ...] = ()
    table: str | None = None
    table_count: int = 0


@dataclass
class PairedChunk:
    """A chunk worker's result: local pairs plus what it left open."""

    stats: PairingStats = field(default_factory=PairingStats)
    ops: list[PairedOp] = field(default_factory=list)
    #: in file order: ``(local ops before it, record)`` for each reply
    #: the chunk could not settle and each call near the chunk's start
    #: (it may retransmit an earlier chunk's outstanding call)
    head: list[tuple[int, TraceRecord]] = field(default_factory=list)
    #: calls still outstanding at the chunk's end
    tail_calls: list[TraceRecord] = field(default_factory=list)
    #: recent pairs a later chunk's duplicate replies may refer to
    recent: dict = field(default_factory=dict)
    #: pairer spans of span-sampled ops, for the parent to replay
    spans: list[tuple] = field(default_factory=list)
    wall_seconds: float = 0.0
    #: ops travel as a published segment, not in ``ops``
    segment: tuple[str, str, int] | None = None


def plan_chunks(
    path: str | Path, *, chunk_records: int | None = DEFAULT_CHUNK_RECORDS
) -> list[ChunkSpec]:
    """Index a trace into chunk specs (content-derived boundaries).

    ``chunk_records=None`` auto-tunes the chunk size from the trace's
    record count; an explicit value is honored exactly.
    """
    return _plan(str(path), chunk_records, table_dir=None)


def _plan(
    path: str, chunk_records: int | None, table_dir: str | None
) -> list[ChunkSpec]:
    auto = chunk_records is None
    granule = _AUTO_GRANULE if auto else chunk_records
    if is_binary_trace_path(path):
        specs = _plan_binary(path, granule, table_dir)
    else:
        specs = _plan_text(path, granule)
    if not auto or len(specs) <= 1:
        return specs
    total = sum(spec.records for spec in specs)
    target = -(-total // _AUTO_TARGET_CHUNKS)  # ceil
    target = min(max(target, _AUTO_MIN_RECORDS), _AUTO_MAX_RECORDS)
    return _coalesce(specs, target)


def _coalesce(minis: list[ChunkSpec], target: int) -> list[ChunkSpec]:
    """Merge adjacent fine-granule chunks up to ~``target`` records.

    Every mini boundary already respects the equal-timestamp rule, so
    any subset of those boundaries does too.
    """
    specs: list[ChunkSpec] = []
    acc: ChunkSpec | None = None
    for spec in minis:
        if acc is None:
            acc = spec
        elif acc.records >= target:
            specs.append(acc)
            acc = spec
        else:
            acc = replace(
                acc, nbytes=acc.nbytes + spec.nbytes,
                records=acc.records + spec.records,
            )
    if acc is not None:
        specs.append(acc)
    return specs


class _TableWriter:
    """Appends string definitions to the shared side file."""

    def __init__(self, directory: str) -> None:
        self.path = str(Path(directory) / "strings.tbl")
        self._file = open(self.path, "wb")
        self.count = 0

    def add(self, data: bytes) -> None:
        self._file.write(_TABLE_LEN.pack(len(data)))
        self._file.write(data)
        self.count += 1

    def close(self) -> None:
        self._file.close()


def _plan_binary(
    path: str, chunk_records: int, table_dir: str | None = None
) -> list[ChunkSpec]:
    # A light frame scan: no record objects, just frame heads, string
    # payloads (future chunk seeds) and each record's leading f64 time.
    frame_head = _FRAME_HEAD
    frame_head_size = frame_head.size
    unpack_time = _TIME_STRUCT.unpack_from
    specs: list[ChunkSpec] = []
    strings: list[str] = []
    table = _TableWriter(table_dir) if table_dir is not None else None
    fileobj = open_binary_for_read(path)
    try:
        offset = read_trace_header(fileobj)
        chunk_start = offset
        chunk_strings = 0  # string count at chunk_start
        count = 0
        last_time = None
        file_read = fileobj.read
        chunk_size = 1 << 20
        buf = b""
        pos = 0

        def emit() -> None:
            if table is None:
                specs.append(
                    ChunkSpec(
                        path=path, binary=True, offset=chunk_start,
                        nbytes=offset - chunk_start, records=count,
                        strings=tuple(strings[:chunk_strings]),
                    )
                )
            else:
                specs.append(
                    ChunkSpec(
                        path=path, binary=True, offset=chunk_start,
                        nbytes=offset - chunk_start, records=count,
                        table=table.path, table_count=chunk_strings,
                    )
                )

        while True:
            if len(buf) - pos < frame_head_size:
                buf = buf[pos:] + file_read(chunk_size)
                pos = 0
                if not buf:
                    break
                if len(buf) < frame_head_size:
                    raise TraceFormatError("truncated frame header")
            tag, length = frame_head.unpack_from(buf, pos)
            body = pos + frame_head_size
            end = body + length
            if end > len(buf):
                tail = buf[pos:]
                need = frame_head_size + length - len(tail)
                buf = tail + file_read(
                    need if need > chunk_size else chunk_size
                )
                pos = 0
                body = frame_head_size
                end = body + length
                if len(buf) < end:
                    raise TraceFormatError("truncated frame payload")
            if tag == _RECORD_TAG:
                (when,) = unpack_time(buf, body)
                if count >= chunk_records and when != last_time:
                    emit()
                    chunk_start = offset
                    chunk_strings = (
                        len(strings) if table is None else table.count
                    )
                    count = 0
                count += 1
                last_time = when
            elif tag == _STRING_TAG:
                data = buf[body:end]
                if table is None:
                    try:
                        strings.append(data.decode("utf-8"))
                    except UnicodeDecodeError as exc:
                        raise TraceFormatError("corrupt string frame") from exc
                else:
                    # workers decode; the planner only spools the bytes
                    table.add(data)
            else:
                raise TraceFormatError(f"unknown frame tag 0x{tag:02x}")
            offset += frame_head_size + length
            pos = end
        if offset > chunk_start:
            emit()
    except _CONTAINER_ERRORS as exc:
        raise TraceFormatError(f"corrupt compressed container: {exc}") from exc
    finally:
        if table is not None:
            table.close()
        fileobj.close()
    return specs


def _open_raw(path: str):
    """Byte-stream open, gzip-transparent (offsets are decompressed)."""
    if path.endswith(".gz"):
        import gzip

        return io.BufferedReader(gzip.open(path, "rb"))
    return open(path, "rb")


def _spool_gz(path: str, workdir: str) -> str:
    """Decompress ``path`` once into ``workdir``; return the copy.

    Chunk offsets are decompressed-stream coordinates, so a worker
    seeking into a ``.gz`` file re-inflates everything before its
    chunk — O(n²) total re-decompression across the plan plus the
    planning pass itself.  One spooled copy makes every later seek a
    raw file seek.
    """
    import gzip

    out = Path(workdir) / Path(path).name[: -len(".gz")]
    try:
        with gzip.open(path, "rb") as src, open(out, "wb") as dst:
            shutil.copyfileobj(src, dst, 1 << 20)
    except _CONTAINER_ERRORS as exc:
        raise TraceFormatError(f"corrupt compressed container: {exc}") from exc
    return str(out)


def _plan_text(path: str, chunk_records: int) -> list[ChunkSpec]:
    specs: list[ChunkSpec] = []
    offset = 0
    chunk_start = 0
    count = 0
    last_time = None
    try:
        with _open_raw(path) as fileobj:
            for line in fileobj:
                stripped = line.strip()
                if stripped and not stripped.startswith(b"#"):
                    try:
                        when = float(stripped.split(b" ", 1)[0])
                    except ValueError:
                        when = last_time  # malformed: the worker will complain
                    if count >= chunk_records and when != last_time:
                        specs.append(
                            ChunkSpec(
                                path=path,
                                binary=False,
                                offset=chunk_start,
                                nbytes=offset - chunk_start,
                                records=count,
                            )
                        )
                        chunk_start = offset
                        count = 0
                    count += 1
                    last_time = when
                offset += len(line)
    except _CONTAINER_ERRORS as exc:
        raise TraceFormatError(f"corrupt compressed container: {exc}") from exc
    if offset > chunk_start:
        specs.append(
            ChunkSpec(
                path=path,
                binary=False,
                offset=chunk_start,
                nbytes=offset - chunk_start,
                records=count,
            )
        )
    return specs


#: Per-process cache of shared string tables: path -> loaded strings.
#: The table file is complete before any worker reads it, and pooled
#: workers handle many chunks of the same plan, so each process parses
#: the table once and slices prefixes per chunk.
_TABLE_CACHE: dict[str, list[str]] = {}


def _table_prefix(path: str, count: int) -> list[str]:
    strings = _TABLE_CACHE.get(path)
    if strings is None:
        # one plan at a time per pool: a new table path means the old
        # run is over, so don't let warm workers hoard dead tables
        _TABLE_CACHE.clear()
        strings = []
        unpack = _TABLE_LEN.unpack_from
        len_size = _TABLE_LEN.size
        with open(path, "rb") as fileobj:
            data = fileobj.read()
        pos = 0
        total = len(data)
        try:
            while pos < total:
                (nbytes,) = unpack(data, pos)
                pos += len_size
                strings.append(str(data[pos : pos + nbytes], "utf-8"))
                pos += nbytes
        except (IndexError, UnicodeDecodeError) as exc:
            raise TraceFormatError(f"corrupt string table: {exc}") from exc
        _TABLE_CACHE[path] = strings
    return strings[:count]


def decode_chunk(spec: ChunkSpec) -> list[TraceRecord]:
    """Decode one chunk's records (worker side; strict)."""
    if spec.binary:
        with open_binary_for_read(spec.path) as fileobj:
            fileobj.seek(spec.offset)
            payload = fileobj.read(spec.nbytes)
        if spec.table is not None:
            strings: Iterable[str] = _table_prefix(spec.table, spec.table_count)
        else:
            strings = spec.strings
        decoder = BinaryTraceDecoder(
            io.BytesIO(payload), expect_header=False, strings=strings
        )
        with paused_gc():
            return list(decoder)
    with _open_raw(spec.path) as fileobj:
        fileobj.seek(spec.offset)
        payload = fileobj.read(spec.nbytes)
    records = []
    append = records.append
    with paused_gc():
        for raw in payload.decode("utf-8").splitlines():
            raw = raw.strip()
            if raw and not raw.startswith("#"):
                append(record_from_line(raw))
    return records


# ---------------------------------------------------------------------------
# Pool management: the shared (purpose, size)-keyed registry in
# repro.parallel, under the "analysis" purpose.  Warm pools are reused
# across parallel_pair calls; the registry owns the atexit teardown.

_POOL_PURPOSE = "analysis"


def _get_pool(processes: int):
    """A warm pool of exactly ``processes`` analysis workers."""
    return repro_parallel.get_pool(_POOL_PURPOSE, processes)


def _discard_pool(processes: int) -> None:
    repro_parallel.discard_pool(_POOL_PURPOSE, processes)


def _pair_chunk_segment(
    item: tuple[int, ChunkSpec],
    *,
    token: str,
    span_threshold: int,
    transport: str,
    workdir: str,
) -> PairedChunk:
    """Pool-side chunk task: pair, then publish ops as a segment."""
    index, spec = item
    started = _time.perf_counter()
    with paused_gc():
        partial = _pair_partial(
            decode_chunk(spec), span_threshold=span_threshold
        )
        payload = encode_ops(partial.ops)
    partial.ops = []
    partial.segment = publish_segment(payload, token, index, transport, workdir)
    partial.wall_seconds = _time.perf_counter() - started
    return partial


class _SpanTape:
    """A worker's stand-in for a span recorder: keeps pairer spans.

    Sampling is a pure hash of the operation, so the worker decides
    exactly as the parent's recorder would; the parent replays the
    kept spans into its buffered recorder.
    """

    __slots__ = ("threshold", "spans")

    def __init__(self, threshold: int, spans: list) -> None:
        self.threshold = threshold
        self.spans = spans

    def trace_of(self, client: str, xid: int, proc: str) -> str | None:
        if sample_decision(client, xid, proc, self.threshold):
            return trace_id(client, xid, proc)
        return None

    def pairer_span(self, *args) -> None:
        self.spans.append(args)


class _ChunkPairer(StreamPairer):
    """A chunk's kernel: keeps the replies it cannot settle alone.

    A reply that finds neither its call nor a recent pair is appended
    to ``head`` as ``(ops paired so far, reply)`` instead of charged as
    an orphan: its call may sit in an earlier chunk.
    """

    __slots__ = ("head",)

    def __init__(self, head: list, **kwargs) -> None:
        super().__init__(**kwargs)
        self.head = head

    def _orphan(self, reply: TraceRecord) -> None:
        self.head.append((self.stats.paired, reply))


def _pair_partial(
    records: list[TraceRecord],
    *,
    reply_timeout: float = DEFAULT_REPLY_TIMEOUT,
    span_threshold: int = 0,
) -> PairedChunk:
    """Drive a chunk-local pairing kernel over one chunk's records.

    Replies that find neither their call nor a recent pair are left
    for the boundary pass, not charged as orphans.  So are calls within
    ``reply_timeout`` of the chunk's first record: a later reply could
    otherwise pair an earlier chunk's call they retransmitted.
    """
    partial = PairedChunk()
    head = partial.head
    spans = _SpanTape(span_threshold, partial.spans) if span_threshold else None
    pairer = _ChunkPairer(
        head, reply_timeout=reply_timeout, stats=partial.stats, spans=spans
    )
    push = pairer.push
    ops = partial.ops
    add_op = ops.append
    call_dir = Direction.CALL
    early = records[0].time + reply_timeout if records else 0.0
    for record in records:
        if record.time <= early and record.direction == call_dir:
            head.append((len(ops), record))
        op = push(record)
        if op is not None:
            add_op(op)
    end = records[-1].time if records else 0.0
    partial.tail_calls, partial.recent = pairer.handoff(end)
    return partial


def _settle_boundaries(
    partials: list[PairedChunk], spans
) -> tuple[PairingStats, list[list[tuple[int, PairedOp]]]]:
    """Pair what the chunks left open; returns total stats and placements.

    One kernel walks the leftovers chunk by chunk in file order: the
    chunk's open replies and early calls, then its outstanding calls
    and recent pairs.  ``placements[i]`` lists ``(local ops before,
    op)`` for the ops completed by chunk ``i``'s open replies.
    """
    stats = PairingStats()
    for partial in partials:
        for name, value in vars(partial.stats).items():
            setattr(stats, name, getattr(stats, name) + value)
    calls, replies = stats.calls, stats.replies
    boundary = StreamPairer(stats=stats, spans=spans)
    call_dir = Direction.CALL
    placements = []
    for partial in partials:
        placed = []
        for before, record in partial.head:
            if record.direction == call_dir:
                boundary.supersede(record)
            else:
                op = boundary.push(record)
                if op is not None:
                    placed.append((before, op))
        boundary.adopt(partial.tail_calls, partial.recent)
        placements.append(placed)
    boundary.close()
    # the chunks already counted the records this pass pushed again
    stats.calls, stats.replies = calls, replies
    return stats, placements


def _map_chunks(
    specs: list[ChunkSpec],
    *,
    jobs: int,
    span_threshold: int,
    workdir: str,
) -> tuple[list[PairedChunk], str]:
    """Fan chunks over a warm pool; ops come back as segments."""
    processes = min(jobs, len(specs))
    token = repro_parallel.run_token()
    pair = functools.partial(
        _pair_chunk_segment,
        token=token,
        span_threshold=span_threshold,
        transport=default_transport(),
        workdir=workdir,
    )
    pool = _get_pool(processes)
    try:
        partials = pool.map(pair, list(enumerate(specs)))
    except Exception:
        # a broken pool (killed worker, corrupt chunk) is not reusable
        # state worth keeping; published segments are swept by caller
        _discard_pool(processes)
        raise
    return partials, token


def _pair_fanned(
    specs: list[ChunkSpec], *, jobs: int, workdir: str, spans
) -> tuple[list[PairedOp], PairingStats, list[PairedChunk]]:
    """Pair chunks on the pool, settle boundaries, rebuild reply order."""
    span_threshold = sample_threshold(spans.sample) if spans is not None else 0
    token: str | None = None
    try:
        with paused_gc():
            partials, token = _map_chunks(
                specs, jobs=jobs, span_threshold=span_threshold,
                workdir=workdir,
            )
        stats, placements = _settle_boundaries(partials, spans)
        ops: list[PairedOp] = []
        with paused_gc():
            for partial, placed in zip(partials, placements):
                local = decode_ops(claim_segment(partial.segment))
                done = 0
                for before, op in placed:
                    ops.extend(islice(local, before - done))
                    ops.append(op)
                    done = before
                ops.extend(local)
    finally:
        if token is not None:
            sweep_segments(token, len(specs))
    if spans is not None:
        for partial in partials:
            for args in partial.spans:
                spans.pairer_span(*args)
    return ops, stats, partials


def parallel_pair(
    path: str | Path,
    *,
    jobs: int = 1,
    chunk_records: int | None = None,
    metrics: MetricsRegistry | None = None,
    spans=None,
) -> tuple[list[PairedOp], PairingStats]:
    """Pair a whole trace, fanning chunks over a process pool.

    Returns ``(ops, stats)`` exactly as
    :func:`repro.analysis.pairing.pair_all` over the trace does, for
    every ``jobs`` and ``chunk_records`` value.  ``jobs=1`` and
    single-chunk traces run that serial pass directly;
    ``chunk_records=None`` auto-tunes the chunk plan of a fan-out.

    With a *buffered* :class:`~repro.obs.spans.SpanRecorder` pairing
    also emits pairer verdict spans for sampled operations; the
    recorder's canonical close order makes the exported span stream
    byte-identical to the serial and streaming pairers'.
    """
    started = _time.perf_counter()
    path = str(path)
    workdir = tempfile.mkdtemp(prefix="repro-pair-") if jobs > 1 else None
    specs: list[ChunkSpec] = []
    partials: list[PairedChunk] = []
    try:
        if workdir is not None:
            if path.endswith(".gz"):
                path = _spool_gz(path, workdir)
            specs = _plan(path, chunk_records, table_dir=workdir)
        if len(specs) > 1:
            ops, stats, partials = _pair_fanned(
                specs, jobs=jobs, workdir=workdir, spans=spans
            )
        else:
            stats = PairingStats()
            with TraceReader(path) as reader, paused_gc():
                ops = list(pair_records(reader, stats=stats, spans=spans))
    finally:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)

    if metrics is not None:
        wall = _time.perf_counter() - started
        chunk_seconds = [p.wall_seconds for p in partials] or [wall]
        pool_size = min(jobs, len(chunk_seconds))
        metrics.gauge("analysis.pool.jobs").set(pool_size)
        metrics.gauge("analysis.pool.chunks").set(len(chunk_seconds))
        metrics.gauge("analysis.pool.utilization").set(
            sum(chunk_seconds) / (pool_size * wall) if wall > 0 else 0.0
        )
        chunk_hist = metrics.histogram("analysis.pool.chunk_seconds")
        for seconds in chunk_seconds:
            chunk_hist.observe(seconds)
        metrics.counter("analysis.pool.records").inc(stats.calls + stats.replies)
        metrics.counter("analysis.pool.ops").inc(len(ops))
    return ops, stats
