"""Streaming trace reader.

Reads trace files back into :class:`TraceRecord` objects.  The format
follows the filename: ``.rtb``/``.rtb.gz`` is the binary container of
:mod:`repro.trace.binfmt`, anything else the text format (gzip text
detected by ``.gz``).  The reader is an iterator, so analyses can
stream arbitrarily large traces without loading them.
"""

from __future__ import annotations

import gzip
import io
from pathlib import Path
from typing import IO, Iterator

from repro.errors import TraceFormatError
from repro.obs.gcpause import paused_gc
from repro.obs.metrics import MetricsRegistry
from repro.trace.binfmt import (
    _CONTAINER_ERRORS,
    BinaryTraceDecoder,
    is_binary_trace_path,
    open_binary_for_read,
)
from repro.trace.record import TraceRecord, record_from_line


def _open_for_read(path: str | Path) -> IO[str]:
    path = Path(path)
    if path.suffix == ".gz":
        return io.TextIOWrapper(gzip.open(path, "rb"), encoding="utf-8")
    return open(path, "r", encoding="utf-8")


class TraceReader:
    """Iterates the records of one trace file.

    Use as a context manager or rely on iterator exhaustion to close::

        with TraceReader("out.trace.gz") as reader:
            for record in reader:
                ...

    Re-iteration is explicit: each ``iter()`` starts a fresh pass from
    the top of the file (``bad_lines`` resets with it).  Starting a
    second pass while one is still in progress raises ``RuntimeError``
    — the passes would otherwise silently share one file position.

    Text traces: blank lines and ``#`` comment lines are skipped.
    Malformed lines raise :class:`~repro.errors.TraceFormatError`
    unless the reader was created with ``strict=False``, in which case
    they are counted in ``bad_lines`` and skipped — useful for damaged
    captures.  Binary traces are always strict: frame lengths are
    load-bearing, so there is nothing to resync to after corruption.

    Pass a :class:`~repro.obs.metrics.MetricsRegistry` to surface codec
    throughput: ``trace.decode_records`` and ``trace.decode_bytes``
    (labelled by format) are published when a pass completes.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        strict: bool = True,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.path = Path(path)
        self.strict = strict
        self.binary = is_binary_trace_path(path)
        self.metrics = metrics
        self.bad_lines = 0
        self._file: IO | None = None

    def __enter__(self) -> "TraceReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Close the underlying file."""
        if self._file is not None:
            self._file.close()
            self._file = None

    def _publish(self, records: int, nbytes: int) -> None:
        if self.metrics is not None:
            fmt = "binary" if self.binary else "text"
            self.metrics.counter("trace.decode_records", format=fmt).inc(records)
            self.metrics.counter("trace.decode_bytes", format=fmt).inc(nbytes)

    def __iter__(self) -> Iterator[TraceRecord]:
        if self._file is not None:
            raise RuntimeError(
                f"{self.path}: a pass is already in progress; exhaust or "
                "close it before starting another"
            )
        self.bad_lines = 0
        if self.binary:
            self._file = open_binary_for_read(self.path)
            try:
                decoder = BinaryTraceDecoder(self._file)
                yield from decoder
                self._publish(decoder.records_read, decoder.bytes_read)
            finally:
                self.close()
            return
        self._file = _open_for_read(self.path)
        records = 0
        nbytes = 0
        try:
            for line in self._file:
                nbytes += len(line)
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    yield record_from_line(line)
                    records += 1
                except TraceFormatError:
                    if self.strict:
                        if self.path.suffix == ".gz":
                            # a damaged .gz yields garbage before it
                            # fails: name the damage, not the symptom
                            for _ in self._file:
                                pass
                        raise
                    self.bad_lines += 1
            self._publish(records, nbytes)
        except _CONTAINER_ERRORS as exc:
            # a corrupt .gz container fails mid-iteration; give callers
            # the same exception a corrupt trace body would
            raise TraceFormatError(
                f"corrupt compressed container: {exc}"
            ) from exc
        except UnicodeDecodeError as exc:
            raise TraceFormatError(f"not a text trace: {exc}") from exc
        finally:
            self.close()


def read_trace(path: str | Path, *, strict: bool = True) -> list[TraceRecord]:
    """Read an entire trace into memory; returns the record list.

    Cyclic GC is paused while the list materializes — a week of trace
    is hundreds of thousands of acyclic records, and generation-2
    rescans of the growing list roughly double the decode wall time.
    """
    with paused_gc():
        return list(TraceReader(path, strict=strict))
