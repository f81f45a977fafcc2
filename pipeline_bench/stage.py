"""One benchmark stage: a single ``repro`` command in a fresh interpreter.

Usage::

    python3 stage.py RESULT.json run|trace|probe -- <repro arguments...>

Runs ``repro <arguments>`` through the CLI's own ``main`` and writes
RESULT.json with the monotonic time at which timed work started and
ended, the RSS at the start and the peak, counts read off the program's
results, and (``trace``) the per-layer span totals of :mod:`layers`.  A
``probe`` exits at the start of timed work, so the caller can sample
set-up time alone.

Timed work starts where the command stops setting up:

* ``simulate``: entry to ``TracedSystem.run`` (after imports, scenario
  compile, world build and workload attach);
* ``ingest``: return of the adapter sniff;
* ``analyze``: entry to the pairing fan-out ``parallel_pair``;
* ``analyze --stream``: entry to ``StreamEngine.run``.

The hooks that note these times wrap one call each, so the untraced
stage runs the program as a user would.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time

#: ``run`` a stage, ``trace`` it with :mod:`layers`, or ``probe`` it:
#: exit as soon as timed work would start, to sample set-up time.
MODES = ("run", "trace", "probe")


def _after(owner, name, hook):
    """Replace ``owner.name`` by a call that runs ``hook(args, result)``."""
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        hook(args, result)
        return result

    setattr(owner, name, wrapper)


def _before(owner, name, hook):
    """Replace ``owner.name`` by a call that runs ``hook(args)`` first."""
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        hook(args)
        return original(*args, **kwargs)

    setattr(owner, name, wrapper)


def status_kb(field: str) -> int:
    """A KiB field of ``/proc/self/status`` (``VmRSS``, ``VmHWM``).

    ``VmHWM`` is the peak of this program image alone; ``ru_maxrss``
    would also carry the high-water mark of the process that spawned
    it, which Linux keeps across ``exec``.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(field)


def install_hooks(kind: str, found: dict, on_start) -> None:
    """Stamp the start of timed work and keep the objects counts come from."""
    from repro.trace.writer import TraceWriter

    cli = importlib.import_module("repro.cli.main")

    def start(*_):
        if "t_start" not in found:
            found["t_start"] = time.monotonic()
            found["rss_start_kb"] = status_kb("VmRSS")
            on_start()

    def keep(key: str, pick=lambda result: result):
        return lambda _args, result: found.setdefault(key, pick(result))

    def keep_self(key: str):
        return lambda args: found.setdefault(key, args[0])

    def encoded(args, _result):
        found["encode_bytes"] = found.get("encode_bytes", 0) + args[0].bytes_written

    _after(TraceWriter, "close", encoded)
    if kind == "simulate":
        from repro.workloads.harness import TracedSystem

        _before(TracedSystem, "run", start)
        _before(TracedSystem, "run", keep_self("system"))
    elif kind == "ingest":
        import repro.ingest
        from repro.ingest.registry import AdapterRegistry

        _after(AdapterRegistry, "sniff", start)
        _after(repro.ingest, "ingest", keep("ingest"))
    elif kind == "analyze":
        import repro.analysis.parallel as parallel

        _before(parallel, "parallel_pair", start)
        _after(parallel, "parallel_pair", keep("pairing", lambda r: r[1]))
        _after(cli, "summarize_trace", keep("summary"))
        _after(cli, "classify_runs", keep("runs"))
    else:
        from repro.stream.engine import StreamEngine

        _before(StreamEngine, "run", start)
        _before(StreamEngine, "run", keep_self("engine"))


def counts(found: dict) -> dict:
    """Plain numbers from the objects the hooks kept."""
    out: dict = {}
    if "encode_bytes" in found:
        out["encode_bytes"] = found["encode_bytes"]
    system = found.get("system")
    if system is not None:
        metrics = system.metrics
        out.update(
            events=system.loop.events_run,
            reads_absorbed=metrics.total("client.reads_absorbed"),
            read_misses=metrics.total("client.read_misses"),
            block_evictions=metrics.total("client.block_evictions"),
            readahead_issued=metrics.total("client.readahead_issued"),
            readahead_used=metrics.total("client.readahead_used"),
            nfsiod_dispatched=metrics.total("client.nfsiod_dispatched"),
            mirror_drops=metrics.total("mirror.drops"),
            trace_records=metrics.total("trace.records"),
        )
    stats = found.get("ingest")
    if stats is not None:
        out.update(
            adapter=stats.adapter, lines=stats.lines, records=stats.records,
            skipped=stats.skipped, reasons=dict(stats.reasons),
        )
    pairing = found.get("pairing")
    engine = found.get("engine")
    if engine is not None:
        pairing = engine.stats
        out.update(peak_items=engine.peak_items, records=engine.records)
    if pairing is not None:
        out.update(
            paired=pairing.paired,
            unpaired=pairing.orphan_replies + pairing.unanswered_calls,
        )
    summary = found.get("summary")
    if summary is not None:
        out.update(
            total_ops=summary.total_ops,
            rw_ops_ratio=summary.rw_op_ratio,
            metadata_fraction=summary.metadata_fraction,
        )
    runs = found.get("runs")
    if runs is not None:
        out["runs_total"] = runs.total_runs
    return out


def _write(path: str, result: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


def main(argv: list[str]) -> int:
    if len(argv) < 4 or argv[1] not in MODES or argv[2] != "--":
        raise SystemExit(__doc__)
    result_path, mode, command = argv[0], argv[1], argv[3:]
    kind = command[0]
    if kind == "analyze" and "--stream" in command:
        kind = "stream"

    # ``repro.cli`` re-exports ``main``, which shadows the submodule
    cli = importlib.import_module("repro.cli.main")
    tracer = None
    if mode == "trace":
        import layers

        tracer = layers.Tracer()
        layers.install(tracer)
    found: dict = {}

    def on_start() -> None:
        if mode == "probe":
            # nothing is open yet at any stage's start of timed work
            _write(result_path, {"t_start": found["t_start"]})
            os._exit(0)

    install_hooks(kind, found, on_start)
    rc = cli.main(command)
    sys.stdout.flush()
    ended = time.monotonic()
    _write(result_path, {
        "t_start": found.get("t_start"),
        "t_end": ended,
        "rss_start_kb": found.get("rss_start_kb"),
        "peak_rss_kb": status_kb("VmHWM"),
        "counts": counts(found),
        "trace": tracer.report() if tracer is not None else None,
    })
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
