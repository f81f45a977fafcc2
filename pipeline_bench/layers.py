"""Per-layer self time for one traced stage, recorded from outside the program.

The tracer wraps the public entry points of each ``repro.*`` layer (the
table :data:`LAYERS`) in spans.  A span notes its start, adds its
duration to the enclosing span's child time when it ends, and charges
its layer ``duration - child time``: the layer's *self* time.  Spans are
reduced to per-layer totals as they close, so memory stays flat however
many millions of calls a stage makes; :meth:`Tracer.report` hands the
totals over when the stage ends.

Nothing in the program changes: functions are replaced on their modules
(every ``repro.*`` module that imported the same function object by name
gets the wrapper too) and methods on their classes, before any object
that could cache a bound method exists.  Generators are wrapped so that
each ``next()`` is one span, which is where their work happens.
"""

from __future__ import annotations

import importlib
import sys
import time

#: (layer, "module:attribute path", kind).  ``call`` wraps a function or
#: method; ``gen`` wraps a generator function (one span per item);
#: ``schedule`` wraps every action handed to the event loop, so the
#: workload generators' callbacks are charged to their own layer.
LAYERS = (
    ("simcore", "repro.simcore.events:EventLoop.run_until", "call"),
    ("workloads", "repro.simcore.events:EventLoop.schedule", "schedule"),
    ("workloads", "repro.workloads.base:WorkloadGenerator.attach", "call"),
    ("scenarios", "repro.scenarios.compile:compile_workload", "call"),
    *(("client", f"repro.client.client:NfsClient.{name}", "call") for name in (
        "open", "create", "read", "write", "append", "close", "stat",
        "truncate", "unlink", "mkdir", "rename", "readdir",
    )),
    ("client.nfsiod", "repro.client.nfsiod:NfsiodPool.dispatch", "call"),
    ("netsim", "repro.netsim.link:NetworkPath.__call__", "call"),
    ("netsim", "repro.netsim.mirror:MirrorPort.on_call", "call"),
    ("netsim", "repro.netsim.mirror:MirrorPort.on_reply", "call"),
    ("server", "repro.server.nfs_server:NfsServer.process", "call"),
    *(("fs", f"repro.fs.filesystem:SimFileSystem.{name}", "call") for name in (
        "inode", "getattr", "usage", "lookup", "create", "mkdir", "symlink",
        "remove", "rmdir", "rename", "readdir", "read", "write", "truncate",
        "resolve", "makedirs",
    )),
    ("trace.collector", "repro.trace.collector:TraceCollector.on_call", "call"),
    ("trace.collector", "repro.trace.collector:TraceCollector.on_reply", "call"),
    ("trace.collector", "repro.trace.collector:TraceCollector.sorted_records",
     "call"),
    ("trace.encode", "repro.trace.writer:TraceWriter.write", "call"),
    ("trace.encode", "repro.trace.writer:TraceWriter.extend", "call"),
    ("trace.encode", "repro.trace.writer:TraceWriter.close", "call"),
    ("trace.decode", "repro.trace.binfmt:BinaryTraceDecoder.__iter__", "gen"),
    ("ingest.core", "repro.ingest.core:ingest", "call"),
    ("ingest.sniff", "repro.ingest.registry:AdapterRegistry.sniff", "call"),
    *(("ingest.adapter", f"repro.ingest.adapters.{module}.records", "gen")
      for module in (
          "nfsdump:NfsdumpAdapter", "snia_nfs:SniaNfsAdapter",
          "tracetracker:TraceTrackerBlkAdapter", "wta:WtaParquetLiteAdapter",
      )),
    ("ingest.normalize", "repro.ingest.core:normalize", "gen"),
    ("ingest.normalize", "repro.ingest.core:_intern_records", "gen"),
    ("analysis.parallel", "repro.analysis.parallel:parallel_pair", "call"),
    ("analysis.parallel.wait", "repro.analysis.parallel:_map_chunks", "call"),
    ("analysis.pairing", "repro.analysis.parallel:_pair_partial", "call"),
    ("analysis.pairing", "repro.analysis.pairing:pair_records", "gen"),
    ("analysis.reorder", "repro.analysis.reorder:reorder_window_sort", "call"),
    ("analysis.runs", "repro.analysis.runs:RunBuilder.feed_all", "call"),
    ("analysis.runs", "repro.analysis.runs:RunBuilder.finish", "call"),
    ("analysis.runs", "repro.analysis.runs:classify_runs", "call"),
    ("analysis.summary", "repro.analysis.summary:summarize_trace", "call"),
    ("analysis.characterize", "repro.analysis.characterize:characterize",
     "call"),
    ("stream.engine", "repro.stream.engine:StreamEngine.run", "call"),
    ("stream.pairer", "repro.analysis.pairing:StreamPairer.push", "call"),
    ("stream.pairer", "repro.analysis.pairing:StreamPairer.close", "call"),
    *(("stream.analyses", f"repro.stream.analyses:{cls}.{hook}", "call")
      for cls, hooks in (
          ("StreamSummary", ("process_op", "advance", "finish")),
          ("StreamRuns", ("process_op", "finish")),
          ("StreamTopFiles", ("process_op",)),
          ("StreamLatency", ("process_op",)),
      ) for hook in hooks),
)

#: Every layer name the table charges time to, in table order.
LAYER_NAMES = tuple(dict.fromkeys(layer for layer, _, _ in LAYERS))

_ROOT = "<outside>"


class Tracer:
    """Span bookkeeping: a stack of open spans and per-layer totals.

    ``totals[layer]`` is ``[self_seconds, entries, items]``: entries
    counts calls into the layer from any other layer (a layer calling
    itself is one entry), items counts what a wrapped generator
    yielded.
    """

    def __init__(self) -> None:
        self.totals = {layer: [0.0, 0, 0] for layer in LAYER_NAMES}
        self.stack = [[_ROOT, 0.0]]
        self.started = time.perf_counter()

    def span(self, layer: str, fn):
        """``fn`` wrapped so every call is one span of ``layer``."""
        stack = self.stack
        acc = self.totals[layer]
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if parent[0] != layer:
                acc[1] += 1
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                acc[0] += elapsed - frame[1]
                parent[1] += elapsed

        return wrapper

    def gen_span(self, layer: str, fn):
        """Generator function ``fn`` wrapped: each ``next()`` is a span."""
        stack = self.stack
        acc = self.totals[layer]
        clock = time.perf_counter

        def timed(inner):
            step = inner.__next__
            try:
                while True:
                    parent = stack[-1]
                    frame = [layer, 0.0]
                    stack.append(frame)
                    start = clock()
                    try:
                        item = step()
                    except StopIteration:
                        return
                    finally:
                        elapsed = clock() - start
                        stack.pop()
                        acc[0] += elapsed - frame[1]
                        parent[1] += elapsed
                    acc[2] += 1
                    yield item
            finally:
                inner.close()

        def wrapper(*args, **kwargs):
            if stack[-1][0] != layer:
                acc[1] += 1
            return timed(fn(*args, **kwargs))

        return wrapper

    def scheduling(self, layer: str, schedule):
        """``schedule(loop, when, action)`` that wraps each action."""
        span = self.span

        def wrapper(loop, when, action):
            return schedule(loop, when, span(layer, action))

        return wrapper

    def report(self) -> dict:
        """Per-layer totals plus the accounting identity's three terms.

        ``wall`` runs from tracer start to now; ``outside`` is the part
        of it no wrapped span covered.  The sum of all self times plus
        ``outside`` equals ``wall`` when every span closed.
        """
        wall = time.perf_counter() - self.started
        covered = self.stack[0][1]
        return {
            "layers": {
                layer: {"self_s": acc[0], "entries": acc[1], "items": acc[2]}
                for layer, acc in self.totals.items()
            },
            "wall_s": wall,
            "outside_s": wall - covered,
            "open_spans": len(self.stack) - 1,
        }


def _resolve(target: str):
    """``(owner, attribute name, current value)`` for ``module:path``."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, name, owner.__dict__[name]


def install(tracer: Tracer) -> None:
    """Wrap every entry in :data:`LAYERS`.

    Must run after the program's modules are imported (so re-exported
    names can be found) and before any simulated world, reader or
    engine is built.
    """
    replaced: dict[int, object] = {}
    for layer, target, kind in LAYERS:
        owner, name, original = _resolve(target)
        if kind == "call":
            wrapped = tracer.span(layer, original)
        elif kind == "gen":
            wrapped = tracer.gen_span(layer, original)
        else:
            wrapped = tracer.scheduling(layer, original)
        setattr(owner, name, wrapped)
        if not isinstance(owner, type):
            replaced[id(original)] = (original, wrapped)
    # module-level functions are also bound by name in every module
    # that imported them (``from repro.analysis.summary import ...``)
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for name, value in list(vars(module).items()):
            entry = replaced.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, name, entry[1])
