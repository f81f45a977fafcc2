"""Self-test of the benchmark's own code.

Usage (from the root of a checkout)::

    python3 pipeline_bench/selftest.py [--seed N]

Checks, printing one line each and exiting 1 if any fails:

* every line of the seeded nfsdump archive parses with
  ``repro.trace.nfsdump.parse_nfsdump_line``, except exactly the
  injected malformed lines;
* ``--format auto`` sniffs the archive as ``nfsdump``;
* the tracer's per-layer self times add up to the traced wall time
  minus the time outside any wrapped layer, on nested calls and
  generators built here and on a short traced ``repro simulate``, whose
  spans also cover its timed work within the child's own wall time;
* the workloads of ``run.py`` and the metrics its two passes compute
  are those ``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (the benchmark module, next to this file)

sys.path.insert(0, str(run.SRC))


def check_archive(checks: run.Checks, work: Path, seed: int) -> None:
    import nfsdump_gen
    from repro.ingest import REGISTRY
    from repro.ingest.core import resolve_adapter
    from repro.trace.nfsdump import parse_nfsdump_line

    path = work / "archive.nfsdump"
    archive = nfsdump_gen.generate(path, seed)
    unparsed = []
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            try:
                record = parse_nfsdump_line(line.strip())
            except (ValueError, IndexError):
                record = None
            if record is None:
                unparsed.append(number)
    checks.check(
        "every archive line parses except exactly the injected ones",
        unparsed == archive.malformed_at,
        f"{len(unparsed)} unparsed of {archive.lines}, "
        f"{archive.malformed} injected",
    )
    adapter = resolve_adapter(REGISTRY, path, "auto")
    checks.check("--format auto sniffs the archive as nfsdump",
                 adapter.name == "nfsdump", adapter.name)


def check_tracer(checks: run.Checks) -> None:
    import layers

    tracer = layers.Tracer()
    busy = lambda n: sum(i * i for i in range(n))  # noqa: E731
    inner = tracer.span("fs", lambda: busy(20000))

    def outer_body():
        busy(20000)
        inner()
        inner()

    outer = tracer.span("client", outer_body)
    again = tracer.span("client", outer)  # a layer calling itself
    items = tracer.gen_span("trace.decode", lambda n: (busy(2000) for _ in range(n)))
    again()
    busy(20000)  # outside any layer
    yielded = list(items(5))
    report = tracer.report()
    checks.check("a wrapped generator yields what the generator yields",
                 yielded == [busy(2000)] * 5)
    checks.check("self times add up on nested calls and generators",
                 *run.adds_up(report))
    client, fs, decode = (report["layers"][name]
                          for name in ("client", "fs", "trace.decode"))
    checks.check(
        "entries count calls from other layers, items count yields",
        (client["entries"], fs["entries"], decode["entries"], decode["items"])
        == (1, 2, 1, 5),
        f"client {client['entries']}, fs {fs['entries']}, "
        f"decode {decode['entries']} entries / {decode['items']} items",
    )
    checks.check("time outside every layer is positive",
                 report["outside_s"] > 0, f"{report['outside_s']:.6f} s")


def check_traced_stage(checks: run.Checks, work: Path) -> None:
    runner = run.Runner(work, run.STARTED + run.RUN_DEADLINE_S)
    stage = runner.stage("capture", [
        "simulate", "--scenario", "campus", "--days", "0.1", "--users", "4",
        "--seed", "7", "--out", str(work / "tiny.rtb.gz"),
    ], "trace")
    if not checks.check("traced simulate exits 0", stage.ok):
        return
    checks.check("self times add up on a traced simulate",
                 *run.adds_up(stage.trace))
    checks.check("spans cover a traced simulate's timed work",
                 *run.spans_cover(stage))


def check_manifest(checks: run.Checks) -> None:
    try:
        manifest = run.load_manifest()
        run.units_for(manifest, "end_to_end", run.end_to_end({}, []))
        run.units_for(manifest, "per_layer",
                      run.per_layer([], run.Round(Path()), 0))
    except run.BenchError as exc:
        checks.check("BENCHMARK.json lists run.py's workloads and metrics",
                     False, str(exc))
    else:
        checks.check("BENCHMARK.json lists run.py's workloads and metrics",
                     True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    checks = run.Checks()
    check_manifest(checks)
    (run.ROOT / run.WORK_DIR).mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.ROOT / run.WORK_DIR))
    try:
        check_archive(checks, work, args.seed)
        check_tracer(checks)
        check_traced_stage(checks, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"passed": not checks.failed, "failed": checks.failed}))
    return 1 if checks.failed else 0


if __name__ == "__main__":
    sys.exit(main())
