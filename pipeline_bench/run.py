"""Pipeline benchmark: simulate or ingest a trace, then analyze it three ways.

Usage (from the root of a checkout)::

    python3 pipeline_bench/run.py --workload campus-day --seed 0 \
        --seconds 60 --trace 0

One closed-loop client -- this process -- runs the workload's stages one
after another, each a user-facing ``repro`` command in a fresh
interpreter (:mod:`stage`), so each stage's peak RSS is its own and at
most two processes run at once (``analyze --jobs 2``):

1. capture: ``repro simulate`` (campus-day) or ``repro ingest
   --format auto`` of a seeded nfsdump archive (ingest-nfsdump);
2. ``repro analyze``, serial;
3. ``repro analyze --jobs 2``;
4. ``repro analyze --stream``.

The four stages form a round.  Rounds repeat while one more still fits
in ``--seconds`` (the first always runs); each round captures the same
seeded input again, which must rewrite the same bytes, and every
end-to-end metric is the median over the rounds.  ``setup_s`` sums,
over the four stage kinds, the median of three set-up times; kinds that
ran fewer than three times are started again and stopped where timed
work would begin.

``--trace 1`` runs the same rounds, then one traced round
(:mod:`layers` wraps each layer's entry points from outside the
program) and prints per-layer self times and counts instead of the
end-to-end metrics.  The last line of standard output is one JSON
object; every line before it names a metric, a check or the machine.
The workloads, metric names and units are those of ``BENCHMARK.json``.
See README.md for the workloads, the metrics and what each layer
metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

STARTED = time.monotonic()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STAGE = HERE / "stage.py"

#: A stage still running this long after the run started is killed and
#: counted as failed, so a run ends well within 180 s.
RUN_DEADLINE_S = 165.0
SETUP_SAMPLES = 3
#: scratch space for inputs, traces and stage results, inside the checkout
WORK_DIR = ".bench_work"
#: ``--window-ms`` of every analyze stage
WINDOW_MS = 10
#: share of a traced stage's timed work that its layer spans must cover
MIN_COVERED = 0.9

#: workload -> ``repro simulate`` arguments of its capture stage; None
#: captures by ``repro ingest`` of a seeded nfsdump archive instead.
#: BENCHMARK.json says why each was chosen.
WORKLOADS: dict[str, tuple[str, ...] | None] = {
    "campus-day": ("simulate", "--scenario", "campus", "--days", "1",
                   "--users", "16"),
    "ingest-nfsdump": None,
}

STAGES = ("capture", "analyze", "analyze_jobs2", "stream")


class BenchError(Exception):
    """The benchmark cannot run here (no program, bad manifest)."""


# -- stages -------------------------------------------------------------------


@dataclass
class StageRun:
    """One finished stage child."""

    stage: str
    rc: int
    #: spawn to exit, as this process saw it
    wall_s: float = 0.0
    setup_s: float | None = None
    work_s: float | None = None
    rss_mb: float | None = None
    rss_growth_kb: float | None = None
    counts: dict = field(default_factory=dict)
    trace: dict | None = None
    stdout: str = ""

    @property
    def ok(self) -> bool:
        return self.rc == 0 and self.work_s is not None


class Runner:
    """Spawns stage children in one work directory and keeps their results."""

    def __init__(self, work: Path, deadline: float) -> None:
        self.work = work
        self.tmp = work / "tmp"
        self.tmp.mkdir(exist_ok=True)
        self.deadline = deadline
        self.runs: list[StageRun] = []
        self.setups: dict[str, list[float]] = {stage: [] for stage in STAGES}
        self._serial = 0

    def stage(self, stage: str, command: list[str], mode: str = "run") -> StageRun:
        """Run ``repro <command>`` in a child; ``mode`` is run/trace/probe."""
        self._serial += 1
        stem = self.work / f"{self._serial:03d}-{stage}-{mode}"
        result_path = stem.with_suffix(".json")
        # the program's own temporary files (gz spooling) stay in the checkout
        env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(self.tmp))
        with open(stem.with_suffix(".out"), "w+", encoding="utf-8") as out, \
                open(stem.with_suffix(".err"), "w+", encoding="utf-8") as err:
            spawned = time.monotonic()
            child = subprocess.Popen(
                [sys.executable, str(STAGE), str(result_path), mode, "--",
                 *command],
                stdout=out, stderr=err, cwd=ROOT, env=env,
                start_new_session=True,
            )
            try:
                rc = child.wait(timeout=max(1.0, self.deadline - spawned))
            except subprocess.TimeoutExpired:
                os.killpg(child.pid, signal.SIGKILL)
                rc = child.wait()
                stderr_note = "killed at the run deadline"
            else:
                stderr_note = ""
            wall_s = time.monotonic() - spawned
            out.seek(0)
            stdout = out.read()
            err.seek(0)
            stderr = err.read() + stderr_note
        run = StageRun(stage, rc, wall_s, stdout=stdout)
        result = None
        if rc == 0 and result_path.exists():
            result = json.loads(result_path.read_text(encoding="utf-8"))
        if result is None or result["t_start"] is None:
            # a stage that never reached its timed work failed too
            run.rc = rc or 1
            print(f"stage {stage} ({mode}) failed with exit code {rc}: "
                  f"{stderr.strip()[-2000:]}", file=sys.stderr)
        else:
            run.setup_s = result["t_start"] - spawned
            if mode != "probe":
                run.work_s = result["t_end"] - result["t_start"]
                run.rss_mb = result["peak_rss_kb"] / 1024.0
                run.rss_growth_kb = result["peak_rss_kb"] - result["rss_start_kb"]
                run.counts = result["counts"]
                run.trace = result["trace"]
                print(f"stage {stage} ({mode}): set-up {run.setup_s:.3f} s, "
                      f"timed work {run.work_s:.3f} s, peak RSS {run.rss_mb:.1f} MB")
            if mode != "trace" and run.setup_s is not None:
                self.setups[stage].append(run.setup_s)
        self.runs.append(run)
        return run

    @property
    def failed(self) -> int:
        return sum(1 for run in self.runs if run.rc != 0)


def capture_command(simulate: tuple[str, ...] | None, seed: int, source: Path,
                    out: Path) -> list[str]:
    if simulate is None:
        return ["ingest", "--in", str(source), "--format", "auto",
                "--out", str(out)]
    return [*simulate, "--seed", str(seed), "--out", str(out)]


def analyze_commands(trace: Path) -> dict[str, list[str]]:
    base = ["analyze", "--in", str(trace), "--window-ms", str(WINDOW_MS)]
    return {
        "analyze": base,
        "analyze_jobs2": [*base, "--jobs", "2"],
        "stream": [*base, "--stream"],
    }


# -- checks -------------------------------------------------------------------


class Checks:
    """Named pass/fail output checks, printed as they are made."""

    def __init__(self) -> None:
        self.failed: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}"
              + (f": {detail}" if detail else ""))
        if not ok:
            self.failed.append(name)
        return ok


def readback(trace: Path) -> tuple[int, bool]:
    """Record count and time order of ``trace`` through ``TraceReader``."""
    from repro.trace import TraceReader

    count = 0
    ordered = True
    last = float("-inf")
    with TraceReader(trace) as reader:
        for record in reader:
            count += 1
            if record.time < last:
                ordered = False
            last = record.time
    return count, ordered


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def sections(stdout: str) -> list[str]:
    return stdout.strip("\n").split("\n\n")


def table_rows(section: str) -> dict[str, str]:
    """``label -> value`` for a rendered two-column table section."""
    rows: dict[str, str] = {}
    for line in section.splitlines()[4:]:
        if line.startswith("total runs:"):
            rows["total runs"] = line.split(":", 1)[1].strip()
            continue
        label, _, value = line.rstrip().rpartition("  ")
        rows[label.strip()] = value.strip()
    return rows


def differing_rows(batch: str, stream: str) -> list[tuple[str, str, str]]:
    """Rows of the runs section where ``--stream`` and batch disagree."""
    a = table_rows(sections(batch)[1])
    b = table_rows(sections(stream)[1])
    return [(label, a.get(label, "-"), b.get(label, "-"))
            for label in dict.fromkeys([*a, *b]) if a.get(label) != b.get(label)]


def captured_records(simulate: tuple[str, ...] | None,
                     run: StageRun) -> int | None:
    if simulate is None:
        return run.counts.get("records")
    match = re.search(r"^wrote (\d+) records", run.stdout, re.M)
    return int(match.group(1)) if match else None


# -- rounds -------------------------------------------------------------------


@dataclass
class Round:
    """One capture and the three analyze stages on its trace."""

    trace_path: Path
    records: int | None = None
    runs: dict[str, StageRun] = field(default_factory=dict)


def run_rounds(runner: Runner, simulate: tuple[str, ...] | None, seed: int,
               source: Path, prefix: str, mode: str,
               seconds: float) -> list[Round]:
    """Rounds of capture + analyze stages for about ``seconds``.

    The first round always runs; another starts only if one more round
    as long as the last one still ends within ``seconds``.
    """
    started = time.monotonic()
    rounds: list[Round] = []
    while True:
        round_started = time.monotonic()
        done = Round(runner.work / f"{prefix}-{len(rounds) + 1}.rtb.gz")
        rounds.append(done)
        capture = runner.stage(
            "capture", capture_command(simulate, seed, source, done.trace_path),
            mode)
        done.runs["capture"] = capture
        if not capture.ok:
            return rounds
        done.records = captured_records(simulate, capture)
        for stage, command in analyze_commands(done.trace_path).items():
            done.runs[stage] = runner.stage(stage, command, mode)
        now = time.monotonic()
        if now + (now - round_started) - started > seconds:
            return rounds


def report_text(run: StageRun, done: Round) -> str:
    """A stage's stdout with its input path masked (it differs by round)."""
    return run.stdout.replace(str(done.trace_path), "<trace>")


def check_rounds(checks: Checks, archive, rounds: list[Round],
                 label: str) -> list[tuple[str, str, str]]:
    """Output checks on every round; returns the known-defect rows."""
    every = [run for done in rounds for run in done.runs.values()]
    checks.check(f"{label}: every stage exits 0", all(run.ok for run in every),
                 ", ".join(f"{r.stage}={r.rc}" for r in every if not r.ok))
    first = rounds[0]
    if first.records is None or not all(run.ok for run in every):
        return []
    from repro.errors import ReproError

    try:
        count, ordered = readback(first.trace_path)
    except ReproError as exc:
        checks.check(f"{label}: trace reads back", False, str(exc))
        return []
    checks.check(f"{label}: trace reads back with the reported record count",
                 count == first.records, f"{count} read, {first.records} reported")
    checks.check(f"{label}: trace times are non-decreasing", ordered)
    digest = sha256(first.trace_path)
    serial = report_text(first.runs["analyze"], first)
    defect: list[tuple[str, str, str]] = []
    for number, done in enumerate(rounds, 1):
        where = f"{label} round {number}"
        if done is not first:
            checks.check(f"{where}: capture rewrites the same trace bytes",
                         sha256(done.trace_path) == digest)
            checks.check(f"{where}: analyze stdout equals round 1",
                         report_text(done.runs["analyze"], done) == serial)
        batch = done.runs["analyze"].stdout
        checks.check(f"{where}: analyze --jobs 2 stdout equals serial",
                     done.runs["analyze_jobs2"].stdout == batch)
        stream = done.runs["stream"].stdout
        checks.check(f"{where}: analyze --stream summary section equals serial",
                     sections(stream)[0] == sections(batch)[0])
        defect = differing_rows(batch, stream)
    if archive is not None:
        capture = first.runs["capture"].counts
        paired = first.runs["analyze"].counts.get("paired")
        checks.check(f"{label}: ingest sniffed the archive as nfsdump",
                     capture.get("adapter") == "nfsdump", str(capture.get("adapter")))
        checks.check(
            f"{label}: ingest skipped exactly the injected malformed lines",
            capture.get("skipped") == archive.malformed
            and capture.get("reasons") == {"short-line": archive.malformed},
            f"{capture.get('reasons')} for {archive.malformed} injected",
        )
        checks.check(
            f"{label}: ingest records equal lines minus malformed",
            capture.get("lines") == archive.lines
            and capture.get("records") == archive.lines - archive.malformed,
            f"{capture.get('records')} records of {capture.get('lines')} lines",
        )
        checks.check(f"{label}: analyze pairs every call line",
                     paired == archive.calls,
                     f"{paired} paired, {archive.calls} call lines")
    return defect


# -- metrics ------------------------------------------------------------------


def median_of(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def end_to_end(setups: dict[str, list[float]],
               rounds: list[Round]) -> dict[str, float]:
    """The end-to-end metrics: medians over the untraced rounds."""
    done = [r for r in rounds if r.records
            and all(run.ok for run in r.runs.values())]

    def over(value, stage: str = "analyze") -> float:
        return median_of(value(r) for r in done if stage in r.runs)

    def rate(stage: str, count) -> float:
        return over(lambda r: count(r) / r.runs[stage].work_s, stage)

    def growth(stage: str, count) -> float:
        return over(
            lambda r: r.runs[stage].rss_growth_kb * 1024.0 / count(r), stage)

    paired = lambda r: r.runs["analyze"].counts["paired"]  # noqa: E731
    return {
        "setup_s": sum(median_of(setups.get(stage, ())) for stage in STAGES),
        "capture_records_per_s": rate("capture", lambda r: r.records),
        "capture_rss_bytes_per_record": growth("capture", lambda r: r.records),
        "analyze_ops_per_s": rate("analyze", paired),
        "analyze_rss_bytes_per_op": growth("analyze", paired),
        "analyze_jobs2_ops_per_s": rate("analyze_jobs2", paired),
        "stream_records_per_s": rate("stream", lambda r: r.records),
        "stream_rss_growth_mb": over(
            lambda r: r.runs["stream"].rss_growth_kb / 1024.0, "stream"),
        "trace_bytes_per_record": over(
            lambda r: r.trace_path.stat().st_size / r.records, "capture"),
    }


def per_layer(plain: list[Round], traced: Round,
              defect_rows: int) -> dict[str, float]:
    """Per-layer metrics of the traced round; overheads against ``plain``."""
    def layer(stage: str, name: str) -> dict:
        run = traced.runs.get(stage)
        if run is None or run.trace is None:
            return {}
        return run.trace["layers"].get(name, {})

    def self_s(stage: str, name: str) -> float:
        return layer(stage, name).get("self_s", 0.0)

    def entries(stage: str, name: str) -> int:
        return layer(stage, name).get("entries", 0)

    def count(stage: str, key: str, default=0):
        run = traced.runs.get(stage)
        return run.counts.get(key, default) if run is not None else default

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def overhead(stage: str) -> float:
        run = traced.runs.get(stage)
        base = median_of(r.runs[stage].work_s for r in plain
                         if stage in r.runs and r.runs[stage].ok)
        return run.work_s / base - 1.0 if run is not None and base else 0.0

    absorbed = count("capture", "reads_absorbed")
    return {
        "simcore.self_s": self_s("capture", "simcore"),
        "simcore.events": count("capture", "events"),
        "workloads.self_s": self_s("capture", "workloads"),
        "workloads.actions": entries("capture", "workloads"),
        "client.self_s": self_s("capture", "client"),
        "client.calls": entries("capture", "client"),
        "client.reads_absorbed": absorbed,
        "client.read_hit_ratio": ratio(
            absorbed, absorbed + count("capture", "read_misses")),
        "client.block_evictions": count("capture", "block_evictions"),
        "client.readahead_useful_ratio": ratio(
            count("capture", "readahead_used"),
            count("capture", "readahead_issued")),
        "client.nfsiod.self_s": self_s("capture", "client.nfsiod"),
        "client.nfsiod.dispatched": count("capture", "nfsiod_dispatched"),
        "netsim.self_s": self_s("capture", "netsim"),
        "netsim.rpcs": entries("capture", "netsim"),
        "mirror.drops": count("capture", "mirror_drops"),
        "server.self_s": self_s("capture", "server"),
        "server.calls": entries("capture", "server"),
        "fs.self_s": self_s("capture", "fs"),
        "fs.calls": entries("capture", "fs"),
        "trace.collector.self_s": self_s("capture", "trace.collector"),
        "trace.records": count("capture", "trace_records"),
        "trace.encode.self_s": self_s("capture", "trace.encode"),
        "trace.encode_bytes": count("capture", "encode_bytes"),
        "ingest.sniff_s": self_s("capture", "ingest.sniff"),
        "ingest.adapter.self_s": self_s("capture", "ingest.adapter"),
        "ingest.normalize.self_s": self_s("capture", "ingest.normalize"),
        "ingest.lines": count("capture", "lines"),
        "ingest.records": count("capture", "records"),
        "ingest.skipped": count("capture", "skipped"),
        "trace.decode.self_s": self_s("analyze", "trace.decode"),
        "trace.decode_records": layer("analyze", "trace.decode").get("items", 0),
        "analysis.pairing.self_s": self_s("analyze", "analysis.pairing"),
        "analysis.pairing.paired": count("analyze", "paired"),
        "analysis.pairing.unpaired": count("analyze", "unpaired"),
        "analysis.reorder.self_s": self_s("analyze", "analysis.reorder"),
        "analysis.runs.self_s": self_s("analyze", "analysis.runs"),
        "analysis.runs.total": count("analyze", "runs_total"),
        "analysis.summary.self_s": self_s("analyze", "analysis.summary"),
        "analysis.characterize.self_s": self_s(
            "analyze", "analysis.characterize"),
        "analysis.parallel.self_s": self_s("analyze_jobs2", "analysis.parallel"),
        "analysis.parallel.wait_s": self_s(
            "analyze_jobs2", "analysis.parallel.wait"),
        "stream.decode.self_s": self_s("stream", "trace.decode"),
        "stream.pairer.self_s": self_s("stream", "stream.pairer"),
        "stream.analyses.self_s": self_s("stream", "stream.analyses"),
        "stream.engine.self_s": self_s("stream", "stream.engine"),
        "stream.peak_items": count("stream", "peak_items"),
        "stream.runs_rows_differing": defect_rows,
        "analysis.summary.total_ops": count("analyze", "total_ops"),
        "analysis.summary.rw_ops_ratio": count("analyze", "rw_ops_ratio", 0.0),
        "analysis.summary.metadata_fraction": count(
            "analyze", "metadata_fraction", 0.0),
        "capture.trace_overhead": overhead("capture"),
        "analyze.trace_overhead": overhead("analyze"),
        "analyze_jobs2.trace_overhead": overhead("analyze_jobs2"),
        "stream.trace_overhead": overhead("stream"),
    }


def adds_up(report: dict) -> tuple[bool, str]:
    """Whether a tracer report's self times plus outside time equal its wall."""
    total = sum(layer["self_s"] for layer in report["layers"].values())
    gap = abs(total + report["outside_s"] - report["wall_s"])
    ok = report["open_spans"] == 0 and gap <= 1e-6 * (1 + report["wall_s"])
    return ok, (f"self {total:.6f} s + outside {report['outside_s']:.6f} s "
                f"vs wall {report['wall_s']:.6f} s")


def spans_cover(run: StageRun) -> tuple[bool, str]:
    """Whether a traced stage's wall agrees with the times measured apart.

    The stage's timed work (its own hooks' clock) must fit in the
    tracer's wall, the tracer's wall in the child's life as this
    process timed it, and the layer spans must cover at least
    :data:`MIN_COVERED` of the timed work.
    """
    report = run.trace
    covered = report["wall_s"] - report["outside_s"]
    ok = (run.work_s <= report["wall_s"] <= run.wall_s
          and covered >= MIN_COVERED * run.work_s)
    return ok, (f"timed work {run.work_s:.3f} s <= traced wall "
                f"{report['wall_s']:.3f} s <= child wall {run.wall_s:.3f} s; "
                f"spans cover {covered:.3f} s")


def check_accounting(checks: Checks, traced: Round) -> None:
    """Self times add up, and the traced wall matches independent clocks."""
    for stage, run in traced.runs.items():
        if run.trace is not None:
            checks.check(
                f"traced {stage}: layer self times add up to the traced wall",
                *adds_up(run.trace))
            checks.check(
                f"traced {stage}: layer spans cover the stage's timed work",
                *spans_cover(run))


# -- machine and manifest -----------------------------------------------------


def git_sha() -> str:
    """HEAD of the checkout from ``.git`` files, without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def source_digest() -> str:
    """sha256 over the program's sources, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def fingerprint() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cores": os.cpu_count(),
        "cpu_model": model,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
    }


def load_manifest() -> dict:
    """``BENCHMARK.json``, the one list of workloads, metrics and units."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path.name} not found next to {HERE.name}/")
    manifest = json.loads(path.read_text(encoding="utf-8"))
    listed = [w["name"] for w in manifest["workloads"]]
    if listed != list(WORKLOADS):
        raise BenchError(f"BENCHMARK.json workloads {listed} != {list(WORKLOADS)}")
    return manifest


def units_for(manifest: dict, section: str, metrics: dict) -> dict[str, str]:
    """Units of ``metrics``, which must be exactly the manifest's ``section``."""
    units = {m["name"]: m["unit"] for m in manifest[section]}
    if list(units) != list(metrics):
        raise BenchError(f"BENCHMARK.json {section} {list(units)} != "
                         f"computed {list(metrics)}")
    return units


# -- main ---------------------------------------------------------------------


def probe_setups(runner: Runner, commands: dict[str, list[str]]) -> None:
    """Start each stage kind up to its timed work, ``SETUP_SAMPLES`` in all."""
    for stage, command in commands.items():
        while len(runner.setups[stage]) < SETUP_SAMPLES:
            run = runner.stage(stage, command, "probe")
            if run.rc != 0 or run.setup_s is None:
                break


def run_workload(manifest: dict, name: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    work = ROOT / WORK_DIR / f"{name}-{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        return _run_workload(manifest, name, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_workload(manifest: dict, name: str, seed: int, seconds: float,
                  trace: bool, work: Path) -> dict:
    simulate = WORKLOADS[name]
    checks = Checks()
    runner = Runner(work, STARTED + RUN_DEADLINE_S)
    archive = None
    source = work / "archive.nfsdump"
    if simulate is None:
        import nfsdump_gen

        archive = nfsdump_gen.generate(source, seed)
        print(f"input: {archive.lines} nfsdump lines, {archive.calls} calls, "
              f"{archive.malformed} malformed, "
              f"{source.stat().st_size / 1e6:.1f} MB")
    # equal-length names: the reports underline a title holding the path
    plain = run_rounds(runner, simulate, seed, source, "plain", "run", seconds)
    print(f"rounds: {len(plain)}")
    defect = check_rounds(checks, archive, plain, "untraced")
    probe_setups(runner, {
        "capture": capture_command(simulate, seed, source, work / "probe.rtb.gz"),
        **analyze_commands(plain[0].trace_path),
    })
    print(f"known defect: analyze --stream runs section differs from batch in "
          f"{len(defect)} row(s) (reported, not gated)")
    for label, batch, stream in defect:
        print(f"  {label}: batch {batch} vs stream {stream}")
    if not trace:
        metrics = end_to_end(runner.setups, plain)
        units = units_for(manifest, "end_to_end", metrics)
    else:
        traced = run_rounds(runner, simulate, seed, source, "trace", "trace",
                            0.0)[0]
        check_rounds(checks, archive, [traced], "traced")
        if plain[0].records is not None and traced.records is not None:
            checks.check(
                "traced and untraced captures write byte-identical traces",
                sha256(plain[0].trace_path) == sha256(traced.trace_path))
        for stage in ("analyze", "analyze_jobs2", "stream"):
            a, b = plain[0].runs.get(stage), traced.runs.get(stage)
            if a is not None and b is not None:
                checks.check(f"traced {stage} stdout equals untraced",
                             report_text(a, plain[0]) == report_text(b, traced))
        check_accounting(checks, traced)
        metrics = per_layer(plain, traced, len(defect))
        units = units_for(manifest, "per_layer", metrics)
    for metric, value in metrics.items():
        print(f"metric {name} {metric} = {value:.6g} {units[metric]}")
    return {
        "correct": not checks.failed,
        "attempted": len(runner.runs),
        "failed": runner.failed,
        "metrics": {metric: {"value": value, "unit": units[metric]}
                    for metric, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (SRC / "repro" / "cli" / "main.py").is_file():
            raise BenchError(f"program sources not found under {SRC}")
        manifest = load_manifest()
        sys.path.insert(0, str(SRC))
        sys.path.insert(0, str(HERE))
        print("fingerprint: " + json.dumps(fingerprint(), sort_keys=True))
        result = run_workload(manifest, args.workload, args.seed,
                              args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"pipeline_bench: error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
