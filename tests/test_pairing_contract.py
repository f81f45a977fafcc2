"""The pairing contract, held by every caller of the one pairing kernel.

``pair_all``, ``StreamPairer``, ``parallel_pair`` (serial and fanned
out over chunks) and the CLI commands built on them must agree exactly:
the same ops, in reply order, and the same ``PairingStats``.
"""

import contextlib
import io
import random

import pytest

from repro.analysis.pairing import (
    DEFAULT_REPLY_TIMEOUT,
    PairingStats,
    StreamPairer,
    pair_all,
)
from repro.analysis.parallel import parallel_pair
from repro.cli import main
from repro.nfs import NfsProc, NfsStatus
from repro.trace import read_trace, write_trace
from repro.trace.record import Direction, TraceRecord
from tests.test_chaos_matrix import CELLS, _cached


def _call(t, xid, client="10.0.0.1"):
    return TraceRecord(
        time=round(t, 6), direction=Direction.CALL, xid=xid, client=client,
        server="10.0.0.100", proc=NfsProc.READ, version=3, uid=100,
        fh="0a", offset=0, count=8192,
    )


def _reply(t, xid, client="10.0.0.1", status=NfsStatus.OK):
    return TraceRecord(
        time=round(t, 6), direction=Direction.REPLY, xid=xid, client=client,
        server="10.0.0.100", proc=NfsProc.READ, version=3, status=status,
        count=8192, eof=False,
    )


def _every_path(path, chunk_records):
    """(name, (ops, stats)) for each way the kernel can be driven."""
    records = read_trace(path)
    pairer = StreamPairer()
    pushed = [op for r in records if (op := pairer.push(r)) is not None]
    return [
        ("pair_all", pair_all(records)),
        ("StreamPairer", (pushed, pairer.close())),
        ("parallel_pair(jobs=1)", parallel_pair(path, jobs=1)),
        ("parallel_pair(jobs=2)",
         parallel_pair(path, jobs=2, chunk_records=chunk_records)),
    ]


def _assert_all_agree(path, chunk_records):
    results = _every_path(path, chunk_records)
    _, reference = results[0]
    for name, result in results[1:]:
        assert result[1] == reference[1], f"{name} stats diverged"
        assert result[0] == reference[0], f"{name} ops diverged"
    return reference


class TestLateReply:
    """A reply 9 s after its call is late under the 8 s timeout,
    however many other calls arrive in between."""

    @pytest.mark.parametrize("between", [100, 4095])
    def test_late_reply_is_loss_for_every_path(self, tmp_path, between):
        assert 9.0 > DEFAULT_REPLY_TIMEOUT
        records = [_call(0.0, 1)]
        step = 8.5 / between
        for i in range(between):
            t = 0.25 + i * step
            records.append(_call(t, 1000 + i, client="10.0.0.2"))
            records.append(_reply(t + step / 2, 1000 + i, client="10.0.0.2"))
        records.append(_reply(9.0, 1))
        path = tmp_path / f"late{between}.trace"
        write_trace(path, records)
        ops, stats = _assert_all_agree(path, chunk_records=64)
        assert stats == PairingStats(
            calls=between + 1, replies=between + 1, paired=between,
            orphan_replies=1, unanswered_calls=1,
        )
        assert all(op.xid != 1 for op in ops)

    def test_reply_at_the_timeout_pairs(self, tmp_path):
        path = tmp_path / "edge.trace"
        write_trace(path, [_call(0.0, 1), _reply(DEFAULT_REPLY_TIMEOUT, 1)])
        ops, stats = _assert_all_agree(path, chunk_records=1)
        assert stats.paired == 1 and len(ops) == 1


def _random_stream(rng, n):
    """Heavy (client, xid) reuse: retransmissions, duplicate replies,
    late replies and orphans, with shared timestamps."""
    records = []
    t = 0.0
    for _ in range(n):
        t += rng.choice([0.0, 0.1, 0.5, 1.0, 3.0])
        client = f"10.0.0.{rng.randrange(3)}"
        xid = rng.randrange(12)
        if rng.random() < 0.5:
            records.append(_call(t, xid, client))
        else:
            records.append(_reply(
                t, xid, client, rng.choice([NfsStatus.OK, NfsStatus.NOENT])
            ))
    return records


class TestChunkBoundaries:
    """Every chunk size settles boundary-straddling cases exactly as
    the serial pass: a call retransmitted across a boundary, duplicate
    replies of a pair completed in an earlier chunk, late replies."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_streams(self, tmp_path, seed):
        rng = random.Random(seed)
        path = tmp_path / "random.rtb"
        write_trace(path, _random_stream(rng, 300))
        reference = pair_all(read_trace(path))
        for chunk_records in (3, 7, 16, 50):
            assert parallel_pair(
                path, jobs=2, chunk_records=chunk_records
            ) == reference, f"chunk_records={chunk_records} diverged"

    def test_retransmission_across_a_boundary(self, tmp_path):
        # the first call is never answered; its retransmission lands in
        # the next chunk and pairs there, so a duplicate of that reply
        # two chunks later must not pair the first call
        records = [_call(0.0, 7)]
        records += [_call(0.1 + i * 0.01, 100 + i) for i in range(5)]
        records += [_call(1.0, 7), _reply(1.1, 7)]
        records += [_call(1.2 + i * 0.01, 200 + i) for i in range(5)]
        records += [_reply(2.0, 7)]
        path = tmp_path / "retransmit.trace"
        write_trace(path, records)
        for chunk_records in (2, 3, 5, 6):
            _, stats = _assert_all_agree(path, chunk_records)
        assert stats.paired == 1
        assert stats.duplicate_replies == 1
        assert stats.orphan_replies == 0


@pytest.fixture(scope="module")
def campus_path(tmp_path_factory):
    from repro.workloads import CampusEmailWorkload, CampusParams, TracedSystem

    system = TracedSystem(seed=3, quota_bytes=50 * 1024 * 1024)
    CampusEmailWorkload(CampusParams(users=3)).attach(system)
    system.run(0.4 * 86400.0)
    path = tmp_path_factory.mktemp("contract") / "campus.rtb"
    write_trace(path, system.records())
    return path


@pytest.mark.parametrize("jobs", [1, 2, 4, 8])
def test_campus_fan_out_equals_pair_all(campus_path, jobs):
    reference = pair_all(read_trace(campus_path))
    assert reference[1].paired > 1000
    assert parallel_pair(campus_path, jobs=jobs, chunk_records=500) == reference


@pytest.mark.parametrize(("system_name", "schedule_name"), CELLS)
def test_chaos_fan_out_equals_pair_all(system_name, schedule_name, tmp_path):
    _, text, expected, _ = _cached(system_name, schedule_name)
    path = tmp_path / "chaos.trace"
    path.write_text(text)
    ops, stats = parallel_pair(path, jobs=2, chunk_records=1500)
    assert stats == expected
    assert (ops, stats) == pair_all(read_trace(path))


class TestCommandsAgree:
    """On a reorder-faulted trace, every command that prints a summary,
    runs or characterization section prints the same one."""

    @pytest.fixture(scope="class")
    def outputs(self, tmp_path_factory):
        _, text, _, _ = _cached("campus", "reorder")
        path = tmp_path_factory.mktemp("agree") / "reorder.trace"
        path.write_text(text)
        outs = {}
        for name, argv in {
            "analyze": ["analyze"],
            "jobs": ["analyze", "--jobs", "2"],
            "stream": ["analyze", "--stream"],
            "runs": ["runs"],
            "report": ["report"],
        }.items():
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                assert main([*argv, "--in", str(path)]) == 0
            outs[name] = buffer.getvalue()
        return outs

    def test_jobs_output_is_serial_output(self, outputs):
        assert outputs["jobs"] == outputs["analyze"]

    def test_stream_summary_and_runs(self, outputs):
        sections = outputs["analyze"].split("\n\n")
        assert outputs["stream"].split("\n\n")[:2] == sections[:2]

    def test_runs_command(self, outputs):
        assert outputs["runs"].strip() == outputs["analyze"].split("\n\n")[1]

    def test_report_command(self, outputs):
        assert outputs["report"].strip() == (
            outputs["analyze"].split("\n\n")[2].strip()
        )
