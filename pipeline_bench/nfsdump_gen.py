"""Seeded nfsdump archive for the ``ingest-nfsdump`` workload.

The archive is written directly as nfsdump text from the seed; it is
not rendered from a simulated trace, so whether the input is right does
not depend on an inverse renderer.  Its shape:

* :data:`CLIENTS` hosts talk to one server; every call has exactly one
  ``OK`` reply, 0.1-3 ms later, with a per-client XID that never repeats;
* traffic comes in sessions separated by idle gaps, and the procedure
  mix and call rate are those measured on the ``campus-day`` workload's
  trace (:data:`CAMPUS_CALLS`, derivation below);
* lines are written in the order of ``time + U(0, JITTER_S)``, so each
  line sits within :data:`JITTER_S` of its place in time order -- well
  inside the ingest reorder window (5 s by default);
* :data:`MALFORMED` lines, each the first six tokens of a real line, are
  inserted at seeded positions.  The nfsdump parser returns nothing for
  a line of fewer than eight tokens, so each is one ``short-line`` skip.

Derivation.  ``repro simulate --scenario campus --days 1 --users 16
--seed 0`` writes 86,302 calls whose times span 86,177 s, counted by
procedure in :data:`CAMPUS_CALLS` (41 ``setattr`` calls, 0.05%, are
left out).  The sessions reproduce those counts:

* ``read``: ``lookup``, then a run of sequential ``read`` calls;
* ``write``: ``lookup``, a run of ``write`` calls, then ``commit``;
* ``lock``: ``create`` then ``remove`` of a lock file;
* ``stat``: ``access`` then ``getattr``.

So there are ``commit`` write sessions, ``create`` lock sessions,
``access`` stat sessions and ``lookup - commit`` read sessions, with
mean runs of ``read / read sessions`` (14.3) and ``write / write
sessions`` (24.8) calls.  The :data:`CLIENTS` hosts together make
:data:`CAMPUS_CALLS_PER_S` calls a second, so one host's mean idle gap
between sessions is ``CLIENTS x calls per session / calls per second``
(115 s).  The archive's :data:`CALLS` calls then span about 13.9 h.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

#: calls in the archive (two lines each, plus the malformed lines)
CALLS = 50_000
CLIENTS = 8
MALFORMED = 100
JITTER_S = 1.0

#: calls by procedure in the campus-day trace at seed 0
CAMPUS_CALLS = {"read": 62_323, "write": 16_279, "lookup": 5_012,
                "create": 751, "remove": 751, "commit": 657,
                "access": 244, "getattr": 244}
#: 86,302 calls over the 86,177 s from its first record to its last
CAMPUS_CALLS_PER_S = 86_302 / 86_177

#: session kind -> sessions in the campus-day trace
_SESSIONS = {
    "read": CAMPUS_CALLS["lookup"] - CAMPUS_CALLS["commit"],
    "write": CAMPUS_CALLS["commit"],
    "lock": CAMPUS_CALLS["create"],
    "stat": CAMPUS_CALLS["access"],
}
_MEAN_READ_RUN = CAMPUS_CALLS["read"] / _SESSIONS["read"]
_MEAN_WRITE_RUN = CAMPUS_CALLS["write"] / _SESSIONS["write"]
_CALLS_PER_SESSION = sum(CAMPUS_CALLS.values()) / sum(_SESSIONS.values())
_SESSION_GAP_S = CLIENTS * _CALLS_PER_SESSION / CAMPUS_CALLS_PER_S

#: nfsdump proc numbers (NFSv3) of the procedures the sessions use.
_PROC_NUMBERS = {"getattr": 1, "lookup": 3, "access": 4, "read": 6,
                 "write": 7, "create": 8, "remove": 12, "commit": 21}

_EPOCH = 1003708800.0  # Monday 2001-10-22 00:00 UTC
_BLOCK = 8192
_TRUNCATED_TOKENS = 6


@dataclass
class Archive:
    """What :func:`generate` wrote."""

    lines: int = 0
    calls: int = 0
    malformed: int = 0
    #: 1-based line numbers of the injected malformed lines
    malformed_at: list[int] = field(default_factory=list)


class _Client:
    """One host's namespace, XID counter and clock."""

    def __init__(self, index: int, rng: random.Random) -> None:
        self.rng = rng
        self.addr = f"{0x10 + index:x}.{0x3f0 + index:04x}"
        self.xid = rng.randrange(1 << 28, 1 << 31)
        self.now = _EPOCH + rng.uniform(0.0, 60.0)
        self.home = self._handle()
        # every file holds the longest read run, so runs are never cut
        longest = 2 * round(_MEAN_READ_RUN)
        self.files = [
            (f"f{n}.mbox", self._handle(), rng.randrange(1, 1 << 20),
             rng.randrange(longest, 4 * longest) * _BLOCK
             - rng.randrange(0, _BLOCK))
            for n in range(rng.randrange(64, 160))
        ]
        self.locks = 0

    def _handle(self) -> str:
        return f"{self.rng.getrandbits(64):016x}"


def _run_length(rng: random.Random, mean: float) -> int:
    """A run of 1 to ``2 x mean - 1`` calls, ``mean`` on average."""
    return rng.randint(1, 2 * round(mean) - 1)


def _sessions(client: _Client, server: str, quota: int):
    """Yield ``(time, line)`` for ``quota`` calls and their replies."""
    rng = client.rng
    kinds = list(_SESSIONS)
    weights = list(_SESSIONS.values())
    made = 0

    def exchange(proc: str, call_fields: str, reply_fields: str):
        nonlocal made
        xid = client.xid
        client.xid += 1
        made += 1
        number = _PROC_NUMBERS[proc]
        sent = client.now
        answered = sent + rng.uniform(0.0001, 0.003)
        client.now = answered + rng.uniform(0.0002, 0.002)
        yield sent, (
            f"{sent:.6f} {client.addr} {server} U C3 {xid:08x} {number} "
            f"{proc} {call_fields} con = 130 len = {96 + len(call_fields)}"
        )
        yield answered, (
            f"{answered:.6f} {server} {client.addr} U R3 {xid:08x} {number} "
            f"{proc} OK {reply_fields} con = 130 len = {120 + len(reply_fields)}"
        )

    def attrs(fileid: int, size: int) -> str:
        return f"ftype 1 mode 1a4 nlink 1 uid 1f5 gid 14 size {size:x} fileid {fileid:x}"

    while made < quota:
        client.now += rng.expovariate(1.0 / _SESSION_GAP_S)
        name, fh, fileid, size = rng.choice(client.files)
        kind = rng.choices(kinds, weights)[0]
        if kind == "read":
            yield from exchange("lookup", f'fh {client.home} name "{name}"',
                                f"fh {fh} {attrs(fileid, size)}")
            for block in range(_run_length(rng, _MEAN_READ_RUN)):
                count = min(_BLOCK, size - block * _BLOCK)
                eof = int((block + 1) * _BLOCK >= size)
                yield from exchange(
                    "read", f"fh {fh} off {block * _BLOCK:x} count {_BLOCK:x}",
                    f"{attrs(fileid, size)} count {count:x} eof {eof}",
                )
        elif kind == "write":
            yield from exchange("lookup", f'fh {client.home} name "{name}"',
                                f"fh {fh} {attrs(fileid, size)}")
            runs = _run_length(rng, _MEAN_WRITE_RUN)
            start = size // _BLOCK
            for block in range(start, start + runs):
                yield from exchange(
                    "write", f"fh {fh} off {block * _BLOCK:x} count {_BLOCK:x}",
                    f"{attrs(fileid, (block + 1) * _BLOCK)} count {_BLOCK:x}",
                )
            yield from exchange(
                "commit", f"fh {fh} off {start * _BLOCK:x} count {runs * _BLOCK:x}",
                attrs(fileid, (start + runs) * _BLOCK),
            )
        elif kind == "lock":
            client.locks += 1
            lock = f"{name}.lock{client.locks}"
            yield from exchange("create", f'fh {client.home} name "{lock}"',
                                f"fh {client._handle()} {attrs(fileid + 1, 0)}")
            yield from exchange("remove", f'fh {client.home} name "{lock}"', "")
        else:
            yield from exchange("access", f"fh {fh} access 1f",
                                f"{attrs(fileid, size)} access 1f")
            yield from exchange("getattr", f"fh {fh}", attrs(fileid, size))


def generate(path, seed: int) -> Archive:
    """Write the archive for ``seed`` to ``path``; returns its census.

    The call count can exceed :data:`CALLS` by at most one session per
    client, since sessions are never cut short.
    """
    rng = random.Random(f"nfsdump-archive:{seed}")
    server = "64.0801"
    keyed: list[tuple[float, str]] = []
    archive = Archive()
    for index in range(CLIENTS):
        client = _Client(index, random.Random(f"{seed}:client:{index}"))
        for sent, line in _sessions(client, server, CALLS // CLIENTS):
            keyed.append((sent + rng.uniform(0.0, JITTER_S), line))
            if " C3 " in line:
                archive.calls += 1
    keyed.sort(key=lambda pair: pair[0])
    lines = [line for _, line in keyed]
    positions = sorted(rng.sample(range(len(lines) + MALFORMED), MALFORMED))
    for position in positions:
        source = lines[rng.randrange(len(lines))]
        lines.insert(position, " ".join(source.split()[:_TRUNCATED_TOKENS]))
    archive.malformed = MALFORMED
    archive.malformed_at = [position + 1 for position in positions]
    archive.lines = len(lines)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines))
        handle.write("\n")
    return archive
