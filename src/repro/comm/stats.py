"""Per-rank communication statistics.

The paper's performance model (Section V) predicts communication volumes for
halo exchanges (``2*SR(O * I_N * I_C * I_H)`` etc.) and allreduces
(``AR(p, I_F * I_C * K^2)``).  Tests verify those formulas against the
*actual* traffic generated by the distributed algorithms, which these
counters record.

For nonblocking operations the counters additionally separate *wait* time
(the caller was blocked in ``Request.wait()``) from *overlap* time (the
operation was in flight while the caller did useful work between launch and
wait) — the measured analogue of the exposed-vs-hidden allreduce split the
cost model predicts (paper §V-B).

Collectives additionally split **logical** bytes from **wire** bytes:

* ``collective_bytes`` (logical) is the operation's semantic payload size —
  independent of which algorithm moved it, so counts stay comparable
  between ``"direct"`` and the scheduled ring/Rabenseifner/recursive-
  doubling paths;
* ``collective_wire_sent`` / ``collective_wire_recv`` are the bytes this
  rank actually put on / took off the wire for the op — what a
  message-passing backend's transport really moves (on the thread backend
  the same numbers are recorded as the *notional* wire volume, keeping the
  split backend-independent).  A ring allreduce records ``2n(p-1)/p`` per
  rank where ``"direct"`` records ``n(p-1)`` — the reduction the paper's
  AR(p, n) bandwidth-optimal model assumes, assertable against the process
  backend's transport counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields


class WireTally:
    """Bytes one operation put on and took off the wire, and the part of
    them exchanged with peers on a *different* logical node —
    ``inter_peers[c]`` flags comm rank ``c`` as such a peer (per the
    world's host map); ``None`` means there is none to meter.  The base of
    every runner and endpoint; :meth:`CommStats.record_wire` books it."""

    def __init__(self, inter_peers: tuple[bool, ...] | None = None) -> None:
        self._inter = inter_peers
        self.wire_sent = self.wire_recv = 0
        self.wire_sent_inter = self.wire_recv_inter = 0

    def count_sent(self, peer: int, nbytes: int) -> None:
        self.wire_sent += nbytes
        if self._inter is not None and self._inter[peer]:
            self.wire_sent_inter += nbytes

    def count_recv(self, peer: int, nbytes: int) -> None:
        self.wire_recv += nbytes
        if self._inter is not None and self._inter[peer]:
            self.wire_recv_inter += nbytes


#: Trace-file spellings of the fields whose snapshot key is not their name
#: (``repro.obs.analyze`` and merged traces written before read these).
_SNAPSHOT_KEYS = {
    "collective_wire_sent": "wire_out",
    "collective_wire_recv": "wire_in",
    "collective_wire_sent_inter": "wire_out_inter",
    "collective_wire_recv_inter": "wire_in_inter",
    "wait_seconds": "wait_s",
    "overlap_seconds": "overlap_s",
}


@dataclass
class CommStats:
    """Counters for one rank, accumulated across all its communicators."""

    sends: int = 0
    recvs: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    collectives: dict[str, int] = field(default_factory=dict)
    collective_bytes: dict[str, int] = field(default_factory=dict)
    #: Bytes this rank actually sent / received on the wire per collective
    #: op (the logical-vs-wire split; see module docstring).
    collective_wire_sent: dict[str, int] = field(default_factory=dict)
    collective_wire_recv: dict[str, int] = field(default_factory=dict)
    #: The subset of the wire bytes exchanged with peers on a *different*
    #: logical node (per the world's host map) — the traffic the two-tier
    #: cost model prices on the inter-node link and the hierarchical
    #: schedules exist to shrink.  Always ``<=`` the matching wire counter;
    #: zero when no host map is installed.
    collective_wire_sent_inter: dict[str, int] = field(default_factory=dict)
    collective_wire_recv_inter: dict[str, int] = field(default_factory=dict)
    #: Seconds spent blocked inside ``Request.wait()``/``test()`` per op.
    wait_seconds: dict[str, float] = field(default_factory=dict)
    #: Seconds each nonblocking op spent in flight before the caller waited
    #: on it — communication hidden behind computation.
    overlap_seconds: dict[str, float] = field(default_factory=dict)

    def record_send(self, nbytes: int) -> None:
        self.sends += 1
        self.bytes_sent += nbytes

    def record_recv(self, nbytes: int) -> None:
        self.recvs += 1
        self.bytes_received += nbytes

    def record_collective(self, name: str, nbytes: int) -> None:
        self.collectives[name] = self.collectives.get(name, 0) + 1
        self.collective_bytes[name] = self.collective_bytes.get(name, 0) + nbytes

    def record_wire(self, name: str, tally: WireTally) -> None:
        """Book the wire-byte side of one finished collective.  The
        ``*_inter`` bytes are the portion that crossed a logical-node
        boundary (already included in sent/received, never in addition)."""
        for table, n in (
            (self.collective_wire_sent, tally.wire_sent),
            (self.collective_wire_recv, tally.wire_recv),
            (self.collective_wire_sent_inter, tally.wire_sent_inter),
            (self.collective_wire_recv_inter, tally.wire_recv_inter),
        ):
            if n:
                table[name] = table.get(name, 0) + n

    def record_async(
        self,
        name: str,
        nbytes: int,
        waited: float,
        overlapped: float,
        collective: bool = True,
    ) -> None:
        """Record completion of a nonblocking op: bytes, blocked and hidden time.

        ``collective=False`` for point-to-point requests (irecv), whose
        bytes are already counted by ``record_recv`` — only the timing
        split is added, so collective counts stay comparable between the
        blocking and nonblocking paths.
        """
        if collective:
            self.record_collective(name, nbytes)
        self.wait_seconds[name] = self.wait_seconds.get(name, 0.0) + max(0.0, waited)
        self.overlap_seconds[name] = self.overlap_seconds.get(name, 0.0) + max(
            0.0, overlapped
        )

    def reset(self) -> None:
        for f in fields(self):
            if f.default_factory is dict:
                getattr(self, f.name).clear()  # in place: callers hold these
            else:
                setattr(self, f.name, f.default)

    def snapshot(self) -> dict:
        """Every counter as a JSON-serializable dict (embedded verbatim into
        traces, so analyzer comm rows agree with the live counters exactly).
        A field's key is its name unless :data:`_SNAPSHOT_KEYS` renames it."""
        snap: dict = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.default_factory is dict:
                cast = float if f.name.endswith("_seconds") else int
                value = {op: cast(v) for op, v in value.items()}
            snap[_SNAPSHOT_KEYS.get(f.name, f.name)] = value
        return snap

    def total_wire_sent(self, name: str | None = None) -> int:
        table = self.collective_wire_sent
        return sum(table.values()) if name is None else table.get(name, 0)

    def total_wait_seconds(self) -> float:
        return sum(self.wait_seconds.values())

    def total_overlap_seconds(self) -> float:
        return sum(self.overlap_seconds.values())

    def report(self) -> str:
        """Human-readable per-op summary (calls, logical vs wire bytes,
        wait vs overlap)."""
        tables = (getattr(self, f.name) for f in fields(self) if f.default_factory is dict)
        ops = sorted(set().union(*tables))
        lines = [
            "comm stats: "
            f"{self.sends} sends / {self.bytes_sent} B out, "
            f"{self.recvs} recvs / {self.bytes_received} B in"
        ]
        header = (
            f"  {'op':>16}  {'calls':>7}  {'bytes':>12}  {'wire-out':>12}  "
            f"{'wire-in':>12}  {'wire-out-inter':>14}  {'wire-in-inter':>13}  "
            f"{'wait ms':>9}  {'overlap ms':>10}"
        )
        lines.append(header)
        for op in ops:
            lines.append(
                f"  {op:>16}  {self.collectives.get(op, 0):>7}  "
                f"{self.collective_bytes.get(op, 0):>12}  "
                f"{self.collective_wire_sent.get(op, 0):>12}  "
                f"{self.collective_wire_recv.get(op, 0):>12}  "
                f"{self.collective_wire_sent_inter.get(op, 0):>14}  "
                f"{self.collective_wire_recv_inter.get(op, 0):>13}  "
                f"{self.wait_seconds.get(op, 0.0) * 1e3:>9.3f}  "
                f"{self.overlap_seconds.get(op, 0.0) * 1e3:>10.3f}"
            )
        return "\n".join(lines)
