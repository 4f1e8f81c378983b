"""Deterministic fault injection for the SPMD transport layer.

Production-scale synchronous training has to survive ranks that crash,
stall, or ship garbage — and the only way to *test* those paths is to make
the failures reproducible.  This module defines a seeded, declarative
:class:`FaultPlan` that both world backends consult on every transport
operation (point-to-point ``send``/``recv``, which the collectives,
schedules, and shuffles are all built on):

* ``crash``   — kill the rank at the Nth matching transport op.  On the
  thread backend this raises :class:`InjectedCrash` inside the rank; on the
  process backend the child hard-exits (``os._exit``) without reporting a
  result, exercising the parent's child-exit watcher exactly as a real
  segfault or OOM kill would.
* ``delay``   — sleep before the matching op (a straggler / slow link).
* ``drop``    — swallow a matching send (the message is never delivered),
  turning into a receive timeout downstream.
* ``corrupt`` — perturb the array payload of a matching op with noise drawn
  from the plan's seeded RNG, so the corruption is bitwise identical run
  to run.

Matching is structural, never timing-based: a spec names the world rank it
arms on, the transport point (``send`` or ``recv``), an optional peer and a
substring of the message tag, and fires on the ``after``-th matching op of
that rank.  Because every rank executes its communication in a fixed
program order, the same plan hits the same operation on every run — chaos
tests are deterministic.

Install a plan per job (``run_spmd(..., faults=FaultPlan(...))``) or
globally through the ``REPRO_FAULTS`` environment variable, whose value is
parsed by :meth:`FaultPlan.parse`, e.g.::

    REPRO_FAULTS="crash@rank2:point=send:after=3:tag=#alg"
    REPRO_FAULTS="delay@rank0:seconds=0.2;drop@rank1:tag=#coll:once ; seed=7"
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.comm.payload import map_arrays

#: Environment variable carrying a :meth:`FaultPlan.parse` spec applied to
#: every ``run_spmd`` call that does not pass ``faults=`` explicitly.
FAULTS_ENV = "REPRO_FAULTS"

#: Exit code a process-backend rank dies with on an injected crash, so the
#: parent's diagnostics can tell an injected death from a real one.
INJECTED_CRASH_EXIT = 117

_KINDS = ("crash", "delay", "drop", "corrupt")
#: ``send``/``recv`` bracket every transport operation on every backend;
#: ``wire`` is the socket backend's on-the-wire point, applied to the
#: serialized TCP frame *after* its CRC32 is computed — a ``corrupt`` fault
#: there models real link corruption and must be caught by the receiver's
#: frame checksum, not by arithmetic going quietly wrong.
_POINTS = ("send", "recv", "wire")


class InjectedFault(RuntimeError):
    """Base of all exceptions raised by the fault-injection plane."""


class InjectedCrash(InjectedFault):
    """Raised inside a rank to simulate its death (thread backend)."""


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault, armed on one rank's transport path.

    ``after`` counts *matching* operations: the fault fires on the
    ``after``-th match (0 = the first).  ``tag`` is matched as a substring
    of ``repr(tag)`` so callers can target a traffic class (``"#alg"`` for
    compiled schedule segments only, ``"#coll"`` for ``"direct"``
    collectives and ``bcast``'s one-hop star) without spelling out full
    tag tuples.  ``once``
    (default) disarms the spec after it fires; recurring faults
    (``once=False``) re-fire on every subsequent match — meaningless for
    ``crash``, which ends the rank.
    """

    kind: str
    rank: int
    point: str = "send"
    after: int = 0
    tag: str | None = None
    peer: int | None = None
    seconds: float = 0.05
    once: bool = True

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected {_KINDS}")
        if self.point not in _POINTS:
            raise ValueError(
                f"unknown fault point {self.point!r}; expected {_POINTS}"
            )
        if self.rank < 0:
            raise ValueError(f"fault rank must be >= 0, got {self.rank}")
        if self.after < 0:
            raise ValueError(f"fault after must be >= 0, got {self.after}")
        if self.kind == "drop" and self.point != "send":
            raise ValueError("drop faults arm on the send point")
        if self.point == "wire" and self.kind not in ("corrupt", "delay"):
            raise ValueError(
                "the wire point carries serialized frames; only corrupt "
                f"and delay faults arm there, not {self.kind!r}"
            )

    def describe(self) -> str:
        bits = [f"{self.kind}@rank{self.rank}", f"point={self.point}"]
        if self.after:
            bits.append(f"after={self.after}")
        if self.tag is not None:
            bits.append(f"tag={self.tag}")
        if self.peer is not None:
            bits.append(f"peer={self.peer}")
        if self.kind == "delay":
            bits.append(f"seconds={self.seconds}")
        return ":".join(bits)


class FaultPlan:
    """A seeded set of :class:`FaultSpec`\\ s for one SPMD job.

    The plan itself is immutable shared configuration (fork- and
    pickle-safe); per-rank match counters live in the
    :class:`FaultInjector` each world creates via :meth:`injector`.
    """

    def __init__(self, specs: list[FaultSpec] | tuple[FaultSpec, ...], seed: int = 0):
        self.specs = tuple(specs)
        self.seed = int(seed)

    def __repr__(self) -> str:
        return (
            f"FaultPlan(seed={self.seed}, "
            f"[{'; '.join(s.describe() for s in self.specs)}])"
        )

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the ``REPRO_FAULTS`` mini-language.

        ``;``-separated entries; each is ``kind@rank<r>`` followed by
        ``:key=value`` options (``point``, ``after``, ``tag``, ``peer``,
        ``seconds``) or the bare flag ``:recurring``.  A ``seed=<n>`` entry
        seeds the plan's RNG (corruption noise).
        """
        specs: list[FaultSpec] = []
        seed = 0
        for entry in text.split(";"):
            entry = entry.strip()
            if not entry:
                continue
            if entry.startswith("seed="):
                seed = int(entry[len("seed="):])
                continue
            head, _, rest = entry.partition(":")
            kind, _, rank_s = head.partition("@")
            if not rank_s.startswith("rank"):
                raise ValueError(
                    f"bad fault entry {entry!r}: expected kind@rank<r>[...]"
                )
            kwargs: dict[str, Any] = {
                "kind": kind.strip(),
                "rank": int(rank_s[len("rank"):]),
            }
            if rest:
                for opt in rest.split(":"):
                    opt = opt.strip()
                    if opt == "recurring":
                        kwargs["once"] = False
                        continue
                    key, _, value = opt.partition("=")
                    if key in ("after", "peer"):
                        kwargs[key] = int(value)
                    elif key == "seconds":
                        kwargs[key] = float(value)
                    elif key in ("tag", "point"):
                        kwargs[key] = value
                    else:
                        raise ValueError(
                            f"unknown fault option {key!r} in {entry!r}"
                        )
            specs.append(FaultSpec(**kwargs))
        return cls(specs, seed=seed)

    def injector(self, rank: int) -> "FaultInjector | None":
        """Fresh per-rank runtime state, or ``None`` if no spec arms here."""
        mine = [s for s in self.specs if s.rank == rank]
        if not mine:
            return None
        return FaultInjector(mine, self.seed, rank)


def _corrupt_payload(payload: Any, rng: np.random.Generator) -> Any:
    """Deterministically perturb the first float/int array in ``payload``.

    Exactly one element of the first eligible array (in
    :func:`~repro.comm.payload.map_arrays` order) is overwritten with a
    large seeded value, so a corrupted allreduce is detectably — and
    reproducibly — wrong.
    """
    if isinstance(payload, (bytes, bytearray)) and len(payload):
        # Serialized wire frames: flip every bit of one seeded byte, so a
        # CRC-protected transport must detect the corruption.
        bad = bytearray(payload)
        bad[int(rng.integers(0, len(bad)))] ^= 0xFF
        return bytes(bad)
    done = False

    def corrupt(arr: np.ndarray) -> np.ndarray:
        nonlocal done
        if done or arr.dtype == object or not arr.size:
            return arr
        done = True
        bad = arr.copy()
        idx = int(rng.integers(0, bad.size))
        flat = bad.reshape(-1)
        if np.issubdtype(bad.dtype, np.floating):
            flat[idx] = rng.standard_normal() * 1e12
        elif np.issubdtype(bad.dtype, np.integer):
            flat[idx] = int(rng.integers(-(2**31), 2**31))
        else:  # bool and friends: invert
            flat[idx] = not flat[idx]
        return bad

    return map_arrays(payload, corrupt)


class FaultInjector:
    """One rank's armed faults plus their match counters.

    The backends call :meth:`on_transport` from their send and receive
    paths.  The return value is ``(action, payload)`` where ``action`` is
    ``"pass"`` or ``"drop"``; ``delay`` sleeps in place, ``corrupt``
    replaces the payload, and ``crash`` invokes ``crash_cb`` (which must
    not return — it raises or exits the process).
    """

    def __init__(self, specs: list[FaultSpec], seed: int, rank: int) -> None:
        #: [spec, matches seen, fired] — mutable runtime state per spec.
        self._armed: list[list] = [[s, 0, False] for s in specs]
        self._rng = np.random.default_rng((seed, rank))
        self.rank = rank
        #: Log of fired faults, for diagnostics/tests: (describe, point, tag).
        self.fired: list[tuple[str, str, str]] = []

    def _matches(self, spec: FaultSpec, point: str, peer: int, tag: Any) -> bool:
        if spec.point != point:
            return False
        if spec.peer is not None and spec.peer != peer:
            return False
        if spec.tag is not None and spec.tag not in repr(tag):
            return False
        return True

    def on_transport(
        self,
        point: str,
        peer: int,
        tag: Any,
        payload: Any,
        crash_cb: Callable[[str], None],
    ) -> tuple[str, Any]:
        action = "pass"
        for state in self._armed:
            spec, _, fired = state
            if fired and spec.once:
                continue
            if not self._matches(spec, point, peer, tag):
                continue
            n = state[1]
            state[1] = n + 1
            if n < spec.after:
                continue
            state[2] = True
            detail = (
                f"{spec.describe()} fired at world rank {self.rank} "
                f"({point} #{n}, peer {peer}, tag={tag!r})"
            )
            self.fired.append((spec.describe(), point, repr(tag)))
            if spec.kind == "crash":
                crash_cb(detail)
                raise InjectedCrash(detail)  # crash_cb must not return
            if spec.kind == "delay":
                time.sleep(spec.seconds)
            elif spec.kind == "drop":
                action = "drop"
            elif spec.kind == "corrupt":
                payload = _corrupt_payload(payload, self._rng)
        return action, payload


@dataclass
class JobConfig:
    """Per-job runtime knobs shared by every backend launcher.

    ``timeout`` is the default bound on one blocked transport operation;
    ``op_timeouts`` overrides it per operation name *prefix* (longest
    prefix wins), e.g. ``{"recv": 5.0, "iallreduce": 30.0}``.  ``retries``
    grants a timed-out wait that many extra timeout windows (each logged as
    a warning) before the job is aborted — the knob for platforms where a
    slow rank is more likely than a dead one.  ``detect_interval`` paces
    the process backend's failure detector (child-exit watcher +
    heartbeats); a dead rank is detected within roughly one interval
    rather than at the next per-op timeout.  ``allow_failures`` makes
    ``run_spmd`` return per-rank exceptions in the result list instead of
    re-raising the first one — the chaos-testing mode.
    """

    timeout: float = 120.0
    op_timeouts: dict[str, float] = field(default_factory=dict)
    retries: int = 0
    faults: FaultPlan | None = None
    allow_failures: bool = False
    detect_interval: float = 0.25
    #: Optional :class:`~repro.comm.hostmap.HostMap` grouping ranks into
    #: logical nodes: picks the socket backend's shared-memory-vs-TCP
    #: routing and drives hierarchical collective selection on every
    #: backend (``None`` = the backend's default layout).
    hostmap: Any = None
    #: Optional :class:`~repro.obs.tracer.TraceConfig` enabling per-rank
    #: span tracing (``run_spmd(trace=...)`` / ``REPRO_TRACE``); carries
    #: the merged-output path and the shared job epoch used to align every
    #: rank's clock.  ``None`` = tracing disabled.
    trace: Any = None

    def timeout_for(self, opname: str) -> float:
        best: str | None = None
        for prefix in self.op_timeouts:
            if opname.startswith(prefix) and (best is None or len(prefix) > len(best)):
                best = prefix
        return self.op_timeouts[best] if best is not None else self.timeout
