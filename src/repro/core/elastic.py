"""Elastic self-healing SPMD supervision: restart, shrink, degrade.

A synchronous data/model-parallel job dies as a unit — any lost rank aborts
the whole world — but the *job* does not have to stay dead.  This module
adds the supervisor layer the paper's runtime lacks: :class:`ElasticRunner`
wraps :func:`repro.comm.run_spmd` in a restart loop that

1. runs the job in chaos mode (``allow_failures=True``) so every rank's
   outcome is observable,
2. **classifies** what killed it — a rank's exception, an injected crash,
   a child process exiting abnormally, a TCP peer dying, a corrupted
   frame, a timeout — from the ``kind``/``failed_rank``/``host`` attributes
   every :class:`~repro.comm.backend.CommAborted` carries (the job's one
   :class:`~repro.comm.backend.AbortCause`, host from the
   :class:`~repro.comm.hostmap.HostMap`) and the exception types, never
   from message text,
3. **relaunches** after an exponential backoff: at the *same* world size
   while failures look transient, or at a *shrunk* world — blacklisting
   the repeatedly-failing host (or rank) via
   :meth:`~repro.comm.hostmap.HostMap.excluding` — once the same culprit
   has died :attr:`blacklist_after` times,
4. and **degrades gracefully**: when shrinking would cross ``min_ranks``,
   the runner stops restarting and returns a structured
   :class:`ElasticReport` whose restart log records every failure cause,
   backoff, world size, resume point, and replayed-step count.

Because training state is checkpointed world-stamped
(:mod:`repro.core.checkpoint`), a relaunched world of a *different* size
re-shards the last complete checkpoint set via
:meth:`~repro.core.trainer.DistTrainer.resume_elastic`; the training
function itself stays oblivious — it just calls ``resume_elastic()`` on
entry.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from time import monotonic
from typing import Any, Callable, Sequence

from repro.comm.backend import CommAborted, failure_kind, run_spmd
from repro.comm.faults import FaultPlan
from repro.comm.hostmap import HOSTMAP_ENV, HostMap, resolve_hostmap
from repro.core import checkpoint as ckpt
from repro.obs.logging import get_logger

logger = get_logger("elastic")

@dataclass
class RankFailure:
    """One classified failure: which rank died, where, and how."""

    rank: int | None
    host: str | None
    kind: str
    message: str
    #: False when the error was a :class:`~repro.comm.backend.CommAborted`
    #: naming no culprit, so the rank defaulted to the observing one.
    attributed: bool = True

    def to_dict(self) -> dict:
        return {
            "rank": self.rank,
            "host": self.host,
            "kind": self.kind,
            "message": self.message,
        }


@dataclass
class RestartRecord:
    """One supervisor decision: what failed and what was done about it."""

    attempt: int
    nranks: int
    failures: list[RankFailure]
    #: ``"restart"`` (same world), ``"shrink"`` (blacklisted a culprit),
    #: ``"degraded"`` (would cross ``min_ranks``; stopped restarting), or
    #: ``"gave-up"`` (restart budget exhausted).
    action: str
    backoff_seconds: float = 0.0
    next_nranks: int | None = None
    blacklisted: tuple[str, ...] = ()
    resumed_step: int | None = None
    steps_replayed: int = 0
    detect_seconds: float = 0.0

    def to_dict(self) -> dict:
        return {
            "attempt": self.attempt,
            "nranks": self.nranks,
            "failures": [f.to_dict() for f in self.failures],
            "action": self.action,
            "backoff_seconds": self.backoff_seconds,
            "next_nranks": self.next_nranks,
            "blacklisted": list(self.blacklisted),
            "resumed_step": self.resumed_step,
            "steps_replayed": self.steps_replayed,
            "detect_seconds": self.detect_seconds,
        }


@dataclass
class ElasticReport:
    """Outcome of one supervised elastic run."""

    ok: bool
    degraded: bool
    results: list[Any] | None
    final_nranks: int
    restarts: list[RestartRecord] = field(default_factory=list)
    blacklisted_hosts: tuple[str, ...] = ()
    blacklisted_ranks: tuple[int, ...] = ()
    elapsed_seconds: float = 0.0

    @property
    def total_restarts(self) -> int:
        return sum(1 for r in self.restarts if r.action in ("restart", "shrink"))

    @property
    def total_steps_replayed(self) -> int:
        return sum(r.steps_replayed for r in self.restarts)

    def to_dict(self) -> dict:
        """JSON-ready structure (the CI failure artifact format)."""
        return {
            "ok": self.ok,
            "degraded": self.degraded,
            "final_nranks": self.final_nranks,
            "total_restarts": self.total_restarts,
            "total_steps_replayed": self.total_steps_replayed,
            "blacklisted_hosts": list(self.blacklisted_hosts),
            "blacklisted_ranks": list(self.blacklisted_ranks),
            "elapsed_seconds": self.elapsed_seconds,
            "restarts": [r.to_dict() for r in self.restarts],
        }

    def describe(self) -> str:
        lines = [
            f"elastic run: ok={self.ok} degraded={self.degraded} "
            f"final_nranks={self.final_nranks} "
            f"restarts={self.total_restarts} "
            f"steps_replayed={self.total_steps_replayed}"
        ]
        for r in self.restarts:
            culprits = ", ".join(
                f"rank {f.rank}"
                + (f" (host {f.host})" if f.host else "")
                + f": {f.kind}"
                for f in r.failures
            ) or "none classified"
            lines.append(
                f"  attempt {r.attempt} @ {r.nranks} ranks -> {r.action}"
                + (f" to {r.next_nranks}" if r.next_nranks else "")
                + (f" [blacklist {', '.join(r.blacklisted)}]" if r.blacklisted else "")
                + f" after {culprits}"
                + (
                    f"; resume step {r.resumed_step} "
                    f"(~{r.steps_replayed} steps replayed)"
                    if r.resumed_step is not None
                    else ""
                )
            )
        return "\n".join(lines)


def classify_error(err: BaseException, observer_rank: int | None = None) -> RankFailure:
    """Map one rank's exception to a :class:`RankFailure`.

    A :class:`~repro.comm.backend.CommAborted` names its culprit in
    ``failed_rank``/``host``; any other exception is the observing rank's
    own failure.  The kind is :func:`~repro.comm.backend.failure_kind` of
    the exception.
    """
    aborted = isinstance(err, CommAborted)
    rank = err.failed_rank if aborted else None
    return RankFailure(
        rank=observer_rank if rank is None else rank,
        host=err.host if aborted else None,
        kind=failure_kind(err),
        message=str(err),
        attributed=rank is not None or not aborted,
    )


def classify_failures(
    results: Sequence[Any], hostmap: HostMap | None = None
) -> list[RankFailure]:
    """Distill a chaos-mode result list down to the *culprit* failures.

    With ``allow_failures=True`` every rank that raised appears in the
    result list — the rank that actually failed *and* every survivor whose
    operation aborted naming it.  Survivor echoes are folded into the
    culprit they name: one :class:`RankFailure` per failing rank, the
    failing rank's own report preferred over its echoes (a forked rank's
    exit code says more than a peer's lost link).  Host attribution comes
    from the error or, failing that, the host map.
    """
    by_rank: dict[int | None, RankFailure] = {}
    for observer, outcome in enumerate(results):
        if not isinstance(outcome, BaseException):
            continue
        f = classify_error(outcome, observer_rank=observer)
        if hostmap is not None and f.host is None and f.rank is not None:
            f.host = hostmap.host_of(f.rank)
        if f.rank not in by_rank or f.rank == observer:
            by_rank[f.rank] = f
    failures = list(by_rank.values())
    # An abort naming no culprit defaults to its observer; once a real
    # culprit is known such echoes are noise (blaming a survivor would
    # poison the blacklist), so keep them only when nothing better was
    # attributed.
    if any(f.attributed for f in failures):
        failures = [f for f in failures if f.attributed]
    return sorted(
        failures, key=lambda f: (f.rank is None, f.rank if f.rank is not None else 0)
    )


class ElasticRunner:
    """Supervised restart loop around :func:`repro.comm.run_spmd`.

    ``max_restarts`` bounds the relaunches; a culprit (host, or rank
    without a host map) that fails ``blacklist_after`` times is excluded
    and the world shrinks, but never below ``min_ranks``.  Relaunch ``i``
    waits ``backoff * backoff_factor**i`` seconds.  ``backend`` and
    ``hostmap`` choose the world, and further keyword arguments
    (``timeout=``, ``detect_interval=``, ...) go to ``run_spmd``; ``run``'s
    positional arguments go to ``fn``.  ``faults`` may be a single
    plan/spec (armed on the first attempt only — a deterministic injected
    fault would otherwise re-fire forever) or a list indexed by attempt
    (``None`` entries run clean).  ``sleep`` is injectable so tests can
    assert the exponential backoff schedule without waiting it out.
    ``checkpoint_dir`` (with ``nsteps`` expected total steps) enables
    resume-point and replayed-step accounting in the restart log.
    """

    def __init__(
        self,
        nranks: int,
        *,
        max_restarts: int = 4,
        min_ranks: int = 1,
        backoff: float = 0.5,
        backoff_factor: float = 2.0,
        blacklist_after: int = 2,
        backend: str | None = None,
        hostmap: HostMap | str | None = None,
        faults: Any = None,
        checkpoint_dir: str | None = None,
        sleep: Callable[[float], None] = time.sleep,
        **spmd_kwargs: Any,
    ) -> None:
        if nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {nranks}")
        if min_ranks < 1:
            raise ValueError(f"min_ranks must be >= 1, got {min_ranks}")
        if min_ranks > nranks:
            raise ValueError(
                f"min_ranks={min_ranks} exceeds initial nranks={nranks}"
            )
        self.nranks = nranks
        self.max_restarts = max_restarts
        self.min_ranks = min_ranks
        self.backoff = backoff
        self.backoff_factor = backoff_factor
        self.blacklist_after = blacklist_after
        self.backend = backend
        self.hostmap = resolve_hostmap(hostmap, os.environ.get(HOSTMAP_ENV))
        if isinstance(faults, (str, FaultPlan)):
            faults = [faults]
        self.fault_schedule: list[Any] = list(faults) if faults else []
        self.checkpoint_dir = checkpoint_dir
        self.sleep = sleep
        self.spmd_kwargs = spmd_kwargs

    # -- internals ---------------------------------------------------------
    def _faults_for(self, attempt: int) -> Any:
        if attempt < len(self.fault_schedule):
            return self.fault_schedule[attempt]
        return None

    def _launch(self, nranks, hostmap, attempt, fn, args, kwargs):
        """One attempt; returns the chaos-mode result list (never raises
        for rank failures — a raising launcher is folded into a one-entry
        failure list)."""
        try:
            return run_spmd(
                nranks,
                fn,
                *args,
                backend=self.backend,
                hostmap=hostmap,
                faults=self._faults_for(attempt),
                allow_failures=True,
                **self.spmd_kwargs,
                **kwargs,
            )
        except BaseException as err:  # noqa: BLE001 - supervisor boundary
            if isinstance(err, (KeyboardInterrupt, SystemExit)):
                raise
            return [err]

    def _checkpoint_evidence(self, nranks: int) -> tuple[int | None, int]:
        """``(resume_step, steps_replayed)`` evidence from the filesystem.

        ``steps_replayed`` is a provable lower bound: the newest step any
        rank managed to checkpoint minus the step the next attempt can
        actually resume from (work past the last complete cadence is lost
        and must be recomputed).  Without a checkpoint directory both are
        unknown (``None``, 0).
        """
        d = self.checkpoint_dir
        if d is None or not os.path.isdir(d):
            return None, 0
        newest = -1
        for name in os.listdir(d):
            parsed = ckpt.parse_checkpoint_name(name)
            if parsed is not None:
                newest = max(newest, parsed[0])
        common: set[int] | None = None
        for rank in range(nranks):
            steps = set(ckpt.local_steps(d, rank, world=nranks))
            common = steps if common is None else (common & steps)
        resume = max(common) if common else None
        if resume is None:
            found = ckpt.latest_complete_step(d)
            resume = found[0] if found is not None else None
        if newest < 0:
            return resume, 0
        return resume, max(0, newest - (resume or 0))

    # -- the loop ----------------------------------------------------------
    def run(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> ElasticReport:
        """Supervise ``fn`` until it completes, degrades, or exhausts
        restarts; return the :class:`ElasticReport`."""
        t_start = monotonic()
        nranks = self.nranks
        hostmap = self.hostmap
        restarts: list[RestartRecord] = []
        fail_counts: dict[Any, int] = {}
        bad_hosts: list[str] = []
        bad_ranks: list[int] = []
        attempt = 0
        degraded = False
        while True:
            t_launch = monotonic()
            results = self._launch(nranks, hostmap, attempt, fn, args, kwargs)
            failures = classify_failures(results, hostmap)
            if not failures:
                return ElasticReport(
                    ok=True,
                    degraded=degraded,
                    results=results,
                    final_nranks=nranks,
                    restarts=restarts,
                    blacklisted_hosts=tuple(bad_hosts),
                    blacklisted_ranks=tuple(bad_ranks),
                    elapsed_seconds=monotonic() - t_start,
                )

            detect_seconds = monotonic() - t_launch
            for f in failures:
                key = ("host", f.host) if f.host is not None else ("rank", f.rank)
                fail_counts[key] = fail_counts.get(key, 0) + 1
                logger.warning(
                    "attempt %d: rank %s (host %s) failed [%s]: %s",
                    attempt, f.rank, f.host or "?", f.kind,
                    f.message.splitlines()[0][:160],
                )
            resume_step, replayed = self._checkpoint_evidence(nranks)
            record = RestartRecord(
                attempt=attempt,
                nranks=nranks,
                failures=failures,
                action="restart",
                resumed_step=resume_step,
                steps_replayed=replayed,
                detect_seconds=detect_seconds,
            )
            restarts.append(record)
            attempt += 1

            if attempt > self.max_restarts:
                record.action = "gave-up"
                return ElasticReport(
                    ok=False,
                    degraded=degraded,
                    results=results,
                    final_nranks=nranks,
                    restarts=restarts,
                    blacklisted_hosts=tuple(bad_hosts),
                    blacklisted_ranks=tuple(bad_ranks),
                    elapsed_seconds=monotonic() - t_start,
                )

            # Blacklist any culprit that has now failed often enough —
            # repeated deaths on one host (or rank) stop looking transient.
            to_blacklist = [
                key for key, n in fail_counts.items()
                if n >= self.blacklist_after
                and (
                    key[0] == "host"
                    and key[1] not in bad_hosts
                    or key[0] == "rank"
                    and key[1] not in bad_ranks
                )
            ]
            if to_blacklist:
                new_hosts = [k[1] for k in to_blacklist if k[0] == "host"]
                new_ranks = [k[1] for k in to_blacklist if k[0] == "rank" and k[1] is not None]
                next_nranks, next_hostmap = self._shrink(
                    nranks, hostmap, new_hosts, new_ranks
                )
                if next_nranks < self.min_ranks:
                    record.action = "degraded"
                    record.blacklisted = tuple(
                        str(k[1]) for k in to_blacklist
                    )
                    return ElasticReport(
                        ok=False,
                        degraded=True,
                        results=results,
                        final_nranks=nranks,
                        restarts=restarts,
                        blacklisted_hosts=tuple(bad_hosts),
                        blacklisted_ranks=tuple(bad_ranks),
                        elapsed_seconds=monotonic() - t_start,
                    )
                record.action = "shrink"
                record.next_nranks = next_nranks
                record.blacklisted = tuple(str(k[1]) for k in to_blacklist)
                bad_hosts.extend(new_hosts)
                bad_ranks.extend(new_ranks)
                nranks, hostmap = next_nranks, next_hostmap
                degraded = degraded or nranks < self.nranks
                logger.warning(
                    "attempt %d: shrinking world to %d ranks "
                    "(blacklisted %s)",
                    attempt, nranks, ", ".join(record.blacklisted),
                )
            pause = self.backoff * (self.backoff_factor ** (attempt - 1))
            record.backoff_seconds = pause
            if pause > 0:
                self.sleep(pause)

    def _shrink(
        self,
        nranks: int,
        hostmap: HostMap | None,
        hosts: list[str],
        ranks: list[int],
    ) -> tuple[int, HostMap | None]:
        """World after blacklisting; ``(0, None)`` when nothing survives."""
        if hostmap is not None:
            try:
                shrunk = hostmap.excluding(hosts=hosts, ranks=ranks)
            except ValueError:
                return 0, None
            return shrunk.size, shrunk
        # No host attribution: drop one rank per blacklisted culprit.
        return max(0, nranks - max(1, len(set(ranks)) + len(hosts))), None
