"""Atomic per-rank training checkpoints with bitwise-exact restore.

A synchronous data/model-parallel job dies as a unit — one lost rank wipes
the whole run — so checkpoints are the difference between losing a step and
losing a day.  This module stores one file per (step, rank) in a shared
directory and guarantees two properties the fault-tolerance tests lean on:

* **Atomicity** — state is serialized to a temp file in the same directory,
  fsync'd, then ``os.replace``'d into its final name.  A rank killed
  mid-write leaves a stale temp file (cleaned up by the next save), never a
  truncated checkpoint; any file with a final name is complete.
* **Bitwise fidelity** — arrays round-trip through ``np.savez`` untouched
  (dtype, shape, and every bit of every element), and the non-array
  skeleton (step counters, RNG bit-generator state, scalar hyperparams)
  rides along as one pickled blob.  Restoring a checkpoint and continuing
  training reproduces the uninterrupted run exactly — verified by
  ``tests/test_checkpoint.py`` on both world backends.

Because ranks save independently (no barrier in the save path), a crash can
leave the *latest* step present on some ranks only.  :func:`latest_common_step`
agrees on the newest step every rank holds — an allgather of local step
sets, intersected identically everywhere — which is the step ``resume()``
restores from.

**World-stamped checkpoints.**  Elastic restarts can resume a run with a
*different* rank count than the one that wrote the checkpoints, so files
written with ``world=p`` carry the writer's world size in their name
(``step00000004.of0003.rank1.npz``).  Unstamped names
(``step00000004.rank1.npz``) remain valid — they are read as "world
unknown" legacy files and still participate in same-world resume.  The
stamp lets :func:`latest_common_step` ignore stale files left behind by a
larger previous world, and lets :func:`latest_complete_step` +
:func:`gather_global_state` reconstruct the canonical global state from a
complete p-rank checkpoint set so a new p′-rank world can re-shard it.
"""

from __future__ import annotations

import os
import pickle
import re
import tempfile
from typing import Any

import numpy as np

from repro.comm.payload import ArrayRef, join, split

#: Legacy checkpoint filename pattern: one file per (step, rank).
_FILE_FMT = "step{step:08d}.rank{rank}.npz"
#: World-stamped pattern: one file per (step, world, rank).
_WORLD_FMT = "step{step:08d}.of{world:04d}.rank{rank}.npz"
#: Matches both forms; group "world" is absent on legacy names.
_NAME_RE = re.compile(
    r"^step(?P<step>\d{8})(?:\.of(?P<world>\d{4}))?\.rank(?P<rank>\d+)\.npz$"
)
_META_KEY = "__meta__"


def parse_checkpoint_name(name: str) -> tuple[int, int | None, int] | None:
    """``(step, world_or_None, rank)`` for a checkpoint basename, else None."""
    m = _NAME_RE.match(name)
    if m is None:
        return None
    world = m.group("world")
    return (int(m.group("step")), int(world) if world else None, int(m.group("rank")))


#: Skeletons pickled before the placeholder moved to ``comm/payload.py``
#: name it ``repro.core.checkpoint._ArrRef``; checkpoints on disk outlive
#: the code that wrote them.
_ArrRef = ArrayRef


def checkpoint_path(
    directory: str, step: int, rank: int, world: int | None = None
) -> str:
    """Final filename for ``(step, rank)`` — world-stamped iff ``world`` given."""
    if world is None:
        return os.path.join(directory, _FILE_FMT.format(step=step, rank=rank))
    return os.path.join(
        directory, _WORLD_FMT.format(step=step, world=world, rank=rank)
    )


def save_state(
    directory: str, step: int, rank: int, state: Any, *, world: int | None = None
) -> str:
    """Atomically persist ``state`` for ``(step, rank)``; return the path.

    ``state`` is any pickle-able tree; ndarrays anywhere inside it are
    stored exactly.  The write is temp-file + fsync + ``os.replace``, so a
    concurrent reader (or a crash at any instant) never observes a partial
    checkpoint under the final name.  Pass ``world`` (the writer's rank
    count) to emit a world-stamped name that elastic resume can re-shard.
    """
    os.makedirs(directory, exist_ok=True)
    # Arrays stay out of the pickle: ``savez`` stores them losslessly and
    # keeps the file inspectable and the arrays lazily loadable.
    skeleton, arrays = split(state, lambda arr: True)
    payload = {f"a{i}": arr for i, arr in enumerate(arrays)}
    payload[_META_KEY] = np.frombuffer(
        pickle.dumps(skeleton, protocol=pickle.HIGHEST_PROTOCOL), dtype=np.uint8
    )
    final = checkpoint_path(directory, step, rank, world)
    fd, tmp = tempfile.mkstemp(
        prefix=f".tmp-step{step:08d}.rank{rank}-", suffix=".npz", dir=directory
    )
    try:
        with os.fdopen(fd, "wb") as f:
            np.savez(f, **payload)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, final)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return final


def load_state(
    directory: str, step: int, rank: int, world: int | None = None
) -> Any:
    """Load the checkpoint saved for ``(step, rank)``.

    With ``world`` given, the world-stamped file is preferred; a legacy
    unstamped file for the same ``(step, rank)`` is accepted as a fallback
    so runs that upgraded mid-flight still resume.
    """
    path = checkpoint_path(directory, step, rank, world)
    if world is not None and not os.path.exists(path):
        legacy = checkpoint_path(directory, step, rank)
        if os.path.exists(legacy):
            path = legacy
    with np.load(path, allow_pickle=False) as npz:
        skeleton = pickle.loads(npz[_META_KEY].tobytes())
        arrays = [npz[f"a{i}"] for i in range(len(npz.files) - 1)]
    return join(skeleton, arrays)


def _rank_files(
    directory: str, rank: int, world: int | None
) -> dict[int, list[str]]:
    """Map step -> this rank's checkpoint basenames for that step.

    ``world=None`` accepts every stamp (plus legacy names) — the permissive
    listing used by pruning and forensics.  ``world=p`` accepts only files
    stamped ``of{p}`` and unstamped legacy files, which is what makes
    resume ignore stale leftovers from a differently-sized previous world.
    """
    if not os.path.isdir(directory):
        return {}
    files: dict[int, list[str]] = {}
    for name in os.listdir(directory):
        parsed = parse_checkpoint_name(name)
        if parsed is None:
            continue
        step, file_world, file_rank = parsed
        if file_rank != rank:
            continue
        if world is not None and file_world is not None and file_world != world:
            continue
        files.setdefault(step, []).append(name)
    return files


def local_steps(
    directory: str, rank: int, world: int | None = None
) -> list[int]:
    """Steps for which this rank holds a (complete) checkpoint, sorted.

    ``world`` filters as in :func:`_rank_files`: ``None`` lists every file
    of this rank; an integer restricts to that world's stamp plus legacy
    unstamped names.
    """
    return sorted(_rank_files(directory, rank, world))


def latest_common_step(directory: str, comm) -> int | None:
    """The newest step checkpointed on *every* rank of ``comm``, or ``None``.

    Ranks save with no barrier, so a crash mid-cadence can leave the newest
    step on a subset of ranks; resuming from it would desynchronize the
    replicas.  Every rank allgathers its local step set and intersects the
    results identically, so all ranks agree without a designated root.
    Mismatched per-rank step sets are expected (the intersection handles
    them); files stamped for a world of a different size — stale leftovers
    from before an elastic shrink or grow — are excluded up front, since a
    step that was "common" at world p proves nothing at world p′.
    """
    mine = np.asarray(
        local_steps(directory, comm.rank, world=comm.size), dtype=np.int64
    )
    all_steps = comm.allgather(mine)
    common = set(all_steps[0].tolist())
    for steps in all_steps[1:]:
        common &= set(steps.tolist())
    return max(common) if common else None


def latest_complete_step(directory: str) -> tuple[int, int] | None:
    """Newest ``(step, world)`` for which a *complete* stamped set exists.

    A set is complete when every rank ``0..world-1`` of some stamped world
    has a final-name file for the step.  Only world-stamped files are
    considered: a legacy name does not say how many ranks wrote it, so it
    cannot prove completeness.  Ties on step prefer the larger world (more
    files had to survive, so the evidence is stronger).  This is the scan a
    restarted world of a *different* size uses to pick its resume point.
    """
    if not os.path.isdir(directory):
        return None
    ranks_seen: dict[tuple[int, int], set[int]] = {}
    for name in os.listdir(directory):
        parsed = parse_checkpoint_name(name)
        if parsed is None or parsed[1] is None:
            continue
        step, world, rank = parsed
        ranks_seen.setdefault((step, world), set()).add(rank)
    complete = [
        key for key, ranks in ranks_seen.items()
        if ranks >= set(range(key[1]))
    ]
    return max(complete) if complete else None


def _diverging_path(a: Any, b: Any, path: str) -> str | None:
    """First path where two state trees differ bitwise, or None."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        if (
            not isinstance(a, np.ndarray)
            or not isinstance(b, np.ndarray)
            or a.dtype != b.dtype
            or a.shape != b.shape
            or a.tobytes() != b.tobytes()
        ):
            return path
        return None
    if type(a) is not type(b):
        return path
    if isinstance(a, dict):
        if set(a) != set(b):
            return path
        for k in a:
            hit = _diverging_path(a[k], b[k], f"{path}.{k}")
            if hit:
                return hit
        return None
    if isinstance(a, (list, tuple)):
        if len(a) != len(b):
            return path
        for i, (x, y) in enumerate(zip(a, b)):
            hit = _diverging_path(x, y, f"{path}[{i}]")
            if hit:
                return hit
        return None
    return None if a == b else path


def gather_global_state(directory: str, step: int, world: int) -> Any:
    """Canonical global state at ``step`` from a complete ``world``-rank set.

    Training state here is *replicated*: every rank checkpoints the same
    parameters, optimizer slots, and RNG position (data batches are drawn
    from a shared stream).  Re-sharding for a new world size is therefore
    "load one replica" — but a silent divergence between replicas would
    make the choice of replica load-bearing, so all ``world`` files are
    read and verified bitwise-identical first.  Raises ``ValueError``
    naming the first diverging leaf if the replicas disagree.
    """
    states = [load_state(directory, step, r, world) for r in range(world)]
    canonical = states[0]
    for rank in range(1, world):
        hit = _diverging_path(canonical, states[rank], "state")
        if hit is not None:
            raise ValueError(
                f"checkpoint replicas diverge at step {step} "
                f"(world {world}): rank 0 and rank {rank} disagree at "
                f"{hit}; refusing to re-shard ambiguous state"
            )
    return canonical


def prune(directory: str, rank: int, keep: int) -> list[int]:
    """Drop this rank's oldest checkpoints, keeping the newest ``keep``.

    ``keep=0`` means "keep none": every checkpoint of this rank is
    removed.  (Historically ``keep=0`` silently kept everything — the
    ``steps[:-0]`` empty-slice trap — and a negative ``keep`` deleted the
    *newest* files; both now behave as documented.)  Negative ``keep``
    raises ``ValueError``.  Returns the steps removed.  Stale temp files
    from interrupted saves are swept too.
    """
    if keep < 0:
        raise ValueError(f"keep must be >= 0, got {keep}")
    files = _rank_files(directory, rank, world=None)
    steps = sorted(files)
    removed: list[int] = []
    for step in (steps if keep == 0 else steps[:-keep]):
        dropped = False
        for name in files[step]:
            try:
                os.unlink(os.path.join(directory, name))
                dropped = True
            except OSError:
                pass
        if dropped:
            removed.append(step)
    for name in os.listdir(directory):
        if name.startswith(".tmp-") and f".rank{rank}-" in name:
            try:
                os.unlink(os.path.join(directory, name))
            except OSError:
                pass
    return removed
