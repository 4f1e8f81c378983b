"""Atomic training checkpoints: one file per step, bitwise-exact restore.

A synchronous data/model-parallel job dies as a unit — one lost rank wipes
the whole run — so checkpoints are the difference between losing a step and
losing a day.  The sample, spatial and hybrid decompositions replicate the
training state on every rank (parameters, BN statistics, step counter, data
RNG position; the sharded momentum is allgathered at save), so one copy *is*
the state: a save writes one file per step, ``step{N:08d}.npz``, and any
world size resumes from it.  What a save must check is that the replicas
agree — :func:`fingerprint` and :func:`verify_replicas` — not that p files
match.  Two properties the fault-tolerance tests lean on:

* **Atomicity** — state is serialized to a temp file in the same directory,
  fsync'd, then ``os.replace``'d into its final name.  A writer killed
  mid-write leaves a stale temp file (swept by the next :func:`prune`),
  never a truncated checkpoint; any file with a final name is complete, so
  the newest one is always a valid resume point.
* **Bitwise fidelity** — arrays round-trip through ``np.savez`` untouched
  (dtype, shape, and every bit of every element), and the non-array
  skeleton (step counters, RNG bit-generator state, scalar hyperparams)
  rides along as one pickled blob.  Restoring a checkpoint and continuing
  training reproduces the uninterrupted run exactly — verified by
  ``tests/test_checkpoint.py`` on every world backend.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import re
import tempfile
from typing import Any

import numpy as np

from repro.comm.payload import join, split

_FILE_FMT = "step{step:08d}.npz"
_NAME_RE = re.compile(r"^step(\d{8})\.npz$")
_TMP_PREFIX = ".tmp-step"
_META_KEY = "__meta__"


def checkpoint_path(directory: str, step: int) -> str:
    """Final filename of the checkpoint for ``step``."""
    return os.path.join(directory, _FILE_FMT.format(step=step))


def save_state(directory: str, step: int, state: Any) -> str:
    """Atomically persist ``state`` as the checkpoint for ``step``; return
    the path.

    ``state`` is any pickle-able tree; ndarrays anywhere inside it are
    stored exactly.  The write is temp-file + fsync + ``os.replace``, so a
    concurrent reader (or a crash at any instant) never observes a partial
    checkpoint under the final name.
    """
    os.makedirs(directory, exist_ok=True)
    # Arrays stay out of the pickle: ``savez`` stores them losslessly and
    # keeps the file inspectable and the arrays lazily loadable.
    skeleton, arrays = split(state, lambda arr: True)
    payload = {f"a{i}": arr for i, arr in enumerate(arrays)}
    payload[_META_KEY] = np.frombuffer(
        pickle.dumps(skeleton, protocol=pickle.HIGHEST_PROTOCOL), dtype=np.uint8
    )
    fd, tmp = tempfile.mkstemp(
        prefix=f"{_TMP_PREFIX}{step:08d}-", suffix=".npz", dir=directory
    )
    try:
        with os.fdopen(fd, "wb") as f:
            np.savez(f, **payload)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, checkpoint_path(directory, step))
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return checkpoint_path(directory, step)


def load_state(directory: str, step: int) -> Any:
    """Load the checkpoint saved for ``step``."""
    with np.load(checkpoint_path(directory, step), allow_pickle=False) as npz:
        skeleton = pickle.loads(npz[_META_KEY].tobytes())
        arrays = [npz[f"a{i}"] for i in range(len(npz.files) - 1)]
    return join(skeleton, arrays)


def saved_steps(directory: str) -> list[int]:
    """Steps with a (complete, final-name) checkpoint in ``directory``,
    sorted; empty when the directory does not exist."""
    if not os.path.isdir(directory):
        return []
    return sorted(
        int(m.group(1)) for m in map(_NAME_RE.match, os.listdir(directory)) if m
    )


def prune(directory: str, keep: int) -> list[int]:
    """Drop the oldest checkpoints, keeping the newest ``keep``.

    ``keep=0`` means "keep none": every checkpoint is removed.  (Historically
    ``keep=0`` silently kept everything — the ``steps[:-0]`` empty-slice trap
    — and a negative ``keep`` deleted the *newest* files; both now behave as
    documented.)  Negative ``keep`` raises ``ValueError``.  Returns the steps
    removed.  Stale temp files from interrupted saves are swept too.
    """
    if keep < 0:
        raise ValueError(f"keep must be >= 0, got {keep}")
    steps = saved_steps(directory)
    removed: list[int] = []
    for step in (steps if keep == 0 else steps[:-keep]):
        try:
            os.unlink(checkpoint_path(directory, step))
            removed.append(step)
        except OSError:
            pass
    for name in os.listdir(directory):
        if name.startswith(_TMP_PREFIX):
            try:
                os.unlink(os.path.join(directory, name))
            except OSError:
                pass
    return removed


def fingerprint(leaves: dict[str, Any]) -> dict[str, bytes]:
    """A hash per named leaf: an array's dtype, shape and bytes (so ``0.0``
    and ``-0.0`` differ), any other value's pickle."""
    out = {}
    for name, value in leaves.items():
        h = hashlib.blake2b(digest_size=16)
        if isinstance(value, np.ndarray):
            h.update(f"{value.dtype.str}{value.shape}".encode())
            h.update(np.ascontiguousarray(value).reshape(-1).view(np.uint8))
        else:
            h.update(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
        out[name] = h.digest()
    return out


def verify_replicas(fingerprints: list[dict[str, bytes]], step: int) -> None:
    """Raise ``ValueError`` naming the first rank and leaf whose
    :func:`fingerprint` differs from rank 0's (``fingerprints`` in rank
    order).  Every rank runs it on the same allgathered list, so every rank
    raises, or none does."""
    ref = fingerprints[0]
    for rank, fp in enumerate(fingerprints[1:], 1):
        for name in [*ref, *(k for k in fp if k not in ref)]:
            if fp.get(name) != ref.get(name):
                raise ValueError(
                    f"checkpoint replicas diverge at step {step}: rank {rank} "
                    f"and rank 0 disagree at {name}; refusing to save "
                    f"ambiguous state"
                )
