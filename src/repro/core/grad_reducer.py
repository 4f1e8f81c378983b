"""Overlapped, bucketed dL/dw allreduce (paper §IV's communication hiding).

The paper starts each layer's weight-gradient allreduce "as soon as its
filter convolution finishes" and lets it proceed concurrently with the
remaining backpropagation, draining everything before the optimizer step.
:class:`BucketedGradReducer` implements that discipline over the
nonblocking :meth:`~repro.comm.communicator.Communicator.iallreduce`:

* as each layer's partials become ready, they are appended to the bucket of
  their *gradient group* (the sub-communicator over the grid axes along
  which the layer's output is partitioned — different layers may reduce
  over different groups);
* when a bucket exceeds ``bucket_bytes`` it is flushed: the member arrays
  are flattened into one contiguous buffer and a single ``iallreduce`` is
  launched, amortizing per-collective latency over many small tensors
  (exactly NCCL/Horovod-style gradient bucketing);
* :meth:`drain` flushes the remainders, waits for every in-flight request,
  and scatters the reduced buffers back into per-layer gradient dicts.

``algorithm`` selects how each bucket moves on the wire (the
:meth:`~repro.comm.communicator.Communicator.iallreduce` knob): the
default ``"auto"`` picks the model-driven schedule — ring / Rabenseifner
buckets cost ``2n(p-1)/p`` bytes per rank instead of the deposit-combine
path's ``n(p-1)`` — and ``"direct"`` pins the legacy bitwise-reference
exchange.

Bitwise stability (``algorithm="direct"``): a direct allreduce combines
contributions element-wise in comm-rank order, so concatenating tensors
into one buffer performs the *identical* floating-point additions as
reducing them one by one — so where the buckets are cut and when they are
drained (at the end of backprop, or after every layer with
``DistNetwork(overlap_grad_reduce=False)``) never changes the bits, which
``tests/test_overlap_reducer.py`` verifies on whole training runs.
Scheduled algorithms chunk the bucket, so their reduction order (still
deterministic across runs and backends) depends on the bucketing:
drain-at-end vs drain-per-layer and ``"auto"``-vs-``"direct"`` then match
to floating-point allclose rather than bitwise.

All ranks of a group traverse layers in the same (reverse topological)
order, so buckets fill and flush at identical points everywhere and the
iallreduce sequence numbers line up — the same invariant MPI imposes on
collective call order.

Ownership: :meth:`BucketedGradReducer.add` takes the partials over.  Every
bucket is *donated* to its ``iallreduce`` — a multi-tensor bucket is a
fresh concatenation, a single-tensor bucket is the layer's own partial —
so a scheduled allreduce reduces in that memory and the reduced gradients
returned by ``poll``/``drain`` may be views of the arrays that were added.
A caller that still needs a partial after ``add`` must pass a copy.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.comm.communicator import Communicator, Request
from repro.obs import tracer as _trace

#: Default bucket size.  Gradients smaller than this are coalesced; a single
#: tensor larger than this still goes out as one (unsplit) allreduce.
DEFAULT_BUCKET_BYTES = 1 << 18


class _Bucket:
    __slots__ = ("comm", "entries", "arrays", "nbytes")

    def __init__(self, comm: Communicator) -> None:
        self.comm = comm
        #: (layer, param, shape, size) in deposit order.
        self.entries: list[tuple[str, str, tuple[int, ...], int]] = []
        self.arrays: list[np.ndarray] = []
        self.nbytes = 0


class BucketedGradReducer:
    """Launches bucketed nonblocking gradient allreduces; drains on demand."""

    def __init__(
        self,
        bucket_bytes: int = DEFAULT_BUCKET_BYTES,
        algorithm: str | None = None,
        segment_bytes: int | str | None = None,
    ) -> None:
        if bucket_bytes < 1:
            raise ValueError(f"bucket_bytes must be >= 1, got {bucket_bytes}")
        self.bucket_bytes = bucket_bytes
        #: Collective algorithm for the bucket allreduces (None == "auto").
        self.algorithm = algorithm
        #: Segment size for the bucket allreduces (the
        #: :meth:`~repro.comm.communicator.Communicator.iallreduce` knob):
        #: segmented buckets progress one pipeline segment per ``poll``
        #: probe instead of one whole schedule chunk, so the optimizer can
        #: start on early-finishing buckets while later segments are still
        #: on the wire.
        self.segment_bytes = segment_bytes
        self._buckets: dict[Any, _Bucket] = {}
        self._inflight: list[tuple[Request, _Bucket]] = []
        self._done: dict[str, dict[str, np.ndarray]] = {}

    # -- producing side ------------------------------------------------------
    def add(
        self,
        layer: str,
        partials: dict[str, np.ndarray],
        comm: Communicator | None,
    ) -> dict[str, np.ndarray] | None:
        """Queue a layer's gradient partials for reduction over ``comm``,
        taking ownership of the arrays (they may be reduced in place).

        ``comm=None`` (or a singleton group) means the partials are already
        complete — they pass straight through to the output and are
        returned; a queued layer returns ``None``.
        """
        if comm is None or comm.size == 1:
            done = self._done[layer] = dict(partials)
            return done
        bucket = self._buckets.get(comm._key)
        if bucket is None:
            bucket = _Bucket(comm)
            self._buckets[comm._key] = bucket
        for pname, arr in partials.items():
            bucket.entries.append((layer, pname, arr.shape, arr.size))
            bucket.arrays.append(arr)
            bucket.nbytes += arr.nbytes
        if bucket.nbytes >= self.bucket_bytes:
            self._flush(comm._key)
        return None

    def _flush(self, key: Any) -> None:
        bucket = self._buckets.pop(key)
        if not bucket.arrays:
            return
        if len(bucket.arrays) == 1:
            flat = bucket.arrays[0].ravel()  # view when contiguous: zero-copy
        else:
            flat = np.concatenate([a.ravel() for a in bucket.arrays])
        bucket.arrays = []
        self._inflight.append(
            (
                bucket.comm.iallreduce(
                    flat,
                    algorithm=self.algorithm,
                    segment_bytes=self.segment_bytes,
                    donate=True,  # ours since add(), or built just above
                ),
                bucket,
            )
        )

    # -- draining side -------------------------------------------------------
    @property
    def inflight(self) -> int:
        """Number of launched, not-yet-drained allreduces."""
        return len(self._inflight)

    def _scatter(self, bucket: _Bucket, flat: np.ndarray) -> list[str]:
        """Split a reduced bucket back into per-layer grads in ``_done``.

        Returns the layers the bucket contributed to, in deposit order.
        """
        layers: list[str] = []
        offset = 0
        for layer, pname, shape, size in bucket.entries:
            self._done.setdefault(layer, {})[pname] = flat[
                offset : offset + size
            ].reshape(shape)
            offset += size
            if not layers or layers[-1] != layer:
                layers.append(layer)
        return layers

    def poll(self) -> dict[str, dict[str, np.ndarray]]:
        """Probe in-flight buckets; return the layers that just completed.

        Each call ``test()``s every outstanding request (driving one more
        pipeline segment of each segmented schedule), scatters any bucket
        that finished, and returns ``{layer: {param: grad}}`` for the
        layers whose gradients became complete on *this* probe — the hook
        the trainer uses to hand the optimizer partially-drained buckets
        while later segments are still on the wire.  Completed grads also
        stay in :attr:`_done` for the final :meth:`drain`, so a caller may
        ignore ``poll`` results entirely: ``drain`` still returns every
        layer, and applying updates per ``poll`` batch or all at once is
        numerically identical (each layer's gradient is complete when
        returned).  Pending (unflushed) buckets are not launched — only
        already-launched requests make progress.
        """
        fresh: dict[str, dict[str, np.ndarray]] = {}
        still: list[tuple[Request, _Bucket]] = []
        for request, bucket in self._inflight:
            if request.test():
                for layer in self._scatter(bucket, request.wait()):
                    fresh[layer] = self._done[layer]
            else:
                still.append((request, bucket))
        self._inflight = still
        return fresh

    def drain(self) -> dict[str, dict[str, np.ndarray]]:
        """Flush pending buckets, wait for all requests, return the grads.

        Includes every layer already completed by earlier :meth:`poll`
        calls — ``drain`` is always the complete picture.
        """
        with _trace.span(
            "grad.drain", cat="train",
            pending=len(self._buckets), inflight=len(self._inflight),
        ):
            for key in list(self._buckets):
                self._flush(key)
            for request, bucket in self._inflight:
                self._scatter(bucket, request.wait())
        self._inflight.clear()
        out = self._done
        self._done = {}
        return out
