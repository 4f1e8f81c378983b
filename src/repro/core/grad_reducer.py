"""Overlapped, bucketed dL/dw allreduce (paper §IV's communication hiding),
with the optimizer step fused into it.

The paper starts each layer's weight-gradient allreduce "as soon as its
filter convolution finishes" and lets it proceed concurrently with the
remaining backpropagation.  :class:`BucketedGradReducer` implements that
discipline over the nonblocking
:meth:`~repro.comm.communicator.Communicator.iallreduce`:

* the buckets are the lowered schedule's
  (:meth:`~repro.core.schedule.StepSchedule.grad_buckets`, the one cut
  rule): as each layer's partials become ready they join their bucket, and
  a bucket is flushed after its last layer (a ``full`` one) or at the final
  drain — its member arrays flattened into one contiguous buffer and
  reduced by a single ``iallreduce`` over the bucket's *gradient group*
  (the sub-communicator over the grid axes along which the layer's output
  is partitioned), amortizing per-collective latency over many small
  tensors (NCCL/Horovod-style gradient bucketing);
* launching a bucket completes the one launched before it (``completes``
  of :class:`~repro.core.schedule.GradBucket`): at most one bucket is in
  flight, overlapping the backpropagation that fills the next, so a rank
  holds at most two buckets' gradients — the one in flight and the
  one being filled — instead of every gradient of the step.  The wait
  sits at a fixed point of the step, not at whatever a probe finds
  finished, so the step's memory is the same under any message timing;
* :meth:`drain` flushes the remainders and waits for the last in-flight
  requests.

**The fused update.**  With an :attr:`~BucketedGradReducer.optimizer` set,
the optimizer step rides inside the reduction — Das et al.'s part-reduce /
part-broadcast.  Each bucket's ``iallreduce`` gets an ``update`` map,
``SGD.step`` on the bucket's parameters restricted to the elements whose
fold completes on this rank
(:meth:`~repro.comm.communicator.Communicator.owned_range`), and the
parameters as its output buffer, so the allgather half carries updated
weights instead of gradients: a single-tensor bucket's allgather lands
straight in the parameter array, a multi-tensor bucket stages its owned
slices in the reduced buffer and copies the rest into the parameters when
it completes.  Wire bytes and messages are the plain allreduce's, and every
element is updated from the same reduced gradient by the same arithmetic —
the parameters are bitwise those of reducing first and stepping every
replica after (``tests/test_fused_update.py``).  Under ring and
Rabenseifner each element is updated once per gradient group: a rank steps
~1/p of each bucket and keeps momentum for that much.  Under ``"direct"``
and power-of-two recursive doubling every rank steps the whole bucket, as
the replicated update would; a rank that recursive doubling folds away
steps none of it.  Without an optimizer, ``poll``/``drain`` return the
reduced gradients instead.

``algorithm`` selects how each bucket moves on the wire (the
:meth:`~repro.comm.communicator.Communicator.iallreduce` knob): the
default ``"auto"`` picks the model-driven schedule — ring / Rabenseifner
buckets cost ``2n(p-1)/p`` bytes per rank instead of the deposit-combine
path's ``n(p-1)`` — and ``"direct"`` pins the legacy bitwise-reference
exchange.  A bucket's reduction runs whole, as one compiled schedule or
one exchange, so each rank finishes the fold of at most one contiguous
range of it.

Bitwise stability (``algorithm="direct"``): a direct allreduce combines
contributions element-wise in comm-rank order, so concatenating tensors
into one buffer performs the *identical* floating-point additions as
reducing them one by one — so where the buckets are cut (one per layer
with ``DistNetwork(grad_bucket_bytes=1)``) never changes the bits, which
``tests/test_overlap_reducer.py`` verifies on whole training runs.
Scheduled algorithms chunk the bucket, so their reduction order (still
deterministic across runs and backends) depends on the bucketing:
different cuts and ``"auto"``-vs-``"direct"`` then match to
floating-point allclose rather than bitwise.

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

from functools import partial
from typing import Any

import numpy as np

from repro.comm.communicator import Communicator, Request
from repro.core.schedule import GradBucket
from repro.obs import tracer as _trace

#: Default bucket size.  Gradients smaller than this are coalesced; a single
#: tensor larger than this still goes out as one (unsplit) allreduce.
DEFAULT_BUCKET_BYTES = 1 << 18


class _Layout:
    """One bucket cut on this rank, derived at its first flush and reused
    every step: where each tensor sits in the flat buffer and, once an
    update is fused, which pieces of which parameters this rank steps."""

    __slots__ = ("entries", "size", "piece", "shards", "landing", "out")

    def __init__(self, entries: list[tuple[str, str, tuple[int, ...], int, int]]):
        #: ``(layer, param, shape, start, size)`` in deposit order.
        self.entries = entries
        self.size = sum(entry[4] for entry in entries)
        #: ``(params, offsets, parts)`` of the owned range: the ``SGD.step``
        #: arguments for it and, per piece, ``(layer, param, start in the
        #: range, size, shape, flat parameter view)``.
        self.piece: tuple | None = None
        #: ``(layer, param)`` -> owned ``(offset, size)`` ranges (``SGD.shard``).
        self.shards: dict[tuple[str, str], tuple[tuple[int, int], ...]] = {}
        #: Multi-tensor bucket: ``(flat parameter view, lo, hi)`` of every
        #: piece another rank updates, copied in from the allgathered buffer.
        self.landing: list[tuple[np.ndarray, int, int]] = []
        #: The ``iallreduce`` output: a single-tensor bucket's parameter.
        self.out: np.ndarray | None = None

    def fuse(
        self,
        params: dict[str, dict[str, np.ndarray]],
        owned: tuple[int, int] | None,
    ) -> None:
        """Derive the pieces of the fused update from this rank's owned
        element range ``[a, b)`` of the bucket (``None``: it owns none)."""
        a, b = owned or (0, 0)
        tree: dict[str, dict[str, np.ndarray]] = {}
        offsets: dict[tuple[str, str], int] = {}
        parts = []
        for layer, pname, shape, start, size in self.entries:
            key, arr = (layer, pname), params[layer][pname]
            if not arr.flags.c_contiguous:
                raise ValueError(
                    f"parameter {layer}.{pname} must be C-contiguous to be "
                    "updated in place"
                )
            flat = arr.reshape(-1)
            lo, hi = max(a, start), min(b, start + size)
            self.shards[key] = ()
            if lo < hi:
                at = lo - start
                view = flat[at : at + hi - lo]
                if hi - lo == size:
                    view = view.reshape(shape)  # whole: momentum keyed as usual
                else:
                    offsets[key] = at
                tree.setdefault(layer, {})[pname] = view
                parts.append((layer, pname, lo - a, hi - lo, view.shape, view))
                self.shards[key] = ((at, hi - lo),)
            if len(self.entries) == 1:
                self.out = flat
                continue
            # The rest of the tensor, on either side of the owned range.
            for lo, hi in ((start, min(a, start + size)), (max(b, start), start + size)):
                if lo < hi:
                    self.landing.append((flat[lo - start : hi - start], lo, hi))
        self.piece = (tree, offsets, parts)


class _Bucket:
    """A bucket being filled this step."""

    __slots__ = ("comm", "names", "arrays")

    def __init__(self, comm: Communicator) -> None:
        self.comm = comm
        self.names: list[tuple[str, str]] = []
        self.arrays: list[np.ndarray] = []


class BucketedGradReducer:
    """Launches the schedule's bucketed nonblocking gradient allreduces —
    with the optimizer step fused in, when one is set — and drains them on
    demand.  One reducer serves every step of one lowered schedule."""

    def __init__(
        self,
        buckets: list[GradBucket],
        params: dict[str, dict[str, np.ndarray]] | None = None,
        algorithm: str | None = None,
    ) -> None:
        #: The cuts, in launch order (``StepSchedule.grad_buckets``).
        self.buckets = tuple(buckets)
        #: The parameters a fused update writes (the network's own arrays).
        self.params = params
        #: Collective algorithm for the bucket allreduces (None == "auto").
        self.algorithm = algorithm
        #: Set for a step to fuse its update into the reduction (an
        #: :class:`~repro.nn.optim.SGD`); ``None`` returns the gradients.
        self.optimizer: Any = None
        self._cut_of = {
            layer: i for i, cut in enumerate(self.buckets) for layer in cut.layers
        }
        self._layouts: dict[int, _Layout] = {}
        self._open: dict[int, _Bucket] = {}
        #: ``(cut index, request, layout)`` in launch order.
        self._inflight: list[tuple[int, Request, _Layout]] = []
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
        complete: they are stepped at once (fused) or pass straight through
        to the output, and are returned; a queued layer returns ``None``.
        """
        if comm is None or comm.size == 1:
            if self.optimizer is not None:
                self._step(self.params, {layer: partials})
                return {}
            done = self._done[layer] = dict(partials)
            return done
        i = self._cut_of[layer]
        bucket = self._open.get(i)
        if bucket is None:
            bucket = self._open[i] = _Bucket(comm)
        for pname, arr in partials.items():
            bucket.names.append((layer, pname))
            bucket.arrays.append(arr)
        cut = self.buckets[i]
        if cut.full and layer == cut.layers[-1]:
            self._flush(i)
        return None

    def _layout(self, i: int, bucket: _Bucket) -> _Layout:
        layout = self._layouts.get(i)
        if layout is None:
            entries, start = [], 0
            for (layer, pname), arr in zip(bucket.names, bucket.arrays):
                entries.append((layer, pname, arr.shape, start, arr.size))
                start += arr.size
            layout = self._layouts[i] = _Layout(entries)
        if self.optimizer is not None and layout.piece is None:
            layout.fuse(
                self.params,
                bucket.comm.owned_range(
                    layout.size, bucket.arrays[0].dtype, algorithm=self.algorithm
                ),
            )
        return layout

    def _flush(self, i: int) -> None:
        self._launch(i)
        # Launching this bucket completes the one before it, and so every
        # earlier one: a completed single-tensor bucket's donated gradient
        # is freed here, during backward.
        last = self.buckets[i].completes
        while last is not None and self._inflight[0][0] <= last:
            _, request, layout = self._inflight.pop(0)
            self._complete(layout, request.wait())

    def _launch(self, i: int) -> None:
        """Start bucket ``i``'s allreduce; its partials die with this frame
        (a multi-tensor bucket's live on only in the concatenation)."""
        bucket = self._open.pop(i)
        layout = self._layout(i, bucket)
        arrays = bucket.arrays
        if len(arrays) == 1:
            flat = arrays[0].ravel()  # view when contiguous: zero-copy
        else:
            flat = np.concatenate([a.ravel() for a in arrays])
        update = out = None
        if self.optimizer is not None:
            self.optimizer.shard(layout.shards)
            update, out = partial(self._update, layout), layout.out
        request = bucket.comm.iallreduce(
            flat,
            algorithm=self.algorithm,
            donate=True,  # ours since add(), or built just above
            update=update,
            out=out,
        )
        self._inflight.append((i, request, layout))

    def _update(
        self, layout: _Layout, lo: int, hi: int, reduced: np.ndarray, dst: np.ndarray
    ) -> None:
        """The fused map: step this rank's pieces of ``[lo, hi)`` from the
        reduced gradient, and (multi-tensor bucket) stage the new weights in
        ``dst`` for the allgather — a single-tensor bucket's ``dst`` is the
        parameter itself."""
        tree, offsets, parts = layout.piece
        grads: dict[str, dict[str, np.ndarray]] = {}
        for layer, pname, at, size, shape, _view in parts:
            grads.setdefault(layer, {})[pname] = reduced[at : at + size].reshape(shape)
        self._step(tree, grads, offsets)
        if layout.out is None:
            for _layer, _pname, at, size, _shape, view in parts:
                dst[at : at + size] = view.reshape(-1)

    def _step(self, params, grads, offsets=None) -> None:
        with _trace.span("optimizer", cat="train", layers=len(grads)):
            self.optimizer.step(params, grads, offsets)

    # -- draining side -------------------------------------------------------
    @property
    def inflight(self) -> int:
        """Number of launched, not-yet-completed allreduces (at most one
        between :meth:`add` calls)."""
        return len(self._inflight)

    def _complete(self, layout: _Layout, result: np.ndarray) -> list[str]:
        """Land a finished bucket: the weights other ranks updated (fused),
        or the reduced gradients split back into per-layer dicts in
        ``_done``.  Returns the layers given gradients, in deposit order."""
        flat = result.reshape(-1)
        if self.optimizer is not None:
            for view, lo, hi in layout.landing:
                view[...] = flat[lo:hi]
            return []
        layers: list[str] = []
        for layer, pname, shape, start, size in layout.entries:
            self._done.setdefault(layer, {})[pname] = flat[
                start : start + size
            ].reshape(shape)
            if not layers or layers[-1] != layer:
                layers.append(layer)
        return layers

    def poll(self) -> dict[str, dict[str, np.ndarray]]:
        """Probe in-flight buckets; return the layers that just completed.

        Each call ``test()``s every outstanding request (driving each
        schedule as far as the arrived messages allow), lands any bucket that
        finished, and returns ``{layer: {param: grad}}`` for the layers
        whose gradients became complete on *this* probe (none when the
        update is fused: a finished bucket is updated weights).  Completed
        grads also stay in :attr:`_done` for the final :meth:`drain` — as do
        those of a bucket the next launch completed, which no probe
        returns — so a caller may ignore ``poll`` results entirely:
        ``drain`` still returns every layer.  Pending (unflushed) buckets
        are not launched — only already-launched requests make progress.
        """
        fresh: dict[str, dict[str, np.ndarray]] = {}
        still: list[tuple[int, Request, _Layout]] = []
        for entry in self._inflight:
            _, request, layout = entry
            if request.test():
                for layer in self._complete(layout, request.wait()):
                    fresh[layer] = self._done[layer]
            else:
                still.append(entry)
        self._inflight = still
        return fresh

    def drain(self) -> dict[str, dict[str, np.ndarray]]:
        """Flush pending buckets, wait for all requests, return the grads
        (empty when the update is fused).

        Includes every layer already completed by earlier :meth:`poll`
        calls — ``drain`` is always the complete picture.
        """
        with _trace.span(
            "grad.drain", cat="train",
            pending=len(self._open), inflight=len(self._inflight),
        ):
            for i in sorted(self._open):
                self._flush(i)
            for _, request, layout in self._inflight:
                self._complete(layout, request.wait())
        self._inflight.clear()
        out = self._done
        self._done = {}
        return out
