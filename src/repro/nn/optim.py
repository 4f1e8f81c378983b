"""SGD with momentum and weight decay (LBANN's default training setup)."""

from __future__ import annotations

import numpy as np

#: Elements per block of the update loop: parameter, velocity, gradient and
#: scratch blocks (4 x 128 KiB in float64) stay cache-resident together.
_BLOCK = 1 << 14


class SGD:
    """Stochastic gradient descent over nested ``{layer: {param: array}}``.

    "SGD can proceed independently on each processor" after the gradient
    allreduce (paper §III-A) describes the *reference* path: every rank
    holds the reduced gradients and applies the identical update to its
    replica.  :class:`~repro.core.trainer.DistTrainer` instead fuses the
    update into the reduction (:class:`~repro.core.grad_reducer.BucketedGradReducer`):
    each rank steps only the slices whose fold it finished and the
    allgather half carries updated weights — under ring and Rabenseifner
    every element is updated once per gradient group — and momentum is kept
    only for those slices (``offsets``, :meth:`shard`).  The update is
    element-wise, so both paths produce the same bits.
    """

    def __init__(
        self,
        lr: float = 0.1,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: dict[tuple[str, str], np.ndarray] = {}
        #: One block of scratch per parameter dtype, reused by every step.
        self._scratch: dict[np.dtype, np.ndarray] = {}

    def step(
        self,
        params: dict[str, dict[str, np.ndarray]],
        grads: dict[str, dict[str, np.ndarray]],
        offsets: dict[tuple[str, str], int] | None = None,
    ) -> None:
        """Update ``params`` in place from ``grads``.

        Per element this is ``g += weight_decay * p`` (weights only),
        ``v = momentum * v + g``, ``p -= lr * v`` — evaluated one
        :data:`_BLOCK`-element block at a time, so each parameter, velocity
        and gradient byte is read once and no tensor-sized temporary is
        allocated.  Element-wise, hence bitwise independent of the blocking
        and of how a parameter is sliced.

        ``offsets[layer, param]``, where given, says the arrays are the
        slice of that parameter starting at that flat element offset (a
        sharded update): its momentum is kept for that slice alone, under
        ``(layer, param, offset)``.
        """
        lr, momentum = self.lr, self.momentum
        for lname, lgrads in grads.items():
            lparams = params[lname]
            for pname, g in lgrads.items():
                p = lparams[pname]
                if not p.flags.c_contiguous:
                    raise ValueError(
                        f"parameter {lname}.{pname} must be C-contiguous to "
                        "be updated in place"
                    )
                decay = self.weight_decay if pname == "w" else 0.0
                v = fresh = None
                if momentum:
                    key = (lname, pname)
                    if offsets is not None and key in offsets:
                        key += (offsets[key],)
                    v = self._velocity.get(key)
                    fresh = v is None
                    if fresh:
                        v = self._velocity[key] = np.empty(g.shape, g.dtype)
                    v = v.reshape(-1)
                p, g = p.reshape(-1), g.ravel()
                t = self._scratch.get(p.dtype)
                if t is None:
                    t = self._scratch[p.dtype] = np.empty(_BLOCK, p.dtype)
                for a in range(0, p.size, _BLOCK):
                    pb, gb = p[a : a + _BLOCK], g[a : a + _BLOCK]
                    tb = t[: pb.size]
                    if decay:
                        np.multiply(pb, decay, out=tb)
                        tb += gb
                        gb = tb
                    if momentum:
                        vb = v[a : a + _BLOCK]
                        if fresh:
                            vb[...] = gb
                        else:  # v = momentum * v + g, in place
                            vb *= momentum
                            vb += gb
                        gb = vb
                    np.multiply(gb, lr, out=tb)
                    pb -= tb

    def shard(
        self, owned: dict[tuple[str, str], tuple[tuple[int, int], ...]]
    ) -> None:
        """Cut full velocities down to the slices this rank will update.

        ``owned[layer, param]`` lists the ``(offset, size)`` element ranges
        of the parameter whose sharded :meth:`step` runs here.  A full
        velocity held for a parameter that is not owned whole — as
        :meth:`load_state_dict` restores one — is replaced by copies of
        those slices (nothing, if none is owned); otherwise this does
        nothing.
        """
        for key, ranges in owned.items():
            full = self._velocity.get(key)
            if full is None or ranges == ((0, full.size),):
                continue
            del self._velocity[key]
            flat = full.reshape(-1)
            for off, size in ranges:
                self._velocity[key + (off,)] = flat[off : off + size].copy()

    def state_dict(self) -> dict:
        """Persistent optimizer state (momentum velocities), as copies —
        keyed ``(layer, param)``, or ``(layer, param, offset)`` for the
        slices of a sharded update."""
        return {
            "lr": self.lr,
            "momentum": self.momentum,
            "weight_decay": self.weight_decay,
            "velocity": {k: v.copy() for k, v in self._velocity.items()},
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output bitwise (velocities are copied:
        ``step`` updates them in place)."""
        self.lr = state["lr"]
        self.momentum = state["momentum"]
        self.weight_decay = state["weight_decay"]
        self._velocity = {
            tuple(k): v.copy() for k, v in state["velocity"].items()
        }
