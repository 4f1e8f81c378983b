"""SGD with momentum and weight decay (LBANN's default training setup)."""

from __future__ import annotations

import numpy as np

#: Elements per block of the update loop: parameter, velocity, gradient and
#: scratch blocks (4 x 128 KiB in float64) stay cache-resident together.
_BLOCK = 1 << 14


class SGD:
    """Stochastic gradient descent over nested ``{layer: {param: array}}``.

    After the gradient allreduce, "SGD can proceed independently on each
    processor" (paper §III-A): every rank holds identical replicated
    parameters and applies identical updates, so no further communication is
    needed.  The update is deterministic for bitwise replica consistency.
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
    ) -> None:
        """Update ``params`` in place from ``grads``.

        Per element this is ``g += weight_decay * p`` (weights only),
        ``v = momentum * v + g``, ``p -= lr * v`` — evaluated one
        :data:`_BLOCK`-element block at a time, so each parameter, velocity
        and gradient byte is read once and no tensor-sized temporary is
        allocated.  Element-wise, hence bitwise independent of the blocking.
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
                    v = self._velocity.get((lname, pname))
                    fresh = v is None
                    if fresh:
                        v = self._velocity[(lname, pname)] = np.empty(
                            g.shape, g.dtype
                        )
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

    def state_dict(self) -> dict:
        """Persistent optimizer state (momentum velocities), as copies."""
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
