"""SGD with momentum and weight decay (LBANN's default training setup)."""

from __future__ import annotations

import numpy as np


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

    def step(
        self,
        params: dict[str, dict[str, np.ndarray]],
        grads: dict[str, dict[str, np.ndarray]],
    ) -> None:
        """Update ``params`` in place from ``grads``."""
        for lname, lgrads in grads.items():
            lparams = params[lname]
            for pname, g in lgrads.items():
                p = lparams[pname]
                if self.weight_decay and pname in ("w",):
                    g = g + self.weight_decay * p
                if self.momentum:
                    key = (lname, pname)
                    v = self._velocity.get(key)
                    if v is None:
                        v = self._velocity[key] = g.copy()
                    else:  # v = momentum * v + g, in place
                        v *= self.momentum
                        v += g
                    g = v
                p -= self.lr * g

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
