"""The distributed training loop.

"SGD can proceed independently on each processor" after the gradient
allreduce (§III-A) describes the reference path — reduce, then step every
replica — not what a :meth:`DistTrainer.step` runs.  Here the step is fused
into the bucketed reduction (:mod:`repro.core.grad_reducer`): each rank
updates the slices whose fold it finished, between the reduce-scatter and
allgather halves of each bucket, and the allgather carries updated weights.
Under ring and Rabenseifner (what ``"auto"`` picks for large buckets) every
weight is updated once per gradient group rather than once per rank, each
rank keeps momentum only for what it updates, and the replicas stay
bitwise equal to the reference path's (``tests/test_fused_update.py``).

The trainer also surfaces the communication picture of each run: per-step
wall time plus the communicator's :class:`~repro.comm.stats.CommStats`,
whose wait-vs-overlap split measures how much of the (bucketed, nonblocking)
gradient allreduce was actually hidden behind backpropagation — the
empirical counterpart of the cost model's exposed-allreduce term (§V-B).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.nn.optim import SGD
from repro.core import checkpoint as ckpt
from repro.core.dist_network import DistNetwork
from repro.obs import tracer as _trace
from repro.obs.logging import get_logger


@dataclass
class TrainStats:
    """Per-step records collected during training."""

    losses: list[float] = field(default_factory=list)
    step_seconds: list[float] = field(default_factory=list)
    steps: int = 0

    def record(self, loss: float, seconds: float = 0.0) -> None:
        self.losses.append(float(loss))
        self.step_seconds.append(float(seconds))
        self.steps += 1

    @property
    def last_loss(self) -> float:
        return self.losses[-1]

    @property
    def total_seconds(self) -> float:
        return sum(self.step_seconds)


class DistTrainer:
    """Couples a :class:`DistNetwork` with an optimizer.

    Checkpointing (optional): with ``checkpoint_dir`` set, each rank writes
    an atomic checkpoint of the parameters, optimizer momentum, batch-norm
    running statistics, step counter, and the data ``rng``'s bit-generator
    state every ``checkpoint_every`` steps (and on :meth:`save_checkpoint`).
    :meth:`resume` restores the newest step present on *every* rank and is
    bitwise exact: a killed-and-resumed run produces the same parameters
    and losses as an uninterrupted one, on both world backends
    (``tests/test_checkpoint.py``).  Pass the generator that draws your
    mini-batches as ``rng`` so resumed runs replay the same data order.
    """

    def __init__(
        self,
        network: DistNetwork,
        optimizer: SGD | None = None,
        checkpoint_dir: str | None = None,
        checkpoint_every: int = 0,
        checkpoint_keep: int = 2,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.network = network
        self.optimizer = optimizer or SGD(lr=0.1)
        self.stats = TrainStats()
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = checkpoint_every
        self.checkpoint_keep = checkpoint_keep
        self.rng = rng
        #: Completed optimizer steps (the unit checkpoints are keyed by).
        self.step_index = 0

    def step(self, inputs, targets) -> float:
        """One training step: forward, then backward with the overlapped
        bucket reductions, each bucket's update fused into its own."""
        with _trace.span("step", cat="train", index=self.step_index):
            return self._step(inputs, targets)

    def _step(self, inputs, targets) -> float:
        t0 = perf_counter()
        loss, _ = self.network.loss_and_grad(
            inputs, targets, optimizer=self.optimizer
        )
        self.stats.record(loss, perf_counter() - t0)
        self.step_index += 1
        if (
            self.checkpoint_dir is not None
            and self.checkpoint_every > 0
            and self.step_index % self.checkpoint_every == 0
        ):
            self.save_checkpoint()
        return loss

    # -- checkpoint/resume -------------------------------------------------
    def save_checkpoint(self) -> str:
        """Atomically persist this rank's training state; return the path.

        One collective: momentum is sharded in memory (each rank keeps the
        slices it updates), so the full velocity is assembled from the
        owners' slices by one allgather over the world, and every rank
        writes the same replicated state.  Every rank must call this at the
        same step (``checkpoint_every`` does).  The writes themselves are
        independent, and :meth:`resume` agrees on the newest step every
        rank holds, so a rank killed mid-write costs one cadence, not the
        run.
        """
        if self.checkpoint_dir is None:
            raise RuntimeError("DistTrainer has no checkpoint_dir configured")
        with _trace.span("checkpoint", cat="train", step=self.step_index):
            return self._save_checkpoint()

    def _replicated_velocity(self, local: dict) -> dict:
        """The full velocity of every parameter, from every rank's
        ``(layer, param)`` arrays and ``(layer, param, offset)`` slices —
        identical on every rank (the slices of one element agree wherever
        several ranks hold them)."""
        full: dict[tuple[str, str], np.ndarray] = {}
        for piece in self.network.comm.allgather(local):
            for key, v in sorted(piece.items(), key=lambda kv: len(kv[0])):
                layer, pname, *offset = key
                if not offset:
                    full[key] = np.array(v)
                    continue
                dst = full.get((layer, pname))
                if dst is None:
                    shape = self.network.params[layer][pname].shape
                    dst = full[layer, pname] = np.empty(shape, v.dtype)
                dst.reshape(-1)[offset[0] : offset[0] + v.size] = v
        return full

    def _save_checkpoint(self) -> str:
        optimizer = self.optimizer.state_dict()
        optimizer["velocity"] = self._replicated_velocity(optimizer["velocity"])
        state = {
            "step": self.step_index,
            "network": self.network.state_dict(),
            "optimizer": optimizer,
            "rng": self.rng.bit_generator.state if self.rng is not None else None,
        }
        comm = self.network.comm
        path = ckpt.save_state(
            self.checkpoint_dir, self.step_index, comm.rank, state,
            world=comm.size,
        )
        if self.checkpoint_keep > 0:
            ckpt.prune(self.checkpoint_dir, comm.rank, self.checkpoint_keep)
        return path

    def resume(self) -> int | None:
        """Restore the newest checkpoint step all ranks hold; return it.

        Returns ``None`` (leaving state untouched) when no common
        checkpoint exists.  Restoration is bitwise: parameters, momentum,
        BN running stats, the step counter, and the data RNG state all
        match the values at save time exactly.
        """
        comm = self.network.comm
        step = ckpt.latest_common_step(self.checkpoint_dir, comm)
        if step is None:
            return None
        state = ckpt.load_state(
            self.checkpoint_dir, step, comm.rank, world=comm.size
        )
        self._load_state(state)
        return self.step_index

    def resume_elastic(self) -> tuple[int, int] | None:
        """Restore from the newest usable checkpoint, re-sharding if needed.

        Same-world sets resume exactly like :meth:`resume` (bitwise).  When
        none exists — the previous incarnation ran with a different rank
        count — rank 0 scans for the newest *complete* world-stamped set,
        broadcasts the choice, and every rank loads the verified canonical
        global state (:func:`repro.core.checkpoint.gather_global_state`).
        Parameters, momentum, BN statistics, and the data-RNG position are
        replicated, so re-sharding for the new world is loading the
        canonical replica under the freshly-planned strategy; each rank
        then stamps a checkpoint for the *new* world at the resume step so
        the next restart at this size takes the bitwise path.

        Returns ``(step, source_world)``, or ``None`` when the directory
        holds nothing usable.
        """
        comm = self.network.comm
        step = ckpt.latest_common_step(self.checkpoint_dir, comm)
        if step is not None:
            state = ckpt.load_state(
                self.checkpoint_dir, step, comm.rank, world=comm.size
            )
            self._load_state(state)
            return (self.step_index, comm.size)
        found = comm.bcast(
            ckpt.latest_complete_step(self.checkpoint_dir)
            if comm.rank == 0 else None
        )
        if found is None:
            return None
        step, src_world = found
        with _trace.span(
            "resume_reshard", cat="elastic",
            step=step, src_world=src_world, world=comm.size,
        ):
            state = ckpt.gather_global_state(
                self.checkpoint_dir, step, src_world
            )
            self._load_state(state)
            self._save_checkpoint()
        return (self.step_index, src_world)

    def _load_state(self, state) -> None:
        self.network.load_state_dict(state["network"])
        self.optimizer.load_state_dict(state["optimizer"])
        if state["rng"] is not None:
            if self.rng is None:
                raise RuntimeError(
                    "checkpoint carries RNG state but the trainer has no rng; "
                    "pass the data rng to DistTrainer to replay batches"
                )
            self.rng.bit_generator.state = state["rng"]
        self.step_index = int(state["step"])

    def fit(self, batches, epochs: int = 1, verbose: bool = False) -> TrainStats:
        """Train over an iterable of ``(inputs, targets)`` mini-batches.

        ``batches`` may be a list or a generator factory (callable returning
        a fresh iterable per epoch).  With ``verbose`` (rank 0 only), prints
        the communication report — collective counts/bytes and the measured
        wait-vs-overlap time of the nonblocking gradient allreduces.
        """
        for _ in range(epochs):
            iterable = batches() if callable(batches) else batches
            for inputs, targets in iterable:
                self.step(inputs, targets)
        if _trace.is_on():
            _trace.annotate("comm_stats", self.network.comm.stats.snapshot())
            _trace.annotate(
                "train_stats",
                {
                    "steps": self.stats.steps,
                    "total_seconds": self.stats.total_seconds,
                    "last_loss": self.stats.last_loss,
                },
            )
        if verbose and self.network.comm.rank == 0:
            get_logger("train").info("%s", self.comm_report())
        return self.stats

    def comm_report(self) -> str:
        """Training + communication summary for this rank.

        Includes the per-op wait time (caller blocked draining a request)
        and overlap time (request in flight while backprop continued) that
        :class:`~repro.comm.stats.CommStats` accumulates.
        """
        cs = self.network.comm.stats
        lines = [
            f"steps: {self.stats.steps}"
            + (
                f", avg step {np.mean(self.stats.step_seconds) * 1e3:.2f} ms"
                if self.stats.step_seconds
                else ""
            )
            + f" [{self.network.comm.backend} backend]",
            cs.report(),
        ]
        wait = cs.total_wait_seconds()
        hidden = cs.total_overlap_seconds()
        if wait + hidden > 0:
            lines.append(
                f"  nonblocking: {wait * 1e3:.3f} ms exposed (waited), "
                f"{hidden * 1e3:.3f} ms hidden behind compute "
                f"({100.0 * hidden / (wait + hidden):.1f}% overlapped)"
            )
        halo_wait = cs.wait_seconds.get("halo_exchange", 0.0)
        halo_hidden = cs.overlap_seconds.get("halo_exchange", 0.0)
        if halo_wait + halo_hidden > 0:
            lines.append(
                f"  halo exchange: {halo_wait * 1e3:.3f} ms exposed, "
                f"{halo_hidden * 1e3:.3f} ms hidden behind interior conv "
                f"({100.0 * halo_hidden / (halo_wait + halo_hidden):.1f}% overlapped)"
            )
        sh_wait = cs.wait_seconds.get("shuffle", 0.0)
        sh_hidden = cs.overlap_seconds.get("shuffle", 0.0)
        if sh_wait + sh_hidden > 0:
            lines.append(
                f"  shuffle: {sh_wait * 1e3:.3f} ms exposed, "
                f"{sh_hidden * 1e3:.3f} ms hidden behind adjacent compute "
                f"({100.0 * sh_hidden / (sh_wait + sh_hidden):.1f}% overlapped)"
            )
        return "\n".join(lines)

    def evaluate(self, inputs, targets) -> float:
        """Loss without updating parameters (still uses batch statistics in
        BN eval mode semantics handled by the network)."""
        loss = self.network.forward(inputs, targets=targets, training=False)
        if loss is None:
            raise RuntimeError("evaluate requires a loss layer and targets")
        return loss
