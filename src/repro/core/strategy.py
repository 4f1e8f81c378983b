"""Parallel execution strategy optimizer (paper §V-C).

Given a platform, a CNN, a total rank count, and a mini-batch size, find a
good assignment of distributions to layers:

1. **Candidates.**  For convolutional (and FC) layers we "heuristically
   select distributions that are load balanced and prefer cheaper
   partitioning methods (i.e. sample over spatial parallelism) when
   possible": all factorizations ``sample x height x width = P`` with
   near-square spatial factors, sample ways dividing the mini-batch, and
   spatial ways no larger than the layer's output extent.  Candidates that
   cannot fit in GPU memory (checked with the memory model, uniformly) are
   dropped.  Other layers inherit their parent's distribution.
2. **Objective.**  Every layer is owned by one decision layer: an inherit
   layer by its first parent's owner, an input by its first child's.  A
   decision layer's *unary* table holds, per candidate, the kernels, halos
   and blocking collectives of the layers it owns, so each layer is counted
   once.  Each edge whose two ends have different owners adds a *pairwise*
   table over those owners' candidates: the shuffle of the parent's
   activation from one placement to the other, and the error signal's
   shuffle back when the parent needs one — 0.0 where the placements agree.
3. **Search.**  The paper solves a line as a shortest path and a branchy
   net path by path, longest first.  Here the sum of the tables is
   minimised exactly, by min-sum variable elimination over the decision
   layers in spec order (cf. Jia et al., arXiv 1802.04924): a variable's
   tables are added and minimised over its axis into one table on its
   neighbours, then the argmins are back-substituted.  ResNet blocks are
   series-parallel, so at 16 ranks no ResNet-50 table exceeds 625 entries.

The objective leaves out network-level terms (gradient buckets, the
optimizer pass), so the pick is finally compared under the full model with
every feasible uniform strategy, and the faster one kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.nn.graph import NetworkSpec
from repro.perfmodel.machine import MachineSpec
from repro.perfmodel.memory import MemoryModel
from repro.perfmodel.network_cost import NetworkCostModel
from repro.core.parallelism import LayerParallelism, ParallelStrategy, activation_dist
from repro.core.schedule import ShuffleOp

#: Layer kinds that choose their own distribution; the rest inherit.
DECISION_KINDS = ("conv", "fc")

#: A term of the objective: the variables it reads, and its table with one
#: axis per variable, in that order.
Factor = tuple[tuple[str, ...], np.ndarray]


def factorizations(p: int) -> list[tuple[int, int, int]]:
    """All (sample, height, width) with sample*height*width == p and the
    spatial part as square as possible for each (sample, ways) pair."""
    out = []
    for sample in range(1, p + 1):
        if p % sample:
            continue
        ways = p // sample
        h = w = 1
        best = (ways, 1)
        for cand_w in range(1, int(math.isqrt(ways)) + 1):
            if ways % cand_w == 0:
                best = (ways // cand_w, cand_w)
        h, w = best
        out.append((sample, h, w))
    return out


def eliminate(factors: list[Factor], order: list[str]) -> tuple[float, dict[str, int]]:
    """The minimum over all assignments of the sum of ``factors``, and an
    assignment (variable -> index) that attains it, by eliminating the
    variables in ``order``."""
    pos = {v: i for i, v in enumerate(order)}
    kept: list[Factor] = []
    for v in order:
        mine = [f for f in factors if v in f[0]]
        factors = [f for f in factors if v not in f[0]]
        scope = (v, *sorted({u for s, _ in mine for u in s} - {v}, key=pos.__getitem__))
        total = sum(
            t.transpose([s.index(u) for u in scope if u in s]).reshape(
                [t.shape[s.index(u)] if u in s else 1 for u in scope]
            )
            for s, t in mine
        )
        kept.append((scope, total))
        factors.append((scope[1:], total.min(axis=0)))
    choice: dict[str, int] = {}
    for scope, total in reversed(kept):
        choice[scope[0]] = int(np.argmin(total[(slice(None), *(choice[u] for u in scope[1:]))]))
    return float(sum(t for _, t in factors)), choice


@dataclass
class OptimizationReport:
    """The chosen strategy plus the evidence behind it."""

    strategy: ParallelStrategy
    predicted_time: float
    candidates_considered: int
    #: The minimised sum of the unary and pairwise tables, seconds.
    objective: float

    def describe(self) -> str:
        return (
            f"predicted mini-batch time {self.predicted_time * 1e3:.2f} ms, "
            f"{self.candidates_considered} candidate distributions, "
            f"objective {self.objective * 1e3:.2f} ms"
        )


class StrategyOptimizer:
    """Performance-model-driven strategy search."""

    def __init__(
        self,
        spec: NetworkSpec,
        machine: MachineSpec,
        total_ranks: int,
        n_global: int,
        conv_model=None,
        check_memory: bool = True,
    ) -> None:
        self.spec = spec
        self.machine = machine
        self.total_ranks = total_ranks
        self.n_global = n_global
        self.cost_model = NetworkCostModel(spec, machine, conv_model=conv_model)
        self.memory = MemoryModel(spec, machine)
        self.check_memory = check_memory
        self.shapes = spec.infer_shapes()
        self.needs_error_signal = spec.needs_error_signal()
        #: The decision layer whose distribution each layer runs under.
        self.owner: dict[str, str] = {}
        for layer in spec:
            if layer.kind in DECISION_KINDS:
                self.owner[layer.name] = layer.name
            elif layer.kind != "input":
                self.owner[layer.name] = self.owner[layer.parents[0]]
        for layer in spec.inputs():
            children = spec.children_of(layer.name)
            if children:
                self.owner[layer.name] = self.owner[children[0]]
        #: The layers each decision layer owns.
        self.owned: dict[str, list[str]] = {}
        for name, d in self.owner.items():
            self.owned.setdefault(d, []).append(name)
        #: The price of one shuffle by (global shape, source, destination).
        self._move_price: dict[tuple, float] = {}
        #: Per candidate: each layer's kernels, halos and blocking
        #: collectives, priced.
        self._price: dict[LayerParallelism, dict[str, float]] = {}
        #: ``_fits`` by candidate.
        self._fit: dict[LayerParallelism, bool] = {}

    # -- candidate generation ----------------------------------------------------
    def candidates(self, name: str) -> list[LayerParallelism]:
        """Feasible distributions for one decision layer, cheapest-first."""
        layer = self.spec[name]
        c, h, w = self.shapes[name]
        cands = []
        for sample, gh, gw in factorizations(self.total_ranks):
            if sample > self.n_global:
                continue  # load balance: no empty sample shards
            if layer.kind == "fc" and (gh > 1 or gw > 1):
                continue  # FC layers are sample-parallel only
            if gh > 1 and h < gh:
                continue
            if gw > 1 and w < gw:
                continue
            cands.append(LayerParallelism(sample=sample, height=gh, width=gw))
        # Prefer cheaper partitioning: sample parallelism first.
        cands.sort(key=lambda p: (p.spatial_ways, -p.sample))
        if not cands:
            # Degenerate layer (e.g. FC with batch < ranks): run it with the
            # sample-axis distribution; dimensions too small to split are
            # replicated by activation_dist, so execution stays correct.
            cands = [LayerParallelism(sample=self.total_ranks)]
        if self.check_memory:
            feasible = [p for p in cands if self._fits(p)]
            if feasible:
                return feasible
        return cands

    def _fits(self, par: LayerParallelism) -> bool:
        """Does the whole network fit under ``par``?  Every decision layer
        asks about the same few candidates."""
        fits = self._fit.get(par)
        if fits is None:
            uniform = ParallelStrategy.uniform(par)
            fits = self._fit[par] = self.memory.fits(self.n_global, uniform)
        return fits

    # -- the objective --------------------------------------------------------------
    def _prices(self, par: LayerParallelism) -> dict[str, float]:
        """Each layer's kernels, halos and blocking collectives under ``par``."""
        prices = self._price.get(par)
        if prices is None:
            bd = self.cost_model.cost(self.n_global, ParallelStrategy.uniform(par))
            prices = self._price[par] = {
                layer: cost.fp_time() + cost.bp_time()
                for layer, cost in bd.per_layer.items()
            }
            for c in bd.schedule.collectives:
                prices[c.layer] = prices.get(c.layer, 0.0) + bd.comm_ops[c.op_id]
        return prices

    def _unary(self, d: str, cands: list[LayerParallelism]) -> np.ndarray:
        """Seconds of the layers decision layer ``d`` owns, under each of
        ``cands``."""
        return np.array([
            sum(self._prices(par).get(name, 0.0) for name in self.owned[d]) for par in cands
        ])

    def _move(self, shape: tuple[int, ...], src: LayerParallelism, dst: LayerParallelism) -> float:
        """The cost model's price of one shuffle of a ``shape`` tensor from
        ``src``'s placement to ``dst``'s; 0.0 when they agree."""
        if src == dst:
            return 0.0
        key = (shape, src, dst)
        if key not in self._move_price:
            self._move_price[key] = self.cost_model.shuffle_time(ShuffleOp(
                "", "", (), activation_dist(src.grid_shape, shape),
                activation_dist(dst.grid_shape, shape), shape,
            ))
        return self._move_price[key]

    def _pairwise(
        self,
        parent: str,
        consumers: list[str],
        cands_a: list[LayerParallelism],
        cands_b: list[LayerParallelism],
    ) -> np.ndarray:
        """Shuffle seconds of the edges from ``parent``, run under each of
        ``cands_a``, into ``consumers``, run under each of ``cands_b``: the
        activation forward once, and each consumer's error signal back when
        the parent needs one."""
        shape = (self.n_global, *self.shapes[parent])
        back = len(consumers) if parent in self.needs_error_signal else 0
        return np.array([
            [self._move(shape, a, b) + back * self._move(shape, b, a) for b in cands_b]
            for a in cands_a
        ])

    def tables(self) -> tuple[dict[str, list[LayerParallelism]], list[Factor]]:
        """Every decision layer's candidates, and the objective's terms over
        them: one unary table per decision layer, one pairwise table per
        (parent, owner of its children) whose owners differ."""
        cands = {
            layer.name: self.candidates(layer.name)
            for layer in self.spec if layer.kind in DECISION_KINDS
        }
        crossing: dict[tuple[str, str], list[str]] = {}
        for layer in self.spec:
            for p in layer.parents:
                if self.owner[p] != self.owner[layer.name]:
                    crossing.setdefault((p, self.owner[layer.name]), []).append(layer.name)
        factors: list[Factor] = [((d,), self._unary(d, cands[d])) for d in cands]
        for (p, b), consumers in crossing.items():
            a = self.owner[p]
            factors.append(((a, b), self._pairwise(p, consumers, cands[a], cands[b])))
        return cands, factors

    def optimize(self) -> OptimizationReport:
        """Run the full §V-C procedure; returns strategy + evidence."""
        cands, factors = self.tables()
        objective, choice = eliminate(factors, list(cands))
        strategy = ParallelStrategy(
            {name: cands[d][choice[d]] for name, d in self.owner.items()}
        )
        predicted = self.cost_model.minibatch_time(self.n_global, strategy)

        # Final guard: the objective omits network-level effects
        # (allreduce exposure, optimizer pass), so also evaluate the
        # feasible *uniform* strategies under the full model and keep the
        # best — the optimizer must never lose to a uniform choice.
        for sample, gh, gw in factorizations(self.total_ranks):
            if sample > self.n_global:
                continue
            par = LayerParallelism(sample=sample, height=gh, width=gw)
            uniform = ParallelStrategy.uniform(par)
            if self.check_memory and not self._fits(par):
                continue
            try:
                t = self.cost_model.minibatch_time(self.n_global, uniform)
            except ValueError:
                continue
            if t < predicted:
                strategy, predicted = uniform, t

        return OptimizationReport(
            strategy=strategy,
            predicted_time=predicted,
            candidates_considered=sum(len(c) for c in cands.values()),
            objective=objective,
        )
