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
2. **Line networks.**  Reduce to single-source shortest path: one vertex
   per (layer, candidate); an edge from ``(l_i, D_i)`` to ``(l_j, D_j)``
   weighted ``Cost_{D_i}(l_i) + Shuffle(D_i, D_j)``; source/sink as in the
   paper.  The graph is a DAG, solved in linear time.
3. **Branchy networks** (ResNets): find the most expensive source-to-sink
   path, optimize it as a line, fix those layers, and repeat with the next
   path that "contains as few of the already-used layers as possible"
   (already-fixed layers contribute zero weight to path selection, and act
   as fixed-constraint vertices during optimization) until every layer has
   a distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import networkx as nx

from repro.nn.graph import NetworkSpec
from repro.perfmodel.machine import MachineSpec
from repro.perfmodel.memory import MemoryModel
from repro.perfmodel.network_cost import NetworkCostModel
from repro.core.parallelism import LayerParallelism, ParallelStrategy, activation_dist
from repro.core.schedule import lower

#: Layer kinds that choose their own distribution; the rest inherit.
DECISION_KINDS = ("conv", "fc")


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


@dataclass
class OptimizationReport:
    """The chosen strategy plus the evidence behind it."""

    strategy: ParallelStrategy
    predicted_time: float
    candidates_considered: int
    paths_optimized: int

    def describe(self) -> str:
        return (
            f"predicted mini-batch time {self.predicted_time * 1e3:.2f} ms, "
            f"{self.candidates_considered} candidate distributions, "
            f"{self.paths_optimized} path(s) optimized"
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
        #: The shuffles on the edges into a layer when its input edge is a
        #: cut, each with whether it runs forward, by layer; and the price of
        #: one shuffle by (global shape, source, destination parallelism).
        self._crossing: dict[str, list] = {}
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

    # -- cost pieces --------------------------------------------------------------
    def _segment_layers(self, name: str) -> list[str]:
        """A decision layer plus its inherit-children up to the next
        decision layer (these are costed under the same distribution)."""
        out = [name]
        frontier = [name]
        while frontier:
            nxt = []
            for n in frontier:
                for child in self.spec.children_of(n):
                    if self.spec[child].kind not in DECISION_KINDS:
                        if child not in out:
                            out.append(child)
                            nxt.append(child)
            frontier = nxt
        return out

    def _layer_cost(self, name: str, par: LayerParallelism) -> float:
        """The segment's kernels, halos and blocking collectives under ``par``."""
        prices = self._price.get(par)
        if prices is None:
            bd = self.cost_model.cost(self.n_global, ParallelStrategy.uniform(par))
            prices = self._price[par] = {
                layer: cost.fp_time() + cost.bp_time()
                for layer, cost in bd.per_layer.items()
            }
            for c in bd.schedule.collectives:
                prices[c.layer] = prices.get(c.layer, 0.0) + bd.comm_ops[c.op_id]
        return sum(prices.get(seg_name, 0.0) for seg_name in self._segment_layers(name))

    def _shuffle_cost(self, name: str, pa: LayerParallelism, pb: LayerParallelism) -> float:
        """Price of running decision layer ``name`` under ``pb`` when the
        segment feeding it runs under ``pa``: the shuffles the lowered
        schedule issues on the edges into ``name`` — the tensor crossing
        the cut is its parent's, the last inherit-layer of that segment;
        forward once, backward iff that parent takes an error signal —
        each at the cost model's price of its plans.  Which tensors cross
        depends on the pair only through whether it is a cut at all: an
        edge that is no cut moves nothing, and one lowering per layer
        serves every cut; each pair then prices those ops between its own
        two placements."""
        if pa == pb:
            return 0.0
        crossing = self._crossing.get(name)
        if crossing is None:
            cut = lower(self.spec, ParallelStrategy({name: pb}, default=pa), self.n_global)
            crossing = self._crossing[name] = [
                (s, s is e.fwd) for e in cut[name].edges for s in (e.fwd, e.bwd) if s
            ]
        total = 0.0
        for s, fwd in crossing:
            src, dst = (pa, pb) if fwd else (pb, pa)
            key = (s.shape, src, dst)
            if key not in self._move_price:
                self._move_price[key] = self.cost_model.shuffle_time(replace(
                    s,
                    src=activation_dist(src.grid_shape, s.shape),
                    dst=activation_dist(dst.grid_shape, s.shape),
                ))
            total += self._move_price[key]
        return total

    # -- path optimization ----------------------------------------------------------
    def _decision_graph(self) -> nx.DiGraph:
        """DAG over decision layers (+virtual source/sink)."""
        g = nx.DiGraph()
        decision = [layer.name for layer in self.spec if layer.kind in DECISION_KINDS]
        g.add_nodes_from(decision)

        def decision_ancestors(name: str) -> list[str]:
            seen, out, stack = set(), [], list(self.spec[name].parents)
            while stack:
                p = stack.pop()
                if p in seen:
                    continue
                seen.add(p)
                if self.spec[p].kind in DECISION_KINDS:
                    out.append(p)
                else:
                    stack.extend(self.spec[p].parents)
            return out

        for name in decision:
            for anc in decision_ancestors(name):
                g.add_edge(anc, name)
        heads = [n for n in decision if g.in_degree(n) == 0]
        tails = [n for n in decision if g.out_degree(n) == 0]
        g.add_node("__source__")
        g.add_node("__sink__")
        for name in heads:
            g.add_edge("__source__", name)
        for name in tails:
            g.add_edge(name, "__sink__")
        return g

    def _optimize_path(
        self,
        path: list[str],
        fixed: dict[str, LayerParallelism],
    ) -> dict[str, LayerParallelism]:
        """Shortest-path assignment along one line of decision layers."""
        g = nx.DiGraph()
        g.add_node(("src",))
        prev_nodes = [("src",)]
        cand_sets = []
        for name in path:
            cands = [fixed[name]] if name in fixed else self.candidates(name)
            if not cands:
                raise RuntimeError(
                    f"no feasible distribution for layer {name!r} with "
                    f"{self.total_ranks} ranks and N={self.n_global}"
                )
            cand_sets.append((name, cands))

        for i, (name, cands) in enumerate(cand_sets):
            nodes = []
            for j, par in enumerate(cands):
                node = (name, j)
                g.add_node(node, par=par)
                nodes.append(node)
                for prev in prev_nodes:
                    if prev == ("src",):
                        g.add_edge(prev, node, weight=0.0)
                    else:
                        prev_name = prev[0]
                        prev_par = g.nodes[prev]["par"]
                        w = self._layer_cost(prev_name, prev_par)
                        w += self._shuffle_cost(name, prev_par, par)
                        g.add_edge(prev, node, weight=w)
            prev_nodes = nodes
        g.add_node(("sink",))
        for prev in prev_nodes:
            g.add_edge(
                prev, ("sink",), weight=self._layer_cost(prev[0], g.nodes[prev]["par"])
            )

        sp = nx.shortest_path(g, ("src",), ("sink",), weight="weight")
        return {node[0]: g.nodes[node]["par"] for node in sp[1:-1]}

    def optimize(self) -> OptimizationReport:
        """Run the full §V-C procedure; returns strategy + evidence."""
        dg = self._decision_graph()
        reference = LayerParallelism(sample=math.gcd(self.total_ranks, self.n_global))
        assigned: dict[str, LayerParallelism] = {}
        candidates_considered = 0
        paths = 0

        def edge_weight(u, v, _attrs) -> float:
            # Path "length" = cost of the head layer; already-assigned
            # layers count ~zero so new paths prefer unassigned layers.
            if v in ("__sink__",) or v in assigned:
                return 1e-12
            return max(self._layer_cost(v, reference), 1e-12)

        decision_layers = [layer.name for layer in self.spec if layer.kind in DECISION_KINDS]
        while any(n not in assigned for n in decision_layers):
            paths += 1
            longest = nx.dag_longest_path(
                nx.DiGraph(
                    (u, v, {"weight": edge_weight(u, v, d)})
                    for u, v, d in dg.edges(data=True)
                ),
                weight="weight",
            )
            path = [n for n in longest if n not in ("__source__", "__sink__")]
            new_on_path = [n for n in path if n not in assigned]
            if not new_on_path:
                # Degenerate: remaining layers are off every longest path;
                # assign them greedily with their cheapest candidate.
                for n in decision_layers:
                    if n not in assigned:
                        assigned[n] = self.candidates(n)[0]
                break
            for n in path:
                if n not in assigned:
                    candidates_considered += len(self.candidates(n))
            result = self._optimize_path(path, assigned)
            assigned.update(result)

        # Inherit: non-decision layers take their first parent's assignment;
        # inputs take their first child's (second pass, children come later).
        full: dict[str, LayerParallelism] = {}
        for layer in self.spec.topo_order():
            if layer.name in assigned:
                full[layer.name] = assigned[layer.name]
            elif layer.kind == "input":
                continue
            else:
                full[layer.name] = full[layer.parents[0]]
        for layer in self.spec.inputs():
            children = self.spec.children_of(layer.name)
            full[layer.name] = full[children[0]] if children else reference
        strategy = ParallelStrategy(full)
        predicted = self.cost_model.minibatch_time(self.n_global, strategy)

        # Final guard: the path objective omits network-level effects
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
            candidates_considered=candidates_considered,
            paths_optimized=paths,
        )
