"""Logical host map: grouping SPMD ranks into nodes.

Multi-host collectives care about *which ranks share a fast transport
domain* (shared memory, NVLink) and which pairs must cross the slow wire
(TCP, InfiniBand).  A :class:`HostMap` captures exactly that: a partition
of ranks into named logical nodes, parsed from the ``REPRO_HOSTMAP``
environment variable (or built programmatically), e.g.::

    REPRO_HOSTMAP="0,1:A 2,3:B"     # ranks 0-1 on host A, 2-3 on host B
    REPRO_HOSTMAP="0-3:alpha 4-7:beta"

The map is a *layout spec*, not a job-size contract: a spec listing ``m``
ranks assigns any world rank ``r`` to the node of ``r % m`` (modulo
folding).  One env setting therefore applies to every job in a test sweep
regardless of each job's rank count — a 2-rank job under the example above
lands entirely on node ``A`` (and collectives degenerate to flat
schedules), an 8-rank job folds to four ranks per node.  This is what lets
CI pin one 2-logical-host layout and run the whole parity suite under it.

On one physical machine the "hosts" are logical: the socket backend routes
intra-node traffic over shared memory / socketpairs and inter-node traffic over
real TCP sockets, so the transport boundary is exercised end-to-end even
though everything runs on localhost.  The same map drives the hierarchical
collective schedules (:func:`repro.comm.algorithms.compile_hierarchical_allreduce`)
and the two-tier cost model (:class:`repro.comm.collective_models.TwoTierTopology`)
on *every* backend — thread-backend jobs with a host map select and run the
same two-level schedules, keeping cross-backend parity bitwise.
"""

from __future__ import annotations

from typing import Iterable, Sequence

#: Environment variable carrying a :meth:`HostMap.parse` spec applied to
#: every ``run_spmd`` call that does not pass ``hostmap=`` explicitly.
HOSTMAP_ENV = "REPRO_HOSTMAP"


def _parse_ranks(field: str) -> list[int]:
    """Parse a rank list: comma-separated ints with ``a-b`` ranges."""
    ranks: list[int] = []
    for part in field.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part[1:]:  # allow "-" only as a range, not a sign
            lo_s, hi_s = part.split("-", 1)
            lo, hi = int(lo_s), int(hi_s)
            if hi < lo:
                raise ValueError(f"empty rank range {part!r}")
            ranks.extend(range(lo, hi + 1))
        else:
            ranks.append(int(part))
    return ranks


class HostMap:
    """Partition of ranks 0..m-1 into named logical nodes.

    ``nodes`` is a sequence of rank groups (one per node, in node-index
    order); every rank in ``range(m)`` must appear exactly once across the
    groups, where ``m`` is the total rank count.  Ranks beyond ``m`` fold
    in modulo ``m`` (see the module docstring), so a map is total over any
    world size.
    """

    def __init__(
        self,
        nodes: Sequence[Iterable[int]],
        names: Sequence[str] | None = None,
    ) -> None:
        groups = [tuple(sorted(int(r) for r in g)) for g in nodes]
        if not groups or any(not g for g in groups):
            raise ValueError("host map needs at least one non-empty node")
        if names is None:
            names = [f"node{i}" for i in range(len(groups))]
        if len(names) != len(groups):
            raise ValueError(
                f"{len(names)} host names for {len(groups)} node groups"
            )
        all_ranks = [r for g in groups for r in g]
        size = len(all_ranks)
        if sorted(all_ranks) != list(range(size)):
            raise ValueError(
                f"host map must assign every rank 0..{size - 1} exactly "
                f"once; got {sorted(all_ranks)}"
            )
        self._nodes = tuple(groups)
        self._names = tuple(str(n) for n in names)
        self._node_by_rank = [0] * size
        for node, group in enumerate(groups):
            for r in group:
                self._node_by_rank[r] = node

    # -- constructors --------------------------------------------------------
    @classmethod
    def parse(cls, spec: str) -> "HostMap":
        """Parse ``"0,1:A 2,3:B"`` / ``"0-3:A 4-7:B"`` (whitespace-separated
        ``ranks:hostname`` groups; repeated hostnames merge into one node)."""
        by_name: dict[str, list[int]] = {}
        order: list[str] = []
        for entry in spec.split():
            if ":" not in entry:
                raise ValueError(
                    f"bad host-map entry {entry!r} in {spec!r}; "
                    "expected 'ranks:hostname' (e.g. '0,1:A')"
                )
            ranks_s, name = entry.rsplit(":", 1)
            name = name.strip()
            if not name:
                raise ValueError(f"empty hostname in host-map entry {entry!r}")
            if name not in by_name:
                by_name[name] = []
                order.append(name)
            by_name[name].extend(_parse_ranks(ranks_s))
        if not order:
            raise ValueError(f"empty host-map spec {spec!r}")
        return cls([by_name[n] for n in order], names=order)

    @classmethod
    def one_per_rank(cls, nranks: int) -> "HostMap":
        """Every rank its own node (the socket backend default: all-TCP)."""
        n = max(1, nranks)
        return cls([[r] for r in range(n)], names=[f"node{r}" for r in range(n)])

    @classmethod
    def uniform(cls, nranks: int, ranks_per_node: int) -> "HostMap":
        """``nranks`` consecutive ranks grouped ``ranks_per_node`` to a node."""
        if nranks % ranks_per_node:
            raise ValueError(
                f"{nranks} ranks do not divide into nodes of {ranks_per_node}"
            )
        return cls(
            [
                range(i, i + ranks_per_node)
                for i in range(0, nranks, ranks_per_node)
            ]
        )

    # -- queries -------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of ranks the spec lists (the modulo-folding period)."""
        return len(self._node_by_rank)

    @property
    def nnodes(self) -> int:
        return len(self._nodes)

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    def node_of(self, rank: int) -> int:
        """Node index of a world rank (ranks beyond the spec fold modulo)."""
        return self._node_by_rank[int(rank) % len(self._node_by_rank)]

    def host_of(self, rank: int) -> str:
        """Logical host name of a world rank."""
        return self._names[self.node_of(rank)]

    def is_single_node(self, nranks: int) -> bool:
        """True when a job of ``nranks`` lands entirely on one node."""
        return len({self.node_of(r) for r in range(nranks)}) <= 1

    def excluding(
        self,
        hosts: Iterable[str] = (),
        ranks: Iterable[int] = (),
    ) -> "HostMap":
        """A shrunk map with the given hosts and/or spec ranks blacklisted.

        The elastic runner calls this after attributing repeated failures
        to a host (or, without host attribution, a rank): surviving spec
        ranks are renumbered densely to ``0..m'-1`` in their original
        order, empty nodes are dropped, and node names are kept so failure
        accounting stays keyed by the same host names across restarts.
        Raises ``ValueError`` when nothing would survive.
        """
        bad_hosts = {str(h) for h in hosts}
        bad_ranks = {int(r) % self.size for r in ranks}
        survivors = [
            r
            for r in range(self.size)
            if self.host_of(r) not in bad_hosts and r not in bad_ranks
        ]
        if not survivors:
            raise ValueError(
                f"excluding hosts={sorted(bad_hosts)} ranks={sorted(bad_ranks)} "
                f"leaves no ranks in host map {self.describe()!r}"
            )
        renumber = {old: new for new, old in enumerate(survivors)}
        groups: list[list[int]] = []
        names: list[str] = []
        for group, name in zip(self._nodes, self._names):
            kept = [renumber[r] for r in group if r in renumber]
            if kept:
                groups.append(kept)
                names.append(name)
        return HostMap(groups, names=names)

    def describe(self) -> str:
        """Round-trippable spec string (``HostMap.parse(m.describe()) == m``)."""
        return " ".join(
            ",".join(str(r) for r in group) + f":{name}"
            for group, name in zip(self._nodes, self._names)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HostMap):
            return NotImplemented
        return self._nodes == other._nodes and self._names == other._names

    def __hash__(self) -> int:
        return hash((self._nodes, self._names))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HostMap({self.describe()!r})"


def resolve_hostmap(hostmap: "HostMap | str | None", env: str | None) -> "HostMap | None":
    """Normalize a ``hostmap=`` knob: explicit map, spec string, or env."""
    if isinstance(hostmap, HostMap):
        return hostmap
    if isinstance(hostmap, str):
        return HostMap.parse(hostmap)
    if env:
        return HostMap.parse(env)
    return None
