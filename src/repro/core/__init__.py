"""The paper's primary contribution: finer-grained parallel CNN training.

* :mod:`repro.core.parallelism` — per-layer parallelism descriptors
  (sample x height x width process-grid factorizations) and
  parallel execution strategies (assignments of a descriptor to every
  layer, §V-C).
* :mod:`repro.core.dist_conv` — distributed convolution (§III-A): sample,
  spatial, and hybrid sample/spatial decompositions with halo exchange,
  exactly replicating single-device convolution.
* :mod:`repro.core.dist_layers` — distributed pooling, batch norm (§III-B,
  over the statistics group the schedule hands it), ReLU, add, global
  pooling, FC, and loss layers.
* :mod:`repro.core.dist_network` — end-to-end distributed execution of a
  :class:`~repro.nn.graph.NetworkSpec` under a strategy, including data
  redistribution between layers (§III-C) and gradient allreduce.
* :mod:`repro.core.schedule` — ``lower(spec, strategy, n)``: the one op
  list of a training step (layers and their backward role, shuffle ops,
  the layers' blocking collectives and their groups, halo exchanges,
  gradient-bucket cuts) that ``DistNetwork`` interprets and the cost
  model, simulator, memory model and strategy optimizer price.
* :mod:`repro.core.window` — the window geometry of convolution and
  pooling: regions, interior/boundary pieces and the halo plan of a rank,
  a pure cached function the layers and the schedule's halo ops share.
* :mod:`repro.core.trainer` — the distributed training loop, with atomic
  checkpoint/resume (:mod:`repro.core.checkpoint`).
* :mod:`repro.core.strategy` — the performance-model-driven strategy
  optimizer (§V-C): candidate generation + shortest-path assignment.
* :mod:`repro.core.elastic` — elastic self-healing supervision: restart
  with backoff, blacklist-and-shrink, cross-world checkpoint re-sharding,
  graceful degradation (:class:`~repro.core.elastic.ElasticRunner`).
"""

from repro.core.parallelism import LayerParallelism, ParallelStrategy
from repro.core.checkpoint import (
    gather_global_state,
    latest_common_step,
    latest_complete_step,
    load_state,
    local_steps,
    parse_checkpoint_name,
    save_state,
)
from repro.core.dist_network import DistNetwork
from repro.core.elastic import (
    ElasticReport,
    ElasticRunner,
    RankFailure,
    RestartRecord,
    classify_error,
    classify_failures,
)
from repro.core.trainer import DistTrainer

__all__ = [
    "DistNetwork",
    "DistTrainer",
    "ElasticReport",
    "ElasticRunner",
    "LayerParallelism",
    "ParallelStrategy",
    "RankFailure",
    "RestartRecord",
    "classify_error",
    "classify_failures",
    "gather_global_state",
    "latest_common_step",
    "latest_complete_step",
    "load_state",
    "local_steps",
    "parse_checkpoint_name",
    "save_state",
]
