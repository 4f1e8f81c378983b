"""repro — reproduction of Dryden et al., IPDPS 2019.

*Improving Strong-Scaling of CNN Training by Exploiting Finer-Grained
Parallelism* introduced spatial and hybrid sample/spatial decompositions of
convolutional layers, a distributed tensor substrate with halo exchange, a
performance model for distributed CNN training, and a shortest-path
optimizer for per-layer parallel execution strategies.

Package map (see DESIGN.md for the full inventory):

* :mod:`repro.comm` — MPI-like in-process communicator + α-β cost models.
* :mod:`repro.tensor` — process grids, block distributions, distributed
  tensors, halo exchange, all-to-all redistribution.
* :mod:`repro.nn` — local (single-device) numpy kernels, layers and network
  graphs: conv/pool/BN/ReLU/FC, ResNet-50, the mesh-tangling models.
* :mod:`repro.core` — the paper's contribution: distributed convolution
  (sample/spatial/hybrid), distributed network execution and training, and
  the strategy optimizer.
* :mod:`repro.perfmodel` — machine spec, convolution cost model, per-layer
  costs, memory model, and the one step evaluator: a discrete-event
  simulation of the priced step reproducing the paper's scale experiments
  (Tables I–III, Figures 2–4); :mod:`repro.sim` exports it under its
  simulator name.
* :mod:`repro.data` — synthetic mesh-tangling and ImageNet-like datasets.
"""

__version__ = "1.0.0"
