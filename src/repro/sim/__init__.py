"""The task-graph simulator's names.

One evaluator prices and schedules a training step: the timeline lives
with the pricing in :mod:`repro.perfmodel.network_cost`, whose
:meth:`~repro.perfmodel.network_cost.NetworkCostModel.simulate` runs the
step as a task graph over a compute and a communication stream
(:mod:`repro.perfmodel.sim_engine`), the way the LBANN implementation
overlaps halo exchanges with interior convolutions and allreduces with
backpropagation (§IV-A).  ``TrainingStepSimulator`` is that class under
the name simulation callers use.
"""

from repro.perfmodel.network_cost import NetworkCostModel as TrainingStepSimulator
from repro.perfmodel.sim_engine import SimEngine, Task

__all__ = ["SimEngine", "Task", "TrainingStepSimulator"]
