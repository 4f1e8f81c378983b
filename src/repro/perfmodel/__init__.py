"""Performance and memory models for distributed CNN training (paper §V).

* :mod:`repro.perfmodel.machine` — the modeled platform: V100-class GPU
  throughput curves and the Lassen interconnect (NVLink2 intra-node, dual-
  rail IB EDR inter-node, 4 GPUs/node).
* :mod:`repro.perfmodel.conv_model` — C(n, c, h, w, f): convolution kernel
  runtime.  Two implementations, mirroring the paper's methodology: a
  *calibrated* analytic model of cuDNN-on-V100 (used to regenerate the
  paper-scale experiments) and an *empirical* model that times this
  package's own numpy kernels ("we use empirical estimates for convolution,
  as cuDNN may select among many algorithms").
* :mod:`repro.perfmodel.layer_cost` — FP, BPx, BPw per layer: the kernels
  over the region a window gathers, and the overlap of a layer's halo op
  with them (§V-A).
* :mod:`repro.perfmodel.network_cost` — whole-CNN mini-batch time (§V-B):
  per-layer costs, shuffle and gradient-bucket costs of the lowered step,
  and one timeline — the step as a task graph over compute and
  communication streams (:mod:`repro.perfmodel.sim_engine`), whose
  makespan is the mini-batch time.
* :mod:`repro.perfmodel.memory` — per-GPU memory requirements (activations,
  error signals, parameters, workspace), reproducing the paper's
  feasibility boundaries (the 2K model needs >= 2-way spatial parallelism;
  the 1K model fits exactly one sample per GPU).
* :mod:`repro.perfmodel.published` — the paper's Tables I-III and Fig. 2/3
  anchor values, data only: what ``LASSEN`` was calibrated against.
"""

from repro.perfmodel.machine import GPUSpec, MachineSpec, LASSEN
from repro.perfmodel.conv_model import CalibratedConvModel, EmpiricalConvModel
from repro.perfmodel.layer_cost import ConvLayerCost, conv_layer_cost
from repro.perfmodel.network_cost import NetworkCostModel, NetworkCostBreakdown
from repro.perfmodel.memory import MemoryModel, MemoryBreakdown
from repro.perfmodel import published

__all__ = [
    "CalibratedConvModel",
    "ConvLayerCost",
    "EmpiricalConvModel",
    "GPUSpec",
    "LASSEN",
    "MachineSpec",
    "MemoryBreakdown",
    "MemoryModel",
    "NetworkCostBreakdown",
    "NetworkCostModel",
    "conv_layer_cost",
    "published",
]
