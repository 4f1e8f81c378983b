"""The paper's published measurements (Dryden et al., IPDPS 2019): data only.

The one transcription of Tables I-III and of the Fig. 2/3 plots.  The
:data:`~repro.perfmodel.machine.LASSEN` constants were calibrated against
these cells, ``tests/test_perfmodel.py`` holds the model to them, and
``examples/resnet_scaling_study.py`` prints them beside the modelled value.
Table rows are mini-batch sizes N, columns GPUs per sample (``*_WAYS``),
values mini-batch seconds; ``None`` is an n/a cell (more GPUs than the
paper ran).
"""

#: Table I — 1K mesh model, strong scaling.
TABLE1_WAYS = (1, 2, 4, 8, 16)
TABLE1 = {
    4: (0.403, 0.200, 0.121, 0.0906, 0.066),
    8: (0.399, 0.201, 0.124, 0.0829, 0.0681),
    16: (0.400, 0.201, 0.121, 0.085, 0.0739),
    32: (0.401, 0.207, 0.123, 0.0874, 0.0794),
    64: (0.407, 0.208, 0.124, 0.0911, 0.0839),
    128: (0.407, 0.209, 0.125, 0.0931, 0.0902),
    256: (0.401, 0.209, 0.127, 0.0977, None),
    512: (0.393, 0.209, 0.126, None, None),
    1024: (0.400, 0.211, None, None, None),
}

#: Table II — 2K mesh model (one sample does not fit one GPU: no 1-way column).
TABLE2_WAYS = (2, 4, 8, 16)
TABLE2 = {
    2: (0.247, 0.120, 0.0859, 0.0683),
    4: (0.249, 0.123, 0.0895, 0.0662),
    8: (0.250, 0.125, 0.0849, 0.0665),
    16: (0.249, 0.121, 0.0848, 0.0681),
    32: (0.251, 0.122, 0.0851, 0.0703),
    64: (0.252, 0.122, 0.0856, 0.0729),
    128: (0.252, 0.122, 0.0867, 0.0748),
    256: (0.250, 0.123, 0.089, None),
    512: (0.249, 0.123, None, None),
}

#: Table III — ResNet-50: sample parallelism at 32 samples per GPU, then the
#: same 32 samples spread over 2 and 4 GPUs (hybrid).
TABLE3_WAYS = (1, 2, 4)
TABLE3_SAMPLES_PER_GROUP = 32
TABLE3 = {
    128: (0.106, 0.0734, 0.0593),
    256: (0.106, 0.0732, 0.0671),
    512: (0.105, 0.0776, 0.0617),
    1024: (0.105, 0.0747, 0.0672),
    2048: (0.108, 0.0733, 0.0651),
    4096: (0.0984, 0.078, 0.066),
    8192: (0.109, 0.0785, 0.0725),
    16384: (0.108, 0.0844, 0.0792),
    32768: (0.109, 0.0869, None),
}

#: Fig. 2/3 — the four microbenchmarked layers: ``conv_layer_cost`` geometry
#: as printed above each plot, and the one-GPU N=1 (forward, backward)
#: milliseconds read off it.
FIG_LAYERS = {
    "conv1": dict(c=3, h=224, w=224, f=64, kernel=7, pad=3, stride=2),
    "res3b_branch2a": dict(c=512, h=28, w=28, f=128, kernel=1, pad=0, stride=1),
    "conv1_1": dict(c=18, h=2048, w=2048, f=128, kernel=5, pad=2, stride=2),
    "conv6_1": dict(c=384, h=64, w=64, f=128, kernel=3, pad=1, stride=2),
}
FIG_ONE_GPU_MS = {
    "conv1": (0.035, 0.10),
    "res3b_branch2a": (0.04, 0.05),
    "conv1_1": (7.5, 30.0),
    "conv6_1": (0.25, 0.30),
}
