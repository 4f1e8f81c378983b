"""The mesh-tangling segmentation models (paper §VI).

"Our CNN is a very simple fully-convolutional model adapted from VGGNet for
our input sizes and semantic segmentation.  It consists of six blocks of
either three (1K) or five (2K) convolution-batch normalization-ReLU
operations, using 3x3 convolutional filters, and a final convolutional layer
for prediction.  Downsampling is performed via stride-2 convolution at the
first convolutional filter of each block."

The paper publishes two layer shapes of the 2K model, which pin down its
channel progression:

* ``conv1_1``: C=18,  H=W=2048, F=128, K=5, P=2, S=2
* ``conv6_1``: C=384, H=W=64,   F=128, K=3, P=1, S=2

so 2K block output channels are ``(128, ..., 384, 128)``; we use
``(128, 128, 256, 256, 384, 128)``, consistent with both anchors.  The very
first convolution uses a 5x5 kernel (per ``conv1_1``); all others are 3x3.

The 1K model's shapes are *not* published.  Two paper facts constrain it:
(i) "the model can fit only one sample per GPU" (16 GB V100), and (ii) the
measured mini-batch times (1K: 0.4 s/sample on one GPU vs 2K: 0.494
GPU-seconds/sample) put the models within ~25% of each other in per-sample
cost despite the 2K model having 4x the pixels.  A narrow 1K model (2K
channels with 3 convs/block) satisfies neither; a VGG-like wider
progression ``(256, 384, 512, 512, 512, 512)`` satisfies both (about 10.5
GB/sample of activations+error signals; about 1.4 TFLOP/sample forward).
We therefore use the wide progression for the 1K model and document the
inference in DESIGN.md.

Prediction is per-pixel binary ("predict, for each pixel, whether the mesh
cell at that location needs to be relaxed"), trained with BCE-with-logits at
the final feature resolution.
"""

from __future__ import annotations

from repro.nn.graph import NetworkSpec

#: 2K block output channels, pinned by the paper's published layer shapes.
MESH_2K_CHANNELS = (128, 128, 256, 256, 384, 128)

#: 1K block output channels, inferred from the paper's memory and timing
#: constraints (see module docstring).
MESH_1K_CHANNELS = (256, 384, 512, 512, 512, 512)

#: Backwards-compatible alias (the 2K progression).
MESH_BLOCK_CHANNELS = MESH_2K_CHANNELS

#: Input channels: "18 channels consisting of various state variables and
#: mesh quality metrics from a hydrodynamics simulation".
MESH_INPUT_CHANNELS = 18


def build_mesh_model(
    resolution: int = 1024,
    convs_per_block: int = 3,
    block_channels=MESH_BLOCK_CHANNELS,
    input_channels: int = MESH_INPUT_CHANNELS,
    include_loss: bool = True,
    name: str | None = None,
) -> NetworkSpec:
    """Build a mesh-tangling model.

    ``convs_per_block`` is 3 for the 1K model, 5 for the 2K model.  Layer
    names follow the paper: ``conv{block}_{index}`` (1-based).
    """
    if resolution % (2 ** len(block_channels)) != 0:
        raise ValueError(
            f"resolution {resolution} must be divisible by "
            f"2^{len(block_channels)} (one stride-2 conv per block)"
        )
    net = NetworkSpec(name or f"mesh-{resolution}")
    net.add("input", "input", channels=input_channels, height=resolution, width=resolution)
    tip = "input"
    for b, out_ch in enumerate(block_channels, start=1):
        for i in range(1, convs_per_block + 1):
            cname = f"conv{b}_{i}"
            first_conv_of_model = b == 1 and i == 1
            kernel = 5 if first_conv_of_model else 3
            pad = 2 if first_conv_of_model else 1
            stride = 2 if i == 1 else 1
            net.add(
                cname, "conv", [tip],
                filters=out_ch, kernel=kernel, stride=stride, pad=pad,
            )
            net.add(f"bn{b}_{i}", "bn", [cname])
            net.add(f"relu{b}_{i}", "relu", [f"bn{b}_{i}"])
            tip = f"relu{b}_{i}"
    net.add("predict", "conv", [tip], filters=1, kernel=1, bias=True)
    if include_loss:
        net.add("loss", "bce", ["predict"])
    return net


def mesh_model_1k(**kwargs) -> NetworkSpec:
    """The 1024x1024 model: six blocks of three conv-BN-ReLU."""
    kwargs.setdefault("block_channels", MESH_1K_CHANNELS)
    return build_mesh_model(resolution=1024, convs_per_block=3,
                            name="mesh-1k", **kwargs)


def mesh_model_2k(**kwargs) -> NetworkSpec:
    """The 2048x2048 model: six blocks of five conv-BN-ReLU."""
    kwargs.setdefault("block_channels", MESH_2K_CHANNELS)
    return build_mesh_model(resolution=2048, convs_per_block=5,
                            name="mesh-2k", **kwargs)
