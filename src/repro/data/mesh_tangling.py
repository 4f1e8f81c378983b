"""Synthetic mesh-tangling dataset.

The paper's dataset: "images representing a hydrodynamics simulation state
at a timestep, and the problem is to predict, for each pixel, whether the
mesh cell at that location needs to be relaxed to prevent tangling.  Mesh
tangling occurs when cells overlap. ... The input data is either 1024x1024
or 2048x2048 pixel images, with 18 channels consisting of various state
variables and mesh quality metrics from a hydrodynamics simulation."

This generator mimics an ALE (arbitrary Lagrangian-Eulerian) setting:

1. draw a smooth random displacement field (sum of random Fourier modes) —
   the "mesh motion" of a timestep;
2. derive *state variables* (density/pressure/velocity-like smooth fields
   advected by the displacement) and *mesh quality metrics* (Jacobian
   determinant, aspect ratio, skewness proxies of the displaced mesh);
3. label a pixel as "needs relaxation" where the displacement Jacobian
   determinant falls below a threshold — exactly the incipient-tangling
   condition (cells inverting / overlapping).

Labels are therefore a deterministic, learnable function of the input
channels (the Jacobian channels), so small models can overfit a batch —
which the integration tests exploit.
"""

from __future__ import annotations

import numpy as np

#: Channel layout: 8 state-variable channels + 10 mesh-quality channels.
N_STATE_CHANNELS = 8
N_MESH_CHANNELS = 10
N_CHANNELS = N_STATE_CHANNELS + N_MESH_CHANNELS


class MeshTanglingDataset:
    """Generates (state, label) samples of a given resolution."""

    def __init__(
        self,
        resolution: int = 1024,
        n_modes: int = 6,
        tangle_threshold: float = 0.55,
        label_stride: int = 1,
        seed: int = 0,
    ) -> None:
        if resolution < 8:
            raise ValueError("resolution must be >= 8")
        self.resolution = resolution
        self.n_modes = n_modes
        self.tangle_threshold = tangle_threshold
        self.label_stride = label_stride
        self.seed = seed

    # -- field synthesis --------------------------------------------------------
    def _displacement(self, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Smooth random displacement field (dx, dy), O(cell size) amplitude."""
        r = self.resolution
        yy, xx = np.meshgrid(
            np.linspace(0, 2 * np.pi, r), np.linspace(0, 2 * np.pi, r), indexing="ij"
        )
        dx = np.zeros((r, r))
        dy = np.zeros((r, r))
        for _ in range(self.n_modes):
            kx, ky = rng.integers(1, 5, size=2)
            phase = rng.uniform(0, 2 * np.pi, size=2)
            amp = rng.uniform(0.2, 1.0) / (kx + ky)
            dx += amp * np.sin(kx * xx + phase[0]) * np.cos(ky * yy + phase[1])
            dy += amp * np.cos(kx * xx + phase[1]) * np.sin(ky * yy + phase[0])
        return dx, dy

    @staticmethod
    def _jacobian(dx: np.ndarray, dy: np.ndarray) -> dict[str, np.ndarray]:
        """Metrics of the displaced mesh x' = x + d(x)."""
        dxx = np.gradient(dx, axis=1)
        dxy = np.gradient(dx, axis=0)
        dyx = np.gradient(dy, axis=1)
        dyy = np.gradient(dy, axis=0)
        scale = dx.shape[0] / (2 * np.pi) * 0.8
        j11 = 1.0 + dxx * scale
        j12 = dxy * scale
        j21 = dyx * scale
        j22 = 1.0 + dyy * scale
        det = j11 * j22 - j12 * j21
        frob = np.sqrt(j11**2 + j12**2 + j21**2 + j22**2)
        aspect = np.sqrt((j11**2 + j21**2) / np.maximum(j12**2 + j22**2, 1e-6))
        skew = np.abs(j11 * j12 + j21 * j22) / np.maximum(frob, 1e-6)
        return {
            "j11": j11, "j12": j12, "j21": j21, "j22": j22,
            "det": det, "frob": frob, "aspect": aspect, "skew": skew,
        }

    def sample(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(x, y)``: x is (18, R, R); y is (1, R/s, R/s) in {0,1}."""
        rng = np.random.default_rng((self.seed, index))
        r = self.resolution
        dx, dy = self._displacement(rng)
        jac = self._jacobian(dx, dy)

        channels = []
        # State variables: smooth fields + their advected versions.
        base = [dx, dy]
        for k in range(N_STATE_CHANNELS - 2):
            kx, ky = rng.integers(1, 6, size=2)
            yy, xx = np.meshgrid(
                np.linspace(0, 2 * np.pi, r), np.linspace(0, 2 * np.pi, r),
                indexing="ij",
            )
            base.append(np.sin(kx * xx + k) * np.cos(ky * yy - k) + 0.1 * dx)
        channels.extend(base)
        # Mesh-quality metrics.
        channels.extend(
            [jac["j11"], jac["j12"], jac["j21"], jac["j22"], jac["det"],
             jac["frob"], jac["aspect"], jac["skew"]]
        )
        # Two derived damage/quality proxies.
        channels.append(np.minimum(jac["det"], 1.0))
        channels.append((jac["det"] < self.tangle_threshold * 1.2).astype(float))
        x = np.stack(channels).astype(np.float64)
        assert x.shape[0] == N_CHANNELS

        label_full = (jac["det"] < self.tangle_threshold).astype(np.float64)
        s = self.label_stride
        if s > 1:
            label = label_full[: (r // s) * s, : (r // s) * s]
            label = label.reshape(r // s, s, r // s, s).max(axis=(1, 3))
        else:
            label = label_full
        return x, label[None, :, :]

    def batch(
        self, n: int, start: int = 0
    ) -> tuple[np.ndarray, np.ndarray]:
        """Stack ``n`` samples into ``(x, y)`` arrays (NCHW / N1HW)."""
        xs, ys = zip(*(self.sample(start + i) for i in range(n)))
        return np.stack(xs), np.stack(ys)
