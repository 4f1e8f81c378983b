"""Synthetic datasets: shapes, determinism, learnable labels."""

import numpy as np
import pytest

from repro.data import MeshTanglingDataset, SyntheticImageNet
from repro.data.mesh_tangling import N_CHANNELS


class TestMeshTangling:
    def test_shapes_match_paper(self):
        ds = MeshTanglingDataset(resolution=64)
        x, y = ds.sample(0)
        assert x.shape == (18, 64, 64)  # "18 channels" per the paper
        assert N_CHANNELS == 18
        assert y.shape == (1, 64, 64)
        assert set(np.unique(y)) <= {0.0, 1.0}

    def test_deterministic_by_index_and_seed(self):
        ds = MeshTanglingDataset(resolution=32, seed=7)
        x1, y1 = ds.sample(3)
        x2, y2 = ds.sample(3)
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(y1, y2)
        x3, _ = ds.sample(4)
        assert not np.array_equal(x1, x3)

    def test_labels_nondegenerate(self):
        """Tangling pixels exist but are a minority (realistic incipience)."""
        ds = MeshTanglingDataset(resolution=128, seed=0)
        _, y = ds.batch(4)
        frac = float(y.mean())
        assert 0.005 < frac < 0.6

    def test_labels_follow_jacobian_channel(self):
        """The label is derivable from the inputs (det channel), so the
        task is learnable — channel 12 is the Jacobian determinant."""
        ds = MeshTanglingDataset(resolution=64, seed=1)
        x, y = ds.sample(0)
        det = x[12]
        predicted = (det < ds.tangle_threshold).astype(float)
        np.testing.assert_array_equal(predicted, y[0])

    def test_label_stride_downsampling(self):
        ds = MeshTanglingDataset(resolution=64, label_stride=4)
        x, y = ds.sample(0)
        assert y.shape == (1, 16, 16)

    def test_batch_stacking(self):
        ds = MeshTanglingDataset(resolution=32)
        x, y = ds.batch(3)
        assert x.shape == (3, 18, 32, 32) and y.shape == (3, 1, 32, 32)

    def test_min_resolution(self):
        with pytest.raises(ValueError):
            MeshTanglingDataset(resolution=4)

    def test_fields_are_finite_and_varied(self):
        ds = MeshTanglingDataset(resolution=32)
        x, _ = ds.sample(0)
        assert np.isfinite(x).all()
        assert (x.std(axis=(1, 2)) > 1e-6).all()  # no dead channels


class TestSyntheticImageNet:
    def test_shapes(self):
        ds = SyntheticImageNet(image_size=32, num_classes=10)
        x, label = ds.sample(0)
        assert x.shape == (3, 32, 32)
        assert 0 <= label < 10

    def test_batch(self):
        ds = SyntheticImageNet(image_size=16, num_classes=5)
        x, y = ds.batch(4)
        assert x.shape == (4, 3, 16, 16) and y.shape == (4,)

    def test_deterministic(self):
        ds = SyntheticImageNet(image_size=16, seed=3)
        x1, l1 = ds.sample(5)
        x2, l2 = ds.sample(5)
        np.testing.assert_array_equal(x1, x2)
        assert l1 == l2

    def test_class_signal_present(self):
        """Same-class images correlate more than different-class images."""
        ds = SyntheticImageNet(image_size=16, num_classes=2, seed=0)
        by_class = {0: [], 1: []}
        i = 0
        while any(len(v) < 2 for v in by_class.values()):
            x, label = ds.sample(i)
            if len(by_class[label]) < 2:
                by_class[label].append(x.ravel())
            i += 1

        def corr(a, b):
            return float(np.corrcoef(a, b)[0, 1])

        same = corr(*by_class[0])
        diff = corr(by_class[0][0], by_class[1][0])
        assert same > diff
