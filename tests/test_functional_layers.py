"""Pooling, batch norm, ReLU, linear, and loss kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import functional as F


def test_all_lists_every_public_kernel():
    defined = (k for k, v in vars(F).items() if getattr(v, "__module__", "") == F.__name__)
    assert sorted(F.__all__) == sorted(k for k in defined if not k.startswith("_"))


class TestMaxPool:
    def test_known_values(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        y, _ = F.maxpool2d_forward(x, kernel=2, stride=2)
        np.testing.assert_array_equal(y[0, 0], [[5, 7], [13, 15]])

    def test_overlapping_windows_resnet_style(self):
        """ResNet's 3x3/2 maxpool with pad 1."""
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3, 8, 8))
        y, _ = F.maxpool2d_forward(x, kernel=3, stride=2, pad=1)
        assert y.shape == (2, 3, 4, 4)
        # Spot-check one window.
        want = x[0, 0, 0:2, 0:2].max()  # window at (0,0) clipped by padding
        assert y[0, 0, 0, 0] == pytest.approx(want)

    def test_backward_routes_to_argmax(self):
        x = np.array([[[[1.0, 5.0], [2.0, 3.0]]]])
        y, argmax = F.maxpool2d_forward(x, kernel=2, stride=2)
        dy = np.ones_like(y)
        dx = F.maxpool2d_backward(dy, argmax, x.shape, kernel=2, stride=2)
        np.testing.assert_array_equal(dx, [[[[0, 1], [0, 0]]]])

    def test_backward_finite_difference(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 2, 6, 6))
        y, argmax = F.maxpool2d_forward(x, kernel=3, stride=2, pad=1)
        dy = rng.standard_normal(y.shape)
        dx = F.maxpool2d_backward(dy, argmax, x.shape, kernel=3, stride=2, pad=1)
        eps = 1e-6
        for idx in [(0, 0, 0, 0), (0, 1, 3, 3), (0, 0, 5, 5)]:
            xp, xm = x.copy(), x.copy()
            xp[idx] += eps
            xm[idx] -= eps
            yp, _ = F.maxpool2d_forward(xp, kernel=3, stride=2, pad=1)
            ym, _ = F.maxpool2d_forward(xm, kernel=3, stride=2, pad=1)
            num = ((yp - ym) * dy).sum() / (2 * eps)
            np.testing.assert_allclose(dx[idx], num, rtol=1e-4, atol=1e-7)

    def test_padding_never_wins(self):
        """-inf padding means a padded cell is never the argmax."""
        x = np.full((1, 1, 2, 2), -100.0)
        y, argmax = F.maxpool2d_forward(x, kernel=3, stride=1, pad=1)
        assert (y == -100.0).all()
        dy = np.ones_like(y)
        dx = F.maxpool2d_backward(dy, argmax, x.shape, kernel=3, stride=1, pad=1)
        assert dx.sum() == pytest.approx(dy.size)


class TestAvgPool:
    def test_known_values(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        y = F.avgpool2d_forward(x, kernel=2, stride=2)
        np.testing.assert_array_equal(y[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_adjoint(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 3, 9, 9))
        y = F.avgpool2d_forward(x, kernel=3, stride=2, pad=1)
        dy = rng.standard_normal(y.shape)
        dx = F.avgpool2d_backward(dy, x.shape, kernel=3, stride=2, pad=1)
        np.testing.assert_allclose((y * dy).sum(), (x * dx).sum(), rtol=1e-12)

    def test_global_avgpool(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 4, 5, 5))
        y = F.global_avgpool_forward(x)
        np.testing.assert_allclose(y, x.mean(axis=(2, 3)))
        dy = rng.standard_normal(y.shape)
        dx = F.global_avgpool_backward(dy, x.shape)
        np.testing.assert_allclose((y * dy).sum(), (x * dx).sum(), rtol=1e-12)


#: The statistics groups a batch-norm layer can be handed, as the grid axes
#: they may span (a test reduces over the split ones among them).
STATS_AXES = {"none": (), "spatial": (2, 3), "every-split": (0, 2, 3)}


class TestBatchNorm:
    def test_normalizes(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((8, 3, 6, 6)) * 5 + 2
        y, _ = F.batchnorm_forward(x, np.ones(3), np.zeros(3))
        np.testing.assert_allclose(y.mean(axis=(0, 2, 3)), 0, atol=1e-10)
        np.testing.assert_allclose(y.var(axis=(0, 2, 3)), 1, atol=1e-4)

    def test_gamma_beta(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 2, 3, 3))
        gamma, beta = np.array([2.0, 3.0]), np.array([-1.0, 1.0])
        y, _ = F.batchnorm_forward(x, gamma, beta)
        np.testing.assert_allclose(y.mean(axis=(0, 2, 3)), beta, atol=1e-10)

    def test_backward_finite_difference(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((3, 2, 4, 4))
        gamma = rng.standard_normal(2) + 1.5
        beta = rng.standard_normal(2)
        y, cache = F.batchnorm_forward(x, gamma, beta)
        dy = rng.standard_normal(y.shape)
        dx, dgamma, dbeta = F.batchnorm_backward(dy, cache)
        eps = 1e-6

        def loss(xv, gv, bv):
            yv, _ = F.batchnorm_forward(xv, gv, bv)
            return (yv * dy).sum()

        for idx in [(0, 0, 0, 0), (2, 1, 3, 3), (1, 0, 2, 1)]:
            xp, xm = x.copy(), x.copy()
            xp[idx] += eps
            xm[idx] -= eps
            num = (loss(xp, gamma, beta) - loss(xm, gamma, beta)) / (2 * eps)
            np.testing.assert_allclose(dx[idx], num, rtol=1e-4, atol=1e-7)
        for c in range(2):
            gp, gm = gamma.copy(), gamma.copy()
            gp[c] += eps
            gm[c] -= eps
            num = (loss(x, gp, beta) - loss(x, gm, beta)) / (2 * eps)
            np.testing.assert_allclose(dgamma[c], num, rtol=1e-5)
            bp, bm = beta.copy(), beta.copy()
            bp[c] += eps
            bm[c] -= eps
            num = (loss(x, gamma, bp) - loss(x, gamma, bm)) / (2 * eps)
            np.testing.assert_allclose(dbeta[c], num, rtol=1e-5)

    def test_external_stats_match_local(self):
        """Supplying the batch's own stats externally must reproduce the
        local result — the equivalence the distributed BN variants rely on."""
        rng = np.random.default_rng(7)
        x = rng.standard_normal((4, 3, 5, 5))
        gamma, beta = np.ones(3), np.zeros(3)
        y_local, _ = F.batchnorm_forward(x, gamma, beta)
        s, ss, m = F.batchnorm_stats(x)
        mean = s / m
        var = ss / m - mean**2
        y_ext, _ = F.batchnorm_forward(x, gamma, beta, mean=mean, var=var)
        np.testing.assert_allclose(y_ext, y_local, rtol=1e-10)

    def test_distributed_backward_formula(self):
        """batchnorm_backward_data with the sums aggregated over two halves
        of the batch equals the single-shot backward."""
        rng = np.random.default_rng(8)
        x = rng.standard_normal((4, 2, 4, 4))
        gamma, beta = np.ones(2) * 1.3, np.zeros(2)
        y, cache = F.batchnorm_forward(x, gamma, beta)
        dy = rng.standard_normal(y.shape)
        dx_ref, dg_ref, db_ref = F.batchnorm_backward(dy, cache)

        # Split into two "ranks" along N; each computes local sums; aggregate.
        halves = [(slice(0, 2)), (slice(2, 4))]
        mean, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
        partials = []
        caches = []
        for sl in halves:
            yk, ck = F.batchnorm_forward(x[sl], gamma, beta, mean=mean, var=var)
            caches.append(ck)
            partials.append(F.batchnorm_backward_sums(dy[sl], ck))
        dg = partials[0][0] + partials[1][0]
        db = partials[0][1] + partials[1][1]
        m = float(x.shape[0] * x.shape[2] * x.shape[3])
        for sl, ck in zip(halves, caches):
            dxk = F.batchnorm_backward_data(dy[sl], ck, dg, db, m)
            np.testing.assert_allclose(dxk, dx_ref[sl], rtol=1e-10)
        np.testing.assert_allclose(dg, dg_ref, rtol=1e-10)
        np.testing.assert_allclose(db, db_ref, rtol=1e-10)


    def test_each_backward_reduction_is_evaluated_once(self, monkeypatch):
        """``sum dy*xhat`` and ``sum dy`` run once per BN backward — in the
        single-device composition and in ``DistBatchNorm`` — and the
        kernels' outputs are the textbook formulas written out."""
        from repro.comm import run_spmd
        from repro.core.dist_layers import DistBatchNorm
        from repro.core.parallelism import activation_dist
        from repro.tensor import DistTensor, ProcessGrid

        calls = []
        real = F.batchnorm_backward_sums

        def counted(dy, cache):
            calls.append(dy.shape)
            return real(dy, cache)

        monkeypatch.setattr(F, "batchnorm_backward_sums", counted)
        rng = np.random.default_rng(12)
        x = rng.standard_normal((4, 3, 4, 4))
        gamma, beta = rng.standard_normal(3) + 1.5, rng.standard_normal(3)
        y, cache = F.batchnorm_forward(x, gamma, beta)
        dy = rng.standard_normal(y.shape)

        dx, dgamma, dbeta = F.batchnorm_backward(dy, cache)
        assert len(calls) == 1
        m = 4 * 4 * 4
        inv_std = 1.0 / np.sqrt(x.var(axis=(0, 2, 3)) + 1e-5)
        xhat = (x - x.mean(axis=(0, 2, 3)).reshape(1, -1, 1, 1)) * inv_std.reshape(1, -1, 1, 1)
        close = dict(rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(dgamma, (dy * xhat).sum(axis=(0, 2, 3)), **close)
        np.testing.assert_allclose(dbeta, dy.sum(axis=(0, 2, 3)), **close)
        np.testing.assert_allclose(
            dx,
            (gamma * inv_std).reshape(1, -1, 1, 1)
            * (dy - dbeta.reshape(1, -1, 1, 1) / m - xhat * dgamma.reshape(1, -1, 1, 1) / m),
            **close,
        )

        def prog(comm):
            grid = ProcessGrid(comm, (2, 1, 1, 1))
            bn = DistBatchNorm(grid, gamma, beta)
            dist = activation_dist(grid.shape, x.shape)
            group = grid.axes_comm((0,))
            bn.forward(DistTensor.from_global(grid, dist, x), True, group, (0,))
            before = len(calls)
            dxt, dg, db = bn.backward(DistTensor.from_global(grid, dist, dy), comm=group)
            return len(calls) - before, dxt.to_global(), comm.allreduce(dg), comm.allreduce(db)

        # Thread ranks share ``calls``: two ranks, one evaluation each.
        for ncalls, dx_dist, dg_dist, db_dist in run_spmd(2, prog):
            assert ncalls <= 2 and len(calls) == 3
            np.testing.assert_allclose(dx_dist, dx, rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(dg_dist, dgamma, rtol=1e-12)
            np.testing.assert_allclose(db_dist, dbeta, rtol=1e-12)


    @pytest.mark.parametrize(
        "grid_shape,replicated",
        [
            ((2, 1, 1, 1), ()),    # sample shards 3 + 2
            ((1, 1, 2, 1), ()),    # row shards 3 + 2
            ((2, 1, 2, 1), ()),    # both, on 4 ranks
            ((2, 1, 1, 2), (3,)),  # columns replicated across the last grid axis
            ((1, 1, 2, 2), (3,)),
        ],
    )
    @pytest.mark.parametrize("stats_axes", STATS_AXES, ids=list(STATS_AXES))
    def test_packed_statistics_equal_five_allreduce_formulation(
        self, monkeypatch, grid_shape, replicated, stats_axes
    ):
        """``DistBatchNorm`` reduces (s, ss) stacked, (dgamma, dbeta) stacked
        and takes ``count`` from shapes — the global extent on the axes it
        is handed, the local one elsewhere.  Under ``"direct"`` that is bit
        for bit the formulation it replaced — s, ss, count, dgamma, dbeta
        each allreduced on its own — on uneven shards and replicated axes,
        for every statistics group."""
        from repro.comm import run_spmd
        from repro.core.dist_layers import DistBatchNorm
        from repro.tensor import DistTensor, Distribution, ProcessGrid

        monkeypatch.setenv("REPRO_COLLECTIVE_ALG", "direct")
        rng = np.random.default_rng(21)
        x = rng.standard_normal((5, 3, 5, 4))
        dy = rng.standard_normal(x.shape)
        gamma, beta = rng.standard_normal(3) + 1.5, rng.standard_normal(3)

        def prog(comm):
            grid = ProcessGrid(comm, grid_shape)
            dist = Distribution.make(grid_shape, replicated_axes=replicated)
            xt = DistTensor.from_global(grid, dist, x)
            dyt = DistTensor.from_global(grid, dist, dy)
            bn = DistBatchNorm(grid, gamma, beta)
            axes = tuple(d for d in STATS_AXES[stats_axes] if dist.is_split(d))
            group = grid.axes_comm(axes) if axes else None

            s, ss, count = F.batchnorm_stats(xt.local)
            if group is not None:
                s, ss = group.allreduce(s), group.allreduce(ss)
                count = group.allreduce(count)
            mean = s / count
            y_ref, cache = F.batchnorm_forward(
                xt.local, gamma, beta, eps=bn.eps, mean=mean, var=ss / count - mean**2
            )
            dg, db = F.batchnorm_backward_sums(dyt.local, cache)
            if group is not None:
                dg, db = group.allreduce(dg), group.allreduce(db)
            dx_ref = F.batchnorm_backward_data(dyt.local, cache, dg, db, count)

            before = comm.stats.collectives.get("allreduce", 0)
            y = bn.forward(xt, True, group, axes)
            dx, _, _ = bn.backward(dyt, comm=group)
            issued = comm.stats.collectives.get("allreduce", 0) - before
            assert issued == (0 if group is None else 2)
            assert bn._cache["count"] == count
            np.testing.assert_array_equal(y.local, y_ref)
            np.testing.assert_array_equal(dx.local, dx_ref)

        run_spmd(int(np.prod(grid_shape)), prog)

    def test_aggregation_scope_orders_deviation_from_single_device(self):
        """Paper §III-B's three variants on a hybrid 2 x (2 x 2) grid, on an
        input whose tiles genuinely differ: statistics over every split axis
        *are* single-device batch norm, per-tile ones (no axes) deviate
        most, and aggregating over each sample's spatial group lies in
        between."""
        from repro.comm import run_spmd
        from repro.core.dist_layers import DistBatchNorm
        from repro.core.parallelism import activation_dist
        from repro.tensor import DistTensor, ProcessGrid

        grid_shape = (2, 1, 2, 2)
        rng = np.random.default_rng(0)
        ramp = np.linspace(-4.0, 4.0, 8)
        x = rng.standard_normal((4, 3, 8, 8)) * 2.0 + 5.0
        x += ramp[None, None, :, None] + ramp[None, None, None, :]
        y_ref, _ = F.batchnorm_forward(x, np.ones(3), np.zeros(3))

        def prog(comm):
            grid = ProcessGrid(comm, grid_shape)
            xt = DistTensor.from_global(grid, activation_dist(grid_shape, x.shape), x)
            return {
                name: DistBatchNorm(grid, np.ones(3), np.zeros(3)).forward(
                    xt, True, grid.axes_comm(axes) if axes else None, axes
                ).to_global()
                for name, axes in STATS_AXES.items()
            }

        y = run_spmd(8, prog)[0]
        deviation = {k: float(np.abs(v - y_ref).max()) for k, v in y.items()}
        assert deviation["every-split"] < 1e-10
        assert deviation["none"] > deviation["spatial"] > deviation["every-split"]

    @pytest.mark.parametrize("sample,height", [(2, 1), (2, 2)])
    def test_one_bn_net_issues_two_statistics_allreduces_per_step(self, sample, height):
        """A training step of a one-BN net blocks on the allreduces its
        schedule lists: the packed statistics forward, the packed sums
        backward, and the loss (plus the pooling layer's spatial sum once
        rows are split) — and on nothing else."""
        from repro.comm import run_spmd
        from repro.core import DistNetwork, DistTrainer, LayerParallelism, ParallelStrategy
        from repro.core.schedule import lower
        from repro.nn import NetworkSpec

        spec = NetworkSpec("one-bn")
        spec.add("input", "input", channels=2, height=6, width=6)
        spec.add("c1", "conv", ["input"], filters=3, kernel=3, pad=1)
        spec.add("b1", "bn", ["c1"])
        spec.add("gap", "gap", ["b1"])
        spec.add("fc", "fc", ["gap"], units=3)
        spec.add("loss", "softmax_ce", ["fc"])
        rng = np.random.default_rng(22)
        x, t = rng.standard_normal((5, 2, 6, 6)), rng.integers(0, 3, size=5)

        def prog(comm):
            net = DistNetwork(
                spec, comm, LayerParallelism(sample=sample, height=height), seed=0
            )
            trainer = DistTrainer(net)
            trainer.step(x, t)  # warm-up: sub-communicators are split on first use
            before = comm.stats.collectives.get("allreduce", 0)
            trainer.step(x, t)
            return comm.stats.collectives.get("allreduce", 0) - before

        par = LayerParallelism(sample=sample, height=height)
        ops = [c.op_id for c in lower(spec, ParallelStrategy.uniform(par), 5).collectives]
        assert ops[0] == f"fwd:bnstats:b1:g{sample * height}"
        assert ops[-1] == f"bwd:bnstats:b1:g{sample * height}"
        assert sum(":bnstats:" in op for op in ops) == 2
        assert run_spmd(sample * height, prog) == [len(ops)] * (sample * height)


class TestReluLinear:
    def test_relu(self):
        x = np.array([-2.0, 0.0, 3.0])
        y, mask = F.relu_forward(x)
        np.testing.assert_array_equal(y, [0, 0, 3])
        np.testing.assert_array_equal(F.relu_backward(np.ones(3), mask), [0, 0, 1])

    def test_linear_adjoint(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((4, 6))
        w = rng.standard_normal((3, 6))
        y = F.linear_forward(x, w)
        dy = rng.standard_normal(y.shape)
        dx, dw, db = F.linear_backward(x, w, dy)
        np.testing.assert_allclose((y * dy).sum(), (x * dx).sum(), rtol=1e-12)
        np.testing.assert_allclose((y * dy).sum(), (w * dw).sum(), rtol=1e-12)
        np.testing.assert_allclose(db, dy.sum(axis=0))


class TestLosses:
    def test_softmax_ce_uniform(self):
        logits = np.zeros((2, 4))
        loss, grad = F.softmax_cross_entropy(logits, np.array([0, 1]))
        assert loss == pytest.approx(np.log(4))
        np.testing.assert_allclose(grad.sum(axis=1), 0, atol=1e-12)

    def test_softmax_ce_gradient(self):
        rng = np.random.default_rng(10)
        logits = rng.standard_normal((3, 5))
        labels = np.array([1, 4, 0])
        _, grad = F.softmax_cross_entropy(logits, labels)
        eps = 1e-6
        for idx in [(0, 0), (1, 4), (2, 2)]:
            lp, lm = logits.copy(), logits.copy()
            lp[idx] += eps
            lm[idx] -= eps
            num = (
                F.softmax_cross_entropy(lp, labels)[0]
                - F.softmax_cross_entropy(lm, labels)[0]
            ) / (2 * eps)
            np.testing.assert_allclose(grad[idx], num, rtol=1e-5, atol=1e-9)

    def test_bce_matches_reference(self):
        rng = np.random.default_rng(11)
        z = rng.standard_normal((2, 1, 4, 4)) * 3
        t = (rng.random((2, 1, 4, 4)) > 0.5).astype(float)
        loss, grad = F.sigmoid_bce_with_logits(z, t)
        p = 1 / (1 + np.exp(-z))
        ref = -(t * np.log(p) + (1 - t) * np.log(1 - p)).mean()
        assert loss == pytest.approx(ref, rel=1e-9)
        eps = 1e-6
        zp, zm = z.copy(), z.copy()
        zp[0, 0, 0, 0] += eps
        zm[0, 0, 0, 0] -= eps
        num = (
            F.sigmoid_bce_with_logits(zp, t)[0] - F.sigmoid_bce_with_logits(zm, t)[0]
        ) / (2 * eps)
        np.testing.assert_allclose(grad[0, 0, 0, 0], num, rtol=1e-5)

    def test_bce_extreme_logits_stable(self):
        z = np.array([[[[100.0, -100.0]]]])
        t = np.array([[[[1.0, 0.0]]]])
        loss, grad = F.sigmoid_bce_with_logits(z, t)
        assert np.isfinite(loss) and loss < 1e-10
        assert np.isfinite(grad).all()


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 3),
    c=st.integers(1, 3),
    h=st.integers(2, 8),
    k=st.sampled_from([2, 3]),
    s=st.integers(1, 2),
)
def test_pool_adjoint_property(n, c, h, k, s):
    """Avg pooling fwd/bwd are adjoint for random geometries."""
    if h < k:
        return
    rng = np.random.default_rng(n * 100 + h * 10 + k)
    x = rng.standard_normal((n, c, h, h))
    y = F.avgpool2d_forward(x, kernel=k, stride=s)
    dy = rng.standard_normal(y.shape)
    dx = F.avgpool2d_backward(dy, x.shape, kernel=k, stride=s)
    np.testing.assert_allclose((y * dy).sum(), (x * dx).sum(), rtol=1e-9, atol=1e-9)


# -- batch-norm kernel sweep -----------------------------------------------------
#
# The kernels fold the per-channel constants and never form ``xhat``; the
# reference below is the centred two-pass textbook layer, written out here
# and evaluated in float64.  Seeded like the convolution sweeps
# (tests/test_functional_conv.py): 100 examples in tier-1, 600 under CI's
# ``wide`` profile.

seeded_sweep = settings(derandomize=True, deadline=None)

BN_EPS = 1e-5


def _per_channel(v):
    return v.reshape(1, -1, 1, 1)


def textbook_batchnorm(x, gamma, beta, dy):
    """Every quantity of a training-mode BN layer from its definition."""
    x, gamma, beta, dy = (np.asarray(a, dtype=np.float64) for a in (x, gamma, beta, dy))
    m = x.shape[0] * x.shape[2] * x.shape[3]
    mean = x.sum(axis=(0, 2, 3)) / m
    centred = x - _per_channel(mean)
    var = (centred * centred).sum(axis=(0, 2, 3)) / m
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat = centred * _per_channel(inv_std)
    dgamma = (dy * xhat).sum(axis=(0, 2, 3))
    dbeta = dy.sum(axis=(0, 2, 3))
    return {
        "s": x.sum(axis=(0, 2, 3)),
        "ss": (x * x).sum(axis=(0, 2, 3)),
        "m": float(m),
        "mean": mean,
        "var": var,
        "y": _per_channel(gamma) * xhat + _per_channel(beta),
        "dgamma": dgamma,
        "dbeta": dbeta,
        "dx": _per_channel(gamma * inv_std)
        * (dy - _per_channel(dbeta) / m - xhat * _per_channel(dgamma) / m),
    }


def _close(got, want, rtol, cond=1.0):
    """``rtol`` of the reference's largest entry: the sums cancel, so single
    entries near zero carry the rounding of the terms, not of themselves.
    ``cond`` widens it by the folded kernels' stated error growth."""
    want = np.asarray(want)
    tol = rtol * cond
    np.testing.assert_allclose(
        got, want, rtol=tol, atol=tol * max(1.0, float(np.abs(want).max()))
    )


def _strided(values):
    """``values`` as a non-contiguous slice (every other channel, a spatial
    window) of a larger buffer — how a piece of a gathered region or a
    channel block reaches the kernels."""
    n, c, h, w = values.shape
    ext = np.zeros((n, 2 * c, h + 2, w + 3), dtype=values.dtype)
    view = ext[:, ::2, 1 : 1 + h, 2 : 2 + w]
    view[...] = values
    return view


@st.composite
def batchnorm_cases(draw):
    """Shapes down to C = 1, N = 1 and H*W = 1, both dtypes, channel means
    away from zero, ``x`` and ``dy`` each contiguous or sliced."""
    shape = draw(
        st.tuples(
            st.integers(1, 4), st.integers(1, 4), st.integers(1, 6), st.integers(1, 6)
        )
    )
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    c = shape[1]
    offset, spread = rng.uniform(-3, 3, size=c), rng.uniform(0.5, 2, size=c)
    x = rng.standard_normal(shape) * _per_channel(spread) + _per_channel(offset)
    x, dy = x.astype(dtype), rng.standard_normal(shape).astype(dtype)
    if draw(st.booleans()):
        x = _strided(x)
    if draw(st.booleans()):
        dy = _strided(dy)
    gamma = (rng.standard_normal(c) + 1.5).astype(dtype)
    beta = rng.standard_normal(c).astype(dtype)
    return x, dy, gamma, beta, (1e-10 if dtype is np.float64 else 1e-4)


@seeded_sweep
@given(batchnorm_cases())
def test_batchnorm_kernels_match_textbook(case):
    x, dy, gamma, beta, rtol = case
    want = textbook_batchnorm(x, gamma, beta, dy)
    # eps*|mean|/std: a two-element normalization set can have any ratio.
    cond = max(1.0, float((np.abs(want["mean"]) / np.sqrt(want["var"] + BN_EPS)).max()))

    s, ss, m = F.batchnorm_stats(x)
    assert m == want["m"]
    _close(s, want["s"], rtol)
    _close(ss, want["ss"], rtol)

    # Own statistics, and statistics handed in (the distributed layers').
    stats = {"mean": want["mean"].astype(x.dtype), "var": want["var"].astype(x.dtype)}
    for kwargs in ({}, stats):
        y, cache = F.batchnorm_forward(x, gamma, beta, eps=BN_EPS, **kwargs)
        assert y.shape == x.shape and y.dtype == x.dtype and y.flags.c_contiguous
        _close(y, want["y"], rtol, cond)
        dgamma, dbeta = F.batchnorm_backward_sums(dy, cache)
        _close(dgamma, want["dgamma"], rtol, cond)
        _close(dbeta, want["dbeta"], rtol)
        dx = F.batchnorm_backward_data(dy, cache, dgamma, dbeta, m)
        assert dx.shape == x.shape and dx.dtype == x.dtype and dx.flags.c_contiguous
        _close(dx, want["dx"], rtol, cond)


def test_batchnorm_large_mean_keeps_eight_digits():
    """The folded forms subtract ``mean*scale`` after the multiply, so their
    error grows like ``eps*|mean|/std``: at mean/std = 1e3 about three
    digits go, and eight must stay."""
    rng = np.random.default_rng(13)
    x = 1e3 + rng.standard_normal((4, 3, 8, 8))
    dy = rng.standard_normal(x.shape)
    gamma, beta = rng.standard_normal(3) + 1.5, rng.standard_normal(3)
    want = textbook_batchnorm(x, gamma, beta, dy)
    y, cache = F.batchnorm_forward(x, gamma, beta, eps=BN_EPS)
    dx, dgamma, dbeta = F.batchnorm_backward(dy, cache)
    _close(y, want["y"], 1e-8)
    _close(dgamma, want["dgamma"], 1e-8)
    _close(dx, want["dx"], 1e-8)


@pytest.mark.parametrize("axis", [0, 2, 3], ids=["samples", "rows", "columns"])
def test_batchnorm_backward_sums_add_up_over_shards(axis):
    """``(dgamma, dbeta)`` are linear in the local sums: two shards' results
    add up to the whole's — what lets ``DistBatchNorm`` allreduce per-rank
    partials.  Row and column shards reach the kernel non-contiguous."""
    rng = np.random.default_rng(14)
    x = rng.standard_normal((4, 3, 6, 6)) + 2.0
    dy = rng.standard_normal(x.shape)
    gamma, beta = rng.standard_normal(3) + 1.5, rng.standard_normal(3)
    mean, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
    _, cache = F.batchnorm_forward(x, gamma, beta, mean=mean, var=var)
    whole = F.batchnorm_backward_sums(dy, cache)

    total = [0.0, 0.0]
    for part in (slice(0, 1), slice(1, None)):  # uneven on purpose
        index = tuple(part if d == axis else slice(None) for d in range(4))
        _, shard_cache = F.batchnorm_forward(x[index], gamma, beta, mean=mean, var=var)
        for i, v in enumerate(F.batchnorm_backward_sums(dy[index], shard_cache)):
            total[i] = total[i] + v
    for got, want in zip(total, whole):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_batchnorm_keeps_no_normalized_copy():
    """Memory guard on one 4 MB activation: the cache references ``x`` and
    otherwise holds C-element vectors; forward allocates its output and
    nothing else of that size, backward ``dx`` and one temporary."""
    import tracemalloc

    rng = np.random.default_rng(15)
    x = rng.standard_normal((8, 16, 64, 64))
    dy = rng.standard_normal(x.shape)
    gamma, beta = rng.standard_normal(16) + 1.5, rng.standard_normal(16)
    assert x.nbytes == 4 * 2**20

    def traced(call):
        call()  # warm-up: one-time imports and caches are not the kernel's
        tracemalloc.start()
        try:
            out = call()
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    s, ss, m = F.batchnorm_stats(x)
    mean = s / m
    (y, cache), peak = traced(
        lambda: F.batchnorm_forward(x, gamma, beta, mean=mean, var=ss / m - mean**2)
    )
    assert peak < 1.25 * x.nbytes, peak / x.nbytes
    for key, value in cache.items():
        assert np.shares_memory(value, x) or value.size == 16, key
    assert traced(lambda: F.batchnorm_stats(x))[1] < 0.25 * x.nbytes
    _, peak = traced(lambda: F.batchnorm_backward(dy, cache))
    assert peak < 2.25 * x.nbytes, peak / x.nbytes


def test_relu_forward_is_a_select():
    """``y = x where x > 0 else 0`` and ``mask = x > 0``, also at the signed
    zeros and infinities (a mask multiply turns ``-inf`` into NaN); a NaN
    stays a NaN, with its mask off."""
    rng = np.random.default_rng(16)
    for dtype in (np.float64, np.float32):
        x = rng.standard_normal((2, 3, 4, 5)).astype(dtype)
        x[0, 0, 0, :4] = [0.0, -0.0, np.inf, -np.inf]
        y, mask = F.relu_forward(x)
        assert y.dtype == dtype and mask.dtype == np.bool_
        np.testing.assert_array_equal(y, np.where(x > 0, x, 0))
        np.testing.assert_array_equal(mask, x > 0)
        x[1, 2, 3, 4] = np.nan
        y, mask = F.relu_forward(x)
        assert np.isnan(y[1, 2, 3, 4]) and not mask[1, 2, 3, 4]
        finite = ~np.isnan(x)
        np.testing.assert_array_equal(y[finite], np.where(x > 0, x, 0)[finite])
