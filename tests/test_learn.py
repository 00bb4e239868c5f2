"""Gradient checks against finite differences, Adam behavior, training loop."""

import numpy as np
import pytest

from vrmsi.learn import (
    Adam,
    ModelConfig,
    NumericalError,
    TrainConfig,
    UNet,
    denormalize,
    infer_full_stack,
    infer_zreplace,
    load_model,
    loss_and_gradients,
    normalize_slice,
    save_model,
    train,
)
from vrmsi.learn.layers import Conv2d, upsample2, upsample2_adjoint
from vrmsi.recon import METHOD_CR_VR, METHOD_CR_ZREPLACE, ReconOutput
from vrmsi.sampling import AcquisitionParams, build_vr_plan

TOY_CONFIG = ModelConfig(in_channels=2, out_channels=1, n_levels=2, channels=(3, 5))


def finite_diff_check(model, x, t, eps=1e-6, rel_tol=1e-4):
    loss, grads = loss_and_gradients(model, x, t)
    params = model.parameters()
    worst = 0.0
    rng = np.random.default_rng(0)
    for pi, p in enumerate(params):
        flat = p.reshape(-1)
        n_checks = min(flat.size, 40)
        for idx in rng.choice(flat.size, size=n_checks, replace=False):
            orig = flat[idx]
            flat[idx] = orig + eps
            lp, _ = loss_and_gradients(model, x, t)
            flat[idx] = orig - eps
            lm, _ = loss_and_gradients(model, x, t)
            flat[idx] = orig
            fd = (lp - lm) / (2 * eps)
            an = grads[pi].reshape(-1)[idx]
            worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-8))
    assert worst < rel_tol, f"worst relative gradient error {worst}"


class TestNormalize:
    def test_standardized_input_unchanged(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 16, 16))
        x = (x - x.mean()) / x.std()
        xn, stats = normalize_slice(x)
        assert np.max(np.abs(xn - x)) < 1e-12
        assert not stats.degenerate

    def test_constant_slice_degenerate(self):
        x = np.full((2, 8, 8), 3.25)
        xn, stats = normalize_slice(x)
        assert np.all(xn == 0.0)
        assert stats.degenerate
        assert stats.std == 1.0

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        x = 5.0 + 2.5 * rng.standard_normal((3, 12, 12))
        xn, stats = normalize_slice(x)
        assert np.max(np.abs(denormalize(xn, stats) - x)) < 1e-10
        assert xn.mean() == pytest.approx(0.0, abs=1e-12)
        assert xn.std() == pytest.approx(1.0, rel=1e-12)


class TestForward:
    def test_zero_weights_zero_output(self):
        model = UNet(TOY_CONFIG, seed=0)
        for layer in model.conv_layers():
            layer.w[:] = 0.0
            layer.b[:] = 0.0
        out = model.forward(np.random.default_rng(0).standard_normal((1, 2, 16, 16)))
        assert np.all(out == 0.0)

    def test_output_shape_contract(self):
        config = ModelConfig(in_channels=8, out_channels=4, n_levels=5, channels=(4, 4, 8, 8, 8))
        model = UNet(config, seed=1)
        out = model.forward(np.zeros((1, 8, 96, 96)))
        assert out.shape == (1, 4, 96, 96)

    def test_deterministic_forward(self):
        model = UNet(TOY_CONFIG, seed=3)
        x = np.random.default_rng(2).standard_normal((2, 2, 16, 16))
        assert np.array_equal(model.forward(x), model.forward(x))

    @pytest.mark.parametrize("levels", [2, 3, 4, 5])
    @pytest.mark.parametrize("dim", [32, 64, 96])
    def test_shape_algebra_all_levels(self, levels, dim):
        config = ModelConfig(in_channels=2, out_channels=1, n_levels=levels, channels=(2,) * levels)
        model = UNet(config, seed=0)
        out = model.forward(np.zeros((1, 2, dim, dim)))
        assert out.shape == (1, 1, dim, dim)

    def test_indivisible_dims_rejected(self):
        model = UNet(ModelConfig(2, 1, 3, (2, 2, 2)), seed=0)
        with pytest.raises(ValueError):
            model.forward(np.zeros((1, 2, 30, 30)))

    def test_channel_mismatch_rejected(self):
        model = UNet(TOY_CONFIG, seed=0)
        with pytest.raises(ValueError):
            model.forward(np.zeros((1, 3, 16, 16)))

    def test_config_requires_half_output(self):
        with pytest.raises(ValueError):
            ModelConfig(in_channels=8, out_channels=3, n_levels=2, channels=(4, 4))


class TestGradients:
    def test_full_network_matches_finite_differences(self):
        model = UNet(TOY_CONFIG, seed=42)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 2, 8, 8))
        t = rng.standard_normal((2, 1, 8, 8))
        finite_diff_check(model, x, t)

    def test_conv_stride1_gradients(self):
        self._layer_check(Conv2d(2, 3, rng=np.random.default_rng(0)), (2, 2, 6, 6))

    def test_conv_stride2_gradients(self):
        self._layer_check(Conv2d(2, 3, stride=2, rng=np.random.default_rng(1)), (2, 2, 8, 8))

    @staticmethod
    def _layer_check(layer, in_shape, eps=1e-6):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(in_shape)
        out = layer.forward(x)
        dy = rng.standard_normal(out.shape)
        dx = layer.backward(dy)

        def loss_at(x_mod):
            return float(np.sum(layer.forward(x_mod) * dy))

        for _ in range(20):
            idx = tuple(rng.integers(0, s) for s in in_shape)
            xp = x.copy()
            xp[idx] += eps
            xm = x.copy()
            xm[idx] -= eps
            fd = (loss_at(xp) - loss_at(xm)) / (2 * eps)
            assert fd == pytest.approx(dx[idx], rel=1e-4, abs=1e-8)
        for _ in range(20):
            widx = tuple(rng.integers(0, s) for s in layer.w.shape)
            orig = layer.w[widx]
            layer.w[widx] = orig + eps
            lp = loss_at(x)
            layer.w[widx] = orig - eps
            lm = loss_at(x)
            layer.w[widx] = orig
            layer.forward(x)
            layer.backward(dy)
            assert (lp - lm) / (2 * eps) == pytest.approx(layer.dw[widx], rel=1e-4, abs=1e-8)

    def test_conv_relu_gradients(self):
        layer = Conv2d(2, 3, rng=np.random.default_rng(2))
        layer.b[:] = [0.3, -0.2, 0.0]
        self._layer_check(layer, (2, 2, 6, 6))
        assert layer._mask.any() and not layer._mask.all()   # the check crossed the kink

    def test_relu_zero_preactivation_passes_no_gradient(self):
        # A zero input makes channel 0's pre-activation exactly 0 and channel 1's 0.5.
        layer = Conv2d(1, 2, rng=np.random.default_rng(0))
        layer.b[:] = [0.0, 0.5]
        out = layer.forward(np.zeros((1, 1, 4, 4)))
        assert np.all(out[:, 0] == 0.0) and np.all(out[:, 1] == 0.5)
        dx = layer.backward(np.ones_like(out))
        assert np.array_equal(layer.db, [0.0, 16.0])
        layer.w[0] = 0.0                     # channel 0's weights reach dx only through its gradient
        assert np.array_equal(layer.backward(np.ones_like(out)), dx)

    def test_upsample_pair_is_exact_adjoint(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 3, 4, 5))
        dy = rng.standard_normal((2, 3, 8, 10))
        up = upsample2(x)
        assert up.shape == dy.shape
        assert np.array_equal(up[:, :, 1::2, ::2], x)
        # <U x, dy> = <x, U^T dy>, up to the order of summation
        assert np.sum(up * dy) == pytest.approx(np.sum(x * upsample2_adjoint(dy)), rel=1e-14)
        assert np.array_equal(upsample2_adjoint(np.ones((1, 1, 4, 4))), np.full((1, 1, 2, 2), 4.0))


class TestLoss:
    def test_perfect_prediction_zero_loss(self):
        model = UNet(TOY_CONFIG, seed=7)
        x = np.random.default_rng(3).standard_normal((1, 2, 8, 8))
        t = model.forward(x)
        loss, grads = loss_and_gradients(model, x, t)
        assert loss == 0.0
        assert all(np.all(g == 0) for g in grads)

    def test_quadratic_scaling(self):
        model = UNet(TOY_CONFIG, seed=8)
        rng = np.random.default_rng(4)
        x = rng.standard_normal((1, 2, 8, 8))
        base = model.forward(x)
        residual = rng.standard_normal(base.shape)
        loss1, _ = loss_and_gradients(model, x, base - residual)
        loss2, _ = loss_and_gradients(model, x, base - 2 * residual)
        assert loss2 == pytest.approx(4 * loss1, rel=1e-12)


class TestAdam:
    def test_zero_gradient_no_motion(self):
        params = [np.ones((3, 3)), np.zeros(2)]
        before = [p.copy() for p in params]
        opt = Adam(params)
        opt.step(params, [np.zeros((3, 3)), np.zeros(2)], lr=0.1)
        assert all(np.array_equal(p, b) for p, b in zip(params, before))
        assert opt.step_count == 1

    def test_constant_gradient_update_approaches_lr(self):
        p = [np.array([0.0])]
        g = [np.array([2.5])]
        opt = Adam(p)
        lr = 1e-3
        prev = p[0].copy()
        for _ in range(500):
            prev = p[0].copy()
            opt.step(p, g, lr)
        # steady state: m_hat / sqrt(v_hat) -> sign(g)
        assert abs(prev[0] - p[0][0]) == pytest.approx(lr, rel=1e-6)
        assert p[0][0] < 0

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        grads = [rng.standard_normal((4, 4)) for _ in range(3)]

        def run():
            params = [np.ones((4, 4))]
            opt = Adam(params)
            for g in grads:
                opt.step(params, [g], lr=0.01)
            return params[0]

        assert np.array_equal(run(), run())


def tiny_dataset(n_slices, seed, shape=(16, 16), sharp=True):
    """Synthetic (input, target) pairs with a learnable structure."""
    rng = np.random.default_rng(seed)
    data = []
    for _ in range(n_slices):
        base = rng.random((2,) + shape)
        inputs = np.concatenate([base, 0.5 * base])  # 4 channels
        targets = 0.25 + 0.5 * base  # 2 channels, affine in the input
        if not sharp:
            targets = targets + 0.05 * rng.standard_normal(targets.shape)
        data.append((inputs, targets))
    return data


class TestTrain:
    def test_loss_decreases(self):
        config = ModelConfig(4, 2, 2, (6, 8))
        model = UNet(config, seed=0)
        data = tiny_dataset(12, seed=1)
        tc = TrainConfig(learning_rate=3e-3, epochs=12, batch_size=4, seed=5)
        _, history, _ = train(data, data[:4], model, tc)
        assert history[-1][1] < history[0][1]

    def test_seed_reproduces_loss_curve(self):
        config = ModelConfig(4, 2, 2, (4, 6))
        data = tiny_dataset(8, seed=2)
        tc = TrainConfig(learning_rate=1e-3, epochs=4, batch_size=4, seed=9)
        _, h1, _ = train(data, data[:2], UNet(config, seed=3), tc)
        _, h2, _ = train(data, data[:2], UNet(config, seed=3), tc)
        assert h1 == h2

    def test_identical_seeds_bit_identical_weights(self):
        config = ModelConfig(4, 2, 2, (4, 6))
        data = tiny_dataset(8, seed=2)
        tc = TrainConfig(learning_rate=1e-3, epochs=3, batch_size=4, seed=11)
        m1, _, _ = train(data, [], UNet(config, seed=3), tc)
        m2, _, _ = train(data, [], UNet(config, seed=3), tc)
        for a, b in zip(m1.parameters(), m2.parameters()):
            assert np.array_equal(a, b)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train([], [], UNet(ModelConfig(4, 2, 2, (4, 6)), seed=0), TrainConfig())

    def test_single_vs_mixed_population_both_converge(self):
        # two training regimes on homogeneous vs heterogeneous data end up
        # within a modest factor of each other
        config = ModelConfig(4, 2, 2, (6, 8))
        tc = TrainConfig(learning_rate=3e-3, epochs=10, batch_size=4, seed=5)
        single = tiny_dataset(12, seed=1)
        _, h_single, _ = train(single, single[:4], UNet(config, seed=0), tc)
        mixed = tiny_dataset(6, seed=1) + tiny_dataset(6, seed=99, sharp=False)
        _, h_mixed, _ = train(mixed, mixed[:4], UNet(config, seed=0), tc)
        assert h_single[-1][2] < 3 * h_mixed[-1][2] or h_mixed[-1][2] < 3 * h_single[-1][2]

    def test_non_finite_loss_raises(self):
        config = ModelConfig(4, 2, 2, (4, 6))
        model = UNet(config, seed=0)
        model.head.b[:] = np.inf
        with pytest.raises(NumericalError):
            train(tiny_dataset(4, seed=0), [], model, TrainConfig(epochs=1))


def _plan_8bins():
    params = AcquisitionParams(4.0, 32, 2, 8, (32, 32), (2, 2), 8, (16, 16))
    return build_vr_plan(params)


def _recon_output(method, seed=0):
    rng = np.random.default_rng(seed)
    return ReconOutput(rng.random((8, 32, 32)), method)


class TestInfer:
    def test_odd_bins_pass_through(self):
        plan = _plan_8bins()
        model = UNet(ModelConfig(8, 4, 2, (4, 6)), seed=0)
        cr_vr = _recon_output(METHOD_CR_VR)
        out = infer_full_stack(model, cr_vr, plan)
        assert out.method == "DL_VR"
        for b in plan.bins_with_scheme("FULL_SCHEME"):
            assert np.array_equal(out.images[b], cr_vr.images[b])

    def test_output_non_negative(self):
        plan = _plan_8bins()
        model = UNet(ModelConfig(8, 4, 2, (4, 6)), seed=1)
        out = infer_full_stack(model, _recon_output(METHOD_CR_VR, seed=2), plan)
        assert np.all(out.images >= 0.0)

    def test_channel_mismatch_rejected(self):
        plan = _plan_8bins()
        model = UNet(ModelConfig(4, 2, 2, (4, 6)), seed=0)
        with pytest.raises(ValueError):
            infer_full_stack(model, _recon_output(METHOD_CR_VR), plan)

    def test_zreplace_inputs_are_zero_and_passthrough_matches(self):
        plan = _plan_8bins()
        acs_bins = plan.bins_with_scheme("ACS_ONLY")
        images = np.random.default_rng(3).random((8, 32, 32))
        images[acs_bins] = 0.0
        cr_zr = ReconOutput(images, METHOD_CR_ZREPLACE)
        assert all(np.all(cr_zr.images[b] == 0) for b in acs_bins)
        model = UNet(ModelConfig(8, 4, 2, (4, 6)), seed=4)
        out = infer_zreplace(model, cr_zr, plan)
        assert out.method == "DL_ZREPLACE"
        for b in plan.bins_with_scheme("FULL_SCHEME"):
            assert np.array_equal(out.images[b], cr_zr.images[b])

    def test_inference_ignores_reference_data(self):
        # the inference signature admits no reference argument; the result is
        # a pure function of model, conventional recon, and plan
        plan = _plan_8bins()
        model = UNet(ModelConfig(8, 4, 2, (4, 6)), seed=5)
        cr_vr = _recon_output(METHOD_CR_VR, seed=6)
        a = infer_full_stack(model, cr_vr, plan)
        b = infer_full_stack(model, cr_vr, plan)
        assert np.array_equal(a.images, b.images)


class TestCheckpoint:
    def test_round_trip_preserves_weights_and_outputs(self, tmp_path):
        config = ModelConfig(4, 2, 3, (4, 6, 8))
        model = UNet(config, seed=13)
        opt = Adam(model.parameters())
        x = np.random.default_rng(7).standard_normal((1, 4, 16, 16))
        expected = model.forward(x)
        path = tmp_path / "model.msmodel"
        save_model(model, path, optimizer=opt, config=TrainConfig(), provenance="test")
        loaded, meta = load_model(path)
        assert meta["step_count"] == 0
        assert meta["model_config"]["channels"] == [4, 6, 8]
        for a, b in zip(model.parameters(), loaded.parameters()):
            assert np.array_equal(a, b)
        assert np.array_equal(loaded.forward(x), expected)

    def test_model_magic(self, tmp_path):
        model = UNet(ModelConfig(4, 2, 2, (4, 6)), seed=0)
        path = tmp_path / "model.msmodel"
        save_model(model, path)
        assert path.read_bytes()[:8] == b"MSMODEL\0"
