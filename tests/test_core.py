"""Transform oracles, centering conventions, and container round trips."""

import numpy as np
import pytest

from vrmsi.core import (
    MAGIC_MODEL,
    MAGIC_STACK,
    BadMagicError,
    BadVersionError,
    ContainerError,
    DataIntegrityError,
    MultiSpectralStack,
    TruncatedPayloadError,
    crop_center_array,
    fft2c,
    fft_stack,
    ifft2c,
    ifft_stack,
    load_stack,
    pad_center_array,
    read_container,
    save_stack,
    write_container,
)
from vrmsi.learn import ModelConfig, UNet, load_model, save_model
from vrmsi.recon import ReconOutput, load_recon, save_recon
from vrmsi.sampling import AcquisitionParams, build_vr_plan, load_plan, save_plan


def dft2_oracle(x):
    """Direct O(N^4) centered unitary DFT sum."""
    rows, cols = x.shape
    out = np.zeros_like(x, dtype=np.complex128)
    r0, c0 = rows // 2, cols // 2
    for u in range(rows):
        for v in range(cols):
            acc = 0.0j
            for r in range(rows):
                for c in range(cols):
                    acc += x[r, c] * np.exp(
                        -2j * np.pi * ((r - r0) * (u - r0) / rows + (c - c0) * (v - c0) / cols)
                    )
            out[u, v] = acc
    return out / np.sqrt(rows * cols)


def random_image(rows, cols, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def plane_stack(data, domain):
    """One bin, one coil: a single plane as a stack."""
    return MultiSpectralStack(data[None, None], np.zeros(1), domain)


class TestFft:
    def test_center_impulse_transforms_to_constant(self):
        x = np.zeros((8, 8), dtype=complex)
        x[4, 4] = 1.0
        assert np.allclose(fft2c(x), 1.0 / 8.0, atol=1e-14)

    def test_round_trip_identity(self):
        img = random_image(32, 32, seed=5)
        back = ifft2c(fft2c(img))
        assert np.max(np.abs(back - img)) / np.max(np.abs(img)) < 1e-12

    def test_parseval_energy(self):
        img = random_image(16, 16, seed=2)
        k = fft2c(img)
        assert abs(np.sum(np.abs(img) ** 2) - np.sum(np.abs(k) ** 2)) < 1e-10

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_direct_dft_sum(self, seed):
        img = random_image(8, 8, seed=seed)
        assert np.max(np.abs(fft2c(img) - dft2_oracle(img))) < 1e-9

    def test_inverse_of_constant_is_impulse(self):
        img = ifft2c(np.full((8, 8), 1.0 / 8.0, dtype=complex))
        expected = np.zeros((8, 8), dtype=complex)
        expected[4, 4] = 1.0
        assert np.allclose(img, expected, atol=1e-13)

    def test_zero_in_zero_out(self):
        assert np.all(ifft2c(np.zeros((6, 6), dtype=complex)) == 0)

    def test_domain_tag_enforced(self):
        img = plane_stack(random_image(8, 8), "image")
        with pytest.raises(ValueError):
            ifft_stack(img)
        with pytest.raises(ValueError):
            fft_stack(fft_stack(img))

    def test_non_finite_rejected(self):
        data = np.ones((4, 4), dtype=complex)
        data[1, 1] = np.nan
        with pytest.raises(DataIntegrityError):
            fft_stack(plane_stack(data, "image"))
        data[1, 1] = np.inf
        with pytest.raises(DataIntegrityError):
            ifft_stack(plane_stack(data, "kspace"))

    def test_unitarity_norm_preserved(self):
        for seed in range(4):
            img = random_image(12, 20, seed=seed)
            assert abs(np.linalg.norm(fft2c(img)) - np.linalg.norm(img)) < 1e-10


class TestPadCrop:
    def test_pad_384x256_to_512(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((384, 256)) + 0j
        padded = pad_center_array(data, 512, 512)
        assert padded.shape == (512, 512)
        assert np.array_equal(padded[64:448, 128:384], data)

    def test_pad_to_same_dims_is_identity(self):
        img = random_image(16, 12)
        assert np.array_equal(pad_center_array(img, 16, 12), img)

    def test_pad_preserves_energy(self):
        img = random_image(10, 14)
        padded = pad_center_array(img, 32, 32)
        assert np.isclose(np.sum(np.abs(padded) ** 2), np.sum(np.abs(img) ** 2))

    def test_pad_rejects_shrink(self):
        with pytest.raises(ValueError):
            pad_center_array(random_image(16, 16), 8, 32)

    def test_crop_inverts_pad(self):
        img = random_image(24, 18)
        padded = pad_center_array(img, 64, 50)
        assert np.array_equal(crop_center_array(padded, 24, 18), img)

    def test_crop_16x16_center(self):
        img = random_image(256, 32)
        cropped = crop_center_array(img, 16, 16)
        assert cropped.shape == (16, 16)
        assert np.array_equal(cropped, img[120:136, 8:24])

    def test_crop_full_size_identity(self):
        img = random_image(16, 16)
        assert np.array_equal(crop_center_array(img, 16, 16), img)

    def test_crop_rejects_growth(self):
        with pytest.raises(ValueError):
            crop_center_array(random_image(8, 8), 16, 4)

    def test_odd_difference_extra_goes_high(self):
        padded = pad_center_array(np.ones((5, 5), dtype=complex), 8, 8)
        # floor split: one zero row below, two above
        assert np.all(padded[0] == 0) and np.all(padded[1:6, 1:6] == 1)
        assert np.all(padded[6:] == 0)


def random_stack(seed=0, n_bins=8, n_coils=2, rows=64, cols=64):
    rng = np.random.default_rng(seed)
    # complex64-representable values so container round trips are bit exact
    data = (
        rng.standard_normal((n_bins, n_coils, rows, cols)).astype(np.float32)
        + 1j * rng.standard_normal((n_bins, n_coils, rows, cols)).astype(np.float32)
    ).astype(np.complex64)
    centers = (np.arange(n_bins) - (n_bins - 1) / 2.0) * 1.0
    return MultiSpectralStack(data, centers, "kspace", provenance="test")


def _write_stack(path):
    save_stack(random_stack(), path)
    return load_stack


def _write_recon(path):
    save_recon(ReconOutput(np.ones((2, 8, 8)), "CR_VR"), path)
    return load_recon


def _write_plan(path):
    save_plan(build_vr_plan(AcquisitionParams(2.0, 8, 2, 4, (16, 16), (2, 2), 8, (4, 4))), path)
    return load_plan


def _write_checkpoint(path):
    save_model(UNet(ModelConfig(4, 2, 2, (4, 6)), seed=0), path)
    return load_model


# one writer per artifact kind; each returns the loader that reads its file back
WRITERS = {"stack": _write_stack, "recon": _write_recon, "plan": _write_plan, "checkpoint": _write_checkpoint}


def rewrite_header(path, magic, edit):
    """Apply ``edit`` to a container's JSON metadata in place, keeping its payload."""
    metadata, payload = read_container(path, magic)
    edit(metadata)
    write_container(path, magic, metadata, bytes(payload))


class TestContainer:
    def test_round_trip_bit_identical(self, tmp_path):
        stack = random_stack(seed=4)
        path = tmp_path / "stack.msstack"
        save_stack(stack, path)
        loaded = load_stack(path)
        assert np.array_equal(loaded.data, stack.data)
        assert np.array_equal(loaded.bin_centers_khz, stack.bin_centers_khz)
        assert loaded.domain == stack.domain
        assert loaded.provenance == stack.provenance

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "stack.msstack"
        save_stack(random_stack(), path)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(BadMagicError):
            load_stack(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "stack.msstack"
        save_stack(random_stack(), path)
        raw = bytearray(path.read_bytes())
        raw[8] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(BadVersionError):
            load_stack(path)

    @pytest.mark.parametrize("kind", WRITERS)
    def test_truncated_payload(self, tmp_path, kind):
        path = tmp_path / "artifact"
        load = WRITERS[kind](path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-17])
        with pytest.raises(TruncatedPayloadError):
            load(path)

    def test_checkpoint_trailing_bytes(self, tmp_path):
        path = tmp_path / "model.msmodel"
        load = WRITERS["checkpoint"](path)
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(TruncatedPayloadError):
            load(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda meta: meta.pop("payload_dtype"),
            lambda meta: meta.update(payload_dtype="float64"),
            lambda meta: meta.update(rows=meta["rows"] + 0.5),
            lambda meta: meta.pop("cols"),
            lambda meta: meta.update(n_bins=-meta["n_bins"], rows=-meta["rows"]),
        ],
        ids=["missing-dtype", "unknown-dtype", "non-integer-rows", "missing-cols", "negative-dims"],
    )
    def test_malformed_stack_header(self, tmp_path, edit):
        path = tmp_path / "stack.msstack"
        save_stack(random_stack(), path)
        rewrite_header(path, MAGIC_STACK, edit)
        with pytest.raises(ContainerError):
            load_stack(path)

    def test_metadata_must_be_an_object(self, tmp_path):
        path = tmp_path / "stack.msstack"
        write_container(path, MAGIC_STACK, [1, 2], b"")
        with pytest.raises(ContainerError):
            load_stack(path)

    @pytest.mark.parametrize(
        "edit, error",
        [
            (lambda meta: meta.update(norm_schema=2), BadVersionError),
            (lambda meta: meta["model_config"].pop("n_levels"), ContainerError),
            (lambda meta: meta["model_config"].update(channels=[4]), ContainerError),
            (lambda meta: meta.pop("tensors"), ContainerError),
            (lambda meta: meta["tensors"][0].update(shape=[6.0]), ContainerError),
            # same payload size, but the tensors no longer match the model the config builds
            (lambda meta: meta["model_config"].update(kernel_size=5), ContainerError),
            (lambda meta: meta["tensors"][0].update(shape=[4, 4, 9, 1]), ContainerError),
            (lambda meta: meta["tensors"][0].update(name="enc1/w"), ContainerError),
        ],
        ids=["norm-schema", "missing-config-key", "bad-config", "missing-tensors", "non-integer-shape",
             "config-disagrees-with-tensors", "reshaped-tensor", "renamed-tensor"],
    )
    def test_malformed_checkpoint_header(self, tmp_path, edit, error):
        path = tmp_path / "model.msmodel"
        WRITERS["checkpoint"](path)
        rewrite_header(path, MAGIC_MODEL, edit)
        with pytest.raises(error):
            load_model(path)

    def test_magic_bytes_layout(self, tmp_path):
        path = tmp_path / "stack.msstack"
        save_stack(random_stack(), path)
        raw = path.read_bytes()
        assert raw[:8] == b"MSSTACK\0"
        assert int.from_bytes(raw[8:12], "little") == 1
        json_len = int.from_bytes(raw[12:16], "little")
        meta = raw[16:16 + json_len].decode("utf-8")
        for key in ("n_bins", "n_coils", "rows", "cols", "domain", "bin_centers_khz", "provenance"):
            assert f'"{key}"' in meta


class TestStackInvariants:
    def test_bin_centers_must_increase(self):
        data = np.zeros((2, 1, 4, 4), dtype=complex)
        with pytest.raises(ValueError):
            MultiSpectralStack(data, np.array([1.0, 0.0]), "image")

    def test_bin_centers_must_be_uniform(self):
        data = np.zeros((3, 1, 4, 4), dtype=complex)
        with pytest.raises(ValueError):
            MultiSpectralStack(data, np.array([0.0, 1.0, 3.0]), "image")

    def test_double_transform_restores_tag(self, image_stack64):
        from vrmsi.core import fft_stack, ifft_stack

        ksp = fft_stack(image_stack64)
        assert ksp.domain == "kspace"
        back = ifft_stack(ksp)
        assert back.domain == "image"
        assert np.max(np.abs(back.data - image_stack64.data)) < 1e-12

    def test_held_arrays_are_read_only_copies(self, tmp_path):
        data = np.ones((2, 1, 4, 4), dtype=complex)
        centers = np.array([0.0, 1.0])
        images = np.ones((2, 4, 4))
        stack = MultiSpectralStack(data, centers, "image")
        recon = ReconOutput(images, "CR_VR")
        save_stack(stack, tmp_path / "stack.msstack")
        save_recon(recon, tmp_path / "recon.msstack")
        held = {
            "stack.data": (stack.data, data),
            "stack.bin_centers_khz": (stack.bin_centers_khz, centers),
            "recon.images": (recon.images, images),
            "load_stack": (load_stack(tmp_path / "stack.msstack").data, data),
            "load_recon": (load_recon(tmp_path / "recon.msstack").images, images),
        }
        for name, (arr, caller) in held.items():
            assert not arr.flags.writeable, name
            assert arr.flags.owndata and not np.shares_memory(arr, caller), name
        data[0, 0, 0, 0] = 5
        images[0, 0, 0] = 5
        assert stack.data[0, 0, 0, 0] == 1 and recon.images[0, 0, 0] == 1
