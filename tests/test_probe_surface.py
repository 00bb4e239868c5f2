"""The benchmark's probes name functions and methods of this package.

A traced benchmark run wraps each probed name; renaming or deleting one
breaks the run, so the whole probe list is installed and restored here.  The
serve gate's direct U-Net forward reads the network's layers by name too, and
the workloads' input builders pass fields and arguments by name, so they run
here as well.
"""

import numpy as np

from vrbench import reference_unet, workloads
from vrbench.tracing import Tracer, instrument, vrmsi_probes
from vrmsi import config
from vrmsi.learn import ModelConfig, TrainConfig, UNet


def test_every_probe_installs_and_restores():
    probes = vrmsi_probes()
    originals = [(probe.owner, probe.attr, getattr(probe.owner, probe.attr)) for probe in probes]
    with instrument(Tracer(), probes):
        for owner, attr, orig in originals:
            assert getattr(owner, attr) is not orig, attr
    for owner, attr, orig in originals:
        assert getattr(owner, attr) is orig, attr


def test_reference_unet_reads_the_library_network():
    # The benchmark's serve gate reads the conv lists, the head and each
    # conv's w/b by name; nonzero biases put both sides of every ReLU in play.
    net = UNet(ModelConfig(4, 2, 3, (3, 5, 6)), seed=4)
    rng = np.random.default_rng(9)
    for layer in net.conv_layers():
        layer.b[:] = 0.5 * rng.standard_normal(layer.b.shape)
    x = rng.standard_normal((2, 4, 16, 16))
    got = net.forward(x)
    want = reference_unet.unet_forward(net, x)
    assert reference_unet.max_relative_error(got, want) < reference_unet.TOLERANCE


def test_conv_flop_counts_the_nchw_shapes():
    # vrbench derives learn.conv_flop from the (B, C, H, W) arrays that
    # Conv2d.forward takes and returns and from the dy that backward takes.
    # Per layer: 2·B·O·k²·C·Ho·Wo forward, twice that backward.
    net = UNet(ModelConfig(2, 1, 2, (3, 5)), seed=0)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 2, 8, 8))
    tracer = Tracer()
    with instrument(tracer, vrmsi_probes()), tracer.new_request("step"):
        out = net.forward(x)
        net.backward(rng.standard_normal(out.shape))
    # (O, C, Ho, Wo) of enc0, down0 (stride 2), enc1, up0, dec0 and head
    shapes = [(3, 2, 8, 8), (5, 3, 4, 4), (5, 5, 4, 4), (3, 5, 8, 8), (3, 6, 8, 8), (1, 3, 8, 8)]
    batch, taps = 2, 9
    macs = sum(batch * o * taps * c * ho * wo for o, c, ho, wo in shapes)
    assert tracer.total("learn.conv_flop", tracer.requests(["step"])) == (2 + 4) * macs


def test_benchmark_input_builders_run(tmp_path):
    # The workloads build their inputs from these calls; a field or argument
    # they pass by name (PhantomSpec.noise_sigma, say) must keep existing,
    # and so must every config key the experiment workload's INI sets.
    ini = tmp_path / "experiment.ini"
    ini.write_text(workloads.EXPERIMENT_INI.format(seed=1))
    assert config.load_config(ini).seed == 1
    cfg = workloads.desk_config()
    ksp, clean = workloads.make_slice(cfg, 1, 0)
    assert ksp.domain == "kspace" and clean.domain == "image"
    assert ksp.data.shape == clean.data.shape == (8, 4, 96, 96)
    net = workloads.desk_unet(cfg, 1)
    assert net.config == cfg.model_config()
    assert TrainConfig(epochs=3, batch_size=4, seed=1).batch_size == 4
