"""The benchmark's probes name functions and methods of this package.

A traced benchmark run wraps each probed name; renaming or deleting one
breaks the run, so the whole probe list is installed and restored here.  The
serve gate's direct U-Net forward reads the network's layers by name too.
"""

import numpy as np

from vrbench import reference_unet
from vrbench.tracing import Tracer, instrument, vrmsi_probes
from vrmsi.learn import ModelConfig, UNet


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
