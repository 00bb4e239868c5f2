"""The benchmark's probes name functions and methods of this package.

A traced benchmark run wraps each probed name; renaming or deleting one
breaks the run, so the whole probe list is installed and restored here.
"""

from vrbench.tracing import Tracer, instrument, vrmsi_probes


def test_every_probe_installs_and_restores():
    probes = vrmsi_probes()
    originals = [(probe.owner, probe.attr, getattr(probe.owner, probe.attr)) for probe in probes]
    with instrument(Tracer(), probes):
        for owner, attr, orig in originals:
            assert getattr(owner, attr) is not orig, attr
    for owner, attr, orig in originals:
        assert getattr(owner, attr) is orig, attr
