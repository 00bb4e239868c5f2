"""Shared fixtures: a small deterministic phantom and its simulated k-space."""

import numpy as np
import pytest

from vrmsi.phantom import Ellipse, Implant, PhantomSpec, generate_phantom, simulate_bins, to_kspace
from vrmsi.sampling import AcquisitionParams, build_vr_plan

DESK_BIN_CENTERS = (np.arange(8) - 3.5) * 1.0
DESK_FWHM = 2.25


def pytest_collection_modifyitems(items):
    """Run the acceptance module last, and its desk-run criteria after its
    other tests.  The desk-scale fixture trains two U-Nets for minutes while
    every other test takes seconds, so a time-boxed run reports those first,
    and ``-m "not desk"`` leaves the desk-run criteria out."""

    def rank(item):
        if not item.nodeid.startswith("tests/test_acceptance.py"):
            return 0
        return 2 if "desk_run" in item.fixturenames else 1

    for item in items:
        if "desk_run" in item.fixturenames:
            item.add_marker(pytest.mark.desk)
    items.sort(key=rank)


def small_spec(rows=64, cols=64, n_coils=4, noise_sigma=0.0):
    return PhantomSpec(
        rows=rows,
        cols=cols,
        shapes=(
            Ellipse((rows * 0.5, cols * 0.5), (rows * 0.42, cols * 0.44), 0.9, "body"),
            Ellipse((rows * 0.56, cols * 0.47), (rows * 0.18, cols * 0.14), 0.55, "inner"),
        ),
        implant=Implant((rows * 0.4, cols * 0.6), 6.0, 2.0),
        field_span_khz=4.0,
        n_coils=n_coils,
        noise_sigma=noise_sigma,
        edge_segments=(((rows * 0.3, cols * 0.3), (rows * 0.42, cols * 0.42)),),
    )


@pytest.fixture(scope="session")
def truth64():
    return generate_phantom(small_spec(), seed=7)


@pytest.fixture(scope="session")
def image_stack64(truth64):
    return simulate_bins(truth64, DESK_BIN_CENTERS, DESK_FWHM)


@pytest.fixture(scope="session")
def kspace64(image_stack64):
    return to_kspace(image_stack64, 0.0, seed=3)


@pytest.fixture(scope="session")
def desk_params():
    return AcquisitionParams(
        tr_seconds=4.0,
        etl=32,
        n_concat=2,
        n_bins=8,
        matrix=(64, 64),
        accel=(2, 2),
        pf_overscan=8,
        acs=(16, 16),
    )


@pytest.fixture(scope="session")
def desk_plan(desk_params):
    return build_vr_plan(desk_params)
