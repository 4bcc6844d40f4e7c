"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from asyncsense import ArrayGeometry, sigma2_from_snr_db


@pytest.fixture
def reference_scenario():
    """M=8 half-wavelength ULA at SNR 10 dB; the scenario behind the convergence gates."""
    geom = ArrayGeometry(8)
    rng = np.random.default_rng(7)
    h_s = (rng.standard_normal(8) + 1j * rng.standard_normal(8)) / np.sqrt(2)
    theta = 0.35
    p_d = 1.0
    sigma2 = sigma2_from_snr_db(10.0, p_d, 8)
    return geom, theta, h_s, sigma2, p_d
