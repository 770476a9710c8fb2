"""Shared parameter fixtures (the published calibration of the model) and a
deadline for tests whose failure mode is a hang."""

import contextlib
import signal

import numpy as np
import pytest

from maturesim.growth import GrowthParams
from maturesim.materials import (CollagenParams, MaterialParams, MatrixParams,
                                 TextileParams)

EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])


def make_matrix():
    return MatrixParams(lam=10.0, mu=0.05)


def make_collagen(kappa=0.0, a=EX, rho_f=38.71):
    return CollagenParams(k1=0.825, k2=4.0, kappa=kappa, a=a, rho_f=rho_f)


def make_textile(n1=EX, n2=EY):
    # stiffness factors converted from kPa to MPa
    return TextileParams(
        k1_1=38.51e-3, k2_1=1.48e-3, k1_2=214.39e-3, k2_2=0.0001e-3,
        k_coup1=183.72e-3, k_coup2=58.71e-3, k_coup_ani=571.83e-3,
        beta1=3, beta2=2, gamma1=4, gamma2=2, delta1=2, delta2=3, xi=12,
        n1=n1, n2=n2)


def make_growth(psi_crit=0.02, a1=5e-4, a2=5e-7, rho_th=10.0):
    return GrowthParams(a1=a1, a2=a2, psi_crit=psi_crit, rho_th=rho_th,
                        c_cell=15e3, tau=14.21, h=1.65)


def make_material(kappa=0.0, a=EX, psi_crit=0.02, **growth_kw):
    return MaterialParams(matrix=make_matrix(),
                          collagen=make_collagen(kappa=kappa, a=a),
                          textile=make_textile(),
                          growth=make_growth(psi_crit=psi_crit, **growth_kw))


@pytest.fixture
def matrix_params():
    return make_matrix()


@pytest.fixture
def collagen_params():
    return make_collagen()


@pytest.fixture
def textile_params():
    return make_textile()


@pytest.fixture
def growth_params():
    return make_growth()


@pytest.fixture
def material_params():
    return make_material()


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block after `seconds` (SIGALRM, Unix), so a
    test whose failure mode is an endless loop fails instead of hanging."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
