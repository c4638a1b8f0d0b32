import numpy as np
import pytest

from heatback import DiffusionProfile, DomainSpec, EigenBasis, harness


@pytest.fixture(autouse=True)
def cold_geometry():
    """Each test starts with no geometry kept from an earlier one."""
    harness._geometry.cache_clear()


@pytest.fixture(scope="session")
def unit_domain():
    return DomainSpec.unit()


@pytest.fixture(scope="session")
def basis64(unit_domain):
    return EigenBasis(unit_domain, 64)


@pytest.fixture(scope="session")
def basis16(unit_domain):
    return EigenBasis(unit_domain, 16)


@pytest.fixture(scope="session")
def profile_constant():
    return DiffusionProfile.constant(1.0, 3.0)


@pytest.fixture(scope="session")
def profile_affine():
    return DiffusionProfile.affine(1.0, 0.1, 3.0)


@pytest.fixture(scope="session")
def profile_sinusoidal():
    return DiffusionProfile.sinusoidal(1.0, 0.2, 1.0, 3.0)
