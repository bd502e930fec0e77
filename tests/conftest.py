import numpy as np
import pytest

from cylspec.operator_model import OperatorSpec, WeightSequence, fixture
from cylspec.polynomial import MatrixPolynomial
from cylspec.resolvent import find_poles
from cylspec.spectral import build_basis
from cylspec.stability import make_forcing


@pytest.fixture(scope="session")
def ex1():
    return fixture("EX1")


@pytest.fixture(scope="session")
def ex1s():
    return fixture("EX1S")


@pytest.fixture(scope="session")
def wobble():
    """d0 + (0.1 x0 + 0.5 x1) d1: coefficients that depend on the periodic coordinate."""
    one = MatrixPolynomial.constant([[1.0]], 2)
    a1 = MatrixPolynomial(2, (1, 1), {(1, 0): [[0.1]], (0, 1): [[0.5]]})
    return OperatorSpec(
        n=1, N=1, A=(one, a1), B=MatrixPolynomial.zero(2, (1, 1)),
        weights=WeightSequence.geometric(0.5, 8), Q=5.0, name="wobble",
    )


@pytest.fixture(scope="session")
def basis_q4m32():
    return build_basis(4, 32)


@pytest.fixture(scope="session")
def basis_q0m2():
    return build_basis(0, 2)


@pytest.fixture(scope="session")
def basis_q16m32():
    return build_basis(16, 32)


@pytest.fixture(scope="session")
def poles_ex1(ex1, basis_q4m32):
    return find_poles(ex1, basis_q4m32, window=(-2.2, 1.0))


@pytest.fixture(scope="session")
def poles_ex1s(ex1s, basis_q4m32):
    return find_poles(ex1s, basis_q4m32, window=(-2.2, 1.0))


@pytest.fixture(scope="session")
def poles_ex1_q16(ex1, basis_q16m32):
    return find_poles(ex1, basis_q16m32, window=(-2.2, 1.0))


@pytest.fixture(scope="session")
def poles_ex1s_q16(ex1s, basis_q16m32):
    return find_poles(ex1s, basis_q16m32, window=(-2.2, 1.0))


@pytest.fixture(scope="session")
def default_forcing_q16(basis_q16m32):
    return make_forcing(basis_q16m32, "default")


def aligned_times(basis, period_range):
    """Cover times landing exactly on the periodic grid (transform is exact there)."""
    return np.sort(np.concatenate(
        [basis.x0 + 2.0 * np.pi * p for p in period_range]
    ))
