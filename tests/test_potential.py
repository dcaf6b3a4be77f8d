"""Fourier-coefficient potential: construction rules, evaluation, Parseval."""

import math

import numpy as np
import pytest

from blochdyn import FourierPotential, random_symmetric, single_cosine


def test_cosine_values():
    pot = single_cosine(1.0, 0.5)
    # V(x) = 2 * amp * cos(2πx/a)
    assert pot.evaluate(0.0) == pytest.approx(1.0, abs=1e-14)
    assert pot.evaluate(0.5) == pytest.approx(-1.0, abs=1e-14)
    assert pot.evaluate(0.25) == pytest.approx(0.0, abs=1e-14)
    assert pot.cutoff == 1
    assert pot.coefficient(1) == pytest.approx(0.5)
    assert pot.coefficient(-1) == pytest.approx(0.5)
    assert pot.coefficient(5) == 0.0


def test_construction_rejections():
    with pytest.raises(ValueError):
        FourierPotential(0.0, {0: 1.0})
    with pytest.raises(ValueError):
        FourierPotential(1.0, {0.5: 1.0})
    with pytest.raises(ValueError):
        FourierPotential(1.0, {1: 0.3})            # missing -1 partner
    with pytest.raises(ValueError):
        FourierPotential(1.0, {1: 0.3, -1: 0.2})   # not conjugate
    with pytest.raises(ValueError):
        FourierPotential(1.0, {1: 0.3j, -1: 0.3j})
    with pytest.raises(ValueError):
        FourierPotential(1.0, {0: 1.0 + 0.5j})     # complex mean


def test_complex_pair_accepted():
    pot = FourierPotential(1.0, {1: 0.2 + 0.1j, -1: 0.2 - 0.1j})
    # complex coefficients break inversion symmetry but V(x) stays real
    assert not pot.is_real
    x = np.linspace(0.0, 3.0, 97)
    vals = pot.evaluate(x)
    assert np.all(np.isreal(vals))
    assert single_cosine(1.0, 0.1).is_real


def test_real_and_periodic_on_random_potentials():
    rng = np.random.default_rng(42)
    for _ in range(5):
        pot = random_symmetric(1.5, rng)
        x = rng.uniform(-10.0, 10.0, size=1000)
        v = pot.evaluate(x)
        assert np.all(np.isfinite(v))
        np.testing.assert_allclose(pot.evaluate(x + 1.5), v, atol=1e-10)


def test_parseval():
    rng = np.random.default_rng(3)
    pot = random_symmetric(1.0, rng)
    xs = np.linspace(0.0, 1.0, 4097)
    vals = pot.evaluate(xs) ** 2
    integral = np.trapezoid(vals, xs)
    coeff_sum = sum(abs(v) ** 2 for _, v in pot.items())
    assert integral == pytest.approx(coeff_sum, abs=1e-8)


def test_derivative_matches_finite_difference():
    rng = np.random.default_rng(11)
    pot = random_symmetric(2.0, rng)
    xs = rng.uniform(0.0, 2.0, size=50)
    h = 1e-6
    fd = (pot.evaluate(xs + h) - pot.evaluate(xs - h)) / (2.0 * h)
    np.testing.assert_allclose(pot.derivative(xs), fd, atol=1e-6)


def test_items_round_trip():
    pot = FourierPotential(1.0, {0: 0.1, 2: 0.3 - 0.2j, -2: 0.3 + 0.2j})
    rebuilt = FourierPotential(1.0, dict(pot.items()))
    x = np.linspace(0, 1, 33)
    np.testing.assert_allclose(rebuilt.evaluate(x), pot.evaluate(x), atol=1e-14)


@pytest.mark.parametrize("scale", [1e4, 1e6])
def test_evaluate_bounds_roundoff_by_the_coefficient_sum(scale):
    # a valid complex lattice whose imaginary roundoff, about 1.2e-16·Σ|V_l|, passes
    # 1e-12 at |V_l| ≈ 1e4; the check used to be absolute and raised AssertionError
    harmonics = {1: 0.7 + 0.3j, 2: -0.4 + 0.9j, 3: 0.2 - 0.5j}
    coeffs = {}
    for l, v in harmonics.items():
        coeffs[l], coeffs[-l] = scale * v, scale * v.conjugate()
    xs = np.linspace(-3.0, 3.0, 601)
    expect = sum(2.0 * scale * (v * np.exp(2j * np.pi * l * xs)).real
                 for l, v in harmonics.items())
    np.testing.assert_allclose(FourierPotential(1.0, coeffs).evaluate(xs), expect,
                               rtol=0.0, atol=1e-13 * scale)
