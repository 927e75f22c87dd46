import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beltrami_lab.coefficients import builtin_catalog, eval_coefficients
from beltrami_lab.dilatation import (
    inner_dilatation_p,
    jacobian,
    map_dilatation,
    maximal_dilatation,
    tangential_dilatation,
)
from beltrami_lab.errors import DegenerateBase


def test_maximal_dilatation_values():
    assert maximal_dilatation(0, 0) == 1
    assert maximal_dilatation(0.3, 0.3) == pytest.approx(4.0)
    assert np.isinf(maximal_dilatation(0.7, 0.3))


def test_maximal_dilatation_sec4_is_reciprocal_radius():
    # at w = 0, r = 0.25 the example coefficient gives K = 1/(r+|w|) = 4
    spec = builtin_catalog("paper-example-sec4")
    mu, nu = eval_coefficients(spec, 0.25, 0)
    assert maximal_dilatation(mu, nu) == pytest.approx(4.0, abs=1e-12)


def test_tangential_identity_coefficients():
    assert tangential_dilatation(0, 0, 0.5, 0, 1.0) == pytest.approx(1.0)


def test_tangential_phase2_variant_collapses_to_radius_sum():
    # for the phase-squared variant the conjugation phase cancels exactly and
    # the value reduces to r + |w| = 0.5, independent of arg z
    spec = builtin_catalog("paper-example-sec4-phase2")
    for th in np.linspace(0, 2 * np.pi, 9, endpoint=False):
        z = 0.3 * np.exp(1j * th)
        mu, nu = eval_coefficients(spec, z, 0.2)
        assert tangential_dilatation(mu, nu, z, 0, 0.0) == pytest.approx(0.5, abs=1e-12)


def test_tangential_degenerate_base():
    with pytest.raises(DegenerateBase):
        tangential_dilatation(0.1, 0, 0.5, 0.5, 0.0)


@settings(max_examples=200, deadline=None)
@given(
    data=st.tuples(
        st.floats(0, 0.99), st.floats(0, 2 * np.pi),        # |mu|, arg mu
        st.floats(0, 0.99), st.floats(0, 2 * np.pi),        # |nu| scale, arg nu
        st.floats(0, 2 * np.pi),                             # theta
        st.floats(-2, 2), st.floats(-2, 2),                  # z
        st.floats(-2, 2), st.floats(-2, 2),                  # z0
    )
)
def test_tangential_below_maximal(data):
    am, pm, an, pn, theta, zx, zy, z0x, z0y = data
    mu = am * np.exp(1j * pm)
    nu = (0.995 - am) * an * np.exp(1j * pn)
    z, z0 = complex(zx, zy), complex(z0x, z0y)
    if z == z0:
        z += 0.25
    kt = tangential_dilatation(mu, nu, z, z0, theta)
    k = maximal_dilatation(mu, nu)
    assert kt <= k + 1e-9 * max(1.0, k)


def test_tangential_subnormal_offset():
    # |z - z0| = 2.2e-311 is subnormal; conj(dz)/dz must not overflow to nan
    kt = tangential_dilatation(0.0, 0.0, 0.0, complex(0.0, 2.225073858507e-311), 0.0)
    assert kt == pytest.approx(1.0)
    assert tangential_dilatation(0.3, 0.2, 1e-320, 0.0, 0.4) == tangential_dilatation(0.3, 0.2, 1.0, 0.0, 0.4)


def test_jacobian_values():
    assert jacobian(1, 0) == 1
    assert jacobian(1, 0.5) == pytest.approx(0.75)
    assert jacobian(0.5, 0.5) == 0
    # antisymmetry J(a, b) = -J(b, a)
    assert jacobian(0.8, 0.3) == -jacobian(0.3, 0.8)


def test_map_dilatation_conventions():
    assert map_dilatation(0, 0) == 1
    assert map_dilatation(2, 1) == pytest.approx(3.0)
    assert np.isinf(map_dilatation(1, 1))


def test_map_dilatation_linear_stretch():
    # f = z + k conj(z) has fz = 1, fzbar = k, so K = (1+k)/(1-k) exactly
    for k in (0.0, 0.25, 0.5, 0.9):
        assert map_dilatation(1, k) == pytest.approx((1 + k) / (1 - k), rel=1e-15)


def test_inner_dilatation_examples():
    assert inner_dilatation_p(2, 1, 2) == pytest.approx(3.0)
    assert inner_dilatation_p(2, 1, 2) == map_dilatation(2, 1)
    assert inner_dilatation_p(1, 0, 1.3) == 1
    assert inner_dilatation_p(2, 1, 1.5) == pytest.approx(3.0)


@settings(max_examples=200, deadline=None)
@given(
    a=st.floats(0.01, 10), b=st.floats(0, 0.99),
    pa=st.floats(0, 2 * np.pi), pb=st.floats(0, 2 * np.pi),
)
def test_inner_dilatation_p2_is_map_dilatation_exactly(a, b, pa, pb):
    fz = a * np.exp(1j * pa)
    fzbar = a * b * np.exp(1j * pb)
    assert inner_dilatation_p(fz, fzbar, 2.0) == map_dilatation(fz, fzbar)


def test_vectorized_paths_match_scalar():
    rng = np.random.default_rng(0)
    mu = 0.4 * (rng.normal(size=16) + 1j * rng.normal(size=16)) / 3
    nu = 0.2 * (rng.normal(size=16) + 1j * rng.normal(size=16)) / 3
    K = maximal_dilatation(mu, nu)
    for i in range(16):
        assert K[i] == maximal_dilatation(complex(mu[i]), complex(nu[i]))
