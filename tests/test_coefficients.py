import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beltrami_lab.coefficients import (
    CATALOG,
    CoefficientSpec,
    builtin_catalog,
    coefficient_fields,
    eval_coefficients,
    load_spec_file,
    parse_coefficient_expr,
    save_spec_file,
    spec_from_dict,
    spec_to_dict,
    rung_bound,
    truncate,
)
from beltrami_lab.errors import EllipticityViolation, ParamOutOfRange, UnknownCatalogEntry


def zero_spec():
    return CoefficientSpec(mu_expr=parse_coefficient_expr("0"), label="zero")


def test_zero_spec_evaluates_to_zero():
    assert eval_coefficients(zero_spec(), 0.3 + 0.2j, 5 - 1j) == (0, 0)


def test_sec4_hand_value():
    spec = builtin_catalog("paper-example-sec4")
    mu, nu = eval_coefficients(spec, 0.25, 0)
    assert mu == pytest.approx((1 - 0.25) / (1 + 0.25), abs=1e-15)
    assert nu == 0


def test_outside_support_is_zero():
    spec = CoefficientSpec(mu_expr=parse_coefficient_expr("z"), support_radius=1.0)
    assert eval_coefficients(spec, 2 + 0j, 0) == (0, 0)


def test_ellipticity_violation_raises():
    spec = CoefficientSpec(mu_expr=parse_coefficient_expr("1.2"))
    with pytest.raises(EllipticityViolation):
        eval_coefficients(spec, 0.5, 0)
    # the degenerate point of the unit-disk example: mu(0, 0) = 1
    with pytest.raises(EllipticityViolation):
        eval_coefficients(builtin_catalog("paper-example-sec4"), 0, 0)


def test_catalog_constant_disk():
    spec = builtin_catalog("constant-disk", [0.5])
    assert eval_coefficients(spec, 0.1 + 0.1j, 3j) == (0.5, 0)
    assert eval_coefficients(spec, 1.5, 0) == (0, 0)


def test_catalog_param_out_of_range():
    with pytest.raises(ParamOutOfRange):
        builtin_catalog("constant-disk", [1.2])
    with pytest.raises(UnknownCatalogEntry):
        builtin_catalog("no-such-entry")


def test_truncation_noop_when_predicate_always_true():
    spec = builtin_catalog("constant-disk", [0.5])  # K = 3 everywhere on the disk
    z = np.array([0.2, 0.5 + 0.3j, 0.9j])
    w = np.zeros(3)
    np.testing.assert_array_equal(
        truncate(*coefficient_fields(spec, z, w), 10)[0], coefficient_fields(spec, z, w)[0]
    )


def test_truncation_by_q_zeroes_inner_disk():
    # Q(z) = 1/r <= 4 keeps exactly r >= 1/4
    spec = builtin_catalog("paper-example-sec4")
    q = lambda z: 1.0 / np.abs(z)
    z = np.array([0.1, 0.2, 0.25, 0.3, 0.8])
    mu, _ = truncate(*coefficient_fields(spec, z, np.zeros(5), strict=False), 4, q, z)
    assert np.all(mu[:2] == 0)
    assert np.all(mu[2:] != 0)


def test_truncation_by_k_kills_constant_disk_above_rung():
    # K = (1+0.9)/(1-0.9) = 19 > 10 zeroes the coefficient everywhere
    spec = builtin_catalog("constant-disk", [0.9])
    z = np.linspace(0.05, 0.95, 7).astype(complex)
    mu, nu = truncate(*coefficient_fields(spec, z, np.zeros(7)), 10)
    assert np.all(mu == 0) and np.all(nu == 0)


def test_truncated_sec4_never_raises_at_degenerate_point():
    spec = builtin_catalog("paper-example-sec4")
    mu, nu = truncate(*coefficient_fields(spec, np.array([0j]), np.array([0j]), strict=False), 8)
    assert mu[0] == 0 and nu[0] == 0


@settings(max_examples=30, deadline=None)
@given(
    n1=st.integers(2, 30),
    n2=st.integers(2, 30),
    k=st.floats(0.05, 0.93),
)
def test_truncation_monotonicity(n1, n2, k):
    # the kept set at rung n1 <= n2 is contained in the kept set at rung n2
    n1, n2 = sorted((n1, n2))
    spec = builtin_catalog("paper-example-sec4")
    rng = np.random.default_rng(7)
    z = 0.97 * np.sqrt(rng.uniform(0, 1, 64)) * np.exp(2j * np.pi * rng.uniform(0, 1, 64))
    w = k * np.exp(2j * np.pi * rng.uniform(0, 1, 64))
    mu1, _ = truncate(*coefficient_fields(spec, z, w), n1)
    mu2, _ = truncate(*coefficient_fields(spec, z, w), n2)
    kept1 = mu1 != 0
    kept2 = mu2 != 0
    assert np.all(kept2[kept1])


@pytest.mark.parametrize("rung", [2, 4, 8])
def test_post_truncation_ellipticity(rung):
    spec = builtin_catalog("paper-example-sec4")
    rng = np.random.default_rng(3)
    z = 0.99 * np.sqrt(rng.uniform(0, 1, 512)) * np.exp(2j * np.pi * rng.uniform(0, 1, 512))
    w = rng.exponential(0.5, 512) * np.exp(2j * np.pi * rng.uniform(0, 1, 512))
    mu, nu = truncate(*coefficient_fields(spec, z, w), rung)
    s = np.abs(mu) + np.abs(nu)
    assert s.max() <= (rung - 1) / (rung + 1) + 1e-12


def test_truncation_by_k_zeroes_non_finite_samples():
    mu = np.array([np.nan, np.inf, 0.2 + 0.1j, complex(np.nan, 1.0)])
    nu = np.array([0.0, 0.0, np.inf, 0.0], dtype=complex)
    mu_n, nu_n = truncate(mu, nu, 8)
    np.testing.assert_array_equal(mu_n, 0)
    np.testing.assert_array_equal(nu_n, 0)


def test_non_finite_sample_kept_by_q_raises():
    # Q = 1 keeps every sample at rung 2, including the one that is not finite
    z = np.array([0.3, 0.5])
    mu = np.array([0.1, np.nan], dtype=complex)
    with pytest.raises(EllipticityViolation, match="majorant too weak"):
        truncate(mu, np.zeros(2, dtype=complex), 2, lambda z: np.ones(z.shape), z)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 200), seed=st.integers(0, 2**16))
def test_truncation_bounded_by_rung_bound(n, seed):
    rng = np.random.default_rng(seed)
    mu = rng.uniform(0, 1.5, 256) * np.exp(2j * np.pi * rng.uniform(0, 1, 256))
    nu = rng.uniform(0, 1.5, 256) * np.exp(2j * np.pi * rng.uniform(0, 1, 256))
    mu_n, nu_n = truncate(mu.copy(), nu.copy(), n)
    s = np.abs(mu_n) + np.abs(nu_n)
    assert rung_bound(n) == (n - 1) / (n + 1)
    assert s.max() <= rung_bound(n) + 1e-15
    # kept samples are untouched
    kept = s > 0
    np.testing.assert_array_equal(mu_n[kept], mu[kept])


def test_caratheodory_continuity_in_w():
    # w -> (mu, nu) is continuous off the singular set
    spec = builtin_catalog("paper-example-sec4")
    z = 0.4 + 0.2j
    w = 0.3 - 0.1j
    base = eval_coefficients(spec, z, w)[0]
    for delta in (1e-3, 1e-5, 1e-7):
        pert = eval_coefficients(spec, z, w + delta * (1 + 1j))[0]
        assert abs(pert - base) < 10 * delta


def test_spec_file_round_trip(tmp_path):
    spec = builtin_catalog("paper-example-sec4")
    path = tmp_path / "sec4.spec"
    save_spec_file(spec, path)
    loaded = load_spec_file(path)
    assert loaded.label == spec.label
    assert loaded.support_radius == spec.support_radius
    z = np.array([0.3 + 0.1j, 0.7j])
    w = np.array([0.1, 0.4 + 0.2j])
    np.testing.assert_allclose(
        coefficient_fields(loaded, z, w)[0], coefficient_fields(spec, z, w)[0], rtol=1e-15
    )


CATALOG_PARAMS = {
    "constant-disk": [0.96],
    "paper-example-sec4": [],
    "paper-example-sec4-phase2": [],
    "radial-power": [0.5, 1.5],
    "w-damped-disk": [0.9],
}


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_spec_serializers_round_trip_catalog(name, tmp_path):
    spec = builtin_catalog(name, CATALOG_PARAMS[name])
    via_dict = spec_from_dict(json.loads(json.dumps(spec_to_dict(spec))))
    path = tmp_path / "entry.spec"
    save_spec_file(spec, path)
    via_file = load_spec_file(path)
    Z = np.linspace(-1.2, 1.2, 25)[:, None] + 1j * np.linspace(-1.2, 1.2, 25)[None, :]
    W = 0.7 * Z[::-1] + 0.1j
    expected = coefficient_fields(spec, Z, W, strict=False)
    for loaded in (via_dict, via_file):
        assert (loaded.label, loaded.support_radius) == (spec.label, spec.support_radius)
        for got, want in zip(coefficient_fields(loaded, Z, W, strict=False), expected):
            np.testing.assert_array_equal(got, want)
