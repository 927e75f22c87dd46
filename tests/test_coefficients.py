import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beltrami_lab.coefficients import (
    BY_K,
    BY_Q,
    CATALOG,
    CoefficientSpec,
    TruncationPredicate,
    builtin_catalog,
    coefficient_fields,
    eval_coefficients,
    load_spec_file,
    parse_coefficient_expr,
    save_spec_file,
    spec_from_dict,
    spec_to_dict,
    truncate_spec,
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
    trunc = truncate_spec(spec, TruncationPredicate(mode=BY_K, n=10))
    z = np.array([0.2, 0.5 + 0.3j, 0.9j])
    w = np.zeros(3)
    np.testing.assert_array_equal(
        coefficient_fields(trunc, z, w)[0], coefficient_fields(spec, z, w)[0]
    )


def test_truncation_by_q_zeroes_inner_disk():
    # Q(z) = 1/r <= 4 keeps exactly r >= 1/4
    spec = builtin_catalog("paper-example-sec4")
    q = lambda z: 1.0 / np.abs(z)
    trunc = truncate_spec(spec, TruncationPredicate(mode=BY_Q, n=4, q_evaluator=q))
    z = np.array([0.1, 0.2, 0.25, 0.3, 0.8])
    mu, _ = coefficient_fields(trunc, z, np.zeros(5), strict=False)
    assert np.all(mu[:2] == 0)
    assert np.all(mu[2:] != 0)


def test_truncation_by_k_kills_constant_disk_above_rung():
    # K = (1+0.9)/(1-0.9) = 19 > 10 zeroes the coefficient everywhere
    spec = builtin_catalog("constant-disk", [0.9])
    trunc = truncate_spec(spec, TruncationPredicate(mode=BY_K, n=10))
    z = np.linspace(0.05, 0.95, 7).astype(complex)
    mu, nu = coefficient_fields(trunc, z, np.zeros(7))
    assert np.all(mu == 0) and np.all(nu == 0)


def test_truncated_sec4_never_raises_at_degenerate_point():
    spec = truncate_spec(builtin_catalog("paper-example-sec4"),
                         TruncationPredicate(mode=BY_K, n=8))
    mu, nu = coefficient_fields(spec, np.array([0j]), np.array([0j]))
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
    mu1, _ = coefficient_fields(truncate_spec(spec, TruncationPredicate(BY_K, n1)), z, w)
    mu2, _ = coefficient_fields(truncate_spec(spec, TruncationPredicate(BY_K, n2)), z, w)
    kept1 = mu1 != 0
    kept2 = mu2 != 0
    assert np.all(kept2[kept1])


@pytest.mark.parametrize("rung", [2, 4, 8])
def test_post_truncation_ellipticity(rung):
    spec = truncate_spec(builtin_catalog("paper-example-sec4"),
                         TruncationPredicate(mode=BY_K, n=rung))
    rng = np.random.default_rng(3)
    z = 0.99 * np.sqrt(rng.uniform(0, 1, 512)) * np.exp(2j * np.pi * rng.uniform(0, 1, 512))
    w = rng.exponential(0.5, 512) * np.exp(2j * np.pi * rng.uniform(0, 1, 512))
    mu, nu = coefficient_fields(spec, z, w)
    s = np.abs(mu) + np.abs(nu)
    assert s.max() <= (rung - 1) / (rung + 1) + 1e-12


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
