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
    spec_from_dict,
    spec_to_dict,
    rung_bound,
    truncate,
)
from beltrami_lab.errors import EllipticityViolation, ParamOutOfRange, UnknownCatalogEntry


def zero_spec():
    return CoefficientSpec(mu="0", label="zero")


def test_zero_spec_evaluates_to_zero():
    assert eval_coefficients(zero_spec(), 0.3 + 0.2j, 5 - 1j) == (0, 0)


def test_sec4_hand_value():
    spec = builtin_catalog("paper-example-sec4")
    mu, nu = eval_coefficients(spec, 0.25, 0)
    assert mu == pytest.approx((1 - 0.25) / (1 + 0.25), abs=1e-15)
    assert nu == 0


def test_outside_support_is_zero():
    spec = CoefficientSpec(mu="z", support_radius=1.0)
    assert eval_coefficients(spec, 2 + 0j, 0) == (0, 0)


def test_ellipticity_violation_raises():
    spec = CoefficientSpec(mu="1.2")
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
    mu, _ = truncate(*coefficient_fields(spec, z, np.zeros(5)), 4, q, z)
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
    mu, nu = truncate(*coefficient_fields(spec, np.array([0j]), np.array([0j])), 8)
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


def save_spec_file(spec, path):
    """Write spec as the key = value text that load_spec_file reads."""
    fields = spec_to_dict(spec)
    lines = [f'{key} = "{fields[key]}"' for key in ("label", "mu", "nu")]
    lines.append(f"support_radius = {fields['support_radius']!r}")
    path.write_text("\n".join(lines) + "\n")


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
    expected = coefficient_fields(spec, Z, W)
    for loaded in (via_dict, via_file):
        assert (loaded.label, loaded.support_radius) == (spec.label, spec.support_radius)
        for got, want in zip(coefficient_fields(loaded, Z, W), expected):
            np.testing.assert_array_equal(got, want)


# spec_to_dict of every catalog entry: mu is the template filled with the
# repr of each parameter, as the catalog builds it
CATALOG_DICTS = [
    ("constant-disk", [0.96], "constant-disk-0.96", "0.96"),
    ("paper-example-sec4", [], "paper-example-sec4",
     "exp(i*theta)*(1-r-abs(w))/(1+r+abs(w))"),
    ("paper-example-sec4-phase2", [], "paper-example-sec4-phase2",
     "exp(2*i*theta)*(1-r-abs(w))/(1+r+abs(w))"),
    ("radial-power", [0.5, 1.5], "radial-power-0.5-1.5", "0.5*r^1.5"),
    ("radial-power", [-0.25, 2.0], "radial-power--0.25-2", "-0.25*r^2.0"),
    ("w-damped-disk", [0.9], "w-damped-disk-0.9", "0.9/(1+abs(w)^2)"),
]


@pytest.mark.parametrize("name, params, label, mu", CATALOG_DICTS)
def test_catalog_specs_are_pinned(name, params, label, mu):
    assert spec_to_dict(builtin_catalog(name, params)) == {
        "label": label, "mu": mu, "nu": "0", "support_radius": 1.0}


def test_catalog_pins_cover_every_entry():
    assert {name for name, *_ in CATALOG_DICTS} == set(CATALOG) == set(CATALOG_PARAMS)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_rejects_bad_parameters(name):
    params = CATALOG_PARAMS[name]
    names = CATALOG[name][1]
    bad = [params + [0.5]] + ([params[:-1]] if params else [])
    for slot, values in (("k", (1.0, -1.0, 1.5)), ("p", (0.0, -1.0))):
        if slot in names:
            for value in values:
                changed = list(params)
                changed[names.index(slot)] = value
                bad.append(changed)
    for wrong in bad:
        with pytest.raises(ParamOutOfRange):
            builtin_catalog(name, wrong)
