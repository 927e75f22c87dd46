from dataclasses import asdict

import numpy as np
import pytest

from beltrami_lab.coefficients import builtin_catalog
from beltrami_lab.conditions import (
    CONVERGENT,
    DIVERGENT,
    INCONCLUSIVE,
    LIKELY_FMO,
    LIKELY_NOT_FMO,
    audit_theorem1,
    circle_mean,
    default_psi,
    disk_integral,
    divergence_integral,
    fmo_estimate,
    parse_majorant,
    psi_admissibility,
)
from beltrami_lab.errors import BoundViolation, QuadratureFailure
from beltrami_lab.linear_solver import _write_json


def test_circle_mean_constant():
    q = parse_majorant("1")
    assert circle_mean(q, 0.3 + 0.1j, 0.2) == pytest.approx(1.0)
    q3 = parse_majorant("3")
    assert circle_mean(q3, 0, 0.5, m=33) == pytest.approx(3.0)


def test_circle_mean_reciprocal_radius():
    # circle means of 1/r around the origin are 1/r itself
    q = parse_majorant("1/r")
    for r in (0.1, 0.25, 0.7):
        assert circle_mean(q, 0, r) == pytest.approx(1 / r, rel=1e-12)


def test_circle_mean_squared_radius():
    q = parse_majorant("abs(z)^2")
    assert circle_mean(q, 0, 0.5) == pytest.approx(0.25, rel=1e-12)


def test_circle_mean_node_floor():
    with pytest.raises(ValueError):
        circle_mean(parse_majorant("1"), 0, 0.5, m=8)


def test_circle_mean_convergence_order():
    # Lipschitz integrand with kinks on the circle: trapezoid converges at
    # second order in the node count
    q = parse_majorant("abs(re(z))")
    ref = circle_mean(q, 0.1 + 0.2j, 0.5, m=65536)
    errs = [abs(circle_mean(q, 0.1 + 0.2j, 0.5, m=m) - ref) for m in (32, 64, 128)]
    orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert min(orders) >= 1.9


def test_disk_integral_of_reciprocal_radius():
    # integral of 1/r over the unit disk is 2 pi
    q = parse_majorant("1/r")
    assert disk_integral(q, 0, 1.0) == pytest.approx(2 * np.pi, rel=1e-6)


@pytest.mark.parametrize("c", [1.0, 2.5])
def test_divergence_constant_majorant(c):
    # I(eps) = (1/c) log(delta/eps) grows without bound
    rep = divergence_integral(parse_majorant(repr(c)), 0, delta=0.5)
    assert rep.verdict == DIVERGENT
    exact = np.log(0.5 / np.asarray(rep.eps)) / c
    np.testing.assert_allclose(rep.partials, exact, rtol=1e-6)


def test_divergence_reciprocal_radius_converges_to_delta():
    # I(eps) = delta - eps, limit delta
    rep = divergence_integral(parse_majorant("1/r"), 0, delta=0.5)
    assert rep.verdict == CONVERGENT
    assert rep.limit == pytest.approx(0.5, abs=1e-4)


def test_divergence_log_majorant_diverges():
    # integrand 1/(r log(1/r)); antiderivative log log(1/r) still diverges
    rep = divergence_integral(parse_majorant("log(1/r)"), 0, delta=0.4)
    assert rep.verdict == DIVERGENT


def test_divergence_between_the_ratio_thresholds_is_inconclusive():
    # integrand r^-0.678: each dyadic ring's increment is 2^-0.322 = 0.80 of the last,
    # between the convergent (0.75) and divergent (0.85) ratios
    rep = divergence_integral(parse_majorant("r^-0.3219"), 0, 0.5)
    assert rep.verdict == INCONCLUSIVE
    assert rep.median_ratio == pytest.approx(0.80, abs=1e-3)
    assert rep.limit is None


def test_fmo_slowly_growing_oscillation_is_inconclusive():
    # r^-0.05: the oscillation grows, but by less than 2x over the eps ladder
    rep = fmo_estimate(parse_majorant("r^-0.05"), 0)
    assert rep.verdict == INCONCLUSIVE
    assert 1.25 * rep.oscillations[1] < rep.oscillations[-1] < 2.0 * rep.oscillations[0]


def test_fmo_constant_zero_oscillation():
    rep = fmo_estimate(parse_majorant("7"), 0)
    assert max(rep.oscillations) < 1e-12
    assert rep.verdict == LIKELY_FMO


def test_fmo_log_singularity_is_bounded():
    # the classical unbounded FMO exemplar: oscillation is scale invariant
    rep = fmo_estimate(parse_majorant("log(1/abs(z))"), 0)
    assert rep.verdict == LIKELY_FMO
    assert max(rep.oscillations) <= 1.25 * min(rep.oscillations)


def test_fmo_reciprocal_radius_grows():
    rep = fmo_estimate(parse_majorant("1/abs(z)"), 0)
    assert rep.verdict == LIKELY_NOT_FMO
    # disk means of 1/|z| over B(0, eps) are 2/eps
    np.testing.assert_allclose(rep.means, 2.0 / np.asarray(rep.eps), rtol=1e-6)


def test_psi_reciprocal_is_admissible():
    # psi = 1/t with q1 = 1: I = log(eps0/eps) -> inf, R = 2 pi / I -> 0
    rep = psi_admissibility(lambda t: 1.0 / t, parse_majorant("1"), 0,
                            eps0=0.25, eps_prime=0.25)
    assert rep.finite_positive
    assert rep.I_unbounded == DIVERGENT
    assert rep.o_I2
    assert rep.admissible
    expected_R = 2 * np.pi / np.log(0.25 / np.asarray(rep.eps))
    np.testing.assert_allclose(rep.R_values, expected_R, rtol=1e-5)


def test_psi_constant_not_admissible():
    # as an expression in t this time
    rep = psi_admissibility("1+0*t", parse_majorant("1"), 0,
                            eps0=0.25, eps_prime=0.25)
    assert rep.I_unbounded == CONVERGENT
    assert not rep.admissible


def test_default_psi_for_reciprocal_majorant_not_admissible():
    # q1 = 1/r gives psi = 1/(t q(t)) = 1, a bounded integral
    q1 = parse_majorant("1/r")
    rep = psi_admissibility(default_psi(q1, 0), q1, 0, eps0=0.25, eps_prime=0.25)
    assert rep.I_unbounded == CONVERGENT
    assert not rep.admissible


def test_audit_constant_disk_trivial():
    spec = builtin_catalog("constant-disk", [0.5])
    Q = parse_majorant("3")    # K = (1+0.5)/(1-0.5) = 3 exactly
    report = audit_theorem1(spec, Q, Q, probe_points=[0.0])
    assert report.max_k_minus_q <= 1e-9
    probe = report.probes[0]
    assert probe.fmo.verdict == LIKELY_FMO
    assert probe.divergence.verdict == DIVERGENT
    assert probe.hypothesis_ok


def test_audit_takes_a_plain_callable_q1():
    spec = builtin_catalog("constant-disk", [0.5])
    Q = parse_majorant("3")
    plain = audit_theorem1(spec, Q, lambda z: np.full(np.shape(z), 3.0), [0.0, 0.2])
    parsed = audit_theorem1(spec, Q, Q, [0.0, 0.2])
    assert asdict(plain) == asdict(parsed)


def test_audit_sec4_bounds_on_restricted_w_range():
    # the printed bound K <= 1/r holds where r + |w| <= 1; restricting the
    # sampled |w| below 1 - max r keeps the audit inside that regime
    spec = builtin_catalog("paper-example-sec4")
    Q = parse_majorant("1/r")
    q1 = parse_majorant("1/r")
    report = audit_theorem1(spec, Q, q1, probe_points=[0.0], w_max=0.01)
    assert report.max_k_minus_q <= 1e-9
    # Q = 1/r itself fails the divergence hypothesis (the integral is finite)
    assert report.probes[0].divergence.verdict == CONVERGENT
    # the constant tangential majorant Q1 = 1 satisfies the divergence
    # condition; its pointwise bound K^T <= 1 holds for the phase-squared
    # variant, whose tangential dilatation collapses to r + |w|
    phase2 = builtin_catalog("paper-example-sec4-phase2")
    report_q1 = audit_theorem1(phase2, Q, parse_majorant("1"), probe_points=[0.0],
                               w_max=0.01)
    assert report_q1.max_kt_minus_q1 <= 1e-9
    assert report_q1.probes[0].divergence.verdict == DIVERGENT
    assert report_q1.probes[0].hypothesis_ok
    # the printed phase does not cancel, so the same bound fails for it
    with pytest.raises(BoundViolation):
        audit_theorem1(spec, Q, parse_majorant("1"), probe_points=[0.0], w_max=0.01)


def test_audit_sec4_large_w_violates_printed_bound():
    # for |w| > 1 - r the maximal dilatation is r + |w|, which crosses 1/r
    spec = builtin_catalog("paper-example-sec4")
    Q = parse_majorant("1/r")
    with pytest.raises(BoundViolation) as err:
        audit_theorem1(spec, Q, Q, probe_points=[0.0], w_max=100.0)
    z, w, theta = err.value.witness
    assert abs(w) > 1 - abs(z)


def test_audit_bound_violation_witness():
    # constant-disk K = 3 against the absurd majorant Q = 0.5
    spec = builtin_catalog("constant-disk", [0.5])
    with pytest.raises(BoundViolation) as err:
        audit_theorem1(spec, parse_majorant("0.5"), parse_majorant("10"), [0.0])
    assert err.value.value == pytest.approx(3.0)
    assert err.value.bound == 0.5


def test_kt_q1_bound_violation():
    spec = builtin_catalog("paper-example-sec4")
    Q = parse_majorant("1/r")
    # the printed-phase variant exceeds the constant bound away from theta = 0
    with pytest.raises(BoundViolation):
        audit_theorem1(spec, Q, parse_majorant("0.3"), probe_points=[0.0], w_max=0.01)


def test_report_json_round_trip(tmp_path):
    import json

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    spec = builtin_catalog("constant-disk", [0.5])
    Q = parse_majorant("3")
    report = audit_theorem1(spec, Q, Q, probe_points=[0.0, 0.2 + 0.1j])
    path = tmp_path / "report.json"
    _write_json(report, path)
    loaded = json.loads(path.read_text(), parse_constant=reject)
    assert loaded["label"] == spec.label
    assert len(loaded["probes"]) == 2
    assert loaded["probes"][0]["divergence"]["verdict"] == DIVERGENT
    assert loaded["probes"][1]["z0"] == [0.2, 0.1]


@pytest.mark.parametrize("c", ["1", "1e14", "1e20"])
def test_constant_majorant_divergence_agrees_with_psi(c):
    # the increments ln(2)/c stay equal however small a large c makes them
    q = parse_majorant(c)
    rep = divergence_integral(q, 0, delta=0.5)
    assert rep.verdict == DIVERGENT
    assert rep.limit is None
    psi = psi_admissibility(default_psi(q, 0), q, 0, eps0=0.5, eps_prime=0.5)
    assert psi.I_unbounded == rep.verdict


def test_circle_mean_of_a_majorant_infinite_on_the_circle_raises():
    # 1/(r - 0.5) is infinite at every node of the circle r = 0.5
    with pytest.raises(QuadratureFailure, match="not finite on the circle"):
        circle_mean(parse_majorant("1/(r-0.5)"), 0, 0.5)
