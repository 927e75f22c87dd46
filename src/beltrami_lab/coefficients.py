"""Two-characteristic coefficient specifications mu(z, w), nu(z, w).

A CoefficientSpec bundles expression trees for both characteristics and
a compact support radius (both vanish where |z| > support_radius).
`truncate` cuts sampled coefficients down to a rung n: by K it zeroes
them wherever their own maximal dilatation exceeds n, by Q wherever a
user-supplied majorant Q(z) exceeds n; either way the truncated pair
satisfies |mu_n| + |nu_n| <= rung_bound(n) = (n-1)/(n+1).

Evaluation is Caratheodory-shaped: measurable (here: deterministic and
pointwise) in z, continuous in w wherever the formulas are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EllipticityViolation, ParamOutOfRange, UnknownCatalogEntry
from .expressions import (
    COEFFICIENT_VARIABLES,
    ZERO,
    evaluate,
    format_expression,
    parse_expression,
    standard_env,
)


def parse_coefficient_expr(text: str):
    """Parse a coefficient expression over the variables {z, w, r, theta}."""
    return parse_expression(text, COEFFICIENT_VARIABLES)


@dataclass(frozen=True)
class CoefficientSpec:
    """Evaluable description of the pair (mu, nu) with its support."""

    mu_expr: object
    nu_expr: object = ZERO
    support_radius: float = 1.0
    label: str = ""

    def __post_init__(self):
        if self.support_radius <= 0:
            raise ValueError("support_radius must be positive")


def coefficient_fields(spec: CoefficientSpec, z, w, strict: bool = True):
    """Evaluate (mu, nu) on arrays of z and w values, zero outside the support.

    With strict=True an ellipticity failure |mu|+|nu| >= 1 at any sample
    raises; strict=False returns the raw values (the caller masks or
    truncates degenerate samples itself).
    """
    z = np.asarray(z, dtype=complex)
    w = np.broadcast_to(np.asarray(w, dtype=complex), z.shape)
    env = standard_env(z, w)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        mu = np.broadcast_to(evaluate(spec.mu_expr, env, strict=False), z.shape).copy()
        nu = np.broadcast_to(evaluate(spec.nu_expr, env, strict=False), z.shape).copy()
    outside = np.abs(z) > spec.support_radius
    mu[outside] = 0.0
    nu[outside] = 0.0
    if strict:
        s = np.abs(mu) + np.abs(nu)
        bad = ~(s < 1.0)
        if np.any(bad):
            idx = np.argwhere(bad)[0]
            zb = z[tuple(idx)]
            raise EllipticityViolation(
                f"{spec.label or 'spec'}: |mu|+|nu| = {s[tuple(idx)]:.6g} >= 1 at z = {zb:.6g}"
            )
    return mu, nu


def eval_coefficients(spec: CoefficientSpec, z: complex, w: complex):
    """Pointwise (mu, nu) at one (z, w); guarantees |mu|+|nu| < 1 or raises."""
    mu, nu = coefficient_fields(spec, np.asarray([z]), np.asarray([w]), strict=True)
    return complex(mu[0]), complex(nu[0])


def rung_bound(n) -> float:
    """The ellipticity bound (n-1)/(n+1) of coefficients truncated at rung n."""
    return (n - 1.0) / (n + 1.0)


def truncate(mu, nu, n, q=None, z=None):
    """Zero, in place, the samples of (mu, nu) that fail the test of rung n.

    By K (q is None) a sample is kept where |mu|+|nu| <= rung_bound(n),
    i.e. where its maximal dilatation is at most n; non-finite samples go.
    By Q a sample is kept where the majorant q(z) <= n, and a kept sample
    that is non-finite or above rung_bound(n) means q does not majorize K.
    Returns (mu, nu); zeroing in place keeps grid-sized copies out of the
    solver's outer loop.
    """
    bound = rung_bound(n)
    if q is None:
        drop = ~(np.abs(mu) + np.abs(nu) <= bound + 1e-15)
    else:
        drop = ~(np.real(np.asarray(q(z))) <= n)
    mu[drop] = 0.0
    nu[drop] = 0.0
    if q is not None:
        s = np.abs(mu) + np.abs(nu)
        bad = ~(s <= bound + 1e-12)
        if np.any(bad):
            raise EllipticityViolation(
                f"|mu|+|nu| = {s[bad].ravel()[0]:.6g} survives truncation at rung {n} "
                f"(z = {z[bad].ravel()[0]:.6g}); majorant too weak"
            )
    return mu, nu


# ---------------------------------------------------------------------------
# builtin catalog

_SEC4_EXPR = "exp(i*theta)*(1-r-abs(w))/(1+r+abs(w))"
_SEC4_PHASE2_EXPR = "exp(2*i*theta)*(1-r-abs(w))/(1+r+abs(w))"


def _entry_constant_disk(params):
    if len(params) != 1:
        raise ParamOutOfRange("constant-disk takes exactly one parameter k")
    k = float(params[0])
    if not abs(k) < 1:
        raise ParamOutOfRange(f"constant-disk needs |k| < 1, got {k}")
    return CoefficientSpec(
        mu_expr=parse_coefficient_expr(repr(k)),
        support_radius=1.0,
        label=f"constant-disk-{k:g}",
    )


def _entry_sec4(params):
    if params:
        raise ParamOutOfRange("paper-example-sec4 takes no parameters")
    return CoefficientSpec(
        mu_expr=parse_coefficient_expr(_SEC4_EXPR),
        support_radius=1.0,
        label="paper-example-sec4",
    )


def _entry_sec4_phase2(params):
    if params:
        raise ParamOutOfRange("paper-example-sec4-phase2 takes no parameters")
    return CoefficientSpec(
        mu_expr=parse_coefficient_expr(_SEC4_PHASE2_EXPR),
        support_radius=1.0,
        label="paper-example-sec4-phase2",
    )


def _entry_radial_power(params):
    if len(params) != 2:
        raise ParamOutOfRange("radial-power takes parameters [k, p]")
    k, p = float(params[0]), float(params[1])
    if not abs(k) < 1:
        raise ParamOutOfRange(f"radial-power needs |k| < 1, got k = {k}")
    if p <= 0:
        raise ParamOutOfRange(f"radial-power needs p > 0, got p = {p}")
    return CoefficientSpec(
        mu_expr=parse_coefficient_expr(f"{k!r}*r^{p!r}"),
        support_radius=1.0,
        label=f"radial-power-{k:g}-{p:g}",
    )


def _entry_w_damped_disk(params):
    if len(params) != 1:
        raise ParamOutOfRange("w-damped-disk takes exactly one parameter k")
    k = float(params[0])
    if not abs(k) < 1:
        raise ParamOutOfRange(f"w-damped-disk needs |k| < 1, got {k}")
    return CoefficientSpec(
        mu_expr=parse_coefficient_expr(f"{k!r}/(1+abs(w)^2)"),
        support_radius=1.0,
        label=f"w-damped-disk-{k:g}",
    )


CATALOG = {
    "constant-disk": (_entry_constant_disk, "[k]: mu = k on |z| < 1, |k| < 1"),
    "paper-example-sec4": (
        _entry_sec4,
        "[]: mu = e^{i theta} (1-r-|w|)/(1+r+|w|) on the unit disk, unbounded dilatation at 0",
    ),
    "paper-example-sec4-phase2": (
        _entry_sec4_phase2,
        "[]: phase-squared variant e^{2i theta} (...); its tangential dilatation is exactly r+|w|",
    ),
    "radial-power": (_entry_radial_power, "[k, p]: mu = k r^p on |z| < 1"),
    "w-damped-disk": (_entry_w_damped_disk, "[k]: mu = k/(1+|w|^2) on |z| < 1"),
}


def builtin_catalog(name: str, params=()) -> CoefficientSpec:
    """Build a catalog coefficient spec by name."""
    try:
        builder, _ = CATALOG[name]
    except KeyError:
        raise UnknownCatalogEntry(
            f"unknown catalog entry {name!r}; known: {', '.join(sorted(CATALOG))}"
        ) from None
    return builder(tuple(params))


# ---------------------------------------------------------------------------
# serialization: a flat dict of strings and the support radius, written into
# solution archives and, as key = value text, into spec files

def spec_to_dict(spec: CoefficientSpec) -> dict:
    """The label, printed mu and nu, and support radius of a spec."""
    return {
        "label": spec.label,
        "mu": format_expression(spec.mu_expr),
        "nu": format_expression(spec.nu_expr),
        "support_radius": spec.support_radius,
    }


def spec_from_dict(fields: dict) -> CoefficientSpec:
    """Inverse of spec_to_dict; nu defaults to 0 and label to empty."""
    return CoefficientSpec(
        mu_expr=parse_coefficient_expr(fields["mu"]),
        nu_expr=parse_coefficient_expr(fields.get("nu", "0")),
        support_radius=float(fields["support_radius"]),
        label=fields.get("label", ""),
    )


def save_spec_file(spec: CoefficientSpec, path):
    fields = spec_to_dict(spec)
    lines = [f'{key} = "{fields[key]}"' for key in ("label", "mu", "nu")]
    lines.append(f"support_radius = {fields['support_radius']!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_key_values(path) -> dict:
    """Read flat `key = value` lines, the format of spec and config files.

    `#` starts a comment, `[section]` lines are skipped, surrounding
    double quotes are stripped and a repeated key keeps its last value.
    """
    fields = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line or (line.startswith("[") and line.endswith("]")):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, val = (part.strip() for part in line.split("=", 1))
            fields[key] = val.strip('"')
    return fields


def load_spec_file(path) -> CoefficientSpec:
    fields = read_key_values(path)
    missing = {"mu", "support_radius"} - fields.keys()
    if missing:
        raise ValueError(f"{path}: missing keys {sorted(missing)}")
    return spec_from_dict(fields)
