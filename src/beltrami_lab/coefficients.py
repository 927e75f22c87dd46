"""Two-characteristic coefficient specifications mu(z, w), nu(z, w).

A CoefficientSpec bundles expression trees for both characteristics, a
compact support radius (both vanish where |z| > support_radius) and an
optional stack of truncation predicates. Truncation by K zeroes the
coefficients wherever their own maximal dilatation exceeds the rung n,
truncation by Q wherever a user-supplied majorant Q(z) exceeds n; either
way the truncated pair satisfies |mu_n| + |nu_n| <= (n-1)/(n+1).

Evaluation is Caratheodory-shaped: measurable (here: deterministic and
pointwise) in z, continuous in w wherever the formulas are.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

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

BY_K = "by_k"
BY_Q = "by_q"


def parse_coefficient_expr(text: str):
    """Parse a coefficient expression over the variables {z, w, r, theta}."""
    return parse_expression(text, COEFFICIENT_VARIABLES)


@dataclass(frozen=True)
class TruncationPredicate:
    """Keep coefficients where the predicate holds, zero them elsewhere.

    BY_K keeps points with K_{mu,nu}(z, w) <= n, which depends on (z, w)
    through the coefficients only. BY_Q keeps points with Q(z) <= n for a
    scalar majorant q_evaluator(z) -> real array.
    """

    mode: str
    n: int
    q_evaluator: object = None

    def __post_init__(self):
        if self.mode not in (BY_K, BY_Q):
            raise ValueError(f"unknown truncation mode {self.mode!r}")
        if self.n < 1:
            raise ValueError(f"truncation threshold must be >= 1, got {self.n}")
        if self.mode == BY_Q and self.q_evaluator is None:
            raise ValueError("BY_Q truncation needs a majorant evaluator")

    @property
    def k_bound(self) -> float:
        return (self.n - 1.0) / (self.n + 1.0)


@dataclass(frozen=True)
class CoefficientSpec:
    """Evaluable description of the pair (mu, nu) with its support."""

    mu_expr: object
    nu_expr: object = ZERO
    support_radius: float = 1.0
    label: str = ""
    truncations: tuple = field(default=())

    def __post_init__(self):
        if self.support_radius <= 0:
            raise ValueError("support_radius must be positive")


def coefficient_fields(spec: CoefficientSpec, z, w, strict: bool = True):
    """Evaluate (mu, nu) on arrays of z and w values.

    Applies the support cut and every truncation predicate. With
    strict=True an ellipticity failure |mu|+|nu| >= 1 at a surviving
    sample raises; strict=False returns the raw values (the caller masks
    degenerate samples itself).
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
    for pred in spec.truncations:
        s = np.abs(mu) + np.abs(nu)
        if pred.mode == BY_K:
            keep = s <= pred.k_bound + 1e-15
        else:
            q = np.real(np.asarray(pred.q_evaluator(z)))
            keep = q <= pred.n
        mu = np.where(keep, mu, 0.0)
        nu = np.where(keep, nu, 0.0)
        s_kept = np.abs(mu) + np.abs(nu)
        bad = (s_kept > pred.k_bound + 1e-12) | ~np.isfinite(s_kept)
        if np.any(bad):
            zb = z[bad].ravel()[0]
            raise EllipticityViolation(
                f"{spec.label or 'spec'}: |mu|+|nu| = {s_kept[bad].ravel()[0]:.6g} "
                f"survives truncation at rung {pred.n} (z = {zb:.6g}); majorant too weak"
            )
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


def truncate_spec(spec: CoefficientSpec, pred: TruncationPredicate) -> CoefficientSpec:
    """Stack one more truncation predicate onto the spec."""
    return replace(spec, truncations=spec.truncations + (pred,))


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
    """The label, printed mu and nu, and support radius of a spec (truncations are dropped)."""
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
