"""Two-characteristic coefficient specifications mu(z, w), nu(z, w).

A CoefficientSpec holds the formula text of both characteristics, parsed
once into expression trees, and a compact support radius; both vanish
outside |z| <= support_radius.
Every grid sampling reads one cached geometry of the support samples
(their indices and z; r and theta are cached apart, for a spec that
reads them) and evaluates the expressions there only. `truncate` cuts
sampled coefficients down to a rung n: by K it zeroes them wherever
their own maximal dilatation exceeds n, by Q wherever a user-supplied
majorant Q(z) exceeds n; either way the truncated pair satisfies
|mu_n| + |nu_n| <= rung_bound(n) = (n-1)/(n+1).

Evaluation is Caratheodory-shaped: measurable (here: deterministic and
pointwise) in z, continuous in w wherever the formulas are. IEEE inf/nan
propagate; callers mask or truncate degenerate samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import EllipticityViolation, ParamOutOfRange, ParseError, UnknownCatalogEntry
from .expressions import evaluate, free_variables, parse_expression, standard_env
from .grid import coordinates


@dataclass(frozen=True)
class CoefficientSpec:
    """The pair (mu, nu) as formula text, with its support; each text is
    parsed once, over the variables z, w, r and theta, into mu_expr and
    nu_expr, and `variables` holds the names the two read."""

    mu: str
    nu: str = "0"
    support_radius: float = 1.0
    label: str = ""
    mu_expr: object = field(init=False, compare=False, repr=False)
    nu_expr: object = field(init=False, compare=False, repr=False)
    variables: frozenset = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        for key in ("mu", "nu"):
            text = getattr(self, key)
            if not isinstance(text, str):
                raise ValueError(f"{key} must be text, not {type(text).__name__} {text!r}")
            object.__setattr__(self, f"{key}_expr", parse_expression(text))
        object.__setattr__(self, "variables",
                           free_variables(self.mu_expr) | free_variables(self.nu_expr))
        if not 0 < self.support_radius < math.inf:
            raise ValueError(f"support_radius must be positive and finite, "
                             f"got {self.support_radius!r}")


def coefficient_fields(spec: CoefficientSpec, z, w, polar=None):
    """Evaluate (mu, nu) on arrays of z and w values, zero outside the support.

    `polar`, when given, returns (r, theta) of z as floats, for samples
    that all lie in the support (a grid's `_support_polar`): it is called
    only when the formulas read r or theta, and no sample is tested.
    """
    z = np.asarray(z, dtype=complex)
    w = np.broadcast_to(np.asarray(w, dtype=complex), z.shape)
    if polar is None:
        env = standard_env(z, w)
    else:
        env = {"z": z, "w": w}
        if spec.variables & {"r", "theta"}:
            env.update((name, v.astype(complex)) for name, v in zip(("r", "theta"), polar())
                       if name in spec.variables)
    mu = np.broadcast_to(evaluate(spec.mu_expr, env), z.shape).copy()
    nu = np.broadcast_to(evaluate(spec.nu_expr, env), z.shape).copy()
    if polar is None:
        outside = np.abs(z) > spec.support_radius
        mu[outside] = 0.0
        nu[outside] = 0.0
    return mu, nu


def eval_coefficients(spec: CoefficientSpec, z: complex, w: complex):
    """Pointwise (mu, nu) at one (z, w); guarantees |mu|+|nu| < 1 or raises."""
    mu, nu = coefficient_fields(spec, np.asarray([z]), np.asarray([w]))
    s = np.abs(mu[0]) + np.abs(nu[0])
    if not s < 1.0:
        raise EllipticityViolation(
            f"{spec.label or 'spec'}: |mu|+|nu| = {s:.6g} >= 1 at z = {complex(z):.6g}"
        )
    return complex(mu[0]), complex(nu[0])


class SupportGeometry(NamedTuple):
    """The samples of a grid with |z| <= radius: flat indices in row-major
    order, and z there."""

    index: np.ndarray
    z: np.ndarray


@lru_cache(maxsize=16)
def _support_geometry(L: float, n: int, radius: float) -> SupportGeometry:
    """SupportGeometry of the (L, n) grid, read-only."""
    Z = coordinates(L, n).ravel()
    index = np.flatnonzero(np.abs(Z) <= radius)
    geometry = SupportGeometry(index, Z[index])
    for array in geometry:
        array.flags.writeable = False
    return geometry


@lru_cache(maxsize=16)
def _support_polar(L: float, n: int, radius: float):
    """r = |z| and theta = arg z in [0, 2pi) at the samples of
    _support_geometry, read-only floats: the bits standard_env computes.
    Cached apart, so a spec that reads neither builds neither."""
    z = _support_geometry(L, n, radius).z
    polar = np.abs(z), np.mod(np.angle(z), 2.0 * np.pi)
    for array in polar:
        array.flags.writeable = False
    return polar


def _support_samples(spec: CoefficientSpec, L: float, w: np.ndarray):
    """The support geometry of the grid w (half-side L) and (mu, nu) at
    (z, w(z)) on those samples, in its order; the coefficients vanish elsewhere."""
    n = w.shape[0]
    support = _support_geometry(L, n, spec.support_radius)
    mu, nu = coefficient_fields(spec, support.z, w.ravel()[support.index],
                                polar=lambda: _support_polar(L, n, spec.support_radius))
    return support, mu, nu


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
# builtin catalog: name -> (doc, parameter names, mu template on the unit
# disk); builtin_catalog fills the template with the repr of each parameter

CATALOG = {
    "constant-disk": ("[k]: mu = k on |z| < 1, |k| < 1", ("k",), "{k}"),
    "paper-example-sec4": (
        "[]: mu = e^{i theta} (1-r-|w|)/(1+r+|w|) on the unit disk, unbounded dilatation at 0",
        (),
        "exp(i*theta)*(1-r-abs(w))/(1+r+abs(w))",
    ),
    "paper-example-sec4-phase2": (
        "[]: phase-squared variant e^{2i theta} (...); its tangential dilatation is exactly r+|w|",
        (),
        "exp(2*i*theta)*(1-r-abs(w))/(1+r+abs(w))",
    ),
    "radial-power": ("[k, p]: mu = k r^p on |z| < 1", ("k", "p"), "{k}*r^{p}"),
    "w-damped-disk": ("[k]: mu = k/(1+|w|^2) on |z| < 1", ("k",), "{k}/(1+abs(w)^2)"),
}


def builtin_catalog(name: str, params=()) -> CoefficientSpec:
    """Build a catalog coefficient spec by name; needs |k| < 1 and p > 0."""
    try:
        _, names, template = CATALOG[name]
    except KeyError:
        raise UnknownCatalogEntry(
            f"unknown catalog entry {name!r}; known: {', '.join(sorted(CATALOG))}"
        ) from None
    if len(params) != len(names):
        raise ParamOutOfRange(f"{name} takes parameters [{', '.join(names)}], got {len(params)}")
    given = {key: float(v) for key, v in zip(names, params)}
    if "k" in given and not abs(given["k"]) < 1:
        raise ParamOutOfRange(f"{name} needs |k| < 1, got {given['k']}")
    if "p" in given and not given["p"] > 0:
        raise ParamOutOfRange(f"{name} needs p > 0, got {given['p']}")
    return spec_from_dict({
        "label": "-".join([name] + [f"{v:g}" for v in given.values()]),
        "mu": template.format(**{key: repr(v) for key, v in given.items()}),
        "support_radius": 1.0,
    })


# ---------------------------------------------------------------------------
# serialization: a flat dict of strings and the support radius, written into
# solution archives and read, as key = value text, from spec files

def spec_to_dict(spec: CoefficientSpec) -> dict:
    """The label, mu and nu as written, and support radius of a spec."""
    return {
        "label": spec.label,
        "mu": spec.mu,
        "nu": spec.nu,
        "support_radius": spec.support_radius,
    }


def spec_from_dict(fields: dict, source=None) -> CoefficientSpec:
    """Inverse of spec_to_dict; nu defaults to 0 and label to empty.

    A bad value or expression keeps its error type and, given the
    `source` it was read from, names it.
    """
    try:
        if not isinstance(fields, dict):
            raise ValueError(f"spec is a {type(fields).__name__}, not a table of keys")
        missing = {"mu", "support_radius"} - fields.keys()
        if missing:
            raise ValueError(f"spec missing keys {sorted(missing)}")
        radius = fields["support_radius"]
        try:
            radius = float(radius)
        except (TypeError, ValueError):
            raise ValueError(f"support_radius must be a number, not {radius!r}") from None
        return CoefficientSpec(mu=fields["mu"], nu=fields.get("nu", "0"),
                               support_radius=radius, label=fields.get("label", ""))
    except (ValueError, ParseError) as exc:
        if source is not None:
            exc.args = (f"{source}: {exc}",)
        raise


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
    """Read a spec file; a bad value or expression keeps its error type and names the file."""
    return spec_from_dict(read_key_values(path), source=path)
