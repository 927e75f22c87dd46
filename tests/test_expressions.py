import numpy as np
import pytest

from beltrami_lab.coefficients import CoefficientSpec, spec_from_dict, spec_to_dict
from beltrami_lab.errors import ParseError, UnknownIdentifier
from beltrami_lab.expressions import Num, evaluate, free_variables, parse_expression, standard_env


def ev(text, z, w=0j):
    tree = parse_expression(text)
    return complex(evaluate(tree, standard_env(z, w)))


def test_zero_constant():
    tree = parse_expression("0")
    assert tree == Num(0.0 + 0.0j)
    assert ev("0", 1 + 1j) == 0


def test_sec4_formula_hand_value():
    # hand substitution: theta = arg(0.5) = 0, r = 0.5, |w| = 0 gives 1/3
    val = ev("exp(i*theta)*(1-r-abs(w))/(1+r+abs(w))", 0.5, 0)
    assert val == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_syntax_error_offset():
    with pytest.raises(ParseError) as err:
        parse_expression("1+*z")
    assert err.value.offset == 2
    assert err.value.expected


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifier) as err:
        parse_expression("1 + q")
    assert err.value.name == "q"


def test_empty_input_rejected():
    with pytest.raises(ParseError):
        parse_expression("   ")


@pytest.mark.parametrize(
    "text,expected",
    [
        ("2^3", 8),
        ("-2^2", -4),               # unary minus binds below ^
        ("2^-2", 0.25),
        ("1+2*3", 7),
        ("(1+2)*3", 9),
        ("6/3/2", 1),               # left associative
        ("2^1^2", 2),               # right associative: 2^(1^2)
        ("1-2-3", -4),
        ("-i*i", 1),
        ("re(3+4*i)", 3),
        ("im(3+4*i)", 4),
        ("abs(3+4*i)", 5),
        ("conj(i)", -1j),
    ],
)
def test_precedence_and_functions(text, expected):
    assert ev(text, 0.3 + 0.1j) == pytest.approx(expected, abs=1e-14)


def test_theta_is_arg_z_in_0_2pi():
    assert ev("theta", -1 + 0j) == pytest.approx(np.pi)
    assert ev("theta", 1 - 1e-9j).real == pytest.approx(2 * np.pi, abs=1e-6)
    assert ev("arg(w)", 1.0, w=-1j).real == pytest.approx(1.5 * np.pi)


def test_division_by_zero_strict():
    assert np.isinf(ev("1/r", 0).real)


def test_vectorized_evaluation_matches_scalar():
    tree = parse_expression("exp(i*theta)*(1-r-abs(w))/(1+r+abs(w))")
    zs = np.array([0.5, 0.25 + 0.1j, -0.3j])
    ws = np.array([0, 0.1, 0.2 + 0.2j])
    vec = evaluate(tree, standard_env(zs, ws))
    for k in range(3):
        assert vec[k] == complex(evaluate(tree, standard_env(zs[k], ws[k])))


@pytest.mark.parametrize("text, names", [
    ("0.5", set()),
    ("i", set()),
    ("0.5*exp(i*theta)*r^2", {"theta", "r"}),
    ("z/(1+abs(w))", {"z", "w"}),
    ("-re(conj(w))", {"w"}),
    ("exp(i*8*abs(w)^2)", {"w"}),
    ("im(z)^sqrt(log(w))", {"z", "w"}),
])
def test_free_variables(text, names):
    assert free_variables(parse_expression(text)) == names


def test_overflowing_literal_is_refused_at_its_offset():
    # no float holds 1e999; reading it as inf would evaluate another number than written
    with pytest.raises(ParseError, match="overflows") as err:
        parse_expression("0.5+1/1e999")
    assert err.value.offset == 6


# ---------------------------------------------------------------------------
# bounded depth

DEEPEST = {
    "groups": "(" * 99 + "z" + ")" * 99,
    "sum": "+".join(["w"] * 100),
    "minuses": "-" * 99 + "z",
    "powers": "^".join(["z"] * 100),
    "calls": "exp(" * 99 + "z" + ")" * 99,
    # the exponent and the grouped right operand add no level of their own
    "negative-exponent": "-" * 97 + "z^-z",
    "right-grouped": "-" * 98 + "z*(z*z)",
}
ONE_DEEPER = {  # (text, offset of the token that crosses the limit)
    "groups": ("(" * 100 + "z" + ")" * 100, 99),
    "sum": ("+".join(["w"] * 101), 199),
    "minuses": ("-" * 100 + "z", 99),
    "powers": ("^".join(["z"] * 101), 199),
    "calls": ("exp(" * 100 + "z" + ")" * 100, 396),
    "group-then-power": ("(" * 99 + "z" + ")" * 99 + "^z", 199),
}


@pytest.mark.parametrize("shape", sorted(DEEPEST))
def test_deepest_accepted_expression_evaluates_and_round_trips(shape):
    tree = parse_expression(DEEPEST[shape])
    env = standard_env(np.array([0.3 + 0.1j]), np.array([0.2 - 0.1j]))
    assert evaluate(tree, env).shape == (1,)
    # a spec serializes the text it was parsed from, so the text comes back as written
    spec = spec_from_dict(spec_to_dict(CoefficientSpec(mu=DEEPEST[shape])))
    assert (spec.mu, spec.mu_expr) == (DEEPEST[shape], tree)
    assert free_variables(tree) == {"w" if shape == "sum" else "z"}


@pytest.mark.parametrize("shape", sorted(ONE_DEEPER))
def test_expression_past_the_depth_limit_is_refused(shape):
    text, offset = ONE_DEEPER[shape]
    with pytest.raises(ParseError, match="deeper than 100 levels") as err:
        parse_expression(text)
    assert err.value.offset == offset


def test_depth_limit_counts_levels_not_length():
    # a balanced sum of 1024 operands is long but only 21 levels deep
    text = "z"
    for _ in range(10):
        text = f"({text})+({text})"
    tree = parse_expression(text)
    assert len(text) > 6000
    assert complex(evaluate(tree, standard_env(0.5))) == 512
