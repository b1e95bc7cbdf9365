"""Differential test: integer Fourier–Motzkin vs the rational oracle.

:func:`repro.poly.fm.check_feasibility` substitutes equalities, keeps
rows as primitive integer vectors and drops dominated constants; the
``Fraction`` oracle in :mod:`fm_reference` splits equalities into two
inequalities and eliminates in name order.  Both decide rational
feasibility after the same GCD pre-test, so their verdicts must agree
exactly on every system — not merely in the conservative direction.
"""

from fractions import Fraction

from fm_reference import reference_feasible
from hypothesis import given, settings, strategies as st

from repro.poly.affine import AffineExpr
from repro.poly.constraint import EQ, GE, Constraint, ConstraintSystem
from repro.poly.fm import _gcd_test, check_feasibility

NAMES = tuple(f"x{i}" for i in range(6))

numbers = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4))


@st.composite
def systems(draw):
    """Up to 6 variables and 10 constraints: equalities, ``Fraction``
    coefficients, rows parallel to or duplicating an earlier one, and
    variable-free rows."""
    names = NAMES[:draw(st.integers(min_value=1, max_value=6))]
    constraints = []
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        kind = draw(st.sampled_from((GE, GE, EQ)))
        if constraints and draw(st.integers(min_value=0, max_value=2)) == 0:
            base = draw(st.sampled_from(constraints)).expr
            scale = draw(st.sampled_from((1, 2, -1, -3, Fraction(1, 2))))
            expr = base * scale + draw(st.integers(min_value=-2, max_value=2))
        else:
            support = draw(st.lists(
                st.sampled_from(names), max_size=3, unique=True))
            expr = AffineExpr({v: draw(numbers) for v in support},
                              draw(numbers))
        constraints.append(Constraint(expr, kind))
    return ConstraintSystem(constraints)


@settings(max_examples=400)
@given(systems())
def test_verdict_equals_rational_oracle(system):
    result = check_feasibility(system)
    assert result.feasible == reference_feasible(system), system
    assert result.reason
    if not _gcd_test(system, sorted(system.variables())):
        assert not result.feasible
        assert "gcd" in result.reason


def test_reasons_name_the_refuting_step():
    x = AffineExpr.var("x")
    y = AffineExpr.var("y")
    cases = [
        ([Constraint(x * 2 + y * 4 - 7, EQ)], "gcd"),
        ([Constraint(AffineExpr.const(-1))], "constant"),
        ([Constraint.eq(x, y), Constraint.eq(x, y + 1)], "equality"),
        ([Constraint.ge(x, 3), Constraint.le(x, 2)], "opposing bounds"),
        ([Constraint.lt(x, y), Constraint.lt(y, AffineExpr.var("z")),
          Constraint.lt(AffineExpr.var("z"), x)], "no room"),
    ]
    for constraints, word in cases:
        result = check_feasibility(ConstraintSystem(constraints))
        assert not result.feasible
        assert word in result.reason, (constraints, result)
    assert check_feasibility(ConstraintSystem()).reason
