"""Rational Fourier–Motzkin over ``Fraction`` rows: the test-only oracle.

This is the straightforward form of the feasibility test that
:mod:`repro.poly.fm` decides exactly over integer rows: every equality
becomes two inequalities, all coefficients stay ``Fraction``, variables
are eliminated in sorted-name order, and rows are deduplicated after
scaling by their first non-zero coefficient.  It shares the GCD pre-test
with the production module, so the two must return the same verdict on
every system.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Tuple

from repro.poly.constraint import EQ, GE, ConstraintSystem
from repro.poly.fm import _gcd_test

# A linear inequality sum(coeffs[i] * x_i) + const >= 0 in dense form.
_Row = Tuple[Tuple[Fraction, ...], Fraction]


def reference_feasible(system: ConstraintSystem) -> bool:
    """GCD pre-test, then rational Fourier–Motzkin elimination."""
    variables = sorted(system.variables())
    if not _gcd_test(system, variables):
        return False
    rows = _to_rows(system, variables)
    if rows is None:
        return False
    return _eliminate(rows, len(variables))


def _to_rows(system: ConstraintSystem, variables: List[str]):
    """Densify to inequality rows; equalities become two inequalities.

    Returns None if a variable-free constraint is already violated.
    """
    index: Dict[str, int] = {v: i for i, v in enumerate(variables)}
    rows: List[_Row] = []
    for constraint in system:
        coeffs = [Fraction(0)] * len(variables)
        for var, coeff in constraint.expr.coeffs.items():
            coeffs[index[var]] = Fraction(coeff)
        const = Fraction(constraint.expr.constant)
        if all(c == 0 for c in coeffs):
            if constraint.kind == EQ and const != 0:
                return None
            if constraint.kind == GE and const < 0:
                return None
            continue
        rows.append((tuple(coeffs), const))
        if constraint.kind == EQ:
            rows.append((tuple(-c for c in coeffs), -const))
    return rows


def _eliminate(rows: List[_Row], nvars: int) -> bool:
    """Eliminate variables one by one, combining opposite-sign rows."""
    for var in range(nvars):
        positive: List[_Row] = []
        negative: List[_Row] = []
        neutral: List[_Row] = []
        for coeffs, const in rows:
            coeff = coeffs[var]
            if coeff > 0:
                positive.append((coeffs, const))
            elif coeff < 0:
                negative.append((coeffs, const))
            else:
                neutral.append((coeffs, const))

        new_rows = neutral
        for pos_coeffs, pos_const in positive:
            for neg_coeffs, neg_const in negative:
                # pos gives lower bound on x_var, neg gives upper bound;
                # combine so the variable cancels.
                scale_pos = -neg_coeffs[var]
                scale_neg = pos_coeffs[var]
                coeffs = tuple(
                    scale_pos * pc + scale_neg * nc
                    for pc, nc in zip(pos_coeffs, neg_coeffs)
                )
                const = scale_pos * pos_const + scale_neg * neg_const
                if all(c == 0 for c in coeffs):
                    if const < 0:
                        return False
                    continue
                new_rows.append((coeffs, const))
        rows = _dedupe(new_rows)
        if not rows:
            return True

    return all(const >= 0 for _, const in rows)


def _dedupe(rows: List[_Row]) -> List[_Row]:
    """Normalize rows and drop duplicates / obviously dominated copies."""
    seen = {}
    for coeffs, const in rows:
        scale = None
        for coeff in coeffs:
            if coeff != 0:
                scale = abs(coeff)
                break
        if scale is None:
            scale = Fraction(1)
        key = tuple(c / scale for c in coeffs)
        value = const / scale
        # For identical left-hand sides keep the tightest (smallest) constant:
        # coeffs.x + const >= 0, smaller const is the stronger constraint.
        if key not in seen or value < seen[key]:
            seen[key] = value
    return [(coeffs, const) for coeffs, const in seen.items()]
