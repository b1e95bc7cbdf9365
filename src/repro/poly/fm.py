"""Exact Fourier–Motzkin feasibility of affine systems over integer rows.

The dependence tester (:mod:`repro.poly.dependence`) reduces "does a
dependence with this direction vector exist?" to the feasibility of a small
conjunction of affine constraints over the source and sink iteration
vectors.  We decide feasibility over the rationals; the test is
*conservative* for the integer question in exactly the way the paper
requires ("the dependency analysis is conservative"):

- rationally infeasible  => no integer point          => independent
- rationally feasible    => assume a dependence exists

A GCD pre-test on equalities removes the most common spurious rational
solutions (strided accesses).

The decision procedure works on rows of Python integers, and every step
is an equivalence over the rationals, so the verdict is exactly that of
rational Fourier–Motzkin on the original system:

1. A constraint with ``Fraction`` coefficients is scaled by the LCM of its
   denominators, which does not change its solution set.
2. Every equality ``e.x + c == 0`` is eliminated by Gaussian substitution:
   for any rational values of the other variables it fixes one variable
   ``x_k`` (``e_k != 0``), so cancelling ``x_k`` from every other row with
   a positive multiple of the equality drops ``x_k`` without changing
   feasibility.
3. Each inequality is divided by the gcd of all its entries and keyed by
   its *primitive* coefficient vector; only the tightest constant per
   vector is kept.  Constants of rows sharing a vector are compared by
   cross-multiplication, never rounded: rounding ``2x + 1 >= 0`` to
   ``x >= 0`` would be an integer tightening, and integer tightening can
   turn a rationally feasible system infeasible.
4. Fourier–Motzkin eliminates the remaining variables, cheapest first;
   a variable bounded on one side only is dropped with its rows.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .constraint import EQ, ConstraintSystem

# A row (c_1, ..., c_n, c_0) of integers: sum(c_i * x_i) + c_0 >= 0 (or
# == 0 for equalities).
_Row = Tuple[int, ...]
# Inequalities keyed by primitive coefficient vector: (row, gcd of the
# row's coefficients).  The row is implied by ``key . x + c_0 / g >= 0``.
_Bounds = Dict[Tuple[int, ...], Tuple[_Row, int]]
#: ``_POSITIVE(c)`` is ``c > 0``, as a C-level callable for ``map``.
_POSITIVE = (0).__lt__


class FMResult:
    """Feasibility verdict with a human-readable reason (for diagnostics)."""

    def __init__(self, feasible: bool, reason: str):
        self.feasible = feasible
        self.reason = reason

    def __bool__(self) -> bool:
        return self.feasible

    def __repr__(self) -> str:
        verdict = "feasible" if self.feasible else "infeasible"
        return f"FMResult({verdict}: {self.reason})"


def is_feasible(system: ConstraintSystem) -> bool:
    """True when the system has a rational solution (conservative integer)."""
    return bool(check_feasibility(system))


def check_feasibility(system: ConstraintSystem) -> FMResult:
    """GCD pre-test, equality substitution, then Fourier–Motzkin."""
    variables = sorted(system.variables())
    if not _gcd_test(system, variables):
        return FMResult(False, "gcd test refuted an equality")

    equalities, inequalities = _integer_rows(system, variables)
    if equalities is None:
        return FMResult(False, "constant constraint violated")
    conflict = _substitute(equalities, inequalities, variables)
    if conflict is None:
        conflict = _eliminate(inequalities, variables)
    if conflict is not None:
        return FMResult(False, conflict)
    return FMResult(True, "all constraints eliminated")


def _gcd_test(system: ConstraintSystem, variables: List[str]) -> bool:
    """Classic GCD test: an equality sum(c_i x_i) = -c0 with integer x
    requires gcd(c_i) | c0.  Returns False when some equality is refuted.
    """
    for constraint in system:
        if constraint.kind != EQ:
            continue
        coeffs = [constraint.expr.coeff(v) for v in variables]
        coeffs = [c for c in coeffs if c != 0]
        const = constraint.expr.constant
        if not all(isinstance(c, int) for c in coeffs) or not isinstance(const, int):
            continue
        if not coeffs:
            if const != 0:
                return False
            continue
        divisor = 0
        for coeff in coeffs:
            divisor = math.gcd(divisor, abs(coeff))
        if divisor and const % divisor != 0:
            return False
    return True


def _integer_rows(system: ConstraintSystem, variables: List[str]):
    """Dense integer rows ``(equalities, inequalities)``.

    Variable-free constraints are checked and dropped; returns
    ``(None, None)`` when one of them is violated.
    """
    index = {v: i for i, v in enumerate(variables)}
    width = len(variables)
    equalities: List[_Row] = []
    inequalities: List[_Row] = []
    for constraint in system:
        expr = constraint.expr
        coeffs = expr.coeffs
        const = expr.constant
        if not coeffs:
            if const < 0 or (constraint.kind == EQ and const):
                return None, None
            continue
        row = [0] * (width + 1)
        for var, coeff in coeffs.items():
            row[index[var]] = coeff
        row[width] = const
        if not (isinstance(const, int)
                and all(isinstance(c, int) for c in coeffs.values())):
            exact = [Fraction(value) for value in row]
            scale = math.lcm(*(value.denominator for value in exact))
            row = [int(value * scale) for value in exact]
        target = equalities if constraint.kind == EQ else inequalities
        target.append(tuple(row))
    return equalities, inequalities


def _cancel(row: _Row, pivot: _Row, k: int) -> _Row:
    """``a * row - b * pivot`` with ``a > 0`` chosen so column *k* cancels,
    divided by the gcd of its entries.  A positive multiple of an
    inequality plus any multiple of an equality, or a positive multiple
    of two opposite-signed inequalities, is implied by the pair."""
    g = math.gcd(row[k], pivot[k])
    a = abs(pivot[k]) // g
    b = row[k] // g if pivot[k] > 0 else -row[k] // g
    out = tuple(a * r - b * p for r, p in zip(row, pivot))
    g = math.gcd(*out)
    return tuple(v // g for v in out) if g > 1 else out


def _substitute(equalities: List[_Row], inequalities: List[_Row],
                variables: List[str]) -> Optional[str]:
    """Eliminate every equality in place; a reason string on conflict.

    Each round pivots on the smallest non-zero coefficient of any
    equality (a unit one on dependence systems), which keeps the
    substituted rows small.
    """
    width = len(variables)
    while equalities:
        _, e, k = min(
            (abs(c), e, k)
            for e, row in enumerate(equalities)
            for k, c in enumerate(row[:width]) if c)
        pivot = equalities.pop(e)
        for rows, is_eq in ((equalities, True), (inequalities, False)):
            kept = []
            for row in rows:
                if row[k]:
                    row = _cancel(row, pivot, k)
                    if not any(row[:width]):
                        if row[width] < 0 or (is_eq and row[width]):
                            return (f"equality substitution for "
                                    f"{variables[k]} left a violated "
                                    f"constant")
                        continue
                kept.append(row)
            rows[:] = kept
    return None


def _insert(bounds: _Bounds, row: _Row, variables: List[str]
            ) -> Optional[str]:
    """Add inequality *row* to *bounds*, keeping the tightest constant per
    primitive coefficient vector; a reason string when the row and the
    bound on the opposite vector leave an empty slab."""
    coeffs = row[:-1]
    const = row[-1]
    g = math.gcd(*coeffs)
    key = tuple(c // g for c in coeffs) if g > 1 else coeffs
    common = math.gcd(g, const)
    if common > 1:
        row = tuple(v // common for v in row)
        const //= common
        g //= common
    # key.x >= -const/g: a smaller const/g is the stronger bound.
    held = bounds.get(key)
    if held is None or const * held[1] < held[0][-1] * g:
        bounds[key] = (row, g)
    opposite = bounds.get(tuple(-c for c in key))
    if opposite is not None and const * opposite[1] + opposite[0][-1] * g < 0:
        names = [v for v, c in zip(variables, key) if c]
        return f"opposing bounds on {' + '.join(names)} leave no room"
    return None


def _eliminate(rows: List[_Row], variables: List[str]) -> Optional[str]:
    """Fourier–Motzkin on the inequalities; a reason string on conflict.

    Columns no row uses are dropped first.  Each round eliminates the
    variable whose pairing creates the fewest rows; a variable with rows
    of one sign only costs nothing (its rows can always be satisfied, so
    they are dropped).
    """
    if not rows:
        return None
    columns = list(zip(*rows))
    live = [k for k in range(len(variables)) if any(columns[k])]
    variables = [variables[k] for k in live]
    width = len(live)
    bounds: _Bounds = {}
    for row in zip(*[columns[k] for k in live], columns[-1]):
        conflict = _insert(bounds, row, variables)
        if conflict is not None:
            return conflict

    while bounds:
        best = None
        for k, column in enumerate(zip(*(row for row, _ in bounds.values()))):
            if k == width:
                break
            p = sum(map(_POSITIVE, column))
            n = len(column) - column.count(0) - p
            if (p or n) and (best is None or p * n - p - n < best[0]):
                best = (p * n - p - n, k)
        k = best[1]

        kept: _Bounds = {}
        lower: List[_Row] = []
        upper: List[_Row] = []
        for key, entry in bounds.items():
            row = entry[0]
            if row[k] > 0:
                lower.append(row)
            elif row[k] < 0:
                upper.append(row)
            else:
                kept[key] = entry
        for low in lower:
            for up in upper:
                row = _cancel(low, up, k)
                if not any(row[:width]):
                    if row[width] < 0:
                        return f"contradiction eliminating {variables[k]}"
                    continue
                conflict = _insert(kept, row, variables)
                if conflict is not None:
                    return conflict
        bounds = kept
    return None
