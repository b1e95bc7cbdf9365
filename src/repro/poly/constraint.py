"""Affine constraints and conjunctive constraint systems.

A :class:`Constraint` is ``expr >= 0`` or ``expr == 0`` where *expr* is an
:class:`~repro.poly.affine.AffineExpr`.  A :class:`ConstraintSystem` is a
conjunction of constraints over a set of integer variables; it is the input
to the Fourier–Motzkin feasibility test in :mod:`repro.poly.fm` and the
representation of statement guards and dependence systems.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .affine import AffineExpr, ExprLike, aff

GE = ">="
EQ = "=="


@dataclass(frozen=True)
class Constraint:
    """A single affine constraint ``expr >= 0`` or ``expr == 0``."""

    expr: AffineExpr
    kind: str = GE

    def __post_init__(self):
        if self.kind not in (GE, EQ):
            raise ValueError(f"unknown constraint kind {self.kind!r}")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def ge(lhs: ExprLike, rhs: ExprLike = 0) -> "Constraint":
        """lhs >= rhs."""
        return Constraint(aff(lhs) - aff(rhs), GE)

    @staticmethod
    def le(lhs: ExprLike, rhs: ExprLike = 0) -> "Constraint":
        """lhs <= rhs."""
        return Constraint(aff(rhs) - aff(lhs), GE)

    @staticmethod
    def gt(lhs: ExprLike, rhs: ExprLike = 0) -> "Constraint":
        """lhs > rhs (integer variables: lhs >= rhs + 1)."""
        return Constraint(aff(lhs) - aff(rhs) - 1, GE)

    @staticmethod
    def lt(lhs: ExprLike, rhs: ExprLike = 0) -> "Constraint":
        """lhs < rhs (integer variables: lhs <= rhs - 1)."""
        return Constraint(aff(rhs) - aff(lhs) - 1, GE)

    @staticmethod
    def eq(lhs: ExprLike, rhs: ExprLike = 0) -> "Constraint":
        """lhs == rhs."""
        return Constraint(aff(lhs) - aff(rhs), EQ)

    # -- observers -----------------------------------------------------------

    def variables(self) -> frozenset:
        return self.expr.variables()

    def satisfied(self, assignment: Mapping[str, int]) -> bool:
        value = self.expr.evaluate(assignment)
        return value == 0 if self.kind == EQ else value >= 0

    def rename(self, mapping: Mapping[str, str]) -> "Constraint":
        return Constraint(self.expr.rename(mapping), self.kind)

    def substitute(self, bindings: Mapping[str, ExprLike]) -> "Constraint":
        return Constraint(self.expr.substitute(bindings), self.kind)

    def __repr__(self) -> str:
        op = "=" if self.kind == EQ else ">="
        return f"{self.expr!r} {op} 0"


class ConstraintSystem:
    """A conjunction of affine constraints over integer variables."""

    def __init__(self, constraints: Iterable[Constraint] = ()):
        self._constraints = list(constraints)

    @property
    def constraints(self) -> Sequence[Constraint]:
        return tuple(self._constraints)

    def add(self, constraint: Constraint) -> "ConstraintSystem":
        self._constraints.append(constraint)
        return self

    def extend(self, constraints: Iterable[Constraint]) -> "ConstraintSystem":
        self._constraints.extend(constraints)
        return self

    def variables(self) -> frozenset:
        names = set()
        for constraint in self._constraints:
            names |= constraint.variables()
        return frozenset(names)

    def satisfied(self, assignment: Mapping[str, int]) -> bool:
        return all(c.satisfied(assignment) for c in self._constraints)

    def canonical(self) -> tuple:
        """The system up to variable names and constraint order.

        Variables are renamed to their position in sorted-name order and
        the constraints are sorted, so two systems with equal canonical
        forms differ by a variable renaming and a reordering: they have
        the same solutions up to renaming, hence the same feasibility.
        """
        index = {v: i for i, v in enumerate(sorted(self.variables()))}
        return tuple(sorted(
            (c.kind,
             tuple((index[v], k) for v, k in c.expr.coeffs.items()),
             c.expr.constant)
            for c in self._constraints))

    def copy(self) -> "ConstraintSystem":
        return ConstraintSystem(self._constraints)

    def conjoin(self, other: "ConstraintSystem") -> "ConstraintSystem":
        return ConstraintSystem([*self._constraints, *other.constraints])

    def rename(self, mapping: Mapping[str, str]) -> "ConstraintSystem":
        return ConstraintSystem(c.rename(mapping) for c in self._constraints)

    def __len__(self) -> int:
        return len(self._constraints)

    def __iter__(self):
        return iter(self._constraints)

    def __repr__(self) -> str:
        body = " and ".join(repr(c) for c in self._constraints) or "true"
        return f"ConstraintSystem({body})"


def box_constraints(box: Mapping[str, tuple]) -> ConstraintSystem:
    """Constraints for inclusive per-variable ranges ``lo <= v <= hi``."""
    system = ConstraintSystem()
    for var, (lo, hi) in box.items():
        system.add(Constraint.ge(var, lo))
        system.add(Constraint.le(var, hi))
    return system
