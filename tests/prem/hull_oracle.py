"""Test oracle: the canonical-range hull folded on AffineExprs.

:func:`repro.prem.ranges.access_range` folds a tile box over an integer
access table.  This module keeps the symbolic fold it replaced — every
subscript bounded with :func:`~repro.prem.ranges.partial_bounds`, guards
read straight off the kernel, per-dimension min/max on AffineExprs — as
the reference the range tests compare against, bound for bound.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Tuple

from repro.poly.affine import AffineExpr
from repro.poly.constraint import EQ
from repro.prem.ranges import partial_bounds


def stmt_guards(kernel, stmt) -> list:
    """The statement's own guards plus those of every surrounding loop."""
    guards = list(stmt.guards)
    for loop in kernel.surrounding_loops(stmt.name):
        guards.extend(loop.guards)
    return guards


def narrow_with_guards(guards, box: Mapping[str, Tuple[int, int]]
                       ) -> Optional[Dict[str, Tuple[int, int]]]:
    """Intersect a box with the single-iterator guards over its
    iterators; None when a guard excludes the statement."""
    narrowed = dict(box)
    for guard in guards:
        variables = sorted(guard.variables())
        if len(variables) != 1 or variables[0] not in narrowed:
            continue
        var = variables[0]
        coeff = guard.expr.coeff(var)
        const = guard.expr.constant
        lo, hi = narrowed[var]
        if guard.kind == EQ:
            if const % coeff != 0:
                return None
            value = -const // coeff
            if value < lo or value > hi:
                return None
            narrowed[var] = (value, value)
        elif coeff > 0:
            lo = max(lo, math.ceil(Fraction(-const, coeff)))
            if lo > hi:
                return None
            narrowed[var] = (lo, hi)
        else:
            hi = min(hi, math.floor(Fraction(-const, coeff)))
            if lo > hi:
                return None
            narrowed[var] = (lo, hi)
    return narrowed


def symbolic_min(current: Optional[AffineExpr], candidate: AffineExpr,
                 extent: int, take_min: bool) -> AffineExpr:
    """min/max of affine bounds; widens to ``[0, extent - 1]`` when the
    outer coefficients disagree."""
    if current is None:
        return candidate
    if current.coeffs == candidate.coeffs:
        if take_min:
            keep = current.constant <= candidate.constant
        else:
            keep = current.constant >= candidate.constant
        return current if keep else candidate
    return AffineExpr.const(0 if take_min else extent - 1)


def oracle_range(component, array_name: str,
                 box: Mapping[str, Tuple[int, int]], *,
                 reads: bool = True, writes: bool = True
                 ) -> Optional[Tuple[Tuple[AffineExpr, ...],
                                     Tuple[AffineExpr, ...]]]:
    """``(lo, hi)`` AffineExpr bounds of the selected accesses' hull, or
    None when no selected access is active in the box."""
    kernel = component.kernel
    pairs = [(stmt, access)
             for stmt in kernel.stmts_under(component.nodes[-1].loop)
             for access in stmt.accesses
             if access.array.name == array_name]
    if not pairs:
        return None
    array = pairs[0][1].array
    lo: List[Optional[AffineExpr]] = [None] * array.ndim
    hi: List[Optional[AffineExpr]] = [None] * array.ndim
    active = False
    for stmt, access in pairs:
        if not ((reads and access.is_read) or (writes and access.is_write)):
            continue
        narrowed = narrow_with_guards(stmt_guards(kernel, stmt), box)
        if narrowed is None:
            continue
        active = True
        for dim, expr in enumerate(access.indices):
            dim_lo, dim_hi = partial_bounds(expr, narrowed)
            lo[dim] = symbolic_min(lo[dim], dim_lo, array.shape[dim], True)
            hi[dim] = symbolic_min(hi[dim], dim_hi, array.shape[dim], False)
    if not active:
        return None
    return tuple(lo), tuple(hi)
