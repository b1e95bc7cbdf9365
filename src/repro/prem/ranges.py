"""Canonical data element ranges and bounding boxes (Section 5.3.1).

For one tile of a tilable component and one array, the canonical data
element range is the rectangular hull of every element the tile's
statements may touch: per array dimension the min and max subscript value
over the tile's iteration box.  For affine subscripts over a box the
extremes sit at box corners, so one subscript's hull is exact interval
arithmetic; the union over accesses is its rectangular hull.

The hull is computed on integers.  Each array's accesses are compiled
once per component (:meth:`~repro.loopir.component.TilableComponent.
access_table`) into per-access guards and per-dimension subscripts
``(constant, ((var, coeff), ...))``; folding a tile box over that table is
plain integer arithmetic (:func:`hull_bounds`).  Subscript terms over
iterators of loops *enclosing* the component (LSTM's ``inp_F[t][p]``
depends on the outer time loop) stay as a hashable coefficient tuple, so
a range bound is ``constant + sum(coeff * outer)``.  Its *shape*
(max - min + 1) is an integer, which is why memory-phase lengths and
bounding boxes are independent of the outer iteration, exactly as the
paper's timing model assumes.  :class:`CanonicalRange` builds
:class:`~repro.poly.affine.AffineExpr` bounds only for the consumers that
need them symbolically (swap calls, code generation, the analyzer).

The hull is conservative, never too small: single-iterator guards narrow
the box (a statement no guard admits in the tile drops out), other guards
are ignored, and a dimension whose accesses disagree on their outer
coefficients widens to the whole array extent.
"""

from __future__ import annotations

from itertools import product
from typing import (Dict, Iterable, List, Mapping, Optional, Sequence, Set,
                    Tuple)

from ..loopir.component import AccessRow, TilableComponent
from ..poly.access import Array
from ..poly.affine import AffineExpr
from ..timing.memory import transfer_bytes, transfer_time_ns

#: Coefficients of the outer iterators in a bound, ``((var, coeff), ...)``
#: with the variables sorted: the hashable form of an AffineExpr's terms.
Terms = Tuple[Tuple[str, int], ...]

#: One affine range bound on integers: ``(constant, terms)``.
Bound = Tuple[int, Terms]

#: A folded hull: per dimension the lower and upper constants and the
#: outer terms both bounds share — ``(lo, hi, terms)``.
Hull = Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[Terms, ...]]


def partial_bounds(expr: AffineExpr, box: Mapping[str, Tuple[int, int]]
                   ) -> Tuple[AffineExpr, AffineExpr]:
    """[min, max] of *expr* over *box*, leaving other variables symbolic."""
    lo = AffineExpr.const(expr.constant)
    hi = AffineExpr.const(expr.constant)
    for var, coeff in expr.coeffs.items():
        if var in box:
            vmin, vmax = box[var]
            if coeff >= 0:
                lo = lo + coeff * vmin
                hi = hi + coeff * vmax
            else:
                lo = lo + coeff * vmax
                hi = hi + coeff * vmin
        else:
            lo = lo + AffineExpr({var: coeff})
            hi = hi + AffineExpr({var: coeff})
    return lo, hi


def fold_subscript(constant: int, terms: Terms,
                   box: Mapping[str, Tuple[int, int]]
                   ) -> Tuple[int, int, Terms]:
    """[min, max] of one compiled subscript over *box*: the integer twin
    of :func:`partial_bounds`.  Returns ``(lo, hi, free)`` where *free*
    holds the terms over variables outside the box, shared by both
    bounds."""
    lo = hi = constant
    free: Terms = ()
    for var, coeff in terms:
        span = box.get(var)
        if span is None:
            free += ((var, coeff),)
        elif coeff >= 0:
            lo += coeff * span[0]
            hi += coeff * span[1]
        else:
            lo += coeff * span[1]
            hi += coeff * span[0]
    return lo, hi, free


def _expr(bound: Bound) -> AffineExpr:
    constant, terms = bound
    return AffineExpr(dict(terms), constant)


def _bound(expr: AffineExpr) -> Bound:
    return expr.constant, tuple(expr.coeffs.items())


class CanonicalRange:
    """The rectangular hull of one array's accesses within one tile.

    Stored on integers: ``lo_bounds``/``hi_bounds`` hold one
    ``(constant, outer terms)`` :data:`Bound` per dimension.  ``lo`` and
    ``hi`` are the same bounds as AffineExprs, built on first use; the
    constructor also accepts AffineExprs, so a range can be written down
    symbolically."""

    __slots__ = ("array", "lo_bounds", "hi_bounds", "_exprs")

    def __init__(self, array: Array, lo: Sequence[AffineExpr],
                 hi: Sequence[AffineExpr]):
        self.array = array
        self.lo_bounds: Tuple[Bound, ...] = tuple(_bound(e) for e in lo)
        self.hi_bounds: Tuple[Bound, ...] = tuple(_bound(e) for e in hi)
        self._exprs = (tuple(lo), tuple(hi))

    @classmethod
    def from_hull(cls, array: Array, hull: Hull) -> "CanonicalRange":
        """The range of a folded :data:`Hull`."""
        lo, hi, terms = hull
        crange = cls.__new__(cls)
        crange.array = array
        crange.lo_bounds = tuple(zip(lo, terms))
        crange.hi_bounds = tuple(zip(hi, terms))
        crange._exprs = None
        return crange

    @property
    def lo(self) -> Tuple[AffineExpr, ...]:
        """Per-dimension lower bounds, symbolic over outer iterators."""
        return self._symbolic()[0]

    @property
    def hi(self) -> Tuple[AffineExpr, ...]:
        """Per-dimension upper bounds, symbolic over outer iterators."""
        return self._symbolic()[1]

    def _symbolic(self) -> Tuple[Tuple[AffineExpr, ...],
                                 Tuple[AffineExpr, ...]]:
        if self._exprs is None:
            self._exprs = (tuple(_expr(b) for b in self.lo_bounds),
                           tuple(_expr(b) for b in self.hi_bounds))
        return self._exprs

    @property
    def shape(self) -> Tuple[int, ...]:
        """``Shape(R_a)`` — per-dimension extent (always concrete)."""
        out = []
        for (lo, lo_terms), (hi, hi_terms) in zip(self.lo_bounds,
                                                  self.hi_bounds):
            if lo_terms != hi_terms:
                raise ValueError(
                    f"range of {self.array.name} has non-constant extent: "
                    f"[{_expr((lo, lo_terms))!r}, {_expr((hi, hi_terms))!r}]")
            out.append(hi - lo + 1)
        return tuple(out)

    @property
    def elements(self) -> int:
        total = 1
        for extent in self.shape:
            total *= extent
        return total

    @property
    def bytes(self) -> int:
        return transfer_bytes(self.shape, self.array.element_size)

    def transfer_ns(self, platform) -> float:
        """Memory-phase contribution of this range (Section 4.2)."""
        return transfer_time_ns(
            self.shape, self.array.shape, self.array.element_size, platform)

    def concrete(self, outer: Mapping[str, int] | None = None
                 ) -> Tuple[Tuple[int, int], ...]:
        """Per-dimension inclusive [min, max] under concrete outer values."""
        outer = outer or {}

        def value(bound: Bound) -> int:
            constant, terms = bound
            for var, coeff in terms:
                constant += coeff * outer[var]
            return int(constant)

        return tuple((value(lo), value(hi))
                     for lo, hi in zip(self.lo_bounds, self.hi_bounds))

    def address_offset(self, outer: Mapping[str, int] | None = None) -> int:
        """Row-major element offset of the range's first element
        (Section 5.3.2's AddressOffset)."""
        bounds = self.concrete(outer)
        offset = 0
        for (lo, _), extent in zip(bounds, self.array.shape):
            offset = offset * extent + lo
        return offset

    def same_as(self, other: "CanonicalRange") -> bool:
        """Symbolic equality of two ranges (same hull for every outer
        iteration)."""
        return self.lo_bounds == other.lo_bounds and \
            self.hi_bounds == other.hi_bounds

    def __eq__(self, other) -> bool:
        if not isinstance(other, CanonicalRange):
            return NotImplemented
        return self.array == other.array and self.same_as(other)

    def __hash__(self) -> int:
        return hash((self.array.name, self.lo_bounds, self.hi_bounds))

    def __repr__(self) -> str:
        dims = "".join(
            f"[{lo!r}..{hi!r}]" for lo, hi in zip(self.lo, self.hi))
        return f"R({self.array.name}{dims})"


def tile_box(component: TilableComponent,
             tile_indices: Mapping[str, int],
             tile_sizes: Mapping[str, int]) -> Dict[str, Tuple[int, int]]:
    """Iterator bounds of one tile: band levels restricted to their
    iteration range, inner (folded) loops at full extent."""
    box = dict(component.full_inner_box())
    for node in component.nodes:
        size = tile_sizes[node.var]
        index = tile_indices[node.var]
        first = index * size
        last = min((index + 1) * size, node.N) - 1
        if first > last:
            raise ValueError(
                f"tile {index} of {node.var} is empty "
                f"(N={node.N}, K={size})")
        box[node.var] = (node.begin + first * node.S,
                         node.begin + last * node.S)
    return box


def _narrow_with_guards(guards, box: Mapping[str, Tuple[int, int]]
                        ) -> Optional[Mapping[str, Tuple[int, int]]]:
    """Intersect a tile box with compiled single-iterator guards
    ``(var, coeff, constant, is_eq)``.

    Returns None when a guard excludes the statement from the tile
    entirely.  Guards over iterators outside the box (outer loops) are
    ignored, as are multi-iterator guards (never compiled) — the hull
    stays conservative, never too small.
    """
    narrowed: Optional[Dict[str, Tuple[int, int]]] = None
    for var, coeff, const, is_eq in guards:
        span = (box if narrowed is None else narrowed).get(var)
        if span is None:
            continue
        lo, hi = span
        if is_eq:
            if const % coeff != 0:
                return None
            value = -const // coeff
            if value < lo or value > hi:
                return None
            lo = hi = value
        elif coeff > 0:
            lo = max(lo, -(const // coeff))      # ceil(-const / coeff)
            if lo > hi:
                return None
        else:
            hi = min(hi, -const // coeff)        # floor(-const / coeff)
            if lo > hi:
                return None
        if narrowed is None:
            narrowed = dict(box)
        narrowed[var] = (lo, hi)
    return box if narrowed is None else narrowed


def hull_bounds(rows: Sequence[AccessRow], extents: Sequence[int],
                box: Mapping[str, Tuple[int, int]], *,
                reads: bool = True, writes: bool = True) -> Optional[Hull]:
    """Fold a tile box over an array's compiled accesses.

    *rows* is the array's :meth:`~repro.loopir.component.
    TilableComponent.access_table` and *extents* its shape.  Returns the
    :data:`Hull` of the selected accesses, or None when no selected
    access is active in the box.  Per dimension, accesses with equal
    outer terms combine by min/max of the constants; on a mismatch the
    dimension widens to ``[0, extent - 1]`` with no outer terms, and
    folding goes on from there.
    """
    ndim = len(extents)
    lo = [0] * ndim
    hi = [0] * ndim
    seen: List[Optional[Terms]] = [None] * ndim
    active = False
    for is_read, is_write, guards, dims in rows:
        if not ((reads and is_read) or (writes and is_write)):
            continue
        view = _narrow_with_guards(guards, box) if guards else box
        if view is None:
            continue
        active = True
        for dim, (constant, terms) in enumerate(dims):
            dim_lo, dim_hi, free = fold_subscript(constant, terms, view)
            if seen[dim] is None:
                lo[dim], hi[dim], seen[dim] = dim_lo, dim_hi, free
            elif seen[dim] == free:
                if dim_lo < lo[dim]:
                    lo[dim] = dim_lo
                if dim_hi > hi[dim]:
                    hi[dim] = dim_hi
            else:
                lo[dim], hi[dim], seen[dim] = 0, extents[dim] - 1, ()
    if not active:
        return None
    return tuple(lo), tuple(hi), tuple(seen)


def hull_shape(hull: Hull) -> Tuple[int, ...]:
    """Per-dimension extent of a folded hull (both bounds of a dimension
    share their outer terms, so the extent is an integer)."""
    return tuple(hi - lo + 1 for lo, hi in zip(hull[0], hull[1]))


def canonical_range(component: TilableComponent, array_name: str,
                    box: Mapping[str, Tuple[int, int]]
                    ) -> Optional[CanonicalRange]:
    """Hull of all accesses to *array_name* over one tile box.

    Returns None when no statement touching the array is active in the
    tile.  Dimension bounds are symbolic over outer iterators; when two
    accesses disagree on outer coefficients the dimension conservatively
    widens to the full array extent.
    """
    return access_range(component, array_name, box)


def access_range(component: TilableComponent, array_name: str,
                 box: Mapping[str, Tuple[int, int]], *,
                 reads: bool = True, writes: bool = True
                 ) -> Optional[CanonicalRange]:
    """Hull of the selected accesses to *array_name* over one tile box.

    The generalisation of :func:`canonical_range` the race detector
    needs: restricting to ``reads`` or ``writes`` yields the tile's read
    or write footprint instead of the combined streaming hull.  Same
    conservatism rules: symbolic over outer iterators, widened to the
    full extent on coefficient mismatch, None when no selected access is
    active in the tile.
    """
    pairs = component.accesses(array_name)
    if not pairs:
        return None
    array = pairs[0][1].array
    hull = hull_bounds(component.access_table(array_name), array.shape,
                       box, reads=reads, writes=writes)
    return None if hull is None else CanonicalRange.from_hull(array, hull)


def ranges_overlap(a: CanonicalRange, b: CanonicalRange) -> bool:
    """Conservative symbolic overlap test between two hulls.

    Dimensions whose bounds share outer coefficients are compared as
    intervals on the constant part; any dimension that can be shown
    disjoint makes the ranges disjoint.  Otherwise overlap is assumed.
    """
    for a_lo, a_hi, b_lo, b_hi in zip(a.lo_bounds, a.hi_bounds,
                                      b.lo_bounds, b.hi_bounds):
        if a_hi[1] == b_lo[1] and a_hi[0] < b_lo[0]:
            return False
        if b_hi[1] == a_lo[1] and b_hi[0] < a_lo[0]:
            return False
    return True


def bounding_box(component: TilableComponent, array_name: str,
                 tile_sizes: Mapping[str, int]) -> Tuple[int, ...]:
    """``BoundingBox(a)`` — per-dimension max shape over all tiles.

    Hulls are monotone in the tile box, so the full (non-remainder) tile
    dominates the last one; the samples are the first and last tile per
    level plus, per single-iterator guard on a level, the tiles where the
    guard switches.  A level whose iterator has different non-zero
    coefficients in one dimension's subscripts is sampled at every tile
    (see :func:`_sample_tiles`).
    """
    pairs = component.accesses(array_name)
    if not pairs:
        raise LookupError(
            f"array {array_name} is never accessed in component "
            f"{component.label()}")
    rows = component.access_table(array_name)
    extents = pairs[0][1].array.shape
    best: Optional[List[int]] = None
    for indices in _sample_tiles(component, tile_sizes, rows):
        hull = hull_bounds(
            rows, extents, tile_box(component, indices, tile_sizes))
        if hull is None:
            continue
        shape = hull_shape(hull)
        if best is None:
            best = list(shape)
        else:
            best = [max(b, s) for b, s in zip(best, shape)]
    if best is None:
        raise LookupError(
            f"array {array_name} is never accessed in component "
            f"{component.label()}")
    return tuple(best)


def _sample_tiles(component: TilableComponent,
                  tile_sizes: Mapping[str, int],
                  rows: Sequence[AccessRow]) -> Iterable[Dict[str, int]]:
    """Tile indices crossed over levels: per level the first and last
    tile, plus the tiles where a guard on the level switches
    (:func:`guard_tiles`) — or every tile of a level whose iterator
    carries different non-zero coefficients in one dimension
    (:func:`_mixed_coefficients`)."""
    mixed = _mixed_coefficients(rows)
    per_level: List[List[int]] = []
    for node in component.nodes:
        size = tile_sizes[node.var]
        count = -(-node.N // size)
        if node.var in mixed:
            per_level.append(list(range(count)))
            continue
        per_level.append(sorted(
            {0, count - 1} | guard_tiles(rows, node, size)))
    band = component.band_vars
    for indices in product(*per_level):
        yield dict(zip(band, indices))


def _mixed_coefficients(rows: Sequence[AccessRow]) -> Set[str]:
    """Iterators that carry two different non-zero coefficients in one
    dimension's subscripts.  ``A[2p]`` and ``A[p + 3]`` make ``p`` one:
    their hull over a tile of ``p`` can be wider in a middle tile than
    in the first or last.  A subscript without the iterator does not
    count: its range stays put while the tile slides, so the hull is
    widest at an end tile."""
    seen: Dict[Tuple[int, str], int] = {}
    mixed: Set[str] = set()
    for _read, _write, _guards, dims in rows:
        for dim, (_constant, terms) in enumerate(dims):
            for var, coeff in terms:
                if seen.setdefault((dim, var), coeff) != coeff:
                    mixed.add(var)
    return mixed


def guard_tiles(rows: Sequence[AccessRow], node,
                size: int) -> Set[int]:
    """Tiles of one band level where a single-iterator guard of the
    compiled accesses *rows* on the level's iterator switches
    (:func:`_switch_tiles`), for tile size *size*."""
    picks: Set[int] = set()
    for _read, _write, guards, _dims in rows:
        for var, coeff, const, is_eq in guards:
            if var == node.var:
                picks.update(_switch_tiles(node, size, coeff, const, is_eq))
    return picks


def _switch_tiles(node, size: int, coeff: int, const: int,
                  is_eq: bool) -> Tuple[int, ...]:
    """Tiles of one level where a guard on its iterator switches.

    The guard admits a run of iterations ``[first, last]`` (one value for
    ``==``, a half-line for ``>=``/``<=``, clipped to the loop).  A tile
    holding a boundary of the run sees the statement on part of its box;
    the tile next to it, inside the run, is the first that sees it whole.
    Sampling both makes a statement the guard enables only in interior
    tiles visible to :func:`bounding_box`."""
    stride, count = node.S, node.N
    if is_eq:
        if const % coeff != 0 or (-const // coeff - node.begin) % stride:
            return ()
        first = last = (-const // coeff - node.begin) // stride
    elif coeff > 0:     # value >= ceil(-const / coeff)
        first = max(0, -((node.begin + const // coeff) // stride))
        last = count - 1
    else:               # value <= floor(-const / coeff)
        first = 0
        last = min(count - 1, (-const // coeff - node.begin) // stride)
    if first > last or first >= count or last < 0:
        return ()
    lo_tile, hi_tile = first // size, last // size
    return tuple({lo_tile, hi_tile, min(lo_tile + 1, hi_tile),
                  max(hi_tile - 1, lo_tile)})
