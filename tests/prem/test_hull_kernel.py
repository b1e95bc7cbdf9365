"""The integer hull kernel against the symbolic reference fold.

:func:`repro.prem.ranges.access_range` folds tile boxes over each array's
integer access table; :mod:`hull_oracle` keeps the AffineExpr fold it
replaced.  Fixed-seed draws compare the two bound for bound on every
corpus component at MINI and SMALL and on generated guarded kernels,
including the outer-coefficient mismatch that widens a dimension.  The
guard-aware bounding-box sampling is checked on the corpus (unchanged
boxes), on a kernel whose guard enables a statement only in an interior
tile, and on one whose hull is widest in a middle tile.
"""

import random
from itertools import product

import numpy as np
import pytest
from hull_oracle import oracle_range

from repro.compiler import PremCompiler
from repro.kernels import make_kernel
from repro.loopir import LoopTree
from repro.loopir.builder import for_, kernel_, stmt_
from repro.loopir.component import TilableComponent
from repro.poly.access import Array
from repro.poly.affine import AffineExpr
from repro.poly.constraint import EQ, GE, Constraint
from repro.prem.ranges import (
    access_range,
    bounding_box,
    canonical_range,
    tile_box,
)
from repro.prem.segments import ArrayGeometry
from repro.timing.platform import Platform

CORPUS = ("cnn", "convrelu", "lstm", "maxpool", "sumpool", "rnn")

#: Reads/writes selections of :func:`access_range`.
SELECTIONS = ((True, True), (True, False), (False, True))


def all_chains(tree):
    """Every downward chain of loop-tree levels: each a component."""
    def extend(chain):
        yield TilableComponent(tree, tuple(chain))
        for child in chain[-1].children:
            yield from extend(chain + [child])

    for root in tree.roots:
        for node in root.walk():
            yield from extend([node])


@pytest.fixture(scope="module")
def corpus():
    out = []
    for preset in ("MINI", "SMALL"):
        for name in CORPUS:
            tree = LoopTree.build(make_kernel(name, preset))
            for comp in all_chains(tree):
                out.append((f"{name}/{preset}{comp.label()}", comp))
    return out


def random_tile(rng, comp):
    """Random tile sizes and a random tile of that tiling."""
    sizes = {n.var: rng.randint(1, n.N) for n in comp.nodes}
    indices = {n.var: rng.randrange(-(-n.N // sizes[n.var]))
               for n in comp.nodes}
    return sizes, indices


def assert_matches_oracle(comp, name, box, reads, writes):
    crange = access_range(comp, name, box, reads=reads, writes=writes)
    expected = oracle_range(comp, name, box, reads=reads, writes=writes)
    if expected is None:
        assert crange is None
        return None
    assert crange is not None
    assert crange.lo == expected[0]
    assert crange.hi == expected[1]
    return crange


class TestCorpusParity:
    def test_random_tiles_and_selections(self, corpus):
        rng = random.Random(14)
        checked = 0
        for _label, comp in corpus:
            names = sorted(comp.arrays())
            for _ in range(6):
                sizes, indices = random_tile(rng, comp)
                box = tile_box(comp, indices, sizes)
                for name in names:
                    reads, writes = rng.choice(SELECTIONS)
                    assert_matches_oracle(comp, name, box, reads, writes)
                    checked += 1
        assert checked > 1000

    def test_bounding_boxes_unchanged(self, corpus):
        """The corpus guards (``p == 0``, ``t >= 1``) switch in the first
        or last tile or next to them, so the guard-aware samples add
        nothing there: every box equals the first/last-tile maximum."""
        rng = random.Random(3)
        for label, comp in corpus:
            draws = [{n.var: min(k, n.N) for n in comp.nodes} for k in (1, 2)]
            draws += [random_tile(rng, comp)[0] for _ in range(4)]
            for sizes in draws:
                for name in comp.arrays():
                    assert bounding_box(comp, name, sizes) == \
                        first_last_box(comp, name, sizes), (label, sizes)


def first_last_box(comp, name, sizes):
    """The bounding box sampled at the first and last tile per level
    only (the sampling before guard tiles were added), on the oracle."""
    per_level = [sorted({0, -(-n.N // sizes[n.var]) - 1})
                 for n in comp.nodes]
    best = None
    for picks in product(*per_level):
        box = tile_box(comp, dict(zip(comp.band_vars, picks)), sizes)
        found = oracle_range(comp, name, box)
        if found is None:
            continue
        shape = tuple(int((hi - lo).constant) + 1
                      for lo, hi in zip(*found))
        best = shape if best is None else tuple(map(max, best, shape))
    return best


# -- generated guarded kernels -------------------------------------------


def random_guard(rng, band):
    """A guard over one band iterator (==, >=, <=, negative coefficients),
    over the outer iterator, or over two iterators (ignored by both)."""
    kind = rng.choice(["eq", "odd", "ge", "le", "neg", "outer", "multi"])
    var = rng.choice(band)
    const = rng.randint(-3, 9)
    if kind == "eq":
        coeff = rng.choice([1, 2])
        return Constraint(AffineExpr({var: coeff}, -const * coeff), EQ)
    if kind == "odd":      # 2 * var == 2 * const + 1 admits no iteration
        return Constraint(AffineExpr({var: 2}, -2 * const - 1), EQ)
    if kind == "ge":
        return Constraint(AffineExpr({var: 1}, -const), GE)
    if kind == "le":
        return Constraint(AffineExpr({var: -1}, const), GE)
    if kind == "neg":
        return Constraint(AffineExpr({var: -2}, const + 1), GE)
    if kind == "outer":
        return Constraint(AffineExpr({"t": 1}, -1), GE)
    return Constraint(AffineExpr({band[0]: 1, band[1]: -1}), GE)


def random_subscript(rng, band, outer):
    coeffs = {v: rng.choice([-2, -1, 0, 0, 1, 2]) for v in band}
    if outer:
        coeffs["t"] = rng.choice([1, 2])
    return AffineExpr(coeffs, rng.randint(0, 12))


def guarded_kernel(rng):
    """Two or three statements over ``t { i { j } }``, each touching X
    with random subscripts; some accesses use the outer ``t`` and some
    do not, so dimensions both agree and disagree on outer terms."""
    band = ["i", "j"]
    x = Array("X", (64, 64))
    stmts = []
    for s in range(rng.randint(2, 3)):
        guards = [random_guard(rng, band)
                  for _ in range(rng.randint(0, 2))]
        subs = {
            kind: [tuple(random_subscript(rng, band, rng.random() < 0.4)
                         for _ in range(2))
                   for _ in range(rng.randint(1, 2))]
            for kind in ("reads", "writes")}
        stmts.append(stmt_(f"S{s}", {"X": x},
                           reads={"X": subs["reads"]},
                           writes={"X": subs["writes"]},
                           guards=guards))
    ni, nj = rng.randint(2, 9), rng.randint(2, 9)
    loop = for_("t", 3, for_("i", ni, for_("j", nj, *stmts)))
    return kernel_("guarded", [x], [loop])


class TestGeneratedGuards:
    def test_random_guarded_kernels(self):
        rng = random.Random(2026)
        inactive = widened = active = 0
        for _ in range(60):
            kernel = guarded_kernel(rng)
            tree = LoopTree.build(kernel)
            comps = [c for c in all_chains(tree)
                     if c.band_vars[0] != "t"]
            for comp in comps:
                for _ in range(8):
                    sizes, indices = random_tile(rng, comp)
                    box = tile_box(comp, indices, sizes)
                    if rng.random() < 0.5:
                        # an arbitrary sub-box, not only tile boxes
                        box = {v: tuple(sorted(
                            (rng.randint(lo, hi), rng.randint(lo, hi))))
                            for v, (lo, hi) in box.items()}
                    reads, writes = rng.choice(SELECTIONS)
                    crange = assert_matches_oracle(
                        comp, "X", box, reads, writes)
                    if crange is None:
                        inactive += 1
                        continue
                    active += 1
                    if any(lo == AffineExpr.const(0) and
                           hi == AffineExpr.const(63)
                           for lo, hi in zip(crange.lo, crange.hi)):
                        widened += 1
        # guards excluded whole boxes, and mismatches widened dimensions
        assert inactive > 20 and widened > 20 and active > 200


# -- a statement a guard enables only in an interior tile -----------------


def interior_guard_kernel():
    a, b, c = Array("A", (16, 8)), Array("B", (16, 8)), Array("C", (8,))
    arrays = {"A": a, "B": b, "C": c}

    def s1(mem, pt):
        mem["B"][pt["p"], pt["q"]] = mem["A"][pt["p"], pt["q"]] + mem["C"][0]

    def s2(mem, pt):
        mem["C"][pt["q"]] = mem["A"][pt["p"], pt["q"]]

    stmt1 = stmt_("S1", arrays, reads={"A": ("p", "q"), "C": (0,)},
                  writes={"B": ("p", "q")}, compute=s1)
    stmt2 = stmt_("S2", arrays, reads={"A": ("p", "q")},
                  writes={"C": ("q",)}, guards=[Constraint.eq("p", 5)],
                  compute=s2)
    return kernel_("interior", [a, b, c],
                   [for_("p", 16, for_("q", 8, stmt1, stmt2))])


@pytest.fixture(scope="module")
def interior():
    kernel = interior_guard_kernel()
    tree = LoopTree.build(kernel)
    return kernel, TilableComponent(tree, (tree.roots[0],))


class TestInteriorGuardTile:
    """``S2 [p == 5]: C[q] = ...`` runs only in the tile holding p = 5.
    Sampling the first and last tile alone sized C's buffer at one
    element and missed that C's range moves along p."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 8])
    def test_bounding_box_sees_interior_tile(self, interior, k):
        _kernel, comp = interior
        assert bounding_box(comp, "C", {"p": k}) == (8,)

    def test_level_moves_the_range(self, interior):
        _kernel, comp = interior
        geometry = ArrayGeometry(comp, Platform(), None)
        assert geometry.relevant_levels("C", {"p": 2}) == (0,)
        assert geometry.relevant_levels("C", {"p": 16}) == ()

    @pytest.mark.parametrize("strategy", ["pruned", "greedy", "heuristic"])
    @pytest.mark.parametrize("spm", [300, 4096])
    def test_compiles_emits_verifies_and_matches(self, strategy, spm):
        """At 300 B every tiling that advances p would stream C's
        element 0 into one tile while the tile holding p = 5 still
        writes it, so no PREM schedule exists and the compile reports
        infeasible instead of one that cannot be emitted.  At 4 KiB the
        single-tile schedule is emitted and verified."""
        kernel = interior_guard_kernel()
        result = PremCompiler(Platform().with_spm(spm)).compile(
            kernel, strategy=strategy)
        code = result.generate_c()
        assert not result.verify_static().has_errors
        memory = result.run_functional(seed=3)
        reference = result.run_reference(seed=3)
        for name, values in reference.items():
            np.testing.assert_array_equal(memory[name], values)
        if spm == 300:
            assert not result.components and not code
        else:
            assert [c.solution.key() for c in result.components] == \
                [(("p", 16, 1),)]
            assert "swap_buffer(C_buf1" in code["(p)"]


# -- a hull that is widest in a middle tile --------------------------------


def mixed_coefficient_component():
    """``B[p] = A[2p]; C[p] = A[p + 3]`` for p < 11: the two subscripts
    of A's one dimension carry different coefficients on p."""
    a, b, c = Array("A", (21,)), Array("B", (11,)), Array("C", (11,))
    arrays = {"A": a, "B": b, "C": c}
    s1 = stmt_("S1", arrays, reads={"A": ("2*p",)}, writes={"B": ("p",)})
    s2 = stmt_("S2", arrays, reads={"A": ("p + 3",)}, writes={"C": ("p",)})
    tree = LoopTree.build(
        kernel_("mixed", [a, b, c], [for_("p", 11, s1, s2)]))
    return TilableComponent(tree, (tree.roots[0],))


class TestMixedCoefficientBox:
    """With K = 5 the first tile's hull of A is 9 elements, the last
    (remainder) tile's 8, the middle tile's 11: sampling the end tiles
    alone under-sized A's buffer."""

    def test_middle_tile_sizes_the_box(self):
        comp = mixed_coefficient_component()
        assert bounding_box(comp, "A", {"p": 5}) == (11,)

    @pytest.mark.parametrize("k", range(1, 12))
    def test_box_covers_every_tile(self, k):
        comp = mixed_coefficient_component()
        box = bounding_box(comp, "A", {"p": k})
        for index in range(-(-11 // k)):
            tile = canonical_range(
                comp, "A", tile_box(comp, {"p": index}, {"p": k}))
            assert all(b >= s for b, s in zip(box, tile.shape)), (k, index)
