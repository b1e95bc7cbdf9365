"""Tilable components (Section 3.4).

A tilable component is an ordered sequence of perfectly nested loop-tree
levels ``(l_1, ..., l_L)``; the framework tiles its loops, maps tiles to
threads, and builds a PREM streaming schedule for it.  This module only
captures the *structure*; tiling parameters live in
:class:`repro.opt.solution.Solution`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Dict, List, Mapping, Sequence, Tuple

from ..poly.access import Access, Array
from ..poly.constraint import EQ, Constraint
from .ast import Kernel, Loop, Stmt
from .looptree import LoopTree, LoopTreeNode

#: One access compiled to integers (see :meth:`TilableComponent.access_table`):
#: ``(is_read, is_write, guards, dims)``.
AccessRow = Tuple[bool, bool, Tuple[Tuple[str, int, int, bool], ...],
                  Tuple[Tuple[int, Tuple[Tuple[str, int], ...]], ...]]


@dataclass(frozen=True)
class TilableComponent:
    """A chain of loop-tree levels tiled and scheduled together.

    Attributes
    ----------
    tree:
        The owning loop tree (gives access to kernel and dependences).
    nodes:
        The chain ``(l_1, ..., l_L)``, outermost first.
    """

    tree: LoopTree
    nodes: Tuple[LoopTreeNode, ...]

    def __post_init__(self):
        if not self.nodes:
            raise ValueError("a tilable component needs at least one level")
        for parent, child in zip(self.nodes, self.nodes[1:]):
            if child not in parent.children:
                raise ValueError(
                    f"{child.var} is not a child of {parent.var}: "
                    "component levels must form a chain")

    # -- structure --------------------------------------------------------

    @property
    def kernel(self) -> Kernel:
        return self.tree.kernel

    @property
    def band_vars(self) -> Tuple[str, ...]:
        """Iterator names of the component levels, outermost first."""
        return tuple(node.var for node in self.nodes)

    @property
    def depth(self) -> int:
        return len(self.nodes)

    @property
    def executions(self) -> int:
        """``first(L).I`` — times the whole component runs."""
        return self.nodes[0].I

    def outer_vars(self) -> Tuple[str, ...]:
        """Iterators of loops enclosing the component (e.g. LSTM's ``t``)."""
        kernel = self.kernel
        head = self.nodes[0].loop
        for stmt, loops in kernel.walk_stmts():
            vars_ = [loop.var for loop in loops]
            if head.var in vars_:
                return tuple(vars_[:vars_.index(head.var)])
        raise LookupError(f"component head {head.var} contains no statements")

    # The kernel is frozen once the tree is built, so everything derived
    # from walking it below is computed once per component and handed out
    # as tuples or read-only mappings.

    @cached_property
    def _stmts(self) -> Tuple[Stmt, ...]:
        return tuple(self.kernel.stmts_under(self.nodes[-1].loop))

    @cached_property
    def _arrays(self) -> Dict[str, Array]:
        out: Dict[str, Array] = {}
        for stmt in self._stmts:
            for array in stmt.arrays():
                out.setdefault(array.name, array)
        return out

    @cached_property
    def _accesses(self) -> Dict[str, Tuple[Tuple[Stmt, Access], ...]]:
        pairs: Dict[str, List[Tuple[Stmt, Access]]] = {}
        for stmt in self._stmts:
            for access in stmt.accesses:
                pairs.setdefault(access.array.name, []).append(
                    (stmt, access))
        return {name: tuple(found) for name, found in pairs.items()}

    @cached_property
    def _guards(self) -> Dict[str, Tuple[Constraint, ...]]:
        out = {}
        for stmt in self._stmts:
            guards = list(stmt.guards)
            for loop in self.kernel.surrounding_loops(stmt.name):
                guards.extend(loop.guards)
            out[stmt.name] = tuple(guards)
        return out

    @cached_property
    def _inner_box(self) -> Dict[str, Tuple[int, int]]:
        box = {}

        def descend(loop: Loop):
            for child in loop.child_loops():
                box[child.var] = child.loop_range.bounds
                descend(child)

        descend(self.nodes[-1].loop)
        return box

    @cached_property
    def _access_tables(self) -> Dict[str, Tuple[AccessRow, ...]]:
        tables = {}
        for name, pairs in self._accesses.items():
            rows = []
            for stmt, access in pairs:
                guards = tuple(
                    (var, guard.expr.coeff(var), guard.expr.constant,
                     guard.kind == EQ)
                    for guard in self._guards[stmt.name]
                    for var in guard.variables()
                    if len(guard.variables()) == 1)
                dims = tuple(
                    (expr.constant, tuple(expr.coeffs.items()))
                    for expr in access.indices)
                rows.append((access.is_read, access.is_write, guards, dims))
            tables[name] = tuple(rows)
        return tables

    def stmts(self) -> Tuple[Stmt, ...]:
        """All statements executed by the component (incl. folded levels)."""
        return self._stmts

    def arrays(self) -> Mapping[str, Array]:
        """``L.A`` — every array accessed in the component."""
        return MappingProxyType(self._arrays)

    def accesses(self, array_name: str) -> Tuple[Tuple[Stmt, Access], ...]:
        """(stmt, access) pairs touching *array_name*."""
        return self._accesses.get(array_name, ())

    def guards(self, stmt: Stmt) -> Tuple[Constraint, ...]:
        """All guards constraining *stmt*: its own plus those of every
        surrounding loop (e.g. the ``t > 0`` gates in LSTM)."""
        return self._guards[stmt.name]

    def access_table(self, array_name: str) -> Tuple[AccessRow, ...]:
        """*array_name*'s accesses compiled to integers for range folding.

        One row per access, in :meth:`accesses` order: ``(is_read,
        is_write, guards, dims)``.  ``guards`` holds the statement's
        single-iterator guards as ``(var, coeff, constant, is_eq)`` (the
        guard is ``coeff * var + constant >= 0``, or ``== 0``); ``dims``
        holds each subscript as ``(constant, ((var, coeff), ...))`` with
        the variables in sorted order."""
        return self._access_tables.get(array_name, ())

    def inner_vars(self) -> Tuple[str, ...]:
        """Iterators strictly below the band (folded/leaf body loops)."""
        last = self.nodes[-1].loop
        inner: List[str] = []

        def descend(loop: Loop):
            for child in loop.child_loops():
                inner.append(child.var)
                descend(child)

        descend(last)
        return tuple(inner)

    def full_inner_box(self) -> Mapping[str, Tuple[int, int]]:
        """Full iterator bounds for the inner (non-band) loops."""
        return MappingProxyType(self._inner_box)

    def label(self) -> str:
        return "(" + ", ".join(self.band_vars) + ")"

    def __repr__(self) -> str:
        return f"TilableComponent{self.label()}"


def component_at(tree: LoopTree, vars_: Sequence[str]) -> TilableComponent:
    """Build a component from iterator names (test/report convenience)."""
    nodes = tuple(tree.node_by_var(v) for v in vars_)
    return TilableComponent(tree, nodes)
