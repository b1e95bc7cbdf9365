"""Value-flow dependence analysis via hierarchical direction vectors.

This module answers the two legality questions of Section 5.2.1 for the
restricted program class of Section 3.2 (rectangular domains, affine
accesses):

- which shared loop levels carry a dependence and with what sign
  (*direction vectors*), and
- whether a dependence can be *loop independent* (all shared levels equal,
  textual order decides).

The tester follows the classical Lamport/Banerjee scheme the paper refers
to: for each pair of accesses to the same array with at least one write,
build the affine system

    src in D_src  and  dst in D_dst  and  subscripts equal
    and the chosen direction prefix over the shared loops,

and decide its rational feasibility with :func:`repro.poly.fm.is_feasible`
(a GCD pre-test, then exact Gaussian substitution of the subscript and
``=`` equalities, then Fourier–Motzkin on the remaining inequalities).
Directions are enumerated hierarchically outermost-first with pruning,
under the constraint that the first non-'=' level must be '<' (source
lexicographically before sink — pairs in ``Dep`` are ordered by the
original schedule).  The analysis is conservative: a rationally feasible
system is reported as a real dependence.

Many statement and access pairs build the same system up to variable
names, so an analyzer memoizes verdicts on the canonical system (see
:meth:`ConstraintSystem.canonical`).  The memo belongs to one compile (see
:class:`DependenceAnalyzer`), never to the process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as iter_product
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .access import Access, Array
from .affine import AffineExpr, lex_compare
from .constraint import Constraint, ConstraintSystem
from .domain import Domain
from .fm import is_feasible
from .schedule import Schedule

#: Direction encodings for distance component t - s at a shared loop level.
LT = "<"   # t > s : positive distance, dependence flows forward
EQ_DIR = "="   # t == s
GT = ">"   # t < s : negative distance (legal only below a '<' level)

_SRC = "s$"
_DST = "t$"


def carried_level(direction: Tuple[str, ...]):
    """Index of the first non-'=' component, or None if loop independent.

    Every admissible vector's first non-'=' component is '<' (the
    enumeration in :class:`DependenceAnalyzer` only emits such vectors),
    so this is the level whose sequential loop orders the two instances.
    """
    for index, sign in enumerate(direction):
        if sign != EQ_DIR:
            return index
    return None


@dataclass(frozen=True, slots=True)
class Dependence:
    """One dependence edge of the ``Dep`` set (Eq. 2.1), summarised.

    Attributes
    ----------
    src_stmt, dst_stmt:
        Names of the source and sink statements.
    array:
        Name of the array through which the dependence flows.
    kind:
        ``"RAW"``, ``"WAR"`` or ``"WAW"``.
    shared_loops:
        The loops shared by both statements, outermost first.
    directions:
        Every feasible direction vector over the shared loops.  The empty
        tuple set means the dependence exists only between instances with
        identical shared iterators (loop independent).
    loop_independent:
        Whether an all-'=' dependence (textual order) is feasible.
    """

    src_stmt: str
    dst_stmt: str
    array: str
    kind: str
    shared_loops: Tuple[str, ...]
    directions: FrozenSet[Tuple[str, ...]]
    loop_independent: bool

    def carried_by(self, loop: str) -> bool:
        """True when some direction vector is first-nonzero at *loop*."""
        if loop not in self.shared_loops:
            return False
        level = self.shared_loops.index(loop)
        for direction in self.directions:
            if direction[level] == LT and all(
                    d == EQ_DIR for d in direction[:level]):
                return True
        return False

    def component_signs(self, loop: str) -> FrozenSet[str]:
        """All direction symbols occurring at *loop* over feasible vectors."""
        if loop not in self.shared_loops:
            return frozenset()
        level = self.shared_loops.index(loop)
        return frozenset(d[level] for d in self.directions)

    def has_nonzero_at(self, loop: str) -> bool:
        """Paper's parallelization criterion: any non-'=' component at loop."""
        signs = self.component_signs(loop)
        return bool(signs - {EQ_DIR})

    def confined_above(self, loop: str) -> bool:
        """True when every instance pair lies in one iteration of *loop*'s
        ancestors — i.e. the dependence is carried strictly above *loop*.

        Such a dependence never relates instances from different
        iterations of any loop at or below *loop*, so a transform that
        only reorders statements within one iteration of the enclosing
        nest (loop fission at *loop*) cannot violate it.
        """
        if loop not in self.shared_loops:
            return False
        if self.loop_independent:
            return False
        level = self.shared_loops.index(loop)
        for direction in self.directions:
            carried = carried_level(direction)
            if carried is None or carried >= level:
                return False
        return True

    def __repr__(self) -> str:
        dirs = ",".join("".join(d) for d in sorted(self.directions)) or "-"
        li = "+LI" if self.loop_independent else ""
        return (f"Dep[{self.kind}] {self.src_stmt} -> {self.dst_stmt} "
                f"via {self.array} ({dirs}{li})")


@dataclass
class StatementInfo:
    """What the tester needs to know about one statement."""

    name: str
    domain: Domain
    schedule: Schedule
    accesses: Sequence[Access]


def shared_prefix(a: Sequence[str], b: Sequence[str]) -> Tuple[str, ...]:
    """Longest common prefix of two iterator name sequences."""
    out = []
    for x, y in zip(a, b):
        if x != y:
            break
        out.append(x)
    return tuple(out)


class DependenceAnalyzer:
    """Computes the ``Dep`` set for a list of statements.

    *memo* is the verdict memo.  It maps an access pair's base system
    in canonical form (:meth:`ConstraintSystem.canonical`, plus the
    positions of the shared loops' source and sink variables in it) to
    the verdicts of that system under each direction prefix, so equal
    keys mean equal systems up to renaming.  A compile that analyzes
    more than one kernel version (the original and the fissioned one)
    passes one dict to both analyzers; without one, each analyzer starts
    its own.  A hit skips the feasibility test, a miss builds the system
    and runs it.  The memo must not outlive the compile: a process-wide
    one would grow without bound in a long-lived process and make a
    compile's cost depend on what ran before it.
    """

    def __init__(self, statements: Sequence[StatementInfo],
                 memo: Optional[Dict[tuple, Dict[tuple, bool]]] = None):
        self._stmts = list(statements)
        self._memo = {} if memo is None else memo
        #: One shared frozenset per distinct direction set, so the
        #: dependences of a result do not each hold a copy.
        self._direction_sets: Dict[FrozenSet, FrozenSet] = {}

    def analyze(self) -> List[Dependence]:
        """All dependences between every ordered statement pair."""
        deps: List[Dependence] = []
        for src in self._stmts:
            for dst in self._stmts:
                deps.extend(self._pair_dependences(src, dst))
        return deps

    # -- one statement pair ----------------------------------------------

    def _pair_dependences(self, src: StatementInfo,
                          dst: StatementInfo) -> List[Dependence]:
        shared = shared_prefix(src.domain.iterators, dst.domain.iterators)
        deps = []
        for src_access in src.accesses:
            for dst_access in dst.accesses:
                if src_access.array.name != dst_access.array.name:
                    continue
                if src_access.is_read and dst_access.is_read:
                    continue
                kind = _dependence_kind(src_access, dst_access)
                dep = self._test_access_pair(
                    src, dst, src_access, dst_access, shared, kind)
                if dep is not None:
                    deps.append(dep)
        return deps

    def _test_access_pair(self, src, dst, src_access, dst_access,
                          shared, kind):
        base = self._base_system(src, dst, src_access, dst_access)
        position = {v: i for i, v in enumerate(sorted(base.variables()))}
        verdicts = self._memo.setdefault((base.canonical(), tuple(
            (position[_SRC + var], position[_DST + var]) for var in shared)),
            {})
        if not self._feasible(base, shared, verdicts, ()):
            return None

        loop_independent = self._loop_independent_feasible(
            src, dst, base, shared, verdicts)

        directions = set()
        if shared:
            self._enumerate(base, shared, verdicts, (), directions)

        if not directions and not loop_independent:
            return None
        return Dependence(
            src_stmt=src.name,
            dst_stmt=dst.name,
            array=src_access.array.name,
            kind=kind,
            shared_loops=shared,
            directions=self._direction_sets.setdefault(
                frozenset(directions), frozenset(directions)),
            loop_independent=loop_independent,
        )

    # -- system construction ------------------------------------------------

    def _base_system(self, src, dst, src_access, dst_access) -> ConstraintSystem:
        """Domains of both instances plus subscript equality."""
        system = ConstraintSystem()
        system.extend(src.domain.constraints(prefix=_SRC))
        system.extend(dst.domain.constraints(prefix=_DST))
        src_map = {v: _SRC + v for v in src.domain.iterators}
        dst_map = {v: _DST + v for v in dst.domain.iterators}
        for src_idx, dst_idx in zip(src_access.indices, dst_access.indices):
            lhs = src_idx.rename(src_map)
            rhs = dst_idx.rename(dst_map)
            system.add(Constraint.eq(lhs, rhs))
        return system

    def _loop_independent_feasible(self, src, dst, base, shared,
                                   verdicts) -> bool:
        """All shared levels '=' and src textually precedes dst."""
        depth = len(shared)
        src_statics = src.schedule.statics_below(depth)
        dst_statics = dst.schedule.statics_below(depth)
        if src.name == dst.name:
            # Same instance: not a dependence between distinct instances.
            return False
        width = min(len(src_statics), len(dst_statics))
        if lex_compare(src_statics[:width], dst_statics[:width]) >= 0:
            return False
        return self._feasible(base, shared, verdicts, (EQ_DIR,) * depth)

    @staticmethod
    def _feasible(base, shared, verdicts, prefix) -> bool:
        """Whether *base* plus the direction *prefix* over the outermost
        shared loops is feasible, looked up in (or added to) *verdicts*,
        the memo entry of *base*'s canonical form."""
        verdict = verdicts.get(prefix)
        if verdict is None:
            system = base.copy()
            for var, chosen in zip(shared, prefix):
                src_var = AffineExpr.var(_SRC + var)
                dst_var = AffineExpr.var(_DST + var)
                if chosen == LT:
                    system.add(Constraint.gt(dst_var, src_var))
                elif chosen == EQ_DIR:
                    system.add(Constraint.eq(dst_var, src_var))
                else:
                    system.add(Constraint.lt(dst_var, src_var))
            verdict = verdicts[prefix] = is_feasible(system)
        return verdict

    def _enumerate(self, base, shared, verdicts, prefix, out):
        """Hierarchical direction enumeration with feasibility pruning."""
        if len(prefix) == len(shared):
            if LT in prefix:
                out.add(prefix)
            return

        # Before the first '<', only '<' and '=' are admissible (the source
        # must precede the sink lexicographically).
        candidates = (LT, EQ_DIR, GT) if LT in prefix else (LT, EQ_DIR)
        for direction in candidates:
            extended = (*prefix, direction)
            if self._feasible(base, shared, verdicts, extended):
                self._enumerate(base, shared, verdicts, extended, out)


def _dependence_kind(src_access: Access, dst_access: Access) -> str:
    if src_access.is_write and dst_access.is_write:
        return "WAW"
    if src_access.is_write:
        return "RAW"
    return "WAR"


def concrete_pairs(src: StatementInfo, dst: StatementInfo,
                   dependence: Dependence, limit: int = 2000):
    """Enumerate concrete (source point, sink point) dependent pairs.

    Brute-force over both domains; intended for small test kernels as an
    oracle against the analytic direction vectors and for the Eq. 5.1
    schedule-legality re-check.
    """
    src_access = _find_access(src, dependence, want_write=dependence.kind != "WAR")
    dst_access = _find_access(dst, dependence,
                              want_write=dependence.kind in ("WAW", "WAR"))
    pairs = []
    for src_point in src.domain.points():
        src_elem = src_access.element(src_point)
        for dst_point in dst.domain.points():
            if dst_access.element(dst_point) != src_elem:
                continue
            src_ts = src.schedule.evaluate(src_point)
            dst_ts = dst.schedule.evaluate(dst_point)
            width = min(len(src_ts), len(dst_ts))
            if lex_compare(src_ts[:width], dst_ts[:width]) < 0:
                pairs.append((src_point, dst_point))
                if len(pairs) >= limit:
                    return pairs
    return pairs


def dependence_graph(dependences: Sequence[Dependence]
                     ) -> Dict[Tuple[str, str], List[Dependence]]:
    """Group a ``Dep`` set into a statement graph keyed by (src, dst).

    The source analyzer's fission pass walks this as the edge set of the
    statement dependence graph; edges keep the analyzer's emission order
    so verdicts derived from them are deterministic.
    """
    graph: Dict[Tuple[str, str], List[Dependence]] = {}
    for dep in dependences:
        graph.setdefault((dep.src_stmt, dep.dst_stmt), []).append(dep)
    return graph


def _find_access(info: StatementInfo, dependence: Dependence,
                 want_write: bool) -> Access:
    for access in info.accesses:
        if access.array.name == dependence.array and \
                access.is_write == want_write:
            return access
    raise LookupError(
        f"statement {info.name} has no matching access to {dependence.array}")
