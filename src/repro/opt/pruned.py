"""Bound-driven branch-and-bound search over the Algorithm-1 space.

Same candidate space, same winner as :class:`ExhaustiveOptimizer` — the
point is what is *not* paid for.  Every candidate first gets a cheap
closed-form admissible lower bound (``repro.opt.bounds``); the search
then walks candidates best-bound-first with an incumbent:

1. candidates whose quick bound is infinite (provably infeasible) are
   dropped during enumeration;
2. once the sorted walk reaches a candidate whose ``(bound, key)`` rank
   is at or past the incumbent's ``(makespan, key)`` rank, *every*
   remaining candidate is pruned in one step — the sort makes the tail
   monotone;
3. survivors are refined with the DMA-path bound and the exact SPM test
   (tier 2, memoized geometry shared with the planner) and pruned
   individually when the refined rank cannot beat the incumbent;
4. only what is left pays a fresh ``SegmentPlanner.plan``.

Because every bound is admissible (a true lower bound on the candidate's
makespan) and the prune comparisons reuse the exhaustive search's
``(makespan, solution key)`` tie-break rank, the winner is bit-identical
to the unpruned search — including the no-feasible-candidate case.

The walk (:func:`walk_candidates`) is the one the Pareto search uses
too; only its acceptance policy differs (:class:`Incumbent` here, a
dominance archive there).  It scores survivors in doubling windows
through the :class:`~repro.opt.engine.EvaluationEngine`, and the policy
moves only at window boundaries, so the evaluated/pruned split is a pure
function of the candidate list: the same for every ``jobs`` and
``vectorize`` setting and on a warm cache.  The evaluation *count* is
exactly what pruning reduces, so it is not part of the parity contract
with the exhaustive search.

Pruned candidates are recorded in the persistent cache as bound-only
entries; re-encountering one on a warm run counts as a *bound hit*.
"""

from __future__ import annotations

import collections.abc
import math
import time
from dataclasses import dataclass
from itertools import product
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..loopir.component import TilableComponent
from ..schedule.makespan import (
    DEFAULT_SEGMENT_CAP,
    MakespanEvaluator,
    MakespanResult,
)
from ..timing.execmodel import ExecModel
from ..timing.platform import Platform
from .bounds import BoundCalculator
from .cache import PersistentCache
from .component import ComponentOptResult
from .engine import EngineMetrics, EvaluationEngine
from .exhaustive import (
    SearchSpaceTooLarge,
    assignment_candidates,
    space_size_of,
)
from .solution import Solution
from .threadgroups import generate_nondominated_thread_groups

#: The pruned path affords a far larger space than the exhaustive
#: guard's 20k: most candidates cost one closed-form bound, not a plan.
DEFAULT_PRUNED_MAX_POINTS = 500_000

#: Deadline poll stride for the bound-only enumeration.
_DEADLINE_STRIDE = 512

#: Slots of the walk's largest window.  The policy advances only at
#: window boundaries, so the window bounds how many candidates can be
#: scored that a policy advanced per candidate would have pruned.
_BATCH_WINDOW = 256

#: Size of the *first* window; windows double up to ``_BATCH_WINDOW``.
#: Candidates are sorted best-bound-first, so a small opening window
#: usually lands a near-optimal incumbent immediately and lets the bound
#: tier prune even spaces smaller than one full window.
_FIRST_WINDOW = 16

#: Rows a :class:`CandidateSequence` iteration converts at a time.
_ITER_BLOCK = 512

#: Candidate record: (quick bound, flat key, tile sizes, assignment idx).
_Candidate = Tuple[float, Tuple[int, ...], Tuple[int, ...], int]


def validate_shard(shard_of: Optional[Tuple[int, int]]
                   ) -> Optional[Tuple[int, int]]:
    """Normalize/validate a ``(index, count)`` shard restriction."""
    if shard_of is None:
        return None
    try:
        index, count = int(shard_of[0]), int(shard_of[1])
    except (IndexError, TypeError, ValueError):
        raise ValueError(
            f"shard_of must be (index, count); got {shard_of!r}")
    if count < 1 or not 0 <= index < count:
        raise ValueError(
            f"shard_of must be (index, count) with 0 <= index < count; "
            f"got {shard_of!r}")
    return index, count


class CandidateSequence(collections.abc.Sequence):
    """Finite-bound candidates, best-bound-first, built on read.

    Holds the quick bounds, per-level tile-size indices and assignment
    indices of the candidates as arrays, already in the order of the
    scalar list's ``sort()``.  Reading position *i* builds the record
    ``(bound, flat, sizes, ai)`` from the ``select_tile_sizes`` lists, so
    a walk that stops after a few hundred candidates never materializes
    the other hundred thousand.  Supports ``len``, int indexing, slicing
    (a shard's ``[i::n]`` is another sequence over array views) and
    iteration."""

    def __init__(self, bounds: np.ndarray, indices: np.ndarray,
                 ais: np.ndarray, lists: Sequence[Sequence[List[int]]],
                 assignments: Sequence[Tuple[int, ...]]):
        self._bounds = bounds          # float64 quick bound per candidate
        self._indices = indices        # (n, depth) tile-size list indices
        self._ais = ais                # assignment index per candidate
        self._lists = lists            # per assignment, per-level lists
        self._assignments = assignments

    def __len__(self) -> int:
        return len(self._bounds)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return CandidateSequence(
                self._bounds[index], self._indices[index],
                self._ais[index], self._lists, self._assignments)
        return self._record(float(self._bounds[index]),
                            self._indices[index].tolist(),
                            int(self._ais[index]))

    def __iter__(self) -> Iterator[_Candidate]:
        # Convert a block of rows at a time: Python scalars without
        # materializing the whole sequence.
        for start in range(0, len(self), _ITER_BLOCK):
            stop = start + _ITER_BLOCK
            for bound, row, ai in zip(self._bounds[start:stop].tolist(),
                                      self._indices[start:stop].tolist(),
                                      self._ais[start:stop].tolist()):
                yield self._record(bound, row, ai)

    def _record(self, bound: float, row: List[int], ai: int) -> _Candidate:
        sizes = tuple(lst[i] for lst, i in zip(self._lists[ai], row))
        flat = tuple(
            x for k, r in zip(sizes, self._assignments[ai]) for x in (k, r))
        return bound, flat, sizes, ai


def enumerate_candidates(component: TilableComponent,
                         assignments: Sequence[Tuple[int, ...]],
                         bounds: BoundCalculator,
                         check: Callable[[], None],
                         vectorize: bool = True
                         ) -> Tuple[Sequence[_Candidate],
                                    List[Dict[str, int]], int]:
    """Quick-bound every candidate point; sort survivors best-bound-first.

    Returns ``(candidates, groups_maps, pruned)`` where *pruned* counts
    the provably infeasible points (quick bound of +inf) that never
    entered the sequence.  The scalar path (``vectorize=False``, the
    reference) builds and sorts a list of records.  The vectorized path
    screens each assignment's whole tile-size grid through
    :meth:`BoundCalculator.quick_bound_array` — bitwise the same bounds,
    so the same pruned count — and orders the survivors with one
    ``np.lexsort`` on ``(bound, K1, R1, K2, R2, ...)``: flat keys are
    unique, so that is exactly the list's sort order.  It returns a
    :class:`CandidateSequence` equal to the list element for element.
    Shared by the nominal, robust and Pareto searches."""
    groups_maps: List[Dict[str, int]] = []
    pruned = 0
    if not vectorize:
        candidates: List[_Candidate] = []
        seen = 0
        for ai, assignment in enumerate(assignments):
            groups, candidate_lists = assignment_candidates(
                component, assignment)
            groups_maps.append(groups)
            for sizes in product(*candidate_lists):
                seen += 1
                if seen % _DEADLINE_STRIDE == 0:
                    check()
                bound = bounds.quick_bound(sizes, assignment)
                if math.isinf(bound):
                    pruned += 1
                    continue
                flat = tuple(
                    x for k, r in zip(sizes, assignment) for x in (k, r))
                candidates.append((bound, flat, sizes, ai))
        candidates.sort()
        return candidates, groups_maps, pruned

    depth = len(component.nodes)
    lists: List[List[List[int]]] = []
    bound_parts, index_parts, ai_parts, key_parts = [], [], [], []
    for ai, assignment in enumerate(assignments):
        check()
        groups, candidate_lists = assignment_candidates(
            component, assignment)
        groups_maps.append(groups)
        lists.append(candidate_lists)
        bound_arr = bounds.quick_bound_array(candidate_lists, assignment)
        finite = np.flatnonzero(np.isfinite(bound_arr))
        pruned += len(bound_arr) - len(finite)
        if not len(finite):
            continue
        shape = tuple(len(lst) for lst in candidate_lists)
        index = np.stack(np.unravel_index(finite, shape), axis=1)
        bound_parts.append(bound_arr[finite])
        index_parts.append(index)
        ai_parts.append(np.full(len(finite), ai, dtype=np.int64))
        flat_cols = []
        for j, (lst, r) in enumerate(zip(candidate_lists, assignment)):
            flat_cols.append(np.asarray(lst, dtype=np.int64)[index[:, j]])
            flat_cols.append(np.full(len(finite), r, dtype=np.int64))
        key_parts.append(np.stack(flat_cols, axis=1))
    if not bound_parts:
        empty = np.empty(0, dtype=np.int64)
        return (CandidateSequence(
            np.empty(0), np.empty((0, depth), dtype=np.int64), empty,
            lists, assignments), groups_maps, pruned)
    bound_all = np.concatenate(bound_parts)
    flat_all = np.concatenate(key_parts)
    # np.lexsort sorts by its *last* key first: (bound, K1, R1, ...).
    order = np.lexsort(
        [flat_all[:, c] for c in range(flat_all.shape[1] - 1, -1, -1)]
        + [bound_all])
    return (CandidateSequence(
        bound_all[order], np.concatenate(index_parts)[order],
        np.concatenate(ai_parts)[order], lists, assignments),
        groups_maps, pruned)


@dataclass
class CandidateSpace:
    """One component's Algorithm-1 candidate space, as a walk reads it.

    ``candidates`` is this shard's slice of the finite-bound candidates,
    best-bound-first; ``size`` counts every point of the space and
    ``pruned`` the points whose quick bound is infinite."""

    component: TilableComponent
    assignments: List[Tuple[int, ...]]
    groups_maps: List[Dict[str, int]]
    candidates: Sequence[_Candidate]
    size: int
    pruned: int

    def solution(self, sizes: Tuple[int, ...], ai: int) -> Solution:
        """The solution of tile sizes *sizes* under assignment *ai*."""
        variables = (node.var for node in self.component.nodes)
        return Solution(self.component, dict(zip(variables, sizes)),
                        self.groups_maps[ai])


def candidate_space(component: TilableComponent, cores: int,
                    bounds: BoundCalculator, check: Callable[[], None], *,
                    max_points: int, strategy: str, vectorize: bool = True,
                    shard_of: Optional[Tuple[int, int]] = None
                    ) -> CandidateSpace:
    """Thread groups, space guard, quick-bound screen and shard slice.

    Raises :class:`SearchSpaceTooLarge` past *max_points* (the message
    names *strategy*).  A shard takes the sorted list round-robin
    (``[i::n]``): its slice is itself sorted, so tail pruning stays
    valid, and the best bounds spread evenly, so every shard lands a
    competitive incumbent early.  Candidates of other shards are not
    counted as pruned."""
    assignments = generate_nondominated_thread_groups(cores, component)
    size = space_size_of(component, assignments)
    if size > max_points:
        raise SearchSpaceTooLarge(
            f"{size} candidate points exceed the {strategy}-search budget "
            f"of {max_points}; use the heuristic (Algorithm 1)")
    candidates, groups_maps, pruned = enumerate_candidates(
        component, assignments, bounds, check, vectorize=vectorize)
    if shard_of is not None:
        index, count = shard_of
        candidates = candidates[index::count]
    return CandidateSpace(component, assignments, groups_maps, candidates,
                          size, pruned)


class WalkPolicy:
    """What :func:`walk_candidates` asks of a search: which candidates
    to prune, and what to make of each scored one."""

    def cuts_tail(self, bound: float, flat: Tuple[int, ...]) -> bool:
        """Whether the candidate ranked ``(bound, flat)`` and, the list
        being sorted, every later one can be pruned unseen."""
        return False

    def screen(self, bound: float, sizes: Tuple[int, ...],
               assignment: Tuple[int, ...], flat: Tuple[int, ...],
               solution: Solution) -> Optional[float]:
        """The bound to persist if the uncached candidate is pruned,
        None if it must be scored."""
        raise NotImplementedError

    def adopt(self, flat: Tuple[int, ...], result: MakespanResult) -> None:
        """Take one scored (or cached) candidate, in list order."""
        raise NotImplementedError


class Incumbent(WalkPolicy):
    """Scalar acceptance policy: the best ``(makespan, flat key)`` rank.

    Prunes the sorted tail at the rank, and single candidates whose
    refined bound cannot beat it.  *rank* seeds it (see
    :meth:`PrunedOptimizer._seed`)."""

    def __init__(self, bounds: BoundCalculator, rank: Optional[tuple]):
        self.bounds = bounds
        self.rank = rank
        self.best: Optional[MakespanResult] = None

    def cuts_tail(self, bound, flat):
        return self.rank is not None and (bound, flat) >= self.rank

    def screen(self, bound, sizes, assignment, flat, solution):
        refined = self.bounds.refine(bound, sizes, assignment)
        if math.isinf(refined) or self.cuts_tail(refined, flat):
            return refined
        return None

    def adopt(self, flat, result):
        if result.feasible:
            rank = (result.makespan_ns, flat)
            if self.rank is None or rank < self.rank:
                self.best, self.rank = result, rank


def _prune_one(engine: EvaluationEngine, key: tuple, bound: float) -> None:
    engine.note_pruned()
    if engine.evaluator.persist_bound(key, bound):
        engine.note_bound_hit()


def walk_candidates(space: CandidateSpace, engine: EvaluationEngine,
                    policy: WalkPolicy) -> None:
    """Walk *space* best-bound-first, scoring through *engine*.

    Candidates are collected into windows of ``_FIRST_WINDOW`` slots,
    doubling to ``_BATCH_WINDOW``.  In list order: the policy may cut
    the whole remaining tail; a memo/cache hit takes a slot; any other
    candidate is screened by the policy and, unless pruned, takes a slot
    as fresh work.  Each window's fresh candidates are scored by one
    :meth:`EvaluationEngine.evaluate_fresh` call (serial, batch-exact or
    worker pool, as the engine was built), then every slot is adopted in
    list order.  The policy moves only there, at the window boundary, so
    the screen decisions do not depend on ``jobs``, ``vectorize`` or
    what the cache held: a warm re-run prunes the same candidates and
    persists the same bounds as the cold run.  Prunes, those of the
    enumeration included, are counted on the engine."""
    evaluator = engine.evaluator
    candidates = space.candidates
    engine.note_pruned(space.pruned)
    pos, total, limit = 0, len(candidates), _FIRST_WINDOW
    while pos < total:
        evaluator.check_deadline()
        #: (flat key, cached result or None, solution)
        window: List[tuple] = []
        while pos < total and len(window) < limit:
            bound, flat, sizes, ai = candidates[pos]
            if policy.cuts_tail(bound, flat):
                engine.note_pruned(total - pos)
                pos = total
                break
            pos += 1
            solution = space.solution(sizes, ai)
            hit = evaluator.peek(solution)
            if hit is None:
                pruned_at = policy.screen(
                    bound, sizes, space.assignments[ai], flat, solution)
                if pruned_at is not None:
                    _prune_one(engine, solution.key(), pruned_at)
                    continue
            window.append((flat, hit, solution))
        limit = min(limit * 2, _BATCH_WINDOW)
        scored = iter(engine.evaluate_fresh(
            [solution for _, hit, solution in window if hit is None]))
        for flat, hit, _solution in window:
            policy.adopt(flat, hit if hit is not None else next(scored))


class PrunedOptimizer:
    """Branch-and-bound twin of :class:`ExhaustiveOptimizer`.

    Returns the identical winner while planning only the candidates no
    admissible bound could eliminate; ``result.pruned`` counts the
    evaluations avoided and ``result.bound_hits`` how many of those the
    persistent cache had already seen."""

    def __init__(self, component: TilableComponent, platform: Platform,
                 exec_model: ExecModel,
                 segment_cap: int = DEFAULT_SEGMENT_CAP,
                 max_points: int = DEFAULT_PRUNED_MAX_POINTS,
                 deadline: float | None = None, budget_s: float = 0.0,
                 jobs: int = 1, cache: Optional[PersistentCache] = None,
                 vectorize: bool = True,
                 shard_of: Optional[Tuple[int, int]] = None,
                 incumbent: Optional[Tuple[float, Tuple[int, ...]]] = None):
        self.component = component
        self.platform = platform
        self.exec_model = exec_model
        self.max_points = max_points
        self.jobs = jobs
        self.vectorize = vectorize
        #: Restrict the walk to shard *i* of *n*: every n-th candidate
        #: of the globally sorted list, starting at i.  The union over
        #: all shards is the whole space, and any true feasible
        #: incumbent may seed any shard (see ``incumbent``), so the
        #: minimum rank over the shard winners is the unsharded winner.
        self.shard_of = validate_shard(shard_of)
        #: Optional seed ``(makespan, flat key)`` incumbent rank, as
        #: published by a shard.  A shard trusts it: seeding can only
        #: prune candidates that cannot beat that rank, so the shard's
        #: own winner may come back None; the seed's publisher already
        #: holds the corresponding full result.  An unsharded walk
        #: (``shard-reduce``) validates it first, see :meth:`_seed`.
        self.incumbent = (float(incumbent[0]), tuple(incumbent[1])) \
            if incumbent is not None else None
        self.evaluator = MakespanEvaluator(
            component, platform, exec_model, segment_cap, cache=cache)
        if deadline is not None:
            self.evaluator.set_deadline(deadline, "pruned", budget_s)
        self.bounds = BoundCalculator(
            component, platform, exec_model, segment_cap,
            modes=self.evaluator.planner.modes,
            geometry=self.evaluator.geometry)
        self.metrics: Optional[EngineMetrics] = None

    def optimize(self, cores: Optional[int] = None) -> ComponentOptResult:
        cores = cores if cores is not None else self.platform.cores
        started = time.perf_counter()
        space = candidate_space(
            self.component, cores, self.bounds,
            self.evaluator.check_deadline, max_points=self.max_points,
            strategy="pruned", vectorize=self.vectorize,
            shard_of=self.shard_of)
        seed, seed_result = self._seed(space)
        incumbent = Incumbent(self.bounds, seed)
        with EvaluationEngine(self.evaluator, jobs=self.jobs,
                              stage="pruned",
                              vectorize=self.vectorize) as engine:
            walk_candidates(space, engine, incumbent)
            # Nothing ranks below a validated seed: it is the winner.
            best = engine.finalize(incumbent.best if incumbent.best
                                   is not None else seed_result)
            metrics = self.metrics = engine.metrics()
        return ComponentOptResult(
            component=self.component,
            best=best,
            evaluations=self.evaluator.evaluations,
            elapsed_s=time.perf_counter() - started,
            assignments_tried=len(space.assignments),
            cache_hits=self.evaluator.cache_hits,
            pruned=metrics.pruned,
            bound_hits=metrics.bound_hits,
            batched=metrics.batched,
            batch_fallbacks=metrics.batch_fallbacks,
            exec_model=self.exec_model,
        )

    def _seed(self, space: CandidateSpace
              ) -> Tuple[Optional[tuple], Optional[MakespanResult]]:
        """The walk's starting incumbent rank, and the result to return
        when no candidate beats it.

        A shard starts from :attr:`incumbent` as given.  An unsharded
        walk adopts it only if it is the rank of one of its *own*
        candidates whose cached result is feasible with exactly that
        makespan; otherwise it starts empty.  Either way the unsharded
        winner is the exact minimum rank of the list, whatever the
        shard log held — a valid seed only prunes what cannot beat it.

        Membership is a key lookup, not a scan: the flat key names the
        assignment and the tile sizes, and a point is in the list iff
        its sizes are that assignment's options and its quick bound is
        finite."""
        if self.incumbent is None or self.shard_of is not None:
            return self.incumbent, None
        makespan, flat = self.incumbent
        sizes, assignment = flat[0::2], flat[1::2]
        if len(flat) != 2 * len(self.component.nodes) or \
                assignment not in space.assignments:
            return None, None
        ai = space.assignments.index(assignment)
        _groups, candidate_lists = assignment_candidates(
            self.component, assignment)
        if not all(k in lst for k, lst in zip(sizes, candidate_lists)) or \
                math.isinf(self.bounds.quick_bound(sizes, assignment)):
            return None, None
        hit = self.evaluator.peek(space.solution(sizes, ai))
        if hit is not None and hit.feasible and hit.makespan_ns == makespan:
            return self.incumbent, hit
        return None, None
