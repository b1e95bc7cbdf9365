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
to the unpruned search — including the no-feasible-candidate case.  The
evaluation *count* is exactly what pruning reduces, so it is not part of
the parity contract; with ``jobs > 1`` the count may additionally vary
with worker timing (workers re-check bounds against a live incumbent),
while the winner still cannot change.

Pruned candidates are recorded in the persistent cache as bound-only
entries; re-encountering one on a warm run counts as a *bound hit*.
"""

from __future__ import annotations

import collections.abc
import math
import time
from collections import deque
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
from .vectorized import BatchEvaluator

#: The pruned path affords a far larger space than the exhaustive
#: guard's 20k: most candidates cost one closed-form bound, not a plan.
DEFAULT_PRUNED_MAX_POINTS = 500_000

#: Candidates per worker task; small keeps the shipped incumbent fresh.
_CHUNK_SIZE = 8

#: Deadline poll stride for the bound-only phases.
_DEADLINE_STRIDE = 512

#: Candidates per batch-exact window of the vectorized serial walk.  The
#: incumbent advances only at window boundaries, so the window bounds how
#: many candidates can be batch-scored that a per-candidate walk would
#: have pruned against a fresher incumbent.
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
        self.batch = BatchEvaluator(self.evaluator) if vectorize else None
        self.metrics: Optional[EngineMetrics] = None
        self._vars = [node.var for node in component.nodes]
        self._assignments: List[Tuple[int, ...]] = []
        self._pruned = 0
        self._bound_hits = 0

    # -- search ------------------------------------------------------------

    def optimize(self, cores: Optional[int] = None) -> ComponentOptResult:
        cores = cores if cores is not None else self.platform.cores
        started = time.perf_counter()
        self._pruned = 0
        self._bound_hits = 0
        self._assignments = generate_nondominated_thread_groups(
            cores, self.component)
        size = space_size_of(self.component, self._assignments)
        if size > self.max_points:
            raise SearchSpaceTooLarge(
                f"{size} candidate points exceed the pruned-search budget "
                f"of {self.max_points}; use the heuristic (Algorithm 1)")

        batch_scored0 = self.batch.scored if self.batch else 0
        batch_fell0 = self.batch.fallbacks if self.batch else 0
        candidates, groups_maps = self._enumerate()
        seed, seed_result = self._seed(groups_maps)
        with EvaluationEngine(self.evaluator, jobs=self.jobs,
                              stage="pruned") as engine:
            engine.note_pruned(self._pruned)   # enumeration-time drops
            walk = (self._search_parallel if engine.parallel
                    else self._search_serial)
            best = walk(engine, candidates, groups_maps, seed)
            if best is None:
                # Nothing ranks below a validated seed: it is the winner.
                best = seed_result
            best = engine.finalize(best)
            self.metrics = engine.metrics()
        if self.batch is not None:
            # The serial-batched walk scores through ``self.batch``,
            # which the engine never sees; fold its counters in so
            # ``metrics.batched``/``batch_fallbacks`` survive the shard
            # and scenario merge paths.  Worker-side batch counts are
            # already in the engine metrics and the two paths never
            # overlap, so this is a sum, not a double-count.
            self.metrics.batched += self.batch.scored - batch_scored0
            self.metrics.batch_fallbacks += \
                self.batch.fallbacks - batch_fell0
        return ComponentOptResult(
            component=self.component,
            best=best,
            evaluations=self.evaluator.evaluations,
            elapsed_s=time.perf_counter() - started,
            assignments_tried=len(self._assignments),
            cache_hits=self.evaluator.cache_hits,
            pruned=self._pruned,
            bound_hits=self._bound_hits,
            batched=(self.batch.scored - batch_scored0
                     if self.batch else 0),
            batch_fallbacks=(self.batch.fallbacks - batch_fell0
                             if self.batch else 0),
            exec_model=self.exec_model,
        )

    # -- enumeration (tier-1 bounds) ---------------------------------------

    def _enumerate(self) -> Tuple[Sequence[_Candidate],
                                  List[Dict[str, int]]]:
        """Bound every candidate point and sort best-bound-first.

        Provably infeasible points (quick bound of +inf) never enter the
        list: an admissible bound of infinity means the planner is
        guaranteed to reject them, so they cannot be the winner — the
        exhaustive search evaluates them only to learn the same thing.
        With vectorization the bounds come out of
        :meth:`BoundCalculator.quick_bound_array` (bitwise the scalar
        values, so the same list and the same pruned count)."""
        candidates, groups_maps, pruned = enumerate_candidates(
            self.component, self._assignments, self.bounds,
            self.evaluator.check_deadline, vectorize=self.vectorize)
        self._pruned += pruned
        if self.shard_of is not None:
            # Round-robin over the *sorted* list: each shard's slice is
            # itself sorted (tail pruning stays valid) and the best
            # bounds spread evenly, so every shard lands a competitive
            # incumbent early.  Dropped candidates belong to other
            # shards — they are not "pruned" work.
            index, count = self.shard_of
            candidates = candidates[index::count]
        return candidates, groups_maps

    def _seed(self, groups_maps: List[Dict[str, int]]
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
        if len(flat) != 2 * len(self._vars) or \
                assignment not in self._assignments:
            return None, None
        ai = self._assignments.index(assignment)
        _groups, candidate_lists = assignment_candidates(
            self.component, assignment)
        if not all(k in lst for k, lst in zip(sizes, candidate_lists)) or \
                math.isinf(self.bounds.quick_bound(sizes, assignment)):
            return None, None
        hit = self.evaluator.peek(self._solution(sizes, groups_maps[ai]))
        if hit is not None and hit.feasible and hit.makespan_ns == makespan:
            return self.incumbent, hit
        return None, None

    def _solution(self, sizes: Tuple[int, ...],
                  groups: Dict[str, int]) -> Solution:
        return Solution(
            self.component, dict(zip(self._vars, sizes)), groups)

    def _prune_one(self, engine: EvaluationEngine, key: tuple,
                   bound: float) -> None:
        self._pruned += 1
        engine.note_pruned()
        if self.evaluator.persist_bound(key, bound):
            self._bound_hits += 1
            engine.note_bound_hit()

    # -- serial walk -------------------------------------------------------

    def _search_serial(self, engine: EvaluationEngine,
                       candidates: Sequence[_Candidate],
                       groups_maps: List[Dict[str, int]],
                       seed: Optional[tuple]
                       ) -> Optional[MakespanResult]:
        if self.batch is not None:
            return self._search_serial_batched(
                engine, candidates, groups_maps, seed)
        evaluator = self.evaluator
        best: Optional[MakespanResult] = None
        best_rank: Optional[tuple] = seed
        for pos, (bound, flat, sizes, ai) in enumerate(candidates):
            if pos % _DEADLINE_STRIDE == 0:
                evaluator.check_deadline()
            if best_rank is not None and (bound, flat) >= best_rank:
                # The list is sorted by (bound, flat): everything from
                # here on is at or past the incumbent's rank too.
                remaining = len(candidates) - pos
                self._pruned += remaining
                engine.note_pruned(remaining)
                break
            solution = self._solution(sizes, groups_maps[ai])
            result = evaluator.peek(solution)
            if result is None:
                refined = self.bounds.refine(
                    bound, sizes, self._assignments[ai])
                if math.isinf(refined) or (
                        best_rank is not None and
                        (refined, flat) >= best_rank):
                    self._prune_one(engine, solution.key(), refined)
                    continue
                result = evaluator.evaluate(solution)
            if result.feasible:
                rank = (result.makespan_ns, flat)
                if best_rank is None or rank < best_rank:
                    best, best_rank = result, rank
        return best

    def _search_serial_batched(self, engine: EvaluationEngine,
                               candidates: Sequence[_Candidate],
                               groups_maps: List[Dict[str, int]],
                               seed: Optional[tuple]
                               ) -> Optional[MakespanResult]:
        """The serial walk with batch-exact scoring per window.

        Candidates are collected into windows (``_FIRST_WINDOW`` slots,
        doubling to ``_BATCH_WINDOW``); every window
        is scored by one :class:`BatchEvaluator` tensor program and the
        incumbent advances only at window boundaries.  Memo/cache hits
        occupy window slots and adopt at the boundary too, so a warm
        re-run sees the *identical* incumbent trajectory as the cold run
        — the same candidates are pruned, the same bounds persisted
        (the warm-bound-hits accounting relies on this).  Versus the
        per-candidate walk, the winner is bit-identical (every prune is
        still admissible); only the evaluated/pruned split can differ,
        bounded by the window size."""
        evaluator = self.evaluator
        batch = self.batch
        best: Optional[MakespanResult] = None
        best_rank: Optional[tuple] = seed
        pos = 0
        total = len(candidates)
        limit = _FIRST_WINDOW
        while pos < total:
            evaluator.check_deadline()
            #: (flat key, cached result or None, fresh solution or None)
            window: List[tuple] = []
            while pos < total and len(window) < limit:
                bound, flat, sizes, ai = candidates[pos]
                if best_rank is not None and (bound, flat) >= best_rank:
                    remaining = total - pos
                    self._pruned += remaining
                    engine.note_pruned(remaining)
                    pos = total
                    break
                pos += 1
                solution = self._solution(sizes, groups_maps[ai])
                hit = evaluator.peek(solution)
                if hit is not None:
                    window.append((flat, hit, None))
                    continue
                refined = self.bounds.refine(
                    bound, sizes, self._assignments[ai])
                if math.isinf(refined) or (
                        best_rank is not None and
                        (refined, flat) >= best_rank):
                    self._prune_one(engine, solution.key(), refined)
                    continue
                window.append((flat, None, solution))
            limit = min(limit * 2, _BATCH_WINDOW)
            if not window:
                continue
            scored = iter(batch.evaluate_batch(
                [solution for _, hit, solution in window
                 if hit is None]))
            for flat, hit, _solution in window:
                result = hit if hit is not None else next(scored)
                if result.feasible:
                    rank = (result.makespan_ns, flat)
                    if best_rank is None or rank < best_rank:
                        best, best_rank = result, rank
        return best

    # -- windowed parallel walk --------------------------------------------

    def _search_parallel(self, engine: EvaluationEngine,
                         candidates: Sequence[_Candidate],
                         groups_maps: List[Dict[str, int]],
                         seed: Optional[tuple]
                         ) -> Optional[MakespanResult]:
        """Sliding-window dispatch: screen candidates in sorted order,
        keep a bounded number of chunks in flight, harvest strictly in
        submission order.  Workers re-check each candidate's bound
        against the freshest incumbent (shipped rank + shared cell), so
        chunks screened against a stale incumbent still skip planning.
        The winner matches the serial walk bit for bit; only the
        evaluated/pruned split depends on timing."""
        evaluator = self.evaluator
        window = engine.jobs * 2
        pending: deque = deque()
        best: Optional[MakespanResult] = None
        best_rank: Optional[tuple] = seed
        pos = 0
        total = len(candidates)
        exhausted = False

        def adopt(result: Optional[MakespanResult],
                  flat: Tuple[int, ...]) -> None:
            nonlocal best, best_rank
            if result is None or not result.feasible:
                return
            rank = (result.makespan_ns, flat)
            if best_rank is None or rank < best_rank:
                best, best_rank = result, rank
                engine.publish_incumbent(result.makespan_ns)

        while not exhausted or pending:
            while not exhausted and len(pending) < window:
                requests: List[tuple] = []
                entries: List[tuple] = []
                while pos < total and len(requests) < _CHUNK_SIZE:
                    bound, flat, sizes, ai = candidates[pos]
                    if best_rank is not None and (bound, flat) >= best_rank:
                        remaining = total - pos
                        self._pruned += remaining
                        engine.note_pruned(remaining)
                        pos = total
                        break
                    pos += 1
                    solution = self._solution(sizes, groups_maps[ai])
                    hit = evaluator.peek(solution)
                    if hit is not None:
                        adopt(hit, flat)
                        continue
                    refined = self.bounds.refine(
                        bound, sizes, self._assignments[ai])
                    if math.isinf(refined) or (
                            best_rank is not None and
                            (refined, flat) >= best_rank):
                        self._prune_one(engine, solution.key(), refined)
                        continue
                    requests.append((solution.tile_sizes,
                                     solution.thread_groups, refined, flat))
                    entries.append((solution, flat, refined))
                if pos >= total:
                    exhausted = True
                if requests:
                    evaluator.check_deadline()
                    pending.append((
                        engine.submit_bounded(requests, best_rank), entries))
                elif exhausted:
                    break
            if pending:
                reply, entries = pending.popleft()
                results = engine.harvest_bounded(
                    reply, [entry[0] for entry in entries])
                for (solution, flat, refined), result in zip(
                        entries, results):
                    if result is None:
                        # Worker-side prune; the engine counted it.
                        self._pruned += 1
                        if evaluator.persist_bound(solution.key(), refined):
                            self._bound_hits += 1
                            engine.note_bound_hit()
                    else:
                        adopt(result, flat)
        return best
