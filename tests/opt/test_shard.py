"""Static sharding: slice parity, winner exchange, coordination log.

The contract under test: the round-robin ``shard_of=(i, n)`` slices of
the sorted candidate list cover the whole space, so the best rank over
the shard winners is the *bit-identical* winner of the serial
`PrunedOptimizer`; a seeded incumbent never changes that winner; the
unsharded reduce over the shards' cache, seeded from their published
winners, returns that winner with no fresh evaluation and ignores any
seed it cannot validate; and the coordination log reads cleanly
whatever an earlier version wrote into a shared cache directory.
"""

import json

import pytest

from repro.cli import main
from repro.kernels import make_kernel
from repro.loopir import LoopTree
from repro.loopir.component import component_at
from repro.opt.cache import PersistentCache
from repro.opt.pareto import ParetoOptimizer, pareto_front
from repro.opt.pruned import PrunedOptimizer, validate_shard
from repro.opt.robust import RobustOptimizer
from repro.opt.shard import (
    SHARD_LOG_FILENAME,
    ShardLog,
    StaticShardExchange,
    merge_ranks,
    reduce_seed,
    space_statuses,
    static_space_id,
)
from repro.sim.profiler import fit_component_model
from repro.timing.platform import Platform


def _component(kernel_name, preset, vars_):
    tree = LoopTree.build(make_kernel(kernel_name, preset))
    comp = component_at(tree, vars_)
    return comp, fit_component_model(comp)


@pytest.fixture(scope="module")
def rnn_small():
    return _component("rnn", "SMALL", ["s1", "p"])


def _winner(result):
    if result.best is None or not result.best.feasible:
        return None
    return result.best.makespan_ns, result.best.solution.key()


def _serial_winner(data, cache=None, **kwargs):
    comp, model = data
    return PrunedOptimizer(
        comp, Platform(), model, cache=cache, **kwargs).optimize()


class TestStaticSharding:
    """The ``shard_of`` slice knob on the optimizers themselves."""

    @pytest.mark.parametrize("count", [2, 3])
    def test_min_over_shards_is_serial_winner(self, rnn_small, count):
        serial = _serial_winner(rnn_small)
        best = None
        for index in range(count):
            result = _serial_winner(rnn_small, shard_of=(index, count))
            best = merge_ranks(best, _winner(result) and (
                result.best.makespan_ns, result.best.solution.key()))
        assert best == _winner(serial)

    def test_seeded_incumbent_never_changes_the_winner(self, rnn_small):
        serial = _serial_winner(rnn_small)
        rank = (serial.best.makespan_ns,
                tuple(x for _v, k, r in serial.best.solution.key()
                      for x in (k, r)))
        for index in range(2):
            seeded = _serial_winner(
                rnn_small, shard_of=(index, 2), incumbent=rank)
            got = _winner(seeded)
            # A seeded shard either rediscovers a rank no worse than the
            # incumbent or proves its slice holds nothing better.
            assert got is None or got[0] <= serial.best.makespan_ns

    def test_pareto_shard_fronts_union_to_full_front(self, rnn_small):
        comp, model = rnn_small
        full = ParetoOptimizer(comp, Platform(), model).optimize()
        parts = []
        for index in range(2):
            sharded = ParetoOptimizer(
                comp, Platform(), model,
                shard_of=(index, 2)).optimize()
            parts.extend(sharded.front)
        union = pareto_front(
            sorted(parts, key=lambda p: (p.objectives, p.flat)))
        assert {(p.objectives, p.flat) for p in union} == \
            {(p.objectives, p.flat) for p in full.front}

    def test_robust_shards_cover_the_nominal_winner(self, rnn_small):
        comp, model = rnn_small
        full = RobustOptimizer(
            comp, Platform(), model, scenarios=2, seed=0).optimize()
        ranks = []
        for index in range(2):
            sharded = RobustOptimizer(
                comp, Platform(), model, scenarios=2, seed=0,
                shard_of=(index, 2)).optimize()
            got = _winner(sharded)
            if got is not None:
                ranks.append(got)
        # The full search's risk winner lives in exactly one shard's
        # slice and is risk-minimal there, so it must be that shard's
        # local winner.
        assert _winner(full) in ranks

    def test_validate_shard_rejects_bad_tuples(self):
        assert validate_shard(None) is None
        assert validate_shard((0, 1)) == (0, 1)
        assert validate_shard((2, 3)) == (2, 3)
        for bad in ((3, 3), (-1, 2), (0, 0), (0,), "1/2"):
            with pytest.raises(ValueError):
                validate_shard(bad)

    def test_static_exchange_seeds_siblings(self, rnn_small, tmp_path):
        comp, _model = rnn_small
        cache = PersistentCache(tmp_path)
        serial = _serial_winner(rnn_small, cache=cache)
        flat = tuple(x for _v, k, r in serial.best.solution.key()
                     for x in (k, r))
        first = StaticShardExchange(
            cache.directory, "ctx", (0, 2))
        assert first.seed() is None
        first.publish(comp, serial)
        second = StaticShardExchange(cache.directory, "ctx", (1, 2))
        assert second.seed() == (serial.best.makespan_ns, flat)
        # A different shard count is a different space: no cross-talk.
        assert StaticShardExchange(
            cache.directory, "ctx", (0, 3)).seed() is None
        statuses = space_statuses(ShardLog(cache.directory))
        assert static_space_id("ctx", 2) in statuses


def _flat(result):
    return tuple(x for _v, k, r in result.best.solution.key()
                 for x in (k, r))


def _run_shards(data, directory, count=3):
    """``compile --shard I/count`` workers, one after the other."""
    comp, model = data
    for index in range(count):
        shard = PrunedOptimizer(comp, Platform(), model,
                                cache=PersistentCache(directory),
                                shard_of=(index, count))
        exchange = StaticShardExchange(
            directory, shard.evaluator.context_hash, (index, count))
        shard.incumbent = exchange.seed()
        exchange.publish(comp, shard.optimize())


def _reduce(data, directory, incumbent):
    comp, model = data
    return PrunedOptimizer(comp, Platform(), model,
                           cache=PersistentCache(directory),
                           incumbent=incumbent).optimize()


class TestReduceSeed:
    """The unsharded walk over a shard cache, as ``shard-reduce`` runs it."""

    def test_seeded_reduce_is_serial_winner_without_fresh_plans(
            self, rnn_small, tmp_path):
        serial = _serial_winner(rnn_small)
        _run_shards(rnn_small, tmp_path)
        comp, model = rnn_small
        context = PrunedOptimizer(
            comp, Platform(), model,
            cache=PersistentCache(tmp_path)).evaluator.context_hash
        seed = reduce_seed(tmp_path, context)
        assert seed == (serial.best.makespan_ns, _flat(serial))
        reduced = _reduce(rnn_small, tmp_path, seed)
        assert _winner(reduced) == _winner(serial)
        assert reduced.evaluations == 0

    def test_unvalidated_seeds_are_ignored(self, rnn_small, tmp_path):
        serial = _serial_winner(rnn_small)
        makespan, flat = serial.best.makespan_ns, _flat(serial)
        _run_shards(rnn_small, tmp_path)
        bogus = (
            (makespan - 1.0, flat),                # makespan off the cache
            (1.0, tuple(10**6 for _ in flat)),     # not a candidate
        )
        for seed in bogus:
            reduced = _reduce(rnn_small, tmp_path, seed)
            assert _winner(reduced) == _winner(serial), seed
        # The true winner's rank, but nothing cached to check it against.
        cold = _reduce(rnn_small, tmp_path / "cold", (makespan, flat))
        assert _winner(cold) == _winner(serial)
        assert cold.evaluations > 0

    def test_reduce_seed_merges_splits_of_one_context(self, tmp_path):
        assert reduce_seed(tmp_path, "ctx") is None
        assert list(tmp_path.iterdir()) == []      # no log, no lock file
        log = ShardLog(tmp_path)
        log.publish_winner(static_space_id("ctx", 2), "w", 9.0, (1, 2))
        log.publish_winner(static_space_id("ctx", 3), "w", 8.0, (4, 1))
        log.publish_winner(static_space_id("other", 2), "w", 1.0, (1, 1))
        assert reduce_seed(tmp_path, "ctx") == (8.0, (4, 1))


class TestLegacyLog:
    def test_old_protocol_records_and_torn_line_read_cleanly(
            self, tmp_path, capsys):
        """Shared cache directories written by earlier versions hold
        dynamic-protocol records (a ``space`` record with chunk and
        candidate counts, ``claim`` records) and possibly a torn last
        line; status reads must skip what they do not know."""
        records = [
            {"t": "space", "s": "legacy", "w": "w1", "chunks": 2,
             "candidates": 128, "component": "s1.p", "ts": 1.0},
            {"t": "claim", "s": "legacy", "c": "chunk0", "i": 0,
             "w": "w1", "ts": 2.0},
            {"t": "claim", "s": "legacy", "c": "chunk1", "i": 1,
             "w": "w2", "ts": 2.5},
            {"t": "done", "s": "legacy", "c": "chunk0", "i": 0,
             "w": "w1", "scored": 7, "pruned": 57, "elapsed_s": 0.1,
             "ts": 3.0},
            {"t": "winner", "s": "legacy", "w": "w1", "m": 29216.0,
             "key": [4, 1, 8, 2], "ts": 3.5},
        ]
        lines = [json.dumps(record) for record in records]
        torn = '{"t": "done", "s": "legacy", "c": "chu'
        (tmp_path / SHARD_LOG_FILENAME).write_text(
            "\n".join(lines) + "\n" + torn)

        status = space_statuses(ShardLog(tmp_path))["legacy"]
        assert (status.chunks, status.done) == (2, 1)
        assert status.winner == (29216.0, (4, 1, 8, 2))

        assert main(["shard", "status", "--cache-dir", str(tmp_path)]) == 0
        assert "1/2 chunks done, best 29,216 ns" in capsys.readouterr().out
