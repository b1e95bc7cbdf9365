"""Static-shard bench: three shards + reduce vs the serial pruned search.

On every corpus component whose candidate space the exhaustive search
can still afford (<= 20k points), three static shards
(``PrunedOptimizer(shard_of=(i, 3))``, seeded and published through
:class:`~repro.opt.shard.StaticShardExchange`) score their round-robin
slices against one shared cache directory, in order, exactly as three
``compile --shard I/3`` workers do.  The reduce is one unsharded pruned
pass over that warm cache, seeded with the best published winner
(:func:`~repro.opt.shard.reduce_seed`) — what ``shard-reduce`` runs.  It
must return the *bit-identical* winner of the serial `PrunedOptimizer` —
same makespan, same solution key — with zero fresh evaluations
(DESIGN.md §13).  Both are hard assertions on every component.

The measurements — per-shard wall time and evaluations, the reduce's
evaluations, cache hits and wall time — land in the ``parity`` section
of the top-level ``BENCH_shard.json``.
"""

import json
import time
from pathlib import Path

import pytest

from repro.loopir import LoopTree
from repro.loopir.component import component_at
from repro.loopir.validity import is_chain_extendable
from repro.opt import PersistentCache, PrunedOptimizer, search_space_size
from repro.opt.shard import StaticShardExchange, reduce_seed
from repro.reporting import ExperimentReport
from repro.sim.profiler import fit_component_model
from repro.timing import Platform

#: Where the machine-readable bench summary lands (repo top level).
BENCH_JSON = Path(__file__).resolve().parents[1] / "BENCH_shard.json"

#: Parity sweep cap: same affordability bar as the pruning benches.
EXHAUSTIVE_MAX_POINTS = 20_000

#: Static shards per component, as in CI's ``--shard I/3`` run.
SHARDS = 3

#: Cores every search targets.
CORES = 8

KERNEL_PRESETS = (
    ("cnn", "SMALL"), ("lstm", "SMALL"), ("maxpool", "SMALL"),
    ("sumpool", "SMALL"), ("rnn", "SMALL"),
    ("lstm", "LARGE"), ("rnn", "LARGE"),
)


def _leaf_chains(tree):
    """Maximal perfectly-nested chains, as Algorithm 2 extracts them."""
    chains = []

    def walk(node, chain):
        chain = chain + [node]
        if not node.children:
            chains.append(tuple(n.var for n in chain))
            return
        if is_chain_extendable(node.loop) and len(node.children) == 1:
            walk(node.children[0], chain)
            return
        for child in node.children:
            walk(child, [])

    for root in tree.roots:
        walk(root, [])
    return chains


def _winner(result):
    if result.best is None or not result.best.feasible:
        return None
    return result.best.makespan_ns, result.best.solution.key()


@pytest.fixture(scope="module")
def parity_components(bank):
    """Every corpus component the exhaustive search can still afford."""
    platform = Platform()
    out = []
    for name, preset in KERNEL_PRESETS:
        tree = LoopTree.build(bank.kernel(name, preset))
        for vars_ in _leaf_chains(tree):
            comp = component_at(tree, list(vars_))
            size = search_space_size(comp, platform.cores)
            if size > EXHAUSTIVE_MAX_POINTS:
                continue
            label = f"{name}/{preset}:{'.'.join(vars_)}"
            out.append((label, comp,
                        fit_component_model(comp, bank.machine), size))
    return out


def _run_shard(comp, platform, model, directory, index):
    """One ``compile --shard`` worker's search of one component."""
    started = time.perf_counter()
    shard = PrunedOptimizer(comp, platform, model,
                            cache=PersistentCache(directory),
                            shard_of=(index, SHARDS))
    exchange = StaticShardExchange(
        directory, shard.evaluator.context_hash, (index, SHARDS))
    shard.incumbent = exchange.seed()
    result = shard.optimize(CORES)
    exchange.publish(comp, result)
    return result, time.perf_counter() - started


@pytest.mark.benchmark(group="shard")
def test_static_shards_reduce_to_serial_winner(parity_components,
                                               benchmark, tmp_path):
    platform = Platform()
    report = ExperimentReport(
        "shard_reduce_parity",
        f"{SHARDS} static shards + reduce vs serial pruned search",
        ["component", "space", "shard evals", "reduce evals",
         "reduce hits", "reduce (s)", "makespan (ns)"])

    def run():
        rows = []
        for position, (label, comp, model, size) in enumerate(
                parity_components):
            serial = PrunedOptimizer(comp, platform, model).optimize(CORES)
            directory = tmp_path / f"space{position}"
            shards = [_run_shard(comp, platform, model, directory, index)
                      for index in range(SHARDS)]
            started = time.perf_counter()
            reducer = PrunedOptimizer(comp, platform, model,
                                      cache=PersistentCache(directory))
            reducer.incumbent = reduce_seed(
                directory, reducer.evaluator.context_hash)
            reduced = reducer.optimize(CORES)
            reduce_s = time.perf_counter() - started
            rows.append((label, size, serial, shards, reduced, reduce_s))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    records = {}
    for label, size, serial, shards, reduced, reduce_s in rows:
        shard_evals = [result.evaluations for result, _wall in shards]
        report.add_row(
            label, size, sum(shard_evals), reduced.evaluations,
            reduced.cache_hits, round(reduce_s, 4),
            round(reduced.makespan_ns) if reduced.feasible else "inf")
        records[label] = {
            "space": size,
            "shard_wall_s": [round(wall, 4) for _result, wall in shards],
            "shard_evaluations": shard_evals,
            "reduce_evaluations": reduced.evaluations,
            "reduce_cache_hits": reduced.cache_hits,
            "reduce_s": round(reduce_s, 4),
            "makespan_ns": reduced.makespan_ns if reduced.feasible
            else None,
            "winner_parity": _winner(reduced) == _winner(serial),
        }
    # Archive before asserting, so a failing run still records why.
    report.emit()
    BENCH_JSON.write_text(json.dumps(
        {"parity": records}, indent=2, sort_keys=True) + "\n")

    # Winner identity, bit for bit, recovered from the warm cache ...
    diverged = [label for label, record in records.items()
                if not record["winner_parity"]]
    assert not diverged, f"reduce winner differs from serial: {diverged}"
    # ... without a single fresh evaluation.
    fresh = {label: record["reduce_evaluations"]
             for label, record in records.items()
             if record["reduce_evaluations"]}
    assert not fresh, f"reduce evaluated fresh candidates: {fresh}"
