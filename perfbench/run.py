"""End-to-end compile benchmark of the PREM compiler.

Run from the root of a checkout::

    python3 perfbench/run.py --workload warm-small --seed 1 --seconds 40 --trace 0

One process runs one workload single-threaded (``jobs=1``) with one
closed-loop client that compiles the workload's cases back to back.
Set-up imports the compiler, builds the kernels and, for
``warm-small``, primes the persistent cache with one cold pass.  The
client then repeats passes over the case list, in an order the seed
permutes, for at least ``--seconds`` and at least three passes.  Every
output is checked; a check phase after the timed passes generates the
PREM-C of every case, runs the static verifier on it and, at SMALL,
runs the PREM VM against the sequential interpreter on seeded inputs.

Without ``--workload`` every workload runs, each in its own process.
With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` the passes run
untraced, traced, traced, untraced and the object holds the per-layer
metrics of the traced passes.  Human-readable rows, one per case,
precede it.

Every reported time is scaled to a fixed host speed.  On a 2-CPU VM
shared with other tenants the compiler's speed swings by up to 70% in
phases of seconds to minutes, longer than a run.  So the run times a
fixed pure-Python loop that does not touch the compiler, before set-up,
after it and before every pass, and multiplies every time by
``REF_NOMINAL_S`` over the loop's median time: the result is the time
on a host where the loop takes ``REF_NOMINAL_S``.  The loop tracks only
part of the swing, but the factor does not depend on the compiler, so
a change to the compiler moves these times as it moves wall times.  The
rows and the host line print the raw wall times too.

``--write-expected`` recompiles every case once and rewrites
``expected.json``, the reference makespans and schedules the checks
compare against.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
EXPECTED = HERE / "expected.json"
MIN_PASSES = 3
SETUP_REPEATS = 5
#: Time of :func:`reference_loop` on the host times are scaled to; about
#: its time on a 2-CPU x86-64 VM (CPython 3.11) in that host's fast phases.
REF_NOMINAL_S = 0.025
REF_REPEATS = 5

sys.path.insert(0, str(HERE))

from tracer import Tracer, layer_totals, top_level_s  # noqa: E402
from workloads import (  # noqa: E402
    CROSS_CHECK_NS, WORKLOADS, Workload, code_kib, geomean, outcome_record)


def import_program() -> float:
    """Import the compiler from this checkout's sources; returns seconds."""
    if not (SRC / "repro" / "compiler.py").is_file():
        raise SystemExit(f"perfbench: no compiler sources under {SRC}")
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    import repro
    import repro.analysis
    import repro.compiler
    import repro.kernels
    import repro.prem.runtime  # noqa: F401
    elapsed = time.perf_counter() - started
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {SRC}")
    return elapsed


def reference_loop() -> float:
    """Wall time of a fixed pure-Python loop, independent of the compiler:
    the probe of the host's current speed."""
    started = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return time.perf_counter() - started


class Run:
    """One benchmark process: set-up, timed passes, checks, metrics."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool, expected: dict):
        self.name = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.expected = expected
        self.rng = random.Random(seed)
        self.tracer = Tracer()
        self.attempted = 0
        self.failures: list = []
        self.prime: dict = {}
        self.reference_s: list = []

    def probe_host(self) -> None:
        """Untimed: sample the reference loop's time."""
        self.reference_s.extend(reference_loop() for _ in range(REF_REPEATS))

    @property
    def host_scale(self) -> float:
        """Factor that turns this run's wall times into times at the
        nominal host speed."""
        return REF_NOMINAL_S / statistics.median(self.reference_s)

    def fail(self, case, reason: str) -> None:
        self.failures.append(f"{case.id}: {reason}")

    # -- set-up -------------------------------------------------------------

    def setup(self, import_s: float) -> float:
        self.probe_host()
        build_s = []
        for repeat in range(SETUP_REPEATS):
            if repeat:
                self.workload.close()
            started = time.perf_counter()
            self.workload = Workload(self.name, WORKDIR)
            build_s.append(time.perf_counter() - started)
        started = time.perf_counter()
        if self.name == "warm-small":
            for case in self.workload.cases:
                out, error = self._call(case, self.workload.cache_for(case))
                if error is None:
                    self.prime[case] = out["result"]
                self._check(case, out, error, prime=True)
        prime_s = time.perf_counter() - started
        self.probe_host()
        return import_s + statistics.median(build_s) + prime_s

    # -- timed passes -------------------------------------------------------

    def _call(self, case, cache):
        try:
            return self.workload.run_case(case, cache), None
        except Exception as error:  # a failed case, not a failed benchmark
            return None, f"{type(error).__name__}: {error}"

    def run_pass(self, traced: bool) -> dict:
        order = list(self.workload.cases)
        self.rng.shuffle(order)
        self.probe_host()
        walls, outs = {}, {}
        if traced:
            self.tracer.install()
        try:
            started = time.perf_counter()
            for case in order:
                cache = self.workload.cache_for(case)
                self.tracer.case = case.id
                begun = time.perf_counter()
                out, error = self._call(case, cache)
                walls[case] = time.perf_counter() - begun
                outs[case] = (out, error)
            batch_s = time.perf_counter() - started
        finally:
            self.tracer.uninstall()
        spans = self.tracer.take()
        cache_kib = self.workload.end_pass()
        for case in order:
            self._check(case, *outs[case])
        return {"traced": traced, "batch_s": batch_s, "walls": walls,
                "outs": outs, "spans": spans, "cache_kib": cache_kib}

    def _check(self, case, out, error, prime: bool = False) -> None:
        self.attempted += 1
        if error is not None:
            return self.fail(case, error)
        result = out["result"]
        if not result.feasible:
            return self.fail(case, "infeasible result")
        if outcome_record(result) != self.expected.get(case.id):
            return self.fail(
                case, f"makespan {result.makespan_ns!r} or schedule differs "
                      f"from expected.json")
        if self.name == "warm-small" and not prime:
            opt = result.opt_result
            cold = self.prime.get(case)
            if cold is None or result.makespan_ns.hex() != \
                    cold.makespan_ns.hex():
                return self.fail(case, "warm makespan differs from cold pass")
            if opt.evaluations != 0 or opt.cache_hit_rate != 1.0:
                return self.fail(
                    case, f"warm replay evaluated {opt.evaluations} "
                          f"candidates, cache hit rate {opt.cache_hit_rate}")

    def measure(self) -> list:
        if self.trace:
            plan = [False, True, True, False]
            passes = [self.run_pass(traced) for traced in plan]
        else:
            passes = []
            started = time.perf_counter()
            while len(passes) < MIN_PASSES or \
                    time.perf_counter() - started < self.seconds:
                passes.append(self.run_pass(False))
        self.probe_host()
        return passes

    # -- untimed checks -----------------------------------------------------

    def check_phase(self, last: dict) -> dict:
        """Codegen, static verifier and (SMALL) VM checks on the last
        pass's results, plus the size of the generated code."""
        import numpy as np
        from repro.prem.runtime import SequentialInterpreter, init_arrays

        if self.trace:
            self.tracer.install()
        kib = 0.0
        try:
            for case in self.workload.cases:
                out, error = last["outs"][case]
                if error is not None:
                    continue
                result = out["result"]
                self.tracer.case = case.id
                kib += code_kib(result.generate_c())
                self.attempted += 1
                if result.verify_static().has_errors:
                    self.fail(case, "static verifier reported errors")
                if case.preset == "SMALL":
                    self.attempted += 1
                    vm = result.run_functional(seed=self.seed)
                    original = result.fission.original if result.fission \
                        else result.kernel
                    ref = init_arrays(original, self.seed)
                    SequentialInterpreter().run(original, ref)
                    if sorted(vm) != sorted(ref) or not all(
                            np.array_equal(vm[name], ref[name])
                            for name in ref):
                        self.fail(case, "PREM VM memory differs from the "
                                        "sequential interpreter")
        finally:
            self.tracer.uninstall()
        return {"code_kib": kib, "spans": self.tracer.take()}


# -- metrics ----------------------------------------------------------------


def case_medians(passes: list, cases: list) -> dict:
    return {case: statistics.median(p["walls"][case] for p in passes)
            for case in cases}


def end_to_end(run: Run, passes: list, checked: dict, setup_s: float,
               rss_mib: float) -> dict:
    cases = run.workload.cases
    per_case = case_medians(passes, cases)
    last = passes[-1]["outs"]
    norms = [last[c][0]["result"].normalized_makespan
             for c in cases if last[c][1] is None]
    return {
        "setup_s": (setup_s, "s"),
        "batch_s": (statistics.median(p["batch_s"] for p in passes), "s"),
        "compile_s.geomean": (geomean(list(per_case.values())), "s"),
        "compile_s.max": (max(per_case.values()), "s"),
        "makespan.norm_geomean": (geomean(norms) if norms else 0.0, "ratio"),
        "code_kib": (checked["code_kib"], "KiB"),
        "peak_rss_mib": (rss_mib, "MiB"),
    }


def _opt_counters(p: dict) -> dict:
    totals = {"evaluations": 0, "pruned": 0, "bound_hits": 0,
              "chains_pruned": 0, "cache_hits": 0, "probes": 0}
    for out, error in p["outs"].values():
        if error is not None:
            continue
        opt = out["result"].opt_result
        for key in totals:
            totals[key] += getattr(opt, key)
    return totals


def per_layer(run: Run, passes: list, checked: dict) -> dict:
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    cases = len(run.workload.cases)

    def one_pass(p: dict) -> dict:
        layers = layer_totals(p["spans"])

        def get(name: str, key: str = "self_s") -> float:
            return layers.get(name, {}).get(key, 0)

        opt = _opt_counters(p)
        search_wall = get("opt.search", "wall_s")
        attempted = opt["evaluations"] + opt["pruned"]
        return {
            "poly.deps_s": (get("poly.deps"), "s"),
            "poly.fm_s": (get("poly.fm"), "s"),
            "poly.fm_calls": (get("poly.fm", "calls"), "count"),
            "poly.dependences": (get("poly.deps", "items"), "count"),
            "loopir.tree_s": (get("loopir.tree"), "s"),
            "loopir.fission_s": (get("loopir.fission"), "s"),
            "loopir.deps_passes": (get("poly.deps", "calls") / cases,
                                   "count/case"),
            "sim.fit_s": (get("sim.fit"), "s"),
            "sim.fits": (get("sim.fit", "calls"), "count"),
            "opt.tree_s": (get("opt.tree"), "s"),
            "opt.search_s": (get("opt.search"), "s"),
            "opt.evaluations": (opt["evaluations"], "count"),
            "opt.evals_per_s": (opt["evaluations"] / search_wall
                                if search_wall else 0.0, "1/s"),
            "opt.pruned": (opt["pruned"], "count"),
            "opt.prune_ratio": (opt["pruned"] / attempted
                                if attempted else 0.0, "ratio"),
            "opt.bound_hits": (opt["bound_hits"], "count"),
            "opt.chains_pruned": (opt["chains_pruned"], "count"),
            "opt.batch_s": (get("opt.batch"), "s"),
            "opt.batches": (get("opt.batch", "calls"), "count"),
            "opt.cache_hit_rate": (opt["cache_hits"] / opt["probes"]
                                   if opt["probes"] else 0.0, "ratio"),
            "opt.cache.load_s": (get("opt.cache.load"), "s"),
            "opt.cache.put_s": (get("opt.cache.put"), "s"),
            "opt.cache.puts": (get("opt.cache.put", "calls"), "count"),
            "opt.cache.kib": (p["cache_kib"], "KiB"),
            "prem.plan_s": (get("prem.plan"), "s"),
            "prem.plans": (get("prem.plan", "calls"), "count"),
            "schedule.sim_s": (get("schedule.sim"), "s"),
            "schedule.sims": (get("schedule.sim", "calls"), "count"),
            "compiler.other_s": (get("compiler.compile"), "s"),
        }

    rows = [one_pass(p) for p in traced]
    metrics = {}
    for name, (value, unit) in rows[0].items():
        if unit in ("s", "1/s"):
            value = statistics.median(row[name][0] for row in rows)
        elif any(row[name][0] != value for row in rows):
            run.failures.append(f"traced passes disagree on {name}: "
                                f"{[row[name][0] for row in rows]}")
        metrics[name] = (value, unit)
    check = layer_totals(checked["spans"])
    for name, layer, key, unit in (
            ("prem.codegen_s", "prem.codegen", "self_s", "s"),
            ("analysis.verify_s", "analysis.verify", "self_s", "s"),
            ("analysis.diagnostics", "analysis.verify", "items", "count"),
            ("prem.vm_s", "prem.vm", "self_s", "s"),
            ("prem.ref_s", "prem.ref", "self_s", "s")):
        metrics[name] = (check.get(layer, {}).get(key, 0), unit)
    traced_s = sum(p["batch_s"] for p in traced)
    untraced_s = sum(p["batch_s"] for p in untraced)
    metrics["trace.overhead"] = (traced_s / untraced_s - 1.0, "ratio")
    user_s = sum(sum(p["walls"].values()) for p in traced)
    covered_s = sum(top_level_s(p["spans"]) for p in traced)
    metrics["trace.coverage"] = (covered_s / user_s, "ratio")
    return metrics


# -- output -------------------------------------------------------------------


def print_rows(run: Run, passes: list) -> None:
    cases = run.workload.cases
    per_case = case_medians(passes, cases)
    print(f"workload {run.name}  seed {run.seed}  passes {len(passes)}  "
          f"trace {int(run.trace)}")
    print(f"{'case':34s} {'median_s':>9s} {'min_s':>8s} {'max_s':>8s} "
          f"{'makespan_ns':>16s} {'norm':>7s} {'evals':>6s} {'hits':>6s}")
    for case in cases:
        walls = [p["walls"][case] for p in passes]
        out, error = passes[-1]["outs"][case]
        if error is not None:
            print(f"{case.id:34s} {per_case[case]:9.4f} FAILED {error}")
            continue
        result = out["result"]
        opt = result.opt_result
        print(f"{case.id:34s} {per_case[case]:9.4f} {min(walls):8.4f} "
              f"{max(walls):8.4f} {result.makespan_ns:16.1f} "
              f"{result.normalized_makespan:7.4f} {opt.evaluations:6d} "
              f"{opt.cache_hits:6d}")


def scale_to_nominal_host(run: Run, metrics: dict) -> dict:
    """Times (and rates) at the nominal host speed; see the module doc."""
    scale = run.host_scale
    print(f"host: reference loop median "
          f"{statistics.median(run.reference_s) * 1e3:.3f} ms over "
          f"{len(run.reference_s)} samples, nominal "
          f"{REF_NOMINAL_S * 1e3:.3f} ms; times below scaled by "
          f"{scale:.4f} (rows above are raw wall times)")
    factor = {"s": scale, "1/s": 1.0 / scale}
    return {name: (value * factor.get(unit, 1.0), unit)
            for name, (value, unit) in metrics.items()}


def emit(run: Run, metrics: dict) -> None:
    failed = len(run.failures)
    for failure in run.failures:
        print(f"FAIL {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name:24s} {value:14.6f} {unit}")
    print(f"{'fail_frac':24s} {failed / run.attempted:14.6f} ratio")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def write_expected() -> None:
    records = {}
    for name, cases in WORKLOADS.items():
        workload = Workload(name, WORKDIR)
        try:
            for case in cases:
                if case.id in records:
                    continue
                # Each reference compile starts from an empty cache.
                cache = workload.new_cache()
                result = workload.run_case(case, cache)["result"]
                records[case.id] = outcome_record(result)
                print(f"{case.id:34s} {result.makespan_ns!r}")
        finally:
            workload.close()
    for case_id, makespan in CROSS_CHECK_NS.items():
        got = float.fromhex(records[case_id]["makespan_ns"])
        if got != makespan:
            raise SystemExit(f"{case_id}: makespan {got!r} disagrees with "
                             f"BENCH_optimizer.json ({makespan!r})")
    EXPECTED.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")


def run_all(args) -> int:
    """Every workload, each in its own process, one after another."""
    status = 0
    for name in WORKLOADS:
        status |= subprocess.run([
            sys.executable, __file__, "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]).returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-expected", action="store_true")
    args = parser.parse_args(argv)
    if not args.write_expected and args.workload is None:
        return run_all(args)

    import_s = import_program()
    WORKDIR.mkdir(exist_ok=True)
    try:
        if args.write_expected:
            write_expected()
            return 0
        expected = json.loads(EXPECTED.read_text())
        run = Run(args.workload, args.seed, args.seconds, bool(args.trace),
                  expected)
        setup_s = run.setup(import_s)
        try:
            passes = run.measure()
            rss_mib = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
            checked = run.check_phase(passes[-1])
        finally:
            run.workload.close()
        print_rows(run, passes)
        if run.trace:
            metrics = per_layer(run, passes, checked)
        else:
            metrics = end_to_end(run, passes, checked, setup_s, rss_mib)
        emit(run, scale_to_nominal_host(run, metrics))
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
