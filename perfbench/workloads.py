"""The benchmark's workloads: which cases each compiles, and how.

A *case* is one user-level compile: a kernel at a preset size, a search
strategy and a fission mode.  A workload is a list of cases plus the
call a user makes on each, timed as one unit by a closed-loop client
that compiles the cases back to back.

- ``warm-small``: SMALL kernels against a persistent cache that set-up
  primed with one cold pass, so search only reads the cache and the
  front end (dependence analysis, loop tree, fission) and the fit
  dominate the wait.
- ``cold-large``: LARGE kernels, each compiled against a fresh cache
  directory, so search and cache writes dominate.

Code generation and the static verifier run on every case of both
workloads in the untimed check phase after the timed passes.
"""

from __future__ import annotations

import math
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List


@dataclass(frozen=True)
class Case:
    kernel: str
    preset: str
    strategy: str
    fission: str = "off"

    @property
    def id(self) -> str:
        text = f"{self.kernel}/{self.preset}/{self.strategy}"
        return text + ("+fission" if self.fission != "off" else "")


WORKLOADS: Dict[str, List[Case]] = {
    # One strategy per kernel: on a warm cache both strategies only read
    # cached makespans, so alternating them covers both read patterns
    # without paying every front end twice.
    "warm-small": [
        Case("cnn", "SMALL", "pruned"),
        Case("lstm", "SMALL", "heuristic"),
        Case("maxpool", "SMALL", "pruned"),
        Case("rnn", "SMALL", "heuristic"),
        Case("convrelu", "SMALL", "pruned", fission="auto"),
    ],
    # Two cases keep a pass near 5 s, so a run holds enough passes for
    # each case's best time to be steady on a noisy host.
    "cold-large": [
        Case("cnn", "LARGE", "pruned"),
        Case("rnn", "LARGE", "heuristic"),
    ],
}

#: Makespans the expected-output file must agree with, as recorded in
#: ``BENCH_optimizer.json`` (cnn has a single component executed once).
CROSS_CHECK_NS = {
    "cnn/LARGE/pruned": 443_636_517.0,
    "cnn/SMALL/pruned": 402_791.0,
}


def outcome_record(result) -> dict:
    """Makespan (exact, as a float hex string) and the chosen schedule
    of every compiled component, in a JSON-comparable form."""
    return {
        "makespan_ns": result.makespan_ns.hex(),
        "solution": [
            [compiled.component.label(), compiled.executions,
             [[level.var, level.K, level.R]
              for level in compiled.solution.levels]]
            for compiled in result.components
        ],
    }


def code_kib(code: Dict[str, str]) -> float:
    return sum(len(text.encode()) for text in code.values()) / 1024.0


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _tree_kib(directory: Path) -> float:
    return sum(path.stat().st_size
               for path in directory.rglob("*") if path.is_file()) / 1024.0


class Workload:
    """Kernels, compiler, cache directories and user call of a workload.

    Cache directories live under *workdir*; :meth:`close` removes them.
    """

    def __init__(self, name: str, workdir: Path):
        from repro.compiler import PremCompiler
        from repro.kernels import make_kernel

        self.name = name
        self.cases = WORKLOADS[name]
        self.workdir = workdir
        self.kernels = {case: make_kernel(case.kernel, case.preset)
                        for case in self.cases}
        self.compiler = PremCompiler(jobs=1)
        self._pass_dirs: List[Path] = []
        if name == "warm-small":
            self._shared = Path(tempfile.mkdtemp(dir=workdir))
            self._pass_dirs.append(self._shared)

    def new_cache(self):
        """A cache over a new, empty directory."""
        from repro.opt.cache import PersistentCache

        directory = Path(tempfile.mkdtemp(dir=self.workdir))
        self._pass_dirs.append(directory)
        return PersistentCache(directory)

    def cache_for(self, case: Case):
        """The cache one compile uses: the directory set-up primed, opened
        afresh as a new compiler process would (warm-small), a new empty
        directory (cold-large) or none."""
        from repro.opt.cache import PersistentCache

        if self.name == "cold-large":
            return self.new_cache()
        if self.name == "warm-small":
            return PersistentCache(self._shared)
        return None

    def run_case(self, case: Case, cache) -> dict:
        """The timed user call: one compile."""
        result = self.compiler.compile(
            self.kernels[case], strategy=case.strategy,
            fission=case.fission, cache=cache)
        return {"result": result}

    def end_pass(self) -> float:
        """Size on disk of the caches the pass used, in KiB; the fresh
        per-case directories of cold-large are removed."""
        kib = sum(_tree_kib(directory) for directory in self._pass_dirs)
        if self.name == "cold-large":
            for directory in self._pass_dirs:
                shutil.rmtree(directory)
            self._pass_dirs = []
        return kib

    def close(self) -> None:
        for directory in self._pass_dirs:
            shutil.rmtree(directory, ignore_errors=True)
        self._pass_dirs = []
