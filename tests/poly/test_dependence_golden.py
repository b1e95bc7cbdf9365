"""Golden snapshot of the corpus dependence sets.

Every kernel of ``KERNELS`` at MINI/SMALL/LARGE, plus convrelu after the
fission pre-pass, is analyzed and the sorted ``repr`` of its ``Dep`` set
(kind, statements, array, direction vectors, loop-independent flag) must
equal ``dependence_golden.json`` exactly.  The brute-force property test
checks soundness on random nests; this test pins the exact verdicts on
the real corpus, so a faster feasibility test cannot silently add or
drop a direction.

Regenerate the snapshot (only when a change to the analysis is meant to
change its output) with::

    PYTHONPATH=src python tests/poly/test_dependence_golden.py --write
"""

import json
import sys
from pathlib import Path

import pytest

from repro.kernels import KERNELS, make_kernel
from repro.loopir import analyze_dependences
from repro.loopir.fission import fission_kernel

GOLDEN = Path(__file__).with_name("dependence_golden.json")
PRESETS = ("MINI", "SMALL", "LARGE")
CASES = [f"{name}/{preset}" for name in sorted(KERNELS)
         for preset in PRESETS] + \
    [f"convrelu/{preset}+fission" for preset in PRESETS]


def snapshot(case):
    """Sorted dependence reprs of one corpus case."""
    name, _, rest = case.partition("/")
    preset, _, fission = rest.partition("+")
    kernel = make_kernel(name, preset)
    if fission:
        kernel = fission_kernel(kernel).kernel
    return sorted(repr(dep) for dep in analyze_dependences(kernel))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_corpus(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_dependences_match_golden(case, golden):
    assert snapshot(case) == golden[case]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_dependence_golden.py --write")
    GOLDEN.write_text(json.dumps(
        {case: snapshot(case) for case in CASES}, indent=1) + "\n")
