"""Pass 0 of the fuzz, solve and render benchmark workloads at the default
seed matches the outputs recorded in ``cstbench/expected/``.

``paper`` is pinned byte for byte by ``test_cli.py``; these three would
otherwise first show a changed output as a failed benchmark run.
"""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "cstbench"))

import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", ["fuzz", "solve", "render"])
def test_pass_zero_matches_the_expected_outputs(name, tmp_path):
    workload = workloads.WORKLOADS[name](workloads.DEFAULT_SEED, tmp_path)
    assert workload.expected is not None
    tally = workload.run_pass(0, spans.NULL).tally
    # The two deep-chain render probes are counted apart, in probe_failed.
    assert tally.attempted > 0
    assert tally.failed == 0, tally.notes
