"""Benchmark-suite helpers.

Every benchmark regenerates one paper figure/table via its experiment
module (quick mode), prints the rendered table, and asserts the
paper's qualitative shape (who wins, where curves saturate).  Runs are
single-shot: the interesting number is the figure's content, not the
harness's wall time, so the suite needs no timing plugin and runs as
``pytest benchmarks -p no:benchmark``.
"""

import pytest


@pytest.fixture
def run_figure():
    """Run an experiment module once and print its table."""

    def _run(module, quick=True):
        result = module.run(quick=quick)
        print()
        print(result["table"])
        return result

    return _run
