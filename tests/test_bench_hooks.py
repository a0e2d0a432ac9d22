"""The benchmark's hooks into the package still resolve.

bench/run.py patches lbandsm.pipeline attributes by name to trace each
layer and skips a name that no longer exists, and it times the radiative
kernel through emissivity_evaluator and soil_emissivity_pair. A refactor
that renames any of these would leave traced runs silently incomplete,
so tier-1 checks them here without running the benchmark.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from lbandsm import pipeline
from lbandsm.radiative import DielectricModel, emissivity_evaluator, soil_emissivity_pair

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench_run():
    """bench/run.py as a module, loaded with bench/ on sys.path for its
    own imports."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH_DIR))
        spec = importlib.util.spec_from_file_location("bench_run", BENCH_DIR / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        yield module
    sys.modules.pop("spans", None)


def test_pipeline_calls_resolve(bench_run):
    missing = [name for name in bench_run.PIPELINE_CALLS if not hasattr(pipeline, name)]
    assert not missing, f"bench/run.py patches missing lbandsm.pipeline attributes {missing}"


@pytest.mark.parametrize("model", list(DielectricModel))
def test_kernel_entries_agree(bench_run, model):
    grid = np.linspace(0.01, 0.70, 50)
    e_pair = emissivity_evaluator(*bench_run.KERNEL_SURFACE, model)
    scalar = np.array([e_pair(sm) for sm in grid.tolist()])
    e_h, e_v = soil_emissivity_pair(grid, *bench_run.KERNEL_SURFACE, model)
    assert np.max(np.abs(scalar - np.column_stack([e_h, e_v]))) <= bench_run.KERNEL_AGREEMENT
