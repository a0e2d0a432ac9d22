"""The benchmark's hooks into the package still resolve.

bench/run.py patches lbandsm.pipeline attributes by name to trace each
layer and skips a name that no longer exists, and it times the radiative
kernel through emissivity_evaluator and soil_emissivity_pair. A refactor
that renames any of these, or stops calling one, would leave traced runs
silently incomplete, so tier-1 checks them here without running the
benchmark.
"""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from lbandsm import pipeline, synth
from lbandsm.config import load_campaign
from lbandsm.radiative import DielectricModel, emissivity_evaluator, soil_emissivity_pair
from lbandsm.retrieval import PRESET_NAMES

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


def test_pipeline_calls_are_called(bench_run, tmp_path, monkeypatch):
    """A run of a two-day campaign under every preset calls each name the
    benchmark patches, so no traced layer reads zero because a refactor
    kept a name but stopped calling it."""
    synth.generate_campaign(tmp_path / "camp", seed=7, n_days=2, n_samples=30)
    calls = Counter()
    for name in bench_run.PIPELINE_CALLS:
        def counted(*args, _name=name, _call=getattr(pipeline, name), **kwargs):
            calls[_name] += 1
            return _call(*args, **kwargs)
        monkeypatch.setattr(pipeline, name, counted)
    cfg = load_campaign(tmp_path / "camp" / "campaign.cfg")
    assert {algo.name for site in cfg.sites for algo in site.presets} == set(PRESET_NAMES)
    report = pipeline.run_pipeline(cfg, output_dir=tmp_path / "out")
    assert not report.data_errors
    assert [name for name in bench_run.PIPELINE_CALLS if not calls[name]] == []


def test_checker_passes_two_runs(bench_run, tmp_path):
    """The benchmark's own correctness gate passes two runs of a two-day
    campaign under every preset, so a loader or writer change that would
    make every benchmark run fail shows here first."""
    truth = synth.generate_campaign(tmp_path / "camp", seed=7, n_days=2, n_samples=30)
    checker = bench_run.Checker(truth, bench_run.ALL_PRESETS)
    for run in ("a", "b"):
        cfg = load_campaign(tmp_path / "camp" / "campaign.cfg")
        checker.check(pipeline.run_pipeline(cfg, output_dir=tmp_path / run))
    assert checker.problems == []
    assert (checker.attempted, checker.failed) == (48, 0)
    assert checker.digests == {name: bench_run.sha256_of(tmp_path / "b" / name)
                               for name in bench_run.DIGESTED}


@pytest.mark.parametrize("model", list(DielectricModel))
def test_kernel_entries_agree(bench_run, model):
    grid = np.linspace(0.01, 0.70, 50)
    e_pair = emissivity_evaluator(*bench_run.KERNEL_SURFACE, model)
    scalar = np.array([e_pair(sm) for sm in grid.tolist()])
    e_h, e_v = soil_emissivity_pair(grid, *bench_run.KERNEL_SURFACE, model)
    assert np.max(np.abs(scalar - np.column_stack([e_h, e_v]))) <= bench_run.KERNEL_AGREEMENT
