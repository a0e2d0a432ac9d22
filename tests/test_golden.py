"""Behaviour lock: the report CSVs of a fixed synthetic campaign must match
the committed files under tests/golden/ byte for byte.

An intended output change re-freezes the files by running this module as
a script from the repository root, and names what moved and why in
CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
import sys
import tempfile
from pathlib import Path

import pytest

from lbandsm import config, pipeline, synth

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_FILES = ("sessions.csv", "rejections.csv", "retrievals.csv",
                "metrics.csv", "plot_tb_series.csv", "plot_sm_series.csv")
CAMPAIGN = dict(seed=20231111, n_days=5, n_samples=60)


def run_golden_campaign(root):
    """Generate the locked campaign under `root` and run every preset on it;
    returns the output directory."""
    root = Path(root)
    synth.generate_campaign(root / "campaign", **CAMPAIGN)
    cfg = config.load_campaign(root / "campaign" / "campaign.cfg")
    for site in cfg.sites:
        assert [p.name for p in site.presets] == ["DCA0", "DCA1", "DCA2", "RDCA", "SCAH", "SCAV"]
    out = root / "out"
    pipeline.run_pipeline(cfg, output_dir=out)
    return out


@pytest.fixture(scope="module")
def golden_output(tmp_path_factory):
    return run_golden_campaign(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", GOLDEN_FILES)
def test_report_matches_golden(golden_output, name):
    got = (golden_output / name).read_bytes()
    want = (GOLDEN_DIR / name).read_bytes()
    assert got == want, f"{name} differs from tests/golden/{name}"


# seed points plus LM kernel calls over the golden campaign's 60
# retrievals; 44,565 before the solve stopped on its first step below
# tolerance, without evaluating it
GOLDEN_EVALUATIONS = 44_395


def test_golden_campaign_evaluations_are_pinned(golden_output):
    with open(golden_output / "retrievals.csv", newline="") as fh:
        total = sum(int(row["evaluations"]) for row in csv.DictReader(fh))
    assert total == GOLDEN_EVALUATIONS


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        out = run_golden_campaign(tmp)
        for name in GOLDEN_FILES:
            (GOLDEN_DIR / name).write_bytes((out / name).read_bytes())
            print(f"froze {GOLDEN_DIR / name}", file=sys.stderr)
