"""Byte lock on the writers of session text: every file that
synth.generate_campaign writes for four parameter sets, and the session
files that `lbandsm calibrate`, `filter --rejected` and
`forward --samples` write, must keep the SHA-256 digests frozen in
tests/writer_digests.json.

An intended output change re-freezes the digests by running this module
as a script from the repository root, and names what moved and why in
CHANGES.md:

    PYTHONPATH=src python tests/test_writers.py
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from lbandsm import cli, synth

DIGESTS_PATH = Path(__file__).parent / "writer_digests.json"

# 6,000 samples cross whole seconds (20-byte stamps); 15 are too few for
# the injected outliers; the voltage files move to the vegetated site, or
# every site writes brightness temperatures
CAMPAIGNS = {
    "days2_samples6000": dict(seed=20231111, n_days=2, n_samples=6000),
    "days3_samples15": dict(seed=7, n_days=3, n_samples=15),
    "voltage_grass": dict(seed=99, n_days=2, n_samples=60, voltage_site="grass"),
    "voltage_none": dict(seed=5, n_days=2, n_samples=60, voltage_site=None),
}

# the voltage session of the 6,000-sample campaign, as calibrate reads it
CLI_SESSION = ("days2_samples6000", "sessions/bare_2023-11-11.csv")
FORWARD = ["forward", "--preset", "DCA1", "--sm", "0.3", "--clay-fraction", "0.2",
           "--samples", "2000", "--noise-k", "2", "--seed", "7"]


def _digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _tree_digests(root):
    return {path.relative_to(root).as_posix(): _digest(path)
            for path in sorted(root.rglob("*")) if path.is_file()}


def write_campaign_files(root, name):
    """Generate campaign `name` under `root`; digest of every file."""
    synth.generate_campaign(root, **CAMPAIGNS[name])
    return _tree_digests(root)


def write_cli_files(root, campaign_root):
    """Run calibrate, filter --rejected and forward --samples into `root`;
    digest of every file they write."""
    name, session = CLI_SESSION
    tb = root / "calibrate.csv"
    runs = [
        ["calibrate", "--gain-h", str(synth.VOLTAGE_GAIN), "--gain-v",
         str(synth.VOLTAGE_GAIN), "--input", str(campaign_root / name / session),
         "--output", str(tb)],
        # floors that only the injected low pattern violates
        ["filter", "--tb-min-h", "100", "--tb-min-v", "120", "--input", str(tb),
         "--output", str(root / "filter.csv"), "--rejected", str(root / "rejected.csv")],
        [*FORWARD, "--output", str(root / "forward.csv")],
    ]
    for args in runs:
        assert cli.main(args) == 0, args
    return _tree_digests(root)


@pytest.fixture(scope="module")
def campaign_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("writers")
    return root, {name: write_campaign_files(root / name, name) for name in CAMPAIGNS}


@pytest.fixture(scope="module")
def frozen():
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_synth_files_match_frozen_digests(campaign_root, frozen, name):
    _, digests = campaign_root
    assert digests[name] == frozen["synth"][name]


def test_synth_writes_both_stamp_widths(campaign_root):
    root, _ = campaign_root
    lines = (root / CLI_SESSION[0] / "sessions" / "grass_2023-11-11.csv").read_bytes().split(b"\r\n")
    widths = {len(line.split(b",")[0]) for line in lines[1:-1]}
    assert widths == {20, 27}
    assert lines[-1] == b""


def test_cli_session_writers_match_frozen_digests(campaign_root, frozen, tmp_path):
    root, _ = campaign_root
    digests = write_cli_files(tmp_path, root)
    assert digests == frozen["cli"]
    assert b"min_violated" in (tmp_path / "rejected.csv").read_bytes()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        frozen_now = {"synth": {name: write_campaign_files(tmp / name, name)
                                for name in CAMPAIGNS}}
        (tmp / "cli").mkdir()
        frozen_now["cli"] = write_cli_files(tmp / "cli", tmp)
    DIGESTS_PATH.write_text(json.dumps(frozen_now, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
    print(f"froze {DIGESTS_PATH}", file=sys.stderr)
