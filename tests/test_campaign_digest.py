"""The byte contract: every output of the campaigns in
tools/campaign_digest.py hashes to the checked-in golden digest.

To regenerate the golden file after an intended byte change, state the
change in CHANGES.md, then run

    python3 tools/campaign_digest.py > tests/golden/campaign_digest.txt

and update GOLDEN_MADE_WITH to the numpy version and platform it ran on.
"""

import importlib.util
import itertools
import platform
from pathlib import Path

import numpy as np

from ambcsim import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "campaign_digest.txt"
GOLDEN_MADE_WITH = "numpy 2.4.6, Python 3.11.7, Linux x86_64 (glibc 2.36)"

_spec = importlib.util.spec_from_file_location(
    "campaign_digest", ROOT / "tools" / "campaign_digest.py")
campaign_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(campaign_digest)


def test_campaign_outputs_match_golden_digest():
    golden = GOLDEN.read_text(encoding="utf-8").splitlines()
    lines = [line for campaign in campaign_digest.CAMPAIGNS
             for line in campaign_digest.digest(campaign, cli)]
    moved = [f"  golden: {want}\n  now:    {got}"
             for want, got in itertools.zip_longest(golden, lines,
                                                    fillvalue="<none>")
             if want != got]
    assert not moved, (
        f"{len(moved)} of {len(golden)} digest lines moved from "
        f"{GOLDEN.relative_to(ROOT)}, made with {GOLDEN_MADE_WITH}; this "
        f"run has numpy {np.__version__}, Python "
        f"{platform.python_version()}, {platform.system()} "
        f"{platform.machine()}:\n" + "\n".join(moved))
