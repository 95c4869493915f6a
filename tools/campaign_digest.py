"""Digest of the outputs of a fixed set of CLI campaigns.

    python3 tools/campaign_digest.py [SRC] > digest.txt

Runs each campaign in ``CAMPAIGNS`` in-process through
``ambcsim.cli.main``, in a temporary directory, and prints one line per
output: the sha256 of ``trials.csv``, ``aggregates.csv``,
``config.snapshot.json`` and the printed standard output, with the
campaign's exit code.  SRC is the source directory whose ``ambcsim`` is
imported; it defaults to the ``src`` of the checkout holding this file.
Run it once against each of two checkouts and ``diff`` the two digests:
no output means the two give the same bytes on every campaign.
"""

import contextlib
import hashlib
import io
import shlex
import sys
import tempfile
from pathlib import Path

# Edge cases of the grouping DP: k_max = 1 (one layer), k_max = 2 (no
# middle layer), n_subcarriers = 3 (k capped below k_max); a small cell
# without tags, whose close gains put F's last digits at stake; one UE
# (a one-row UE x tag block, one cluster, a one-UE admission scan);
# tags that reflect nothing (beta = 0); 1000 tags over a 20 km cell, where
# the best-tag bound's rounding is largest; 7 UEs over a 3 km cell with a
# 60 dB NLoS loss, whose DP reaches the cost matrix in 10 of its 180
# evaluations, with stops at layer 4 and pick-K stops at layer 3 (see
# clustering._elbow_settled); a several-trial ``single``,
# whose per-trial lines print in the sweep's record order; a 150-trial
# ``single``, whose aggregates sum more than 128 EEs, past which numpy's
# pairwise sum recurses; the rest cover the defaults, a binding power
# budget, dense tags and a large n.
CAMPAIGNS = [
    "--seed 5 --trials 5 sweep-users",
    "--seed 5 --trials 5 --set p_max=1e-06 sweep-data",
    "--seed 5 --trials 2 --set n_tags=1000 sweep-users",
    "--seed 5 single",
    "--seed 5 --trials 3 single",
    "--seed 4 --trials 150 --set n_ues=5 --set n_tags=2 single",
    "--seed 5 --trials 3 --set n_ues=300 --set n_subcarriers=64 sweep-data",
    "--seed 7 --trials 3 --set k_max=1 sweep-users",
    "--seed 7 --trials 3 --set k_max=2 sweep-users",
    "--seed 7 --trials 3 --set n_subcarriers=3 sweep-users",
    "--seed 2 --trials 10 --set n_tags=0 --set coverage_radius=20 "
    "sweep-users",
    "--seed 3 --trials 3 --set n_ues=1 sweep-data",
    "--seed 3 --trials 2 --set channel.reflection_coeff=0 sweep-users",
    "--seed 5 --trials 2 --set n_tags=1000 --set coverage_radius=20000 "
    "sweep-users",
    "--seed 2 --trials 10 --set n_ues=7 --set coverage_radius=3000 "
    "--set channel.eta_nlos=60 sweep-data",
    # a simulation error mid-sweep, at data_bits 60000 (the 5th of 9
    # points), pins its exit 4, the snapshot bytes and the missing CSVs
    "--seed 5 --trials 2 --set bandwidth=3000 sweep-data",
]
FILES = ["trials.csv", "aggregates.csv", "config.snapshot.json"]


def digest(campaign, cli):
    """Lines "<sha256>  <campaign> :: <output>" of one campaign."""
    with tempfile.TemporaryDirectory() as tmp:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(["--out", tmp, *shlex.split(campaign)])
        blobs = {name: (Path(tmp) / name).read_bytes()
                 if (Path(tmp) / name).exists() else b"<missing>"
                 for name in FILES}
    blobs["stdout"] = stdout.getvalue().encode()
    lines = [f"{hashlib.sha256(blob).hexdigest()}  {campaign} :: {name}"
             for name, blob in blobs.items()]
    return [f"exit {code}  {campaign}", *lines]


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    root = Path(__file__).resolve().parents[1]
    src = Path(argv[0]) if argv else root / "src"
    sys.path.insert(0, str(src.resolve()))
    from ambcsim import cli
    for campaign in CAMPAIGNS:
        print("\n".join(digest(campaign, cli)), flush=True)


if __name__ == "__main__":
    main()
