"""Interleaved A/B of two source trees on one benchmark workload.

    python3 tools/interleave_ab.py SRC_A SRC_B --workload users --rounds 200

SRC_A and SRC_B are source directories that each hold an ``ambcsim``
package.  Each package is copied to a temporary directory under its own
name (``ambcsim_a``, ``ambcsim_b``) and both are imported into this one
process.  A round runs the workload's CLI campaign (``WORKLOADS`` of
``bench/run.py``) once through each side's ``cli.main``, alternating
which side runs first.  It prints each side's median and quartiles of
trial/s, the median of the per-round ratios B / A, the rounds B won, and
a verdict by the nine-of-ten rule: B gains only if it won at least 90 %
of the rounds and its median beats A's by more than A's interquartile
range.  It exits 1 if a campaign fails or the two sides ever write
different CSV bytes.

This is a sizing aid: both sides share one process and one phase of the
host's speed, so small differences show in fewer seconds than separate
runs need.  It times no calibration kernel, warms each side up once, and
its numbers are not the benchmark's; a claimed gain comes from
``bench/run.py``.
"""

import argparse
import contextlib
import importlib
import io
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CSV_FILES = ("trials.csv", "aggregates.csv")


def load_workloads():
    """WORKLOADS of bench/run.py, imported as it is."""
    sys.path.insert(0, str(ROOT / "bench"))
    return importlib.import_module("run").WORKLOADS


def import_side(src, name, tmp):
    """The cli module of SRC's ambcsim, imported as package ``name``."""
    shutil.copytree(Path(src) / "ambcsim", Path(tmp) / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(f"{name}.cli")


def run_campaign(cli, argv, out_dir):
    """(wall seconds, exit code, CSV bytes) of one campaign."""
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - t0
    return elapsed, code, [(out_dir / f).read_bytes() for f in CSV_FILES]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("src_a")
    parser.add_argument("src_b")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--rounds", type=int, default=100)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    workloads = load_workloads()
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {', '.join(workloads)}")
    if args.rounds < 2:
        # quartiles need two rounds
        parser.error("--rounds must be >= 2")
    workload = workloads[args.workload]

    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        sides = []
        for src, name in ((args.src_a, "ambcsim_a"),
                          (args.src_b, "ambcsim_b")):
            out = Path(tmp) / f"out_{name}"
            sides.append((import_side(src, name, tmp),
                          workload.argv(args.seed, out), out))
        # one untimed warm-up each; its bytes are the reference
        reference = [run_campaign(*side) for side in sides]
        if any(code != 0 for _, code, _ in reference):
            print("a warm-up campaign failed", file=sys.stderr)
            return 1
        differ = reference[0][2] != reference[1][2]
        times = ([], [])
        for r in range(args.rounds):
            for s in ((0, 1) if r % 2 == 0 else (1, 0)):
                elapsed, code, blobs = run_campaign(*sides[s])
                differ |= code != 0 or blobs != reference[0][2]
                times[s].append(elapsed)

    rate = [[workload.paired_trials / t for t in side] for side in times]
    ratios = [b / a for a, b in zip(*rate)]
    wins = sum(b > a for a, b in zip(*rate))
    quartiles = [statistics.quantiles(side, n=4) for side in rate]
    for label, (q1, median, q3) in zip("AB", quartiles):
        print(f"{label}: median {median:.1f} trial/s, quartiles "
              f"[{q1:.1f}, {q3:.1f}]")
    print(f"B / A: median {statistics.median(ratios):.4f}; B won "
          f"{wins} of {args.rounds} rounds")
    (a_q1, a_median, a_q3), (_, b_median, _) = quartiles
    gain = 10 * wins >= 9 * args.rounds and b_median - a_median > a_q3 - a_q1
    print(f"nine-of-ten rule: {'a gain' if gain else 'no gain'} (B won "
          f"{100 * wins / args.rounds:.0f} % of rounds; medians "
          f"{b_median - a_median:+.1f} apart, A's interquartile range "
          f"{a_q3 - a_q1:.1f})")
    if differ:
        print("a campaign failed, or the two sides wrote different CSV "
              "bytes", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
