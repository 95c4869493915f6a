"""Command-line entry point.

Subcommands: ``single`` (one paired trial), ``sweep-users``,
``sweep-data``.  Effective configuration = defaults, overlaid by the
JSON config file (``--config``), overlaid by ``--set key=value``
overrides; the result is snapshotted to ``config.snapshot.json`` next to
the CSV outputs so any run can be reproduced from its artifact
directory.

Exit codes: 0 success, 2 configuration error, 3 I/O error,
4 simulation error.
"""

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .channel import ChannelParams
from .config import ConfigError, SimConfig
from .harness import sweep, write_results

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_SIM = 4

_SIM_FIELDS = {f.name for f in dataclasses.fields(SimConfig)}
_INT_FIELDS = {f.name for f in dataclasses.fields(SimConfig) if f.type is int}
_CHANNEL_FIELDS = {f.name for f in dataclasses.fields(ChannelParams)}


def _coerce(key, raw):
    try:
        if isinstance(raw, bool):
            # int(True) and float(False) would pass a JSON boolean as 1, 0
            raise ValueError("expected a number, not a boolean")
        if key in _INT_FIELDS:
            if isinstance(raw, float) and not raw.is_integer():
                raise ValueError("expected an integer")
            return int(raw)
        return float(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid value for {key!r}: {raw!r} ({exc})")


def _merge(base: dict, updates: dict) -> dict:
    for key, value in updates.items():
        if key == "channel":
            if not isinstance(value, dict):
                raise ConfigError("channel must be an object")
            for ck, cv in value.items():
                if ck not in _CHANNEL_FIELDS:
                    raise ConfigError(f"unknown channel parameter {ck!r}")
                base["channel"][ck] = _coerce(ck, cv)
        elif key in _SIM_FIELDS:
            base[key] = _coerce(key, value)
        else:
            raise ConfigError(f"unknown configuration key {key!r}")
    return base


def _parse_overrides(pairs):
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override {pair!r} is not key=value")
        key, value = pair.split("=", 1)
        if key.startswith("channel."):
            out.setdefault("channel", {})[key[len("channel."):]] = value
        else:
            out[key] = value
    return out


def build_effective_config(config_path=None, overrides=(), seed=None,
                           trials=None) -> SimConfig:
    """defaults <- config file <- --set overrides <- --seed/--trials."""
    base = dataclasses.asdict(SimConfig())
    if config_path is not None:
        try:
            text = Path(config_path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {config_path}: {exc}")
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {config_path} is not valid "
                              f"JSON: {exc}")
        if not isinstance(data, dict):
            raise ConfigError(f"config file {config_path} must hold a "
                              f"JSON object")
        base = _merge(base, data)
    base = _merge(base, _parse_overrides(overrides))
    if seed is not None:
        base["seed"] = int(seed)
    if trials is not None:
        base["n_trials"] = int(trials)
    channel_kwargs = base.pop("channel")
    try:
        return SimConfig(channel=ChannelParams(**channel_kwargs), **base)
    except ValueError as exc:
        raise ConfigError(str(exc))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ambcsim",
        description="Uplink cell simulator: UAV relay, backscatter tags, "
                    "NOMA power allocation.")
    parser.add_argument("--config", metavar="PATH",
                        help="JSON config file (SimConfig field names)")
    parser.add_argument("--out", metavar="DIR", default="results",
                        help="output directory for CSVs and snapshot")
    parser.add_argument("--seed", type=int, help="override base seed")
    parser.add_argument("--set", dest="overrides", action="append",
                        default=[], metavar="KEY=VALUE",
                        help="override a config field (repeatable)")
    parser.add_argument("--trials", type=int, help="trials per sweep point")
    parser.add_argument("subcommand",
                        choices=["single", "sweep-users", "sweep-data"])
    return parser


def _summary_lines(report):
    """Lines of the summary table.  The aggregates come in (baseline,
    triad) pairs, one pair per sweep value."""
    aggs = report.aggregates
    lines = [f"{'sweep_value':>12} {'mode':>9} {'mean_ee':>15} "
             f"{'ci95_half':>12}"]
    lines += [f"{a.sweep_value:>12g} {a.mode:>9} {a.mean_ee:>15.6g} "
              f"{a.ci95_half:>12.4g}" for a in aggs]
    gains = [100.0 * (triad.mean_ee - base.mean_ee) / base.mean_ee
             for base, triad in zip(aggs[::2], aggs[1::2])
             if base.mean_ee > 0]
    if gains:
        lines.append(f"mean triad-vs-baseline improvement: "
                     f"{sum(gains) / len(gains):.2f}%")
    return lines


def run_cli(args, out=None, err=None) -> int:
    """Run one parsed command line; out and err default to the current
    sys.stdout and sys.stderr."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    try:
        cfg = build_effective_config(args.config, args.overrides, args.seed,
                                     args.trials)
        # subcommand -> (the SimConfig key it sweeps, the values)
        key, values = {
            "single": ("n_ues", [cfg.n_ues]),
            "sweep-users": ("n_ues", list(range(10, 101, 10))),
            "sweep-data": ("data_bits",
                           [s * 1000.0 for s in range(20, 101, 10)]),
        }[args.subcommand]
        # A --set of a key swept over other values would be recorded in
        # the snapshot yet never take effect, so it is refused.  A config
        # file may hold it: every snapshot does, and must re-run.
        if (key in _parse_overrides(args.overrides)
                and values != [getattr(cfg, key)]):
            raise ConfigError(f"{key!r} is swept by {args.subcommand}; "
                              f"--set {key} would have no effect")
        if args.subcommand == "single" and args.trials is None:
            cfg = dataclasses.replace(cfg, n_trials=1)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        snapshot = json.dumps(dataclasses.asdict(cfg), indent=2,
                              sort_keys=True)
        (out_dir / "config.snapshot.json").write_text(snapshot + "\n",
                                                      encoding="utf-8")
        report = sweep(cfg, key, values)
        write_results(report, out_dir)
    # ConfigError is a ValueError, so it must come first
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=err)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=err)
        return EXIT_IO
    except (ValueError, ArithmeticError) as exc:
        print(f"simulation error: {exc}", file=err)
        return EXIT_SIM

    lines = []
    if args.subcommand == "single":
        lines = [f"trial {t} {mode}: ee={ee:.6g} bits/J served={served} "
                 f"outage={outage} k={k}" for _, t, mode, ee, served, outage,
                 k, _ in report.records.tolist()]
    # one write: an unbuffered stream would take a system call per line
    out.write("\n".join(lines + _summary_lines(report)) + "\n")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return run_cli(args)


if __name__ == "__main__":
    sys.exit(main())
