"""Command line front end.

Subcommands:
  run         execute a campaign and write artifacts to --out
  validate    parse config file plus environment overrides and print the
              effective settings without running anything
  table-dump  print the MCS table and link-budget constants as CSV

Config precedence is defaults < file (--config) < environment (SIM_<KEY>).
Exit codes: 0 ok, 1 runtime failure, 2 bad configuration or usage.
"""

import argparse
import dataclasses
import os
import sys

from .campaign import check_jobs, check_policies, once_each, run_campaign
from .channel import (MCS_EFFICIENCIES, MCS_THRESHOLDS_DB, noise_per_re_dbm,
                      ntn_fspl_db)
from .config import POLICIES, ConfigError, load_config
from .stats import emit_results, ensure_writable_dir


def parse_seeds(text):
    """'1..15' (inclusive range) or '1,2,5' or '7'."""
    text = text.strip()
    if ".." in text:
        lo_s, _, hi_s = text.partition("..")
        lo, hi = int(lo_s), int(hi_s)
        if hi < lo:
            raise ValueError(f"empty seed range: {text}")
        return list(range(lo, hi + 1))
    return once_each([int(part) for part in text.split(",") if part.strip()],
                     "seeds")


def parse_policies(text):
    return check_policies([p.strip() for p in text.split(",") if p.strip()])


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ntnmc",
        description="Packet-level simulator of satellite-assisted "
                    "multi-connectivity in a terrestrial cellular deployment.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a campaign and write artifacts")
    run_p.add_argument("--config", help="path to key=value config file")
    run_p.add_argument("--out", default="results", help="output directory")
    run_p.add_argument("--policies", default=",".join(POLICIES),
                       help="comma list of settings to run (default: all)")
    run_p.add_argument("--seeds", default="1..15",
                       help="seed list, e.g. 1..15 or 1,2,5")
    run_p.add_argument("--jobs", type=int, default=1,
                       help="worker processes (results identical for any value)")

    val_p = sub.add_parser("validate", help="print the effective config")
    val_p.add_argument("--config", help="path to key=value config file")

    sub.add_parser("table-dump", help="print MCS table and link constants")
    return parser


def cmd_run(args):
    cfg = load_config(args.config, environ=os.environ)
    policies = parse_policies(args.policies)
    seeds = parse_seeds(args.seeds)
    check_jobs(args.jobs)
    ensure_writable_dir(args.out)
    summaries, results = run_campaign(cfg, policies, seeds, jobs=args.jobs)
    emit_results(args.out, cfg, policies, seeds, summaries, results)
    for s in summaries:
        print(f"{s.setting}: mean={s.mean_kbps:.1f} kbps "
              f"p5={s.p5_kbps:.1f} kbps "
              f"adds={s.avg_sn_adds:.1f} releases={s.avg_sn_releases:.1f}")
    print(f"wrote artifacts to {args.out}")
    return 0


def cmd_validate(args):
    cfg = load_config(args.config, environ=os.environ)
    for f in dataclasses.fields(cfg):
        print(f"{f.name} = {getattr(cfg, f.name)}")
    return 0


def cmd_table_dump(_args):
    print("mcs,min_sinr_db,efficiency_bits_per_re")
    for i, (th, eff) in enumerate(zip(MCS_THRESHOLDS_DB, MCS_EFFICIENCIES)):
        print(f"{i},{th:.2f},{eff:.4f}")
    print()
    print("constant,value")
    print(f"noise_per_re_dbm_nf7,{noise_per_re_dbm(7.0):.4f}")
    print(f"fspl_600km_2ghz_db,{ntn_fspl_db(600_000.0, 2.0):.4f}")
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "validate":
            return cmd_validate(args)
        return cmd_table_dump(args)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
