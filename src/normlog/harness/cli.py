"""Command-line interface.

Subcommands::

    generate --family F --n N --seed S --out pair.json
    check    --name CHECK --in pair.json [--k-lo K --k-hi K] [--tol T]
             [--report out.json]
    suite    [--config suite.json] [--report out.json] [--jobs J]
    version

Exit codes: 0 all pass (hypothesis-skipped checks do not fail a run),
1 any check failed, 2 usage or I/O error, which includes a config key or
family parameter that is not known.
"""

from __future__ import annotations

import argparse
import json
import sys

from .. import __version__
from ..checks import CHECK_NAMES, run_check
from ..errors import NormLogError
from .generators import Family, InstanceSpec, make_pair
from .io import read_pair, write_pair, write_report
from .suite import (analyze_pair, default_config, report, run_suite,
                    tolerances_from_config)


def _parse_params(items):
    params = {}
    for item in items or []:
        key, _, raw = item.partition("=")
        if not _:
            raise ValueError(f"expected key=value, got {item!r}")
        try:
            value = int(raw)
        except ValueError:
            value = float(raw)
        params[key] = value
    return params


def _cmd_generate(args) -> int:
    spec = InstanceSpec(family=Family(args.family), n=args.n, seed=args.seed,
                        params=_parse_params(args.param))
    x, y, metadata = make_pair(spec)
    write_pair(args.out, x, y, metadata)
    print(f"wrote {args.family} n={args.n} seed={args.seed} -> {args.out}")
    return 0


def _cmd_check(args) -> int:
    check_tol = tolerances_from_config(
        {} if args.tol is None else {"check": args.tol})
    x, y, metadata = read_pair(args.infile)
    if args.k_lo is not None:
        metadata["k_lo"] = args.k_lo
    if args.k_hi is not None:
        metadata["k_hi"] = args.k_hi
    result = run_check(args.name, analyze_pair(x, y, metadata, check_tol))

    status = "PASS" if result.passed else (
        "SKIP" if not result.hypothesis_met else "FAIL")
    worst = max(result.residuals.values(), default=0.0)
    print(f"[{status}] {result.check_name}  worst residual {worst:.3e}"
          + (f"  ({result.notes})" if result.notes else ""))
    if args.report:
        row = {"family": metadata.get("family", "file"),
               "n": metadata.get("n"), "seed": metadata.get("seed")}
        row.update(result.to_dict())
        write_report(args.report, report(
            "normlog-check", {"name": args.name, "input": args.infile}, [row]))
    return 1 if (result.hypothesis_met and not result.passed) else 0


def _cmd_suite(args) -> int:
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            config = json.load(fh)
    else:
        config = default_config()
    doc = run_suite(config, jobs=args.jobs)
    summary = doc["summary"]
    for row in doc["results"]:
        if row["hypothesis_met"] and not row["passed"]:
            worst = max(row["residuals"].values(), default=0.0)
            print(f"[FAIL] {row['check']} {row['family']} n={row['n']} "
                  f"seed={row['seed']} worst residual {worst:.3e}")
    print(f"total {summary['total']}  passed {summary['passed']}  "
          f"skipped {summary['skipped_hypothesis']}  "
          f"failed {summary['failed']}")
    if args.report:
        write_report(args.report, doc)
    return 0 if summary["failed"] == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normlog",
        description="spectral toolkit for normal-matrix logarithms")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write an instance pair file")
    gen.add_argument("--family", required=True,
                     choices=[f.value for f in Family])
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--param", action="append", metavar="KEY=VALUE",
                     help="family parameter (repeatable)")
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_generate)

    chk = sub.add_parser("check", help="run one check on a pair file")
    chk.add_argument("--name", required=True, choices=CHECK_NAMES)
    chk.add_argument("--in", dest="infile", required=True)
    chk.add_argument("--k-lo", type=int, default=None)
    chk.add_argument("--k-hi", type=int, default=None)
    chk.add_argument("--tol", type=float, default=None,
                     help="override the pass/fail threshold")
    chk.add_argument("--report", default=None)
    chk.set_defaults(func=_cmd_check)

    ste = sub.add_parser("suite", help="run the full verification suite")
    ste.add_argument("--config", default=None)
    ste.add_argument("--report", default=None)
    ste.add_argument("--jobs", type=int, default=1)
    ste.set_defaults(func=_cmd_suite)

    ver = sub.add_parser("version", help="print the package version")
    ver.set_defaults(func=lambda args: print(__version__) or 0)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError, json.JSONDecodeError,
            NormLogError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
