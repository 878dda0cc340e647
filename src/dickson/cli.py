"""Command line front end for the verification grid.

Exit codes: 0 all non-skipped cases passed, 1 at least one failure or a
sign pin that fits neither convention (sign flag 0; the report is still
written), 2 usage error (malformed ranges abort before anything runs).
"""
from __future__ import annotations

import argparse
import contextlib
import errno
import os
import sys
from typing import List, Optional, Sequence

from .verify import (
    DEFAULT_D_MAX,
    DEFAULT_PAIRS,
    GridConfig,
    THEOREMS,
    emit_report,
    run_grid,
)


def _int_list(text: str, what: str) -> List[int]:
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        try:
            out.append(int(chunk))
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad {what} entry {chunk!r}") from None
    if not out:
        raise argparse.ArgumentTypeError(f"empty {what} list")
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dickson-verify",
        description="Exactly verify Dickson / Steenrod identities on a (p, n) grid.",
    )
    parser.add_argument(
        "--theorem", default="all", choices=("all",) + THEOREMS,
        help="which identity family to run (default: all)",
    )
    parser.add_argument(
        "--p", type=lambda t: _int_list(t, "prime"), default=None, metavar="LIST",
        help="comma separated primes; requires --n, combined as a product",
    )
    parser.add_argument(
        "--n", type=lambda t: _int_list(t, "rank"), default=None, metavar="LIST",
        help="comma separated variable counts; requires --p",
    )
    parser.add_argument(
        "--s", type=lambda t: _int_list(t, "s"), default=None, metavar="LIST",
        help="restrict the Dickson index s (default: all 0 <= s < n)",
    )
    parser.add_argument(
        "--i-max", type=int, default=None, metavar="K",
        help="largest operation index i, at most 62 (default: n + 4 per grid point)",
    )
    parser.add_argument(
        "--d-max", type=int, default=DEFAULT_D_MAX, metavar="K",
        help=f"largest degree for dimension cases (default: {DEFAULT_D_MAX})",
    )
    parser.add_argument(
        "--seed", type=int, default=0, metavar="U64",
        help="recorded in the report; no case depends on it (default: 0)",
    )
    parser.add_argument(
        "--format", default="text", choices=("text", "json"),
        help="report format (default: text)",
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the report to PATH instead of stdout",
    )
    parser.add_argument(
        "--inject-failure", action="store_true",
        help="append one deliberately falsified case (harness self test)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if (args.p is None) != (args.n is None):
        parser.error("--p and --n must be given together")
    pairs = DEFAULT_PAIRS if args.p is None else tuple(
        (p, n) for p in args.p for n in args.n)
    try:
        config = GridConfig(
            theorems=THEOREMS if args.theorem == "all" else (args.theorem,),
            pairs=pairs,
            s_values=None if args.s is None else tuple(args.s),
            i_max=args.i_max,
            d_max=args.d_max,
            seed=args.seed,
            inject_failure=args.inject_failure,
        )
    except (ValueError, TypeError) as exc:
        parser.error(str(exc))
    # Create a temporary file beside --out before the run, so a bad path
    # costs no work, and move it onto --out only once the report is in it:
    # a crash or an interrupt leaves the previous report as it was.
    tmp = f"{args.out}.{os.getpid()}.tmp" if args.out else None
    try:
        if tmp and os.path.isdir(args.out):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        out = open(tmp, "x", encoding="utf-8") if tmp else contextlib.nullcontext(sys.stdout)
    except OSError as exc:
        parser.error(f"cannot write --out {args.out}: {exc.strerror}")
    try:
        with out as handle:
            report = run_grid(config)
            handle.write(emit_report(report, args.format))
        if tmp:
            os.replace(tmp, args.out)
    except BaseException:
        if tmp:
            os.unlink(tmp)
        raise
    return 0 if report.summary["failed"] == 0 and report.sign_flag else 1


if __name__ == "__main__":
    sys.exit(main())
