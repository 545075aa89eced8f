"""Command-line front end: parse the arguments, load algebra and map
files, and write the report that ``suites`` builds for the verb, as text
or JSON.

Exit codes: 0 all checks passed, 1 a check failed or an input file was
rejected, 2 usage errors (unknown verb, suite, or catalog name).
JSON reports are byte-identical across runs for fixed inputs, seed, and
version (timing information goes to stderr only).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__
from .algebra import (MAX_ENUM_CAP, Algebra, TableFormatError,
                      algebra_from_json, algebra_to_json)
from .catalog import CATALOG_NAMES, UnknownInstanceError, build
from .fields import FieldError
from .linalg import Matrix
from .suites import (SUITE_ORDER, Config, derivations, identities, inner,
                     invertible_values, leibniz, powers, quasiderivations,
                     render, run_all, run_suite)


def create_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=42,
                        help="RNG seed for sampled verdicts (default 42)")
    common.add_argument("--samples", type=int, default=128,
                        help="sample count for sampled verdicts (default 128)")
    common.add_argument("--enum-cap", type=int, default=2 ** 20,
                        help="max finite enumeration size (default 1048576)")
    common.add_argument("--json", action="store_true",
                        help="machine-readable report on stdout")
    common.add_argument("--out", metavar="PATH",
                        help="write the report to PATH instead of stdout")
    parser = argparse.ArgumentParser(
        prog="altalg",
        description="exact computations on structure-constant algebras and "
                    "their derivation-type operator spaces")
    sub = parser.add_subparsers(dest="verb")

    def target_cmd(name, help_):
        p = sub.add_parser(name, help=help_, parents=[common])
        p.add_argument("target", help="algebra JSON file or catalog name")
        return p

    target_cmd("identities", "run the full identity checker on an algebra")
    target_cmd("derivations", "compute the derivation space")
    p = target_cmd("leibniz", "compute a Leibniz-derivation space")
    p.add_argument("--order", type=int, required=True, help="Leibniz order n >= 2")
    target_cmd("quasiderivations", "compute the quasiderivation space")
    target_cmd("powers", "compute the power chain A^n and nilpotency index")
    p = target_cmd("inner", "test whether a derivation is inner")
    p.add_argument("--map", required=True, metavar="FILE",
                   help="JSON file holding the d x d map matrix")
    p = target_cmd("invertible-values", "check a derivation for invertible values")
    p.add_argument("--map", required=True, metavar="FILE")
    p.add_argument("--mode", default="exhaustive", choices=["exhaustive", "sample"])
    p = sub.add_parser("build", parents=[common],
                       help="construct a catalog instance and print its "
                            "algebra JSON document")
    p.add_argument("name", help="one of: " + ", ".join(CATALOG_NAMES))
    p = sub.add_parser("verify", parents=[common],
                       help="run a verification suite (or 'all')")
    p.add_argument("suite", help="suite name or 'all'; suites: "
                                 + ", ".join(SUITE_ORDER))
    p.add_argument("--parallel", action="store_true",
                   help="accepted for compatibility; suites run one after another")
    return parser


class CliInputError(Exception):
    """Rejected input file (exit 1)."""


class CliUsageError(Exception):
    """Unknown verb, suite, target, or bad option (exit 2)."""


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise CliInputError(f"{path}: {e.strerror or e}") from None
    except json.JSONDecodeError as e:
        raise CliInputError(
            f"{path}: malformed JSON at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from None
    except ValueError as e:
        # bytes that are not UTF-8, or an integer literal past Python's
        # digit limit
        raise CliInputError(f"{path}: unreadable JSON: {e}") from None
    except RecursionError:
        raise CliInputError(f"{path}: JSON nested too deeply") from None


def parse_algebra_file(path: str) -> Algebra:
    """Load an algebra from the normative JSON format with diagnostics."""
    try:
        return algebra_from_json(_read_json(path))
    except (TableFormatError, FieldError) as e:
        raise CliInputError(f"{path}: {e}") from None


def _load_map(path: str, A: Algebra) -> Matrix:
    doc = _read_json(path)
    if not isinstance(doc, dict) or "matrix" not in doc:
        raise CliInputError(f"{path}: map file needs a 'matrix' key")
    rows = doc["matrix"]
    if (not isinstance(rows, list) or len(rows) != A.dim
            or any(not isinstance(r, list) or len(r) != A.dim for r in rows)):
        raise CliInputError(f"{path}: 'matrix' must be {A.dim}x{A.dim}")
    try:
        parsed = [[A.field.parse(c) for c in r] for r in rows]
    except FieldError as e:
        raise CliInputError(f"{path}: {e}") from None
    return Matrix(A.field, parsed, A.dim)


def _resolve_target(target: str) -> Algebra:
    if os.path.exists(target):
        return parse_algebra_file(target)
    if target in CATALOG_NAMES:
        return build(target).algebra
    raise CliUsageError(f"target {target!r} is neither a file nor a catalog name "
                        f"(catalog: {', '.join(CATALOG_NAMES)})")


# ---- reports ----------------------------------------------------------------

# verb -> the suites function computing its report from (algebra, target, cfg)
_TARGET_VERBS = {"identities": identities, "derivations": derivations,
                 "quasiderivations": quasiderivations, "powers": powers}


def _reports(args) -> list:
    """The reports of a verb other than ``build``."""
    cfg = Config(seed=args.seed, samples=args.samples, enum_cap=args.enum_cap)
    if args.verb == "verify":
        if args.suite == "all":
            return run_all(cfg)
        if args.suite not in SUITE_ORDER:
            raise CliUsageError(f"unknown suite {args.suite!r}; suites: "
                                + ", ".join(SUITE_ORDER) + ", all")
        return [run_suite(args.suite, cfg)]
    if args.verb == "leibniz" and args.order < 2:
        raise CliUsageError("--order must be at least 2")
    A = _resolve_target(args.target)
    if args.verb == "leibniz":
        return [leibniz(A, args.order, args.target, cfg)]
    if args.verb in _TARGET_VERBS:
        return [_TARGET_VERBS[args.verb](A, args.target, cfg)]
    m = _load_map(args.map, A)
    try:
        if args.verb == "inner":
            return [inner(A, m, args.target, cfg)]
        return [invertible_values(A, m, args.mode, args.target, cfg)]
    except ValueError as e:
        # a map that is not a derivation is at fault, or, for invertible
        # values, an algebra without a unit
        no_unit = args.verb == "invertible-values" and A.find_unit() is None
        raise CliInputError(f"{args.target if no_unit else args.map}: {e}") from None


# ---- output -----------------------------------------------------------------

def _write(text: str, out: str | None) -> None:
    """Write to the ``--out`` path, or to stdout when there is none."""
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise CliInputError(f"{out}: {e.strerror or e}") from None
    else:
        sys.stdout.write(text)


def _emit(reports: list, args, wall: float) -> int:
    _write(render(reports, __version__, args.json), args.out)
    if args.verb == "verify":
        print(f"elapsed: {wall:.2f}s", file=sys.stderr)
    return 0 if all(r.overall for r in reports) else 1


def main(argv=None) -> int:
    parser = create_parser()
    args = parser.parse_args(argv)
    if args.verb is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        if args.samples < 1:
            raise CliUsageError(f"--samples must be at least 1, got {args.samples}")
        if not 0 <= args.enum_cap <= MAX_ENUM_CAP:
            raise CliUsageError(f"--enum-cap must be at least 0 and at most "
                                f"{MAX_ENUM_CAP}, got {args.enum_cap}")
        if args.verb == "build":
            try:
                inst = build(args.name)
            except UnknownInstanceError as e:
                print(f"error: {e}", file=sys.stderr)
                return 2
            _write(json.dumps(algebra_to_json(inst.algebra), indent=2) + "\n",
                   args.out)
            return 0
        t0 = time.perf_counter()
        reports = _reports(args)
        wall = time.perf_counter() - t0
        return _emit(reports, args, wall)
    except CliUsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except CliInputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
