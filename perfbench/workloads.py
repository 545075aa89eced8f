"""Workload definitions shared by run.py and its child processes.

A workload is a list of commands run one after another by a single client
(closed loop).  Each command is either an ``altalg`` invocation (argv after
``python3 -m altalg``, the seed appended as ``--seed N``) or the seeded
GF(2)(s,t) elimination batch of ``ratfun.py``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# The only seed whose stdout digests are recorded in expected.json.
REFERENCE_SEED = 42

RATFUN_BATCH = "ratfun-rref-batch"


class Command:
    def __init__(self, key: str, argv: list | None = None):
        self.key = key            # stable name used in reports and expected.json
        self.argv = argv          # altalg argv without --seed; None for the batch

    @property
    def is_batch(self) -> bool:
        return self.argv is None

    def altalg_argv(self, seed: int) -> list:
        return list(self.argv) + ["--seed", str(seed)]

    def child_argv(self, seed: int) -> list:
        if self.is_batch:
            return [sys.executable, str(BENCH_DIR / "ratfun.py"), "--seed", str(seed)]
        return [sys.executable, "-m", "altalg"] + self.altalg_argv(seed)


def _cmd(*argv) -> Command:
    return Command(" ".join(argv), list(argv))


class Workload:
    def __init__(self, name: str, commands: list, targets: tuple):
        self.name = name
        self.commands = commands
        self.targets = targets    # catalog instances built during set-up

    @property
    def has_batch(self) -> bool:
        return any(c.is_batch for c in self.commands)


VERIFY_SERIAL = "verify all --json"
VERIFY_PARALLEL = "verify all --json --parallel"

WORKLOADS = {w.name: w for w in (
    Workload(
        "verify-all",
        [_cmd("verify", "all", "--json"),
         _cmd("verify", "all", "--json", "--parallel")],
        ("zorn", "quaternions-Q", "split-octonions-Q", "gagola-B",
         "lemma23-Dx", "remark22", "trivial-nilpotent", "upper3")),
    Workload(
        "operator-spaces",
        [_cmd("leibniz", "remark22", "--order", "5", "--json"),
         _cmd("leibniz", "split-octonions-Q", "--order", "4", "--json"),
         _cmd("quasiderivations", "split-octonions-Q", "--json"),
         _cmd("derivations", "split-octonions-Q", "--json")],
        ("remark22", "split-octonions-Q")),
    Workload(
        "ratfun-elimination",
        [_cmd("derivations", "gagola-B", "--json"),
         _cmd("quasiderivations", "gagola-B", "--json"),
         _cmd("leibniz", "gagola-B", "--order", "3", "--json"),
         Command(RATFUN_BATCH)],
        ("gagola-B",)),
)}


def use_checkout_source() -> None:
    """Make ``import altalg`` load the package of this checkout, or exit 2."""
    if not (SRC / "altalg" / "__init__.py").is_file():
        sys.exit(f"error: no altalg package under {SRC}")
    sys.path.insert(0, str(SRC))


def digest(stdout: bytes, seed: int) -> str:
    """md5 of stdout with the reports' ``"seed": N`` fields set to the
    reference seed.  At the seed commit every command's output depends on
    the seed only through that field, so one recorded digest gates them all."""
    norm = stdout.replace(b'"seed": %d,' % seed, b'"seed": %d,' % REFERENCE_SEED)
    return hashlib.md5(norm).hexdigest()


def failed_suites(stdout: bytes) -> list:
    """Names of the suites in a ``verify --json`` report whose overall is not pass."""
    try:
        doc = json.loads(stdout)
    except ValueError:
        return ["<unparsable report>"]
    reports = doc if isinstance(doc, list) else [doc]
    return [r.get("suite", "?") for r in reports if r.get("overall") != "pass"]
