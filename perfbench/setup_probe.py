"""One cold set-up of a workload: import altalg, parse every command line of
the workload, build its catalog instances and, for the elimination batch,
generate the seeded matrices.  run.py times this process from outside.

    python3 perfbench/setup_probe.py --workload verify-all --seed 42
"""

from __future__ import annotations

import argparse
import sys

from workloads import WORKLOADS, use_checkout_source


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    use_checkout_source()
    from altalg import catalog, cli

    w = WORKLOADS[args.workload]
    parser = cli.create_parser()
    for c in w.commands:
        if not c.is_batch:
            parser.parse_args(c.altalg_argv(args.seed))
    for name in w.targets:
        catalog.build(name)
    if w.has_batch:
        import ratfun
        ratfun.make_batch(args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
