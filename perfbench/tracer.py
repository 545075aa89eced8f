"""In-process traced run of one workload, for the per-layer metrics.

The child imports altalg once (timing the import), then runs each of the
workload's commands through ``altalg.cli.main(argv)`` twice: untraced, and
again with the public functions of each altalg module wrapped.  Wrappers are
patched into every module namespace and module-level dict that holds the
original, so ``kernel`` is traced whether it is called from ``operators``,
``suites`` or ``algebra``.  Hot methods (``Algebra.mul``, ``RatFunField``
``mul``/``add``) are only counted.  Spans stay in memory, one list per
thread, and are written out at the end.

    python3 perfbench/tracer.py --workload operator-spaces --seed 42 --spans out.json

The last stdout line is a JSON summary: per-command exit codes, digests and
wall times of both runs, and the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import sys
import threading
from collections import Counter
from time import perf_counter

from workloads import (VERIFY_PARALLEL, VERIFY_SERIAL, WORKLOADS, digest,
                       use_checkout_source)

MODULES = ("cli", "catalog", "suites", "scan", "algebra", "linalg", "fields",
           "operators", "quadratic")
# (module, class, method, label): hot methods that are counted, never timed
COUNTED_METHODS = (("algebra", "Algebra", "mul", "algebra.mul"),
                   ("fields", "RatFunField", "mul", "fields.ratfun2.mul"),
                   ("fields", "RatFunField", "add", "fields.ratfun2.add"))
TIMED_METHODS = (("algebra", "Algebra", "invert_element", "algebra.invert_element"),
                 ("algebra", "Algebra", "find_unit", "algebra.find_unit"))
KINDS = ("prime", "rationals", "ratfun2")
OPERATOR_SPACES = ("leibniz_space", "derivation_space", "quasider_space")


def _matrix_attrs(m, *args, **kwargs):
    return (m.field.kind, m.nrows, m.ncols)


def _first_arg(x, *args, **kwargs):
    return x


# span label -> function of the call's arguments giving the span's attributes
ATTRS = {"linalg.kernel": _matrix_attrs, "linalg.solve": _matrix_attrs,
         "linalg.rref": _matrix_attrs, "suites.run_suite": _first_arg,
         "catalog.build": _first_arg}

# span fields
NAME, START, END, PARENT, ATTR, CMD = range(6)


class _ThreadState:
    def __init__(self):
        self.spans = []       # [name, start, end, parent index, attrs, command]
        self.stack = []
        self.counts = Counter()
        self.peak_terms = 0


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.threads = []     # one _ThreadState per thread, main thread first
        self.cmd = -1         # index of the command being run
        self.per_command = []  # (counts, peak term count) of each finished command
        self._undo = []

    def state(self) -> _ThreadState:
        try:
            return self._local.st
        except AttributeError:
            st = self._local.st = _ThreadState()
            with self._lock:
                self.threads.append(st)
            return st

    def end_command(self) -> None:
        """Move the counts of the command just finished out of the threads."""
        counts, peak = Counter(), 0
        for st in self.threads:
            counts.update(st.counts)
            st.counts.clear()
            peak = max(peak, st.peak_terms)
            st.peak_terms = 0
        self.per_command.append((counts, peak))

    def timed(self, fn, name, attrs=None):
        state = self.state

        def wrapper(*args, **kwargs):
            st = state()
            rec = [name, 0.0, 0.0, st.stack[-1] if st.stack else -1,
                   attrs(*args, **kwargs) if attrs else None, self.cmd]
            st.stack.append(len(st.spans))
            st.spans.append(rec)
            rec[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                st.stack.pop()
        return wrapper

    def counted(self, fn, name):
        state = self.state

        def wrapper(*args, **kwargs):
            state().counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def counted_vectors(self, fn):
        """scan.vector_blocks: count the vectors it yields."""
        state = self.state

        def wrapper(*args, **kwargs):
            for start, block in fn(*args, **kwargs):
                state().counts["scan.vectors"] += len(block)
                yield start, block
        return wrapper

    def guard(self, fn):
        """RatFunField._guard sees every result of mul/add: track its size."""
        state = self.state

        def wrapper(field, a):
            n = len(a.num.terms) + len(a.den.terms)
            st = state()
            if n > st.peak_terms:
                st.peak_terms = n
            return fn(field, a)
        return wrapper

    def _patch(self, target, key, value) -> None:
        if type(target) is dict:
            self._undo.append((target, key, target[key]))
            target[key] = value
        else:
            self._undo.append((target, key, vars(target)[key]))
            setattr(target, key, value)

    def uninstall(self) -> None:
        for target, key, old in reversed(self._undo):
            if type(target) is dict:
                target[key] = old
            else:
                setattr(target, key, old)
        self._undo = []

    def install(self) -> None:
        """Wrap the public functions of MODULES; ``uninstall`` puts the
        originals back.  A generator function is not timed (its call returns
        before the work is done); scan.vector_blocks is counted instead."""
        mods = {short: sys.modules[f"altalg.{short}"] for short in MODULES}
        replace = {}
        for short, mod in mods.items():
            for name, obj in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                label = f"{short}.{name}"
                if label == "scan.vector_blocks":
                    replace[obj] = self.counted_vectors(obj)
                elif not inspect.isgeneratorfunction(obj):
                    replace[obj] = self.timed(obj, label, ATTRS.get(label))
        for modname, mod in list(sys.modules.items()):
            if modname != "altalg" and not modname.startswith("altalg."):
                continue
            for key, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in replace:
                    self._patch(mod, key, replace[val])
                elif type(val) is dict:
                    for k, v in list(val.items()):
                        if inspect.isfunction(v) and v in replace:
                            self._patch(val, k, replace[v])
        for short, cls, meth, label in COUNTED_METHODS:
            klass = getattr(mods[short], cls)
            self._patch(klass, meth, self.counted(vars(klass)[meth], label))
        for short, cls, meth, label in TIMED_METHODS:
            klass = getattr(mods[short], cls)
            self._patch(klass, meth, self.timed(vars(klass)[meth], label))
        ratfun_field = mods["fields"].RatFunField
        self._patch(ratfun_field, "_guard", self.guard(vars(ratfun_field)["_guard"]))


def run_command(cmd, seed: int, batch) -> dict:
    """Run one command in-process: exit code, stdout digest, wall time."""
    import altalg.cli
    import ratfun

    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if cmd.is_batch:
            text, ok = ratfun.run_batch(batch)
            out.write(text)
            rc = 0 if ok else 1
        else:
            try:
                rc = altalg.cli.main(cmd.altalg_argv(seed))
            except SystemExit as e:
                rc = e.code if isinstance(e.code, int) else 1
    wall = perf_counter() - t0
    return {"rc": rc, "md5": digest(out.getvalue().encode(), seed), "wall_s": wall}


def _span_table(tracer: Tracer) -> list:
    """Per thread: spans, their durations and the linalg time they contain
    (children come after their parent)."""
    table = []
    for st in tracer.threads:
        spans = st.spans
        n = len(spans)
        dur = [s[END] - s[START] for s in spans]
        linalg_in = [0.0] * n
        for i in range(n - 1, -1, -1):
            p = spans[i][PARENT]
            if p >= 0:
                linalg_in[p] += dur[i] if spans[i][NAME].startswith("linalg.") \
                    else linalg_in[i]
        table.append((spans, dur, linalg_in))
    return table


def covered_time(tracer: Tracer, ncommands: int) -> list:
    """Per command, the wall time covered by the top spans below ``cli``:
    spans of the other modules called from cli or from untraced code.
    ``cli.main`` spans every command, so it is left out; intervals are
    merged over threads, so suites running side by side count once."""
    intervals = [[] for _ in range(ncommands)]
    for st in tracer.threads:
        spans = st.spans
        for s in spans:
            p = s[PARENT]
            if not s[NAME].startswith("cli.") and (
                    p < 0 or spans[p][NAME].startswith("cli.")):
                intervals[s[CMD]].append((s[START], s[END]))
    covered = []
    for iv in intervals:
        total, reach = 0.0, float("-inf")
        for start, end in sorted(iv):
            if end > reach:
                total += end - max(start, reach)
                reach = end
        covered.append(total)
    return covered


def _outermost(spans, i) -> bool:
    """No ancestor of span i has the same name (recursion counted once)."""
    name, p = spans[i][NAME], spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return False
        p = spans[p][PARENT]
    return True


def layer_metrics(tracer: Tracer, commands, import_s: float) -> dict:
    """Per-layer metrics of the traced pass.  ``verify all --parallel`` only
    gives suites.overlap; every other metric comes from the other commands,
    so contention between suite threads does not inflate layer times."""
    from altalg.suites import SUITE_ORDER

    table = _span_table(tracer)
    keys = [c.key for c in commands]
    serial = keys.index(VERIFY_SERIAL) if VERIFY_SERIAL in keys else None
    parallel = keys.index(VERIFY_PARALLEL) if VERIFY_PARALLEL in keys else None
    counts, peak_terms = Counter(), 0
    for i, (c, peak) in enumerate(tracer.per_command):
        if i != parallel:
            counts.update(c)
            peak_terms = max(peak_terms, peak)

    total = Counter()       # outermost span time by label (and label|attr)
    calls = Counter()
    cells = Counter()
    suite_s = Counter()
    suite_sum_parallel = 0.0
    parallel_wall = 0.0
    op_self = Counter()
    system_rows = 0
    for spans, dur, linalg_in in table:
        for i, s in enumerate(spans):
            name, attrs = s[NAME], s[ATTR]
            if s[CMD] == parallel:
                if name == "suites.run_suite":
                    suite_sum_parallel += dur[i]
                elif name == "cli.main":
                    parallel_wall += dur[i]
                continue
            calls[name] += 1
            if _outermost(spans, i):
                total[name] += dur[i]
                if name.startswith("linalg."):
                    total[f"{name}|{attrs[0]}"] += dur[i]
            if name.startswith("linalg."):
                calls[f"{name}|{attrs[0]}"] += 1
                if name == "linalg.kernel":
                    cells[attrs[0]] += attrs[1] * attrs[2]
                    p = s[PARENT]
                    if p >= 0 and spans[p][NAME].startswith("operators."):
                        system_rows += attrs[1]
            elif name == "suites.run_suite" and s[CMD] == serial:
                suite_s[attrs] += dur[i]
            if name[len("operators."):] in OPERATOR_SPACES:
                op_self[name] += dur[i] - linalg_in[i]

    m = {"cli.import_s": import_s, "catalog.build_s": total["catalog.build"]}
    for suite in SUITE_ORDER:
        m[f"suites.{suite}.s"] = suite_s[suite]
    m["suites.overlap"] = suite_sum_parallel / parallel_wall if parallel_wall else 0.0
    m["scan.middle_moufang.s"] = total["scan.scan_middle_moufang"]
    m["scan.jordan.s"] = total["scan.scan_jordan"]
    m["scan.find_invertible_combo.s"] = total["scan.find_invertible_combo"]
    m["scan.vectors"] = counts["scan.vectors"]
    m["algebra.mul.calls"] = counts["algebra.mul"]
    m["algebra.check_identity.s"] = total["algebra.check_identity"]
    m["algebra.invert_element.calls"] = calls["algebra.invert_element"]
    m["algebra.invert_element.s"] = total["algebra.invert_element"]
    m["algebra.find_unit.calls"] = calls["algebra.find_unit"]
    for op in OPERATOR_SPACES:
        m[f"operators.{op}.self_s"] = op_self[f"operators.{op}"]
    m["operators.mult_lie_algebra.s"] = total["operators.mult_lie_algebra"]
    m["operators.system_rows"] = system_rows
    for fn in ("kernel", "solve", "rref"):
        for kind in KINDS:
            m[f"linalg.{fn}.{kind}.s"] = total[f"linalg.{fn}|{kind}"]
            m[f"linalg.{fn}.{kind}.calls"] = calls[f"linalg.{fn}|{kind}"]
    for kind in KINDS:
        m[f"linalg.kernel.{kind}.cells"] = cells[kind]
    m["fields.ratfun2.mul.calls"] = counts["fields.ratfun2.mul"]
    m["fields.ratfun2.add.calls"] = counts["fields.ratfun2.add"]
    m["fields.ratfun2.peak_terms"] = peak_terms
    m["quadratic.cd_inverse.calls"] = calls["quadratic.cd_inverse"]
    m["quadratic.find_isotropic.s"] = total["quadratic.find_isotropic"]
    m["quadratic.zorn.s"] = total["quadratic.zorn"]
    return m


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spans", required=True, help="file the spans are written to")
    args = ap.parse_args()
    use_checkout_source()
    t0 = perf_counter()
    import altalg.cli  # noqa: F401  (imports every module of the package)
    import_s = perf_counter() - t0

    w = WORKLOADS[args.workload]
    batch = None
    if w.has_batch:
        import ratfun
        batch = ratfun.make_batch(args.seed)
    # Each command runs untraced, then traced right after, so both runs see
    # the same warm process and nearly the same machine state.
    tracer = Tracer()
    tracer.state()        # the main thread's spans come first
    untraced, traced = [], []
    for i, cmd in enumerate(w.commands):
        untraced.append(run_command(cmd, args.seed, batch))
        tracer.install()
        tracer.cmd = i
        try:
            traced.append(run_command(cmd, args.seed, batch))
        finally:
            tracer.uninstall()
        tracer.end_command()
    untraced_wall = sum(r["wall_s"] for r in untraced)
    traced_wall = sum(r["wall_s"] for r in traced)

    metrics = layer_metrics(tracer, w.commands, import_s)
    covered = covered_time(tracer, len(w.commands))
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    metrics["trace.coverage"] = sum(covered) / traced_wall
    for t, c in zip(traced, covered):
        t["coverage"] = c / t["wall_s"]
    threads = {}
    for st in tracer.threads:
        for cmd in {s[CMD] for s in st.spans if s[NAME] == "suites.run_suite"}:
            threads[cmd] = threads.get(cmd, 0) + 1
    with open(args.spans, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "attrs", "command"],
                   "commands": [c.key for c in w.commands],
                   "threads": [st.spans for st in tracer.threads]}, fh)
    summary = {
        "import_s": import_s,
        "untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall,
        "suite_threads": {w.commands[c].key: n for c, n in threads.items()},
        "commands": [{"key": c.key, "untraced": u, "traced": t}
                     for c, u, t in zip(w.commands, untraced, traced)],
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
