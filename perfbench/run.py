"""Benchmark for foliation-lab: three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Workloads are ``corpus``, ``exact_blowups`` and ``plane_reduction``; ``all``
(the default) runs the three in this one process, one after the other.

``--trace 0`` sets the workload up several times (the first in this process,
the rest in fresh interpreters, for ``setup_s``), then runs untraced passes
over the items for about half of ``--seconds``, re-times the cheaper items in
rounds for the rest, and prints the end-to-end metrics.  ``--trace 1`` runs one untraced and one traced pass and prints the
per-layer metrics with the tracing overhead.  Every item result is checked
against a reference; the last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit status: 0 when every check passes, 1 when one fails, 2 when the library
sources are not found next to this directory.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("corpus", "exact_blowups", "plane_reduction")
SETUP_SAMPLES = 5          # setups per run; setup_s is their median
MIN_PASSES = 2             # per-item times are medians over at least this many passes
PASS_SHARE = 0.5           # share of --seconds for whole passes beyond MIN_PASSES
MAX_SAMPLES = 25           # per-item time samples, passes and re-timing rounds together
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("items_per_s", "1/s"),
              ("item_p50_ms", "ms"), ("item_tail_ms", "ms"), ("peak_rss_mb", "MB"))


class DeadlineExceeded(BaseException):
    """Raised into an item that overran its deadline.

    A BaseException, so library code that catches Exception cannot swallow it.
    """


class Deadline:
    """Per-item wall-clock deadline from SIGALRM, armed only around an item."""

    def __init__(self):
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise DeadlineExceeded()

    def call(self, fn, arg, seconds):
        self.armed = seconds is not None
        if self.armed:
            signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            return fn(arg)
        finally:
            self.armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)


def load_library():
    src = ROOT / "src"
    if not (src / "foliationlab" / "__init__.py").is_file():
        print(f"error: library sources not found under {src}", file=sys.stderr)
        raise SystemExit(2)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def setup(name, seed):
    """Import, generate, parse and run one warm-up item; returns the pieces."""
    t0 = perf_counter()
    import workloads
    wl = workloads.WORKLOADS[name]
    specs = wl.generate(seed)
    prepared = [wl.prepare(spec) for spec in specs]
    wl.run(wl.prepare(wl.warmup()))
    return perf_counter() - t0, wl, specs, prepared


def child_setup_seconds(name, seed):
    """setup_s measured in a fresh interpreter, so imports are cold again."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_item(deadline, wl, prepared, seconds):
    """(status, result, error text, item seconds) of one item."""
    t0 = perf_counter()
    try:
        result = deadline.call(wl.run, prepared, seconds)
    except DeadlineExceeded:
        return "deadline", None, None, perf_counter() - t0
    except Exception as e:  # a library failure is a failed item, not a crash
        return "error", None, f"{type(e).__name__}: {e}", perf_counter() - t0
    return "ok", result, None, perf_counter() - t0


def fresh_state():
    sympy = sys.modules.get("sympy")
    if sympy is not None:
        sympy.core.cache.clear_cache()   # each pass pays for its own factorisations
    gc.collect()


def checked_records(wl, specs, records):
    checked = []
    for spec, (status, result, error, dt) in zip(specs, records):
        if status == "ok":
            error = wl.check(spec, result)
            if error is not None:
                status = "check_failed"
        checked.append((status, result, error, dt))
    return checked


def run_pass(deadline, wl, specs, prepared, deadlines, tracer=None):
    """One pass over the items; checks run after the timed loop."""
    fresh_state()
    records = []
    t0 = perf_counter()
    for item, seconds in zip(prepared, deadlines):
        records.append(run_item(deadline, wl, item, seconds))
        if tracer is not None:
            tracer.end_item()
    wall = perf_counter() - t0
    return wall, checked_records(wl, specs, records)


def retime(deadline, wl, specs, prepared, samples, eligible, until, budget_s):
    """Rounds over the eligible items, in pass order, until ``until``.

    An item runs in a round while its samples sum to less than ``budget_s``
    and number fewer than MAX_SAMPLES, so cheap items gain many samples and
    an item that fills a pass alone gains none.  Appends to ``samples``;
    returns the checked records of every run.
    """
    records = []
    while perf_counter() < until:
        todo = [i for i in range(len(prepared)) if eligible[i]
                and len(samples[i]) < MAX_SAMPLES and sum(samples[i]) < budget_s]
        if not todo:
            break
        fresh_state()
        for i in todo:
            if perf_counter() >= until:
                break
            record = run_item(deadline, wl, prepared[i], wl.deadline_s)
            samples[i].append(record[3])
            records += checked_records(wl, [specs[i]], [record])
    return records


def digest(records):
    canon = [[status, result] for status, result, _e, _t in records]
    blob = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def tail(values):
    """Highest ladder percentile with at least ten values beyond it (nearest rank).

    With fewer than twenty values no percentile qualifies and the largest
    value is reported, as percentile 100.
    """
    s = sorted(values)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100 * len(s))
        if len(s) - rank >= 10:
            return p, s[rank - 1]
    return 100.0, s[-1]


def tally(records):
    counts = {"ok": 0, "deadline": 0, "error": 0, "check_failed": 0}
    for status, *_ in records:
        counts[status] += 1
    return counts


def problems(records):
    return [{"item": i, "status": status, "error": error}
            for i, (status, _r, error, _t) in enumerate(records)
            if status in ("error", "check_failed")]


def measure(name, seed, seconds):
    """Untraced passes: the end-to-end metrics of one workload."""
    setup_s, wl, specs, prepared = setup(name, seed)
    setups = [setup_s] + [child_setup_seconds(name, seed)
                          for _ in range(SETUP_SAMPLES - 1)]
    deadline = Deadline()
    deadlines = [wl.deadline_s] * len(prepared)
    t0 = perf_counter()
    passes = [run_pass(deadline, wl, specs, prepared, deadlines)]
    for _ in range(max(MIN_PASSES, int(seconds * PASS_SHARE // passes[0][0])) - 1):
        passes.append(run_pass(deadline, wl, specs, prepared, deadlines))
    n = len(specs)
    samples = [[p[1][i][3] for p in passes] for i in range(n)]
    # Only items that finished in every pass are re-timed; a deadline miss
    # keeps its pass samples.
    eligible = [all(p[1][i][0] == "ok" for p in passes) for i in range(n)]
    extra = retime(deadline, wl, specs, prepared, samples, eligible,
                   t0 + seconds, seconds / n)
    # Per-item medians keep the tail percentile fixed by the item count,
    # whatever the number of passes.
    per_item = [statistics.median(s) for s in samples]
    tail_p, tail_s = tail(per_item)
    walls = [wall for wall, _ in passes]
    all_records = [r for _, records in passes for r in records] + extra
    counts = tally(all_records)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "items_per_s": statistics.median(tally(records)["ok"] / wall
                                         for wall, records in passes),
        "item_p50_ms": statistics.median(per_item) * 1e3,
        "item_tail_ms": tail_s * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    digests = [digest(records) for _, records in passes]
    detail = {
        "workload": name, "items": n, "passes": len(passes),
        "item_samples": [len(s) for s in samples],
        "deadline_s": wl.deadline_s, "setup_samples_s": setups, "pass_walls_s": walls,
        "item_tail_percentile": tail_p, "item_tail_count": n,
        "attempted": len(all_records), "failed": len(all_records) - counts["ok"],
        "fail_frac": (len(all_records) - counts["ok"]) / len(all_records),
        "deadline_misses": counts["deadline"], "status_counts": counts,
        "results_digest": digests[0], "digest_stable": len(set(digests)) == 1,
        "problems": problems(passes[0][1]),
    }
    correct = counts["error"] == 0 and counts["check_failed"] == 0
    return correct, metrics, detail


def measure_traced(name, seed):
    """One untraced and one traced pass: the per-layer metrics of one workload."""
    _setup_s, wl, specs, prepared = setup(name, seed)
    deadline = Deadline()
    plain_wall, plain = run_pass(deadline, wl, specs, prepared,
                                 [wl.deadline_s] * len(prepared))
    # Items that finished untraced run without a deadline, so the tracing
    # overhead cannot turn them into misses; missed ones keep theirs.
    deadlines = [wl.deadline_s if status == "deadline" else None
                 for status, *_ in plain]
    tracer = tracing.Tracer()
    with tracer:
        traced_wall, traced = run_pass(deadline, wl, specs, prepared, deadlines, tracer)
    overhead = (traced_wall - plain_wall) / plain_wall
    plain_digest, traced_digest = digest(plain), digest(traced)
    counts = tally(plain + traced)
    detail = {
        "workload": name, "items": len(specs), "deadline_s": wl.deadline_s,
        "untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
        "results_digest": plain_digest, "traced_results_digest": traced_digest,
        "attempted": len(plain) + len(traced), "failed": 2 * len(specs) - counts["ok"],
        "deadline_misses": counts["deadline"], "status_counts": counts,
        "scenario_s": dict(sorted(tracer.scenario_s.items())),
        "problems": problems(plain) + problems(traced),
    }
    correct = (counts["error"] == 0 and counts["check_failed"] == 0
               and plain_digest == traced_digest)
    return correct, tracer.metrics(overhead), detail


def git_commit():
    """HEAD of the checkout, read from .git without running git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed, details):
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None
    return {"commit": git_commit(), "python": platform.python_version(),
            "numpy": version("numpy"), "sympy": version("sympy"),
            "nproc": os.cpu_count(), "seed": seed,
            "items": {d["workload"]: d["items"] for d in details},
            "deadline_s": {d["workload"]: d["deadline_s"] for d in details}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    load_library()
    if args.setup_only:
        print(json.dumps({"setup_s": setup(args.workload, args.seed)[0]}))
        return 0
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    units = dict(END_TO_END)
    if args.trace:
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    correct, attempted, failed, metrics, details = True, 0, 0, {}, []
    for name in names:
        if args.trace:
            ok, values, detail = measure_traced(name, args.seed)
        else:
            ok, values, detail = measure(name, args.seed, args.seconds)
        correct = correct and ok
        attempted += detail["attempted"]
        failed += detail["failed"]
        details.append(detail)
        prefix = "" if len(names) == 1 else name + "."
        for key, value in values.items():
            print(f"[{name}] {key} = {value:.6g} {units[key]}")
            metrics[prefix + key] = {"value": value, "unit": units[key]}
        print(f"[{name}] detail {json.dumps(detail, sort_keys=True)}")
    print(f"provenance {json.dumps(provenance(args.seed, details), sort_keys=True)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
