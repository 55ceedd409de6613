"""One fresh interpreter running one pass over a workload's op stream.

Started by run.py.  Prints `ready` once the library is imported and the
inputs are loaded (the end of set-up), then, depending on --mode:

  ready   exits at once (a set-up probe);
  timed   runs ops from the start of the stream, one after another, until
          the ops' own time reaches --seconds and at least --min-ops ops
          ran, or the stream ends;
  count   runs exactly --ops ops, untraced;
  traced  runs exactly --ops ops with every layer traced, then writes the
          spans to --spans.

Before the first op and after every op the worker times `speed_kernel`, a
fixed piece of exact arithmetic; run.py scales each op's latency by the
kernel times around it to report timings at a reference machine speed.

Each op's output document goes to --docs as it is made.  Only after the
last op are the documents read back, checked against the workload's
invariants and, for the first DIGEST_OPS ops, hashed; so the checks' own
library calls cannot warm a cache that a later op would find.  Peak RSS
and the failures counted in `failed_head` are taken over the first MIN_OPS
ops, a fixed amount of work however fast the machine or the program runs.
The result goes to --out as JSON.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

MIN_OPS = 200
DIGEST_OPS = 100
MAX_VIOLATIONS_KEPT = 20

_KERNEL_N = 6
_KERNEL_MATRIX = [
    [Fraction((3 * i + 7 * j) % 11 - 5, 1 + (i + j) % 4)
     for j in range(_KERNEL_N)]
    for i in range(_KERNEL_N)
]


def speed_kernel() -> float:
    """Seconds taken by a fixed Fraction elimination (about 5 ms).

    Pure Python and `fractions`, like the library's hot paths, and
    independent of the library, so its time moves only with the machine.
    The garbage collector is off meanwhile: a collection would scan the
    program's own objects and tie the kernel's time to the program's heap.
    """
    gc.disable()
    t0 = time.perf_counter()
    for _ in range(20):
        a = [row[:] for row in _KERNEL_MATRIX]
        for c in range(_KERNEL_N):
            p = next((r for r in range(c, _KERNEL_N) if a[r][c]), None)
            if p is None:
                continue
            a[c], a[p] = a[p], a[c]
            for r in range(c + 1, _KERNEL_N):
                f = a[r][c] / a[c][c]
                for j in range(c, _KERNEL_N):
                    a[r][j] -= f * a[c][j]
    elapsed = time.perf_counter() - t0
    gc.enable()
    return elapsed


def parse_args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--inputs", required=True)
    p.add_argument("--mode", choices=("ready", "timed", "count", "traced"),
                   required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--min-ops", type=int, default=MIN_OPS)
    p.add_argument("--ops", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("--docs")
    p.add_argument("--spans")
    return p.parse_args(argv)


def import_library():
    """Import toricapprox from this checkout's src/, and nowhere else."""
    sys.path.insert(0, SRC)
    import toricapprox

    where = os.path.dirname(os.path.abspath(toricapprox.__file__))
    if where != os.path.join(SRC, "toricapprox"):
        raise SystemExit(f"toricapprox imported from {where}, not {SRC}")


def cache_snapshot(cached) -> dict:
    """Layer -> [hits, misses, entries] over that layer's lru caches."""
    out = {}
    for layer, fns in cached.items():
        infos = [fn.cache_info() for fn in fns]
        out[layer] = [sum(i.hits for i in infos), sum(i.misses for i in infos),
                      sum(i.currsize for i in infos)]
    return out


def check_documents(workload, path, ops) -> tuple:
    """(op hashes of the first DIGEST_OPS ops, violation count, kept
    violations) from the documents written during the run."""
    op_hashes, violations, count = [], [], 0
    with open(path) as fh:
        for i, line in enumerate(fh):
            doc = json.loads(line)
            if doc is None:
                if i < DIGEST_OPS:
                    op_hashes.append(None)
                continue
            bad = workload.check(i, doc)
            count += len(bad)
            violations += bad[: MAX_VIOLATIONS_KEPT - len(violations)]
            if i < DIGEST_OPS:
                text = ops.report.render(doc)
                op_hashes.append(hashlib.sha256(text.encode()).hexdigest())
    return op_hashes, count, violations


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import ops
    import tracer as tracing

    with open(args.inputs) as fh:
        spec = json.load(fh)
    if spec.get("cwd"):
        os.chdir(spec["cwd"])
    workload = ops.WORKLOADS[args.workload](spec["stream"])
    tracer = None
    cached = {}
    if args.mode in ("count", "traced"):
        # Both sides of the overhead comparison import every layer up
        # front, so a lazy import (sympy, via casestudy) lands in neither.
        tracing.layer_modules()
    if args.mode == "traced":
        tracer = tracing.Tracer()
        tracing.install(tracer)
        cached = tracing.cached_functions()
    print("ready", flush=True)
    if args.mode == "ready":
        return 0

    stream_len = len(workload.stream)
    if args.ops > stream_len:
        raise SystemExit(f"--ops {args.ops} exceeds the stream ({stream_len})")
    latencies = []
    kernel_s = [speed_kernel()]
    failures = {}
    failed_head = 0
    cache_delta = {layer: [0, 0] for layer in cached}
    busy = 0.0
    peak_rss_kb = None
    i = 0
    docs = open(args.docs, "w")
    while i < stream_len:
        if args.mode == "timed":
            if busy >= args.seconds and i >= args.min_ops:
                break
        elif i >= args.ops:
            break
        before = cache_snapshot(cached) if tracer else None
        if tracer:
            tracer.open_op()
        t0 = time.perf_counter()
        try:
            out = workload.run(i)
            error = None
        except Exception as exc:  # every failure is counted, by class
            out = None
            error = exc
        t1 = time.perf_counter()
        if tracer:
            tracer.close_op(error is None)
            after = cache_snapshot(cached)
            for layer in cached:
                for k in (0, 1):
                    cache_delta[layer][k] += after[layer][k] - before[layer][k]
        kernel_s.append(speed_kernel())
        latencies.append(t1 - t0)
        busy += t1 - t0
        if error is not None:
            key = f"{type(error).__name__}: {error}"
            failures[key] = failures.get(key, 0) + 1
            failed_head += i < MIN_OPS
            docs.write("null\n")
        else:
            docs.write(json.dumps(workload.document(out)) + "\n")
        i += 1
        if i == MIN_OPS:
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    docs.close()
    if peak_rss_kb is None:
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    op_hashes, violation_count, violations = check_documents(
        workload, args.docs, ops)
    result = {
        "attempted": i,
        "failed": sum(failures.values()),
        "failed_head": failed_head,
        "stream_len": stream_len,
        "failures": failures,
        "latencies": latencies,
        "kernel_s": kernel_s,
        "op_hashes": op_hashes,
        "violations": violations,
        "violation_count": violation_count,
        "peak_rss_kb": peak_rss_kb,
    }
    if tracer:
        entries = cache_snapshot(cached)
        result["cache"] = {
            layer: cache_delta[layer] + [entries[layer][2]] for layer in cached
        }
        with open(args.spans, "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
