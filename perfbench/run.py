"""Benchmark of toricapprox: three closed-loop, single-caller workloads.

    python3 perfbench/run.py --workload wps_sweep --seed 1 --seconds 30

Run from the root of a checkout.  The inputs are generated from --seed,
then every measurement runs in a fresh interpreter (perfbench/worker.py),
so the library's module-level caches start empty, as for a CLI user.  One
worker process runs at a time.

--trace 0 prints the end-to-end metrics: set-up time (median of several
fresh starts), ops per second, op latency p50/p95, peak RSS and the share
of ops that succeeded.  Its timings are given at a reference machine speed
(see SPEED_REF_S); the raw figures are printed above the result line.
--trace 1 runs a fixed number of ops twice, untraced and traced, and prints
the per-layer metrics of the traced run plus the tracing overhead.

Every op's output is checked against invariants; the first outputs are
hashed and compared with perfbench/reference.json when it has the seed.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; attempted and failed cover the first
MIN_OPS ops of a timed run (all ops of a traced run), a fixed amount of
work, so runs of one seed report the same counts.  A failed check exits with code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

from worker import DIGEST_OPS, MIN_OPS, speed_kernel

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
REFERENCE = os.path.join(HERE, "reference.json")
WORKDIR = os.path.join(ROOT, ".perfbench_work")

WORKLOADS = ("wps_sweep", "mmp_driver", "cli_session")
SETUP_PROBES = 20
# Timings are reported at a reference machine speed.  The machine the
# benchmark was tuned on changes speed by up to a third, in bursts of
# seconds and phases of minutes, for all pure-Python work alike; raw
# timings of one program spread more from run to run than the bounds allow.
# So worker.speed_kernel, a fixed piece of work independent of the library,
# is timed before and after every op and set-up, and each time is scaled by
# SPEED_REF_S over the mean of the two kernel times around it.  SPEED_REF_S
# is a round figure near the kernel's time on that machine (2 cores,
# Python 3.11.7) in a fast phase.
SPEED_REF_S = 0.005
# Ops per untraced/traced pair in a --trace 1 run: fixed, so two traced
# runs of one seed make identical calls.  300 mmp_driver ops hold five or
# six francia triples, enough for flips to show.
TRACE_OPS = {"wps_sweep": 100, "mmp_driver": 300, "cli_session": 300}
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--record-reference", action="store_true",
        help="compute the output digest of this seed and store it in "
             "perfbench/reference.json instead of measuring",
    )
    return p.parse_args(argv)


def _read_ready(proc, deadline: float) -> None:
    """Block until the worker prints its ready line (or the deadline)."""
    fd = proc.stdout.fileno()
    buf = b""
    while not buf.endswith(b"\n"):
        remaining = deadline - time.monotonic()
        if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
            raise BenchError("worker did not become ready in time")
        chunk = os.read(fd, 64)
        if not chunk:
            raise BenchError("worker exited before it was ready")
        buf += chunk
    if buf.strip() != b"ready":
        raise BenchError(f"unexpected worker output {buf!r}")


def spawn(workload, inputs, mode, deadline, **opts) -> tuple:
    """Run one worker to completion; returns (set-up seconds, result)."""
    out = os.path.join(os.path.dirname(inputs), f"{mode}.result.json")
    docs = os.path.join(os.path.dirname(inputs), f"{mode}.docs.jsonl")
    cmd = [sys.executable, WORKER, "--workload", workload, "--inputs", inputs,
           "--mode", mode, "--out", out, "--docs", docs]
    for key, value in opts.items():
        cmd += [f"--{key.replace('_', '-')}", str(value)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, cwd=ROOT, env=env) as proc:
        try:
            _read_ready(proc, deadline)
            setup = time.perf_counter() - start
            proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
        except (BenchError, subprocess.TimeoutExpired):
            proc.kill()
            proc.communicate()
            raise BenchError(f"{mode} worker timed out or died")
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with {proc.returncode}")
    if mode == "ready":
        return setup, None
    with open(out) as fh:
        return setup, json.load(fh)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(round(q * len(ordered), 9)) - 1)]


def digest(op_hashes, skip) -> str:
    h = hashlib.sha256()
    for i, op_hash in enumerate(op_hashes):
        if i not in skip:
            h.update(f"{i}:{op_hash}\n".encode())
    return h.hexdigest()


def load_reference() -> dict:
    try:
        with open(REFERENCE) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def check_reference(workload, seed, op_hashes) -> tuple:
    """(ok, message) for the first outputs against the recorded digest.

    Ops that failed when the reference was recorded are left out, so a
    later fix of such an op does not count as a mismatch; an op that
    succeeded then must succeed now with the identical document.
    """
    ref = load_reference().get(workload, {}).get(str(seed))
    if ref is None:
        return True, f"no reference digest for seed {seed}; invariants only"
    skip = set(ref["failed"])
    now_failing = sorted(i for i, h in enumerate(op_hashes)
                         if h is None and i not in skip)
    if now_failing:
        return False, f"ops {now_failing} failed; the reference has them pass"
    got = digest(op_hashes, skip)
    if got != ref["digest"]:
        return False, f"output digest {got} != reference {ref['digest']}"
    return True, f"output digest matches the reference for seed {seed}"


def record_reference(workload, seed, op_hashes) -> str:
    refs = load_reference()
    failed = [i for i, h in enumerate(op_hashes) if h is None]
    entry = {"digest": digest(op_hashes, set(failed)), "failed": failed}
    refs.setdefault(workload, {})[str(seed)] = entry
    with open(REFERENCE, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return entry["digest"]


def at_ref_speed(seconds: float, before: float, after: float) -> float:
    """A time taken between two kernel runs, at the reference speed."""
    return seconds * 2 * SPEED_REF_S / (before + after)


def scaled_latencies(res) -> list:
    k = res["kernel_s"]
    return [at_ref_speed(lat, k[i], k[i + 1])
            for i, lat in enumerate(res["latencies"])]


def setup_probe(workload, inputs, deadline) -> float:
    """One fresh start's set-up time, at the reference speed."""
    before = speed_kernel()
    setup = spawn(workload, inputs, "ready", deadline)[0]
    return at_ref_speed(setup, before, speed_kernel())


def timed_passes(workload, inputs, seconds, deadline) -> list:
    """Timed workers until the ops' time reaches `seconds`.

    Each worker is a fresh pass from the start of the stream with empty
    caches, so a program fast enough to finish the stream runs its first
    ops again cold, never from a warm cache.
    """
    passes = []
    remaining = seconds
    while not passes or remaining > 0:
        _, res = spawn(workload, inputs, "timed", deadline, seconds=remaining,
                       min_ops=1 if passes else MIN_OPS)
        passes.append(res)
        remaining -= sum(res["latencies"])
    if passes[0]["attempted"] < MIN_OPS:
        raise BenchError(f"the stream has fewer than {MIN_OPS} ops")
    return passes


def merge(passes) -> dict:
    """One result over all passes; digests come from the first pass."""
    res = dict(passes[0])
    res["failures"] = {}
    for key in ("attempted", "failed", "violation_count"):
        res[key] = sum(p[key] for p in passes)
    res["violations"] = [v for p in passes for v in p["violations"]]
    for p in passes:
        for key, count in p["failures"].items():
            res["failures"][key] = res["failures"].get(key, 0) + count
    return res


def end_to_end(workload, inputs, seconds, deadline) -> tuple:
    # Set-up probes run half before and half after the timed workers, so
    # their median spans the run rather than one moment of it.
    setups = [setup_probe(workload, inputs, deadline)
              for _ in range(SETUP_PROBES // 2)]
    passes = timed_passes(workload, inputs, seconds, deadline)
    setups += [setup_probe(workload, inputs, deadline)
               for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    lat = [x for p in passes for x in scaled_latencies(p)]
    raw = [x for p in passes for x in p["latencies"]]
    first = passes[0]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (percentile(lat, 0.50) * 1e3, "ms"),
        "op_p95_ms": (percentile(lat, 0.95) * 1e3, "ms"),
        "peak_rss_mb": (first["peak_rss_kb"] / 1024.0, "MB"),
        "ok_frac": (1.0 - first["failed_head"] / MIN_OPS, "ratio"),
    }
    notes = [
        f"{len(raw)} ops in {sum(raw):.2f} s of op time, {len(passes)} "
        f"pass(es) over a {first['stream_len']}-op stream; "
        f"{len(setups)} set-ups",
        f"speed scale {sum(lat) / sum(raw):.4f} (reference kernel "
        f"{SPEED_REF_S * 1e3:.1f} ms); raw: {len(raw) / sum(raw):.4g} ops/s, "
        f"p50 {percentile(raw, 0.50) * 1e3:.4g} ms, p95 "
        f"{percentile(raw, 0.95) * 1e3:.4g} ms",
        f"ok_frac over the first {MIN_OPS} ops: "
        f"{first['failed_head']} failed",
    ]
    return metrics, merge(passes), notes


def read_spans(path) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def layer_metrics(spans, res, base_busy, ops) -> dict:
    """Per-layer metrics from the spans of the traced run; base_busy is the
    untraced op time of the same ops at the reference speed."""
    child = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls, self_ns, layer_ns, failed = {}, {}, {}, {}
    for k, (name, start, end, parent, ok) in enumerate(spans):
        boundary = name.split(":")[0]
        own = end - start - child[k]
        calls[boundary] = calls.get(boundary, 0) + 1
        self_ns[boundary] = self_ns.get(boundary, 0) + own
        layer = boundary.split(".")[0]
        layer_ns[layer] = layer_ns.get(layer, 0) + own
        if not ok:
            failed[boundary] = failed.get(boundary, 0) + 1
    contains = sum(1 for s in spans if s[0] == "fan.locate:Fan.contains")
    queries = calls.get("fan.locate", 0) - sum(
        1 for s in spans
        if s[0] == "fan.locate:Fan.contains" and s[3] >= 0
        and spans[s[3]][0] == "fan.locate:Fan.cone_containing"
    )
    steps = calls.get("mmp.step", 0)

    def c(b):
        return (calls.get(b, 0), "count")

    def s(b):
        return (self_ns.get(b, 0) / 1e9, "s")

    m = {}
    for b in ("linalg.elim", "linalg.lp", "linalg.extreme_rays", "lattice.snf",
              "lattice.quotient", "fan.build", "divisor.support",
              "divisor.intersect", "divisor.nef", "mmp.extremal_rays",
              "fwps.curve", "fwps.wps_curve", "approx.driver"):
        m[f"{b}.calls"] = c(b)
        m[f"{b}.self_s"] = s(b)
    m["fan.locate.calls"] = (queries, "count")
    m["fan.locate.self_s"] = s("fan.locate")
    m["fan.locate.cones_tested_per_call"] = (
        contains / queries if queries else 0.0, "count/call")
    m["fan.build.per_op"] = (calls.get("fan.build", 0) / ops, "count/op")
    for b in ("fan.terminal", "fan.recognize", "mmp.flip", "mmp.contract",
              "mmp.chain"):
        m[f"{b}.self_s"] = s(b)
    m["fan.star.calls"] = c("fan.star")
    m["mmp.steps"] = (steps, "count")
    m["mmp.extremal_rays.per_step"] = (
        calls.get("mmp.extremal_rays", 0) / steps if steps else 0.0,
        "count/step")
    m["approx.driver.failed"] = (failed.get("approx.driver", 0), "count")
    for layer in ("linalg", "lattice", "fan", "divisor", "mmp", "fwps",
                  "approx", "casestudy", "report", "cli", "op"):
        m[f"{layer}.self_s"] = (layer_ns.get(layer, 0) / 1e9, "s")
    cache = res.get("cache", {})
    for layer in ("fan", "divisor"):
        if layer in cache:
            hits, misses, _ = cache[layer]
            m[f"{layer}.cache_hit_ratio"] = (
                hits / (hits + misses) if hits + misses else 0.0, "ratio")
    if cache:
        m["cache.entries"] = (sum(v[2] for v in cache.values()), "count")
    m["trace.spans"] = (len(spans), "count")
    m["trace.overhead_frac"] = (
        sum(scaled_latencies(res)) / base_busy - 1.0, "ratio")
    return m


def traced(workload, inputs, spans_path, deadline) -> tuple:
    n = TRACE_OPS[workload]
    _, base = spawn(workload, inputs, "count", deadline, ops=n)
    _, res = spawn(workload, inputs, "traced", deadline, ops=n,
                   spans=spans_path)
    metrics = layer_metrics(read_spans(spans_path), res,
                            sum(scaled_latencies(base)), n)
    notes = [f"{n} ops untraced in {sum(base['latencies']):.2f} s, traced in "
             f"{sum(res['latencies']):.2f} s; spans in {spans_path}"]
    return metrics, res, notes


def prepare(workload, seed) -> str:
    """Generate the inputs into a fresh work directory; returns their path."""
    import inputs as gen

    workdir = os.path.join(WORKDIR, f"{workload}-seed{seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    stream = gen.generate(workload, seed, workdir)
    path = os.path.join(workdir, "inputs.json")
    with open(path, "w") as fh:
        json.dump({"stream": stream,
                   "cwd": workdir if workload == "cli_session" else None}, fh)
    return path


def print_report(workload, seed, trace, metrics, res, notes, checks) -> None:
    print(f"workload {workload}, seed {seed}, trace {trace}")
    for line in notes:
        print(f"  {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    print(f"  failed {res['failed']} of all {res['attempted']} ops run")
    for key, count in sorted(res["failures"].items(), key=lambda kv: -kv[1]):
        print(f"    {count:6d}  {key}")
    for ok, message in checks:
        print(f"  {'ok  ' if ok else 'FAIL'} {message}")
    for v in res["violations"]:
        print(f"    invariant violated: {v}")


def run_one(workload, seed, seconds, trace, record) -> int:
    deadline = time.monotonic() + RUN_LIMIT_S
    inputs = prepare(workload, seed)
    try:
        if record:
            _, res = spawn(workload, inputs, "count", deadline, ops=DIGEST_OPS)
            print(record_reference(workload, seed, res["op_hashes"]))
            return 0 if res["violation_count"] == 0 else 1
        if trace:
            spans = os.path.join(os.path.dirname(inputs), "spans.jsonl")
            metrics, res, notes = traced(workload, inputs, spans, deadline)
        else:
            metrics, res, notes = end_to_end(workload, inputs, seconds,
                                             deadline)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    checks = [check_reference(workload, seed, res["op_hashes"])]
    checks.append((res["violation_count"] == 0,
                   f"{res['violation_count']} invariant violations"))
    correct = all(ok for ok, _ in checks)
    print_report(workload, seed, trace, metrics, res, notes, checks)
    # The result line accounts a fixed amount of work, so that runs of one
    # seed agree however many ops the machine's speed let them run: the
    # first MIN_OPS ops of a timed run, or the fixed ops of a traced run.
    if trace:
        attempted, failed = res["attempted"], res["failed"]
    else:
        attempted, failed = MIN_OPS, res["failed_head"]
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "toricapprox", "__init__.py")):
        print(f"no library sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    codes = [run_one(w, args.seed, args.seconds, args.trace,
                     args.record_reference) for w in workloads]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
