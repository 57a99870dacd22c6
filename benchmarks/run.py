"""nuframes benchmark: one closed-loop workload per process, one client.

    python3 benchmarks/run.py --workload identity-route --seed 1 --seconds 20 --trace 0

Workloads (see README.md): identity-route, direct-route, cli-checks.

The run builds its job list from --seed, sets up (imports, job list, one
untimed warm pass of each job kind), then runs whole rounds of the job list
for about --seconds, and only then checks every output against the oracles
in oracles.py.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (setup_s, jobs_per_s,
job_p50_ms, peak_rss_mb).  With --trace 1 each round runs twice, once plain
and once with spans recorded around nuframes' public functions (order
alternating by round); the metrics are the per-layer ones, per traced job,
plus trace.overhead_ratio (traced over plain job time).  Spans go to
benchmarks/results/.  Exits 2 without a result when the nuframes sources are
not found under src/ at the root of the checkout.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
BUILDS = 5  # set-up builds per run; setup_s takes their median


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("identity-route", "direct-route", "cli-checks"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_job(job, records, traced=None):
    """Time one job; keep (job, output or error, seconds, traced)."""
    t0 = time.perf_counter()
    try:
        result = job.run()
        dt = time.perf_counter() - t0
        out = job.collect(result)
    except Exception as exc:  # a failed operation is counted, not fatal
        dt = time.perf_counter() - t0
        out = exc
    records.append((job, out, dt, traced))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "nuframes", "__init__.py")):
        print(f"error: no nuframes sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads  # noqa: F401  (imports numpy and nuframes)

    import_s = time.perf_counter() - T0
    workdir = os.path.relpath(
        os.path.join(RESULTS, f"work-{args.workload}-{args.seed}-{args.trace}"))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        return measure(args, import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, import_s, workdir) -> int:
    import workloads
    from tracing import Tracer

    build = workloads.WORKLOADS[args.workload]
    build_s = []
    for _ in range(BUILDS):
        t0 = time.perf_counter()
        wl = build(args.seed, workdir)
        build_s.append(time.perf_counter() - t0)

    warm = []
    t0 = time.perf_counter()
    for job in wl.warm_jobs():
        run_job(job, warm)
    warm_s = time.perf_counter() - t0
    setup_s = import_s + statistics.median(build_s) + warm_s

    timed = []
    tracer = Tracer() if args.trace else None
    r = 0
    t_start = t_round = time.perf_counter()
    while True:
        for job in wl.round(r):
            if tracer is None:
                run_job(job, timed)
                continue
            for traced in ((False, True) if r % 2 == 0 else (True, False)):
                if traced:
                    tracer.job = len(timed)
                    tracer.install()
                try:
                    run_job(job, timed, traced)
                finally:
                    tracer.uninstall()
        r += 1
        # Start another whole round only if it should end within half a
        # round of --seconds, so a run lasts --seconds give or take that.
        now = time.perf_counter()
        if now + (now - t_round) / 2 - t_start >= args.seconds:
            break
        t_round = now
    elapsed = time.perf_counter() - t_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # An operation that raised or whose output fails a check counts as failed;
    # a wrong output, timed or warm, also makes the run incorrect.
    correct = True
    failed = 0
    for records, counted in ((warm, False), (timed, True)):
        for job, out, _, _ in records:
            raised = isinstance(out, Exception)
            problems = [f"raised {type(out).__name__}: {out}"] if raised \
                else job.check(out)
            for p in problems:
                print(f"FAIL [{job.label}] {p}", file=sys.stderr)
            if problems and not raised:
                correct = False
            if problems and counted:
                failed += 1

    durations = [dt for _, _, dt, _ in timed]
    completed = sum(not isinstance(out, Exception) for _, out, _, _ in timed)
    if tracer is None:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "jobs_per_s": {"value": completed / elapsed, "unit": "1/s"},
            "job_p50_ms": {"value": 1e3 * statistics.median(durations), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        traced_s = sum(dt for _, _, dt, t in timed if t)
        plain_s = sum(dt for _, _, dt, t in timed if not t)
        n_traced = sum(1 for *_, t in timed if t)
        metrics = tracer.per_job_metrics(n_traced)
        metrics["trace.overhead_ratio"] = {"value": traced_s / plain_s,
                                           "unit": "ratio"}
        tracer.write(os.path.join(
            RESULTS, f"spans-{args.workload}-seed{args.seed}.jsonl"))
        print("layer self time, share of traced job time:", file=sys.stderr)
        for name, share in tracer.layer_shares(traced_s).items():
            print(f"  {name:40s} {100 * share:6.2f}%", file=sys.stderr)

    summarize(timed, args, setup_s, import_s, warm_s, elapsed)
    result = {"correct": bool(correct), "attempted": len(timed), "failed": failed,
              "metrics": metrics}
    with open(os.path.join(RESULTS, f"result-{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w") as fh:
        json.dump(result, fh, indent=2)
    print(json.dumps(result))
    return 0


def summarize(timed, args, setup_s, import_s, warm_s, elapsed):
    """Per-kind job times on stderr, for reading a run by eye."""
    kinds = {}
    for job, _, dt, traced in timed:
        kinds.setdefault((job.kind, traced), []).append(dt)
    print(f"{args.workload} seed={args.seed}: {len(timed)} jobs in "
          f"{elapsed:.2f} s; set-up {setup_s:.3f} s (import {import_s:.3f}, "
          f"warm pass {warm_s:.3f})", file=sys.stderr)
    for (kind, traced), dts in sorted(kinds.items(), key=lambda kv: str(kv[0])):
        tag = {None: "", False: " plain", True: " traced"}[traced]
        print(f"  {kind + tag:36s} n={len(dts):3d} median "
              f"{1e3 * statistics.median(dts):9.1f} ms", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
