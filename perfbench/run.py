#!/usr/bin/env python3
"""perfbench: the repository's benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py smoke        # every workload, minimal length
    python3 perfbench/run.py smarts-ref   # regenerate smarts_ref.tsv

Run from the root of a checkout. Builds the library, `batch_service`
and the driver into .bench_build, runs one workload in a scratch
directory under .bench_build/runs, prints a human-readable report and,
as the last line of standard output, one JSON object with the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys
import time

sys.dont_write_bytecode = True
import benchlib  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD, "perfbench_driver")
SERVICE = os.path.join(BUILD, "delorean", "tools", "batch_service")
REFERENCE = os.path.join(HERE, "smarts_ref.tsv")
WORKLOADS = ["dse_sweep", "recorded_trace", "service_mix"]
# A run must end within 180 s; an up-to-date build check takes ~1 s.
DEADLINE_S = 170.0


def env():
    """The environment for every child: temporary files stay in BUILD."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then bring the three binaries up to date."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        # The Makefile appears only once a configure step succeeded.
        if not os.path.exists(os.path.join(BUILD, "Makefile")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target",
                      "perfbench_driver", "tool_batch_service", "-j4"])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env())
            if done.returncode != 0:
                raise SystemExit("perfbench: build failed: " + " ".join(cmd))


def stop_group(pgid):
    """SIGKILL whatever is left in the group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)
    raise SystemExit("perfbench: processes of group %d did not exit" % pgid)


def run_driver(args, rundir, budget_s):
    """Run the driver in its own process group; return its exit code."""
    proc = subprocess.Popen([DRIVER] + args, cwd=rundir,
                            stdout=sys.stderr, stderr=sys.stderr,
                            env=env(), start_new_session=True)
    try:
        code = proc.wait(timeout=budget_s)
    except subprocess.TimeoutExpired:
        log("perfbench: driver timed out")
        code = None
    finally:
        stop_group(proc.pid)
        proc.wait()
    return code


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def measure(workload, seed, seconds, trace):
    """One driver run; returns the raw measurements as a dict."""
    rundir = os.path.join(BUILD, "runs",
                          "%s-s%d-%d" % (workload, seed, os.getpid()))
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    try:
        out = os.path.join(rundir, "raw.json")
        code = run_driver(
            ["--workload", workload, "--seed", str(seed), "--seconds",
             repr(seconds), "--trace", str(trace), "--ref", REFERENCE,
             "--service", SERVICE, "--out", out],
            rundir, DEADLINE_S)
        if code != 0:
            raise SystemExit("perfbench: driver failed (exit %s)" % code)
        with open(out) as f:
            return json.load(f)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def fmt(v):
    return "%.6g" % v


def report(workload, seed, seconds, trace, raw):
    """Print the human-readable report; return the result object."""
    host = raw["host"]
    print("perfbench workload=%s seed=%d seconds=%s trace=%d"
          % (workload, seed, fmt(seconds), trace))
    print('host cpu="%s" nproc=%d compiler="%s" build=%s flags="%s" '
          "ndebug=%s simd=%s"
          % (cpu_model(), os.cpu_count() or 0, host["compiler"],
             host["build_type"], host["flags"].strip(),
             str(host["ndebug"]).lower(), host["simd"]))
    print("sim_stats_digest %s" % raw["texts"].get("sim_stats_digest", "-"))

    series = raw["series"]
    e2e = benchlib.end_to_end(raw)
    for name, unit in benchlib.END_TO_END:
        print("metric %s = %s %s" % (name, fmt(e2e[name]), unit))
    for key, label in [("fresh_ms", "fresh"), ("cached_ms", "cached")]:
        values = series.get(key, [])
        if not values:
            continue
        t = benchlib.tail(values)
        print("latency %s n=%d p50=%s ms tail=%s" % (
            label, len(values), fmt(benchlib.median(values)),
            "p%d %s ms" % (t[0], fmt(t[1])) if t else
            "n/a (fewer than 20 samples)"))

    # The workload-specific names of the same figures.
    if workload == "recorded_trace":
        print("metric cold_run_s = %s s" % fmt(e2e["fresh_p50_ms"] / 1e3))
        print("metric cached_run_ms = %s ms" % fmt(
            benchlib.median(series["cached_ms"])))
    if workload == "service_mix":
        for key, name in [("fresh_ms", "job"), ("cached_ms", "cached_job")]:
            values = series[key]
            t = benchlib.tail(values)
            print("metric %s_p50_ms = %s ms" % (name, fmt(
                benchlib.median(values))))
            print("metric %s_tail_ms = %s ms (p%s of %d samples)" % (
                name, fmt(t[1]) if t else "n/a", t[0] if t else "-",
                len(values)))
        print("metric stream_close_p50_ms = %s ms" % fmt(
            benchlib.median(series["stream_close_ms"])))
        print("metric stream_append_mb_per_s = %s MB/s" % fmt(
            benchlib.median(series["stream_append_mb_per_s"])))

    attempted, failed = raw["attempted"], raw["failed"]
    print("metric failed_ops_pct = %s %% (%d of %d operations and checks)"
          % (fmt(100.0 * failed / max(attempted, 1)), failed, attempted))
    for failure in raw["failures"]:
        print("FAILED %s" % failure)

    if trace:
        layers = benchlib.per_layer(raw)
        for name, unit in benchlib.PER_LAYER:
            print("layer %s = %s %s" % (name, fmt(layers[name]), unit))
        print("core.coverage %s = %s" % (workload,
                                         fmt(layers["core.coverage"])))
        for name, (count, total, self_s) in sorted(
                benchlib.self_times(raw["spans"]).items()):
            print("span %s count=%d total_s=%s self_s=%s"
                  % (name, count, fmt(total), fmt(self_s)))
        traced = series.get("fresh_ms_traced", [])
        untraced = series.get("fresh_ms_untraced", [])
        print("trace overhead: %s %% (fresh p50 %s ms over %d traced "
              "iterations against %s ms over %d untraced)"
              % (fmt(layers["trace.overhead_pct"]),
                 fmt(benchlib.median(traced)) if traced else "-",
                 len(traced),
                 fmt(benchlib.median(untraced)) if untraced else "-",
                 len(untraced)))
        names, values = benchlib.PER_LAYER, layers
    else:
        names, values = benchlib.END_TO_END, e2e

    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in names},
    }


def cmd_run(argv):
    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    build()
    raw = measure(args.workload, args.seed, args.seconds, args.trace)
    result = report(args.workload, args.seed, args.seconds, args.trace, raw)
    print(json.dumps(result), flush=True)


def cmd_smoke():
    """Every workload at minimal length, untraced and traced."""
    build()
    bad = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            raw = measure(workload, 1, 0.0, trace)
            ok = report(workload, 1, 0.0, trace, raw)["correct"]
            print("smoke %s trace=%d %s" % (workload, trace,
                                             "ok" if ok else "FAILED"))
            if not ok:
                bad.append("%s/trace=%d" % (workload, trace))
    if bad:
        raise SystemExit("perfbench smoke failed: " + ", ".join(bad))


def cmd_smarts_ref():
    build()
    rundir = os.path.join(BUILD, "runs", "smarts-ref-%d" % os.getpid())
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    try:
        code = run_driver(["--make-ref", REFERENCE], rundir, 3600.0)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    if code != 0:
        raise SystemExit("perfbench: reference generation failed")
    log("perfbench: wrote " + REFERENCE)


def main(argv):
    if argv[:1] == ["smoke"]:
        cmd_smoke()
    elif argv[:1] == ["smarts-ref"]:
        cmd_smarts_ref()
    else:
        cmd_run(argv)


if __name__ == "__main__":
    main(sys.argv[1:])
