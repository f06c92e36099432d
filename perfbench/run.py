"""uqwb benchmark: one workload per invocation, or all of them.

    python3 perfbench/run.py --workload cover_certify --seed 1 \\
        --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from `src/`.
With --trace 0 the run times whole rounds of the workload's operations
with tracing off until another round would take them past --seconds (at least
one round), then checks the outputs and prints the end-to-end metrics.
Their times are scaled to a reference machine speed by speed probes taken
on a timer during the rounds (see speed.py).
With --trace 1 it times one untraced and one traced round, and prints
the per-layer metrics of the traced one.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
`--workload all` runs every workload in a process of its own.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import layers
import speed
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

SETUP_SAMPLES = 5
SETUP_INTERVAL_S = 0.02
SETUP_CODE = (
    "import sys\n"
    "sys.path.insert(0, %r)\n"
    "import speed\n"
    "with speed.Sampler(%r) as sampler:\n"
    "    t0, w0 = sampler.clock(), sampler.wall()\n"
    "    import uqwb, uqwb.cli\n"
    "    for ell in %r:\n"
    "        uqwb.Session(ell)\n"
    "    t, w = sampler.clock() - t0, sampler.wall() - w0\n"
    "print(repr(t), repr(w))\n"
    % (os.path.dirname(os.path.abspath(__file__)), SETUP_INTERVAL_S,
       workloads.ELLS)
)

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "op_p50_s": "s",
    "peak_rss_mb": "MB",
}


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def setup_seconds():
    """Medians over fresh interpreters of `import uqwb` plus the sessions,
    in reference seconds and in wall seconds.  Each interpreter times them
    with a speed sampler of its own."""
    scaled, wall = [], []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE],
                              env=_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=60, check=True)
        t, w = done.stdout.split()[-2:]
        scaled.append(float(t))
        wall.append(float(w))
    return statistics.median(scaled), statistics.median(wall)


def timed_rounds(wl, seconds, sampler):
    """Whole rounds until another would take the rounds past `seconds`.

    Returns (walls, ops, first round's outputs, problems, peak MB).  The
    rounds run under `sampler`, and both the rounds and the operations in
    them are timed with its clock: in reference seconds, without the
    probes.  `walls` holds (reference, wall) seconds per round.  The
    peak resident memory is read after the first round, so it does not
    depend on the number of rounds.  Each later round is compared with
    the first as soon as it ends, outside the timed region, and dropped.
    """
    workloads.clock = sampler.clock
    walls, ops, first, probs = [], [], None, []
    while True:
        with sampler:
            t0, w0 = sampler.clock(), sampler.wall()
            round_ops, out = wl.round()
            walls.append((sampler.clock() - t0, sampler.wall() - w0))
        ops += round_ops
        if first is None:
            first = out
            peak_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        elif not wl.same(first, out):
            probs.append("round %d differs from round 1" % len(walls))
        del out
        spent = [w for _, w in walls]
        if sum(spent) + statistics.median(spent) > seconds:
            workloads.clock = time.perf_counter
            return walls, ops, first, probs, peak_mb


def op_median(ops):
    """Median op time; a failed op counts as slower than any other."""
    return statistics.median(
        float("inf") if op.failed else op.seconds for op in ops)


def check(wl, first):
    """Problems found in the first round's outputs (empty when correct)."""
    probs = wl.verify(first)
    if not wl.self_test(first):
        probs.append("self-test: a tampered value passed the checks")
    return probs


def run_one(args):
    sys.path.insert(0, SRC)
    import uqwb
    import uqwb.cli  # noqa: F401  (the CLI workload calls uqwb.cli.main)

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(workdir)
    try:
        wl = workloads.WORKLOADS[args.workload](uqwb, args.seed, workdir)
        if args.trace:
            wl.setup()
            t0 = time.perf_counter()
            ops, first = wl.round()
            untraced_s = time.perf_counter() - t0
            tracer = layers.install()
            try:
                wl.setup()
                t0 = time.perf_counter()
                traced_ops, out = tracer.wrap("benchmark.round", wl.round)()
                traced_s = time.perf_counter() - t0
            finally:
                tracer.uninstall()
            walls = [untraced_s, traced_s]
            ops += traced_ops
            probs = [] if wl.same(first, out) else [
                "the traced round differs from the untraced one"]
            metrics = layers.metrics(tracer, traced_s - untraced_s)
            tracer.write(os.path.join(
                OUT, "spans-%s-seed%d.json.gz" % (args.workload, args.seed)))
        else:
            setup_s, setup_wall = setup_seconds()
            wl.setup()
            sampler = speed.Sampler()
            walls, ops, first, probs, peak_mb = timed_rounds(
                wl, args.seconds, sampler)
            metrics = {
                "setup_s": setup_s,
                "run_s": statistics.median(t for t, _ in walls),
                "op_p50_s": op_median(ops),
                "peak_rss_mb": peak_mb,
            }
            print("unscaled: setup %.4g s, round %.4g s (medians); %d speed"
                  " probes, mean speed %.4g x reference"
                  % (setup_wall, statistics.median(w for _, w in walls),
                     len(sampler.probes), sampler.factor()))
            metrics = {k: (v, END_TO_END[k]) for k, v in metrics.items()}
        probs += check(wl, first)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [op for op in ops if op.failed]
    print("%s seed %d: %d round(s), %d operations attempted, %d failed"
          % (args.workload, args.seed, len(walls), len(ops), len(failed)))
    for name in sorted({op.name for op in failed}):
        print("  failed: %s x %d" % (name, sum(op.name == name
                                               for op in failed)))
    for p in probs:
        print("  WRONG: %s" % p)
    for name, (value, unit) in metrics.items():
        print("  %-36s %14.6g %s" % (name, value, unit))
    return {
        "correct": not probs,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def run_all(args):
    """Every workload in its own process; metrics prefixed by workload."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload",
                name, "--seed", str(args.seed), "--seconds",
                str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True,
                              text=True, timeout=900)
        sys.stdout.write(done.stdout.rpartition("\n{")[0] + "\n")
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit("workload %s exited with %d"
                             % (name, done.returncode))
        one = json.loads(done.stdout.strip().splitlines()[-1])
        result["correct"] = result["correct"] and one["correct"]
        result["attempted"] += one["attempted"]
        result["failed"] += one["failed"]
        for k, v in one["metrics"].items():
            result["metrics"]["%s.%s" % (name, k)] = v
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "uqwb", "__init__.py")):
        sys.stderr.write("no uqwb sources under %s: run from a checkout "
                         "of the repository\n" % SRC)
        return 2
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
