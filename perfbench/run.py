"""invclust benchmark: seeded workloads, output checks, end-to-end and
per-layer metrics.

Run from the repository root (the script imports invclust from ./src):

    python3 perfbench/run.py --workload cluster-dup --seed 1 --seconds 20 --trace 0

Workloads (rationale in BENCHMARK.json):

  cluster-dup     ingest + run_pipeline on N=240 synthetic programs plus
                  planted submissions, then closest queries for seeded
                  mutants against the model it wrote. k=24 exceeds the
                  number of distinct vectors.
  trace-long      the same on N=30 programs whose tests have long inputs.
  closest-stream  a closed loop, one client: `invclust closest` in-process on
                  a fixed stream of mutants and six hostile submissions,
                  against a model built and persisted during set-up.

`--trace 0` measures with no instrumentation of the program and prints the
end-to-end metrics, its times scaled to the host's full speed (see
speed.py). `--trace 1` runs the same work again with a span around every
call into each module (see traced.py) and prints the per-layer metrics,
its times as measured.
`--smoke` shrinks every size, for the benchmark's own tests.

Every run checks the program's outputs. The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics. An operation
that raises, or a hostile query that does not exit 2 with an `error:` line,
counts as failed; any other wrong output makes `correct` false. The traced
run also writes its spans to spans-cluster.json and spans-closest.json in
its work directory.

Inputs and outputs live under .bench_work/<hash of ./src>/<workload>/ and
are kept between runs, to be overwritten by the next run of the same
program (see workloads.py for why).
"""

import argparse
import hashlib
import json
import os
import sys

WORKLOADS = ("cluster-dup", "trace-long", "closest-stream")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes, for the benchmark's own tests")
    return p.parse_args(argv)


def src_key(src):
    """A short hash of every file under `src` but Python's bytecode caches,
    so each version of the program gets its own work directory."""
    h = hashlib.sha256()
    for dirpath, dirnames, names in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(names):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read() + b"\0")
    return h.hexdigest()[:16]


def main(argv=None):
    args = parse_args(argv)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "invclust", "__init__.py")):
        sys.stderr.write("perfbench: ./src/invclust not found; run from the "
                         "root of an invclust checkout\n")
        return 2
    key = src_key(src)
    sys.path.insert(0, src)
    import workloads

    out = workloads.Outcome()
    work = workloads.Workdir(os.path.join(
        os.getcwd(), ".bench_work", key,
        args.workload + ("-smoke" if args.smoke else "")))
    os.makedirs(work.root, exist_ok=True)
    if args.trace:
        st = workloads.setup_once(args, work, out)
        metrics = workloads.measure_traced(args, work, st, out)
    else:
        metrics = workloads.measure(args, work, out)
    for what in out.problems[:20]:
        sys.stderr.write(f"check failed: {what}\n")
    if out.escapes:
        print("failed: " + json.dumps(out.escapes, sort_keys=True))
    print(json.dumps({
        "correct": not out.problems,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": v, "unit": u}
                    for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
