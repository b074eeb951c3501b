"""The benchmark's workloads: set-up, the untraced measurement, the traced
run, and the checks on every output. See run.py for how to run them.

The benchmark deletes no files. Every set-up and every pipeline run of a
run writes into its own directory under the run's work directory, and the
next run of the workload writes the same file names into the same
directories again, overwriting them. On the ext4 VM this benchmark was
tuned on (2 vCPUs), creating files right after deleting others was about
four times slower than overwriting them, and the slowdown grew over
consecutive runs, which moved setup_s and cluster_s by more than their
bounds. The work directory is named after a hash of ./src (see run.py), so
two versions of the program never share one, and every directory a run
reads back is checked to hold no file older than the run.
"""

import io
import json
import os
import random
import re
import resource
import statistics
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

from invclust import cli
from invclust.corpus import (generate_synthetic_corpus, ingest, run_pipeline,
                             tree_hash, write_corpus)

import inputs
import speed
import traced

# Pipeline settings shared by every workload. The k-means seed is fixed so
# that the workload seed only chooses inputs.
MODE = "aast_inv"
K_FRAC = 0.1
RESTARTS = 8
KMEANS_SEED = 0

# Set-up samples per untraced run. The first is taken before the window;
# the others are spread through it. setup_s is their CPU time: set-up on the
# cluster workloads is mostly rewriting a few hundred small files, and the
# time spent waiting on the disk for that moved by more than the bound
# between sets of runs of the same code.
SETUP_REPEATS = 15


def sizes(workload, smoke):
    """variants_per for the corpus, and the variants per assignment the
    query mutants are derived from (two fewer mutants than that)."""
    if workload == "cluster-dup":
        return {"variants": 8 if smoke else 80,
                "query_variants": 4 if smoke else 12}
    if workload == "trace-long":
        return {"variants": 4 if smoke else 10,
                "query_variants": 4 if smoke else 8}
    return {"variants": 8 if smoke else 50, "query_variants": 4 if smoke else 12}


class Outcome:
    """Operation counts and failed checks of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.escapes = {}
        self.problems = []

    def check(self, ok, what):
        if not ok:
            self.problems.append(what)
        return ok

    def fail(self, what):
        self.failed += 1
        self.escapes[what] = self.escapes.get(what, 0) + 1


class Workdir:
    """Hands out the run's directories under one work directory: the i-th
    directory of a kind has the same name on every run."""

    def __init__(self, root):
        self.root = root
        self.made = {}
        # Files older than this are stale. File times come from a coarse
        # clock, hence the margin; an earlier run ended before this one's
        # interpreter had even started.
        self.since = time.time_ns() - 100_000_000

    def next(self, kind):
        self.made[kind] = self.made.get(kind, 0) + 1
        return os.path.join(self.root, f"{kind}-{self.made[kind]}")


@dataclass
class Query:
    label: str
    path: str
    tests: str
    all_candidates: bool
    hostile: str = ""


@dataclass
class Setup:
    corpus: object = None
    corpus_dir: str = ""
    expected: dict = field(default_factory=dict)  # planted id -> kind
    query_dir: str = ""
    queries: list = field(default_factory=list)
    # (start, end, CPU seconds) of each set-up
    spans: list = field(default_factory=list)
    # closest-stream only: the model built during set-up, and the spans of
    # its builds.
    builds: list = field(default_factory=list)
    arts: object = None
    model_dir: str = ""
    model_hash: str = ""


def median(xs):
    return statistics.median(xs)


def seconds(span):
    return span[1] - span[0]


def p95(xs):
    if len(xs) < 2:
        return xs[0]
    return statistics.quantiles(xs, n=20, method="inclusive")[18]


# --- inputs and set-up ------------------------------------------------------

def build_cluster_inputs(args, corpus_dir):
    tests = None
    if args.workload == "trace-long":
        tests = inputs.long_tests(random.Random(args.seed), args.smoke)
    corpus, expected = inputs.cluster_corpus(
        args.seed, sizes(args.workload, args.smoke)["variants"], tests)
    write_corpus(corpus, corpus_dir)
    return corpus, expected


def build_queries(args, corpus_dir, query_dir):
    """The query stream: mutants of variants generated from another seed
    (inputs.stream_mutants), each in both modes, against the corpus's
    tests; for closest-stream the six hostile submissions are spread evenly
    through it. Many mutants per assignment keep a latency percentile from
    resting on how one variant happens to be written."""
    files = {}
    queries = []
    for label, stem, text in inputs.stream_mutants(
            args.seed, sizes(args.workload, args.smoke)["query_variants"]):
        rel = os.path.join(label, f"{stem}.c")
        files[rel] = text
        path = os.path.join(query_dir, rel)
        tests = os.path.join(corpus_dir, "tests", label)
        queries += [Query(label, path, tests, False),
                    Query(label, path, tests, True)]
    if args.workload == "closest-stream":
        hostile = inputs.hostile()
        step = len(queries) // (len(hostile) + 1)
        for i, (kind, data) in enumerate(hostile.items()):
            rel = os.path.join("hostile", f"{kind}.c")
            files[rel] = data
            q = Query("sum1n", os.path.join(query_dir, rel),
                      os.path.join(corpus_dir, "tests", "sum1n"), False, kind)
            queries.insert((i + 1) * step + i, q)
    inputs.write_sources(query_dir, files)
    return queries


def setup_once(args, work, out):
    """One set-up into its own directories. For closest-stream it includes
    building and persisting the model."""
    t0, cpu0 = time.perf_counter(), time.process_time()
    st = Setup(corpus_dir=work.next("corpus"), query_dir=work.next("queries"))
    if args.workload == "closest-stream":
        st.corpus = generate_synthetic_corpus(
            args.seed, 3, sizes(args.workload, args.smoke)["variants"])
        write_corpus(st.corpus, st.corpus_dir)
    else:
        st.corpus, st.expected = build_cluster_inputs(args, st.corpus_dir)
    st.queries = build_queries(args, st.corpus_dir, st.query_dir)
    if args.workload == "closest-stream":
        st.model_dir = work.next("model")
        st.arts, build = cluster_once(st.corpus_dir, st.model_dir)
        st.builds.append(build)
    st.spans.append((t0, time.perf_counter(), time.process_time() - cpu0))
    for d in (st.corpus_dir, st.query_dir, st.model_dir):
        if d:
            check_fresh(out, d, work.since)
    if st.arts is not None:
        check_cluster(out, st.arts, st.corpus, st.expected)
        st.model_hash = tree_hash(st.model_dir)
    out.check(inputs.check_tests(st.corpus),
              "a test's expected output disagrees with the oracle")
    return st


def add_setup(args, work, out, st):
    """Set up once more, for another set-up time (and, for closest-stream,
    another model build time); the run keeps using st's inputs."""
    more = setup_once(args, work, out)
    st.spans += more.spans
    st.builds += more.builds
    out.check(more.model_hash == st.model_hash,
              "repeated model builds differ in tree hash")


# --- operations and their checks ---------------------------------------------

def check_fresh(out, directory, since):
    """No file under `directory` is older than this run: a file an earlier
    run left there would be ingested, read by closest or hashed."""
    stale = [os.path.join(dirpath, name)
             for dirpath, _, names in os.walk(directory) for name in names
             if os.stat(os.path.join(dirpath, name)).st_mtime_ns < since]
    out.check(not stale, f"stale files from an earlier run: {stale[:3]}")


def cluster_once(corpus_dir, out_dir):
    """One `ingest` plus `run_pipeline(..., out_dir=...)`; returns
    (artifacts, (start, end))."""
    t0 = time.perf_counter()
    arts = run_pipeline(ingest(corpus_dir), mode=MODE, k_frac=K_FRAC,
                        seed=KMEANS_SEED, restarts=RESTARTS, out_dir=out_dir)
    return arts, (t0, time.perf_counter())


def exclusion_kind(diag):
    if "unsupported construct" in diag:
        return "unsupported"
    if re.match(r"\d+:\d+: ", diag):
        return "syntax"
    return f"other: {diag}"


def check_cluster(out, arts, corpus, expected):
    """Exclusions are exactly the planted syntax errors and unsupported
    constructs, every clean variant passes its tests and is clustered, and
    every mutant survives but fails a test."""
    planted = {pid: kind for pid, kind in expected.items() if kind != "mutant"}
    got = {pid: exclusion_kind(d) for pid, d in arts.exclusions.items()}
    out.check(got == planted, f"exclusions {got} != planted {planted}")
    clean = sorted(p.id for a in corpus.assignments.values()
                   for p in a.programs if p.id not in expected)
    out.check(arts.clustered_ids == clean,
              "clustered programs are not exactly the clean variants")
    for pid, kind in expected.items():
        if kind == "mutant":
            out.check(pid in arts.programs and not arts.programs[pid].correct,
                      f"mutant {pid} was not vectorized as incorrect")


def closest_cli(q, model_path, max_steps):
    """`invclust closest --json ...` in-process; returns (exit code, stdout,
    stderr). Exceptions that escape the command propagate."""
    argv = ["closest", "--model", model_path, "--program", q.path,
            "--tests", q.tests, "--json"]
    if max_steps:
        argv += ["--max-steps", str(max_steps)]
    if q.all_candidates:
        argv.append("--all-candidates")
    so, se = io.StringIO(), io.StringIO()
    with redirect_stdout(so), redirect_stderr(se):
        rc = cli.main(argv)
    return rc, so.getvalue(), se.getvalue()


class ModelIds:
    """Program ids a closest answer may name, read from a persisted model."""

    def __init__(self, model_path):
        with open(model_path) as f:
            d = json.load(f)
        self.all = set(d["assignment"])
        self.reps = set(d["representatives"].values())


def run_query(out, q, model_path, ids, max_steps):
    """Run and check one query. Returns (answer, (start, end)); the answer
    is None for a hostile query and for a failed or wrong one, and the span
    None for one that raised."""
    out.attempted += 1
    t0 = time.perf_counter()
    try:
        rc, so, se = closest_cli(q, model_path, max_steps)
    except Exception as e:  # a submission escaping the documented exits
        out.fail(f"{q.hostile or 'mutant'}: {type(e).__name__}")
        return None, None
    span = (t0, time.perf_counter())
    if q.hostile:
        if not (rc == 2 and any(line.startswith("error:")
                                for line in se.splitlines())):
            out.fail(f"{q.hostile}: exit {rc}")
        return None, span
    try:
        answer = json.loads(so) if rc == 0 else None
    except ValueError:
        answer = None
    allowed = ids.all if q.all_candidates else ids.reps
    if not out.check(answer is not None and answer.get("closest") in allowed,
                     f"closest {q.path}: exit {rc}, answer {so.strip()!r}"):
        return None, span
    return answer, span


class Latencies:
    """The latencies of a run's non-hostile queries, scaled to the host's
    full speed (see speed.py), and whether each answer came from the
    query's own assignment. The p50 is over every latency of a mode. The
    p95 is over each query's median latency: the latency of the program's
    slow queries, rather than of the few samples the scaling got most
    wrong."""

    def __init__(self, queries, sampler):
        self.queries = queries
        self.sampler = sampler
        self.spans = {}  # query index -> [(start, end)]
        self.same_label = []

    def run_pass(self, out, model_path, ids, max_steps):
        for i, q in enumerate(self.queries):
            with self.sampler.paused() if q.hostile else nullcontext():
                answer, span = run_query(out, q, model_path, ids, max_steps)
            if answer is not None:
                self.spans.setdefault(i, []).append(span)
                self.same_label.append(
                    answer["closest"].split("/", 1)[0] == q.label)

    def per_query_ms(self, all_candidates):
        return [[self.sampler.scaled(*span) * 1e3 for span in spans]
                for i, spans in self.spans.items()
                if self.queries[i].all_candidates == all_candidates]

    def p50(self, all_candidates):
        return median([ms for per in self.per_query_ms(all_candidates)
                       for ms in per])

    def p95(self, all_candidates):
        return p95([median(p) for p in self.per_query_ms(all_candidates)])

    def count(self, all_candidates):
        return sum(len(p) for p in self.per_query_ms(all_candidates))


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def repeat_frac(arts):
    """Share of surviving programs whose canonical (renamed) source repeats
    an earlier one of the same assignment."""
    seen, repeats = set(), 0
    for pid in sorted(arts.programs):
        key = (arts.programs[pid].label, arts.programs[pid].docs.renamed_source)
        repeats += key in seen
        seen.add(key)
    return repeats / len(arts.programs)


def distinct_points(arts):
    X = np.asarray([arts.programs[i].vector.values for i in arts.clustered_ids])
    return int(len(np.unique(X, axis=0)))


# --- the two kinds of run -----------------------------------------------------

def measure(args, work, out):
    """The untraced run, set-up included, with the host's speed sampled
    throughout: returns the end-to-end metrics."""
    sampler = speed.Sampler()
    with sampler.running():
        st, lat, op_spans, arts = measure_window(args, work, out, sampler)

    def scaled(spans):
        return [sampler.scaled(*span) for span in spans]

    info = {"N": len(arts.programs) + len(arts.exclusions),
            "rename.repeat_frac": repeat_frac(arts),
            "kmeans.distinct_points": distinct_points(arts),
            "kmeans.k": arts.model.k,
            "samples": {"setup_s": len(st.spans), "cluster_s": len(op_spans),
                        "closest": lat.count(False),
                        "closest_all": lat.count(True),
                        "speed": len(sampler.at)}}
    print("inputs: " + json.dumps(info, sort_keys=True))
    return {
        "setup_s": (median(scaled(st.spans)), "s"),
        "cluster_s": (median(scaled(op_spans)), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "purity": (arts.purity, "ratio"),
        "ok_frac": (1.0 - out.failed / out.attempted, "ratio"),
        "closest_p50_ms": (lat.p50(False), "ms"),
        "closest_p95_ms": (lat.p95(False), "ms"),
        "closest_all_p50_ms": (lat.p50(True), "ms"),
        "closest_all_p95_ms": (lat.p95(True), "ms"),
        "closest_same_label_frac": (
            sum(lat.same_label) / len(lat.same_label), "ratio"),
    }


def measure_window(args, work, out, sampler):
    """Set up, then the window of operations and queries, with further
    set-ups spread through it. Returns (setup, latencies, spans of the
    cluster operations, the artifacts the queries ran against)."""
    st = setup_once(args, work, out)
    lat = Latencies(st.queries, sampler)
    last_setup = time.perf_counter()

    def sample_setup():
        nonlocal last_setup
        if len(st.spans) < SETUP_REPEATS and \
                time.perf_counter() - last_setup >= args.seconds / SETUP_REPEATS:
            add_setup(args, work, out, st)
            last_setup = time.perf_counter()

    if args.workload == "closest-stream":
        # cluster_s here comes from the set-up model builds.
        op_spans, arts = st.builds, st.arts
        model_path = os.path.join(st.model_dir, "model.json")
        ids = ModelIds(model_path)
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds:
            lat.run_pass(out, model_path, ids, inputs.STREAM_MAX_STEPS)
            sample_setup()
    else:
        # One cluster operation, then queries against its model, in whole
        # passes, until they have had half the window. An operation that
        # raises ends the run: the queries need its model.
        out_dir = work.next("out")
        out.attempted += 1
        arts, span = cluster_once(st.corpus_dir, out_dir)
        op_spans = [span]
        check_cluster(out, arts, st.corpus, st.expected)
        check_fresh(out, out_dir, work.since)
        model_path = os.path.join(out_dir, "model.json")
        ids = ModelIds(model_path)
        start = time.perf_counter()
        while True:
            lat.run_pass(out, model_path, ids, None)
            sample_setup()
            if time.perf_counter() - start >= args.seconds / 2:
                break
    while len(st.spans) < SETUP_REPEATS:
        add_setup(args, work, out, st)
    return st, lat, op_spans, arts


def measure_traced(args, work, st, out):
    """The traced run: the untraced work for reference (cluster workloads
    run it twice, and the two trees must hash the same), then the same work
    again with every layer instrumented. Returns the per-layer metrics."""
    inst = traced.Instrument()
    spans = traced.Spans()
    if args.workload == "closest-stream":
        untraced_build = median([seconds(b) for b in st.builds])
        ref_dir = st.model_dir
    else:
        hashes, builds = [], []
        for _ in range(2):
            ref_dir = work.next("out")
            out.attempted += 1
            arts, span = cluster_once(st.corpus_dir, ref_dir)
            check_cluster(out, arts, st.corpus, st.expected)
            check_fresh(out, ref_dir, work.since)
            builds.append(seconds(span))
            hashes.append(tree_hash(ref_dir))
        out.check(hashes[0] == hashes[1],
                  "two untraced cluster runs differ in tree hash")
        untraced_build = median(builds)

    traced_dir = work.next("traced")
    out.attempted += 1
    with inst.on(spans), spans.span("cluster"):
        arts, _ = cluster_once(st.corpus_dir, traced_dir)
    check_cluster(out, arts, st.corpus, st.expected)
    check_fresh(out, traced_dir, work.since)
    out.check(tree_hash(traced_dir) == tree_hash(ref_dir),
              "traced run wrote a different artifact tree")

    # Each mutant query with --all-candidates once untraced and once traced.
    # Hostile queries are left out here, as they are of the latency figures.
    model_path = os.path.join(ref_dir, "model.json")
    ids = ModelIds(model_path)
    max_steps = inputs.STREAM_MAX_STEPS \
        if args.workload == "closest-stream" else None
    untraced_q = 0.0
    qspans = traced.Spans()
    for q in st.queries:
        if q.hostile or not q.all_candidates:
            continue
        answer, span = run_query(out, q, model_path, ids, max_steps)
        untraced_q += seconds(span) if span else 0.0
        out.attempted += 1
        with inst.on(qspans), \
                traced.count_reads(qspans, ref_dir, "closest.files_read"), \
                qspans.span("closest.all"):
            rc, so, _ = closest_cli(q, model_path, max_steps)
        out.check(rc == 0 and answer == json.loads(so),
                  f"traced closest {q.path} answered {so!r}, CLI {answer}")

    c = spans.counts
    files, size = 0, 0
    for dirpath, _, names in os.walk(traced_dir):
        for name in names:
            files += 1
            size += os.path.getsize(os.path.join(dirpath, name))
    (a_lo, a_hi), (i_lo, i_hi) = arts.vocab.segments
    per_all = qspans.by_trace()

    def closest_s(name):
        return median([t.get(name, 0.0) for t in per_all])

    # closest.front is the query's time outside the other three spans:
    # reading the program and tests, parse through represent, and output.
    front = median([t["closest.all"] - t.get("closest.load_model", 0.0)
                    - t.get("closest.load_vectors", 0.0)
                    - t.get("closest.scan", 0.0) for t in per_all])
    untraced_total = untraced_build + untraced_q
    traced_total = spans.total("cluster") + qspans.total("closest.all")
    spans.dump(os.path.join(work.root, "spans-cluster.json"))
    qspans.dump(os.path.join(work.root, "spans-closest.json"))
    return {
        "corpus.programs": (c["parse.programs"], "count"),
        "ingest.s": (spans.total("ingest"), "s"),
        "persist.s": (spans.total("persist"), "s"),
        "persist.files": (files, "count"),
        "persist.bytes": (size, "B"),
        "parse.s": (spans.total("parse"), "s"),
        "parse.programs": (c["parse.programs"], "count"),
        "parse.rejected": (c.get("parse.rejected", 0), "count"),
        "rename.s": (spans.total("rename"), "s"),
        "rename.repeat_frac": (repeat_frac(arts), "ratio"),
        "trace.s": (spans.total("trace"), "s"),
        "trace.snapshots": (c["trace.snapshots"], "count"),
        "trace.points": (c["trace.points"], "count"),
        "trace.us_per_snapshot": (spans.total("trace") * 1e6
                                  / c["trace.snapshots"], "us"),
        "detect.s": (spans.total("detect"), "s"),
        "detect.invariants": (c["detect.invariants"], "count"),
        "docs.s": (spans.total("docs"), "s"),
        "vocab.s": (spans.total("vocab"), "s"),
        "vocab.grams": (len(arts.vocab.grams), "count"),
        "vocab.aast_grams": (a_hi - a_lo, "count"),
        "vocab.inv_grams": (i_hi - i_lo, "count"),
        "vectorize.s": (spans.total("vectorize"), "s"),
        "kmeans.s": (spans.total("kmeans"), "s"),
        "kmeans.k": (arts.model.k, "count"),
        "kmeans.distinct_points": (distinct_points(arts), "count"),
        "kmeans.sse": (arts.model.sse, "1"),
        "closest.all.s": (closest_s("closest.all"), "s"),
        "closest.load_model.s": (closest_s("closest.load_model"), "s"),
        "closest.front.s": (front, "s"),
        "closest.load_vectors.s": (closest_s("closest.load_vectors"), "s"),
        "closest.scan.s": (closest_s("closest.scan"), "s"),
        "closest.vector_files_read": (
            qspans.counts.get("closest.files_read", 0) / len(per_all),
            "count"),
        "closest.model_bytes": (os.path.getsize(model_path), "B"),
        "overhead.untraced_s": (untraced_total, "s"),
        "overhead.traced_s": (traced_total, "s"),
        "overhead.frac": (traced_total / untraced_total - 1.0, "ratio"),
    }
