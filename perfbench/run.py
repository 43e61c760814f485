#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of seqmine / seqmined.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the library, `seqmine`, `seqmined` and
the benchmark's own driver and checker from source (CMake project in this
directory, build tree under $CARGO_TARGET_DIR or .bench_build), generates
the workload's inputs from --seed, runs the binaries as a user would for
--seconds, checks every output against computations made apart from the
program, and prints one JSON object as the last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Workloads, metrics and the reasons for their sizes are in README.md.
Exit status: 0 when every check passed, 1 when a check failed or the run
could not be set up, 2 when the build failed.
"""
import time

T0 = time.perf_counter()

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(
    os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                   os.path.join(ROOT, ".bench_build"))),
    "perfbench")

# One-shot workloads run `seqmine` once per operation; serve-sweep keeps one
# `seqmined` resident and sends it `mine` queries from two clients.
WORKLOADS = {
    "dense-fig9": dict(shape="fig9", ncust=600, minsup=0.0125, threads=1,
                       quiet=True, cross_algo="pseudo"),
    "sparse-fig8": dict(shape="fig8", ncust=30000, minsup=0.003, threads=4,
                        quiet=True),
    "cli-default": dict(shape="fig9", ncust=600, minsup=0.025, quiet=False),
    "serve-sweep": dict(shape="fig8", ncust=30000,
                        sweep=[0.02, 0.01, 0.0075], clients=2,
                        serve_threads=2),
}

END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
              ("query_s", "s"), ("setup_s", "s")]

PER_LAYER = [
    ("seq.parse_s", "s"), ("seq.dsa_load_s", "s"),
    ("core.first_level_s", "s"),
    ("mine.disc-all_s", "s"), ("mine.pseudo_s", "s"),
    ("paper.table13_ratio", "ratio"),
    ("kms.ckms_advances", "count"), ("order.seq_compares", "count"),
    ("disc.encode.compares", "count"), ("disc.iterations", "count"),
    ("disc.frequent_buckets", "count"), ("disc.infrequent_skips", "count"),
    ("disc.skip_ratio", "ratio"),
    ("counting_array.probes", "count"),
    ("partition.reduced_sequences", "count"),
    ("disc.partitions.second_level", "count"), ("disc.bound.skips", "count"),
    ("support.increments.k4plus", "count"),
    ("pool.critical_path_share", "ratio"), ("pool.efficiency", "ratio"),
    ("algo.serialize_s", "s"), ("algo.result_bytes", "bytes"),
    ("algo.maximal_s", "s"), ("algo.closed_s", "s"),
    ("engine.query_miss_s", "s"), ("engine.query_hit_s", "s"),
    ("server.overhead_s", "s"), ("server.response_bytes", "bytes"),
    ("obs.trace_overhead_s", "s"),
]
COUNTERS = [name for name, unit in PER_LAYER if unit == "count"]

CHECK_SAMPLE = 200   # patterns whose support is recounted by brute force
CHECK_EXTEND = 40    # patterns whose one-item extensions are recounted
TRACE_PAIRS = 5      # traced/untraced pairs for obs.trace_overhead_s


class CheckFailed(Exception):
    pass


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def delta_for(minsup, ncust):
    # MineOptions::CountForFraction: ceil, with a guard for products that
    # land on an integer up to floating-point noise.
    return max(1, math.ceil(minsup * ncust - 1e-9))


def binary(name):
    return os.path.join(BUILD, name)


def build():
    """Configures and builds the benchmark's CMake project; returns seconds."""
    t = time.perf_counter()
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j4"])
    with open(log_path, "ab") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              stdin=subprocess.DEVNULL).returncode != 0:
                with open(log_path, "rb") as f:
                    sys.stderr.write(f.read()[-4000:].decode(errors="replace"))
                log("build failed: " + " ".join(step))
                sys.exit(2)
    return time.perf_counter() - t


class Op:
    """One finished child process: wall and CPU seconds, peak RSS, status."""

    def __init__(self, wall, cpu, rss_mb, rc):
        self.wall, self.cpu, self.rss_mb, self.rc = wall, cpu, rss_mb, rc


def run_op(args, stdout_path):
    """Spawns `args` and times it from spawn to exit (wait4 rusage)."""
    with open(stdout_path, "wb") as out, \
            open(stdout_path + ".err", "wb") as err:
        t = time.perf_counter()
        p = subprocess.Popen(args, stdout=out, stderr=err,
                             stdin=subprocess.DEVNULL)
        _, status, ru = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t
    p.returncode = os.waitstatus_to_exitcode(status)
    return Op(wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0,
              p.returncode)


def must_run(args):
    p = subprocess.run(args, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, stdin=subprocess.DEVNULL)
    if p.returncode != 0:
        raise RuntimeError("%s exited %d: %s" % (
            " ".join(args), p.returncode, p.stderr.decode(errors="replace")))
    return p.stdout.decode()


def digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def median(xs):
    return statistics.median(xs)


def lower_quartile(xs):
    """Timing statistic of a run: the machine only ever adds delay (CPU
    steal, neighbour load), so the fast quarter of a run's operations
    tracks the program's own cost more steadily than the median."""
    return statistics.quantiles(xs, n=4)[0] if len(xs) > 1 else xs[0]


def generate(spec, seed, out):
    must_run([binary("perfbench_layers"), "gen", "--shape=" + spec["shape"],
              "--ncust=%d" % spec["ncust"], "--seed=%d" % seed,
              "--out=" + out])


def check_patterns(db, patterns, delta, seed):
    """Runs the independent checker; returns its counts."""
    p = subprocess.run(
        [binary("perfbench_check"), "--db=" + db, "--patterns=" + patterns,
         "--delta=%d" % delta, "--seed=%d" % seed,
         "--sample=%d" % CHECK_SAMPLE, "--extend=%d" % CHECK_EXTEND],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        stdin=subprocess.DEVNULL)
    if p.returncode != 0:
        raise CheckFailed("%s: %s" % (patterns,
                                      p.stderr.decode(errors="replace")))
    return json.loads(p.stdout)


# --------------------------------------------------------------- one-shot


class OneShot:
    def __init__(self, spec, seed, work):
        self.spec, self.seed, self.work = spec, seed, work
        self.db = os.path.join(work, "db.spmf")
        self.delta = delta_for(spec["minsup"], spec["ncust"])

    def command(self, out, algo="disc-all", extra=()):
        args = [binary("seqmine"), self.db, "--minsup=%g" % self.spec["minsup"],
                "--out=" + out]
        if algo != "disc-all":
            args.append("--algo=" + algo)
        if self.spec["quiet"]:
            args += ["--quiet", "--threads=%d" % self.spec["threads"]]
        return args + list(extra)

    def setup(self):
        generate(self.spec, self.seed, self.db)
        # First contact with seqmine: it loads the input and packs the .dsa
        # that the traced run's engine and server read; this also brings
        # the binary into the page cache before the first measured run.
        must_run([binary("seqmine"), self.db, "--pack=" +
                  os.path.join(self.work, "db.dsa"), "--quiet"])
        self.ref = os.path.join(self.work, "ref.out")
        self.ref_digest = None

    def same_as_ref(self, op, out):
        """The first successful run's output becomes the reference that
        every later run must reproduce, and that check() verifies."""
        if op.rc != 0:
            return False
        if self.ref_digest is None:
            shutil.copyfile(out, self.ref)
            shutil.copyfile(out + ".stdout", self.ref + ".stdout")
            self.ref_digest = digest(self.ref)
        elif digest(out) != self.ref_digest:
            raise CheckFailed("%s output differs from the first run" % out)
        return True

    def measure(self, seconds):
        ops, attempted = [], 0
        out = os.path.join(self.work, "run.out")
        deadline = time.perf_counter() + seconds
        while True:
            op = run_op(self.command(out), out + ".stdout")
            attempted += 1
            if self.same_as_ref(op, out):
                ops.append(op)
            if time.perf_counter() >= deadline:
                break
        if not ops:
            raise RuntimeError("every operation failed")
        metrics = {
            "wall_s": lower_quartile([o.wall for o in ops]),
            "cpu_s": lower_quartile([o.cpu for o in ops]),
            "peak_rss_mb": median([o.rss_mb for o in ops]),
            # A one-shot query is one process: its latency is the wall time.
            "query_s": lower_quartile([o.wall for o in ops]),
        }
        return metrics, attempted, attempted - len(ops)

    def check(self):
        counts = check_patterns(self.db, self.ref, self.delta, self.seed)
        if self.spec.get("cross_algo"):
            alt = os.path.join(self.work, "alt.out")
            op = run_op(self.command(alt, self.spec["cross_algo"]),
                        alt + ".stdout")
            if op.rc != 0 or digest(alt) != self.ref_digest:
                raise CheckFailed("disc-all and %s outputs differ" %
                                  self.spec["cross_algo"])
        if not self.spec["quiet"]:
            check_summary(self.ref + ".stdout", counts)

    def trace(self):
        """Per-layer metrics: traced CLI runs, perfbench_layers, a server."""
        out = os.path.join(self.work, "trace.out")
        tr = os.path.join(self.work, "trace.json")
        rep = os.path.join(self.work, "report.json")
        # Pairs of runs, both writing --json-out, one also --trace-out; the
        # order flips every pair. The tracer's cost is the median of the
        # per-pair differences in CPU time, which waits do not stretch.
        diffs, attempted, failed = [], 0, 0
        for i in range(TRACE_PAIRS):
            cpu = {}
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                extra = ["--json-out=" + rep]
                if traced:
                    extra.append("--trace-out=" + tr)
                op = run_op(self.command(out, extra=extra), out + ".stdout")
                attempted += 1
                if self.same_as_ref(op, out):
                    cpu[traced] = op.cpu
                else:
                    failed += 1
            if len(cpu) == 2:
                diffs.append(cpu[True] - cpu[False])
        if not diffs:
            raise RuntimeError("no traced/untraced pair succeeded")
        with open(rep) as f:
            counters = json.load(f)["runs"][0]["counters"]
        with open(tr) as f:
            events = json.load(f)["traceEvents"]
        threads = self.spec.get("threads", 1)
        m, _, _ = layer_driver(self.db, os.path.join(self.work, "db.dsa"),
                               [self.delta], threads, self.work, 0)
        m.update(counter_metrics(counters))
        m.update(pool_metrics(events, threads))
        m["obs.trace_overhead_s"] = median(diffs)
        srv = Server(os.path.join(self.work, "db.dsa"), self.work, 1)
        try:
            client = srv.client()
            queries = [self.spec["minsup"]]
            sweep(client, queries, threads)  # warm
            res = [sweep(client, queries, threads)[0]
                   for _ in range(TRACE_PAIRS)]
            client.close()
        finally:
            srv.stop()
        attempted += len(res) + 1
        with open(self.ref, "rb") as f:
            ref = f.read()
        for r in res:
            if r.fields.get("status") != "complete" or r.block != ref:
                raise CheckFailed("served block differs from seqmine: " +
                                  r.header)
        m["server.overhead_s"] = median([r.latency - r.wall_ms / 1000.0
                                         for r in res])
        m["server.response_bytes"] = res[0].nbytes
        return m, attempted, failed


SUMMARY = re.compile(r"^(\S+): (\d+) patterns \((\d+) maximal, (\d+) closed\), "
                     r"max length (\d+), max support (\d+), ", re.M)


def check_summary(stdout_path, counts):
    """The summary line seqmine prints must match the checker's recount."""
    with open(stdout_path) as f:
        m = SUMMARY.search(f.read())
    if not m:
        raise CheckFailed("no summary line in seqmine output")
    total, maximal, closed, max_len, max_sup = map(int, m.groups()[1:])
    want = (counts["patterns"], counts["maximal"], counts["closed"],
            counts["max_length"], counts["max_support"])
    if (total, maximal, closed, max_len, max_sup) != want:
        raise CheckFailed("seqmine summary %s, recount %s" %
                          ((total, maximal, closed, max_len, max_sup), want))
    if not maximal <= closed <= total:
        raise CheckFailed("summary violates maximal <= closed <= total")


# ------------------------------------------------------------------ server


class Reply:
    def __init__(self, minsup, header, block, latency):
        self.minsup, self.block, self.latency = minsup, block, latency
        self.header = header
        self.fields = dict(kv.split("=", 1) for kv in header.split()[2:]
                           if "=" in kv)
        self.wall_ms = float(self.fields.get("wall_ms", "nan"))
        self.nbytes = len(header) + 1 + len(block) + len("end\n")


class Client:
    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.rf = self.sock.makefile("rb")
        self.wf = self.sock.makefile("wb")
        greeting = self.rf.readline()
        if not greeting.startswith(b"info"):
            raise RuntimeError("bad greeting %r" % greeting)

    def mine(self, minsup, threads):
        t = time.perf_counter()
        self.wf.write(b"mine --minsup %g --threads %d\n" % (minsup, threads))
        self.wf.flush()
        header = self.rf.readline().decode().rstrip("\n")
        if not header.startswith("ok mine"):
            raise RuntimeError("mine --minsup %g: %s" % (minsup, header))
        lines = []
        while True:
            line = self.rf.readline()
            if line == b"end\n":
                break
            if not line:
                raise RuntimeError("connection closed mid-response")
            lines.append(line)
        return Reply(minsup, header, b"".join(lines),
                     time.perf_counter() - t)

    def close(self):
        try:
            self.wf.write(b"quit\n")
            self.wf.flush()
            while self.rf.readline():
                pass
        finally:
            self.rf.close()
            self.wf.close()
            self.sock.close()


def sweep(client, minsups, threads):
    return [client.mine(f, threads) for f in minsups]


class Server:
    """A resident seqmined on a unix socket inside the work directory."""

    def __init__(self, dsa, work, serve_threads):
        self.sock = os.path.join(work, "seqmined.sock")
        self.err = open(os.path.join(work, "seqmined.err"), "wb")
        self.proc = subprocess.Popen(
            [binary("seqmined"), "--db=" + dsa, "--listen-unix=" + self.sock,
             "--serve-threads=%d" % serve_threads],
            stdout=subprocess.PIPE, stderr=self.err, stdin=subprocess.DEVNULL)
        banner = self.proc.stdout.readline().decode()
        if "listening on unix:" not in banner:
            self.stop()
            raise RuntimeError("seqmined did not start: %r" % banner)

    def client(self):
        # AF_UNIX paths are limited to ~107 bytes; connect relative to cwd.
        return Client(os.path.relpath(self.sock))

    def cpu_s(self):
        with open("/proc/%d/stat" % self.proc.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for seqmined")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)  # drain, exit 0
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.err.close()


class ServeSweep:
    def __init__(self, spec, seed, work):
        self.spec, self.seed, self.work = spec, seed, work
        self.db = os.path.join(work, "db.spmf")
        self.dsa = os.path.join(work, "db.dsa")
        self.deltas = [delta_for(f, spec["ncust"]) for f in spec["sweep"]]
        self.server = None
        self.clients = []
        self.replies = []

    def setup(self):
        generate(self.spec, self.seed, self.db)
        must_run([binary("seqmine"), self.db, "--pack=" + self.dsa,
                  "--quiet"])
        self.server = Server(self.dsa, self.work, self.spec["serve_threads"])
        self.clients = [self.server.client()
                        for _ in range(self.spec["clients"])]
        # Warm-up pass: the sweep's cheapest query touches every page of
        # the mmapped database and fills the first-level cache, which does
        # not depend on the threshold.
        warm = self.clients[0].mine(self.spec["sweep"][0], 1)
        if warm.fields.get("cache") != "miss":
            raise CheckFailed("first query did not fill the cache: " +
                              warm.header)

    def round(self):
        """Every client runs the sweep once, concurrently (closed loop)."""
        results = [None] * len(self.clients)
        errors = []

        def go(i):
            try:
                results[i] = sweep(self.clients[i], self.spec["sweep"], 1)
            except Exception as e:  # reported by the caller
                errors.append(e)

        threads = [threading.Thread(target=go, args=(i,))
                   for i in range(len(self.clients))]
        t = time.perf_counter()
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        wall = time.perf_counter() - t
        if errors:
            raise errors[0]
        return wall, [r for rs in results for r in rs]

    def measure(self, seconds):
        walls, cpus, lat = [], [], []
        deadline = time.perf_counter() + seconds
        while True:
            cpu0 = self.server.cpu_s()
            wall, replies = self.round()
            cpus.append(self.server.cpu_s() - cpu0)
            walls.append(wall)
            lat += [r.latency for r in replies]
            self.replies += replies
            if time.perf_counter() >= deadline:
                break
        metrics = {
            "wall_s": lower_quartile(walls),
            "cpu_s": lower_quartile(cpus),
            "peak_rss_mb": self.server.peak_rss_mb(),
            "query_s": lower_quartile(lat),
        }
        return metrics, len(self.replies), 0

    def close(self):
        for c in self.clients:
            c.close()
        self.clients = []
        if self.server:
            self.server.stop()
            self.server = None

    def check(self):
        self.close()
        refs = {}
        for f, delta in zip(self.spec["sweep"], self.deltas):
            ref = os.path.join(self.work, "ref_%d.out" % delta)
            must_run([binary("seqmine"), self.db, "--minsup=%g" % f,
                      "--quiet", "--threads=4", "--out=" + ref])
            with open(ref, "rb") as fh:
                refs[f] = fh.read()
            check_patterns(self.db, ref, delta, self.seed)
        for r in self.replies:
            fields = r.fields
            if fields.get("status") != "complete":
                raise CheckFailed("incomplete reply: " + r.header)
            if fields.get("cache") != "hit":
                raise CheckFailed("reply after warm-up missed the cache: " +
                                  r.header)
            if int(fields.get("patterns", -1)) != r.block.count(b"\n"):
                raise CheckFailed("patterns= disagrees with the block: " +
                                  r.header)
            if int(fields.get("delta", -1)) != \
                    self.deltas[self.spec["sweep"].index(r.minsup)]:
                raise CheckFailed("unexpected delta: " + r.header)
            if r.block != refs[r.minsup]:
                raise CheckFailed("served block differs from seqmine at "
                                  "minsup %g" % r.minsup)
        lo, hi = self.spec["sweep"][-1], self.spec["sweep"][0]
        floor = self.deltas[0]
        kept = b"".join(line + b"\n" for line in refs[lo].split(b"\n")
                        if line and int(line.rsplit(b" ", 1)[1]) >= floor)
        if kept != refs[hi]:
            raise CheckFailed("minsup %g block is not the minsup %g block "
                              "filtered to support >= %d" % (hi, lo, floor))

    def trace(self):
        _, replies = self.round()
        self.replies += replies
        # seqmined has no tracing flag: the counters and spans come from
        # perfbench_layers' traced in-process mines of the same sweep.
        m, counters, events = layer_driver(self.db, self.dsa, self.deltas, 1,
                                           self.work, TRACE_PAIRS)
        m.update(counter_metrics(counters))
        m.update(pool_metrics(events, 1))
        m["server.overhead_s"] = median([r.latency - r.wall_ms / 1000.0
                                         for r in replies])
        m["server.response_bytes"] = sum(
            r.nbytes for r in replies[:len(self.spec["sweep"])])
        return m, len(replies), 0


# -------------------------------------------------------------- per-layer


def layer_driver(db, dsa, deltas, threads, work, trace_pairs):
    """Runs perfbench_layers; returns its metrics, counters and trace."""
    trace_out = os.path.join(work, "layers_trace.json")
    out = must_run([binary("perfbench_layers"), "layers", "--spmf=" + db,
                    "--dsa=" + dsa,
                    "--deltas=" + ",".join(str(d) for d in deltas),
                    "--threads=%d" % threads,
                    "--trace-pairs=%d" % trace_pairs,
                    "--trace-out=" + trace_out])
    res = json.loads(out.strip().splitlines()[-1])
    m = dict(res["metrics"])
    m["paper.table13_ratio"] = m["mine.pseudo_s"] / m["mine.disc-all_s"]
    with open(trace_out) as f:
        events = json.load(f)["traceEvents"]
    return m, res["counters"], events


def counter_metrics(counters):
    m = {name: counters.get(name, 0) for name in COUNTERS}
    it = counters.get("disc.iterations", 0)
    m["disc.skip_ratio"] = counters.get("disc.infrequent_skips", 0) / it \
        if it else 0.0
    return m


def pool_metrics(events, threads):
    """Thread-pool figures from the library's disc/partition(s) spans."""
    spans = [e for e in events if e.get("ph") == "X"]
    outer = [e for e in spans if e["name"] == "disc/partitions"]
    parts = [e for e in spans if e["name"] == "disc/partition"]
    if not outer or not parts:
        raise RuntimeError("trace has no disc/partition spans")
    critical = 0.0
    for o in outer:
        inside = [p["dur"] for p in parts
                  if o["ts"] <= p["ts"] <= o["ts"] + o["dur"]]
        if inside and o["dur"] > 0:
            critical = max(critical, max(inside) / o["dur"])
    busy = sum(p["dur"] for p in parts)
    return {"pool.critical_path_share": critical,
            "pool.efficiency": busy / (threads * sum(o["dur"]
                                                     for o in outer))}


# ------------------------------------------------------------------- main


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_s = build()
    spec = WORKLOADS[args.workload]
    work = os.path.join(BUILD, "work", "%s-s%d-%d" % (args.workload,
                                                      args.seed, os.getpid()))
    os.makedirs(work)
    kind = ServeSweep if "sweep" in spec else OneShot
    wl = kind(spec, args.seed, work)
    correct = True
    try:
        wl.setup()
        # Set-up time from process start, the build left out.
        setup_s = time.perf_counter() - T0 - build_s
        if args.trace:
            values, attempted, failed = wl.trace()
            names = PER_LAYER
        else:
            values, attempted, failed = wl.measure(args.seconds)
            values["setup_s"] = setup_s
            names = END_TO_END
        try:
            wl.check()
        except CheckFailed as e:
            log("CHECK FAILED: %s" % e)
            correct = False
    except Exception as e:
        log("run failed: %s" % e)
        return 1
    finally:
        if isinstance(wl, ServeSweep):
            wl.close()
        shutil.rmtree(work, ignore_errors=True)
    metrics = {n: {"value": values[n], "unit": u} for n, u in names}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
