"""galedual benchmark: one closed-loop client driving the CLI in process.

    python3 bench/run.py --workload verify_sparse_origin --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory, so nothing needs installing.  The seed makes the corpus
(bench/corpus.py); each instance is one call of ``galedual.cli.main`` with
``--output`` set to a scratch file under ``.bench_tmp/`` in the checkout.
One client sends the next call only after the previous one returned, on one
thread; the BLAS thread variables are set to 1 unless already set.

Workloads (why each was chosen is in bench/README.md):

* ``verify_sparse_origin``: ``verify`` on example22_sparse and random
  bivariate sparse systems; the resultant and the numeric solver do the work.
* ``verify_master_origin``: ``verify`` on the two master fixtures and random
  masters, one with doubled weights; the unreduced torus side of
  ``quotient_images`` makes resultants of high degree.
* ``structure_highdim``: ``dualize`` round trips and ``bound`` in dimensions
  2 to 4; the lattice and polytope layers do the work.

With ``--trace 0`` the client runs one pass over the corpus, then repeats
the quick instances until ``--seconds`` have passed, and reports the
end-to-end metrics, with call times scaled to a fixed host speed (see
HostSpeed).  With ``--trace 1`` it runs one pass untraced, then the same pass
with every module boundary wrapped (bench/spans.py), and reports the
per-layer metrics.  Known-answer checks (bench/checks.py) run outside the
timed region.  Every metric is printed on its own line with its unit; the
last line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import os

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import checks  # noqa: E402
import corpus  # noqa: E402
import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"
MODULES = ("cli", "duality", "lattice", "polynomials", "polytopes", "ratlinalg", "serialize", "solver", "systems")
SETUP_REPEATS = 9
# calls at least this long run once per run; their own length averages out noise
LONG_CALL_S = 2.0
# untimed second runs for the output-identity check, as a share of the timed loop
IDENTITY_RERUN_SHARE = 0.05
# the host-speed reference runs every this many seconds, between calls and
# during them, and scales times to this duration
REFERENCE_SPACING_S = 0.25
REFERENCE_NOMINAL_S = 0.008


def reference():
    """Fixed exact arithmetic of the kind galedual spends its time in.

    A Bareiss determinant of a 16 x 16 integer matrix and a Fraction sum with
    growing denominators; about 8 ms on a 2 GHz core.
    """
    corpus.det([[(i * 7 + j * 13) % 17 - 8 + 40 * (i == j) for j in range(16)] for i in range(16)])
    total = Fraction(0)
    for k in range(1, 1500):
        total += Fraction(k, k + 1)
    return total


class HostSpeed:
    """Durations of the reference, to scale call times to one host speed.

    On a shared machine the same call can take twice as long from one second
    to the next, and the speed changes within a long call too.  So the
    reference runs between calls and, from a timer signal, every
    REFERENCE_SPACING_S during a call; its own time is taken out of the
    call's.  A call's scaled time is the sum over the stretches between
    reference runs of the stretch's length times REFERENCE_NOMINAL_S over
    the mean duration of the reference runs at its two ends.  A slower host
    slows the call and the reference alike, so the ratio cancels it; a
    slower program slows only the call.
    """

    def __init__(self):
        self.times = []
        self.durations = []
        self.paused = 0.0

    def _run(self):
        now = perf_counter()
        reference()
        self.times.append(now)
        self.durations.append(perf_counter() - now)
        return self.durations[-1]

    def sample(self, force=False):
        if force or not self.times or perf_counter() - self.times[-1] >= REFERENCE_SPACING_S:
            self._run()

    def _tick(self, signum, frame):
        self.paused += self._run()

    @contextlib.contextmanager
    def during(self):
        """Sample the reference every REFERENCE_SPACING_S while the block runs.

        ``paused`` then holds the time the block spent in the reference.
        """
        self.paused = 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_SPACING_S, REFERENCE_SPACING_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, start, wall):
        """Scaled time of a call that started at ``start`` and ran for ``wall`` seconds
        of its own, not counting the reference runs inside it."""
        i = max(bisect.bisect_right(self.times, start) - 1, 0)
        at, left, scaled = start, wall, 0.0
        while True:
            j = i + 1
            if j == len(self.times) or self.times[j] - at >= left:
                after = self.durations[min(j, len(self.times) - 1)]
                return scaled + left * REFERENCE_NOMINAL_S / ((self.durations[i] + after) / 2)
            stretch = max(self.times[j] - at, 0.0)
            scaled += stretch * REFERENCE_NOMINAL_S / ((self.durations[i] + self.durations[j]) / 2)
            left -= stretch
            at = self.times[j] + self.durations[j]
            i = j


def import_package():
    """Import galedual afresh from the checkout's src/, running every module body."""
    for name in [m for m in sys.modules if m == "galedual" or m.startswith("galedual.")]:
        del sys.modules[name]
    package = importlib.import_module("galedual")
    if Path(package.__file__).resolve().parent != SRC / "galedual":
        raise ImportError(f"galedual imported from {package.__file__}, not from {SRC}")
    return {m: importlib.import_module(f"galedual.{m}") for m in MODULES}


def setup(workload, seed, workdir):
    """Fresh import, corpus generation and input files: the timed set-up."""
    modules = import_package()
    instances = corpus.build(workload, seed)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    for inst in instances:
        if inst.payload is not None:
            (workdir / f"{inst.iid}.json").write_text(json.dumps(inst.payload))
    return modules, instances


class Client:
    """Runs instances one at a time and writes derived inputs between calls."""

    def __init__(self, instances, workdir, host):
        self.workdir = workdir
        self.host = host
        self.sampling = True
        self.derived = defaultdict(list)
        for inst in instances:
            if inst.derive is not None:
                self.derived[inst.derive[0]].append(inst)

    def run(self, inst, call):
        out_path = self.workdir / f"{inst.iid}.out"
        out_path.unlink(missing_ok=True)
        argv = [inst.command, "--input", str(self.workdir / f"{inst.iid}.json"), "--output", str(out_path)]
        gc.collect()  # every call starts from a collected heap, outside the timed region
        self.host.sample()
        sampling = self.host.during() if self.sampling else contextlib.nullcontext()
        with contextlib.redirect_stderr(io.StringIO()), sampling:
            self.host.paused = 0.0
            start = perf_counter()
            try:
                code = call(inst.iid, argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # an uncaught error is a failed instance, not a crash
                code = f"{type(exc).__name__}: {exc}"
            wall = perf_counter() - start - self.host.paused
        output = out_path.read_bytes() if out_path.exists() else b""
        for child in self.derived.get(inst.iid, ()):
            try:
                derived = json.loads(output)[child.derive[1]]
            except (ValueError, KeyError):
                continue  # the child then fails to read its input and is counted
            (self.workdir / f"{child.iid}.json").write_text(json.dumps(derived))
        return start, wall, code, output


class Pass:
    """Latencies, exit codes and output hashes of every call, by instance."""

    def __init__(self):
        self.starts = defaultdict(list)
        self.walls = defaultdict(list)
        self.first = {}
        self.unstable = set()

    def record(self, inst, start, wall, code, output):
        self.starts[inst.iid].append(start)
        self.walls[inst.iid].append(wall)
        key = (code, hashlib.sha256(output).hexdigest())
        if inst.iid not in self.first:
            self.first[inst.iid] = (code, output, key)
        elif self.first[inst.iid][2] != key:
            self.unstable.add(inst.iid)


def run_pass(client, instances, call, record):
    for inst in instances:
        record.record(inst, *client.run(inst, call))


def check_all(instances, record):
    """Known-answer checks; returns (hard, soft, short_of_bound) keyed by iid."""
    hard, soft, short = {}, {}, {}
    bounds = {}
    for inst in instances:
        code, output, _ = record.first[inst.iid]
        h, s, info = checks.check(inst, code, output, bounds)
        if inst.iid in record.unstable:
            h.append("output differs between runs of the same input")
        if h:
            hard[inst.iid] = h
        if s:
            soft[inst.iid] = s
        if "short_of_bound" in info:
            short[inst.iid] = info["short_of_bound"]
    for iid, message in checks.check_bound_groups(bounds).items():
        hard.setdefault(iid, []).append(message)
    return hard, soft, short


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile, 0 < p < 1.

    A mean of all order statistics, the i-th of n weighted by the mass of
    Beta(p(n + 1), (1 - p)(n + 1)) on ((i - 1)/n, i/n].  With a few dozen
    instances, the plain sample quantile jumps from one instance to the
    next as noise reorders them; this estimate moves smoothly, and its
    spread between runs is about half the sample quantile's here.
    """
    v = sorted(values)
    n = len(v)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 200  # midpoint rule, per order statistic
    weights = [0.0] * n
    for k in range(steps * n):
        t = (k + 0.5) / (steps * n)
        weights[k // steps] += math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_beta)
    return sum(w * x for w, x in zip(weights, v)) / sum(weights)


def tail(values):
    """(value, percentile): the highest percentile with at least ten values beyond it."""
    v = list(values)
    if len(v) <= 10:
        return max(v), 100.0
    p = (len(v) - 10) / len(v)
    return quantile(v, p), 100.0 * p


def emit(name, value, unit, note=""):
    print(f"metric {name} = {value:.6g} {unit}{'  ' + note if note else ''}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "galedual" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'galedual'}; run from a galedual checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = SCRATCH / f"{args.workload}-{os.getpid()}"
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()


def measure(args, workdir):
    host = HostSpeed()
    setups = []
    for _ in range(SETUP_REPEATS):
        host.sample(force=True)
        start = perf_counter()
        modules, instances = setup(args.workload, args.seed, workdir)
        setups.append((start, perf_counter() - start))
    host.sample(force=True)
    setup_raw = statistics.median(wall for _, wall in setups)
    setup_s = statistics.median(host.scale(*s) for s in setups)
    main_fn = modules["cli"].main
    client = Client(instances, workdir, host)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {len(instances)} instances, "
          "closed loop, 1 client, in-process galedual.cli.main, 1 thread")
    print("blas " + " ".join(f"{v}={os.environ[v]}" for v in BLAS_VARS))

    untraced = Pass()

    def plain(iid, argv):
        return main_fn(argv)

    run_pass(client, instances, plain, untraced)
    if args.trace == 0:
        # after the first pass, the quick instances again and again until the time is up
        quick = [i for i in instances if untraced.walls[i.iid][0] < LONG_CALL_S]
        loop_start = untraced.starts[instances[0].iid][0]
        k = 0
        while quick and perf_counter() - loop_start < args.seconds:
            untraced.record(quick[k % len(quick)], *client.run(quick[k % len(quick)], plain))
            k += 1
        loop_time = perf_counter() - loop_start
    host.sample(force=True)
    timed = {iid: list(zip(untraced.starts[iid], walls)) for iid, walls in untraced.walls.items()}
    if args.trace == 0:
        # a second, untimed run of inputs that ran once, for the identity check
        budget = IDENTITY_RERUN_SHARE * loop_time
        for inst in sorted(instances, key=lambda i: untraced.walls[i.iid][0]):
            if budget <= 0:
                break
            if len(untraced.walls[inst.iid]) == 1:
                untraced.record(inst, *client.run(inst, plain))
                budget -= untraced.walls[inst.iid][-1]

    calls = sum(len(t) for t in timed.values())
    hard, soft, short = check_all(instances, untraced)
    # an instance is one operation, however often the loop repeated it, so a
    # run's counts do not depend on how many repeats fitted in its time
    attempted = len(instances)
    failed = sum(1 for i in instances if i.iid in hard or i.iid in soft)
    raw = {iid: statistics.median(wall for _, wall in t) for iid, t in timed.items()}
    latency = {iid: statistics.median(host.scale(*call) for call in t) for iid, t in timed.items()}

    for inst in instances:
        status = "; ".join(hard.get(inst.iid, []) + soft.get(inst.iid, [])) or "ok"
        code = untraced.first[inst.iid][0]
        print(f"instance {inst.iid} {inst.command} exit={code} latency_s={latency[inst.iid]:.4f} "
              f"raw_s={raw[inst.iid]:.4f} calls={len(timed[inst.iid])} {status}")
    print(f"host reference: median {statistics.median(host.durations) * 1000:.2f} ms over "
          f"{len(host.durations)} runs, scaled to {REFERENCE_NOMINAL_S * 1000:.1f} ms")

    metrics = {}
    if args.trace == 0:
        tail_value, tail_pct = tail(latency.values())
        raw_tail, _ = tail(raw.values())
        metrics = {
            "setup_s": (setup_s, "s"),
            "latency_p50_s": (quantile(latency.values(), 0.5), "s"),
            "latency_tail_s": (tail_value, "s"),
            # one pass at each instance's median latency: the harness's work
            # between calls is left out, and so is which instances the
            # repeats after the first pass happened to reach
            "instances_per_s": (len(latency) / sum(latency.values()), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        notes = {
            "setup_s": f"(raw {setup_raw:.4g} s)",
            "latency_p50_s": f"(raw {quantile(raw.values(), 0.5):.4g} s)",
            "latency_tail_s": f"(p{tail_pct:.1f} of {len(latency)} per-instance medians, 10 beyond; "
                              f"raw {raw_tail:.4g} s)",
            "instances_per_s": f"(raw {len(raw) / sum(raw.values()):.4g} 1/s; {calls} timed calls "
                               f"in {loop_time:.1f} s)",
        }
        for name, (value, unit) in metrics.items():
            emit(name, value, unit, notes.get(name, ""))
    else:
        traced = Pass()
        tracer = spans.Tracer()
        tracer.install(modules)
        client.sampling = False  # no reference runs inside the spans
        run_pass(client, instances, lambda iid, argv: tracer.call(iid, main_fn, argv), traced)
        host.sample(force=True)
        for inst in instances:
            if traced.first[inst.iid][2] != untraced.first[inst.iid][2]:
                hard.setdefault(inst.iid, []).append("traced output differs from untraced output")
        walls = {iid: w[0] for iid, w in traced.walls.items()}
        traced_time = sum(walls.values())
        uncovered = spans.uncovered_time(tracer, walls)
        for inst in instances:
            print(f"traced {inst.iid} wall_s={walls[inst.iid]:.4f} outside_spans_s={uncovered[inst.iid]:.6f}")
        module_self = spans.module_self_times(tracer)
        for module, t in sorted(module_self.items(), key=lambda kv: -kv[1]):
            print(f"self_time {module} = {t:.4f} s ({100 * t / traced_time:.1f}% of the traced pass)")
        # per-layer times are raw wall times: they are compared within one run;
        # the overhead compares two passes, so it is taken on scaled times
        scaled_traced = sum(host.scale(traced.starts[iid][0], wall) for iid, wall in walls.items())
        metrics = dict(spans.layer_metrics(tracer))
        metrics["trace.overhead_s"] = (scaled_traced - sum(latency.values()), "s")
        metrics["trace.uncovered_s"] = (sum(uncovered.values()), "s")
        emit("setup_s", setup_s, "s", "(untraced set-up, for reference)")
        for name, (value, unit) in metrics.items():
            emit(name, value, unit)

    # outcome shares: printed on every run, in the JSON of the traced run
    shortfall = sum(short.values()) / len(short) if short else 0.0
    emit("failed_share", failed / attempted, "ratio",
         f"({failed} of {attempted} instances; {len(hard)} hard, {len(soft)} soft)")
    emit("short_of_bound_share", shortfall, "ratio", "" if short else "(no solving on this workload)")
    if args.trace == 1:
        metrics["failed_share"] = (failed / attempted, "ratio")
        metrics["short_of_bound_share"] = (shortfall, "ratio")

    result = {
        "correct": not hard,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
