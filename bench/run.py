"""Run one workload of the laxo benchmark and print its metrics.

    python3 bench/run.py --workload slice --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository: the program is imported from
``src/`` next to this directory, in this process, with one thread and
``LAXO_THREADS`` unset.  The workload (see ``workloads.py``) draws one
round of operations from the seed and repeats it a fixed number of times,
set by ``--seconds`` and the workload's nominal round time only, never by
how fast the program runs.  Every operation is checked, and every repeat must
return the same bytes; a failed check or an exception counts as a failed
operation.

Times are scaled to a reference host speed.  The host this was written on
is a shared 2-vCPU VM whose speed drifts by up to 2x over minutes, alike for
every kind of code, so raw times measure the neighbours as much as the
program.  While the rounds run, a timer signal every ``PROBE_EVERY_S``
times ``probe()``, a fixed kernel of small numpy calls and scalar float
loops like the program's own, in the same thread (about 2% of the time).
An operation's time, less the probes that ran inside it, is multiplied by
``REF_S`` over the median of the probes taken during it or within
``PROBE_WINDOW_S`` of it.  A change to the program moves the scaled times
as it moves the raw ones; host drift moves both the probe and the
operation and cancels.
The raw figures and the host factor (the run's median probe over ``REF_S``)
are in the diagnostics line.

``--trace 0`` prints the end-to-end metrics:

* ``setup_s``: median of five set-ups, this process's and four in fresh
  interpreters spread between the rounds; each covers import, problem, data
  and analyzer construction and the first ``convex_hull``, and is scaled by
  probes taken right after it in the same interpreter.
* ``wall_s``: the median over rounds of the round's time, checks excluded.
* ``points_per_s``: solution values returned per second of the operations
  that return them, median over rounds; slice points and independent solves
  on ``slice`` and ``pointwise``, restart knots, late slice points and decay
  grid points x times on ``longtime``.
* ``op_ms_p50`` / ``op_ms_tail``: latency of the workload's unit operation
  on Burgers/sine data (``solve_grid`` on ``slice``, an independent
  ``solve`` on ``pointwise``, ``solve_grid`` on the restarted problem on
  ``longtime``).  Each input's latency is its median over the rounds, which
  drops the host's single stalls; p50 and tail are taken over the inputs,
  the tail being the highest percentile with at least ten inputs beyond it,
  or the largest if there are ten or fewer.
* ``peak_rss_mb``: ``ru_maxrss`` of this process.

``--trace 1`` first repeats the round untraced half as often, then
installs the span wrappers of ``spans.py``, sets up again and repeats it
traced as often.  It prints per-layer calls and self time per round (self
time divided by the host factor), derived ratios
and ``trace.overhead_frac``; it fails unless the traced solution outputs
are byte-identical to the untraced ones.  Spans are written to
``bench/out/spans-<workload>.npz``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
diagnostics: environment, fail_frac, ref_err_max (the largest check
deviation as a share of its tolerance) with the deviation of every check,
tail percentile, sample counts, raw times, host factor and output digest.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 4              # set-ups in fresh interpreters, besides ours
REF_S = 1.0e-3                # the probe's time at the reference host speed
PROBE_EVERY_S = 0.05
PROBE_WINDOW_S = 0.3
PROBE_GRID = 257


def probe():
    """Time one run of the reference kernel; returns (midpoint, seconds).

    The kernel mimics one variational maximization per x: a vectorized
    scan of a concave-ish objective, then a scalar golden-section search.
    """
    import numpy as np
    ys = np.linspace(-3.0, 3.0, PROBE_GRID)
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(32):
        x = -1.0 + k / 16.0
        v = np.cos(ys) - (x - ys) ** 2 / 2.6
        j = int(np.argmax(v))
        lo, hi = float(ys[max(j - 1, 0)]), float(ys[min(j + 1, PROBE_GRID - 1)])
        for _ in range(40):
            a, b = lo + 0.381966 * (hi - lo), hi - 0.381966 * (hi - lo)
            if math.cos(a) - (x - a) ** 2 / 2.6 > math.cos(b) - (x - b) ** 2 / 2.6:
                hi = b
            else:
                lo = a
        acc += lo
    t1 = time.perf_counter()
    if not math.isfinite(acc):
        raise RuntimeError("probe kernel went wrong")
    return 0.5 * (t0 + t1), t1 - t0


def probed_median(n=9):
    return statistics.median(probe()[1] for _ in range(n))


class Recorder:
    """Runs, times, checks and digests the operations of a workload's rounds."""

    def __init__(self, ops, pause=nullcontext):
        self.ops = ops
        self.pause = pause
        self.samples = []           # (op index, round, start, end)
        self.probes = []            # (midpoint, seconds)
        self.first = {}             # op index -> digest of its first output
        self.bad = set()            # op indices whose output failed its check
        self.nodes = 0              # shock-curve nodes returned
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.dev = {}               # check label -> (max deviation, tol)
        self.errors = []
        self.digest = hashlib.sha256()

    def round(self):
        r = self.rounds
        self._tick()
        old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            for i, op in enumerate(self.ops):
                self.attempted += 1
                t0 = time.perf_counter()
                try:
                    out = op.fn()
                except Exception as err:     # an operation that raises fails
                    self.failed += 1
                    self.errors.append(
                        f"{op.tag}: {type(err).__name__}: {err}")
                    continue
                self.samples.append((i, r, t0, time.perf_counter()))
                self._judge(i, op, out)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, old)
        self._tick()
        self.rounds += 1

    def _tick(self, *_):
        self.probes.append(probe())

    def _judge(self, i, op, out):
        digest = hashlib.sha256(output_bytes(out)).hexdigest()
        if op.nodes is not None:
            self.nodes += op.nodes(out)
        if i in self.first:
            if digest != self.first[i]:
                self.bad.add(i)
                self.errors.append(f"{op.tag}: output differs from round 0")
            self.failed += i in self.bad
            return
        self.first[i] = digest
        self.digest.update(digest.encode())
        with self.pause():
            try:
                results = op.check(out)
            except Exception as err:
                results = [(f"{op.tag}_check", math.inf, 0.0)]
                self.errors.append(
                    f"{op.tag} check: {type(err).__name__}: {err}")
        for label, dev, tol in results:
            dev = float(dev)
            if not dev <= tol:                  # NaN fails too
                self.bad.add(i)
                self.errors.append(f"{op.tag}: {label} {dev!r} > {tol!r}")
            keep_worst(self.dev, label, dev, tol)
        self.failed += i in self.bad

    def scaled(self):
        """Per sample: (op index, round, raw seconds, scaled seconds).

        Raw seconds leave out the probes that ran inside the operation.
        """
        import numpy as np
        mid = np.array([p[0] for p in self.probes])
        dur = np.array([p[1] for p in self.probes])
        out = []
        for i, r, s, e in self.samples:
            near = (mid >= s - PROBE_WINDOW_S) & (mid <= e + PROBE_WINDOW_S)
            secs = e - s - float(np.sum(dur[(mid > s) & (mid < e)]))
            out.append((i, r, secs, secs * REF_S / float(np.median(dur[near]))))
        return out

    def host_factor(self):
        """The run's median probe time over ``REF_S``."""
        return statistics.median(p[1] for p in self.probes) / REF_S


def output_bytes(out):
    # repr of a float round-trips, so equal digests mean equal bits
    rp = getattr(out, "problem", None)
    if rp is not None and hasattr(rp, "data"):     # a RestartedProblem
        return rp.data.us.tobytes()
    return repr(out).encode()


def keep_worst(table, label, dev, tol):
    """Keep the largest deviation per check label; a NaN sticks."""
    old = table.get(label, (-math.inf, tol))[0]
    table[label] = (old if math.isnan(old) else
                    dev if math.isnan(dev) else max(old, dev), tol)


def environment(seed, laxo_threads):
    import numpy
    import scipy
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
                check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "commit": commit, "seed": seed,
            "LAXO_THREADS": laxo_threads, "machine": platform.machine()}


def probe_setup(workload, seed):
    """Scaled set-up time of a fresh interpreter, measured inside it."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=170,
                         check=True)
    return float(json.loads(res.stdout.strip().splitlines()[-1])["setup_s"])


def run_rounds(rec, count, between=None):
    """Run ``count`` rounds; call ``between(done)`` after each."""
    for i in range(count):
        rec.round()
        if between is not None:
            between(i + 1)
    return rec


def round_stats(ops, samples, k):
    """Per round: (seconds, points, seconds of the operations with points).

    ``samples`` come from ``Recorder.scaled``; ``k`` picks raw (2) or scaled
    (3) seconds.
    """
    stats = {}
    for s in samples:
        i, r, secs = s[0], s[1], s[k]
        pts = ops[i].points
        wall, points, busy = stats.get(r, (0.0, 0, 0.0))
        stats[r] = (wall + secs, points + pts, busy + (secs if pts else 0.0))
    return [stats[r] for r in sorted(stats)]


def tail(values):
    """Highest percentile with at least ten samples beyond it."""
    v = sorted(values)
    if len(v) <= 10:
        return v[-1], 100.0
    return v[len(v) - 11], 100.0 * (len(v) - 10) / len(v)


def summary(rec):
    shares = [d / t for d, t in rec.dev.values() if t > 0]
    return {
        "fail_frac": rec.failed / rec.attempted,
        "ref_err_max": max(shares) if shares else 0.0,
        "ref_err": {k: {"max": d, "tol": t}
                    for k, (d, t) in sorted(rec.dev.items())},
        "errors": rec.errors[:20],
        "rounds": rec.rounds,
        "ops_per_round": len(rec.ops),
        "host_factor": rec.host_factor(),
        "outputs_sha256": rec.digest.hexdigest(),
    }


def end_to_end(rec, setup_s):
    samples = rec.scaled()
    metrics, diag = {}, {"setup_samples_s": setup_s}
    for label, k in (("", 3), ("raw_", 2)):
        rounds = round_stats(rec.ops, samples, k)
        per_input = {}
        for s in samples:
            if rec.ops[s[0]].latency:
                per_input.setdefault(s[0], []).append(s[k])
        lat = [statistics.median(v) for v in per_input.values()]
        tail_s, pct = tail(lat)
        metrics[label] = {
            "wall_s": (statistics.median(w for w, _, _ in rounds), "s"),
            "points_per_s": (statistics.median(p / b for _, p, b in rounds),
                             "1/s"),
            "op_ms_p50": (1e3 * statistics.median(lat), "ms"),
            "op_ms_tail": (1e3 * tail_s, "ms"),
        }
    by_tag = {}
    for i, r, _, secs in samples:
        key = (rec.ops[i].tag, r)
        by_tag[key] = by_tag.get(key, 0.0) + secs
    tags = {tag for tag, _ in by_tag}
    diag["tag_s"] = {t: statistics.median(v for (tag, _), v in by_tag.items()
                                          if tag == t) for t in sorted(tags)}
    diag.update({"tail_percentile": pct, "op_inputs": len(lat),
                 "raw": {k: v for k, (v, _) in metrics["raw_"].items()}})
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        **metrics[""],
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }, diag


def per_layer(summary, plain, traced):
    from spans import NAMES
    n = traced.rounds
    scale = 1.0 / traced.host_factor()
    metrics = {}
    for name in NAMES:
        metrics[f"{name}.calls"] = (summary[name]["calls"] / n, "count")
        metrics[f"{name}.self_s"] = (summary[name]["self_s"] * scale / n, "s")

    def ratio(a, b):
        return a / b if b else 0.0

    def wall(rec):
        return statistics.median(
            w for w, _, _ in round_stats(rec.ops, rec.scaled(), 3))

    calls = {k: v["calls"] for k, v in summary.items()}
    maxi = calls["variational_core.maximize"]
    points = n * sum(op.points for op in traced.ops)
    phi = summary["initial_data.phi"]
    metrics.update({
        "variational_core.eval_E_per_maximize": (
            ratio(calls["variational_core.eval_E"], maxi), "ratio"),
        "variational_core.maximize_per_point": (ratio(maxi, points), "ratio"),
        "initial_data.phi.scalar_frac": (
            ratio(phi["scalar"], phi["calls"]), "ratio"),
        "initial_data.phi_per_maximize": (ratio(phi["calls"], maxi), "ratio"),
        "initial_data.primitive.elems": (
            summary["initial_data.primitive"]["elems"] / n, "count"),
        "shock_analysis.solves_per_node": (
            ratio(summary["variational_core.solve"]["in_track"],
                  traced.nodes), "ratio"),
        "trace.overhead_frac": (wall(traced) / wall(plain) - 1.0, "ratio"),
    })
    return metrics


def layer_table(metrics):
    total = sum(v for m, (v, _) in metrics.items() if m.endswith(".self_s"))
    rows = sorted(((m[:-len(".self_s")], v) for m, (v, _) in metrics.items()
                   if m.endswith(".self_s")), key=lambda kv: -kv[1])
    lines = [f"{'layer':44s} {'calls/round':>12s} {'self_s/round':>13s} "
             f"{'share':>7s}"]
    for name, v in rows:
        lines.append(f"{name:44s} {metrics[name + '.calls'][0]:12.1f} "
                     f"{v:13.4f} {100.0 * v / total:6.1f}%")
    return "\n".join(lines)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args()

    laxo_threads = os.environ.pop("LAXO_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "laxo" / "__init__.py").is_file():
        sys.exit(f"bench: no laxo sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]

    t0 = time.perf_counter()
    from workloads import WORKLOADS       # imports numpy and laxo
    if args.workload not in WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    st = wl.setup(args.seed)
    setup_main = (time.perf_counter() - t0) * REF_S / probed_median()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_main}))
        return

    import numpy as np

    def rng():
        return np.random.default_rng([args.seed, wl.index])

    env = environment(args.seed, laxo_threads)
    rounds = wl.rounds(args.seconds)
    if args.trace == 0:
        setup_s = [setup_main]

        def probe_setups(done):
            while len(setup_s) - 1 < done * SETUP_PROBES // rounds:
                setup_s.append(probe_setup(args.workload, args.seed))

        rec = run_rounds(Recorder(wl.ops(st, rng())), rounds, probe_setups)
        diag = summary(rec)
        metrics, more = end_to_end(rec, setup_s)
        diag.update(more)
        correct = rec.failed == 0
    else:
        from spans import Tracer, install
        plain = run_rounds(Recorder(wl.ops(st, rng())), max(1, rounds // 2))
        tracer = Tracer()
        install(tracer)
        st = wl.setup(args.seed)
        rec = run_rounds(Recorder(wl.ops(st, rng()), tracer.paused),
                         plain.rounds)
        diag = summary(rec)
        diag["traced_outputs_identical"] = plain.first == rec.first
        correct = (rec.failed == 0 and plain.failed == 0
                   and diag["traced_outputs_identical"])
        metrics = per_layer(tracer.summary(), plain, rec)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.save(out_dir / f"spans-{args.workload}.npz")
        print(layer_table(metrics))

    diag = {"workload": args.workload, "env": env, **diag}
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    print(json.dumps(diag))
    print(json.dumps({
        "correct": bool(correct), "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
