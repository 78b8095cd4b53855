"""Run every workload over several seeds and summarise the spread.

    python3 bench/sweep.py --seeds 10 [--trace] [--out FILE]

Each run is ``bench/run.py`` in a fresh interpreter, one after another, on
every workload of ``BENCHMARK.json`` with seeds 1, 2, ... and its
``run_seconds``.  For every end-to-end metric the
sweep prints the median of the runs and the spread, the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a share
of the median, and flags a spread of a third of the metric's bound or more;
it prints the same spread of the unscaled times beside them.
With ``--trace`` it also makes one traced run per workload and prints each
layer's share of the traced self time per workload.  ``--out`` writes all of
it, with the environment, as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace))]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or len(lines) < 2:
        sys.exit(f"{' '.join(cmd)} failed ({res.returncode}):\n{res.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def layer_shares(traced):
    """Per layer and workload: share of the summed self time, in percent."""
    shares = {}
    for wl, metrics in traced.items():
        self_s = {m[:-len(".self_s")]: v["value"] for m, v in metrics.items()
                  if m.endswith(".self_s")}
        total = sum(self_s.values())
        for layer, v in self_s.items():
            shares.setdefault(layer, {})[wl] = 100.0 * v / total
    return shares


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer_names = {m["name"] for m in spec["per_layer"]}
    report = {"run_seconds": seconds, "seeds": list(range(1, args.seeds + 1)),
              "workloads": {}}
    ok = True
    for wl in names:
        runs = [run(wl, s, seconds, False) for s in report["seeds"]]
        report.setdefault("env", runs[0][0]["env"])
        entry = {"attempted": sum(r["attempted"] for _, r in runs),
                 "failed": sum(r["failed"] for _, r in runs),
                 "correct": all(r["correct"] for _, r in runs),
                 "tail_percentile": runs[0][0]["tail_percentile"],
                 "op_inputs": runs[0][0]["op_inputs"],
                 "rounds": runs[0][0]["rounds"],
                 "ref_err_max": max(d["ref_err_max"] for d, _ in runs),
                 "host_factor": [d["host_factor"] for d, _ in runs],
                 "tag_s": {tag: statistics.median(d["tag_s"][tag]
                                                  for d, _ in runs)
                           for tag in runs[0][0]["tag_s"]},
                 "metrics": {}, "raw": {}}
        ok &= entry["correct"]
        for _, r in runs:
            if set(r["metrics"]) != set(e2e):
                sys.exit(f"{wl}: metrics {sorted(r['metrics'])} differ from "
                         "BENCHMARK.json")
        print(f"\n{wl}: {entry['attempted']} operations, "
              f"{entry['failed']} failed")
        for name, m in e2e.items():
            s = spread([r["metrics"][name]["value"] for _, r in runs])
            s["bound"] = m["bound"]
            entry["metrics"][name] = s
            wide = s["spread"] >= m["bound"] / 3.0
            ok &= not wide
            print(f"  {name:14s} median {s['median']:12.6g} {m['unit']:4s} "
                  f"spread {100 * s['spread']:5.2f}% (bound "
                  f"{100 * m['bound']:.0f}%){'  WIDE' if wide else ''}")
        for name in runs[0][0]["raw"]:
            s = spread([d["raw"][name] for d, _ in runs])
            entry["raw"][name] = s
            print(f"  raw {name:10s} median {s['median']:12.6g}      "
                  f"spread {100 * s['spread']:5.2f}%")
        report["workloads"][wl] = entry

    if args.trace:
        traced = {}
        for wl in names:
            diag, r = run(wl, report["seeds"][0], seconds, True)
            if set(r["metrics"]) != layer_names:
                sys.exit(f"{wl}: traced metrics differ from BENCHMARK.json")
            ok &= r["correct"] and diag["traced_outputs_identical"]
            traced[wl] = r["metrics"]
        shares = layer_shares(traced)
        report["traced"] = traced
        report["layer_share_pct"] = shares
        print(f"\n{'layer self-time share, %':44s}"
              + "".join(f"{wl:>11s}" for wl in names))
        for layer in sorted(shares, key=lambda k: -max(shares[k].values())):
            print(f"{layer:44s}"
                  + "".join(f"{shares[layer][wl]:11.2f}" for wl in names))

    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
