"""Run the benchmark over several seeds and summarise each metric.

For every workload this runs ``bench/run.py`` once per seed (one process at a
time), then reports the median and quartiles of each end-to-end metric and
its spread: the inter-quartile distance as a share of the median, which must
stay within the metric's bound.  With ``--traced-seed`` one traced run per
workload is added.  ``--out`` writes the summary as JSON, e.g. a baseline::

    python3 bench/summarize.py --seeds 1-10 --traced-seed 1 \\
        --out bench/baseline/<commit>.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    return {"record": json.loads(lines[-2])["record"], "result": json.loads(lines[-1])}


def stats(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "values": values}


def parse_seeds(text: str) -> list[int]:
    out: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    p.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    p.add_argument("--traced-seed", type=int, default=None)
    p.add_argument("--out", default=None)
    args = p.parse_args()

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    summary: dict = {"command": ["python3", "bench/summarize.py", *sys.argv[1:]],
                     "seconds": args.seconds, "seeds": parse_seeds(args.seeds),
                     "workloads": {}}
    ok = True
    for w in args.workloads.split(","):
        runs = [run(w, s, args.seconds, 0) for s in summary["seeds"]]
        failed = sum(r["result"]["failed"] for r in runs)
        entry = {"env": runs[0]["record"]["env"], "failed": failed,
                 "attempted": sum(r["result"]["attempted"] for r in runs),
                 "metrics": {}}
        for name in bounds:
            st = stats([r["result"]["metrics"][name]["value"] for r in runs])
            st["unit"] = runs[0]["result"]["metrics"][name]["unit"]
            entry["metrics"][name] = st
            flag = "" if name == "setup_s" or st["spread"] <= bounds[name] / 3 else "  WIDE"
            ok &= not flag
            print(f"{w:13s} {name:12s} median {st['median']:10.4f} {st['unit']:4s} "
                  f"spread {st['spread']:.3f} (bound {bounds[name]}){flag}  "
                  + " ".join(f"{v:.4g}" for v in st["values"]), flush=True)
        if failed:
            ok = False
            print(f"{w}: {failed} failed jobs", flush=True)
        if args.traced_seed is not None:
            tr = run(w, args.traced_seed, args.seconds, 1)
            entry["traced"] = {"seed": args.traced_seed,
                               "metrics": {k: v["value"]
                                           for k, v in tr["result"]["metrics"].items()},
                               "missing": tr["record"].get("missing", [])}
        summary["workloads"][w] = entry
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
