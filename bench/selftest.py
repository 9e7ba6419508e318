"""Fast self-test of the benchmark harness (about half a minute on 2 cores).

* span arithmetic on a synthetic tree: self time is duration minus the union
  of the children, never negative, and children never outlast their parent;
* the same invariants on spans recorded from real traced jobs, plus counts
  that repeat exactly when the same jobs run twice;
* every workload at its smallest size, untraced and traced: all outputs pass
  the gate and every metric named in ``BENCHMARK.json`` is reported.

Run from the root of a checkout: ``python3 bench/selftest.py``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.cap_threads()
sys.path.insert(0, str(run.SRC))

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
failures: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(f"{'ok  ' if cond else 'FAIL'} {what}", flush=True)
    if not cond:
        failures.append(what)


def check_tree(spans: list[tracing.Span], label: str) -> None:
    selfs = tracing.self_times(spans)
    expect(all(s >= 0.0 for s in selfs), f"{label}: self times are non-negative")
    inside = all(spans[s.parent].start <= s.start <= s.end <= spans[s.parent].end
                 for s in spans if s.parent >= 0)
    expect(inside, f"{label}: children lie within their parents")
    roots = [i for i, s in enumerate(spans) if s.parent < 0]
    by_job = {spans[i].job: spans[i].end - spans[i].start for i in roots}
    total = {j: 0.0 for j in by_job}
    for s, st in zip(spans, selfs):
        total[s.job] += st
    expect(all(abs(total[j] - by_job[j]) < 1e-9 for j in by_job),
           f"{label}: self times of a job add up to its root span")


def synthetic() -> None:
    S = tracing.Span
    spans = [S("cli:main", 0.0, 10.0, -1, 0),
             S("mappings:eval", 1.0, 4.0, 0, 0),
             S("bounds:verify", 3.0, 6.0, 0, 0),     # overlaps its sibling
             S("special:hyp2f1", 2.0, 3.0, 1, 0),
             S("cli:main", 10.0, 11.0, -1, 1)]
    selfs = tracing.self_times(spans)
    expect(selfs == [5.0, 2.0, 3.0, 1.0, 1.0], f"synthetic self times {selfs}")
    inverted = [S("cli:main", 0.0, 1.0, -1, 0), S("render:x", 0.5, 3.0, 0, 0)]
    expect(min(tracing.self_times(inverted)) >= 0.0,
           "a child that outlasts its parent never makes self time negative")
    nested = [S("cli:main", 0.0, 10.0, -1, 0),
              S("mappings:eval", 1.0, 4.0, 0, 0),
              S("bounds:verify", 5.0, 7.0, 0, 0),
              S("special:hyp2f1", 2.0, 3.0, 1, 0),
              S("cli:main", 10.0, 11.0, -1, 1)]
    expect(tracing.self_times(nested) == [5.0, 2.0, 2.0, 1.0, 1.0], "nested self times")
    check_tree(nested, "synthetic tree")


def recorded() -> None:
    cli = run.import_cli()
    bounds_mod = run._module("harmap.bounds")

    jobs = workloads.build("cli-mix", 3, smoke=True) + workloads.build("scan-poly", 3, smoke=True)
    counts = []
    for rep in range(2):
        tr = tracing.Tracer()
        with tracing.Patches(tr, {"cli": cli, "bounds": bounds_mod}) as patches:
            main = tr.span("cli:main", cli.main)
            for job in jobs:
                tr.start_job()
                run.run_job(main, job.argv)
        expect(not patches.missing, f"every patched name exists ({sorted(patches.missing)})")
        counts.append(dict(tr.counts))
    check_tree(tr.spans, "recorded spans")
    expect(counts[0] == counts[1], "layer counts repeat exactly on identical jobs")


def smallest(workload: str) -> None:
    for trace in (0, 1):
        args = SimpleNamespace(workload=workload, seed=1, seconds=0, trace=trace, smoke=True)
        out = run.measure(args)
        res = out["result"]
        section = "per_layer" if trace else "end_to_end"
        names = {m["name"] for m in SPEC[section]}
        expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
               f"{workload} trace={trace}: all outputs pass the gate "
               f"{out['record']['failures'][:2]}")
        expect(set(res["metrics"]) == names,
               f"{workload} trace={trace}: reports every {section} metric "
               f"(missing {sorted(names - set(res['metrics']))})")
        if not trace:
            expect(all(v["value"] > 0 for v in res["metrics"].values()),
                   f"{workload}: end-to-end metrics are positive")


def main() -> int:
    synthetic()
    recorded()
    for w in workloads.BUILDERS:
        smallest(w)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
