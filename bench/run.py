"""harmap benchmark: timed CLI workloads with output checks and layer traces.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload scan-shear --seed 1 --seconds 36 --trace 0

The harness imports ``harmap`` from ``src/`` of the checkout and runs the
workload's batch of command lines through ``harmap.cli.main`` in this process,
one job at a time, until ``--seconds`` have passed (at least two batches).
Every job's output is checked (see ``Gate``).  With ``--trace 0`` the last line
of standard output holds the end-to-end metrics; with ``--trace 1`` untraced
and traced batches alternate and it holds the per-layer metrics instead (see
``tracing.py``).  The line before it is a record of the run: environment,
sample counts, batch times and any failures.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_BATCHES = 2
#: set-ups made before every batch; ``setup_s`` is the median over the run
SETUP_REPS_PER_BATCH = 3
#: collision acceptance used by the gate: the CLI's default tolerance and
#: separation floor, independent of the floor a scan was run with
COLLISION_TOL = 1e-8
COLLISION_SEPARATION = 0.05


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cap_threads() -> dict:
    """Run BLAS/OpenMP pools with one thread (set before numpy loads).

    The load is one client running one job at a time.  With a second OpenBLAS
    thread on a 2-CPU host the Gauss-Legendre nodes that every set-up computes
    (``leggauss(256)``, an eigenvalue problem) took 10-17 ms in the median and
    up to 0.5 s when the other CPU was busy; with one thread 9-12 ms.
    """
    for var in BLAS_VARS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in BLAS_VARS}


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_cli():
    """Import ``harmap.cli`` afresh from ``src/`` of this checkout."""
    for name in [m for m in sys.modules if m == "harmap" or m.startswith("harmap.")]:
        del sys.modules[name]
    cli = importlib.import_module("harmap.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"harmap was imported from {cli.__file__}, not from {SRC}")
    return cli


def _module(name: str):
    """``name`` if it imports; an empty namespace otherwise, so that a traced run
    reports the names it would patch there as missing instead of failing."""
    try:
        return importlib.import_module(name)
    except ImportError:
        return types.SimpleNamespace()


def run_job(main, argv) -> tuple[int, str, str, float]:
    """(exit code, stdout, error, seconds) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    except SystemExit as exc:          # argparse rejects a command line
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:           # a crash is a failed job, not a failed run
        code = -1
        err.write(f"{type(exc).__name__}: {exc}")
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - t0


class Gate:
    """Checks every job's output.

    * the exit code is the expected one and the ``--json`` document validates
      against the schema shipped in ``harmap/schemas``;
    * verdicts match: scans find a collision, checks pass or fail as
      constructed, areas sit inside the class envelope, bound checks pass;
    * every reported collision is re-evaluated on a freshly built mapping
      (through ``harmap eval``) and must close to ``1e-8`` with the points at
      least 0.05 apart;
    * a render spec that appears more than once yields the same SHA-256.
    """

    def __init__(self, cli):
        import jsonschema  # test extra of the package; imported before timing

        self.main = cli.main
        self.validate = jsonschema.validate
        self.schema_error = jsonschema.ValidationError
        schema_dir = Path(cli.__file__).resolve().parent / "schemas"
        self.schemas = {p.name: json.loads(p.read_text(encoding="utf-8"))
                        for p in schema_dir.glob("*.json")}
        self.digests: dict[tuple, str] = {}

    def check(self, job, code: int, out: str, err: str) -> str | None:
        """None when the output is right, else the reason it is not."""
        if code != job.code:
            return f"exit {code}, expected {job.code}: {err.strip()[:200]}"
        try:
            doc = json.loads(out)
            self.validate(doc, self.schemas[job.schema])
        except (ValueError, KeyError, self.schema_error) as exc:
            return f"bad JSON document: {str(exc)[:200]}"
        return getattr(self, "_" + job.argv[0].replace("-", "_"))(job, doc)

    def _f(self, family: str, z: list) -> complex:
        code, out, err, _ = run_job(self.main, ("eval", "--family", family,
                                                f"--z={z[0]!r},{z[1]!r}", "--json"))
        if code != 0:
            raise ValueError(f"re-evaluation failed: {err.strip()[:200]}")
        f = json.loads(out)["f"]
        return complex(f[0], f[1])

    def _collision(self, family: str, z1, z2) -> str | None:
        if z1 is None or z2 is None:
            return "collision without a point pair"
        try:
            gap = abs(self._f(family, z1) - self._f(family, z2))
        except ValueError as exc:
            return str(exc)
        sep = abs(complex(*z1) - complex(*z2))
        if not gap <= COLLISION_TOL:
            return f"re-evaluated collision gap {gap:.3e} > {COLLISION_TOL}"
        if not sep >= COLLISION_SEPARATION:
            return f"collision points only {sep:.4f} apart"
        return None

    def _univalence(self, job, doc):
        rep = doc["report"]
        if rep["verdict"] != job.expect["verdict"]:
            return f"verdict {rep['verdict']}, expected {job.expect['verdict']}"
        if rep["details"].get("grid") != job.expect["grid"]:
            return f"grid {rep['details'].get('grid')}, expected {job.expect['grid']}"
        return self._collision(job.expect["family"], rep["z1"], rep["z2"])

    def _check(self, job, doc):
        if doc["report"]["pass"] != job.expect["pass"]:
            return f"check pass={doc['report']['pass']}, expected {job.expect['pass']}"
        return None

    def _eval(self, job, doc):
        if not all(math.isfinite(v) for v in (*doc["f"], doc["jacobian"])):
            return "non-finite value"
        return None

    def _counterexample(self, job, doc):
        return self._collision(f"counterexample:gamma={doc['gamma']!r}",
                               doc["z1"], doc["z2"])

    def _area(self, job, doc):
        if doc.get("inside") is not job.expect["inside"]:
            return f"area inside={doc.get('inside')}, expected {job.expect['inside']}"
        closed = doc.get("closed_form")
        if closed is not None and abs(doc["area"] - closed) > 1e-8 * max(1.0, abs(closed)):
            return f"area {doc['area']} differs from closed form {closed}"
        return None

    def _verify_bounds(self, job, doc):
        if doc["all_pass"] is not True or not all(r["pass"] for r in doc["reports"]):
            return "verify-bounds reported a failing check"
        if len(doc["reports"]) != job.expect["reports"]:
            return f"{len(doc['reports'])} reports, expected {job.expect['reports']}"
        return None

    def _render(self, job, doc):
        first = self.digests.setdefault(job.argv, doc["sha256"])
        if first != doc["sha256"] or doc["bytes"] <= 0:
            return "render digest differs between identical specs"
        return None


def p90(values: list[float]) -> float:
    """90th percentile, interpolated between the sorted samples (the inclusive
    method of ``statistics.quantiles``, numpy's default).  The exclusive method
    sits on the largest samples when a run has only 18-30 jobs (the scans), so
    one slow job moved it."""
    return (statistics.quantiles(values, n=10, method="inclusive")[-1]
            if len(values) > 1 else values[0])


def measure(args) -> dict:
    from workloads import WARMUP, build  # noqa: E402  (bench/ is on sys.path)

    jobs = build(args.workload, args.seed, smoke=args.smoke)
    setup: list[float] = []

    def set_up():
        """Import ``harmap.cli`` afresh and run the warm-up jobs, several times;
        the last import serves the next batch.  Set-ups are spread over the
        run, so their median sees the same machine as the batch times."""
        for _ in range(SETUP_REPS_PER_BATCH):
            gc.collect()
            t0 = time.perf_counter()
            cli = import_cli()
            for argv in WARMUP[args.workload]:
                code, _, err, _ = run_job(cli.main, argv)
                if code != 0:
                    raise RuntimeError(f"warm-up job {argv} failed: {err.strip()}")
            setup.append(time.perf_counter() - t0)
        return cli

    import tracing

    gate = Gate(import_cli())
    tracer = tracing.Tracer() if args.trace else None
    failures: list[str] = []
    latencies: list[float] = []
    by_kind: dict[str, list[float]] = {}
    walls = {False: [], True: []}
    cpu: list[float] = []
    attempted = 0
    missing: set[str] = set()

    def batch(traced: bool) -> None:
        nonlocal attempted
        cli = set_up()
        gc.collect()
        results = []
        patches = (tracing.Patches(tracer, {"cli": cli, "bounds": _module("harmap.bounds")})
                   if traced else contextlib.nullcontext())
        main = tracer.span("cli:main", cli.main) if traced else cli.main
        t0, c0 = time.perf_counter(), time.process_time()
        with patches:
            for job in jobs:
                if traced:
                    tracer.start_job()
                results.append(run_job(main, job.argv))
        walls[traced].append(time.perf_counter() - t0)
        if traced:
            tracer.batches += 1
            missing.update(patches.missing)
        else:
            cpu.append(time.process_time() - c0)
            latencies.extend(r[3] for r in results)
            for job, r in zip(jobs, results):
                by_kind.setdefault(job.kind, []).append(r[3])
        for job, (code, out, err, _) in zip(jobs, results):
            attempted += 1
            why = gate.check(job, code, out, err)
            if why is not None:
                failures.append(f"{' '.join(job.argv)}: {why}")

    t_start = time.perf_counter()
    plan = (False, True) if args.trace else (False,)
    # stop at the batch boundary nearest to --seconds
    while (len(walls[plan[-1]]) < (1 if args.trace else MIN_BATCHES)
           or time.perf_counter() - t_start
           + 0.5 * sum(statistics.median(walls[t]) for t in plan) < args.seconds):
        for traced in plan:
            batch(traced)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "jobs_per_batch": len(jobs),
        "batches": {"untraced": len(walls[False]), "traced": len(walls[True])},
        "batch_wall_s": {"untraced": walls[False], "traced": walls[True]},
        "batch_cpu_s": cpu, "job_samples": len(latencies),
        "kind_p50_ms": {k: 1e3 * statistics.median(v) for k, v in by_kind.items()},
        "setup_reps_s": setup, "failed_frac": len(failures) / max(attempted, 1),
        "failures": failures[:20], "argv_first": list(jobs[0].argv),
    }
    if args.trace:
        metrics, dropped = tracing.layer_metrics(tracer, missing, walls[True], walls[False])
        record["missing"] = dropped
        record["trace_hook_errors"] = tracer.counts["trace.hook_errors"]
        units = _units("per_layer")
    else:
        wall = statistics.median(walls[False])
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "jobs_per_s": len(latencies) / sum(latencies),
            "job_p50_ms": 1e3 * statistics.median(latencies),
            "job_p90_ms": 1e3 * p90(latencies),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = _units("end_to_end")
    return {
        "record": record,
        "result": {
            "correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": {k: {"value": v, "unit": units.get(k, "")} for k, v in metrics.items()},
        },
    }


def _units(section: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def environment(threads: dict) -> dict:
    import numpy

    return {
        "nproc": _nproc(), "python": platform.python_version(),
        "numpy": numpy.__version__, "blas_threads": threads,
        "machine": platform.machine(), "commit": git_commit(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="smallest size of the workload (used by the self-test)")
    args = p.parse_args(argv)
    threads = cap_threads()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    try:
        out = measure(args)
    except (ImportError, OSError, RuntimeError, ValueError) as exc:
        print(f"benchmark error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    out["record"]["env"] = environment(threads)
    print(json.dumps({"record": out["record"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
