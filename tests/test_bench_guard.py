"""The benchmark's traced runs still read every per-layer metric.

``bench/tracing.py`` measures the library by patching names it imports and by
wrapping the ``f.h``/``f.g`` views of the mappings it builds.  A refactor that
drops one of those names loses metrics from a traced run, so every patched
name is looked up, and each workload is run once, at its smallest size,
traced, exactly as the benchmark runs it.  This reads ``bench/`` and
``BENCHMARK.json`` and changes neither.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from harmap import bounds, cli

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _strict_json(line: str):
    """``line`` as JSON that has no ``NaN`` or ``Infinity``."""

    def refuse(constant):
        raise ValueError(f"non-finite JSON constant {constant}")

    return json.loads(line, parse_constant=refuse)


def test_every_name_the_tracer_patches_is_callable():
    # a missing name is skipped by the tracer, and its metrics go missing
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracing  # dataclasses look their module up
    try:
        spec.loader.exec_module(tracing)
        rows = tracing._patch_table(tracing.Tracer())
    finally:
        del sys.modules[spec.name]
    modules = {"cli": cli, "bounds": bounds}
    missing = [f"{key}.{name}" for key, name, *_ in rows
               if not callable(getattr(modules[key], name, None))]
    assert rows and not missing, missing


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_smoke_run_reports_every_metric(workload):
    res = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--smoke", "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert res.returncode == 0, res.stderr
    *_, record_line, result_line = res.stdout.strip().splitlines()
    result = _strict_json(result_line)
    record = _strict_json(record_line)["record"]
    assert record["missing"] == []
    assert {m["name"] for m in BENCHMARK["per_layer"]} <= set(result["metrics"])
    assert result["correct"] is True
