"""Parent side: start the child runs, take medians, check, record, print."""

from __future__ import annotations

import datetime
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from benchmarks.pipeline import catalogue

PACKAGE_DIR = Path(__file__).resolve().parent
REPO_ROOT = PACKAGE_DIR.parents[1]
OUT_DIR = PACKAGE_DIR / "out"
SCHEMA = "zendoo-pipeline-bench/1"

#: A child that has not finished by then is killed and the run fails.
CHILD_TIMEOUT_S = 170


def check_manifest() -> None:
    """Refuse to run when ``BENCHMARK.json`` and the catalogue disagree."""
    path = REPO_ROOT / "BENCHMARK.json"
    declared = json.loads(path.read_text())
    if declared != catalogue.manifest():
        raise SystemExit(
            f"{path} is out of date: regenerate it with "
            "`python -m benchmarks.pipeline --write-manifest`"
        )


def host_fingerprint() -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cores": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": importlib.util.find_spec("numpy") is not None,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
    }


def sized(workload: catalogue.Workload, seconds: float, quick: bool) -> dict:
    """The workload's parameters with the epoch count scaled to ``seconds``."""
    if quick:
        return dict(workload.quick)
    params = dict(workload.params)
    params["epochs"] = max(1, round(params["epochs"] * seconds / catalogue.RUN_SECONDS))
    return params


def run_child(workload: str, params: dict, seed: int, traced: bool, serial: int) -> dict:
    """One run in a fresh interpreter; raises when it does not report."""
    OUT_DIR.mkdir(exist_ok=True)
    # default program configuration: none of the program's env switches
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT), *filter(None, [env.get("PYTHONPATH")])]
    )
    # set and dict order of byte keys then repeats, and so does disk_mb
    env["PYTHONHASHSEED"] = "0"
    spec = {
        "workload": workload,
        "params": params,
        "seed": seed,
        "traced": traced,
        "data_root": str(OUT_DIR / f"data-{os.getpid()}-{serial}"),
        "trace_path": str(OUT_DIR / f"trace-{workload}.json"),
        "spawned_at": time.monotonic(),
    }
    try:
        done = subprocess.run(
            [sys.executable, "-m", "benchmarks.pipeline", "--child", json.dumps(spec)],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{workload}: run exceeded {CHILD_TIMEOUT_S} s and was killed")
    if done.returncode != 0 or not done.stdout.strip():
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload}: run failed with exit code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


# -- statistics -----------------------------------------------------------------


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def highest_supported_percentile(samples: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 20:
        return None
    return {"percentile": 100.0 * (n - 10) / n, "value": sorted(samples)[n - 11]}


def _per_run(values: list[float]) -> dict:
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
        "per_repeat": values,
    }


def _per_operation(per_repeat_samples: list[list[float]], fixed_percentile: int) -> dict:
    pooled = [s for samples in per_repeat_samples for s in samples]
    if fixed_percentile:
        pick = lambda xs: percentile(xs, fixed_percentile)  # noqa: E731
    else:
        pick = statistics.median
    return {
        "median": pick(pooled),
        "min": min(pooled),
        "max": max(pooled),
        "n": len(pooled),
        "per_repeat": [pick(samples) for samples in per_repeat_samples],
        "tail": highest_supported_percentile(pooled),
    }


def summarise(workload: str, runs: list[dict]) -> dict:
    """Medians over the untraced ``runs`` of one workload."""
    metrics = {}
    for metric in catalogue.END_TO_END:
        if workload not in metric.workloads:
            continue
        if metric.samples:
            stats = _per_operation(
                [run["samples"][metric.samples] for run in runs], metric.percentile
            )
        else:
            stats = _per_run([run["values"][metric.name] for run in runs])
        metrics[metric.name] = {
            "unit": metric.unit,
            "better": metric.better,
            "bound": metric.bound,
            **stats,
        }
    checks = {
        name: all(run["checks"][name] for run in runs) for name in runs[0]["checks"]
    }
    fingerprints = {json.dumps(run["fingerprint"], sort_keys=True) for run in runs}
    checks["repeats_identical"] = len(fingerprints) == 1
    if "disk_mb" in metrics:
        checks["disk_mb_repeats_exactly"] = metrics["disk_mb"]["min"] == metrics["disk_mb"]["max"]
    return {
        "params": runs[0]["params"],
        "field_backend": runs[0]["field_backend"],
        "metrics": metrics,
        "loadgen_s": _per_run([run["timing"]["loadgen_s"] for run in runs]),
        "ops": {
            "attempted": sum(run["counts"]["ops_attempted"] for run in runs),
            "failed": sum(run["counts"]["ops_failed"] for run in runs),
        },
        "checks": checks,
        "fingerprint": runs[0]["fingerprint"],
    }


def attach_trace(summary: dict, traced: dict) -> None:
    """Add the traced run's layer table and what tracing cost."""
    layers = dict(traced["layers"])
    untraced = summary["metrics"]["run_s"]["median"]
    layers["trace.overhead_pct"] = 100.0 * (traced["timing"]["run_s"] - untraced) / untraced
    for metric in catalogue.END_TO_END:
        if not metric.everywhere:
            entry = summary["metrics"].get(metric.name)
            layers[f"e2e.{metric.name}"] = entry["median"] if entry else 0.0
    summary["layers"] = layers
    summary["span_totals"] = traced["span_totals"]
    summary["checks"]["traced_run_checks"] = all(traced["checks"].values())
    summary["checks"]["traced_run_identical"] = traced["fingerprint"] == summary["fingerprint"]


def run_workload(
    name: str, seed: int, seconds: float, repeats: int, traced: bool, quick: bool
) -> dict:
    params = sized(catalogue.workload(name), seconds, quick)
    runs = [run_child(name, params, seed, False, serial) for serial in range(repeats)]
    summary = summarise(name, runs)
    if traced:
        attach_trace(summary, run_child(name, params, seed, True, repeats))
    return summary


# -- output -----------------------------------------------------------------------


def write_record(
    workloads: dict, seed: int, seconds: float, repeats: int, quick: bool, label: str
) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "schema": SCHEMA,
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "host": host_fingerprint(),
        "seed": seed,
        "seconds": seconds,
        "repeats": repeats,
        "quick": quick,
        "comparable": not quick,
        "workloads": workloads,
    }
    path = OUT_DIR / f"{label}.json"
    path.write_text(json.dumps(record, indent=1))
    return path


def _fmt(value: float) -> str:
    return f"{value:.4g}" if abs(value) < 1000 else f"{value:.0f}"


def print_summary(name: str, summary: dict, quick: bool) -> None:
    note = "  [--quick: numbers are NOT comparable]" if quick else ""
    print(f"\n== {name}{note}")
    print(f"   {catalogue.workload(name).why}")
    print(f"   {'metric':<24}{'unit':<7}{'median':>11}{'min':>11}{'max':>11}{'n':>6}  tail")
    for metric, m in summary["metrics"].items():
        tail = m.get("tail")
        tail_text = f"p{tail['percentile']:.0f}={_fmt(tail['value'])}" if tail else ""
        print(
            f"   {metric:<24}{m['unit']:<7}{_fmt(m['median']):>11}{_fmt(m['min']):>11}"
            f"{_fmt(m['max']):>11}{m['n']:>6}  {tail_text}"
        )
    loadgen = summary["loadgen_s"]
    print(f"   {'loadgen_s (not gated)':<24}{'s':<7}{_fmt(loadgen['median']):>11}")
    failed = [check for check, ok in summary["checks"].items() if not ok]
    print(
        f"   checks: {len(summary['checks']) - len(failed)}/{len(summary['checks'])} passed"
        + (f"  FAILED: {', '.join(failed)}" if failed else "")
    )
    if "layers" in summary:
        print_layers(summary)


def print_layers(summary: dict) -> None:
    layers = summary["layers"]
    run_s = layers["trace.run_s"]
    print(
        f"   traced run: run_s {_fmt(run_s)} s, overhead {layers['trace.overhead_pct']:.1f} %, "
        f"{layers['trace.spans']:.0f} spans, {layers['trace.attributed_pct']:.1f} % in layer spans"
    )
    layer_s: dict[str, float] = {}
    for span, totals in summary["span_totals"].items():
        parts = span.split(".")
        layer = ".".join(parts[:2])
        layer_s[layer] = layer_s.get(layer, 0.0) + totals["self_s"]
    layer_s["driver (unattributed)"] = layers["driver.unattributed_s"]
    top: dict[str, float] = {}
    for layer, seconds in layer_s.items():
        top[layer.split(".")[0]] = top.get(layer.split(".")[0], 0.0) + seconds
    print(
        "   shares of run_s: "
        + ", ".join(
            f"{name} {100 * seconds / run_s:.1f} %"
            for name, seconds in sorted(top.items(), key=lambda item: -item[1])
        )
    )
    for layer, seconds in sorted(layer_s.items(), key=lambda item: -item[1]):
        if seconds / run_s >= 0.005:
            print(f"     {layer:<28}{seconds:>9.3f} s{100 * seconds / run_s:>7.1f} %")


def contract_line(summary: dict, trace: int) -> str:
    """The one JSON object the driver reads from the last line of stdout."""
    if trace:
        metrics = {
            m.name: {"value": float(summary["layers"][m.name]), "unit": m.unit}
            for m in catalogue.PER_LAYER
        }
    else:
        metrics = {
            m.name: {"value": summary["metrics"][m.name]["median"], "unit": m.unit}
            for m in catalogue.END_TO_END
            if m.everywhere
        }
    return json.dumps(
        {
            "correct": all(summary["checks"].values()),
            "attempted": summary["ops"]["attempted"],
            "failed": summary["ops"]["failed"],
            "metrics": metrics,
        }
    )
