"""``--compare A.json B.json``: is B no worse than A, metric by metric?"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from benchmarks.pipeline.runner import SCHEMA


def _load(path: str) -> dict:
    record = json.loads(Path(path).read_text())
    if record.get("schema") != SCHEMA:
        raise SystemExit(f"{path}: not a {SCHEMA} record")
    return record


def _spread(metric: dict) -> float:
    """Run-to-run spread: range of the repeats as a share of their median."""
    values = metric["per_repeat"]
    middle = statistics.median(values)
    return (max(values) - min(values)) / middle if middle else 0.0


def _verdict(base: dict, cand: dict) -> tuple[str, float, float]:
    """(verdict, worsening as a share of the baseline, spread)."""
    lower = base["better"] == "lower"
    a, b = base["median"], cand["median"]
    if a == 0:
        # a metric that is 0 when healthy (failed_share): any rise fails
        return ("REGRESSION" if b > a else "ok"), 0.0, 0.0
    worse = (b - a) / a if lower else (a - b) / a
    spread = max(_spread(base), _spread(cand))
    if spread > base["bound"]:
        if lower:
            separated = max(cand["per_repeat"]) < min(base["per_repeat"])
        else:
            separated = min(cand["per_repeat"]) > max(base["per_repeat"])
        return ("better" if separated else "unresolved"), worse, spread
    return ("REGRESSION" if worse > base["bound"] else "ok"), worse, spread


def compare(path_a: str, path_b: str) -> int:
    """Print one row per metric x workload; non-zero on any regression."""
    a, b = _load(path_a), _load(path_b)
    for record, path in ((a, path_a), (b, path_b)):
        if not record["comparable"]:
            print(f"note: {path} was made with --quick; its numbers are not comparable")
    if a["host"] != b["host"]:
        print(f"note: different hosts\n  A: {a['host']}\n  B: {b['host']}")
    regressions = 0
    print(
        f"{'workload':<15}{'metric':<24}{'unit':<7}{'A median':>11}{'B median':>11}"
        f"{'worse by':>10}{'bound':>8}{'spread':>8}  verdict"
    )
    for name, base_wl in a["workloads"].items():
        cand_wl = b["workloads"].get(name)
        if cand_wl is None:
            print(f"{name:<15}missing from {path_b}")
            regressions += 1
            continue
        for metric, base in base_wl["metrics"].items():
            cand = cand_wl["metrics"].get(metric)
            if cand is None:
                print(f"{name:<15}{metric:<24}missing from {path_b}")
                regressions += 1
                continue
            verdict, worse, spread = _verdict(base, cand)
            regressions += verdict == "REGRESSION"
            print(
                f"{name:<15}{metric:<24}{base['unit']:<7}{base['median']:>11.4g}"
                f"{cand['median']:>11.4g}{100 * worse:>9.1f}%{100 * base['bound']:>7.0f}%"
                f"{100 * spread:>7.1f}%  {verdict}"
            )
        same_inputs = a["seed"] == b["seed"] and base_wl["params"] == cand_wl["params"]
        if same_inputs and base_wl["fingerprint"] != cand_wl["fingerprint"]:
            print(f"{name:<15}final digests differ for the same seed: REGRESSION")
            regressions += 1
        for record_wl, path in ((base_wl, path_a), (cand_wl, path_b)):
            failed = [check for check, ok in record_wl["checks"].items() if not ok]
            if failed:
                print(f"{name:<15}{path}: output checks failed: {', '.join(failed)}")
                regressions += 1
    print(f"\n{regressions} regression(s)")
    return 1 if regressions else 0
