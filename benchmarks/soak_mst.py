"""The million-UTXO paged-MST soak: ``python -m benchmarks.soak_mst``.

Builds one depth-30 :class:`FixedMerkleTree` over a million contiguous
leaves (the epoch-style bulk-restore shape) twice — under the dict node
store and under the paged node store spilling to an unnamed scratch file in
a temporary directory — each in its own child process, and fails unless:

* both stores reach the identical root;
* the paged build's peak RSS stays under ``baseline + HEADROOM_KB``
  (128 MiB), where the baseline is a child that imports everything and
  exits;
* the dict build measurably exceeds that same budget (otherwise the budget
  proves nothing);
* the paged build keeps at least half the dict build's throughput.

It prints one line per child and one line per check, writes no report file,
and is the nightly ``bench-soak`` CI leg.  ``--leaves`` shrinks it for a dry
run; with too few leaves the dict build fits the budget and the
dict-over-budget check fails, as it should.

``--store {dict,paged,baseline}`` runs one child and prints its one-line
JSON report::

    {"store": ..., "seconds": ..., "peak_rss_kb": ..., "root": "0x..", ...}

``peak_rss_kb`` is ``resource.getrusage(RUSAGE_SELF).ru_maxrss`` — a
*process-lifetime* high-water mark, which is exactly why every store runs
in a child process: one store's peak cannot mask the other's.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

DEFAULT_LEAVES = 1_000_000
DEFAULT_DEPTH = 30
DEFAULT_CHUNK = 65_536
DEFAULT_PAGE_SIZE = 1024
DEFAULT_CACHE_PAGES = 192
#: Peak-RSS headroom above the interpreter baseline that the paged store
#: must fit a million-UTXO depth-30 state into, and the dict store must not.
HEADROOM_KB = 131_072

REPO_ROOT = Path(__file__).resolve().parent.parent


def _peak_rss_kb() -> int:
    """Lifetime peak RSS of this process in KiB (Linux ``ru_maxrss`` unit)."""
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def run_soak(
    store: str,
    leaves: int,
    depth: int,
    chunk: int,
    page_size: int,
    cache_pages: int,
    data_dir: str | None,
) -> dict:
    """Build the tree under ``store`` and report wall time, peak RSS, root."""
    from repro.crypto.fixed_merkle import FixedMerkleTree
    from repro.storage.pages import DictNodeStore, FilePageBacking, PagedNodeStore

    report = {
        "store": store,
        "leaves": leaves,
        "depth": depth,
        "chunk": chunk,
        "baseline_rss_kb": _peak_rss_kb(),
    }
    if store == "baseline":
        report.update(seconds=0.0, peak_rss_kb=_peak_rss_kb(), root=None)
        return report

    backing = None
    if store == "dict":
        node_store = DictNodeStore()
    elif store == "paged":
        backing = FilePageBacking(data_dir or tempfile.gettempdir())
        node_store = PagedNodeStore(backing, page_size=page_size, cache_pages=cache_pages)
        report.update(page_size=page_size, cache_pages=cache_pages)
    else:
        raise ValueError(f"unknown store kind {store!r}")

    tree = FixedMerkleTree(depth, node_store=node_store)
    start = time.perf_counter()
    for lo in range(0, leaves, chunk):
        hi = min(lo + chunk, leaves)
        tree.set_leaves([(i, i + 1) for i in range(lo, hi)])
    root = tree.root
    elapsed = time.perf_counter() - start

    report.update(
        seconds=elapsed,
        peak_rss_kb=_peak_rss_kb(),
        root=hex(root),
        occupied=tree.occupied_count,
        store_detail=node_store.describe(),
    )
    if backing is not None:
        backing.close()
    return report


def _child(store: str, leaves: int, depth: int, data_dir: str | None = None) -> dict:
    """Run one ``--store`` child in a fresh interpreter and parse its report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    cmd = [
        sys.executable, "-m", "benchmarks.soak_mst",
        "--store", store, "--leaves", str(leaves), "--depth", str(depth),
    ]  # fmt: skip
    if data_dir is not None:
        cmd += ["--data-dir", data_dir]
    result = subprocess.run(
        cmd, cwd=REPO_ROOT, env=env, capture_output=True, text=True, check=True
    )
    return json.loads(result.stdout)


def soak(leaves: int, depth: int) -> dict[str, bool]:
    """Baseline, dict and paged children; print each, return the checks."""
    baseline = _child("baseline", leaves, depth)
    dict_run = _child("dict", leaves, depth)
    spill_dir = tempfile.mkdtemp(prefix="soak-mst-")
    try:
        paged_run = _child("paged", leaves, depth, data_dir=spill_dir)
    finally:
        shutil.rmtree(spill_dir, ignore_errors=True)

    budget_kb = baseline["peak_rss_kb"] + HEADROOM_KB
    ratio = dict_run["seconds"] / paged_run["seconds"] if paged_run["seconds"] else 0.0
    print(
        f"{leaves} leaves at depth {depth}: baseline "
        f"{baseline['peak_rss_kb'] // 1024} MiB, budget {budget_kb // 1024} MiB, "
        f"paged/dict throughput {ratio:.2f}x, "
        f"spill file {paged_run['store_detail']['backing']['bytes']} bytes"
    )
    for run in (dict_run, paged_run):
        print(
            f"  {run['store']:>5}: {run['seconds']:.1f} s, "
            f"{run['peak_rss_kb'] // 1024} MiB peak, root {run['root']}"
        )
    return {
        "roots_match": dict_run["root"] == paged_run["root"],
        "paged_under_rss_budget": paged_run["peak_rss_kb"] <= budget_kb,
        "dict_exceeds_rss_budget": dict_run["peak_rss_kb"] > budget_kb,
        "paged_throughput_at_least_half": ratio >= 0.5,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--store",
        choices=("dict", "paged", "baseline"),
        help="run one child and print its JSON report (default: the whole soak)",
    )
    parser.add_argument("--leaves", type=int, default=DEFAULT_LEAVES)
    parser.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
    parser.add_argument("--chunk", type=int, default=DEFAULT_CHUNK)
    parser.add_argument("--page-size", type=int, default=DEFAULT_PAGE_SIZE)
    parser.add_argument("--cache-pages", type=int, default=DEFAULT_CACHE_PAGES)
    parser.add_argument(
        "--data-dir",
        default=None,
        help="directory of the paged store's unnamed spill file (paged store "
        "only); defaults to the system temporary directory",
    )
    args = parser.parse_args(argv)
    if args.store is None:
        checks = soak(args.leaves, args.depth)
        for name, passed in checks.items():
            print(f"  check {name}: {'ok' if passed else 'FAIL'}")
        return 0 if all(checks.values()) else 1
    report = run_soak(
        args.store,
        args.leaves,
        args.depth,
        args.chunk,
        args.page_size,
        args.cache_pages,
        args.data_dir,
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
