"""Child process for the PR 9 million-UTXO soak: ``python -m benchmarks.soak_mst``.

Builds one depth-``--depth`` :class:`FixedMerkleTree` over ``--leaves``
contiguous leaves (the epoch-style bulk-restore shape from
``benchmarks.smoke.run_merkle_workload``, scaled up three orders of
magnitude) under the chosen node store and prints a one-line JSON report
to stdout::

    {"store": ..., "seconds": ..., "peak_rss_kb": ..., "root": "0x..", ...}

``peak_rss_kb`` is ``resource.getrusage(RUSAGE_SELF).ru_maxrss`` — a
*process-lifetime* high-water mark, which is exactly why this lives in a
child process: the parent (``benchmarks.smoke --soak-only``) runs the
dict-backed and page-backed soaks in separate interpreters so one store's
peak cannot mask the other's.  ``--store baseline`` imports everything
and exits — it measures the interpreter + toolchain floor the RSS budget
is expressed against.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

DEFAULT_LEAVES = 1_000_000
DEFAULT_DEPTH = 30
DEFAULT_CHUNK = 65_536
DEFAULT_PAGE_SIZE = 1024
DEFAULT_CACHE_PAGES = 192


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
    from repro.storage.pages import (
        DictNodeStore,
        FilePageBacking,
        MemoryPageBacking,
        PagedNodeStore,
    )

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
        if data_dir:
            backing = FilePageBacking(Path(data_dir) / "soak-pages.seg")
        else:
            backing = MemoryPageBacking()
        node_store = PagedNodeStore(
            page_size=page_size, cache_pages=cache_pages, backing=backing
        )
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", choices=("dict", "paged", "baseline"), required=True)
    parser.add_argument("--leaves", type=int, default=DEFAULT_LEAVES)
    parser.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
    parser.add_argument("--chunk", type=int, default=DEFAULT_CHUNK)
    parser.add_argument("--page-size", type=int, default=DEFAULT_PAGE_SIZE)
    parser.add_argument("--cache-pages", type=int, default=DEFAULT_CACHE_PAGES)
    parser.add_argument(
        "--data-dir",
        default=None,
        help="spill pages to a file segment here (paged store only); "
        "defaults to an in-memory backing",
    )
    args = parser.parse_args(argv)
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
