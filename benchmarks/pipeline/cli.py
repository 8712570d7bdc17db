"""Command line of the pipeline benchmark."""

from __future__ import annotations

import argparse
import json
import sys

from benchmarks.pipeline import catalogue


def _parser() -> argparse.ArgumentParser:
    names = [w.name for w in catalogue.WORKLOADS]
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.pipeline",
        description="FT -> Latus blocks -> epoch proof -> WCert -> MC acceptance -> BT payout, "
        "timed end to end and attributed to layers.",
    )
    parser.add_argument("--workload", choices=names, help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1, help="seed of the load generators")
    parser.add_argument(
        "--seconds", type=float, default=catalogue.RUN_SECONDS,
        help="seconds one invocation measures; scales the timed epoch count",
    )
    parser.add_argument("--repeats", type=int, help="fresh child processes per workload")
    parser.add_argument("--traced", action="store_true", help="add one traced run per workload")
    parser.add_argument(
        "--trace", type=int, choices=(0, 1),
        help="driver contract: 0 prints the end-to-end metrics, 1 the per-layer metrics, "
        "as one JSON object on the last line",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small sizes (a few seconds per workload): checks on, numbers not comparable",
    )
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--write-manifest", action="store_true", help="regenerate BENCHMARK.json")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.child:
        from benchmarks.pipeline import child

        return child.main(args.child)
    if args.compare:
        from benchmarks.pipeline.compare import compare

        return compare(*args.compare)

    from benchmarks.pipeline import runner

    if args.write_manifest:
        path = runner.REPO_ROOT / "BENCHMARK.json"
        path.write_text(json.dumps(catalogue.manifest(), indent=2) + "\n")
        print(f"wrote {path}")
        return 0
    runner.check_manifest()
    if not (runner.REPO_ROOT / "src" / "repro").is_dir():
        raise SystemExit("the program's source (src/repro) is not in this checkout")
    if args.trace is not None and args.workload is None:
        raise SystemExit("--trace needs --workload")

    traced = args.traced or args.trace == 1
    # the traced contract run pairs one untraced with one traced child
    repeats = args.repeats or (1 if args.trace == 1 else catalogue.DEFAULT_REPEATS)
    selected = [args.workload] if args.workload else [w.name for w in catalogue.WORKLOADS]
    summaries = {}
    for name in selected:
        summaries[name] = runner.run_workload(
            name, args.seed, args.seconds, repeats, traced, args.quick
        )
        runner.print_summary(name, summaries[name], args.quick)
    label = "-".join(
        ["pipeline", args.workload or "all", f"seed{args.seed}"]
        + (["traced"] if traced else [])
        + (["quick"] if args.quick else [])
    )
    path = runner.write_record(summaries, args.seed, args.seconds, repeats, args.quick, label)
    print(f"\nrecord: {path.relative_to(runner.REPO_ROOT)}")
    sys.stdout.flush()
    if args.trace is not None:
        print(runner.contract_line(summaries[args.workload], args.trace))
    ok = all(all(s["checks"].values()) for s in summaries.values())
    return 0 if ok else 1
