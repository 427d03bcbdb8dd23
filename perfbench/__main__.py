"""``python -m perfbench``: list the workloads, run them all, compare two sets.

``run`` launches ``perfbench/run.py`` once per run in a fresh subprocess
(closed, single-process, single-thread host loop): ``--runs`` untraced runs
per workload for the end-to-end metrics, then one traced run for the
per-layer table and ``trace_overhead_pct``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

from perfbench import compare as compare_module

PACKAGE_DIR = Path(__file__).resolve().parent
OUT_DIR = PACKAGE_DIR / "out"


def list_workloads() -> None:
    from perfbench.workloads import REGISTRY

    for entry in REGISTRY.values():
        print(f"{entry.name}\n  op:      {entry.op}\n  default: {entry.default}\n"
              f"  smoke:   {entry.smoke}\n  why:     {entry.why}")


def _one_run(workload: str, args: argparse.Namespace, trace: bool, index: int) -> Dict[str, object]:
    record_path = OUT_DIR / f"record_{workload}_{'trace' if trace else index}.json"
    command = [sys.executable, str(PACKAGE_DIR / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(int(trace)), "--record", str(record_path)]
    if args.smoke:
        command.append("--smoke")
    completed = subprocess.run(command, capture_output=True, text=True, check=False)
    # Everything but the contract's JSON line is the human-readable report.
    sys.stdout.write("\n".join(completed.stdout.splitlines()[:-1]) + "\n")
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        if not record_path.exists():
            raise SystemExit(f"{workload}: run failed without a record")
    return json.loads(record_path.read_text())


def run_all(args: argparse.Namespace) -> int:
    from perfbench.harness import END_TO_END, GOLDEN_PATH, summarize
    from perfbench.workloads import DEFAULT_SEED, REGISTRY

    OUT_DIR.mkdir(exist_ok=True)
    names = args.workloads.split(",") if args.workloads else list(REGISTRY)
    results: Dict[str, object] = {"workloads": {}}
    failed: List[str] = []
    for name in names:
        runs = [_one_run(name, args, trace=False, index=i) for i in range(args.runs)]
        traced = _one_run(name, args, trace=True, index=0)
        first = runs[0]
        metrics = {}
        for metric in END_TO_END:
            values = [run["metrics"][metric]["median"] if metric in run["metrics"]
                      else run[metric] for run in runs]
            metrics[metric] = {"unit": END_TO_END[metric], "values": values,
                               **summarize(values)}
        deterministic = all(run["sim"] == first["sim"]
                            and run["fingerprint"] == first["fingerprint"]
                            for run in runs + [traced])
        correct = deterministic and all(run["correct"] for run in runs + [traced])
        if not correct:
            failed.append(name)
        results["workloads"][name] = {
            "op": first["op"], "ops_per_cycle": first["ops_per_cycle"],
            "correct": correct, "metrics": metrics, "sim": first["sim"],
            "fingerprint": first["fingerprint"], "per_layer": traced.get("per_layer", {}),
            "provenance": [run["provenance"] for run in runs],
        }
        print(f"== {name}: {args.runs} runs + 1 traced; "
              + "; ".join(f"{metric} {stats['median']:.4f} {stats['unit']} "
                          f"(n={stats['n']}, q1={stats['q1']:.4f}, q3={stats['q3']:.4f})"
                          for metric, stats in metrics.items())
              + f"; checks {'ok' if correct else 'FAILED'}")
    Path(args.out).write_text(json.dumps(results, indent=1) + "\n")
    print(f"wrote {args.out}")
    if args.write_golden:
        if args.smoke or args.seed != DEFAULT_SEED:
            raise SystemExit("golden.json holds default-size, default-seed fingerprints only")
        golden = {name: row["fingerprint"] for name, row in results["workloads"].items()}
        if GOLDEN_PATH.exists():
            golden = {**json.loads(GOLDEN_PATH.read_text()), **golden}
        GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN_PATH}")
    if failed:
        print(f"output checks FAILED on: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench", description=__doc__)
    parser.add_argument("--list", action="store_true", help="print the workload registry")
    commands = parser.add_subparsers(dest="command")
    run = commands.add_parser("run", help="run every workload (subprocess per run)")
    run.add_argument("--workloads", help="comma-separated subset (default: all seven)")
    run.add_argument("--runs", type=int, default=3, help="untraced runs per workload")
    run.add_argument("--seed", type=int, default=11)
    run.add_argument("--seconds", type=float, default=14.0)
    run.add_argument("--smoke", action="store_true")
    run.add_argument("--out", default=str(OUT_DIR / "results.json"))
    run.add_argument("--write-golden", action="store_true",
                     help="record the fingerprints as perfbench/golden.json")
    cmp_parser = commands.add_parser("compare", help="compare two result sets")
    cmp_parser.add_argument("a")
    cmp_parser.add_argument("b")
    args = parser.parse_args(argv)
    if args.list:
        list_workloads()
        return 0
    if args.command == "run":
        return run_all(args)
    if args.command == "compare":
        return compare_module.main([args.a, args.b])
    parser.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())
