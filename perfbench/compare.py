"""``python -m perfbench compare A.json B.json``: is B no worse than A?

Per workload x end-to-end metric: median, quartiles, delta and a verdict.

* Host metrics use the regression bounds of ``BENCHMARK.json``: ``regressed``
  when B's median is worse than A's by more than the bound; ``unresolved``
  when either set's spread (inter-quartile range over median) is wider than
  the bound -- unless every run of B reads better than every run of A.
* Simulated metrics and the result fingerprint are deterministic, so any
  worsening beyond 1e-9 relative is ``regressed`` and any other difference is
  reported as ``changed``.

Exits non-zero when any row is ``regressed``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

from perfbench.harness import FLOAT_TOLERANCE, ROOT, SIM_METRICS

#: ``setup_s`` also has to worsen by this many host seconds to count: a
#: relative bound alone would flag millisecond set-ups on noise.
SETUP_FLOOR_S = 0.2

#: Simulated metrics where a larger value is the better one.
SIM_HIGHER_IS_BETTER = {"sim_goodput_mb_s"}


def host_bounds() -> Dict[str, Tuple[str, float]]:
    """``{metric: (better, bound)}`` from the root ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {row["name"]: (row["better"], row["bound"]) for row in spec["end_to_end"]}


def _spread(stats: Dict[str, float]) -> float:
    return (stats["q3"] - stats["q1"]) / stats["median"] if stats["median"] else 0.0


def host_verdict(a: Dict[str, object], b: Dict[str, object], better: str,
                 bound: float, floor: float = 0.0) -> Tuple[float, str]:
    """``(worsening as a share of A's median, verdict)`` for one host metric."""
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (b["median"] - a["median"]) / a["median"]
    if abs(b["median"] - a["median"]) <= floor:
        return worsening, "ok"
    if better == "lower":
        b_always_better = max(b["values"]) < min(a["values"])
    else:
        b_always_better = min(b["values"]) > max(a["values"])
    if max(_spread(a), _spread(b)) > bound and not b_always_better:
        return worsening, "unresolved"
    return worsening, "regressed" if worsening > bound else "ok"


def sim_verdict(name: str, a: float, b: float) -> str:
    if abs(a - b) <= FLOAT_TOLERANCE * max(abs(a), abs(b)):
        return "ok"
    worse = b < a if name in SIM_HIGHER_IS_BETTER else b > a
    return "regressed" if worse else "changed"


def compare(a: Dict[str, object], b: Dict[str, object], out=sys.stdout) -> List[str]:
    """Print the comparison table; returns the ``regressed`` row labels."""
    bounds = host_bounds()
    regressed: List[str] = []
    header = (f"{'workload':<18}{'metric':<22}{'A median':>13}{'A q1..q3':>22}"
              f"{'B median':>13}{'B q1..q3':>22}{'delta':>9}  verdict")
    print(header, file=out)
    for name in a["workloads"]:
        if name not in b["workloads"]:
            print(f"{name:<18}missing from B", file=out)
            continue
        left, right = a["workloads"][name], b["workloads"][name]
        for metric, (better, bound) in bounds.items():
            x, y = left["metrics"][metric], right["metrics"][metric]
            worsening, verdict = host_verdict(
                x, y, better, bound, SETUP_FLOOR_S if metric == "setup_s" else 0.0)
            delta = 100.0 * (y["median"] - x["median"]) / x["median"]
            print(f"{name:<18}{metric:<22}{x['median']:>13.4f}"
                  f"{x['q1']:>11.4f}..{x['q3']:<9.4f}{y['median']:>13.4f}"
                  f"{y['q1']:>11.4f}..{y['q3']:<9.4f}{delta:>+8.1f}%  {verdict}"
                  f" (bound {100 * bound:.0f}%, n={x['n']}/{y['n']})", file=out)
            if verdict == "regressed":
                regressed.append(f"{name}/{metric}")
        for metric in SIM_METRICS:
            if metric not in left["sim"] and metric not in right["sim"]:
                continue
            x, y = left["sim"].get(metric), right["sim"].get(metric)
            verdict = "changed" if x is None or y is None else sim_verdict(metric, x, y)
            print(f"{name:<18}{metric:<22}{x!s:>13.13}{'(simulated, exact)':>22}"
                  f"{y!s:>13.13}{'':>22}{'':>9}  {verdict}", file=out)
            if verdict == "regressed":
                regressed.append(f"{name}/{metric}")
        same = left["fingerprint"] == right["fingerprint"]
        print(f"{name:<18}{'fingerprint':<22}{'':>79}  {'ok' if same else 'changed'}",
              file=out)
    print(f"regressed rows: {', '.join(regressed) if regressed else 'none'}", file=out)
    return regressed


def main(paths: List[str]) -> int:
    a, b = (json.loads(Path(path).read_text()) for path in paths)
    return 1 if compare(a, b) else 0
