"""Run two sets of benchmark runs and print each metric's spread against its bound.

    python3 perfbench/spread.py                      # 2 sets x 10 seeds, every workload
    python3 perfbench/spread.py --sets 1 --runs 5 --workloads graph-loops

Run from the repository root. For every end-to-end metric of every workload
it prints, per set, the median and the spread (distance between the first and
third quartile as a share of the median), and how much worse the second
set's median is than the first's. Every spread, setup_s's too, must stay
within the metric's bound, the second median may not be worse than the first
by more than the bound, and the share of failed operations must be the same
in both sets. Runs last `run_seconds` of BENCHMARK.json. Raw values go to
perfbench/out/spread.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: list[float]) -> float:
    q1, _, q3 = quantiles(values, n=4)
    return (q3 - q1) / median(values)


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def one_run(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10, help="seeds per set")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    raw: dict[str, list[list[dict]]] = {}
    ok = True
    for workload in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            runs = []
            for i in range(args.runs):
                seed = args.first_seed + s * args.runs + i
                result = one_run(workload, seed, spec["run_seconds"])
                runs.append(result)
                print(f"{workload} set {s + 1} seed {seed}: " + " ".join(
                    f"{k}={m['value']:.4g} {m['unit']}" for k, m in result["metrics"].items())
                    + f" attempted={result['attempted']} failed={result['failed']}"
                    + ("" if result["correct"] else " CHECKS FAILED"), flush=True)
            sets.append(runs)
        raw[workload] = sets

        print(f"\n{workload}")
        print(f"  {'metric':<16}{'bound':>7}" + "".join(
            f"{'median' + str(s + 1):>12}{'spread' + str(s + 1):>9}" for s in range(args.sets))
            + (f"{'worse':>8}" if args.sets > 1 else ""))
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            columns = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            line = f"  {name:<16}{bound:>7.2f}"
            for values in columns:
                s = spread(values)
                flag = "" if s <= bound else "!"
                ok &= not flag
                line += f"{median(values):>12.4f}{s:>8.1%}{flag or ' '}"
            if args.sets > 1:
                w = worse_by(median(columns[0]), median(columns[-1]), metric["better"])
                flag = "!" if w > bound else " "
                ok &= not w > bound
                line += f"{w:>7.1%}{flag}"
            print(line)
        shares = {(sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs))
                  for runs in sets}
        fail_shares = {f / a for f, a in shares}
        ok &= len(fail_shares) == 1 and all(r["correct"] for runs in sets for r in runs)
        print(f"  failed share per set: {sorted(fail_shares)}; "
              f"all correct: {all(r['correct'] for runs in sets for r in runs)}\n")

    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "spread.json").write_text(json.dumps(raw, indent=1))
    print("every spread and drift within its bound" if ok else "some figure is outside its bound (!)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
