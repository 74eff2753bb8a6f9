"""Compare benchmark run sets from two commits (or one commit twice).

Collect runs by alternating two checkouts -- the parent (``--base``) and
the change (``--head``) -- on the same seeds, with this directory's
benchmark code for both::

    python3 perfbench/compare.py collect --base ../parent --head . \\
        --seeds 1-10 --holdout 101 --out runs.jsonl

Then apply the pairing rule::

    python3 perfbench/compare.py report runs.jsonl

For every workload (one block each) and end-to-end metric it prints
both sides' median and quartiles, the head's wins over the pairs, and a
verdict:

- ``gain``: at least ten pairs, the head wins at least nine tenths of
  them (ties count for neither side), its median beats the base median
  by more than the base's interquartile spread, and the head also wins
  every pair on the held-out seeds;
- ``regression``: the head median is worse than the base median by more
  than the metric's bound from ``BENCHMARK.json``;
- ``unresolved``: either side's interquartile spread, as a share of its
  median, exceeds the bound, and not every head run beats every base
  run;
- ``no change`` otherwise.

It also checks that the share of failed operations did not grow.  The
exit status is 1 when any metric regressed or the failed share grew.

``spread RUNS`` prints each side's spread per metric (the steadiness
check), and ``overhead RUNS SUMMARY`` the traced pass's end-to-end
figures minus the untraced medians (the tracing overhead).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from typing import Any, Iterable

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
RUN_TIMEOUT = 900


def parse_seeds(text: str) -> list[int]:
    """``"1-10,101"`` -> ``[1, ..., 10, 101]``."""
    seeds: list[int] = []
    for part in filter(None, text.split(",")):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(checkout: Path, workload: str, seed: int) -> dict[str, Any]:
    """One untraced run against ``checkout`` at the benchmark's run
    length; returns its result line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
         "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"run failed in {checkout} ({workload}, seed {seed}, "
                         f"exit {proc.returncode}):\n{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def collect(args: argparse.Namespace) -> int:
    sides = [("base", Path(args.base))]
    if args.head:
        sides.append(("head", Path(args.head)))
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in SPEC["workloads"]]
    seeds = [(s, False) for s in parse_seeds(args.seeds)]
    seeds += [(s, True) for s in parse_seeds(args.holdout or "")]
    with open(args.out, "a", encoding="utf-8") as out:
        for i, (seed, holdout) in enumerate(seeds):
            for workload in workloads:
                order = sides if i % 2 == 0 else sides[::-1]
                for side, checkout in order:
                    result = run_once(checkout, workload, seed)
                    rec = {"side": side, "workload": workload, "seed": seed,
                           "holdout": holdout, "result": result}
                    out.write(json.dumps(rec) + "\n")
                    out.flush()
                    print(f"{side} {workload} seed {seed}: "
                          + ", ".join(f"{k}={v['value']:.4g}"
                                      for k, v in result["metrics"].items()),
                          file=sys.stderr)
    return 0


# ----------------------------------------------------------------------
# Statistics.
# ----------------------------------------------------------------------
def load(path: str) -> list[dict[str, Any]]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def better(a: float, b: float, direction: str) -> bool:
    return a < b if direction == "lower" else a > b


def verdict(base: dict[int, float], head: dict[int, float],
            holdout_base: dict[int, float], holdout_head: dict[int, float],
            direction: str, bound: float) -> dict[str, Any]:
    """The pairing rule for one metric on one workload (values by seed)."""
    seeds = sorted(set(base) & set(head))
    b = [base[s] for s in seeds]
    h = [head[s] for s in seeds]
    bq1, bmed, bq3 = quartiles(b)
    hq1, hmed, hq3 = quartiles(h)
    wins = sum(better(head[s], base[s], direction) for s in seeds)
    losses = sum(better(base[s], head[s], direction) for s in seeds)
    all_better = all(better(x, y, direction) for x in h for y in b)
    held = sorted(set(holdout_base) & set(holdout_head))
    held_wins = all(better(holdout_head[s], holdout_base[s], direction)
                    for s in held)
    worse_by = (hmed - bmed) / bmed if direction == "lower" else (bmed - hmed) / bmed
    if max(spread(b), spread(h)) > bound and not all_better:
        label = "unresolved"
    elif (len(seeds) >= 10 and wins >= 0.9 * len(seeds)
          and better(hmed, bmed, direction) and abs(hmed - bmed) > bq3 - bq1
          and held and held_wins):
        label = "gain"
    elif worse_by > bound:
        label = "regression"
    else:
        label = "no change"
    return {"pairs": len(seeds), "wins": wins, "losses": losses,
            "base": (bq1, bmed, bq3), "head": (hq1, hmed, hq3),
            "held_out_pairs": len(held), "verdict": label}


def by_side(records: Iterable[dict[str, Any]]):
    """``{(side, workload, holdout): {metric: {seed: value}}}`` plus the
    ``{(side, workload): [attempted, failed]}`` totals."""
    values: dict = defaultdict(lambda: defaultdict(dict))
    ops: dict = defaultdict(lambda: [0, 0])
    for r in records:
        key = (r["side"], r["workload"], bool(r.get("holdout")))
        for name, m in r["result"]["metrics"].items():
            values[key][name][r["seed"]] = m["value"]
        tot = ops[(r["side"], r["workload"])]
        tot[0] += r["result"]["attempted"]
        tot[1] += r["result"]["failed"]
    return values, ops


def report(args: argparse.Namespace) -> int:
    records = load(args.runs)
    values, ops = by_side(records)
    sides = sorted({r["side"] for r in records})
    if sides != ["base", "head"]:
        raise SystemExit(f"{args.runs} needs runs of both sides, has {sides}")
    bad = False
    for wl in [w["name"] for w in SPEC["workloads"]]:
        if ("base", wl, False) not in values:
            continue
        print(f"== {wl}")
        print(f"  {'metric':<14}{'base q1/med/q3':>32}{'head q1/med/q3':>32}"
              f"{'wins':>8}  verdict")
        for m in SPEC["end_to_end"]:
            name = m["name"]
            v = verdict(values[("base", wl, False)][name],
                        values[("head", wl, False)][name],
                        values[("base", wl, True)].get(name, {}),
                        values[("head", wl, True)].get(name, {}),
                        m["better"], m["bound"])
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)  # noqa: E731
            print(f"  {name:<14}{fmt(v['base']):>32}{fmt(v['head']):>32}"
                  f"{v['wins']:>4}/{v['pairs']:<3}  {v['verdict']}")
            bad |= v["verdict"] == "regression"
        (ba, bf), (ha, hf) = ops[("base", wl)], ops[("head", wl)]
        grew = hf * ba > bf * ha
        print(f"  failed share: base {bf}/{ba}, head {hf}/{ha}"
              + ("  GREW" if grew else ""))
        bad |= grew
    return 1 if bad else 0


def spread_cmd(args: argparse.Namespace) -> int:
    values, _ = by_side(load(args.runs))
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    worst = 0.0
    for (side, wl, holdout), metrics in sorted(values.items()):
        if holdout:
            continue
        for name, by_seed in metrics.items():
            vals = list(by_seed.values())
            s = spread(vals)
            share = s / bounds[name]
            if name != "setup_s":
                worst = max(worst, share)
            print(f"{side:<5}{wl:<12}{name:<14}n={len(vals):<3}median "
                  f"{statistics.median(vals):<12.5g}spread {s:.4f} "
                  f"({share:.2f} of bound {bounds[name]})")
    print(f"widest spread (setup_s aside): {worst:.2f} of its bound")
    return 0


def overhead(args: argparse.Namespace) -> int:
    values, _ = by_side(load(args.runs))
    summary = json.loads(Path(args.summary).read_text(encoding="utf-8"))
    for wl, traced in summary["end_to_end"].items():
        untraced = values.get(("base", wl, False), {})
        for name, t in traced.items():
            if name not in untraced:
                continue
            u = statistics.median(untraced[name].values())
            print(f"{wl:<12}{name:<12} traced {t:<12.5g}untraced median "
                  f"{u:<12.5g}overhead {t - u:+.5g} ({100 * (t - u) / u:+.1f}%)")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect", help="run alternating pairs of two checkouts")
    c.add_argument("--base", required=True, help="parent checkout root")
    c.add_argument("--head", help="changed checkout root (omit for one side)")
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--holdout", default="", help="held-out seeds, e.g. 101")
    c.add_argument("--workloads", default="", help="comma list (default all)")
    c.add_argument("--out", required=True, help="JSONL file to append runs to")
    c.set_defaults(func=collect)
    r = sub.add_parser("report", help="apply the pairing rule")
    r.add_argument("runs")
    r.set_defaults(func=report)
    s = sub.add_parser("spread", help="interquartile spread per metric")
    s.add_argument("runs")
    s.set_defaults(func=spread_cmd)
    o = sub.add_parser("overhead", help="traced minus untraced figures")
    o.add_argument("runs")
    o.add_argument("summary", help=".perfbench/trace/summary.json of a traced run")
    o.set_defaults(func=overhead)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
