"""Collect benchmark runs and compare two result sets.

Record ten untraced runs per workload of one checkout, seeds 1 to 10, and
one traced run with seed 1 (the steadiness check, and a trajectory point)::

    python3 perfbench/compare.py collect --label seed --out runs.jsonl

Run ten alternating parent/change pairs per workload, seeds 1 to 10, from two
checkouts that hold the same benchmark code (the parent runs first in even
pairs, second in odd ones)::

    python3 perfbench/compare.py pairs --parent ../parent --change . --out pairs.jsonl

Summarise result files.  With one label it prints each metric's median,
quartiles and spread against its bound; with two labels (``parent`` and
``change``, or else the first label read counts as the parent) it pairs
the runs of each workload in the order they were recorded and prints one
verdict per (metric, workload) row::

    python3 perfbench/compare.py report pairs.jsonl
    python3 perfbench/compare.py report perfbench/trajectory/01-seed-f88aa89.jsonl new.jsonl

The verdict rules: a row is *regressed* when the change's median is worse
than the parent's by more than the metric's bound; *improved* when there are
at least ten pairs, the change wins at least nine tenths of them (ties count
for neither side), its median is better by more than the distance between
the parent's quartiles, and no more operations failed than at the parent;
*unresolved* when the spread of either side exceeds the bound, unless every
change run reads better than every parent run, or when there are fewer than
ten pairs; *unchanged* otherwise.

``pass_s`` and ``setup_s`` are wall times scaled by the speed probe's kernel
(see ``speed.py``), and the probe's kernel can miss how a slow phase of the
host slows the program's own work.  So the report also gives the verdict on
the uncorrected wall times behind them, ``pass_wall_s`` and ``setup_wall_s``,
and marks each row whose two verdicts disagree: a gain or a loss that shows
only in the corrected figure may be the probe's, not the program's.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
DETAIL = "# detail "
MIN_PAIRS = RUNS = 10
TRACED_RUNS = 1
FIRST_SEED = 1
WIN_SHARE = 0.9
# uncorrected wall time behind each speed-corrected metric, read from a run's details
RAW = {
    "pass_s": ("pass_wall_s", lambda detail: detail["pass_wall_s"]),
    "setup_s": ("setup_wall_s", lambda detail: detail["setup"]["setup_wall_s"]),
}


def spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_once(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run in ``checkout``: its JSON result and its details."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} in {checkout}: exit code {proc.returncode}\n{proc.stderr}")
    details = [ln[len(DETAIL):] for ln in lines if ln.startswith(DETAIL)]
    return {"result": json.loads(lines[-1]), "detail": json.loads(details[-1]) if details else None,
            "elapsed_s": elapsed}


def _bench_digest(checkout: Path) -> str:
    digest = hashlib.sha256()
    for f in sorted((checkout / "perfbench").rglob("*.py")):
        digest.update(f.relative_to(checkout).as_posix().encode() + b"\0" + f.read_bytes())
    return digest.hexdigest()


def _append(out: Path, record: dict) -> None:
    with out.open("a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    res = record["result"]
    print(f"{record['label']:>8} {record['workload']:<11} seed {record['seed']:>3} trace {record['trace']}: "
          f"correct={res['correct']} elapsed={record['elapsed_s']:.1f}s " + " ".join(f"{k}={m['value']:.6g}" for k, m in res["metrics"].items()
                                                 if record["trace"] == 0), flush=True)


def collect(args) -> int:
    checkout = Path(args.checkout).resolve()
    workloads = args.workload or [w["name"] for w in spec()["workloads"]]
    seconds = args.seconds or spec()["run_seconds"]
    for name in workloads:
        for i in range(RUNS):
            seed = FIRST_SEED + i
            rec = run_once(checkout, name, seed, seconds, 0)
            _append(Path(args.out), {"label": args.label, "workload": name, "seed": seed, "trace": 0, **rec})
        for i in range(TRACED_RUNS):
            seed = FIRST_SEED + i
            rec = run_once(checkout, name, seed, seconds, 1)
            _append(Path(args.out), {"label": args.label, "workload": name, "seed": seed, "trace": 1, **rec})
    return 0


def pairs(args) -> int:
    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    if _bench_digest(sides["parent"]) != _bench_digest(sides["change"]):
        raise SystemExit("parent and change hold different benchmark code; copy one perfbench/ over the other")
    workloads = args.workload or [w["name"] for w in spec()["workloads"]]
    seconds = args.seconds or spec()["run_seconds"]
    for name in workloads:
        for i in range(MIN_PAIRS):
            seed = FIRST_SEED + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for label in order:
                rec = run_once(sides[label], name, seed, seconds, 0)
                _append(Path(args.out), {"label": label, "workload": name, "seed": seed, "trace": 0,
                                         "pair": i, **rec})
    return 0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _load(paths: list[str]) -> list[dict]:
    records = []
    for p in paths:
        records += [json.loads(ln) for ln in Path(p).read_text().splitlines() if ln.strip()]
    return records


def _values(records: list[dict], metric: str) -> list[float]:
    return [r["result"]["metrics"][metric]["value"] for r in records if metric in r["result"]["metrics"]]


def _raw_values(records: list[dict], metric: str) -> list[float]:
    return [RAW[metric][1](r["detail"]) for r in records]


def report_spread(records: list[dict]) -> None:
    """Median, quartiles and spread of each end-to-end metric, per workload."""
    bench = spec()
    by_wl = defaultdict(list)
    for r in records:
        if r["trace"] == 0:
            by_wl[r["workload"]].append(r)
    print(f"{'workload':<11} {'metric':<12} {'n':>3} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>8} {'bound':>6}  verdict")
    for name, recs in by_wl.items():
        for m in bench["end_to_end"]:
            vals = _values(recs, m["name"])
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med
            verdict = ("steady" if spread < m["bound"] / 3 else
                       "within bound" if spread <= m["bound"] else "exceeds bound")
            print(f"{name:<11} {m['name']:<12} {len(vals):>3} {med:>11.6g} {q1:>11.6g} {q3:>11.6g} "
                  f"{spread:>8.4f} {m['bound']:>6}  {verdict} ({m['unit']})")
            if m["name"] in RAW:
                q1, med, q3 = quartiles(_raw_values(recs, m["name"]))
                print(f"{name:<11} {RAW[m['name']][0]:<12} {len(recs):>3} {med:>11.6g} {q1:>11.6g} {q3:>11.6g} "
                      f"{(q3 - q1) / med:>8.4f} {'-':>6}  uncorrected ({m['unit']})")
        att = sum(r["result"]["attempted"] for r in recs)
        fail = sum(r["result"]["failed"] for r in recs)
        print(f"{name:<11} {'failed_frac':<12} {len(recs):>3} {fail / att:>11.6g}  ({fail}/{att} operations)")
    traced = [r for r in records if r["trace"] == 1]
    for name in dict.fromkeys(r["workload"] for r in traced):
        recs = [r for r in traced if r["workload"] == name]
        print(f"\n{name}: per-layer medians over {len(recs)} traced run(s)")
        for key in recs[0]["result"]["metrics"]:
            vals = _values(recs, key)
            print(f"  {key:<42} {statistics.median(vals):>12.6g} {recs[0]['result']['metrics'][key]['unit']}")


def verdict(parent: list[float], change: list[float], lower_better: bool, bound: float,
            failed_p: int, failed_c: int) -> tuple[str, int, int]:
    """Verdict of one (metric, workload) row from matched pairs."""
    sign = 1.0 if lower_better else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    worse_share = sign * (cmed - pmed) / pmed
    spread = max((pq3 - pq1) / pmed, (cq3 - cq1) / cmed)
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if len(parent) < MIN_PAIRS:
        return f"unresolved (only {len(parent)} pairs)", wins, losses
    if worse_share > bound:
        return "regressed", wins, losses
    if (wins >= WIN_SHARE * len(parent) and sign * (pmed - cmed) > pq3 - pq1 and failed_c <= failed_p):
        return "improved", wins, losses
    if spread > bound and not all_better:
        return "unresolved", wins, losses
    return "unchanged", wins, losses


def report_pairs(records: list[dict], parent: str, change: str) -> None:
    """One verdict per (metric, workload); the i-th untraced run of each side
    of a workload form pair i, which is the order ``pairs`` writes them in."""
    bench = spec()
    sides = {parent: defaultdict(list), change: defaultdict(list)}
    for r in records:
        if r["trace"] == 0:
            sides[r["label"]][r["workload"]].append(r)
    print(f"parent: {parent}, change: {change}")
    if not all("pair" in r for r in records):
        print("note: these runs were not made as alternating pairs, so host drift between the sets counts")
    print(f"{'workload':<11} {'metric':<12} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} "
          f"{'wins':>6} {'losses':>6}  verdict")
    for name in sides[parent]:
        matched = list(zip(sides[parent][name], sides[change][name]))
        if not matched:
            continue
        failed_p = sum(p["result"]["failed"] for p, _ in matched)
        failed_c = sum(c["result"]["failed"] for _, c in matched)

        def row(metric: str, par: list[float], chg: list[float], m: dict) -> str:
            text, wins, losses = verdict(par, chg, m["better"] == "lower", m["bound"], failed_p, failed_c)
            pq, cq = quartiles(par), quartiles(chg)
            print(f"{name:<11} {metric:<12} {pq[1]:>12.6g} [{pq[0]:.6g}, {pq[2]:.6g}]".ljust(60)
                  + f"{cq[1]:>12.6g} [{cq[0]:.6g}, {cq[2]:.6g}]".ljust(36)
                  + f"{wins:>4}/{len(matched):<3}{losses:>4}  {text} ({m['unit']}, bound {m['bound']})")
            return text

        for m in bench["end_to_end"]:
            par = [p["result"]["metrics"][m["name"]]["value"] for p, _ in matched]
            chg = [c["result"]["metrics"][m["name"]]["value"] for _, c in matched]
            corrected = row(m["name"], par, chg, m)
            if m["name"] in RAW:
                raw_name, raw = RAW[m["name"]]
                uncorrected = row(raw_name, [raw(p["detail"]) for p, _ in matched],
                                  [raw(c["detail"]) for _, c in matched], m)
                if uncorrected != corrected:
                    print(f"{name:<11} DISAGREE     {m['name']} is {corrected} but {raw_name} is {uncorrected}: "
                          f"do not claim the {m['name']} verdict for the program")
        print(f"{name:<11} {'failed':<12} parent {failed_p}, change {failed_c}")


def report(args) -> int:
    records = _load(args.files)
    labels = list(dict.fromkeys(r["label"] for r in records))
    if len(labels) == 1:
        report_spread(records)
    elif len(labels) == 2:
        parent, change = ("parent", "change") if set(labels) == {"parent", "change"} else labels
        report_pairs(records, parent, change)
    else:
        raise SystemExit(f"expected one or two labels, found {labels}")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect", help="record runs of one checkout, one seed per run")
    c.add_argument("--label", required=True)
    c.add_argument("--checkout", default=str(HERE.parent))
    p = sub.add_parser("pairs", help="alternating parent/change pairs")
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    for s in (c, p):
        s.add_argument("--workload", action="append")
        s.add_argument("--seconds", type=int)
        s.add_argument("--out", required=True)
    r = sub.add_parser("report", help="summarise one or more result files")
    r.add_argument("files", nargs="+")
    args = ap.parse_args(argv)
    return {"collect": collect, "pairs": pairs, "report": report}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
