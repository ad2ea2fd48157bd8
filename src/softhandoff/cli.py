"""Command-line front end: region sweeps, scheme simulation, reference compare.

Every output CSV uses 12-significant-digit floats, '.' decimals and plain
newlines, and is accompanied by a JSON manifest that reproduces it byte for
byte via the rerun subcommand.  Exit codes: 0 success, 2 validation error,
3 internal error.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .conf_sim import (
    build_silencing,
    event_log_rows,
    measure_mux_gains,
    run_rx_conferencing,
    run_tx_conferencing,
    validate_p_ladder,
)
from .inner_bound import inner_boundary
from .model import ASYMPTOTIC_K, NetworkConfig, Region, _polyline_ymax, upper_chain, validate_config
from .mux_gain import MuxRegionSpec, mux_region
from .outer_bound import outer_region
from .reference_curves import KNOWN_DISCREPANCIES, get_reference, match_inner_reference

_ENV_OUTDIR = "SOFTHANDOFF_OUTDIR"


def _fmt(v: float) -> str:
    s = f"{float(v):.12g}"
    return "0" if s == "-0" else s


def _outdir() -> str:
    return os.environ.get(_ENV_OUTDIR, ".")


def _cells(col) -> list[str]:
    """Text of one CSV column: floats through _fmt and integers through str,
    once per distinct value; anything else through str."""
    col = np.asarray(col)
    if col.dtype.kind not in "fiu":
        return [str(v) for v in col.tolist()]
    values, inverse = np.unique(col, return_inverse=True)
    fmt = _fmt if col.dtype.kind == "f" else str
    return np.array([fmt(v) for v in values.tolist()], dtype=object)[inverse].tolist()


def _write_csv(path: str, header: list[str], columns: list) -> None:
    """Write equal-length columns under a header, one row per line."""
    lines = map(",".join, zip(*map(_cells, columns)))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join([",".join(header), *lines]) + "\n")


def _write_chain(path: str, header: list[str], chain: list[tuple[float, float]], source: str) -> None:
    xy = np.array(chain, dtype=float).reshape(-1, 2)
    _write_csv(path, header, [xy[:, 0], xy[:, 1], [source] * len(xy)])


def _write_manifest(command: str, params: dict, outputs: list[str]) -> str:
    base = outputs[0] if outputs else os.path.join(_outdir(), command)
    path = base + ".manifest.json"
    doc = {
        "command": command,
        "params": params,
        "tool_version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "outputs": [os.path.basename(o) for o in outputs],
    }
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _parse_k(text: str) -> float:
    if str(text).lower() in ("inf", "infinity", "asymptotic"):
        return ASYMPTOTIC_K
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"k must be an integer or inf, got {text!r}") from None


def _run_region(params: dict) -> list[str]:
    kind = params["kind"]
    out = params.get("out") or os.path.join(_outdir(), f"region_{kind}.csv")

    # only mux reads --mu, but every kind rejects a bad one
    spec = MuxRegionSpec(
        mode=params.get("mode", "rx_bidirectional"),
        mu=params.get("mu", 0.0),
        d_max=params.get("dmax", 1),
    )
    if kind == "mux":
        _write_chain(out, ["s_fast", "s_slow", "source"], upper_chain(mux_region(spec)), spec.mode)
        return [out]

    cfg = NetworkConfig(
        alpha=params["alpha"],
        p=params["p"],
        k=_parse_k(params.get("k", "inf")),
        pi=params.get("pi", 0.0),
        d_max=params.get("dmax", 1),
    )
    if kind == "outer":
        _write_chain(out, ["x_rate_bits", "y_rate_bits", "source"], upper_chain(outer_region(cfg)), "outer")
        return [out]

    if kind == "inner":
        scheme = str(params.get("scheme", "both"))
        pts = inner_boundary(
            cfg,
            scheme=scheme,
            grid_resolution=params.get("grid", 64),
            corrected=params.get("corrected", False),
        )
        ref_label = match_inner_reference(scheme, cfg.p, cfg.alpha, cfg.pi, cfg.d_max)
        header = ["x_rate_bits", "y_rate_bits", "source"]
        columns = [
            np.array([pt.x for pt in pts], dtype=float),
            np.array([pt.y for pt in pts], dtype=float),
            ["timeshare" if len(pt.components) > 1 else f"scheme{pt.components[0].scheme}" for pt in pts],
        ]
        if ref_label:
            header.append("reference")
            ref = Region(vertices=get_reference(ref_label), kind="polyline")
            ref_ys = [_polyline_ymax(ref, pt.x) for pt in pts]  # nan outside the reference's x range
            columns.append(["" if math.isnan(y) else _fmt(y) for y in ref_ys])
        _write_csv(out, header, columns)
        return [out]

    raise ValueError(f"unknown region kind {kind!r}")


def _run_simulate(params: dict) -> list[str]:
    mode = params["mode"]
    if mode not in ("rx", "tx"):
        raise ValueError("mode must be rx or tx")
    k = int(params["k"])
    d_max = int(params["dmax"])
    ladder = [float(v) for v in params["p_ladder"]]
    validate_p_ladder(ladder)
    cfg = NetworkConfig(
        alpha=params["alpha"],
        p=ladder[-1],
        k=k,
        pi=params.get("pi", 0.0),
        d_max=d_max,
    )
    validate_config(cfg)
    pattern = build_silencing(k, d_max)
    run = run_rx_conferencing if mode == "rx" else run_tx_conferencing
    report = run(cfg, pattern)
    est, rows = measure_mux_gains(cfg, pattern, ladder, mode=mode, top_report=report)

    prefix = params.get("out") or os.path.join(_outdir(), f"simulate_{mode}")

    rates_path = prefix + "_rates.csv"
    users = report.per_user
    _write_csv(
        rates_path,
        ["user", "kind", "rate_bits", "decode_round"],
        [users.cols[name] for name in ("user", "kind", "rate", "decode_round")],
    )

    events = event_log_rows(report, pattern)
    events_path = prefix + "_events.csv"
    _write_csv(events_path, list(events.cols), list(events.cols.values()))

    conv_path = prefix + "_convergence.csv"
    _write_csv(
        conv_path,
        ["p", "s_fast_est", "s_slow_est", "avg_link_prelog", "max_link_prelog"],
        list(np.array([[r.p, r.s_fast_est, r.s_slow_est, r.avg_link_prelog, r.max_link_prelog]
                       for r in rows], dtype=float).T),
    )
    return [rates_path, events_path, conv_path]


def _run_compare(params: dict, stream) -> list[str]:
    label = params["label"]
    ref = get_reference(label)
    path = params["csv"]
    xs, ys = [], []
    with open(path) as fh:
        next(fh)
        for line in fh:
            parts = line.strip().split(",")
            if len(parts) >= 2:
                xs.append(float(parts[0]))
                ys.append(float(parts[1]))
    if not xs:
        raise ValueError(f"no data rows in {path}")

    lo = max(min(xs), min(p[0] for p in ref))
    hi = min(max(xs), max(p[0] for p in ref))
    if lo > hi + 1e-12:
        raise ValueError("x ranges of reference and computed curve do not overlap")

    computed = Region(vertices=tuple(sorted(zip(xs, ys))), kind="polyline")
    print(f"comparison against {label} on x in [{_fmt(lo)}, {_fmt(hi)}]", file=stream)
    print("x,y_reference,y_computed,dy", file=stream)
    worst = (0.0, 0.0)
    for rx, ry in ref:
        if rx < lo - 1e-12 or rx > hi + 1e-12:
            continue
        cy = _polyline_ymax(computed, rx)
        dy = cy - ry
        if abs(dy) > abs(worst[1]):
            worst = (rx, dy)
        print(f"{_fmt(rx)},{_fmt(ry)},{_fmt(cy)},{_fmt(dy)}", file=stream)
    print(f"max |dy| = {_fmt(abs(worst[1]))} at x = {_fmt(worst[0])}", file=stream)
    if label in KNOWN_DISCREPANCIES:
        print(
            "note: known discrepancy; the published curve is not reproducible "
            "from the printed bound formulas, deviations are informational",
            file=stream,
        )
    return []


def _dispatch(command: str, params: dict, stream) -> int:
    if command == "region":
        outs = _run_region(params)
    elif command == "simulate":
        outs = _run_simulate(params)
    elif command == "compare":
        _run_compare(params, stream)
        return 0
    else:
        raise ValueError(f"unknown command {command!r}")
    _write_manifest(command, params, outs)
    for o in outs:
        print(o, file=stream)
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="softhandoff",
        description="rate regions, multiplexing-gain polygons, and conferencing simulators",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    reg = sub.add_parser("region", help="emit a region boundary as CSV")
    reg.add_argument("kind", choices=["inner", "outer", "mux"])
    reg.add_argument("--k", default="inf")
    reg.add_argument("--p", type=float, default=5.0)
    reg.add_argument("--alpha", type=float, default=0.2)
    reg.add_argument("--pi", type=float, default=0.0)
    reg.add_argument("--dmax", type=int, default=1)
    reg.add_argument("--mu", type=float, default=0.0)
    reg.add_argument("--mode", default="rx_bidirectional",
                     choices=["rx_bidirectional", "rx_unidirectional", "tx_conferencing"])
    reg.add_argument("--scheme", default="both", choices=["1", "2", "both"])
    reg.add_argument("--grid", type=int, default=64)
    reg.add_argument("--corrected", action="store_true")
    reg.add_argument("--out")

    sim = sub.add_parser("simulate", help="run a silencing conferencing scheme")
    sim.add_argument("mode", choices=["rx", "tx"])
    sim.add_argument("--k", type=int, required=True)
    sim.add_argument("--dmax", type=int, required=True)
    sim.add_argument("--alpha", type=float, default=0.5)
    sim.add_argument("--pi", type=float, default=0.0)
    sim.add_argument("--p-ladder", dest="p_ladder", default="1e2,1e4,1e6")
    sim.add_argument("--out")

    cmp_ = sub.add_parser("compare", help="compare a computed CSV against a reference curve")
    cmp_.add_argument("label")
    cmp_.add_argument("csv")

    rer = sub.add_parser("rerun", help="re-execute a command from its manifest")
    rer.add_argument("manifest")
    rer.add_argument("--out")

    try:
        args = ap.parse_args(argv)
        if args.command == "rerun":
            with open(args.manifest) as fh:
                doc = json.load(fh)
            params = dict(doc["params"])
            if args.out:
                params["out"] = args.out
            return _dispatch(doc["command"], params, sys.stdout)

        if args.command == "region":
            params = {
                "kind": args.kind, "k": args.k, "p": args.p, "alpha": args.alpha,
                "pi": args.pi, "dmax": args.dmax, "mu": args.mu, "mode": args.mode,
                "scheme": args.scheme, "grid": args.grid, "corrected": args.corrected,
                "out": args.out,
            }
            return _dispatch("region", params, sys.stdout)
        if args.command == "simulate":
            params = {
                "mode": args.mode, "k": args.k, "dmax": args.dmax, "alpha": args.alpha,
                "pi": args.pi, "p_ladder": [float(v) for v in str(args.p_ladder).split(",")],
                "out": args.out,
            }
            return _dispatch("simulate", params, sys.stdout)
        if args.command == "compare":
            return _dispatch("compare", {"label": args.label, "csv": args.csv}, sys.stdout)
        raise ValueError(f"unknown command {args.command!r}")
    except (ValueError, FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except SystemExit as err:
        # argparse exits with its own code (2 on usage errors)
        raise err
    except Exception as err:  # pragma: no cover - defensive
        print(f"internal error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
