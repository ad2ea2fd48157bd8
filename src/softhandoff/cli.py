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
from .conf_sim import _convergence, _layout, build_silencing, event_log_rows, validate_p_ladder
from .conf_sim import measure_mux_gains, run_rx_conferencing, run_tx_conferencing  # noqa: F401 - traced names
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


def _write_csvs(files: list[tuple[str, list[str], list]]) -> None:
    """Write each (path, header, equal-length columns) as a CSV, one row per line.

    Integer cells index one table of str(i) over the files' integer range, which
    the callers keep small (cells, users, rounds and subnets of k <= _MAX_K
    cells); its last entry "" serves masked cells.  Floats go through _fmt once
    per distinct value; strings are written as they are.  Rows go out in
    blocks, so no file's whole text is held as one string.
    """
    files = [(path, header, [np.asanyarray(c) for c in columns]) for path, header, columns in files]
    ints = [v for _, _, cols in files for c in cols if c.dtype.kind in "iu" and (v := np.ma.compressed(c)).size]
    lo, hi = min((int(v.min()) for v in ints), default=0), max((int(v.max()) for v in ints), default=-1)
    table = np.array([*map(str, range(lo, hi + 1)), ""], dtype=object)
    for path, header, cols in files:
        text = []
        for col in cols:
            if col.dtype.kind in "iu":
                text.append(table[np.where(np.ma.getmaskarray(col), -1, np.ma.getdata(col) - lo)].tolist())
            elif col.dtype.kind == "f":
                values, inverse = np.unique(col, return_inverse=True)
                text.append(np.array([_fmt(v) for v in values.tolist()], dtype=object)[inverse].tolist())
            else:
                text.append(col.tolist())
        rows = [",".join(header), *map(",".join, zip(*text))]
        del text
        with open(path, "w", newline="\n") as fh:
            for i in range(0, len(rows), 8192):
                fh.write("\n".join(rows[i:i + 8192]) + "\n")


def _write_chain(path: str, header: list[str], chain: list[tuple[float, float]], source: str) -> None:
    xy = np.array(chain, dtype=float).reshape(-1, 2)
    _write_csvs([(path, header, [xy[:, 0], xy[:, 1], [source] * len(xy)])])


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
    except (TypeError, ValueError):
        raise ValueError(f"k must be an integer or inf, got {text!r}") from None


def _parse_ladder(values: list) -> list[float]:
    try:
        return [float(v) for v in values]
    except (TypeError, ValueError):
        raise ValueError(f"p_ladder must be a list of numbers, got {values!r}") from None


def _checked(params: dict, name: str, default, *types: type):
    """params[name], or default when it is absent, if its type is one of types
    (exactly: a bool is not an int here)."""
    value = params.get(name, default)
    if type(value) not in types:
        raise ValueError(f"{name} must be {' or '.join(t.__name__ for t in types)}, got {value!r}")
    return value


def _run_region(params: dict) -> list[str]:
    kind = params["kind"]
    out = _checked(params, "out", None, str, type(None)) or os.path.join(_outdir(), f"region_{kind}.csv")
    grid, corrected = _checked(params, "grid", 64, int), _checked(params, "corrected", False, bool)

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
        pts = inner_boundary(cfg, scheme, grid, corrected)
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
        _write_csvs([(out, header, columns)])
        return [out]

    raise ValueError(f"unknown region kind {kind!r}")


def _run_simulate(params: dict) -> list[str]:
    mode = params["mode"]
    k, d_max = _checked(params, "k", None, int), _checked(params, "dmax", None, int)
    prefix = _checked(params, "out", None, str, type(None)) or os.path.join(_outdir(), f"simulate_{mode}")
    ladder = _parse_ladder(params["p_ladder"])
    validate_p_ladder(ladder)
    cfg = validate_config(NetworkConfig(alpha=params["alpha"], p=ladder[-1], k=k, pi=params.get("pi", 0.0),
                                        d_max=d_max))
    pattern = build_silencing(k, d_max)
    _, rows, report = _convergence(_layout(pattern, mode), cfg, ladder)  # report: the top power's

    rates_path, events_path, conv_path = (prefix + f"_{name}.csv" for name in ("rates", "events", "convergence"))
    users, events = report.per_user.cols, event_log_rows(report, pattern).cols
    _write_csvs([
        (rates_path, ["user", "kind", "rate_bits", "decode_round"],
         [users[name] for name in ("user", "kind", "rate", "decode_round")]),
        (events_path, list(events), list(events.values())),
        (conv_path, ["p", "s_fast_est", "s_slow_est", "avg_link_prelog", "max_link_prelog"],
         list(np.array([[r.p, r.s_fast_est, r.s_slow_est, r.avg_link_prelog, r.max_link_prelog]
                        for r in rows], dtype=float).T)),
    ])
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
            if not (isinstance(doc, dict) and isinstance(doc.get("command"), str)
                    and isinstance(doc.get("params"), dict)):
                raise ValueError("manifest must be a JSON object with a command string and a params object")
            params = dict(doc["params"])
            if args.out:
                params["out"] = args.out
            try:
                return _dispatch(doc["command"], params, sys.stdout)
            except KeyError as err:  # the first param the command reads and the manifest lacks
                raise ValueError(f"manifest params lack {err}") from None

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
                "pi": args.pi, "p_ladder": _parse_ladder(str(args.p_ladder).split(",")),
                "out": args.out,
            }
            return _dispatch("simulate", params, sys.stdout)
        if args.command == "compare":
            return _dispatch("compare", {"label": args.label, "csv": args.csv}, sys.stdout)
        raise ValueError(f"unknown command {args.command!r}")
    except (ValueError, FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # pragma: no cover - defensive
        print(f"internal error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
