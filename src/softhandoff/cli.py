"""Command-line front end: region sweeps, scheme simulation, reference compare.

Every output CSV uses 12-significant-digit floats, '.' decimals and plain
newlines, and is accompanied by a JSON manifest that reproduces it byte for
byte via the rerun subcommand.  Exit codes: 0 success, 2 validation error or
a path that cannot be read or written, 3 internal error.

An output that exists as a regular file is written over in place and then cut
to its new length, never truncated to zero first: truncating a written file
frees its blocks and drops its cached pages, which the rewrite allocates again.
As with truncation, the file keeps its inode, mode and hard links, a symlink is
written through, and an output that may not be written fails to open.  The cut
falls after the bytes the OS has received, so an error mid-write, in the last
flush too, leaves just the new bytes written so far; a process killed mid-write
(nothing is fsynced) can leave the new head followed by the old tail, which a
rerun of the manifest replaces.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import stat
import sys
import time
from collections.abc import Callable

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
_BLOCK_ROWS = 8192  # CSV rows assembled and written at once


def _fmt(v: float) -> str:
    s = f"{float(v):.12g}"
    return "0" if s == "-0" else s


def _outdir() -> str:
    return os.environ.get(_ENV_OUTDIR, ".")


def _digit_table(hi: int) -> np.ndarray:
    """str(i) for 0 <= i <= hi, then "", as rows of right-aligned NUL-padded ASCII bytes.  The digit
    of 10^j runs through 0..9 once per 10^(j+1) rows, so each byte column is a tiled cycle: no division."""
    table = np.zeros((hi + 2, len(str(hi))), dtype=np.uint8)
    for j in range(table.shape[1]):
        place = 10**j
        cycle = np.repeat(np.arange(48, 58, dtype=np.uint8), place)
        table[:-1, -1 - j] = np.tile(cycle, hi // (10 * place) + 1)[:hi + 1]
        if j:  # no leading zeros
            table[:place, -1 - j] = 0
    return table


def _int_max(col: np.ndarray) -> int | None:
    """The greatest unmasked cell of an integer column (None: another column).  A negative cell,
    or no unmasked one, raises ValueError."""
    if col.dtype.kind not in "iu":
        return None
    values = np.ma.compressed(col)
    if not values.size or values.min() < 0:
        raise ValueError("an integer column must have an unmasked cell and no negative one")
    return int(values.max())


def _cells(col: np.ndarray, table: np.ndarray, top: int | None) -> tuple[np.dtype, Callable[[slice], np.ndarray]]:
    """A column's cell type, NUL-padded void cells as wide as its widest one, and the function
    that gives the cells of a slice of its rows.  An integer column (top: its greatest cell) indexes
    the digit table's rows, cut to its width, by value, a float column the text of its distinct
    values, and a masked cell the "" row; an unmasked ASCII string column is cast to one byte per
    character a slice at a time, and any other string column raises ValueError."""
    data, mask = np.ma.getdata(col), np.ma.getmask(col)
    if top is not None:
        width = len(str(top))
        text = np.concatenate([table[:top + 1, -width:], table[-1:, -width:]]).view(f"V{width}").ravel()

        def key(rows):
            return data[rows].astype(np.intp)
    elif data.dtype.kind == "f":
        values = np.unique(data)  # -0.0 and 0.0 fold into one value, as do the NaNs
        text = np.array([*map(_fmt, values.tolist()), ""], dtype="S")
        text = text.view(f"V{text.itemsize}")

        def key(rows):
            return np.searchsorted(values, data[rows])
    else:
        text = np.ascontiguousarray(data, dtype=str)
        if np.ma.is_masked(col) or text.view(np.uint32).max(initial=0) >= 128:
            raise ValueError("a string column must be unmasked ASCII")
        cell = np.dtype(f"V{text.itemsize // 4}")
        return cell, lambda rows: text[rows].view(np.uint32).astype(np.uint8).view(cell)

    def cells(rows):
        i = key(rows)
        if mask is not np.ma.nomask:
            i[mask[rows]] = -1  # the "" cell
        return text.take(i)
    return text.dtype, cells


def _overwrite(path: str, flags: int) -> int:
    """The opener of every output: open()'s flags without O_TRUNC, and its mode 0o666 & ~umask."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _cut(fh) -> None:
    """Cut a file opened through _overwrite after the bytes the OS has received; a device or a FIFO has no length.

    Bytes fh still buffers, after an error, go after the cut when it closes."""
    fd = fh.fileno()
    st = os.fstat(fd)
    if stat.S_ISREG(st.st_mode) and st.st_size > (end := os.lseek(fd, 0, os.SEEK_CUR)):
        os.ftruncate(fd, end)


@contextlib.contextmanager
def _output(path: str, mode: str, **kwargs):
    """The file object of an output, opened through _overwrite, flushed and then cut by _cut.

    An OSError while writing it names path, as one from opening it does."""
    try:
        with open(path, mode, opener=_overwrite, **kwargs) as fh:
            try:
                yield fh
                fh.flush()
            finally:
                _cut(fh)
    except OSError as err:
        if err.filename is None:
            err.filename = path
        raise


def _write_csvs(files: list[tuple[str, list[str], list]]) -> None:
    """Write each (path, header, equal-length columns) as a CSV, one row per line.

    The columns are the CLI's: integers from 0 up with an unmasked cell, floats, and unmasked ASCII
    labels; any other integer or string column raises ValueError before an output is opened.  Each
    column becomes NUL-padded void cells, as narrow as its widest cell: integers index one digit
    table over 0..the files' greatest integer (k <= _MAX_K cells at most) by value; floats are
    formatted by _fmt, once per distinct value; strings are one byte per character (a cast of
    their UCS-4 code points); masked cells are NUL.  A block of rows is one packed record array, a
    cell and a separator byte per column, written with its NULs dropped.  Each block's cells are
    found when it is filled, so no array of cell indices or of cast text as long as a column is
    built, and no Python object per row or cell.
    """
    files = [(path, header, [np.asanyarray(c) for c in columns]) for path, header, columns in files]
    tops = [[_int_max(c) for c in cols] for _, _, cols in files]
    hi = max((top for col_tops in tops for top in col_tops if top is not None), default=None)
    table = None if hi is None else _digit_table(hi)
    cells = [[_cells(c, table, top) for c, top in zip(cols, col_tops)] for (_, _, cols), col_tops in zip(files, tops)]
    for (path, header, cols), file_cells in zip(files, cells):
        n = len(cols[0]) if cols else 0
        buf = np.empty(min(n, _BLOCK_ROWS), [(f"{name}{j}", t) for j, (cell, _) in enumerate(file_cells)
                                              for name, t in (("c", cell), ("s", np.uint8))])
        for j in range(len(file_cells)):
            buf[f"s{j}"] = 10 if j == len(file_cells) - 1 else 44  # a newline ends a row, a ',' any other cell
        with _output(path, "wb") as fh:
            fh.write((",".join(header) + "\n").encode())
            for i in range(0, n, _BLOCK_ROWS):
                block = buf[:n - i]
                for j, (_, cells_of) in enumerate(file_cells):
                    block[f"c{j}"] = cells_of(slice(i, i + len(block)))
                fh.write(block.tobytes().translate(None, b"\0"))


def _write_chain(path: str, header: list[str], chain: list[tuple[float, float]], source: str) -> None:
    xy = np.array(chain, dtype=float).reshape(-1, 2)
    _write_csvs([(path, header, [xy[:, 0], xy[:, 1], [source] * len(xy)])])


def _write_manifest(command: str, params: dict, outputs: list[str]) -> None:
    path = outputs[0] + ".manifest.json"
    doc = {
        "command": command,
        "params": params,
        "tool_version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "outputs": [os.path.basename(o) for o in outputs],
    }
    with _output(path, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _parse_k(text: str) -> float:
    if str(text).lower() in ("inf", "infinity", "asymptotic"):
        return ASYMPTOTIC_K
    try:
        return int(str(text))  # a float such as 2.5 is refused, not truncated
    except ValueError:
        raise ValueError(f"k must be an integer or inf, got {text!r}") from None


def _parse_ladder(values: list) -> list[float]:
    try:
        return [float(v) for v in values]
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"p_ladder must be a list of numbers, got {values!r}") from None


def _checked(params: dict, name: str, default, *types: type):
    """params[name], or default when it is absent, if its type is one of types
    (exactly: a bool is not an int here)."""
    value = params.get(name, default)
    if type(value) not in types:
        raise ValueError(f"{name} must be {' or '.join(t.__name__ for t in types)}, got {value!r}")
    return value


def _out(params: dict, default: str) -> str:
    """params["out"], or default in the output directory, checked to lie in an existing
    directory before any work is done."""
    out = _checked(params, "out", None, str, type(None)) or os.path.join(_outdir(), default)
    if not os.path.isdir(os.path.dirname(out) or "."):
        raise ValueError(f"out must lie in an existing directory, got {out!r}")
    return out


def _run_region(params: dict) -> list[str]:
    kind = params["kind"]
    out = _out(params, f"region_{kind}.csv")
    if kind == "mux":
        spec = MuxRegionSpec(mode=params.get("mode", "rx_bidirectional"), mu=params.get("mu", 0.0),
                             d_max=params.get("dmax", 1))
        _write_chain(out, ["s_fast", "s_slow", "source"], upper_chain(mux_region(spec)), spec.mode)
        return [out]

    if kind == "outer":
        cfg = NetworkConfig(alpha=params["alpha"], p=params["p"], k=_parse_k(params.get("k", "inf")),
                            pi=params.get("pi", 0.0))
        _write_chain(out, ["x_rate_bits", "y_rate_bits", "source"], upper_chain(outer_region(cfg)), "outer")
        return [out]

    if kind == "inner":  # the K -> infinity sweep, so no k
        grid, corrected = _checked(params, "grid", 64, int), _checked(params, "corrected", False, bool)
        cfg = NetworkConfig(alpha=params["alpha"], p=params["p"], pi=params.get("pi", 0.0),
                            d_max=params.get("dmax", 1))
        scheme = str(params.get("scheme", "both"))
        pts = inner_boundary(cfg, scheme, grid, corrected)
        ref_label = match_inner_reference(scheme, cfg.p, cfg.alpha, cfg.pi, cfg.d_max)
        header = ["x_rate_bits", "y_rate_bits", "source"]
        columns = [pts.cols[name] for name in ("x", "y", "source")]
        if ref_label:  # blank outside the reference's x range
            ref = Region(vertices=get_reference(ref_label), kind="polyline")
            header.append("reference")
            columns.append(np.ma.masked_invalid(_polyline_ymax(ref, pts.cols["x"])))
        _write_csvs([(out, header, columns)])
        return [out]

    raise ValueError(f"unknown region kind {kind!r}")


def _run_simulate(params: dict) -> list[str]:
    mode = params["mode"]
    k, d_max = _checked(params, "k", None, int), _checked(params, "dmax", None, int)
    prefix = _out(params, f"simulate_{mode}")
    ladder = _parse_ladder(params["p_ladder"])
    validate_p_ladder(ladder)
    cfg = validate_config(NetworkConfig(alpha=params["alpha"], p=ladder[-1], k=k, d_max=d_max))
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


def _run_compare(params: dict, stream) -> None:
    label, path = params["label"], params["csv"]
    ref = get_reference(label)
    pts = []
    with open(path) as fh:
        next(fh, None)
        for n, line in enumerate(fh, start=2):
            parts = line.strip().split(",")
            try:
                if len(parts) < 2:
                    raise ValueError(f"a row needs two cells, got {line.strip()!r}")
                pts.append((float(parts[0]), float(parts[1])))
                if not np.isfinite(sum(pts[-1])):  # a NaN would drop out of max |dy|
                    raise ValueError(f"cells must be finite, got {line.strip()!r}")
            except ValueError as err:
                raise ValueError(f"{path}, line {n}: {err}") from None
    if not pts:
        raise ValueError(f"no data rows in {path}")

    lo = max(min(pts)[0], min(p[0] for p in ref))
    hi = min(max(pts)[0], max(p[0] for p in ref))
    if lo > hi + 1e-12:
        raise ValueError("x ranges of reference and computed curve do not overlap")

    computed = Region(vertices=tuple(sorted(pts)), kind="polyline")
    shown = [(rx, ry) for rx, ry in ref if lo - 1e-12 <= rx <= hi + 1e-12]
    cys = _polyline_ymax(computed, np.array([rx for rx, _ in shown], dtype=float)).tolist()
    print(f"comparison against {label} on x in [{_fmt(lo)}, {_fmt(hi)}]", file=stream)
    print("x,y_reference,y_computed,dy", file=stream)
    worst = (0.0, 0.0)
    for (rx, ry), cy in zip(shown, cys):
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


@functools.cache  # built on the first call, not at import
def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="softhandoff",
        description="rate regions, multiplexing-gain polygons, and conferencing simulators",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    reg = sub.add_parser("region", help="emit a region boundary as CSV")
    kinds = reg.add_subparsers(dest="kind", required=True)
    inner, outer, mux = (kinds.add_parser(kind) for kind in ("inner", "outer", "mux"))  # inner: K -> inf
    outer.add_argument("--k", default="inf")
    for kp in (inner, outer):
        kp.add_argument("--p", type=float, default=5.0)
        kp.add_argument("--alpha", type=float, default=0.2)
        kp.add_argument("--pi", type=float, default=0.0)
    for kp in (inner, mux):
        kp.add_argument("--dmax", type=int, default=1)
    mux.add_argument("--mu", type=float, default=0.0)
    mux.add_argument("--mode", default="rx_bidirectional",
                     choices=["rx_bidirectional", "rx_unidirectional", "tx_conferencing"])
    inner.add_argument("--scheme", default="both", choices=["1", "2", "both"])
    inner.add_argument("--grid", type=int, default=64)
    inner.add_argument("--corrected", action="store_true")
    for kp in (inner, outer, mux):
        kp.add_argument("--out")

    sim = sub.add_parser("simulate", help="run a silencing conferencing scheme")
    sim.add_argument("mode", choices=["rx", "tx"])
    sim.add_argument("--k", type=int, required=True)
    sim.add_argument("--dmax", type=int, required=True)
    sim.add_argument("--alpha", type=float, default=0.5)
    sim.add_argument("--p-ladder", dest="p_ladder", default="1e2,1e4,1e6")
    sim.add_argument("--out")

    cmp_ = sub.add_parser("compare", help="compare a computed CSV against a reference curve")
    cmp_.add_argument("label")
    cmp_.add_argument("csv")

    rer = sub.add_parser("rerun", help="re-execute a command from its manifest")
    rer.add_argument("manifest")
    rer.add_argument("--out")
    return ap


def main(argv: list[str] | None = None) -> int:
    try:
        params = vars(_parser().parse_args(argv))  # the dest names are the manifest keys
        command = params.pop("command")
        if command == "rerun":
            with open(params["manifest"]) as fh:
                doc = json.load(fh)
            if not (isinstance(doc, dict) and isinstance(doc.get("command"), str)
                    and isinstance(doc.get("params"), dict)):
                raise ValueError("manifest must be a JSON object with a command string and a params object")
            out, params = params["out"], dict(doc["params"])
            if out:
                params["out"] = out
            try:
                return _dispatch(doc["command"], params, sys.stdout)
            except KeyError as err:  # the first param the command reads and the manifest lacks
                raise ValueError(f"manifest params lack {err}") from None
        if command == "simulate":
            params["p_ladder"] = _parse_ladder(params["p_ladder"].split(","))
        return _dispatch(command, params, sys.stdout)
    except (ValueError, OSError) as err:  # an OSError of an input or an output names its path
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # pragma: no cover - defensive
        print(f"internal error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
