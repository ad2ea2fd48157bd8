"""The benchmark's workloads and the checks on their outputs.

A workload yields, for each pass, a list of operations.  ``Op.run`` is the
timed call into softhandoff; ``Op.check`` looks at what it produced, outside
the timed region, and returns how many operations it counted and why each
failed one failed.  Every failure is counted, none is skipped.

softhandoff is imported here, once, so that no timed operation pays for an
import; ``setup_s`` measures that cost.  Its functions are looked up on their
modules at call time, where the tracer's wrappers replace them.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from softhandoff import cli, model

# the package's own ``gaussian_mi`` attribute is the function, not the module
gmi = importlib.import_module("softhandoff.gaussian_mi")

PINNED = Path(__file__).resolve().parent / "pinned"

FIG3 = "region inner --scheme 2 --p 5 --alpha 0.2 --pi 2 --grid 64"
FIG2_OUTER = "region outer --k inf --p 5 --alpha 0.2 --pi 0.346"
FIG2_INNER = "region inner --scheme both --dmax 16 --pi 0.346"
SIM = "--k 44000 --dmax 10 --alpha 0.5 --p-ladder 1e2,1e4,1e6"
FIG4_MUX = "region mux --mu 0.3 --dmax 10"

#: Exact upper chain of the fig4 mu=0.3, d_max=10 multiplexing-gain polygon.
FIG4_VERTICES = [(0.0, 0.8), (0.2, 0.6), (0.5, 0.0)]
#: Corner point the silencing schemes reach at d_max=10, and the tolerance
#: the acceptance criterion on the simulator allows.
PRELOG_TARGET = (1 / 22, 20 / 22)
PRELOG_TOL = 0.02
#: Largest |gaussian_mi - mc_mutual_information| accepted, in bits.
MI_TOL = 0.01
MC_SAMPLES = 1_000_000
BOUNDARY_TOL = 1e-9


@dataclass
class Op:
    run: Callable[[], Any]
    # check(result, stats) -> (operations attempted, failure reasons)
    check: Callable[[Any, dict], tuple[int, list[str]]]


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json records why it was chosen."""

    name: str
    make_pass: Callable[[np.random.Generator, Path], list[Op]]
    probe: str  # speed.KERNELS entry closest to the work that dominates the workload


# --------------------------------------------------------------------------
# CSV outputs
# --------------------------------------------------------------------------

def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().splitlines()
    if not lines:
        return [], []
    return lines[0].split(","), [ln.split(",") for ln in lines[1:] if ln]


def read_points(path: Path) -> list[tuple[float, float]]:
    return [(float(r[0]), float(r[1])) for r in read_csv(path)[1]]


def polyline_area(points: list[tuple[float, float]]) -> float:
    """Area under a boundary polyline (x ascending), closed to both axes."""
    x0, y0 = points[0]
    area = x0 * y0
    for (xa, ya), (xb, yb) in zip(points, points[1:]):
        area += 0.5 * (xb - xa) * (ya + yb)
    return area


def _interp(points: list[tuple[float, float]], x: float) -> float:
    return float(np.interp(x, [p[0] for p in points], [p[1] for p in points]))


def load_pinned(workload: str) -> dict:
    return json.loads((PINNED / f"{workload}.json").read_text())


def sum_bound_excess(points: list[tuple[float, float]], sum_cap: float) -> dict:
    """How many points lie above the outer sum bound, and by how much at most."""
    excess = [x + y - sum_cap for x, y in points if x + y > sum_cap + BOUNDARY_TOL]
    return {"points": len(excess), "of": len(points), "max_bits": max(excess, default=0.0)}


def boundary_failures(points: list[tuple[float, float]], pinned: dict, strict_sum: bool = True) -> list[str]:
    """Failures of an inner boundary against its pinned seed boundary.

    The boundary may rise above the pinned one but not fall below it, x must
    increase strictly, y must not increase, and with ``strict_sum`` every
    point must stay inside the outer sum bound.
    """
    fails = []
    ref = [tuple(p) for p in pinned["points"]]
    for (xa, ya), (xb, yb) in zip(points, points[1:]):
        if not xb > xa:
            fails.append(f"x not strictly increasing at x={xa!r}")
            break
        if yb > ya:
            fails.append(f"y increases between x={xa!r} and x={xb!r}")
            break
    if strict_sum:
        for x, y in points:
            if x + y > pinned["sum_cap"] + BOUNDARY_TOL:
                fails.append(f"point ({x!r}, {y!r}) outside the outer sum bound {pinned['sum_cap']!r}")
                break
    for x, y in points:
        if x <= ref[-1][0] and y < _interp(ref, x) - BOUNDARY_TOL:
            fails.append(f"y={y!r} at x={x!r} below the pinned {_interp(ref, x)!r}")
            break
    if points[-1][0] < ref[-1][0] - BOUNDARY_TOL:
        fails.append(f"boundary ends at x={points[-1][0]!r}, before the pinned {ref[-1][0]!r}")
    return fails


# --------------------------------------------------------------------------
# CLI operations
# --------------------------------------------------------------------------

def _cli_call(argv: list[str]) -> tuple[int, str]:
    """Run ``softhandoff.cli.main`` in process; returns (exit code, stdout)."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except SystemExit as err:
        code = err.code if isinstance(err.code, int) else 1
    except Exception:  # counted as a failed operation, never skipped
        traceback.print_exc()
        code = -1
    return code, buf.getvalue()


def cli_op(command: str, out: Path, check_outputs: Callable[[str, dict], list[str]]) -> Op:
    argv = command.split() + (["--out", str(out)] if out else [])

    def check(result, stats):
        code, stdout = result
        if code != 0:
            return 1, [f"{command}: exit code {code}"]
        return 1, [f"{command}: {msg}" for msg in check_outputs(stdout, stats)]

    return Op(lambda: _cli_call(argv), check)


def _data_rows(path: Path) -> list[str]:
    if not path.is_file():
        return [f"{path.name} missing"]
    header, rows = read_csv(path)
    if not header:
        return [f"{path.name} is empty"]
    if not rows:
        return [f"{path.name} has a header but no data rows"]
    return []


def inner_check(path: Path, pinned: dict, strict_sum: bool = True) -> Callable[[str, dict], list[str]]:
    def check(stdout, stats):
        fails = _data_rows(path)
        if fails:
            return fails
        points = read_points(path)
        stats["area_bits2"] = stats.get("area_bits2", 0.0) + polyline_area(points)
        if not strict_sum:
            stats[f"{path.stem}.sum_bound_excess"] = sum_bound_excess(points, pinned["sum_cap"])
        return boundary_failures(points, pinned, strict_sum)

    return check


def outer_check(path: Path, pinned: list) -> Callable[[str, dict], list[str]]:
    def check(stdout, stats):
        fails = _data_rows(path)
        if fails:
            return fails
        got = read_points(path)
        if len(got) != len(pinned) or any(
            abs(g - w) > BOUNDARY_TOL for gp, wp in zip(got, pinned) for g, w in zip(gp, wp)
        ):
            return [f"outer vertices {got} differ from the pinned {pinned}"]
        return []

    return check


def compare_check(stdout: str, stats: dict) -> list[str]:
    return [] if "max |dy| = " in stdout else ["compare printed no max |dy| line"]


def simulate_check(prefix: Path) -> Callable[[str, dict], list[str]]:
    def check(stdout, stats):
        fails = []
        for suffix in ("_rates.csv", "_events.csv", "_convergence.csv"):
            fails += _data_rows(Path(str(prefix) + suffix))
        if fails:
            return fails
        last = read_csv(Path(str(prefix) + "_convergence.csv"))[1][-1]
        est = (float(last[1]), float(last[2]))
        if any(abs(e - t) > PRELOG_TOL for e, t in zip(est, PRELOG_TARGET)):
            fails.append(f"prelog estimate {est} more than {PRELOG_TOL} from (1/22, 20/22)")
        return fails

    return check


def mux_check(path: Path) -> Callable[[str, dict], list[str]]:
    def check(stdout, stats):
        fails = _data_rows(path)
        if fails:
            return fails
        got = read_points(path)
        if len(got) != len(FIG4_VERTICES) or any(
            abs(g - w) > 1e-12 for gp, wp in zip(got, FIG4_VERTICES) for g, w in zip(gp, wp)
        ):
            return [f"mux chain {got} differs from the exact {FIG4_VERTICES}"]
        return []

    return check


def fig3_sweep(rng, out: Path) -> list[Op]:
    pinned = load_pinned("fig3_sweep")
    ops = []
    for d in (4, 10):
        path = out / f"fig3_d{d}.csv"
        ops.append(cli_op(f"{FIG3} --dmax {d}", path, inner_check(path, pinned[f"d{d}"])))
    return ops


def fig2_repro(rng, out: Path) -> list[Op]:
    pinned = load_pinned("fig2_repro")
    outer, inner = out / "fig2_outer.csv", out / "fig2_inner.csv"
    return [
        cli_op(FIG2_OUTER, outer, outer_check(outer, pinned["outer"])),
        # Known discrepancy: with the printed-formula terms (the CLI default)
        # every fig2 inner point lies 0.19 bits above the outer sum bound; the
        # acceptance criterion on containment documents it.  The excess is
        # reported each run rather than counted as a failure.
        cli_op(FIG2_INNER, inner, inner_check(inner, pinned["inner"], strict_sum=False)),
        cli_op(f"compare fig2_outer {outer}", None, compare_check),
        cli_op(f"compare fig2_inner {inner}", None, compare_check),
    ]


def prelog_sim(rng, out: Path) -> list[Op]:
    mux = out / "fig4_mu03.csv"
    ops = [cli_op(f"simulate {m} {SIM}", out / f"sim_{m}", simulate_check(out / f"sim_{m}")) for m in ("rx", "tx")]
    ops.append(cli_op(FIG4_MUX, mux, mux_check(mux)))
    ops.append(cli_op(f"compare fig4_mu03 {mux}", None, compare_check))
    return ops


# --------------------------------------------------------------------------
# Monte-Carlo oracle
# --------------------------------------------------------------------------

def _oracle_config(rng: np.random.Generator, n_layers: int):
    """One random configuration, drawn as the MI-oracle acceptance criterion draws it."""
    p = float(10 ** rng.uniform(math.log10(0.1), 2.0))
    a = float(rng.uniform(0.05, 0.95)) * (1.0 if rng.random() < 0.5 else -1.0)
    alloc = gmi.PowerAllocation(tuple(rng.dirichlet(np.ones(n_layers))))
    cfg = model.NetworkConfig(alpha=a, p=p, d_max=n_layers - 1, pi=1.0)
    return alloc, cfg, [int(s) for s in rng.integers(0, 2**31, size=8)]  # one per term, at most 8


def _oracle_terms(alloc, cfg, mc_seeds: list[int]) -> list[tuple[str, float, float]]:
    """Every scheme-1 and scheme-2 term of one config, by determinant and by MC."""
    spec = gmi.layered_covariance(alloc, cfg)
    groups = dict(gmi.scheme2_term_groups(spec, cfg.d_max))
    if alloc.num_layers == 3:
        groups.update(gmi.scheme1_term_groups(spec))
    out = []
    for (name, (ga, gb, gc)), seed in zip(groups.items(), mc_seeds):
        det = gmi.gaussian_mi(spec, ga, gb, gc)
        mc = gmi.mc_mutual_information(spec, ga, gb, gc, samples=MC_SAMPLES, seed=seed)
        out.append((name, det, mc))
    return out


def mi_oracle(rng, out: Path) -> list[Op]:
    ops = []
    for n_layers in (2, 3, 4, 5):
        alloc, cfg, seeds = _oracle_config(rng, n_layers)
        # a config has L+1 scheme-2 terms, plus 4 scheme-1 terms when L=3
        expected = n_layers + 1 + (4 if n_layers == 3 else 0)

        def run(alloc=alloc, cfg=cfg, seeds=seeds):
            try:
                return _oracle_terms(alloc, cfg, seeds)
            except Exception as err:  # counted as failed terms, never skipped
                traceback.print_exc()
                return err

        def check(result, stats, cfg=cfg, expected=expected):
            if isinstance(result, Exception):
                return expected, [f"{cfg}: {result!r}"] * expected
            fails = [
                f"{cfg} {name}: |det - mc| = {abs(det - mc):.3g} > {MI_TOL}"
                for name, det, mc in result
                if not abs(det - mc) <= MI_TOL
            ]
            if len(result) != expected:
                fails.append(f"{cfg}: {len(result)} terms, expected {expected}")
            return max(len(result), expected), fails

        ops.append(Op(run, check))
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fig3_sweep", fig3_sweep, "numpy"),
        Workload("fig2_repro", fig2_repro, "numpy"),
        Workload("prelog_sim", prelog_sim, "objects"),
        Workload("mi_oracle", mi_oracle, "arrays"),
    )
}
