"""Write the pinned inner boundaries the benchmark checks every run against.

    python3 perfbench/pin.py

Runs the fig3_sweep and fig2_repro region commands once and stores each
boundary as (x, y) points, with the outer sum bound of its configuration,
under ``perfbench/pinned/``.  The pin only ratchets upwards: the script
refuses to write a boundary that falls below the one already pinned, so
re-pin after a change that legitimately raises the boundary.
"""
from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from softhandoff import model, outer_bound  # noqa: E402


def _inner(command: str, out: Path) -> dict:
    code, _ = wl._cli_call(command.split() + ["--out", str(out)])
    if code != 0:
        raise SystemExit(f"{command}: exit code {code}")
    opts = dict(zip(command.split()[2::2], command.split()[3::2]))
    cfg = model.NetworkConfig(
        alpha=float(opts.get("--alpha", 0.2)), p=float(opts.get("--p", 5.0)),
        pi=float(opts["--pi"]), d_max=int(opts["--dmax"]),
    )
    return {
        "command": command,
        "sum_cap": outer_bound.outer_constraints(cfg).sum_cap,
        "points": wl.read_points(out),
    }


def main() -> int:
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        tmp = Path(tmp)
        pins = {
            "fig3_sweep": {f"d{d}": _inner(f"{wl.FIG3} --dmax {d}", tmp / f"d{d}.csv") for d in (4, 10)},
            "fig2_repro": {"inner": _inner(wl.FIG2_INNER, tmp / "inner.csv")},
        }
        code, _ = wl._cli_call(wl.FIG2_OUTER.split() + ["--out", str(tmp / "outer.csv")])
        if code != 0:
            raise SystemExit(f"{wl.FIG2_OUTER}: exit code {code}")
        pins["fig2_repro"]["outer"] = wl.read_points(tmp / "outer.csv")

    for name, pin in pins.items():
        path = wl.PINNED / f"{name}.json"
        if path.is_file():
            old = json.loads(path.read_text())
            for key, boundary in pin.items():
                if key == "outer":
                    continue
                fails = wl.boundary_failures(boundary["points"], old[key])
                if fails:
                    raise SystemExit(f"{name} {key}: refusing to lower the pinned boundary: {fails[0]}")
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(pin, indent=1) + "\n")
        print(f"wrote {path.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
