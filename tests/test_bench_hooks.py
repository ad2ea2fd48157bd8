"""The benchmark's tracing hooks still find what they wrap.

perfbench/tracing.py replaces functions by name in the modules their callers
look them up in, counts users and conference messages with len() on a
report, and counts boundary points with len() on an inner boundary; a
refactor that renames one of them, or makes len() unavailable, would
silently empty the traced benchmark run.  The module is loaded from its
file and only read.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

from softhandoff.conf_sim import build_silencing, run_rx_conferencing, run_tx_conferencing
from softhandoff.inner_bound import inner_boundary
from softhandoff.model import NetworkConfig

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # its dataclasses look their module up there
    spec.loader.exec_module(mod)
    return mod


def test_every_wrapped_name_resolves_to_a_callable():
    wrapped = _tracing().WRAPPED
    assert wrapped
    for mod_name, attr, _ in wrapped:
        assert callable(getattr(importlib.import_module(mod_name), attr)), (mod_name, attr)


def test_simulator_counters_read_report_lengths():
    tracing = _tracing()
    cfg = NetworkConfig(alpha=0.5, p=100.0, d_max=2, k=20)
    pattern = build_silencing(20, 2)
    for run, span in ((run_rx_conferencing, "conf_sim.run_rx_conferencing"),
                      (run_tx_conferencing, "conf_sim.run_tx_conferencing")):
        rep = run(cfg, pattern)
        counts = tracing._count_result(span, {}, rep)
        assert counts == {"conf_sim.users": len(rep.per_user), "conf_sim.conf_msgs": len(rep.conf_log)}
        assert counts["conf_sim.users"] == 20 and counts["conf_sim.conf_msgs"] > 0


def test_inner_boundary_counter_reads_the_point_count():
    tracing = _tracing()
    fig2 = NetworkConfig(alpha=0.2, p=5.0, pi=0.346, d_max=16)
    for cfg, scheme in ((fig2, "both"), *((NetworkConfig(alpha=0.2, p=5.0, pi=2.0, d_max=d), "2") for d in (4, 10))):
        pts = inner_boundary(cfg, scheme, 64)
        counts = tracing._count_result("inner_bound.inner_boundary", {}, pts)
        assert counts == {"inner_bound.bins": sum(1 for _ in pts)} == {"inner_bound.bins": 65}
