import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softhandoff import cli, conf_sim
from softhandoff.cli import _BLOCK_ROWS, _fmt, _write_csvs
from softhandoff.conf_sim import (
    ConferenceMessage,
    ConvergenceRow,
    UserRate,
    build_silencing,
    conferencing_load,
    event_log_rows,
    measure_mux_gains,
    phase_rotated_load,
    run_rx_conferencing,
    run_tx_conferencing,
    RateReport,
    Subnet,
)
from softhandoff.model import Columns, NetworkConfig
from softhandoff.outer_bound import outer_constraints

HALF_LOG2_6 = 1.292481250360578        # forward rate at P=5
R_CROSS = 0.1315172029168969           # 0.5*log2(1 + 0.04*5)
TX_DPC = 1.272824788348165             # 0.5*log2(1 + 5/(1 + 0.04*5/6))
TX_CROSS = 0.12762852762103732         # 0.5*log2(1 + 0.2/(1 + 0.04*5/6))


class TestBuildSilencing:
    def test_two_full_subnets(self):
        p = build_silencing(8, 1)
        assert sorted(p.silenced) == [4, 8]
        assert [(s.first, s.last_active, s.silenced_cell) for s in p.subnets] == [
            (1, 3, 4),
            (5, 7, 8),
        ]

    def test_single_subnet(self):
        p = build_silencing(22, 10)
        assert sorted(p.silenced) == [22]
        assert p.subnets[0].active_count == 21

    def test_too_small(self):
        with pytest.raises(ValueError, match="K too small"):
            build_silencing(3, 1)

    def test_rejects_dmax_below_one_by_name(self):
        for d_max in (0, -1):
            with pytest.raises(ValueError, match="d_max must be at least 1"):
                build_silencing(10, d_max)

    @pytest.mark.parametrize("k,d_max,field", [
        (22, True, "d_max"), (22, 2.0, "d_max"), (22, None, "d_max"),
        (22.0, 2, "k"), (True, 1, "k"), ("22", 2, "k"),
    ])
    def test_rejects_non_integer_k_and_d_max_by_name(self, k, d_max, field):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            build_silencing(k, d_max)

    def test_numpy_integers_accepted(self):
        assert build_silencing(np.int64(22), np.int64(2)) == build_silencing(22, 2)

    def test_trailing_partial_subnet(self):
        p = build_silencing(10, 1)
        assert sorted(p.silenced) == [4, 8, 10]
        assert p.subnets[-1].active_count == 1

    def test_silenced_are_period_multiples(self):
        p = build_silencing(24, 1)
        assert all(c % 4 == 0 for c in p.silenced)

    def test_isolation_invariant(self):
        # no active transmitter is adjacent across a subnet border
        p = build_silencing(30, 2)
        for s0, s1 in zip(p.subnets, p.subnets[1:]):
            assert s1.first == s0.silenced_cell + 1


def _ref_silencing(k, d_max, offset=0):
    """build_silencing's silenced cells and subnets as the per-subnet loop built them:
    a list of cells and one Subnet record per subnet."""
    period = 2 * d_max + 2
    silenced = list(range(offset or period, k + 1, period))
    if silenced[-1] < k:
        silenced.append(k)
    firsts = [1] + [cell + 1 for cell in silenced[:-1]]
    return frozenset(silenced), tuple(Subnet(first, cell - 1, cell) for first, cell in zip(firsts, silenced))


def _ref_layout(subnets, d_max, mode):
    """_layout's arrays as a groupby over Subnet records tiled them, run by run, with
    the fast and slow slots taken from the tiled users."""
    template = conf_sim._rx_template if mode == "rx" else conf_sim._tx_template
    users, msgs = [], []
    for m, run in itertools.groupby(subnets, key=lambda s: s.active_count):
        firsts = np.array([s.first for s in run], dtype=np.int64)
        for rows, width, cells, out in zip(template(m, d_max), (4, 5), ([0], [1, 2, 4]), (users, msgs)):
            t = np.tile(np.array(rows, dtype=np.int64).reshape(len(rows), width).T, len(firsts))
            t[cells] += np.repeat(firsts, len(rows))
            out.append(t)
    users, msgs = np.concatenate(users, axis=1), np.concatenate(msgs, axis=1)
    direction = 2 * np.minimum(msgs[1], msgs[2]) + (msgs[2] < msgs[1])
    users, msgs = users.astype(np.int32), msgs.astype(np.int32)  # int32 cells and rounds, int64 directions
    kind, slot = users[1], users[2]
    return users, msgs, direction, slot[kind == 0], slot[kind == 1]


class TestArrayPattern:
    """build_silencing's columns and _layout's runs found by np.diff equal the Subnet
    tuple and the groupby tiling they replaced, at every offset."""

    @pytest.mark.parametrize("d_max", range(1, 13))
    def test_matches_per_subnet_construction(self, d_max):
        period = 2 * d_max + 2
        trailing = set()
        for offset in range(period):
            # one period; whole periods after the offset; and a trailing partial subnet
            for k in (period, offset + 3 * period, offset + 3 * period + 1 + (d_max + offset) % (period - 1)):
                pattern = build_silencing(k, d_max, offset)
                silenced, subnets = _ref_silencing(k, d_max, offset)
                assert pattern.silenced == silenced
                assert pattern.subnets == subnets and len(pattern.subnets) == len(subnets)
                trailing.add(k not in range(offset or period, k + 1, period))
                for mode in ("rx", "tx"):
                    layout = conf_sim._layout(pattern, mode)
                    got = (layout.users, layout.msgs, layout.direction, layout.fast_slot, layout.slow_slot)
                    for g, want in zip(got, _ref_layout(subnets, d_max, mode), strict=True):
                        assert g.dtype == want.dtype and np.array_equal(g, want)
                    # every report on the pattern shares the tiled arrays, and the pattern keeps them
                    assert not any(a.flags.writeable for a in got[:2])
                    assert conf_sim._layout(pattern, mode) is layout
        assert trailing == {True, False}


class TestRxConferencing:
    def setup_method(self):
        self.cfg = NetworkConfig(alpha=0.2, p=5.0, d_max=1, k=4)
        self.report = run_rx_conferencing(self.cfg, build_silencing(4, 1))

    def test_rates(self):
        got = [(u.kind, u.rate) for u in self.report.per_user]
        assert got[0] == ("fast", pytest.approx(HALF_LOG2_6, abs=1e-12))
        assert got[1] == ("slow", pytest.approx(HALF_LOG2_6, abs=1e-12))
        assert got[2] == ("slow", pytest.approx(R_CROSS, abs=1e-12))
        assert got[3] == ("silenced", 0.0)

    def test_messages(self):
        msgs = {(m.from_node, m.to_node, m.round) for m in self.report.conf_log}
        assert msgs == {(1, 2, 1), (4, 3, 1)}

    def test_averages_over_all_cells(self):
        assert self.report.avg_fast == pytest.approx(HALF_LOG2_6 / 4, abs=1e-12)
        assert self.report.avg_slow == pytest.approx((HALF_LOG2_6 + R_CROSS) / 4, abs=1e-12)

    def test_backward_rates_vanish_with_alpha(self):
        rep = run_rx_conferencing(NetworkConfig(alpha=1e-4, p=5.0, d_max=1, k=4), build_silencing(4, 1))
        assert rep.per_user[2].rate < 1e-7

    def test_silenced_users_zero_and_unique_decodes(self):
        cfg = NetworkConfig(alpha=0.5, p=10.0, d_max=2, k=20)
        rep = run_rx_conferencing(cfg, build_silencing(20, 2))
        pattern = build_silencing(20, 2)
        seen = set()
        for u in rep.per_user:
            assert u.user not in seen
            seen.add(u.user)
            if u.user in pattern.silenced:
                assert u.kind == "silenced" and u.rate == 0.0
            else:
                assert u.kind in ("fast", "slow") and u.rate > 0
        assert seen == set(range(1, 21))

    def test_round_causality_and_budget(self):
        cfg = NetworkConfig(alpha=0.5, p=10.0, d_max=3, k=16)
        rep = run_rx_conferencing(cfg, build_silencing(16, 3))
        decode_round = {u.user: u.decode_round for u in rep.per_user}
        for m in rep.conf_log:
            assert 1 <= m.round <= cfg.d_max
            assert decode_round[m.subject] < m.round
        # every user decoded after round 1 has an enabling message arriving
        # exactly at its decode round
        incoming = {}
        for m in rep.conf_log:
            incoming.setdefault(m.to_node, set()).add(m.round)
        for u in rep.per_user:
            if u.decode_round > 0 and u.kind != "silenced":
                if u.kind == "fast" or u.kind == "slow":
                    # forward users decode themselves; backward users are
                    # decoded at their right neighbour
                    ok = u.decode_round in incoming.get(u.user, set()) or (
                        u.decode_round in incoming.get(u.user + 1, set())
                    )
                    assert ok

    def test_fast_users_decode_before_conferencing(self):
        cfg = NetworkConfig(alpha=0.5, p=10.0, d_max=2, k=12)
        rep = run_rx_conferencing(cfg, build_silencing(12, 2))
        for u in rep.per_user:
            if u.kind == "fast":
                assert u.decode_round == 0

    def test_determinism(self):
        a = run_rx_conferencing(self.cfg, build_silencing(4, 1))
        b = run_rx_conferencing(self.cfg, build_silencing(4, 1))
        assert a == b


class TestTxConferencing:
    def setup_method(self):
        self.cfg = NetworkConfig(alpha=0.2, p=5.0, d_max=1, k=4)
        self.report = run_tx_conferencing(self.cfg, build_silencing(4, 1))

    def test_rates_and_kinds(self):
        got = [(u.kind, u.rate) for u in self.report.per_user]
        assert got[0] == ("slow", pytest.approx(HALF_LOG2_6, abs=1e-12))
        assert got[1] == ("fast", pytest.approx(TX_DPC, abs=1e-12))
        assert got[2] == ("relay", 0.0)
        assert got[3] == ("slow", pytest.approx(TX_CROSS, abs=1e-12))

    def test_quantizer_rate_on_every_message(self):
        q = 0.5 * math.log2(1 + 5.0)
        for m in self.report.conf_log:
            assert m.payload_kind == "quantization_index"
            assert m.payload_rate == pytest.approx(q, abs=1e-12)

    def test_rounds_within_budget(self):
        cfg = NetworkConfig(alpha=0.5, p=100.0, d_max=4, k=30)
        rep = run_tx_conferencing(cfg, build_silencing(30, 4))
        assert max(m.round for m in rep.conf_log) <= 4

    def test_high_power_prelog_one_per_active_carrier(self):
        cfg = NetworkConfig(alpha=0.5, p=1e8, d_max=2, k=6)
        rep = run_tx_conferencing(cfg, build_silencing(6, 2))
        norm = 0.5 * math.log2(1 + 1e8)
        for u in rep.per_user:
            if u.kind in ("fast", "slow") and u.user != 4:
                assert u.rate / norm > 0.8


class TestMuxGainMeasurement:
    def test_corner_point_estimates(self):
        cfg = NetworkConfig(alpha=0.5, p=1e6, d_max=10, k=22)
        pattern = build_silencing(22, 10)
        est, rows = measure_mux_gains(cfg, pattern, [1e2, 1e4, 1e6], mode="rx")
        assert est.s_fast == pytest.approx(1 / 22, abs=0.02)
        assert est.s_slow == pytest.approx(20 / 22, abs=0.02)
        # convergence is monotone over the ladder
        assert rows[0].s_slow_est <= rows[1].s_slow_est <= rows[2].s_slow_est

    def test_d1_corner(self):
        cfg = NetworkConfig(alpha=0.5, p=1e6, d_max=1, k=4)
        est, _ = measure_mux_gains(cfg, build_silencing(4, 1), [1e2, 1e4, 1e6], mode="rx")
        assert est.s_fast == pytest.approx(0.25, abs=0.02)
        assert est.s_slow == pytest.approx(0.5, abs=0.02)

    def test_modes_agree(self):
        for d in (1, 3, 7, 12):
            k = 2 * d + 2
            cfg = NetworkConfig(alpha=0.5, p=1e6, d_max=d, k=k)
            pattern = build_silencing(k, d)
            rx, _ = measure_mux_gains(cfg, pattern, [1e2, 1e4, 1e6], mode="rx")
            tx, _ = measure_mux_gains(cfg, pattern, [1e2, 1e4, 1e6], mode="tx")
            assert rx.s_fast == pytest.approx(tx.s_fast, abs=0.02)
            assert rx.s_slow == pytest.approx(tx.s_slow, abs=0.02)

    def test_ladder_validation(self):
        cfg = NetworkConfig(alpha=0.5, p=1e6, d_max=1, k=4)
        with pytest.raises(ValueError):
            measure_mux_gains(cfg, build_silencing(4, 1), [1e2, 1e4])
        with pytest.raises(ValueError):
            measure_mux_gains(cfg, build_silencing(4, 1), [1e4, 1e2, 1e6])
        for ladder in ([1.0, 10.0, 100.0], [0.5, 10.0, 100.0], [10.0, 100.0, math.nan]):
            with pytest.raises(ValueError, match="p_ladder"):
                measure_mux_gains(cfg, build_silencing(4, 1), ladder)

    def test_rejects_unknown_mode(self):
        cfg = NetworkConfig(alpha=0.5, p=1e6, d_max=1, k=4)
        for mode in ("bogus", "RX", ""):
            with pytest.raises(ValueError, match="mode"):
                measure_mux_gains(cfg, build_silencing(4, 1), [1e2, 1e4, 1e6], mode=mode)

    def test_subnet_sum_prelog(self):
        for d in (2, 5, 10):
            k = 2 * d + 2
            cfg = NetworkConfig(alpha=0.5, p=1e6, d_max=d, k=k)
            est, _ = measure_mux_gains(cfg, build_silencing(k, d), [1e2, 1e4, 1e6], mode="rx")
            assert est.s_fast + est.s_slow == pytest.approx((2 * d + 1) / (2 * d + 2), abs=0.02)


class TestEventLog:
    def test_one_record_per_decode_and_message(self):
        cfg = NetworkConfig(alpha=0.2, p=5.0, d_max=1, k=8)
        pattern = build_silencing(8, 1)
        rep = run_rx_conferencing(cfg, pattern)
        rows = event_log_rows(rep, pattern)
        decodes = [r for r in rows if r[2] == "decode"]
        confs = [r for r in rows if r[2] == "conference"]
        assert len(decodes) == 6      # 3 active users per subnet
        assert len(confs) == len(rep.conf_log)
        rounds = [r[3] for r in rows]
        assert rounds == sorted(rounds)
        for r in rows:
            assert r[0] in (0, 1)  # subnet index

    def test_rejects_report_of_a_larger_network(self):
        cfg = NetworkConfig(alpha=0.2, p=5.0, d_max=1, k=12)
        rep = run_rx_conferencing(cfg, build_silencing(12, 1))
        with pytest.raises(ValueError, match="outside the silencing pattern"):
            event_log_rows(rep, build_silencing(8, 1))


class TestConferencingLoad:
    def test_network_average_near_mu_max(self):
        cfg = NetworkConfig(alpha=0.5, p=1e6, d_max=10, k=22)
        rep = run_rx_conferencing(cfg, build_silencing(22, 10))
        per_link_max, net_avg = conferencing_load(rep, 1e6)
        assert net_avg == pytest.approx(10 / 22, abs=0.02)
        assert per_link_max == pytest.approx(1.0, abs=0.01)

    def test_empty_log(self):
        rep = _report_of((), 0.0, 0.0, ())
        assert conferencing_load(rep, 100.0) == (0.0, 0.0)

    def test_each_direction_of_a_link_loads_apart(self):
        users = [UserRate(c, "slow", 1.0, 0) for c in range(1, 4)]
        msgs = [ConferenceMessage(1, 1, 2, 1.0, "quantization_index", 1),
                ConferenceMessage(1, 2, 1, 2.0, "quantization_index", 2),
                ConferenceMessage(2, 1, 2, 0.5, "quantization_index", 1)]
        half_log_p = 0.5 * math.log2(100.0)
        assert conferencing_load(_report_of(users, 0.0, 0.0, msgs), 100.0) == (2.0 / half_log_p, 3.5 / (4 * half_log_p))

    # a hop to itself, past a neighbour, and to a cell below 1 (np.add.at would wrap its index)
    @pytest.mark.parametrize("frm,to", [(2, 2), (2, 4), (1, 0)])
    def test_rejects_a_hop_other_than_to_a_neighbouring_cell(self, frm, to):
        users = [UserRate(c, "slow", 1.0, 0) for c in range(1, 5)]
        msgs = [ConferenceMessage(1, 2, 3, 1.0, "quantization_index", 2),
                ConferenceMessage(1, frm, to, 1.0, "quantization_index", frm)]
        with pytest.raises(ValueError, match="neighbour"):
            conferencing_load(_report_of(users, 0.0, 0.0, msgs), 100.0)

    def test_phase_rotation_equalises_interior_links(self):
        cfg = NetworkConfig(alpha=0.5, p=1e6, d_max=2, k=36)
        per_link_max, net_avg = phase_rotated_load(cfg, 36, 2)
        # interior equalisation: the rotated maximum sits at the edge surplus,
        # bounded by twice the schedule prelog, far below the unrotated 1.0
        assert per_link_max < 0.95
        assert net_avg < 2 / 6 + 0.02

    def test_phase_rotation_rejects_unknown_mode(self):
        cfg = NetworkConfig(alpha=0.5, p=1e6, d_max=2, k=36)
        assert phase_rotated_load(cfg, 36, 2, mode="tx") != phase_rotated_load(cfg, 36, 2, mode="rx")
        for mode in ("bogus", "TX", ""):
            with pytest.raises(ValueError, match="mode"):
                phase_rotated_load(cfg, 36, 2, mode=mode)


class TestConfigFitsPattern:
    """The simulator's entry points take k and d_max from the pattern (or
    their own arguments) and reject a config that says otherwise."""

    PATTERN = build_silencing(22, 10)

    @pytest.mark.parametrize("field,value", [("k", 100), ("k", math.inf), ("d_max", 3)])
    @pytest.mark.parametrize("run", [run_rx_conferencing, run_tx_conferencing])
    def test_runs_reject_a_mismatch(self, run, field, value):
        cfg = NetworkConfig(alpha=0.5, p=1e6, k=22, d_max=10).replace(**{field: value})
        with pytest.raises(ValueError, match=f"^{field} of the config"):
            run(cfg, self.PATTERN)

    @pytest.mark.parametrize("field,value", [("k", 100), ("d_max", 3)])
    def test_measure_mux_gains_rejects_a_mismatch(self, field, value):
        cfg = NetworkConfig(alpha=0.5, p=1e6, k=22, d_max=10).replace(**{field: value})
        with pytest.raises(ValueError, match=f"^{field} of the config"):
            measure_mux_gains(cfg, self.PATTERN, [1e2, 1e4, 1e6])

    @pytest.mark.parametrize("field,value", [("k", 100), ("d_max", 3)])
    def test_phase_rotated_load_rejects_a_mismatch(self, field, value):
        cfg = NetworkConfig(alpha=0.5, p=1e6, k=36, d_max=2).replace(**{field: value})
        with pytest.raises(ValueError, match=f"^{field} of the config"):
            phase_rotated_load(cfg, 36, 2)


# --------------------------------------------------------------------------
# Reference: the per-subnet record loops the columnar simulator replaced
# --------------------------------------------------------------------------

def _columns(record, records):
    """The Columns of a sequence of records."""
    records = list(records)
    return Columns(record, {f: np.array([getattr(r, f) for r in records]) for f in record._fields})


def _report_of(users, avg_fast, avg_slow, msgs):
    """A RateReport of UserRate and ConferenceMessage records."""
    return RateReport(_columns(UserRate, users), avg_fast, avg_slow, _columns(ConferenceMessage, msgs))


def _ref_rx_subnet(sub, d_max, r_fwd, r_bwd):
    users, msgs = [], []
    m = sub.active_count
    f = min(m, d_max + 1)
    base = sub.first
    for pos in range(1, f + 1):
        kind = "fast" if pos == 1 else "slow"
        users.append(UserRate(base + pos - 1, kind, r_fwd, decode_round=pos - 1))
    for pos in range(f + 1, m + 1):
        users.append(UserRate(base + pos - 1, "slow", r_bwd, decode_round=m - pos))
    users.append(UserRate(sub.silenced_cell, "silenced", 0.0, decode_round=0))
    for pos in range(1, f):
        msgs.append(ConferenceMessage(pos, base + pos - 1, base + pos, r_fwd,
                                      "decoded_message_estimate", base + pos - 1))
    for pos in range(m, f, -1):
        msgs.append(ConferenceMessage(m + 1 - pos, base + pos, base + pos - 1, r_bwd,
                                      "decoded_message_estimate", base + pos - 1))
    return users, msgs


def _ref_tx_subnet(sub, d_max, p, alpha):
    q_rate = 0.5 * math.log2(1 + p)
    d_q = p * 2.0 ** (-2 * q_rate)
    a2 = alpha * alpha
    r_first = 0.5 * math.log2(1 + p)
    r_dpc = 0.5 * math.log2(1 + p / (1 + a2 * d_q))
    r_bwd = 0.5 * math.log2(1 + a2 * p / (1 + a2 * d_q))
    users, msgs = [], []
    m = sub.active_count
    f = min(m, d_max + 1)
    base = sub.first
    for pos in range(1, f + 1):
        rate = r_first if pos == 1 else r_dpc
        kind = "fast" if pos == f and f >= 1 else "slow"
        users.append(UserRate(base + pos - 1, kind, rate, decode_round=0))
    if m > f:
        users.append(UserRate(base + f, "relay", 0.0, decode_round=0))
        for pos in range(f + 2, m + 1):
            users.append(UserRate(base + pos - 1, "slow", r_bwd, decode_round=0))
        users.append(UserRate(sub.silenced_cell, "slow", r_bwd, decode_round=0))
    else:
        users.append(UserRate(sub.silenced_cell, "silenced", 0.0, decode_round=0))
    for pos in range(1, f):
        msgs.append(ConferenceMessage(pos, base + pos - 1, base + pos, q_rate,
                                      "quantization_index", base + pos - 1))
    for pos in range(m + 1, f + 1, -1):
        msgs.append(ConferenceMessage(m + 2 - pos, base + pos - 1, base + pos - 2, q_rate,
                                      "quantization_index", base + pos - 1))
    return users, msgs


def _added_in_turn(values):
    """The values added left to right, one at a time: Python 3.11's sum does
    this too, but 3.12's compensates for rounding."""
    total = 0.0
    for v in values:
        total += v
    return total


def _ref_run(cfg, pattern, mode):
    users, msgs = [], []
    for sub in pattern.subnets:
        if mode == "rx":
            u, m = _ref_rx_subnet(sub, pattern.d_max, 0.5 * math.log2(1 + cfg.p),
                                  0.5 * math.log2(1 + cfg.alpha * cfg.alpha * cfg.p))
        else:
            u, m = _ref_tx_subnet(sub, pattern.d_max, cfg.p, cfg.alpha)
        users.extend(u)
        msgs.extend(m)
    users.sort(key=lambda ur: ur.user)
    avg_fast = _added_in_turn(u.rate for u in users if u.kind == "fast") / pattern.k
    avg_slow = _added_in_turn(u.rate for u in users if u.kind == "slow") / pattern.k
    return tuple(users), avg_fast, avg_slow, tuple(msgs)


def _ref_load(msgs, k, p, scale=1):
    half_log_p = 0.5 * math.log2(p)
    per_dir, total = {}, 0.0
    for msg in msgs:
        key = (msg.from_node, msg.to_node)
        per_dir[key] = per_dir.get(key, 0.0) + msg.payload_rate / scale
        total += msg.payload_rate / scale
    return max(per_dir.values(), default=0.0) / half_log_p, total / (max(k - 1, 1) * 2 * half_log_p)


def _ref_event_rows(users, msgs, pattern):
    subnet_of = {}
    for i, sub in enumerate(pattern.subnets):
        for cell in range(sub.first, sub.silenced_cell + 1):
            subnet_of[cell] = i
    rows = []
    for u in users:
        if u.kind in ("fast", "slow"):
            rows.append((subnet_of[u.user], u.user, "decode", u.decode_round, u.rate, "", ""))
    for m in msgs:
        rows.append((subnet_of[m.from_node], m.subject, "conference", m.round, m.payload_rate,
                     m.from_node, m.to_node))
    rows.sort(key=lambda r: (r[3], r[2], r[1]))
    return rows


def _ref_convergence(cfg, pattern, ladder, mode):
    rows, prev_fast, prev_slow, prev_norm = [], 0.0, 0.0, 0.0
    for p in ladder:
        _, avg_fast, avg_slow, msgs = _ref_run(cfg.replace(p=float(p)), pattern, mode)
        norm = 0.5 * math.log2(1 + p)
        max_pl, avg_pl = _ref_load(msgs, pattern.k, p)
        rows.append(ConvergenceRow(float(p), (avg_fast - prev_fast) / (norm - prev_norm),
                                   (avg_slow - prev_slow) / (norm - prev_norm), avg_pl, max_pl))
        prev_fast, prev_slow, prev_norm = avg_fast, avg_slow, norm
    return rows


def _configs():
    """(cfg, pattern) pairs: every offset for d_max 1..3, then seeded draws with
    d_max 1..12, k = one period or with a trailing partial subnet."""
    rng = random.Random(2024)
    shapes = [(d, off) for d in (1, 2, 3) for off in range(2 * d + 2)]
    shapes += [(d, rng.randrange(2 * d + 2)) for d in range(1, 13)]
    out = []
    for i, (d, off) in enumerate(shapes):
        period = 2 * d + 2
        k = period if i % 3 == 0 else period * rng.randint(1, 6) + rng.randrange(period)
        alpha = rng.uniform(0.05, 0.95) * rng.choice((-1, 1))
        p = 10 ** rng.uniform(-1, 6)
        out.append((NetworkConfig(alpha=alpha, p=p, d_max=d, k=k), build_silencing(k, d, offset=off)))
    # subnet sizes [2, 5, 5, 2]: the leading and trailing partial subnets share
    # a template, both carry messages, and a run of full subnets lies between
    out.append((NetworkConfig(alpha=-0.3, p=50.0, d_max=2, k=18), build_silencing(18, 2, offset=3)))
    return out


CONFIGS = _configs()


class TestColumnarMatchesRecordLoop:
    @pytest.mark.parametrize("mode", ["rx", "tx"])
    def test_reports_loads_and_events(self, mode):
        run = run_rx_conferencing if mode == "rx" else run_tx_conferencing
        assert len(CONFIGS) >= 30
        seen_sizes = set()
        for cfg, pattern in CONFIGS:
            seen_sizes |= {s.active_count for s in pattern.subnets}
            users, avg_fast, avg_slow, msgs = _ref_run(cfg, pattern, mode)
            rep = run(cfg, pattern)
            assert list(rep.per_user) == list(users)
            assert list(rep.conf_log) == list(msgs)
            assert [rep.per_user[i] for i in range(len(users))] == list(users)
            assert (rep.avg_fast, rep.avg_slow) == (avg_fast, avg_slow)
            assert conferencing_load(rep, cfg.p) == _ref_load(msgs, len(users), cfg.p)
            assert list(event_log_rows(rep, pattern)) == _ref_event_rows(users, msgs, pattern)
        # leading and trailing partial subnets down to no active cell at all
        assert {0, 1} <= seen_sizes

    @pytest.mark.parametrize("mode", ["rx", "tx"])
    def test_phase_rotated_load(self, mode):
        for cfg, pattern in CONFIGS[::3]:
            k, d = pattern.k, pattern.d_max
            msgs = [m for off in range(2 * d + 2)
                    for m in _ref_run(cfg, build_silencing(k, d, offset=off), mode)[3]]
            assert phase_rotated_load(cfg, k, d, mode=mode) == _ref_load(msgs, k, cfg.p, scale=2 * d + 2)

    @pytest.mark.parametrize("mode", ["rx", "tx"])
    def test_convergence_rows(self, mode):
        for cfg, pattern in CONFIGS[::2]:
            ladder = [1.5, 1e2, 1e4, 1e6]
            _, rows = measure_mux_gains(cfg, pattern, ladder, mode=mode)
            assert rows == _ref_convergence(cfg, pattern, ladder, mode)

    def test_records_hold_python_scalars(self):
        cfg, pattern = CONFIGS[5]
        rep = run_tx_conferencing(cfg, pattern)
        u, m = rep.per_user[-1], rep.conf_log[0]
        assert [type(v) for v in (u.user, u.kind, u.rate, u.decode_round)] == [int, str, float, int]
        assert [type(v) for v in (m.round, m.from_node, m.payload_rate, m.payload_kind)] == [int, int, float, str]
        row = event_log_rows(rep, pattern)[0]
        assert type(row) is tuple and [type(v) for v in row[:5]] == [int, int, str, int, float]


class TestRateReportColumns:
    def test_len_builds_no_record(self):
        rep = run_rx_conferencing(NetworkConfig(alpha=0.5, p=10.0, d_max=2, k=20), build_silencing(20, 2))

        def refuse(*args):
            raise AssertionError("built a record")

        rep.per_user.record = rep.conf_log.record = refuse
        assert (len(rep.per_user), len(rep.conf_log)) == (20, 12)

    def test_equality_with_records_and_reports(self):
        cfg, pattern = CONFIGS[7]
        rep = run_rx_conferencing(cfg, pattern)
        users, avg_fast, avg_slow, msgs = _ref_run(cfg, pattern, "rx")
        from_records = _report_of(users, avg_fast, avg_slow, msgs)
        assert rep == from_records
        assert rep.per_user == users and users == rep.per_user
        assert rep != run_rx_conferencing(cfg.replace(p=cfg.p * 2), pattern)
        assert rep.per_user != rep.per_user[:-1]
        assert conferencing_load(from_records, cfg.p) == conferencing_load(rep, cfg.p)


class TestSharedLayout:
    """One layout per (pattern, mode), evaluated at every ladder power, gives
    bit for bit what a run per power of the record loop gives."""

    @pytest.mark.parametrize("mode", ["rx", "tx"])
    def test_every_power_on_one_layout(self, mode):
        rng = random.Random(88)
        for cfg, pattern in CONFIGS:
            layout = conf_sim._layout(pattern, mode)
            ladder = sorted({10 ** rng.uniform(0.1, 8) for _ in range(rng.randint(3, 6))})
            for p in ladder:
                users, avg_fast, avg_slow, msgs = _ref_run(cfg.replace(p=p), pattern, mode)
                rep = conf_sim._report(layout, cfg.replace(p=p))
                assert rep == _report_of(users, avg_fast, avg_slow, msgs)
                assert (rep.avg_fast, rep.avg_slow) == (avg_fast, avg_slow)
                assert conferencing_load(rep, p) == _ref_load(msgs, len(users), p)
            top = cfg.replace(p=ladder[-1])
            want = _ref_convergence(cfg, pattern, ladder, mode)
            # the simulate command's path: _convergence also hands back the top power's report
            _, rows, top_report = conf_sim._convergence(layout, cfg, ladder)
            assert rows == want and top_report == conf_sim._report(layout, top)
            assert measure_mux_gains(cfg, pattern, ladder, mode)[1] == want


def _event_shapes():
    """(d_max, offset, k) of seeded patterns: every leading and trailing partial subnet with 0, 1
    or 2 active cells at d_max 1 and 2, then draws with d_max 1..8, any offset and a trailing rest."""
    rng = random.Random(25)
    shapes = [(d, off, off + 2 * (2 * d + 2) + tail) for d in (1, 2) for off in (0, 1, 2, 3) for tail in (0, 1, 2, 3)]
    for _ in range(30):
        d = rng.randint(1, 8)
        period = 2 * d + 2
        off = rng.randrange(period)
        shapes.append((d, off, max(period, off + rng.randint(0, 5) * period + rng.randrange(period))))
    return shapes


class TestEventOrder:
    """The event log, built in its order from the templates with no sort, against the record
    loop's log sorted by (round, event kind, user)."""

    @pytest.mark.parametrize("mode", ["rx", "tx"])
    def test_template_order_matches_the_sorted_record_log(self, mode):
        run = run_rx_conferencing if mode == "rx" else run_tx_conferencing
        edge_sizes = set()
        for d_max, offset, k in _event_shapes():
            pattern = build_silencing(k, d_max, offset)
            sizes = [s.active_count for s in pattern.subnets]
            edge_sizes |= {("lead", sizes[0]), ("trail", sizes[-1])}
            cfg = NetworkConfig(alpha=-0.4, p=30.0, d_max=d_max, k=k)
            users, _, _, msgs = _ref_run(cfg, pattern, mode)
            assert list(event_log_rows(run(cfg, pattern), pattern)) == _ref_event_rows(users, msgs, pattern)
        assert {(edge, size) for edge in ("lead", "trail") for size in (0, 1)} <= edge_sizes

    @pytest.mark.parametrize("mode", ["rx", "tx"])
    @pytest.mark.parametrize("d_max", [1, (conf_sim._MAX_K - 2) // 2])
    def test_template_order_matches_lexsort_at_the_largest_k(self, mode, d_max):
        """At k = _MAX_K, with the most subnets (d_max = 1) and with one subnet, which has the most
        events and the latest rounds, the log's columns are those of a stable np.lexsort on
        (round, is_decode, user) of the decodes, then the messages, as the report lists them."""
        k = conf_sim._MAX_K
        pattern = build_silencing(k, d_max)
        cfg = NetworkConfig(alpha=0.5, p=1e3, d_max=d_max, k=k)
        rep = (run_rx_conferencing if mode == "rx" else run_tx_conferencing)(cfg, pattern)
        users, log = rep.per_user.cols, rep.conf_log.cols
        kind = np.asarray(users["kind"])
        dec = (kind == "fast") | (kind == "slow")
        n_dec = int(np.count_nonzero(dec))
        none = np.full(n_dec, -1)
        cat = {name: np.concatenate(pair) for name, pair in {
            "cell": (users["user"][dec], log["from_node"]), "user": (users["user"][dec], log["subject"]),
            "round": (users["decode_round"][dec], log["round"]), "from": (none, log["from_node"]),
            "to": (none, log["to_node"]),
            "rate": (np.asarray(users["rate"])[dec], np.asarray(log["payload_rate"]))}.items()}
        is_decode = np.arange(len(cat["round"])) < n_dec
        order = np.lexsort((cat["user"], is_decode, cat["round"]))
        sub = pattern.subnets.cols
        subnet_of = np.repeat(np.arange(len(pattern.subnets)), sub["silenced_cell"] - sub["first"] + 1)
        got = event_log_rows(rep, pattern).cols
        assert np.array_equal(got["subnet"], subnet_of[cat["cell"] - 1][order])
        for name in ("user", "round"):
            assert np.array_equal(got[name], cat[name][order])
        for name in ("from", "to"):
            assert np.array_equal(got[name].codes, cat[name][order])
        assert np.array_equal(got["event_kind"].codes, is_decode[order])
        assert np.array_equal(np.asarray(got["rate_bits"]), cat["rate"][order])

    def test_refuses_a_report_that_is_not_a_run_on_the_pattern(self):
        """A report of the same k and d_max with another offset, or with a record changed, does
        not fit the pattern; a report built from the simulator's records does, and gives its log."""
        pattern = build_silencing(12, 1)
        rep = run_rx_conferencing(NetworkConfig(alpha=0.2, p=5.0, d_max=1, k=12), pattern)
        users, msgs = list(rep.per_user), list(rep.conf_log)
        assert list(event_log_rows(_report_of(users, 0.0, 0.0, msgs), pattern)) == list(event_log_rows(rep, pattern))
        shifted = run_rx_conferencing(NetworkConfig(alpha=0.2, p=5.0, d_max=1, k=12), build_silencing(12, 1, 2))
        changed = [(users, 1, "decode_round", 3), (msgs, 1, "round", 4), (msgs, 0, "subject", 3),
                   (msgs, 0, "payload_rate", 0.5), (users, 3, "kind", "fast"), (msgs, 2, "payload_kind", "other")]
        reports = [shifted]
        for records, i, field, value in changed:
            edited = [r.replace(**{field: value}) if j == i else r for j, r in enumerate(records)]
            reports.append(_report_of(*((edited, 0.0, 0.0, msgs) if records is users else (users, 0.0, 0.0, edited))))
        for report in reports:
            with pytest.raises(ValueError, match="outside the silencing pattern"):
                event_log_rows(report, pattern)


def _ref_csv(header, columns):
    """The writer's text with every cell formatted on its own: floats through
    _fmt, masked cells as "", everything else through str."""
    cols = [np.asanyarray(c) for c in columns]
    cells = [["" if masked else _fmt(v) if isinstance(v, float) else str(v)
              for v, masked in zip(np.ma.getdata(c).tolist(), np.ma.getmaskarray(c).tolist())] for c in cols]
    return "\n".join([",".join(header), *map(",".join, zip(*cells))]) + "\n"


def _masked(values, mask):
    return np.ma.masked_array(np.array(values, dtype=np.int64), mask)


# the writer's domain: integers >= 0 with an unmasked cell, floats of any sign (the
# "negative" case), and unmasked ASCII strings; masks fall on numeric columns only
CSV_COLUMNS = {
    "negative": [np.array([5, 3, 5, 0, 12]), np.array([0.5, -0.0, 0.5, 1e-300, -2.5]), ["a", "b", "a", "", "c"]],
    "empty": [np.zeros(0), []],
    "single": [np.array([7]), np.array([1 / 3]), np.ma.masked_array([0.5], [True])],
    "masked": [np.array([4, 9, 4]), _masked([0, 2, 11], [True, False, False]), _masked([3, 0, 0], [False, True, True]),
               np.array(["decode", "conference", "decode"], dtype=object)],
    "no unmasked float": [np.array([5, 6]), np.ma.masked_array([1.5, 2.0], [True, True])],
}

# columns no caller makes, which the writer refuses
REFUSED_COLUMNS = {
    "negative int": np.array([3, -1, 2]),
    "non-ASCII string": np.array(["a", "\u00e9", "b"]),
    "masked string": np.ma.masked_array(["a", "b", "c"], [False, True, False]),
    "no unmasked int": _masked([1, 2, 3], [True, True, True]),
}


# each integer column draws its own window, so the columns of one call differ
# in digit count, and the one digit table of the call spans them all; digit
# counts change at the powers of ten, and 999999 is the widest
INT_WINDOWS = st.tuples(st.sampled_from([0, 9, 10, 99, 100, 9_999, 10_000, 99_999, 999_999]),
                        st.sampled_from([0, 3, 200, 20_000]))
SPECIAL_FLOATS = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 1e300, -1e300, 1e-300, -1e-300,
                  5e-324, -5e-324, 2.2250738585072014e-308 / 3, 0.1, -2.5, 1 / 3]
ASCII = st.text(st.characters(min_codepoint=1, max_codepoint=127), max_size=5)


def _int_pool(window):
    center, half = window
    return st.integers(max(center - half, 0), min(center + half, 999_999))


def _drawn_csv(data, i):
    """A header and equal-length columns: cells drawn from a small pool per column,
    integers from a window per column, strings as a fixed-width or an object array,
    a numeric column masked or not (an integer column keeps one unmasked cell).  The
    first file also holds two integer columns and a string column."""
    pools = {"float": st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats()), "str": ASCII, "object": ASCII}
    n = data.draw(st.sampled_from([1, 3, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 5]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    columns = []
    kinds = data.draw(st.lists(st.sampled_from(["float", "int", "object", "str"]), min_size=1, max_size=5))
    for kind in kinds + (["int", "int", "str"] if i == 0 else []):
        cells = _int_pool(data.draw(INT_WINDOWS)) if kind == "int" else pools[kind]
        pool = data.draw(st.lists(cells, min_size=1, max_size=6))
        col = np.array(pool, dtype=object if kind == "object" else None)[rng.integers(len(pool), size=n)]
        if kind in ("float", "int") and data.draw(st.booleans()):
            mask = rng.random(n) < 0.3
            if kind == "int":
                mask[rng.integers(n)] = False
            col = np.ma.masked_array(col, mask)
        columns.append(col)
    return [f"f{i}c{j}" for j in range(len(columns))], columns


class TestCsvText:
    @pytest.mark.parametrize("name", sorted(CSV_COLUMNS))
    def test_matches_per_cell_formatting(self, tmp_path, name):
        columns = CSV_COLUMNS[name]
        header = [f"c{i}" for i in range(len(columns))]
        _write_csvs([(str(tmp_path / "t.csv"), header, columns)])
        assert (tmp_path / "t.csv").read_text() == _ref_csv(header, columns)

    def test_each_block_gets_its_own_rows(self, tmp_path):
        """Every kind of column over three writer blocks, no two blocks alike (the
        periods 3 and 5 do not divide the block size), compared line by line."""
        rows = np.arange(2 * _BLOCK_ROWS + 5)
        assert _BLOCK_ROWS % 3 and _BLOCK_ROWS % 5
        columns = [np.array(["a", "bc", ""])[rows % 3], np.ma.masked_array(rows + 9, rows % 5 == 0), -rows / 7,
                   np.array(["xyz", "x"])[rows % 3 // 2]]
        header = [f"c{i}" for i in range(len(columns))]
        _write_csvs([(str(tmp_path / "t.csv"), header, columns)])
        assert (tmp_path / "t.csv").read_text().splitlines() == _ref_csv(header, columns).splitlines()

    def test_files_sharing_one_table_match_files_written_alone(self, tmp_path):
        files = [(str(tmp_path / f"{name}.csv"), [f"c{i}" for i in range(len(cols))], cols)
                 for name, cols in CSV_COLUMNS.items()]
        _write_csvs(files)
        for path, header, columns in files:
            with open(path) as fh:
                assert fh.read() == _ref_csv(header, columns)

    @pytest.mark.parametrize("name", sorted(REFUSED_COLUMNS))
    def test_refuses_before_opening_any_output(self, tmp_path, monkeypatch, name):
        """A column in the second file is refused before the first file is opened."""
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        first.write_bytes(b"old bytes\n")
        opened = []
        monkeypatch.setattr(cli, "open", lambda *args, **kwargs: opened.append(args), raising=False)
        files = [(str(first), ["n"], [np.arange(3)]), (str(second), ["n", "x"], [np.arange(3), REFUSED_COLUMNS[name]])]
        with pytest.raises(ValueError, match="column must"):
            _write_csvs(files)
        assert opened == [] and first.read_bytes() == b"old bytes\n" and not second.exists()

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_matches_per_cell_formatting_on_drawn_columns(self, tmp_path_factory, data):
        """Files of int, float and ASCII string columns, any numeric one masked, at
        row counts on either side of the writer's block size, written in one call."""
        tmp = tmp_path_factory.mktemp("csv")
        files = [(str(tmp / f"{i}.csv"), *_drawn_csv(data, i)) for i in range(data.draw(st.integers(1, 2)))]
        _write_csvs(files)
        for path, header, columns in files:
            with open(path, "rb") as fh:
                assert fh.read() == _ref_csv(header, columns).encode()


def _max_link_bits(report):
    per_dir = {}
    for m in report.conf_log:
        per_dir[m.from_node, m.to_node] = per_dir.get((m.from_node, m.to_node), 0.0) + m.payload_rate
    return max(per_dir.values(), default=0.0)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    d_max=st.integers(1, 6),
    extra=st.integers(0, 40),
    alpha=st.floats(0.02, 0.98).flatmap(lambda a: st.sampled_from([a, -a])),
    log_p=st.floats(-2, 6),
    mode=st.sampled_from(["rx", "tx"]),
)
def test_simulated_sum_rate_within_finite_k_outer_sum_bound(d_max, extra, alpha, log_p, mode):
    """A silencing run is achievable, so its per-cell fast plus slow rate lies
    under the finite-k outer sum bound with pi set to its largest link load."""
    k = 2 * d_max + 2 + extra
    cfg = NetworkConfig(alpha=alpha, p=10 ** log_p, k=k, d_max=d_max)
    rep = (run_rx_conferencing if mode == "rx" else run_tx_conferencing)(cfg, build_silencing(k, d_max))
    cap = outer_constraints(cfg.replace(pi=_max_link_bits(rep))).sum_cap
    assert rep.avg_fast + rep.avg_slow <= cap
