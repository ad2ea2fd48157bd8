"""Round-based simulator of the silencing conferencing schemes.

Silencing every (2*d_max+2)-th transmitter splits the chain into subnets of
2*d_max+1 active transmitters plus the silenced cell's receiver, and no
signal crosses a subnet boundary.  Within a subnet:

receiver conferencing
    The first receiver is interference free and decodes a fast message at the
    full point-to-point rate.  Its estimate hops right, letting each next
    receiver cancel the left neighbour and decode a slow message at the full
    rate (forward chain, cells 1..d_max+1).  The silenced cell's receiver
    hears only the last active transmitter through the cross link and starts
    a leftward hop of slow messages at the cross-link rate (backward chain).

transmitter conferencing
    Transmitters quantise their inputs at rate 0.5*log2(1+P) and pass the
    quantisation index along, so each next transmitter can dirty-paper
    against the (residually noisy) interference estimate.  The forward chain
    carries slow messages and one fast message on its last cell; on the
    backward path each message is handed to the left-neighbour transmitter,
    which sends it over the cross link to the intended receiver.  The first
    backward transmitter is a pure relay (its own message is dropped) and the
    pattern-silenced cell's message is the one delivered over the cross link.

Rates are accounted analytically per decode step (the schemes' SNR algebra),
not bit-simulated; forwarded estimates are taken as correct.  Everything is
deterministic.

A subnet's schedule depends only on its number of active cells, so each run of
equal-size subnets (at most three: a leading partial one, the full ones, a
trailing partial one) gets one integer template, tiled over the run with numpy
and kept by the pattern per mode.  A ladder power is a 3- or 4-entry rate-slot
table and running sums added left to right in log order.  Reports hold Columns
Coded on the layout's codes; the event log is built in order, with no sort.
"""
from __future__ import annotations

import functools
import math
import numbers

import numpy as np

from .model import Coded, Columns, MuxPair, NetworkConfig, Record, _check_d_max, validate_config

__all__ = [
    "Subnet",
    "SilencingPattern",
    "ConferenceMessage",
    "UserRate",
    "RateReport",
    "ConvergenceRow",
    "build_silencing",
    "run_rx_conferencing",
    "run_tx_conferencing",
    "measure_mux_gains",
    "validate_p_ladder",
    "conferencing_load",
    "phase_rotated_load",
    "event_log_rows",
]

_USER_KINDS, _EVENT_KINDS = ("fast", "slow", "silenced", "relay"), ("conference", "decode")
_PAYLOAD_KIND = {"rx": "decoded_message_estimate", "tx": "quantization_index"}
_FAST, _SLOW, _SILENCED, _RELAY = range(4)
_MAX_K = 200_000  # a run holds about 1 KB per cell: this caps one near 200 MB
_USER_CELLS, _MSG_CELLS = (np.array(c, np.int32) for c in ([1, 0, 0, 0], [0, 1, 1, 0, 1, 2]))  # first cell moves these


class Subnet(Record):
    """Cells first..silenced_cell, of which first..last_active transmit."""

    first: int
    last_active: int
    silenced_cell: int

    @property
    def active_count(self) -> int:
        return self.last_active - self.first + 1


class SilencingPattern(Record):
    """The silenced cells of k, and the subnets they end as Columns of Subnet records
    (first, last_active, silenced_cell), in cell order."""

    k: int
    d_max: int
    silenced: frozenset[int]
    subnets: Columns

    _layouts = functools.cached_property(lambda self: {})  # _layout's per mode, tiled on first use


class ConferenceMessage(Record):
    round: int
    from_node: int
    to_node: int
    payload_rate: float
    payload_kind: str  # decoded_message_estimate | quantization_index
    subject: int       # the user whose message content is carried


class UserRate(Record):
    user: int
    kind: str  # fast | slow | silenced | relay
    rate: float
    decode_round: int


class RateReport(Record):
    """Per-user rates in user order, their per-cell averages, and the conference log,
    as Columns of UserRate and ConferenceMessage records."""

    per_user: Columns
    avg_fast: float
    avg_slow: float
    conf_log: Columns


def build_silencing(k: int, d_max: int, offset: int = 0) -> SilencingPattern:
    """Silence the cells congruent to offset modulo the period 2*d_max+2 (the
    period's multiples when offset is 0), listed ascending; each ends a subnet,
    and the pattern holds the subnets as Columns, so a Subnet is built only when read.

    A nonzero offset leaves a leading partial subnet, isolated by the edge; a
    trailing partial one silences its last transmitter as well, which
    preserves the isolation invariant at a vanishing rate cost.  Requires
    d_max >= 1 and 2*d_max+2 <= k <= _MAX_K.
    """
    _check_d_max(d_max)
    if isinstance(k, bool) or not isinstance(k, numbers.Integral):
        raise ValueError(f"k must be an integer, got {k!r}")
    if k > _MAX_K:
        raise ValueError(f"k must be at most {_MAX_K}")
    period = 2 * d_max + 2
    if k < period:
        raise ValueError(f"K too small: need at least {period} cells for d_max={d_max}")
    if not 0 <= offset < period:
        raise ValueError("offset must lie in [0, 2*d_max+2)")

    silenced = np.arange(offset or period, k + 1, period)
    if silenced[-1] < k:
        silenced = np.append(silenced, k)  # trailing partial subnet loses its last transmitter
    first = np.concatenate([[1], silenced[:-1] + 1])
    subnets = Columns(Subnet, {"first": first, "last_active": silenced - 1, "silenced_cell": silenced})
    return SilencingPattern(k=k, d_max=d_max, silenced=frozenset(silenced.tolist()), subnets=subnets)


def _rx_template(m: int, d_max: int):
    """User and message rows of an rx subnet with m active cells; slots index (r_fwd, r_bwd, 0)."""
    f = min(m, d_max + 1)
    users = [(pos - 1, _FAST if pos == 1 else _SLOW, 0, pos - 1) for pos in range(1, f + 1)]
    users += [(pos - 1, _SLOW, 1, m - pos) for pos in range(f + 1, m + 1)]
    users.append((m, _SILENCED, 2, 0))
    # forward hops: the estimate of cell j unlocks cell j+1 in round j
    msgs = [(pos, pos - 1, pos, 0, pos - 1) for pos in range(1, f)]
    # backward hops: cell q's message, decoded at receiver q+1 (the silenced
    # cell for q=m), is delivered leftward in round m+1-q
    msgs += [(m + 1 - pos, pos, pos - 1, 1, pos - 1) for pos in range(m, f, -1)]
    return users, msgs


def _tx_template(m: int, d_max: int):
    """User and message rows of a tx subnet with m active cells; slots index
    (r_first, r_dpc, r_bwd, 0), and every message carries the quantiser rate,
    which equals r_first."""
    f = min(m, d_max + 1)
    users = [(pos - 1, _FAST if pos == f else _SLOW, 0 if pos == 1 else 1, 0) for pos in range(1, f + 1)]
    if m > f:
        users.append((f, _RELAY, 3, 0))
        users += [(pos - 1, _SLOW, 2, 0) for pos in range(f + 2, m + 1)]
        users.append((m, _SLOW, 2, 0))
    else:
        users.append((m, _SILENCED, 3, 0))
    # forward quantisation hops, round j on link (j, j+1)
    msgs = [(pos, pos - 1, pos, 0, pos - 1) for pos in range(1, f)]
    # backward quantisation hops: cell q's codeword moves to transmitter q-1
    # in round m+2-q (q = m+1 is the silenced cell, round 1)
    msgs += [(m + 2 - pos, pos - 1, pos - 2, 0, pos - 1) for pos in range(m + 1, f + 1, -1)]
    return users, msgs


def _tiled(runs: list[tuple[np.ndarray, np.ndarray]], shifted: np.ndarray) -> np.ndarray:
    """Each run's template (a row per field) repeated per subnet of the run, run after run, each field moved
    by shifted times the subnet's first cell; read-only, reports share it; int32, half the pages of int64."""
    tiles = [np.tile(t, len(f)) + shifted[:, None] * np.repeat(f.astype(np.int32), t.shape[1]) for t, f in runs]
    out = tiles[0] if len(tiles) == 1 else np.hstack(tiles)
    out.flags.writeable = False
    return out


def _running_sum(x: np.ndarray) -> float:
    """x[0] + x[1] + ... left to right, cumulated in x itself; np.sum adds pairwise, 3.12's sum compensates."""
    return float(np.cumsum(x, out=x)[-1]) if len(x) else 0.0


class _Layout(Record, eq=False):
    """A mode's run on a pattern at any power: users' (cell, kind, rate slot, round) arrays in cell order, messages'
    (round, from, to, rate slot, subject) arrays and link directions, fast and slow users' rate slots, and runs."""

    mode: str
    k: int
    users: np.ndarray
    msgs: np.ndarray
    direction: np.ndarray
    fast_slot: np.ndarray
    slow_slot: np.ndarray
    runs: tuple


def _slot_rates(mode: str, cfg: NetworkConfig) -> tuple[float, ...]:
    """The rate of each slot of a mode's template at cfg: rx (r_fwd, r_bwd, 0),
    tx (q_rate = r_first, r_dpc, r_bwd, 0)."""
    p, a2 = cfg.p, cfg.alpha * cfg.alpha
    r_full = 0.5 * math.log2(1 + p)
    if mode == "rx":
        return r_full, 0.5 * math.log2(1 + a2 * p), 0.0
    d_q = p * 2.0 ** (-2 * r_full)          # = p / (1 + p), Gaussian quantiser
    r_dpc = 0.5 * math.log2(1 + p / (1 + a2 * d_q))
    return r_full, r_dpc, 0.5 * math.log2(1 + a2 * p / (1 + a2 * d_q)), 0.0


def _template(mode: str, m: int, d_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A mode's templates of an m-active-cell subnet, a row per field: users, messages and their link
    directions, and the events (see _events), each fast or slow user's decode, then each message."""
    users, msgs = (_rx_template if mode == "rx" else _tx_template)(m, d_max)
    u, msg = (np.array(rows, dtype=np.int32).reshape(len(rows), width).T for rows, width in ((users, 4), (msgs, 5)))
    dec = u[1] <= _SLOW
    none = np.full(np.count_nonzero(dec), -1)
    events = np.hstack([np.stack([u[0][dec], none + 2, u[3][dec], u[2][dec], none, none]),
                        np.stack([msg[4], 0 * msg[0], msg[0], msg[3], msg[1], msg[2]])])
    return u, np.vstack([msg, 2 * np.minimum(msg[1], msg[2]) + (msg[2] < msg[1])]), events


def _layout(pattern: SilencingPattern, mode: str) -> _Layout:
    """A mode's ("rx" or "tx") template tiled over each run of equal-size subnets, once per pattern and mode."""
    if mode not in ("rx", "tx"):
        raise ValueError(f"mode must be 'rx' or 'tx', got {mode!r}")
    if mode not in pattern._layouts:
        first = pattern.subnets.cols["first"]
        size = pattern.subnets.cols["last_active"] - first + 1
        bounds = [0, *(np.flatnonzero(np.diff(size)) + 1).tolist(), len(size)]  # the runs of one size
        runs = tuple((*_template(mode, int(size[a]), pattern.d_max), first[a:b]) for a, b in zip(bounds, bounds[1:]))
        users, msgs = (_tiled([(run[i], run[3]) for run in runs], by) for i, by in enumerate((_USER_CELLS, _MSG_CELLS)))
        kind, slot, direction = users[1], users[2], msgs[5].astype(np.intp)  # np.bincount's index type
        pattern._layouts[mode] = _Layout(mode, pattern.k, users, msgs[:5], direction, slot[kind == _FAST],
                                         slot[kind == _SLOW], runs)
    return pattern._layouts[mode]


def _rates(layout: _Layout, cfg: NetworkConfig) -> tuple[tuple[float, ...], float, float]:
    """A layout's slot table at cfg, and its per-cell averages of the fast and of the slow rates."""
    table = _slot_rates(layout.mode, cfg)
    return table, *(_running_sum(np.array(table)[slot]) / layout.k for slot in (layout.fast_slot, layout.slow_slot))


def _report(layout: _Layout, cfg: NetworkConfig, rated: tuple | None = None) -> RateReport:
    """The rate report of a layout at cfg, or with rated, _rates' result; kinds and rates are Coded."""
    table, avg_fast, avg_slow = rated or _rates(layout, cfg)
    (user, kind, slot, rnd), (m_rnd, frm, to, m_slot, subject) = layout.users, layout.msgs
    per_user = Columns(UserRate, {"user": user, "kind": Coded(kind, _USER_KINDS), "rate": Coded(slot, table),
                                  "decode_round": rnd})
    conf_log = Columns(ConferenceMessage, {
        "round": m_rnd, "from_node": frm, "to_node": to, "payload_rate": Coded(m_slot, table),
        "payload_kind": Coded(np.broadcast_to(0, len(m_rnd)), (_PAYLOAD_KIND[layout.mode],)), "subject": subject})
    return RateReport(per_user, avg_fast, avg_slow, conf_log)


def _check_fits(cfg: NetworkConfig, k: int, d_max: int) -> None:
    """Raise ValueError naming k or d_max where cfg's differs from the pattern's."""
    for name, value in (("k", k), ("d_max", d_max)):
        if getattr(cfg, name) != value:
            raise ValueError(f"{name} of the config is {getattr(cfg, name)!r} but the pattern's is {value!r}")


def run_rx_conferencing(cfg: NetworkConfig, pattern: SilencingPattern) -> RateReport:
    """Analytic rate report of the receiver-conferencing silencing scheme."""
    validate_config(cfg)
    _check_fits(cfg, pattern.k, pattern.d_max)
    return _report(_layout(pattern, "rx"), cfg)


def run_tx_conferencing(cfg: NetworkConfig, pattern: SilencingPattern) -> RateReport:
    """Analytic rate report of the transmitter-conferencing silencing scheme.

    Dirty-paper steps cancel the quantised interference estimate exactly, up
    to the quantiser distortion d_q = P * 2^(-2 q_rate) = P/(1+P), which adds
    alpha^2 * d_q to the noise floor of the affected decodes.
    """
    validate_config(cfg)
    _check_fits(cfg, pattern.k, pattern.d_max)
    return _report(_layout(pattern, "tx"), cfg)


def _directions(frm: np.ndarray, to: np.ndarray) -> np.ndarray:
    """Link-direction index 2*min(from, to) + (to < from) of each message, which must
    hop between neighbouring cells numbered from 1."""
    low = np.minimum(frm, to)
    if np.any(np.abs(frm - to) != 1) or np.any(low < 1):
        raise ValueError("every conference message must hop to a neighbouring cell, cells numbered from 1")
    return 2 * low + (to < frm)


def _link_loads(direction: np.ndarray, payload: np.ndarray, k: int, half_log_p: float) -> tuple[float, float]:
    """(per-link-direction max, average) prelog of a log of messages.

    Payload is summed per direction and in total in log order (which overwrites
    it), then divided by 0.5*log2 P; the average spreads the total over 2*(k-1)
    directions.
    """
    top = total = 0.0
    if len(payload):
        per_dir = np.bincount(direction, payload)  # each direction's payload added in log order
        top, total = float(per_dir.max()), _running_sum(payload)
    return top / half_log_p, total / (max(k - 1, 1) * 2 * half_log_p)


def conferencing_load(report: RateReport, p: float) -> tuple[float, float]:
    """(per-link-direction max prelog, network-average prelog) of a report.

    Prelogs normalise total payload per link direction by 0.5*log2 P, the
    scaling that defines the conferencing prelog.  The average divides the
    total payload over all messages by (links * 2 directions).
    """
    log = report.conf_log.cols
    return _link_loads(_directions(log["from_node"], log["to_node"]), np.array(log["payload_rate"], dtype=float),
                       len(report.per_user), 0.5 * math.log2(p))


def phase_rotated_load(cfg: NetworkConfig, k: int, d_max: int, mode: str = "rx") -> tuple[float, float]:
    """Per-link loads after time sharing the 2*d_max+2 silencing offsets.

    Rotating the pattern offset equalises which links carry full-rate hops:
    every interior link-direction then averages at most d_max/(2*d_max+2)
    prelog.  The first few links keep a surplus (every leading partial subnet
    starts at cell 1), an edge artifact that dilutes as k grows.
    """
    validate_config(cfg)
    _check_fits(cfg, k, d_max)
    period = 2 * d_max + 2
    logs = [_report(_layout(build_silencing(k, d_max, offset=off), mode), cfg).conf_log.cols
            for off in range(period)]
    frm, to, payload = (np.concatenate([log[n] for log in logs]) for n in ("from_node", "to_node", "payload_rate"))
    return _link_loads(_directions(frm, to), payload / period, k, 0.5 * math.log2(cfg.p))


def _row(*fields):
    return fields


def _events(layout: _Layout) -> tuple[np.ndarray, ...]:
    """A layout's events (subnet, user, kind, round, rate slot, from, to), kind 0 a conference, 1 a decode (from,
    to -1), by round, kind, then user: the templates' events, sorted once by (round, kind, run, user), give each
    (round, kind, run) block a row per event and subnet of the run.  Subnets own increasing cells and no subject
    has two events in one round, so the log comes out sorted."""
    ev = np.hstack([events for _, _, events, _ in layout.runs])
    run = np.repeat(np.arange(len(layout.runs)), [events.shape[1] for _, _, events, _ in layout.runs])
    order = np.lexsort((ev[0], run, ev[1], ev[2]))  # stable: ties keep decodes first, then log order
    ev, run = ev[:, order].astype(np.int32), run[order]
    lead = np.flatnonzero(np.r_[True, np.any(np.diff([ev[2], ev[1], run]) != 0, axis=0)])  # each block's first
    n_sub = np.array([len(firsts) for *_, firsts in layout.runs])
    size = np.diff(np.r_[lead, len(run)]) * n_sub[run[lead]]  # a block's rows: its events times its run's subnets

    def per_row(x, dtype=np.int32):  # each block's x on each of its rows
        return np.repeat(np.asarray(x, dtype), size)
    e = np.arange(int(size.sum()), dtype=np.int32) - per_row(np.cumsum(size) - size)  # the row within its block
    width = per_row(np.diff(np.r_[lead, len(run)]))
    subnet = e // width  # within the run
    e += per_row(lead) - subnet * width  # the sorted template event
    subnet += per_row((np.cumsum(n_sub) - n_sub)[run[lead]])
    first = np.concatenate([firsts for *_, firsts in layout.runs]).astype(np.int32).take(subnet)
    kind = per_row(ev[1, lead], np.int8)
    user, frm, to = (ev[f].take(e) for f in (0, 4, 5))
    user += first
    first *= 1 - kind  # a message's from and to move with its subnet
    frm += first
    to += first
    return subnet, user, kind, per_row(ev[2, lead]), ev[3].astype(np.int8).take(e), frm, to


def event_log_rows(report: RateReport, pattern: SilencingPattern) -> Columns:
    """Flatten a report into (subnet, user, event_kind, round, rate_bits, from, to) event records:
    one per decode and one per conference message, ordered by round, then event kind ("conference"
    before "decode"), then user, ties kept in log order.  Records are plain tuples; from and to are
    "" for a decode (code -1: kinds, rates, from and to are Coded).  The report must be a simulator's
    on the pattern, in the mode its first message's payload kind names; any other raises ValueError.
    The log is built in its order from the pattern's templates, with no sort (see _events).
    """
    users, log = report.per_user.cols, report.conf_log.cols
    layout = _layout(pattern, "tx" if log["payload_kind"][:1].tolist() == [_PAYLOAD_KIND["tx"]] else "rx")
    slot, m_slot = layout.users[2], layout.msgs[3]
    table = getattr(users["rate"], "labels", None)  # a simulator's: its rate slots compare, not its rates
    if table is None and len(users["rate"]) == len(slot) and len(log["payload_rate"]) == len(m_slot):
        found = np.zeros(4)
        found[slot], found[m_slot] = users["rate"], log["payload_rate"]
        table = tuple(found.tolist())
    want = table is not None and _report(layout, None, (table, 0.0, 0.0))
    if not want or report.per_user != want.per_user or report.conf_log != want.conf_log:
        raise ValueError(f"report has cells, rounds or rates outside the silencing pattern (k={pattern.k})")
    subnet, user, kind, rnd, e_slot, frm, to = _events(layout)
    cells = range(pattern.k + 1)
    return Columns(_row, {"subnet": subnet, "user": user, "event_kind": Coded(kind, _EVENT_KINDS), "round": rnd,
                          "rate_bits": Coded(e_slot, table), "from": Coded(frm, cells), "to": Coded(to, cells)})


class ConvergenceRow(Record):
    p: float
    s_fast_est: float
    s_slow_est: float
    avg_link_prelog: float
    max_link_prelog: float


def validate_p_ladder(p_ladder: list[float]) -> None:
    """Raise ValueError naming p_ladder unless it has >= 3 increasing finite powers > 1."""
    if len(p_ladder) < 3:
        raise ValueError("p_ladder needs at least 3 points")
    if any(b <= a for a, b in zip(p_ladder, p_ladder[1:])):
        raise ValueError("p_ladder must be strictly increasing")
    if not all(1 < p < math.inf for p in p_ladder):
        raise ValueError("p_ladder values must be finite and greater than 1")


def measure_mux_gains(
    cfg_base: NetworkConfig,
    pattern: SilencingPattern,
    p_ladder: list[float],
    mode: str = "rx",
) -> tuple[MuxPair, list[ConvergenceRow]]:
    """Estimate the per-user multiplexing gains over an increasing power ladder.

    Row 0 holds the plain ratio rate / (0.5*log2(1+P)), the secant slope from
    the origin; later rows hold the secant slope between consecutive ladder
    powers, which strips the power-independent offsets of the cross-link rates
    and converges orders of magnitude faster.  The estimate is the final row's
    value.
    """
    validate_p_ladder(p_ladder)
    _check_fits(cfg_base, pattern.k, pattern.d_max)
    return _convergence(_layout(pattern, mode), cfg_base, p_ladder)[:2]


def _convergence(layout: _Layout, cfg_base: NetworkConfig,
                 p_ladder: list[float]) -> tuple[MuxPair, list[ConvergenceRow], RateReport]:
    """measure_mux_gains on a layout of the pattern, which serves every ladder power, and the top
    power's report."""
    rows: list[ConvergenceRow] = []
    prev_fast = prev_slow = prev_norm = 0.0
    for p in p_ladder:
        rated = table, avg_fast, avg_slow = _rates(layout, validate_config(cfg_base.replace(p=float(p))))
        norm = 0.5 * math.log2(1 + p)
        max_pl, avg_pl = _link_loads(layout.direction, np.array(table)[layout.msgs[3]], layout.k, 0.5 * math.log2(p))
        s_fast = (avg_fast - prev_fast) / (norm - prev_norm)
        s_slow = (avg_slow - prev_slow) / (norm - prev_norm)
        rows.append(ConvergenceRow(float(p), s_fast, s_slow, avg_pl, max_pl))
        prev_fast, prev_slow, prev_norm = avg_fast, avg_slow, norm

    last = rows[-1]
    est = MuxPair(min(max(last.s_fast_est, 0.0), 1.0), min(max(last.s_slow_est, 0.0), 1.0))
    return est, rows, _report(layout, cfg_base, rated)
