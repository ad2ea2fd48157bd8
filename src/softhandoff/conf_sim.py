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

A silencing pattern holds its subnets as Columns of first, last active and
silenced cell, built with numpy.  A subnet's schedule depends only on its
number of active cells.  Each run of equal-size subnets (at most three: a
leading partial one for a nonzero offset, the full ones, a trailing partial
one), found with one np.diff, gets one integer template, rows per user
(cell, kind, rate slot, round) and per message (round, from, to, rate slot,
subject) in cell order, cells counted from the subnet's first, tiled over
the run with numpy.  Runs are tiled in subnet order, so the layout lists
users in cell order and messages subnet by subnet.  Each message hops to a
neighbour; its link direction is 2*min(from, to) + (to < from).  The layout
also keeps what no power changes: the users' kind labels and the rate slots
of the fast and the slow users.  Each ladder power is then a 3- or 4-entry
slot lookup on the layout and two running sums.  A RateReport keeps the
result as Columns: per-user and per-message records are built only when
indexed or iterated, and the averages, link loads and event log are
computed on the columns, every sum added left to right in log order.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .model import Columns, MuxPair, NetworkConfig, _check_d_max, validate_config

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

_USER_KINDS = np.array(["fast", "slow", "silenced", "relay"])
_PAYLOAD_KIND = {"rx": "decoded_message_estimate", "tx": "quantization_index"}
_FAST, _SLOW, _SILENCED, _RELAY = range(4)
_MAX_K = 200_000  # a run holds about 1 KB per cell: this caps one near 200 MB
_USER_CELLS, _MSG_CELLS = np.array([1, 0, 0, 0]), np.array([0, 1, 1, 0, 1])  # the template fields that are cells


@dataclass(frozen=True)
class Subnet:
    """Cells first..silenced_cell, of which first..last_active transmit."""

    first: int
    last_active: int
    silenced_cell: int

    @property
    def active_count(self) -> int:
        return self.last_active - self.first + 1


@dataclass(frozen=True)
class SilencingPattern:
    """The silenced cells of k, and the subnets they end as Columns of Subnet records
    (first, last_active, silenced_cell), in cell order."""

    k: int
    d_max: int
    silenced: frozenset[int]
    subnets: Columns


@dataclass(frozen=True)
class ConferenceMessage:
    round: int
    from_node: int
    to_node: int
    payload_rate: float
    payload_kind: str  # decoded_message_estimate | quantization_index
    subject: int       # the user whose message content is carried


@dataclass(frozen=True)
class UserRate:
    user: int
    kind: str  # fast | slow | silenced | relay
    rate: float
    decode_round: int


@dataclass(frozen=True)
class RateReport:
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


def _tiled(runs: list[tuple[list[tuple], np.ndarray]], shifted: np.ndarray) -> np.ndarray:
    """Each run's template rows repeated per subnet of the run, run after run, as one array row
    per field; the fields where shifted is 1 (the cells) are moved by the subnet's first cell."""
    out = np.empty((len(shifted), sum(len(rows) * len(firsts) for rows, firsts in runs)), dtype=np.int64)
    at = 0
    for rows, firsts in runs:
        t = np.array(rows, dtype=np.int64).reshape(len(rows), len(shifted)).T
        n = len(rows) * len(firsts)
        np.add(t[:, None, :], shifted[:, None, None] * firsts[:, None],
               out=out[:, at:at + n].reshape(len(t), len(firsts), len(rows)))  # a view: written in place
        at += n
    return out


def _running_sum(x: np.ndarray) -> float:
    """x[0] + x[1] + ... added left to right; np.sum adds pairwise, 3.12's sum compensates."""
    return float(np.cumsum(x)[-1]) if len(x) else 0.0


@dataclass(frozen=True, eq=False)
class _Layout:
    """A mode's run on a pattern at any power: the users' (cell, kind, rate slot, round)
    arrays in cell order, the messages' (round, from, to, rate slot, subject) arrays subnet
    by subnet, each message's link-direction index (see _directions), the users' kind labels
    (read-only), and the rate slots of the fast and of the slow users, in cell order."""

    mode: str
    k: int
    users: np.ndarray
    msgs: np.ndarray
    direction: np.ndarray
    kind_label: np.ndarray
    fast_slot: np.ndarray
    slow_slot: np.ndarray


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


def _layout(pattern: SilencingPattern, mode: str) -> _Layout:
    """Tile a mode's ("rx" or "tx") template over each run of equal-size subnets, in subnet order."""
    if mode not in ("rx", "tx"):
        raise ValueError(f"mode must be 'rx' or 'tx', got {mode!r}")
    template = _rx_template if mode == "rx" else _tx_template
    first = pattern.subnets.cols["first"]
    size = pattern.subnets.cols["last_active"] - first + 1
    bounds = [0, *(np.flatnonzero(np.diff(size)) + 1).tolist(), len(size)]  # the runs of one size
    runs = [(template(int(size[a]), pattern.d_max), first[a:b]) for a, b in zip(bounds, bounds[1:])]
    users = _tiled([(u_rows, firsts) for (u_rows, _), firsts in runs], _USER_CELLS)
    msgs = _tiled([(m_rows, firsts) for (_, m_rows), firsts in runs], _MSG_CELLS)
    kind, slot = users[1], users[2]
    kind_label = _USER_KINDS.take(kind)
    kind_label.flags.writeable = False
    return _Layout(mode, pattern.k, users, msgs, _directions(msgs[1], msgs[2]), kind_label,
                   slot[kind == _FAST], slot[kind == _SLOW])


def _report(layout: _Layout, cfg: NetworkConfig) -> RateReport:
    """The rate report of a layout at cfg: the rates enter through a slot table lookup."""
    table = np.array(_slot_rates(layout.mode, cfg))
    user, _, slot, rnd = layout.users
    m_rnd, frm, to, m_slot, subject = layout.msgs
    avg_fast = _running_sum(table[layout.fast_slot]) / layout.k
    avg_slow = _running_sum(table[layout.slow_slot]) / layout.k
    per_user = Columns(UserRate, {"user": user, "kind": layout.kind_label, "rate": table[slot], "decode_round": rnd})
    conf_log = Columns(ConferenceMessage, {
        "round": m_rnd, "from_node": frm, "to_node": to, "payload_rate": table[m_slot],
        "payload_kind": np.broadcast_to(np.array(_PAYLOAD_KIND[layout.mode]), len(m_rnd)),  # read-only
        "subject": subject,
    })
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

    Payload is summed per direction and in total in log order, then divided
    by 0.5*log2 P; the average spreads the total over 2*(k-1) directions.
    """
    top = total = 0.0
    if len(payload):
        per_dir = np.zeros(direction.max() + 1)
        np.add.at(per_dir, direction, payload)  # unbuffered, in log order
        top, total = float(per_dir.max()), _running_sum(payload)
    return top / half_log_p, total / (max(k - 1, 1) * 2 * half_log_p)


def conferencing_load(report: RateReport, p: float) -> tuple[float, float]:
    """(per-link-direction max prelog, network-average prelog) of a report.

    Prelogs normalise total payload per link direction by 0.5*log2 P, the
    scaling that defines the conferencing prelog.  The average divides the
    total payload over all messages by (links * 2 directions).
    """
    log = report.conf_log.cols
    return _link_loads(_directions(log["from_node"], log["to_node"]), log["payload_rate"],
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


def _event_order(rnd: np.ndarray, user: np.ndarray, n_dec: int) -> np.ndarray:
    """The order of events by round, then conference before decode (the first n_dec events
    are decodes), then user, ties kept in event order: np.lexsort's, from one sort of the
    keys packed in an int64 with the event's position last, wherever they fit in one."""
    n = len(rnd)
    if n and rnd.dtype == user.dtype == np.int64:
        r0, u0 = int(rnd.min()), int(user.min())
        span = int(user.max()) - u0 + 1
        if ((int(rnd.max()) - r0) * 2 + 2) * span * n <= np.iinfo(np.int64).max:
            key = (rnd - r0) * (2 * span * n)
            key += (user - u0) * n
            key[:n_dec] += span * n
            key += np.arange(n)
            key.sort()
            key %= n
            return key
    return np.lexsort((user, np.arange(n) < n_dec, rnd))


def event_log_rows(report: RateReport, pattern: SilencingPattern) -> Columns:
    """Flatten a report into (subnet, user, event_kind, round, rate_bits,
    from, to) event records: one per decode and one per conference message,
    ordered by round, then event kind ("conference" before "decode"), then
    user, ties kept in log order.  Records are plain tuples; from and to are
    "" for a decode, and masked in their columns.
    """
    users, log = report.per_user.cols, report.conf_log.cols
    dec = (users["kind"] == "fast") | (users["kind"] == "slow")
    n_dec = int(np.count_nonzero(dec))
    decoded = users["user"][dec]
    cells = np.concatenate([decoded, log["from_node"]])
    if cells.size and not 1 <= cells.min() <= cells.max() <= pattern.k:
        raise ValueError("report has cells outside the silencing pattern")
    user = np.concatenate([decoded, log["subject"]])
    rnd = np.concatenate([users["decode_round"][dec], log["round"]])
    order = _event_order(rnd, user, n_dec)
    sub = pattern.subnets.cols
    subnet_of = np.repeat(np.arange(len(pattern.subnets)), sub["silenced_cell"] - sub["first"] + 1)  # cells 1..k
    subnet = subnet_of[cells[order].astype(np.intp, copy=False) - 1]
    user, rnd = user[order], rnd[order]
    del decoded, cells, subnet_of  # freed before the columns below are built: a lower peak per command
    rate = np.concatenate([users["rate"][dec], log["payload_rate"]])[order]
    none = np.zeros(n_dec, dtype=np.int64)
    frm, to = (np.concatenate([none, log[name]])[order] for name in ("from_node", "to_node"))
    decode = order < n_dec
    del order, none
    return Columns(_row, {
        "subnet": subnet, "user": user, "event_kind": np.array(["conference", "decode"]).take(decode),
        "round": rnd, "rate_bits": rate,
        "from": np.ma.masked_array(frm, decode), "to": np.ma.masked_array(to, decode),
    })


@dataclass(frozen=True)
class ConvergenceRow:
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
        rep = _report(layout, validate_config(replace(cfg_base, p=float(p))))
        norm = 0.5 * math.log2(1 + p)
        max_pl, avg_pl = _link_loads(layout.direction, rep.conf_log.cols["payload_rate"], layout.k,
                                     0.5 * math.log2(p))
        s_fast = (rep.avg_fast - prev_fast) / (norm - prev_norm)
        s_slow = (rep.avg_slow - prev_slow) / (norm - prev_norm)
        rows.append(ConvergenceRow(float(p), s_fast, s_slow, avg_pl, max_pl))
        prev_fast, prev_slow, prev_norm = rep.avg_fast, rep.avg_slow, norm

    last = rows[-1]
    est = MuxPair(min(max(last.s_fast_est, 0.0), 1.0), min(max(last.s_slow_est, 0.0), 1.0))
    return est, rows, rep
