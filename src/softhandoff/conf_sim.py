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
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .model import MuxPair, NetworkConfig, validate_config

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


@dataclass(frozen=True)
class Subnet:
    """Cells first..silenced_cell, of which first..last_active transmit."""

    first: int
    last_active: int
    silenced_cell: int

    @property
    def active_count(self) -> int:
        return max(0, self.last_active - self.first + 1)


@dataclass(frozen=True)
class SilencingPattern:
    k: int
    d_max: int
    silenced: frozenset[int]
    subnets: tuple[Subnet, ...]


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
    per_user: tuple[UserRate, ...]
    avg_fast: float
    avg_slow: float
    conf_log: tuple[ConferenceMessage, ...]


def build_silencing(k: int, d_max: int, offset: int = 0) -> SilencingPattern:
    """Silence every (2*d_max+2)-th transmitter (counting from 1+offset).

    A trailing partial subnet silences its last transmitter as well, which
    preserves the isolation invariant at a vanishing rate cost.  Requires
    k >= 2*d_max+2.
    """
    period = 2 * d_max + 2
    if k < period:
        raise ValueError(f"K too small: need at least {period} cells for d_max={d_max}")
    if not 0 <= offset < period:
        raise ValueError("offset must lie in [0, 2*d_max+2)")

    # cells congruent to the offset modulo the period (multiples by default);
    # a nonzero offset creates a leading partial subnet, isolated by the edge
    silenced = {c for c in range(1, k + 1) if c % period == offset % period}
    if not silenced or max(silenced) < k:
        silenced.add(k)  # trailing partial subnet loses its last transmitter

    subnets = []
    first = 1
    for cell in sorted(silenced):
        subnets.append(Subnet(first=first, last_active=cell - 1, silenced_cell=cell))
        first = cell + 1
    return SilencingPattern(k=k, d_max=d_max, silenced=frozenset(silenced), subnets=tuple(subnets))


def _rx_subnet(sub: Subnet, d_max: int, r_fwd: float, r_bwd: float):
    """Per-user rates and conference schedule of one rx-conferencing subnet."""
    users: list[UserRate] = []
    msgs: list[ConferenceMessage] = []
    m = sub.active_count
    f = min(m, d_max + 1)
    base = sub.first
    for pos in range(1, f + 1):
        kind = "fast" if pos == 1 else "slow"
        users.append(UserRate(base + pos - 1, kind, r_fwd, decode_round=pos - 1))
    for pos in range(f + 1, m + 1):
        users.append(UserRate(base + pos - 1, "slow", r_bwd, decode_round=m - pos))
    users.append(UserRate(sub.silenced_cell, "silenced", 0.0, decode_round=0))

    # forward hops: the estimate of cell j unlocks cell j+1 in round j
    for pos in range(1, f):
        msgs.append(
            ConferenceMessage(
                round=pos,
                from_node=base + pos - 1,
                to_node=base + pos,
                payload_rate=r_fwd,
                payload_kind="decoded_message_estimate",
                subject=base + pos - 1,
            )
        )
    # backward hops: cell q's message, decoded at receiver q+1, is delivered
    # leftward in round m+1-q
    for pos in range(m, f, -1):
        msgs.append(
            ConferenceMessage(
                round=m + 1 - pos,
                from_node=base + pos,      # receiver q+1 (silenced cell for q=m)
                to_node=base + pos - 1,
                payload_rate=r_bwd,
                payload_kind="decoded_message_estimate",
                subject=base + pos - 1,
            )
        )
    return users, msgs


def run_rx_conferencing(cfg: NetworkConfig, pattern: SilencingPattern) -> RateReport:
    """Analytic rate report of the receiver-conferencing silencing scheme."""
    validate_config(cfg)
    p, a = cfg.p, cfg.alpha
    r_fwd = 0.5 * math.log2(1 + p)
    r_bwd = 0.5 * math.log2(1 + a * a * p)
    users: list[UserRate] = []
    msgs: list[ConferenceMessage] = []
    for sub in pattern.subnets:
        u, m = _rx_subnet(sub, pattern.d_max, r_fwd, r_bwd)
        users.extend(u)
        msgs.extend(m)
    users.sort(key=lambda ur: ur.user)
    avg_fast = sum(u.rate for u in users if u.kind == "fast") / pattern.k
    avg_slow = sum(u.rate for u in users if u.kind == "slow") / pattern.k
    return RateReport(tuple(users), avg_fast, avg_slow, tuple(msgs))


def _tx_subnet(sub: Subnet, d_max: int, p: float, alpha: float):
    """Per-user rates and conference schedule of one tx-conferencing subnet."""
    q_rate = 0.5 * math.log2(1 + p)
    d_q = p * 2.0 ** (-2 * q_rate)          # = p / (1 + p), Gaussian quantiser
    a2 = alpha * alpha
    r_first = 0.5 * math.log2(1 + p)
    r_dpc = 0.5 * math.log2(1 + p / (1 + a2 * d_q))
    r_bwd = 0.5 * math.log2(1 + a2 * p / (1 + a2 * d_q))

    users: list[UserRate] = []
    msgs: list[ConferenceMessage] = []
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

    # forward quantisation hops, round j on link (j, j+1)
    for pos in range(1, f):
        msgs.append(
            ConferenceMessage(
                round=pos,
                from_node=base + pos - 1,
                to_node=base + pos,
                payload_rate=q_rate,
                payload_kind="quantization_index",
                subject=base + pos - 1,
            )
        )
    # backward quantisation hops: cell q's codeword moves to transmitter q-1
    # in round m+2-q (q = m+1 is the silenced cell, round 1)
    for pos in range(m + 1, f + 1, -1):
        msgs.append(
            ConferenceMessage(
                round=m + 2 - pos,
                from_node=base + pos - 1,
                to_node=base + pos - 2,
                payload_rate=q_rate,
                payload_kind="quantization_index",
                subject=base + pos - 1,
            )
        )
    return users, msgs


def run_tx_conferencing(cfg: NetworkConfig, pattern: SilencingPattern) -> RateReport:
    """Analytic rate report of the transmitter-conferencing silencing scheme.

    Dirty-paper steps cancel the quantised interference estimate exactly, up
    to the quantiser distortion d_q = P * 2^(-2 q_rate) = P/(1+P), which adds
    alpha^2 * d_q to the noise floor of the affected decodes.
    """
    validate_config(cfg)
    users: list[UserRate] = []
    msgs: list[ConferenceMessage] = []
    for sub in pattern.subnets:
        u, m = _tx_subnet(sub, pattern.d_max, cfg.p, cfg.alpha)
        users.extend(u)
        msgs.extend(m)
    users.sort(key=lambda ur: ur.user)
    avg_fast = sum(u.rate for u in users if u.kind == "fast") / pattern.k
    avg_slow = sum(u.rate for u in users if u.kind == "slow") / pattern.k
    return RateReport(tuple(users), avg_fast, avg_slow, tuple(msgs))


def conferencing_load(report: RateReport, p: float) -> tuple[float, float]:
    """(per-link-direction max prelog, network-average prelog) of a report.

    Prelogs normalise total payload per link direction by 0.5*log2 P, the
    scaling that defines the conferencing prelog.  The average divides the
    total payload over all messages by (links * 2 directions).
    """
    half_log_p = 0.5 * math.log2(p)
    k = len(report.per_user)
    links = max(k - 1, 1)
    per_dir: dict[tuple[int, int], float] = {}
    total = 0.0
    for msg in report.conf_log:
        per_dir[(msg.from_node, msg.to_node)] = (
            per_dir.get((msg.from_node, msg.to_node), 0.0) + msg.payload_rate
        )
        total += msg.payload_rate
    per_link_max = max(per_dir.values(), default=0.0) / half_log_p
    network_avg = total / (links * 2 * half_log_p)
    return per_link_max, network_avg


def phase_rotated_load(cfg: NetworkConfig, k: int, d_max: int, mode: str = "rx") -> tuple[float, float]:
    """Per-link loads after time sharing the 2*d_max+2 silencing offsets.

    Rotating the pattern offset equalises which links carry full-rate hops:
    every interior link-direction then averages at most d_max/(2*d_max+2)
    prelog.  The first few links keep a surplus (every leading partial subnet
    starts at cell 1), an edge artifact that dilutes as k grows.
    """
    period = 2 * d_max + 2
    run = run_rx_conferencing if mode == "rx" else run_tx_conferencing
    per_dir: dict[tuple[int, int], float] = {}
    total = 0.0
    for off in range(period):
        rep = run(cfg, build_silencing(k, d_max, offset=off))
        for msg in rep.conf_log:
            key = (msg.from_node, msg.to_node)
            per_dir[key] = per_dir.get(key, 0.0) + msg.payload_rate / period
            total += msg.payload_rate / period
    half_log_p = 0.5 * math.log2(cfg.p)
    per_link_max = max(per_dir.values(), default=0.0) / half_log_p
    network_avg = total / (max(k - 1, 1) * 2 * half_log_p)
    return per_link_max, network_avg


def event_log_rows(report: RateReport, pattern: SilencingPattern) -> list[tuple]:
    """Flatten a report into (subnet, user, event_kind, round, rate_bits,
    from, to) event records: one per decode and one per conference message,
    ordered by round."""
    subnet_of = {}
    for i, sub in enumerate(pattern.subnets):
        for cell in range(sub.first, sub.silenced_cell + 1):
            subnet_of[cell] = i
    rows: list[tuple] = []
    for u in report.per_user:
        if u.kind in ("fast", "slow"):
            rows.append((subnet_of[u.user], u.user, "decode", u.decode_round, u.rate, "", ""))
    for m in report.conf_log:
        rows.append(
            (subnet_of[m.from_node], m.subject, "conference", m.round, m.payload_rate,
             m.from_node, m.to_node)
        )
    rows.sort(key=lambda r: (r[3], r[2], r[1]))
    return rows


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
    top_report: RateReport | None = None,
) -> tuple[MuxPair, list[ConvergenceRow]]:
    """Estimate the per-user multiplexing gains over an increasing power ladder.

    Row 0 holds the plain ratio rate / (0.5*log2(1+P)), the secant slope from
    the origin; later rows hold the secant slope between consecutive ladder
    powers, which strips the power-independent offsets of the cross-link rates
    and converges orders of magnitude faster.  The estimate is the final row's
    value.  A caller that has already simulated cfg_base at p_ladder[-1] passes
    that report as top_report, and the top power is not simulated again.
    """
    validate_p_ladder(p_ladder)
    run = run_rx_conferencing if mode == "rx" else run_tx_conferencing

    rows: list[ConvergenceRow] = []
    prev_fast = prev_slow = prev_norm = 0.0
    for i, p in enumerate(p_ladder):
        reuse = top_report is not None and i == len(p_ladder) - 1
        rep = top_report if reuse else run(replace(cfg_base, p=float(p)), pattern)
        norm = 0.5 * math.log2(1 + p)
        max_pl, avg_pl = conferencing_load(rep, p)
        s_fast = (rep.avg_fast - prev_fast) / (norm - prev_norm)
        s_slow = (rep.avg_slow - prev_slow) / (norm - prev_norm)
        rows.append(ConvergenceRow(float(p), s_fast, s_slow, avg_pl, max_pl))
        prev_fast, prev_slow, prev_norm = rep.avg_fast, rep.avg_slow, norm

    last = rows[-1]
    est = MuxPair(min(max(last.s_fast_est, 0.0), 1.0), min(max(last.s_slow_est, 0.0), 1.0))
    return est, rows
