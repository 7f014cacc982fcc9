"""Closed-form success-rate calculators and parameter sweeps.

SRTR (success rate of transaction releasing): probability that at least
one of r independently drawn routes of h hops contains no dishonest
node, with each hop dishonest independently with probability d:

    SRTR = 1 - (1 - (1-d)^h)^r

SRD (success rate of deanonymization): probability that an attacker
running a fraction f of protocol-correct observer nodes reconstructs at
least one full route.  A single route reconstructs when its first and
last hops are observer nodes and no two consecutive interior hops are
non-observers, so the releasing-to-client chain can be stitched across
single-hop gaps.

Both formulas use the infinite-population approximation (per-hop
independence); with thousands of nodes the finite-pool correction is
below two-decimal reporting precision.

Closed forms, Monte Carlo estimators and the full SimWorld all read one
parameter point, a simulator.SimConfig: d is its dishonest_rate, f its
fake_rate, h its hops and r its num_routes.  The arithmetic is generic:
passing fractions.Fraction rates yields exact rational results.
"""

import io

from .errors import InvalidConfig
from .simulator import SimConfig, estimate_srd, estimate_srtr
from .wire_protocol import check_release_delay

CSV_COLUMNS = ("d", "f", "h", "r", "srtr_cf", "srd_cf",
               "srtr_mc", "srtr_se", "srd_mc", "srd_se")


def srtr_closed_form(cfg: SimConfig):
    """Probability that at least one route releases."""
    route_ok = (1 - cfg.dishonest_rate) ** cfg.hops
    return 1 - (1 - route_ok) ** cfg.num_routes


def chain_coverage_prob(f, m: int):
    """Probability that m independent hops (observer with probability f)
    contain no two consecutive non-observers.

    Recurrence on the first hop: either it is an observer, or it is not
    and the next one must be.
    """
    if m < 0:
        raise ValueError("hop count must be non-negative")
    a_prev2, a_prev1 = 1, 1  # m = 0, 1
    for _ in range(2, m + 1):
        a_prev2, a_prev1 = a_prev1, f * a_prev1 + (1 - f) * f * a_prev2
    return a_prev1 if m >= 1 else a_prev2


def srd_closed_form(cfg: SimConfig):
    """Probability that at least one route reconstructs end to end."""
    f = cfg.fake_rate
    if cfg.hops == 1:
        route_q = f  # single hop is both starting and releasing node
    else:
        route_q = f * f * chain_coverage_prob(f, cfg.hops - 2)
    return 1 - (1 - route_q) ** cfg.num_routes


def mixing_stats(delay_blocks: int, tx_per_block: int) -> int:
    """Expected number of unrelated transactions mixed in while a
    release waits out its delay."""
    check_release_delay(delay_blocks)
    return delay_blocks * tx_per_block


def _fmt(value) -> str:
    return f"{float(value):.6g}"


def sweep(grid: list[SimConfig]) -> str:
    """CSV table of closed-form and Monte Carlo rates (each config's
    trials, seed and n_nodes) for every grid point, in grid order."""
    out = io.StringIO()
    out.write(",".join(CSV_COLUMNS) + "\n")
    for cfg in grid:
        srtr_mc = estimate_srtr(cfg)
        srd_mc = estimate_srd(cfg)
        row = [_fmt(cfg.dishonest_rate), _fmt(cfg.fake_rate), str(cfg.hops),
               str(cfg.num_routes), _fmt(srtr_closed_form(cfg)),
               _fmt(srd_closed_form(cfg)),
               _fmt(srtr_mc), _fmt(standard_error(srtr_mc, cfg.trials)),
               _fmt(srd_mc), _fmt(standard_error(srd_mc, cfg.trials))]
        out.write(",".join(row) + "\n")
    return out.getvalue()


def standard_error(rate: float, trials: int) -> float:
    """Binomial standard error of a Monte Carlo rate estimate."""
    if trials < 1:
        raise InvalidConfig("trials must be at least 1")
    return (rate * (1 - rate) / trials) ** 0.5
