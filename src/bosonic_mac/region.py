"""Rate regions and squeezing surfaces.

A fixed encoding (one squeezing pair) cuts out a pentagon from the two
individual-rate constraints and the sum-rate constraint; regions are the
convex hull of pentagon vertices over a set of encodings.  Squeezing
surfaces grid the individual rates over squeeze fractions and quadrature
orientations.
"""

import enum
import logging
from dataclasses import dataclass, field
from itertools import repeat

from . import _kernels as kernels
from ._search import golden_section_max
from .gaussian_core import (
    ChannelParams,
    PhotonBudget,
    _require_photons,
    fraction_squeezing,
    require_full_squeeze,
)
from .rates import Receiver, User, _thermal_loss_capacity, outer_bound, receiver_rates

log = logging.getLogger("bosonic_mac")

#: Quadrature orientation layers evaluated by surfaces and optimizers.
#:
#: Sign-product rule: layer (sign_a, sign_b) equals layer
#: (1, sign_a * sign_b) bit for bit, so a sweep computes one layer per
#: sign product and the last two layers mirror the first two.  Flipping
#: both signs is a pi/2 phase rotation of the receiver mode: it swaps V1
#: and V2 and leaves the received photons alone, and the rates read the
#: variances only through V1 + V2, V1 * V2 and |V1 - V2|.  The equality is
#: exact in floating point: 2.0 * (-r) == -(2.0 * r), sinh is odd so
#: sinh(r)**2 keeps its bits, and the sum, product and absolute difference
#: of the two variances are symmetric under the swap.
SIGN_LAYERS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


class Objective(enum.Enum):
    MAX_RA = "max-ra"
    MAX_RB = "max-rb"
    MAX_SUM = "max-sum"


@dataclass(frozen=True, slots=True)
class RatePoint:
    r_a: float
    r_b: float

    def __post_init__(self):
        if self.r_a < 0.0 or self.r_b < 0.0:
            raise ValueError("rates must be >= 0")


@dataclass(frozen=True, slots=True)
class Pentagon:
    """Region cut out by R_A <= r_a_max, R_B <= r_b_max, R_A + R_B <= sum_max."""

    r_a_max: float
    r_b_max: float
    sum_max: float
    vertices: tuple

    @classmethod
    def from_rates(cls, r_a_max: float, r_b_max: float, sum_max: float) -> "Pentagon":
        if sum_max >= r_a_max + r_b_max:
            corners = (
                (0.0, 0.0),
                (r_a_max, 0.0),
                (r_a_max, r_b_max),
                (0.0, r_b_max),
            )
        else:
            corners = (
                (0.0, 0.0),
                (r_a_max, 0.0),
                (r_a_max, max(sum_max - r_a_max, 0.0)),
                (max(sum_max - r_b_max, 0.0), r_b_max),
                (0.0, r_b_max),
            )
        # One vertex per run of equal corners, and none for a last corner
        # that closes the chain on the first.
        vertices = []
        last = None
        for corner in corners:
            if corner != last:
                vertices.append(RatePoint(*corner))
                last = corner
        if len(vertices) > 1 and last == corners[0]:
            vertices.pop()
        return cls(r_a_max, r_b_max, sum_max, tuple(vertices))

    def contains(self, point: RatePoint, tol: float = 1e-12) -> bool:
        return (
            point.r_a <= self.r_a_max + tol
            and point.r_b <= self.r_b_max + tol
            and point.r_a + point.r_b <= self.sum_max + tol
        )


def pentagon_at(params: ChannelParams, budget: PhotonBudget) -> Pentagon:
    """Pentagon of one encoding, from the joint-detection maximum rates
    of one direct ``kernels.rate_triple`` call, as in the sweeps."""
    ra, _, rb, _, rab, _ = kernels.rate_triple(
        params.eta1, params.eta2, params.n_thermal,
        budget.n_a, budget.n_b, budget.r_a, budget.r_b,
    )
    return Pentagon.from_rates(ra, rb, rab)


def _fractions(points: int) -> tuple:
    """``points`` evenly spaced squeeze fractions from 0 to 1."""
    if points < 2:
        raise ValueError(f"a fraction grid needs at least 2 points, got {points}")
    return tuple(i / (points - 1) for i in range(points))


def _sweep(params: ChannelParams, n_a: float, n_b: float, p_values, products=(1, -1),
           sum_column=True, alice_column=True, bob_column=True):
    """The kernels.rate_columns lists (r_max_a, r_max_b, r_max_ab) of each
    sign product in ``products``, keyed by it: one value per (p_a, p_b)
    cell, in row-major order, over the squeezings that spend the fractions
    ``p_values`` of ``n_a`` (rows) and of ``n_b`` (columns).  The entry of
    product s is layer (1, s), and so, by the sign-product rule of
    SIGN_LAYERS, every layer (sign_a, sign_b) with sign_a * sign_b == s.
    A list whose flag is false is None: a sweep that reads only the
    individual rates skips a third of the rate work.

    Raises InputError naming ``n_a`` or ``n_b``, before any kernel call,
    for a total whose p = 1 squeeze fails the squeezing check.
    """
    require_full_squeeze(n_a, n_b)
    r_a = [fraction_squeezing(p, n_a) for p in p_values]
    r_b = [fraction_squeezing(p, n_b) for p in p_values]
    return {
        sign: kernels.rate_columns(
            params.eta1, params.eta2, params.n_thermal, n_a, n_b, r_a, [sign * r for r in r_b],
            sum_column, alice_column, bob_column,
        )
        for sign in products
    }


def _first_max(values):
    """(largest value, index of its first occurrence)."""
    top = max(values)
    return top, values.index(top)


@dataclass(frozen=True)
class SqueezeSurface:
    """Individual rates over a (p_a, p_b) squeeze-fraction grid, one layer
    per quadrature orientation pair of SIGN_LAYERS, stored by column.

    ``p_values`` holds the grid_n fractions.  ``layers`` holds one
    (sign_a, sign_b, r_max_a, r_max_b) entry per layer in SIGN_LAYERS
    order, whose two rate columns list the grid_n**2 cells in row-major
    (p_a-major) order.  Layers of one sign product hold the same column
    tuples, the same objects (see SIGN_LAYERS).  ``rows()`` builds the long
    format on demand.
    """

    grid_n: int
    p_values: tuple
    layers: tuple

    def cell(self, sign_a: int, sign_b: int, i: int, j: int):
        """(r_max_a, r_max_b) at fraction indices (i, j) of one layer."""
        if not (0 <= i < self.grid_n and 0 <= j < self.grid_n):
            raise IndexError(f"cell ({i}, {j}) is outside the {self.grid_n}x{self.grid_n} grid")
        _, _, ra, rb = self.layers[SIGN_LAYERS.index((sign_a, sign_b))]
        k = i * self.grid_n + j
        return ra[k], rb[k]

    def coherent_cell(self):
        """(r_max_a, r_max_b) of the zero-squeezing baseline."""
        return self.cell(1, 1, 0, 0)

    def rows(self):
        """Long-format rows (p_a, p_b, sign_a, sign_b, r_max_a, r_max_b) in
        stable layer-major, row-major order."""
        p_a_column = [p_a for p_a in self.p_values for _ in self.p_values]
        p_b_column = self.p_values * self.grid_n
        table = []
        for sign_a, sign_b, ra, rb in self.layers:
            table.extend(zip(p_a_column, p_b_column, repeat(sign_a), repeat(sign_b), ra, rb))
        return tuple(table)

    def max_alice_rate(self):
        """Best r_max_a over the grid: (value, (sign_a, sign_b), p_a, p_b);
        the first of equal maxima in layer-major, row-major order wins."""
        best = None
        for sign_a, sign_b, ra, _ in self.layers:
            top, k = _first_max(ra)
            if best is None or top > best[0]:
                best = (top, (sign_a, sign_b), self.p_values[k // self.grid_n],
                        self.p_values[k % self.grid_n])
        return best


def squeeze_surface(params: ChannelParams, budget: PhotonBudget, grid_n: int = 33) -> SqueezeSurface:
    """Evaluate the individual rates on a uniform (p_a, p_b) grid.

    Only the photon totals of ``budget`` are used; its squeezing
    parameters are replaced cell by cell.  The p = 0 row and column carry
    the coherent baseline.  Each layer takes the r_max_a and r_max_b columns
    of its sign product, one ``kernels.rate_columns`` call per product (see
    SIGN_LAYERS and ``_sweep``).
    """
    p_values = _fractions(grid_n)
    columns = {
        sign: (tuple(rates[0]), tuple(rates[1]))
        for sign, rates in _sweep(
            params, budget.n_a, budget.n_b, p_values, sum_column=False
        ).items()
    }
    return SqueezeSurface(grid_n, p_values, tuple(
        (sign_a, sign_b, *columns[sign_a * sign_b]) for sign_a, sign_b in SIGN_LAYERS
    ))


@dataclass(frozen=True)
class OptimizeResult:
    objective: Objective
    p_a: float
    p_b: float
    sign_a: int
    sign_b: int
    value: float
    baseline: float


#: Golden-section refinement of optimize_squeezing stops once its bracket
#: half-width falls to this.
OPTIMIZE_TOL = 1e-6


def optimize_squeezing(
    params: ChannelParams,
    budget: PhotonBudget,
    objective: Objective,
    grid_n: int = 33,
) -> OptimizeResult:
    """Coarse grid then coordinate-wise golden-section refinement.

    The zero-squeezing baseline is always a candidate, so the result never
    falls below it.  The coarse grid walks the first two sign layers only:
    the other two mirror them bit for bit (see SIGN_LAYERS) and come after
    them, so a mirrored layer never strictly improves on its twin and the
    first maximum is the one a four-layer walk finds.
    """
    idx = {Objective.MAX_RA: 0, Objective.MAX_RB: 2, Objective.MAX_SUM: 4}[objective]
    column = idx // 2  # of the kernels.rate_columns lists
    p_values = _fractions(grid_n)

    def value(p_a, p_b, sign_a, sign_b):
        return kernels.rate_triple(
            params.eta1, params.eta2, params.n_thermal, budget.n_a, budget.n_b,
            sign_a * fraction_squeezing(p_a, budget.n_a),
            sign_b * fraction_squeezing(p_b, budget.n_b),
        )[idx]

    baseline = value(0.0, 0.0, 1, 1)
    best = (baseline, 0.0, 0.0, 1, 1)
    columns = _sweep(params, budget.n_a, budget.n_b, p_values,
                     sum_column=objective is Objective.MAX_SUM,
                     alice_column=objective is Objective.MAX_RA,
                     bob_column=objective is Objective.MAX_RB)
    for sign_a, sign_b in SIGN_LAYERS[:2]:
        top, k = _first_max(columns[sign_a * sign_b][column])
        if top > best[0]:
            best = (top, p_values[k // grid_n], p_values[k % grid_n], sign_a, sign_b)

    _, p_a, p_b, sign_a, sign_b = best
    step = 1.0 / (grid_n - 1)
    while step > OPTIMIZE_TOL:
        p_a, _ = golden_section_max(
            lambda x: value(x, p_b, sign_a, sign_b),
            max(0.0, p_a - step), min(1.0, p_a + step), tol=step * 1e-3,
        )
        p_b, _ = golden_section_max(
            lambda x: value(p_a, x, sign_a, sign_b),
            max(0.0, p_b - step), min(1.0, p_b + step), tol=step * 1e-3,
        )
        step /= 2.0
    refined = value(p_a, p_b, sign_a, sign_b)
    if refined < best[0]:
        refined, p_a, p_b = best[0], best[1], best[2]
    return OptimizeResult(objective, p_a, p_b, sign_a, sign_b, refined, baseline)


def convex_hull(points):
    """Andrew monotone chain; returns counterclockwise hull vertices."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    return _chain(pts)[:-1] + _chain(reversed(pts))[:-1]


def _chain(points):
    """One monotone chain of ``points``: each point in turn, after popping
    the chain's last point while the turn from the one before it through
    that point to the new one is not counterclockwise (cross product <= 0)."""
    chain = []
    for p in points:
        px, py = p
        while len(chain) >= 2:
            (ox, oy), (ax, ay) = chain[-2], chain[-1]
            if (ax - ox) * (py - oy) - (ay - oy) * (px - ox) <= 0:
                chain.pop()
            else:
                break
        chain.append(p)
    return chain


@dataclass(frozen=True)
class RateRegion:
    """Convex hull of achievable rate pairs with its generating encodings."""

    hull: tuple
    provenance: tuple

    def contains(self, point: RatePoint, tol: float = 1e-9) -> bool:
        pts = [(p.r_a, p.r_b) for p in self.hull]
        if len(pts) == 1:
            return (
                abs(point.r_a - pts[0][0]) <= tol
                and abs(point.r_b - pts[0][1]) <= tol
            )
        if len(pts) == 2:
            # Both edges of a segment accept every point of its line; the
            # point must also lie within the segment's extent.
            (x0, y0), (x1, y1) = pts
            if not (min(x0, x1) - tol <= point.r_a <= max(x0, x1) + tol
                    and min(y0, y1) - tol <= point.r_b <= max(y0, y1) + tol):
                return False
        for i in range(len(pts)):
            ox, oy = pts[i]
            ax, ay = pts[(i + 1) % len(pts)]
            if (ax - ox) * (point.r_b - oy) - (ay - oy) * (point.r_a - ox) < -tol:
                return False
        return True


@dataclass(frozen=True)
class RegionData:
    """Region plus the labeled curve set used for reproduction plots."""

    region: RateRegion
    pentagons: tuple  # ((r_a, r_b) encoding, Pentagon) pairs
    heterodyne: Pentagon | None
    homodyne: Pentagon | None
    outer_bound: tuple  # (r_ub_a, r_ub_b)


def _receiver_pentagon(params: ChannelParams, budget: PhotonBudget, receiver: Receiver):
    rates = receiver_rates(params, budget, receiver)
    return None if rates is None else Pentagon.from_rates(*rates)


def build_region(params: ChannelParams, budget: PhotonBudget, encodings) -> RegionData:
    """Union of per-encoding pentagons, closed convexly.

    ``encodings`` is a sequence of (r_a, r_b) squeezing pairs applied to
    the photon totals of ``budget``.  Each encoding is validated by building
    its PhotonBudget, which raises InputError for an unaffordable one, and
    gives its pentagon through ``pentagon_at``.  The hull keeps the
    pentagons' own vertex objects, the first one of each rate pair.
    Receiver curves are the pentagons induced by the per-user and sum
    receiver capacities of the coherent encoding; the outer-bound box
    ignores the inter-user coupling.
    """
    encodings = tuple((float(ra), float(rb)) for ra, rb in encodings)
    if not encodings:
        raise ValueError("encodings must not be empty")
    n_a, n_b = budget.n_a, budget.n_b
    pentagons = []
    vertices = {}  # (r_a, r_b) -> the first RatePoint at it
    for r_a, r_b in encodings:
        pent = pentagon_at(params, PhotonBudget(n_a, n_b, r_a, r_b))
        pentagons.append(((r_a, r_b), pent))
        for v in pent.vertices:
            vertices.setdefault((v.r_a, v.r_b), v)
    region = RateRegion(tuple(vertices[p] for p in convex_hull(vertices)), encodings)

    coherent = PhotonBudget(n_a, n_b)
    het = _receiver_pentagon(params, coherent, Receiver.HETERODYNE)
    hom = _receiver_pentagon(params, coherent, Receiver.HOMODYNE)
    box = (
        outer_bound(params, budget, User.ALICE),
        outer_bound(params, budget, User.BOB),
    )
    return RegionData(region, tuple(pentagons), het, hom, box)


@dataclass(frozen=True)
class ScanCell:
    s: float
    p_a: float
    p_b: float
    value: float


@dataclass(frozen=True)
class ScanReport:
    """Argmax cells of a global-photon-budget scan."""

    total_photons: float
    best: dict = field(default_factory=dict)

    @property
    def sum_argmax_coherent(self) -> bool:
        cell = self.best["sum"]
        return cell.p_a == 0.0 and cell.p_b == 0.0

    @property
    def alice_argmax_full_allocation(self) -> bool:
        cell = self.best["alice"]
        return cell.s == 1.0 and cell.p_a == 0.0

    def to_dict(self) -> dict:
        return {
            "total_photons": self.total_photons,
            "argmax": {
                name: {"s": c.s, "p_a": c.p_a, "p_b": c.p_b, "value": c.value}
                for name, c in self.best.items()
            },
            "sum_argmax_coherent": self.sum_argmax_coherent,
            "alice_argmax_full_allocation": self.alice_argmax_full_allocation,
        }


#: Margin of the scan's pruning rule: an interior split skips an
#: objective's column when its ceiling is below the lower bound LB of the
#: best value by more than SCAN_MARGIN_ABS + SCAN_MARGIN_REL * LB.  Over
#: 1,000,000 seeded draws of the pruning domain (eta from 0 through 1e-300
#: to 1, signed squeezing within budget), a computed rate exceeded its
#: computed ceiling by at most 2.9e-8 bits, the worst on rates of a user
#: with no photons, whose exact value is 0 (branch-2 rounding); on rates
#: of at least 1e-6 bits the worst excess was 3.7e-13 of the rate.  On
#: 200,000 workload-domain draws no rate exceeded its ceiling.
SCAN_MARGIN_ABS = 1e-5
SCAN_MARGIN_REL = 1e-3
#: The pruning domain, where that excess was measured: photon totals up
#: to SCAN_PRUNE_MAX_TOTAL and thermal photons up to SCAN_PRUNE_MAX_THERMAL.
#: Outside it the scan computes every column.
SCAN_PRUNE_MAX_TOTAL = 1e15
SCAN_PRUNE_MAX_THERMAL = 1e12


def _split_tops(params, n_a, n_b, p_values, alice=True, bob=True, total=True):
    """(largest value, index of its first cell) of each rate list, Alice's,
    Bob's and the sum's, of the (1, 1) layer of one split, None for a
    skipped one."""
    rates = _sweep(params, n_a, n_b, p_values, (1,), total, alice, bob)[1]
    return [None if values is None else _first_max(values) for values in rates]


def global_constraint_scan(
    params: ChannelParams,
    total_photons: float,
    s_points: int = 101,
    fraction_points: int = 33,
) -> ScanReport:
    """Scan photon splits s and squeeze fractions under one shared budget.

    Alice gets s * total and Bob the rest; each cell reports the three
    objectives and the argmax cells are tracked with strict improvement,
    so ties resolve to the earliest cell in (s, p_a, p_b) order.

    Splits s = 0 and s = 1 are swept first, in that order and whole; the
    best of their cells is a lower bound LB on each objective's maximum.
    Every other split skips an objective whose ceiling there, the outer
    bound for Alice and Bob and the coherent sum capacity for the sum,
    is below LB by more than the SCAN_MARGIN_* margin, and a split with no
    objective left is not swept.  A skipped cell lies strictly below LB,
    so it can neither be nor tie the first argmax, and the report is the
    one of a full scan.  Outside the pruning domain nothing is skipped.
    """
    _require_photons("total_photons", total_photons)
    p_values = _fractions(fraction_points)
    splits = _fractions(s_points)
    budgets = [(s * total_photons, (1.0 - s) * total_photons) for s in splits]
    found = [None] * s_points
    found[0] = _split_tops(params, *budgets[0], p_values)
    found[-1] = _split_tops(params, *budgets[-1], p_values)
    limits = [lb - (SCAN_MARGIN_ABS + SCAN_MARGIN_REL * lb)
              for lb in (max(first[0], last[0]) for first, last in zip(found[0], found[-1]))]
    prune = total_photons <= SCAN_PRUNE_MAX_TOTAL and params.n_thermal <= SCAN_PRUNE_MAX_THERMAL
    keep = [True, True, True]
    skipped = 0
    for i in range(1, s_points - 1):
        n_a, n_b = budgets[i]
        if prune:
            ceilings = (
                _thermal_loss_capacity(params, n_a),
                _thermal_loss_capacity(params, n_b),
                _thermal_loss_capacity(params, params.eta1 * n_a + (1.0 - params.eta1) * n_b),
            )
            keep = [not ceiling < limit for ceiling, limit in zip(ceilings, limits)]
            skipped += keep.count(False)
        found[i] = (_split_tops(params, n_a, n_b, p_values, *keep) if any(keep)
                    else [None, None, None])
    log.debug("global scan: %d of %d (split, objective) columns computed, %d skipped",
              3 * s_points - skipped, 3 * s_points, skipped)

    best = {}
    for s, tops in zip(splits, found):
        for name, top in zip(("alice", "bob", "sum"), tops):
            if top is None:
                continue
            value, k = top
            if name not in best or value > best[name].value:
                best[name] = ScanCell(
                    s, p_values[k // fraction_points], p_values[k % fraction_points], value
                )
    return ScanReport(total_photons, best)
