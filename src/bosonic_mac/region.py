"""Rate regions and squeezing surfaces.

A fixed encoding (one squeezing pair) cuts out a pentagon from the two
individual-rate constraints and the sum-rate constraint; regions are the
convex hull of pentagon vertices over a set of encodings.  Squeezing
surfaces grid the individual rates over squeeze fractions and quadrature
orientations.
"""

import enum
from dataclasses import dataclass, field

from . import _kernels as kernels
from ._search import golden_section_max
from .gaussian_core import ChannelParams, PhotonBudget, fraction_squeezing
from .rates import Receiver, User, outer_bound, rate_bundle, receiver_rates

#: Quadrature orientation layers evaluated by surfaces and optimizers.
SIGN_LAYERS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


class Objective(enum.Enum):
    MAX_RA = "max-ra"
    MAX_RB = "max-rb"
    MAX_SUM = "max-sum"


@dataclass(frozen=True)
class RatePoint:
    r_a: float
    r_b: float

    def __post_init__(self):
        if self.r_a < 0.0 or self.r_b < 0.0:
            raise ValueError("rates must be >= 0")


@dataclass(frozen=True)
class Pentagon:
    """Region cut out by R_A <= r_a_max, R_B <= r_b_max, R_A + R_B <= sum_max."""

    r_a_max: float
    r_b_max: float
    sum_max: float
    vertices: tuple

    @classmethod
    def from_rates(cls, r_a_max: float, r_b_max: float, sum_max: float) -> "Pentagon":
        if sum_max >= r_a_max + r_b_max:
            corners = [
                (0.0, 0.0),
                (r_a_max, 0.0),
                (r_a_max, r_b_max),
                (0.0, r_b_max),
            ]
        else:
            corners = [
                (0.0, 0.0),
                (r_a_max, 0.0),
                (r_a_max, max(sum_max - r_a_max, 0.0)),
                (max(sum_max - r_b_max, 0.0), r_b_max),
                (0.0, r_b_max),
            ]
        vertices = []
        for c in corners:
            if not vertices or vertices[-1] != c:
                vertices.append(c)
        if len(vertices) > 1 and vertices[0] == vertices[-1]:
            vertices.pop()
        return cls(
            r_a_max, r_b_max, sum_max,
            tuple(RatePoint(a, b) for a, b in vertices),
        )

    def contains(self, point: RatePoint, tol: float = 1e-12) -> bool:
        return (
            point.r_a <= self.r_a_max + tol
            and point.r_b <= self.r_b_max + tol
            and point.r_a + point.r_b <= self.sum_max + tol
        )


def pentagon_at(params: ChannelParams, budget: PhotonBudget) -> Pentagon:
    """Pentagon of one encoding, from the joint-detection maximum rates."""
    bundle = rate_bundle(params, budget)
    return Pentagon.from_rates(bundle.r_max_a, bundle.r_max_b, bundle.r_max_ab)


def _fractions(points: int) -> tuple:
    """``points`` evenly spaced squeeze fractions from 0 to 1."""
    if points < 2:
        raise ValueError(f"a fraction grid needs at least 2 points, got {points}")
    return tuple(i / (points - 1) for i in range(points))


def _sweep(params: ChannelParams, n_a: float, n_b: float, p_values, layers=SIGN_LAYERS):
    """Walk the (sign_a, sign_b, p_a, p_b) grid in layer-major, row-major
    order, yielding (p_a, p_b, sign_a, sign_b, kernels.rate_triple(...))
    for the squeezing that spends those fractions of ``n_a`` and ``n_b``."""
    for sign_a, sign_b in layers:
        r_b_values = [sign_b * fraction_squeezing(p_b, n_b) for p_b in p_values]
        for p_a in p_values:
            r_a = sign_a * fraction_squeezing(p_a, n_a)
            for p_b, r_b in zip(p_values, r_b_values):
                yield p_a, p_b, sign_a, sign_b, kernels.rate_triple(
                    params.eta1, params.eta2, params.n_thermal, n_a, n_b, r_a, r_b
                )


@dataclass(frozen=True)
class SqueezeSurface:
    """Individual rates over a (p_a, p_b) squeeze-fraction grid, one layer
    per quadrature orientation pair of SIGN_LAYERS.

    ``table`` holds rows (p_a, p_b, sign_a, sign_b, r_max_a, r_max_b) in
    layer-major, row-major order.
    """

    grid_n: int
    table: tuple

    def cell(self, sign_a: int, sign_b: int, i: int, j: int):
        """(r_max_a, r_max_b) at fraction indices (i, j) of one layer."""
        if not (0 <= i < self.grid_n and 0 <= j < self.grid_n):
            raise IndexError(f"cell ({i}, {j}) is outside the {self.grid_n}x{self.grid_n} grid")
        layer = SIGN_LAYERS.index((sign_a, sign_b))
        return self.table[(layer * self.grid_n + i) * self.grid_n + j][4:]

    def coherent_cell(self):
        """(r_max_a, r_max_b) of the zero-squeezing baseline."""
        return self.table[0][4:]

    def rows(self):
        """Long-format rows (p_a, p_b, sign_a, sign_b, r_max_a, r_max_b) in
        stable layer-major, row-major order."""
        return self.table

    def max_alice_rate(self):
        """Best r_max_a over the grid: (value, (sign_a, sign_b), p_a, p_b);
        the first of equal maxima wins."""
        p_a, p_b, sign_a, sign_b, ra, _ = max(self.table, key=lambda row: row[4])
        return ra, (sign_a, sign_b), p_a, p_b


def squeeze_surface(params: ChannelParams, budget: PhotonBudget, grid_n: int = 33) -> SqueezeSurface:
    """Evaluate the individual rates on a uniform (p_a, p_b) grid.

    Only the photon totals of ``budget`` are used; its squeezing
    parameters are replaced cell by cell.  The p = 0 row and column carry
    the coherent baseline.
    """
    cells = _sweep(params, budget.n_a, budget.n_b, _fractions(grid_n))
    table = tuple(
        (p_a, p_b, sign_a, sign_b, rates[0], rates[2])
        for p_a, p_b, sign_a, sign_b, rates in cells
    )
    return SqueezeSurface(grid_n, table)


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
    falls below it.
    """
    idx = {Objective.MAX_RA: 0, Objective.MAX_RB: 2, Objective.MAX_SUM: 4}[objective]
    p_values = _fractions(grid_n)

    def value(p_a, p_b, sign_a, sign_b):
        return kernels.rate_triple(
            params.eta1, params.eta2, params.n_thermal, budget.n_a, budget.n_b,
            sign_a * fraction_squeezing(p_a, budget.n_a),
            sign_b * fraction_squeezing(p_b, budget.n_b),
        )[idx]

    baseline = value(0.0, 0.0, 1, 1)
    best = (baseline, 0.0, 0.0, 1, 1)
    for p_a, p_b, sign_a, sign_b, rates in _sweep(params, budget.n_a, budget.n_b, p_values):
        if rates[idx] > best[0]:
            best = (rates[idx], p_a, p_b, sign_a, sign_b)

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
    if refined < baseline:
        refined, p_a, p_b, sign_a, sign_b = baseline, 0.0, 0.0, 1, 1
    return OptimizeResult(objective, p_a, p_b, sign_a, sign_b, refined, baseline)


def convex_hull(points):
    """Andrew monotone chain; returns counterclockwise hull vertices."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


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
    the photon totals of ``budget``.  Receiver curves are the pentagons
    induced by the per-user and sum receiver capacities of the coherent
    encoding; the outer-bound box ignores the inter-user coupling.
    """
    encodings = tuple((float(ra), float(rb)) for ra, rb in encodings)
    if not encodings:
        raise ValueError("encodings must not be empty")
    pentagons = []
    vertices = []
    for r_a, r_b in encodings:
        pent = pentagon_at(params, PhotonBudget(budget.n_a, budget.n_b, r_a, r_b))
        pentagons.append(((r_a, r_b), pent))
        vertices.extend((v.r_a, v.r_b) for v in pent.vertices)
    hull = convex_hull(vertices)
    region = RateRegion(
        tuple(RatePoint(a, b) for a, b in hull), encodings
    )

    coherent = PhotonBudget(budget.n_a, budget.n_b)
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
    """
    if total_photons < 0.0:
        raise ValueError("total_photons must be >= 0")
    p_values = _fractions(fraction_points)
    best = {}
    for s in _fractions(s_points):
        cells = _sweep(
            params, s * total_photons, (1.0 - s) * total_photons, p_values, layers=((1, 1),)
        )
        for p_a, p_b, _, _, (ra, _, rb, _, rab, _) in cells:
            for name, v in (("alice", ra), ("bob", rb), ("sum", rab)):
                if name not in best or v > best[name].value:
                    best[name] = ScanCell(s, p_a, p_b, v)
    return ScanReport(total_photons, best)
