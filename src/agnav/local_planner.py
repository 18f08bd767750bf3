"""Semantically weighted local direction selection for the ground robot.

Candidate headings theta_i, uniform over the full circle, are scored with

    A       = (beta / |T - M|) * arccos(d_theta . d_goal)      goal alignment
    A_zero  = arccos(d_theta . d_zero)                         zero-point pull
    O       = sum over obstacles near the lookahead ray of 1 / (d_perp + eps)
    W       = inf when the lookahead endpoint leaves the window, else 0
    J       = q_align * A + q_zero * A_zero + q_obstacle * O + q_window * W

where d_goal and d_zero are the unit vectors from the main point M toward the
target T and the image zero point Z. An obstacle contributes only when its
perpendicular foot falls on the finite segment from M of the configured
lookahead length and its surface distance to the ray is below d_safe.

All arithmetic is scalar and deterministic; ties in the argmin break toward
the candidate better aligned with the goal, then toward the lower index.

The argmin is found by a bounded search, not a full scan. Candidates are
scored outward from the anchor bearing psi (the bearing of T, or of Z when
no target is seen), two per ring: the pair that brackets psi, then the next
pair out. Each J is a left-to-right IEEE sum of non-negative terms, so it is
never below its leading alignment terms, and those grow with the angle
delta_i between theta_i and psi: J_i >= coef * delta_i, with

    coef = q_align * beta / |T - M| + q_zero     when T = Z
    coef = q_align * beta / |T - M|              for any other target
    coef = q_zero                                when no target is seen.

The search stops once coef * (delta - 1e-6) exceeds the least total scored,
where delta is the angle from psi of the nearest candidate not yet scored;
the 1e-6 rad covers acos rounding near 1 (~1.5e-8) and the rounding of the
products. Every skipped candidate then totals strictly more than the
minimum, so it can neither win nor tie, and the choice, the tie-break and
BlockedError are the full scan's. When coef or beta / |T - M| is 0,
subnormal or not finite, or the anchor offset is 0 or not finite, every
candidate is scored. The
totals of skipped candidates are scored on demand (``DirectionChoice.total``
and ``.table``) by the same per-candidate row function the search uses.
Motion rules: ``step_decision`` toward the candidate, ``pursue`` onto a bearing.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import ClassVar, Optional


class BlockedError(RuntimeError):
    """Every candidate direction is excluded by the window barrier."""


@dataclass(frozen=True)
class LocalCostWeights:
    q_align: float = 1.0
    q_zero: float = 0.5
    q_obstacle: float = 2.0
    q_window: float = 1.0
    beta: float = 5.0
    d_safe: float = 1.2       # cells
    epsilon: float = 1e-6     # cells
    lookahead: float = 5.0    # cells
    window_half_extent: float = 10.0  # cells
    candidate_count: int = 36

    def __post_init__(self):
        if not all(math.isfinite(getattr(self, f.name)) for f in fields(self)):
            raise ValueError("weights must be finite")
        if min(self.q_align, self.q_zero, self.q_obstacle, self.q_window, self.beta) < 0:
            raise ValueError("weights must be non-negative")
        if min(self.epsilon, self.d_safe, self.lookahead, self.window_half_extent) <= 0:
            raise ValueError("epsilon, d_safe, lookahead, and window_half_extent must be positive")
        if self.candidate_count < 4:
            raise ValueError("candidate_count must be at least 4")


@dataclass(slots=True)
class LocalObservation:
    """Image-frame geometry for one local planning step (units: grid cells).

    ``main`` is the reference point being steered (the robot body, or the
    carried object while transporting). ``parts`` holds the head/body/tail
    points; heading derives from tail -> head. ``zero`` is the image zero
    point, the origin of the frame by definition, and ``anchor`` the point
    the robot aligns with: the target, or the zero point when no target is
    seen.

    Slotted and not frozen: the executor builds one every move tick, and a
    frozen init costs several times as much. Nothing assigns to an
    observation once built.
    """

    main: tuple[float, float]
    target: Optional[tuple[float, float]]
    obstacles: tuple  # ((x, y), radius) pairs
    head: tuple[float, float]
    tail: tuple[float, float]
    body: tuple[float, float]
    zero: ClassVar[tuple[float, float]] = (0.0, 0.0)

    def __post_init__(self):
        if self.head == self.tail:
            raise ValueError("head and tail coincide; heading undefined")

    @property
    def heading(self) -> float:
        return math.atan2(self.head[1] - self.tail[1], self.head[0] - self.tail[0])

    @property
    def anchor(self) -> tuple[float, float]:
        return self.target if self.target is not None else self.zero


@dataclass(frozen=True)
class LocalCost:
    align: float
    zero: float
    obstacle: float
    window: float
    total: float


def candidate_theta(index: int, count: int) -> float:
    """Heading of candidate ``index`` of ``count`` uniform directions."""
    return 2.0 * math.pi * index / count


# the bounded search's slack, in radians, and the least coef (and alignment
# scale) it is taken for: below the least normal float a product rounds by
# more than the slack
_MARGIN = 1e-6
_NORMAL = sys.float_info.min


@functools.lru_cache(maxsize=16)
def _directions(count: int) -> tuple[tuple[float, float], ...]:
    """(cos, sin) of every candidate heading, computed once per count."""
    return tuple((math.cos(theta), math.sin(theta))
                 for theta in (candidate_theta(i, count) for i in range(count)))


class _Scorer:
    """Scores one observation's candidate headings: ``row(dx, dy)`` is the
    (align, zero, obstacle, window, total) row of the unit heading (dx, dy),
    with the ray cut at ``lookahead`` cells. The terms that depend only on
    the observation (the goal and zero-point offsets and their lengths, the
    offsets from M of the obstacles in reach) are computed once, here, so
    each heading costs one pass over the obstacles in reach. An arc's dot
    product is clamped as min(1.0, max(-1.0, dot)) would, so a NaN dot reads
    as -1. A slotted object rather than a closure, which would allocate a
    cell per captured value on every tick."""

    __slots__ = ("mx", "my", "zx", "zy", "zdist", "gx", "gy", "dist", "shared", "scale",
                 "lookahead", "w", "offsets")

    def __init__(self, obs: LocalObservation, w: LocalCostWeights, lookahead: float):
        self.mx, self.my = mx, my = obs.main
        self.zx, self.zy = zx, zy = -mx, -my
        self.zdist = zdist = math.hypot(zx, zy)
        target = obs.target
        # T = Z: the goal offset 0 - M is -M up to the sign of a zero, which
        # changes no dot product's value, so the alignment arc is the zero arc
        # (the search's bound adds q_zero for it)
        self.shared = target == LocalObservation.zero
        gx, gy, dist = zx, zy, zdist
        if target is not None and not self.shared:
            gx, gy = target[0] - mx, target[1] - my
            dist = math.hypot(gx, gy)
        self.gx, self.gy, self.dist = gx, gy, dist
        # None when there is no alignment term
        self.scale = w.beta / dist if target is not None and dist > 0.0 else None
        self.lookahead, self.w = lookahead, w
        # an obstacle out of reach scores on no ray: |r| <= t + |r - t d|, so
        # beyond lookahead + d_safe + radius either t > lookahead or its
        # surface lies d_safe or more off the ray (the margin covers rounding)
        self.offsets = offsets = []
        for (ox, oy), radius in obs.obstacles:
            rx, ry = ox - mx, oy - my
            if not math.hypot(rx, ry) > (lookahead + w.d_safe + radius) * (1.0 + 1e-9):
                offsets.append((rx, ry, radius))

    def row(self, dx: float, dy: float) -> tuple[float, float, float, float, float]:
        zdist, scale, w, lookahead = self.zdist, self.scale, self.w, self.lookahead
        zero = align = obstacle = 0.0
        if zdist > 0.0:
            dot = (dx * self.zx + dy * self.zy) / zdist
            zero = math.acos(dot if -1.0 <= dot <= 1.0 else 1.0 if dot > 1.0 else -1.0)
        if scale is not None:
            dot = (dx * self.gx + dy * self.gy) / self.dist
            align = scale * math.acos(dot if -1.0 <= dot <= 1.0 else 1.0 if dot > 1.0 else -1.0)
        if self.offsets:
            d_safe, eps = w.d_safe, w.epsilon
            for rx, ry, radius in self.offsets:
                t = rx * dx + ry * dy
                if t < 0.0 or t > lookahead:
                    continue
                eff = max(0.0, math.hypot(rx - t * dx, ry - t * dy) - radius)
                if eff < d_safe:
                    obstacle += 1.0 / (eff + eps)
        if max(abs(self.mx + lookahead * dx), abs(self.my + lookahead * dy)) > w.window_half_extent:
            return (align, zero, obstacle, math.inf, math.inf)
        # q_window * 0.0: the window term where it is open
        total = w.q_align * align + w.q_zero * zero + w.q_obstacle * obstacle + w.q_window * 0.0
        return (align, zero, obstacle, 0.0, total)

    def deviation(self, dx: float, dy: float) -> float:
        """Angle between the unit heading (dx, dy) and the anchor offset (0
        when the anchor is M), the tie-break among tied minima."""
        if self.dist == 0.0:
            return 0.0
        dot = (dx * self.gx + dy * self.gy) / self.dist
        return math.acos(dot if -1.0 <= dot <= 1.0 else 1.0 if dot > 1.0 else -1.0)


def cost_local(theta: float, obs: LocalObservation, w: LocalCostWeights) -> LocalCost:
    return LocalCost(*_Scorer(obs, w, w.lookahead).row(math.cos(theta), math.sin(theta)))


@dataclass(frozen=True)
class Candidate:
    index: int
    theta: float
    cost: LocalCost


@dataclass(slots=True)
class DirectionChoice:
    """The selected candidate, the total J of each candidate the search
    scored by index, and the scorer that scores any other candidate on
    demand. Slotted and not frozen, as ``LocalObservation`` is: one per move
    tick, never assigned to."""

    theta: float
    index: int
    scored: dict[int, float]
    scorer: _Scorer = field(repr=False, compare=False)

    def total(self, index: int) -> float:
        """J of candidate ``index``, scored now when the search skipped it."""
        t = self.scored.get(index)
        if t is None:
            t = self.scorer.row(*_directions(self.scorer.w.candidate_count)[index])[4]
        return t

    @property
    def table(self) -> tuple[Candidate, ...]:
        """Every candidate's row, scored on demand."""
        n = self.scorer.w.candidate_count
        return tuple(Candidate(i, candidate_theta(i, n), LocalCost(*self.scorer.row(dx, dy)))
                     for i, (dx, dy) in enumerate(_directions(n)))


def select_direction(obs: LocalObservation, w: LocalCostWeights, *,
                     lookahead: Optional[float] = None) -> DirectionChoice:
    """argmin of cost_local over candidate_count uniform directions, by the
    bounded search of the module docstring; the tie-break's angle from the
    anchor is evaluated only for tied minima. ``lookahead`` (cells, default
    ``w.lookahead``) cuts the ray; it scores as ``replace(w, lookahead=
    lookahead)`` would."""
    if lookahead is None:
        lookahead = w.lookahead
    elif not 0.0 < lookahead < math.inf:
        raise ValueError(f"lookahead must be positive and finite, got {lookahead}")
    n = w.candidate_count
    directions = _directions(n)
    scorer = _Scorer(obs, w, lookahead)
    step = 2.0 * math.pi / n
    # the scorer's goal offset is the anchor's (up to the sign of a zero)
    coef = w.q_zero if obs.target is None else 0.0
    if scorer.scale is not None and scorer.scale >= _NORMAL:
        coef = w.q_align * scorer.scale + (w.q_zero if scorer.shared else 0.0)
    lo, near = 0, 0.0
    if 0.0 < scorer.dist < math.inf and _NORMAL <= coef < math.inf:
        # the anchor bearing in candidate steps
        k = math.atan2(scorer.gy, scorer.gx) / step
        lo = math.floor(k)
        near = min(k - lo, lo + 1 - k)
    else:
        coef = 0.0  # no bound: every candidate is scored
    scored = {}
    index, best, tied = None, math.inf, False
    for j in range(n):
        # outward from the bearing: lo, lo + 1, lo - 1, lo + 2, ...
        i = (lo - (j >> 1) if j & 1 == 0 else lo + 1 + (j >> 1)) % n
        t = scored[i] = scorer.row(*directions[i])[4]
        if t < best:
            if math.isfinite(t):
                index, best, tied = i, t, False
        elif t == best and index is not None:
            tied = True
        # after ring j >> 1 the nearest candidate not yet scored lies
        # ((j >> 1) + 1 + near) steps from the bearing
        if j & 1 and coef * (((j >> 1) + 1 + near) * step - _MARGIN) > best:
            break
    if index is None:
        raise BlockedError("all candidate directions exit the window")
    if tied:
        index = min((i for i, t in scored.items() if t == best),
                    key=lambda i: (scorer.deviation(*directions[i]), i))
    return DirectionChoice(candidate_theta(index, n), index, scored, scorer)


class MotionKind(Enum):
    STOP = "stop"
    ROTATE = "rotate"
    FORWARD = "forward"
    BACKWARD = "backward"


@dataclass(frozen=True)
class MotionCommand:
    kind: MotionKind
    target_heading: float = 0.0  # rotate only

    @staticmethod
    def stop() -> "MotionCommand":
        return _STOP

    @classmethod
    def rotate(cls, target_heading: float):
        return cls(MotionKind.ROTATE, target_heading=target_heading)

    @staticmethod
    def forward() -> "MotionCommand":
        return _FORWARD

    @staticmethod
    def backward() -> "MotionCommand":
        return _BACKWARD


# the commands without a parameter, shared: a frozen value needs one instance
_STOP = MotionCommand(MotionKind.STOP)
_FORWARD = MotionCommand(MotionKind.FORWARD)
_BACKWARD = MotionCommand(MotionKind.BACKWARD)


def wrap_angle(a: float) -> float:
    """Wrap to (-pi, pi]."""
    a = math.fmod(a, 2.0 * math.pi)
    if a > math.pi:
        a -= 2.0 * math.pi
    elif a <= -math.pi:
        a += 2.0 * math.pi
    return a


def step_decision(obs: LocalObservation, theta_star: float, dist_stop: float,
                  angle_tol: float) -> MotionCommand:
    """Stop / rotate / forward / backward from the selected direction.

    Stop when the anchor lies inside dist_stop (cells), whatever the
    heading: the robot has no goal orientation to meet. Rotation triggers
    when the heading axis (either facing) misses theta_star beyond
    angle_tol; the simulator turns toward theta_star the shorter way.
    Otherwise the robot steps (by the simulator's step length) forward or
    backward by the sign of the anchor's component along the current
    heading, so an anchor directly behind is reached by backing up rather
    than turning around.
    """
    (ax, ay), (mx, my) = obs.anchor, obs.main
    gx, gy = ax - mx, ay - my
    if math.hypot(gx, gy) < dist_stop:
        return _STOP
    heading = obs.heading
    axis_err = min(abs(wrap_angle(heading - theta_star)),
                   abs(wrap_angle(heading + math.pi - theta_star)))
    if axis_err > angle_tol:
        return MotionCommand.rotate(theta_star)
    along = gx * math.cos(heading) + gy * math.sin(heading)
    return _FORWARD if along >= 0.0 else _BACKWARD


def pursue(body, aim, heading: float, gate: float) -> MotionCommand:
    """Rotate onto the bearing from ``body`` to ``aim`` while ``heading``
    misses it by more than ``gate`` (rad); otherwise drive forward."""
    bearing = math.atan2(aim[1] - body[1], aim[0] - body[0])
    if abs(wrap_angle(bearing - heading)) > gate:
        return MotionCommand.rotate(bearing)
    return MotionCommand.forward()
