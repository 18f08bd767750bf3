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
"""

from __future__ import annotations

import math
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
    d_safe: float = 1.5       # cells
    epsilon: float = 1e-6     # cells
    lookahead: float = 5.0    # cells
    window_half_extent: float = 10.0  # cells
    candidate_count: int = 36

    def __post_init__(self):
        if not all(math.isfinite(getattr(self, f.name)) for f in fields(self)):
            raise ValueError("weights must be finite")
        if min(self.q_align, self.q_zero, self.q_obstacle, self.q_window, self.beta) < 0:
            raise ValueError("weights must be non-negative")
        if self.epsilon <= 0 or self.d_safe <= 0 or self.lookahead <= 0:
            raise ValueError("epsilon, d_safe, and lookahead must be positive")
        if self.candidate_count < 4:
            raise ValueError("candidate_count must be at least 4")


@dataclass(frozen=True)
class LocalObservation:
    """Image-frame geometry for one local planning step (units: grid cells).

    ``main`` is the reference point being steered (the robot body, or the
    carried object while transporting). ``parts`` holds the head/body/tail
    points; heading derives from tail -> head. ``zero`` is the image zero
    point, the origin of the frame by definition.
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


@dataclass(frozen=True)
class LocalCost:
    align: float
    zero: float
    obstacle: float
    window: float
    total: float


def _arc(dot: float) -> float:
    return math.acos(min(1.0, max(-1.0, dot)))


def _scorer(obs: LocalObservation, w: LocalCostWeights):
    """The cost of a heading as a function of theta alone, returning
    (align, zero, obstacle, window, total). The terms that depend only on
    the observation (the goal and zero-point offsets and their lengths, the
    obstacle offsets from M) are computed here once, so scoring every
    candidate costs one trigonometric pair and one obstacle pass each."""
    mx, my = obs.main
    scale = gx = gy = dist = None
    if obs.target is not None:
        tx, ty = obs.target
        gx, gy = tx - mx, ty - my
        dist = math.hypot(gx, gy)
        if dist > 0.0:
            scale = w.beta / dist
    zx, zy = -mx, -my
    zdist = math.hypot(zx, zy)
    offsets = [(ox - mx, oy - my, radius) for (ox, oy), radius in obs.obstacles]
    lookahead, half, d_safe, eps = w.lookahead, w.window_half_extent, w.d_safe, w.epsilon
    q_align, q_zero, q_obstacle = w.q_align, w.q_zero, w.q_obstacle
    q_window_open = w.q_window * 0.0  # the window term where it is open

    def terms(theta: float):
        dx, dy = math.cos(theta), math.sin(theta)
        align = scale * _arc((dx * gx + dy * gy) / dist) if scale is not None else 0.0
        zero = _arc((dx * zx + dy * zy) / zdist) if zdist > 0.0 else 0.0
        obstacle = 0.0
        for rx, ry, radius in offsets:
            t = rx * dx + ry * dy
            if t < 0.0 or t > lookahead:
                continue
            eff = max(0.0, math.hypot(rx - t * dx, ry - t * dy) - radius)
            if eff < d_safe:
                obstacle += 1.0 / (eff + eps)
        if max(abs(mx + lookahead * dx), abs(my + lookahead * dy)) > half:
            return align, zero, obstacle, math.inf, math.inf
        total = q_align * align + q_zero * zero + q_obstacle * obstacle + q_window_open
        return align, zero, obstacle, 0.0, total

    return terms


def cost_local(theta: float, obs: LocalObservation, w: LocalCostWeights) -> LocalCost:
    return LocalCost(*_scorer(obs, w)(theta))


def candidate_theta(index: int, count: int) -> float:
    """Heading of candidate ``index`` of ``count`` uniform directions."""
    return 2.0 * math.pi * index / count


@dataclass(frozen=True)
class Candidate:
    index: int
    theta: float
    cost: LocalCost


@dataclass(frozen=True)
class DirectionChoice:
    """The selected candidate and every candidate's total J, by index. The
    full cost breakdown (``table``) is rebuilt by the same arithmetic only
    when read."""

    theta: float
    index: int
    totals: tuple[float, ...]
    obs: LocalObservation = field(repr=False)
    weights: LocalCostWeights = field(repr=False)

    @property
    def table(self) -> tuple[Candidate, ...]:
        terms, n = _scorer(self.obs, self.weights), self.weights.candidate_count
        thetas = [candidate_theta(i, n) for i in range(n)]
        return tuple(Candidate(i, theta, LocalCost(*terms(theta)))
                     for i, theta in enumerate(thetas))


def _goal_deviation(theta: float, obs: LocalObservation) -> float:
    goal = obs.target if obs.target is not None else obs.zero
    gx, gy = goal[0] - obs.main[0], goal[1] - obs.main[1]
    dist = math.hypot(gx, gy)
    if dist == 0.0:
        return 0.0
    return _arc((math.cos(theta) * gx + math.sin(theta) * gy) / dist)


def select_direction(obs: LocalObservation, w: LocalCostWeights) -> DirectionChoice:
    """argmin of cost_local over candidate_count uniform directions, in one
    scan of the totals; the goal-deviation tie-break is evaluated only for
    tied minima."""
    terms, n = _scorer(obs, w), w.candidate_count
    totals = tuple(terms(candidate_theta(i, n))[4] for i in range(n))
    finite = [t for t in totals if math.isfinite(t)]
    if not finite:
        raise BlockedError("all candidate directions exit the window")
    best = min(finite)
    tied = [i for i, t in enumerate(totals) if t == best]
    index = tied[0] if len(tied) == 1 else min(
        tied, key=lambda i: (_goal_deviation(candidate_theta(i, n), obs), i))
    return DirectionChoice(candidate_theta(index, n), index, totals, obs, w)


class MotionKind(Enum):
    STOP = "stop"
    ROTATE = "rotate"
    FORWARD = "forward"
    BACKWARD = "backward"


@dataclass(frozen=True)
class MotionCommand:
    kind: MotionKind
    target_heading: float = 0.0  # rotate only
    distance: float = 0.0        # forward/backward, cells

    @classmethod
    def stop(cls):
        return cls(MotionKind.STOP)

    @classmethod
    def rotate(cls, target_heading: float):
        return cls(MotionKind.ROTATE, target_heading=target_heading)

    @classmethod
    def forward(cls, distance: float):
        return cls(MotionKind.FORWARD, distance=distance)

    @classmethod
    def backward(cls, distance: float):
        return cls(MotionKind.BACKWARD, distance=distance)


@dataclass(frozen=True)
class StepThresholds:
    dist_stop: float = 0.5   # cells
    angle_tol: float = 0.1   # rad
    step: float = 0.25       # cells


def wrap_angle(a: float) -> float:
    """Wrap to (-pi, pi]."""
    a = math.fmod(a, 2.0 * math.pi)
    if a > math.pi:
        a -= 2.0 * math.pi
    elif a <= -math.pi:
        a += 2.0 * math.pi
    return a


def step_decision(obs: LocalObservation, theta_star: float,
                  thresholds: StepThresholds) -> MotionCommand:
    """Stop / rotate / forward / backward from the selected direction.

    Stop when the goal lies inside dist_stop, whatever the heading: the
    robot has no goal orientation to meet. Rotation triggers when the
    heading axis (either facing) misses theta_star beyond angle_tol; the
    rotation sign is left to the simulator's clearance rule. Otherwise the
    robot steps forward or backward by the sign of the goal's component
    along the current heading, so a goal directly behind is reached by
    backing up rather than turning around.
    """
    goal = obs.target if obs.target is not None else obs.zero
    heading = obs.heading
    gx, gy = goal[0] - obs.main[0], goal[1] - obs.main[1]
    if math.hypot(gx, gy) < thresholds.dist_stop:
        return MotionCommand.stop()
    axis_err = min(abs(wrap_angle(heading - theta_star)),
                   abs(wrap_angle(heading + math.pi - theta_star)))
    if axis_err > thresholds.angle_tol:
        return MotionCommand.rotate(theta_star)
    along = gx * math.cos(heading) + gy * math.sin(heading)
    if along >= 0.0:
        return MotionCommand.forward(thresholds.step)
    return MotionCommand.backward(thresholds.step)
