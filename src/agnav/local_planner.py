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

import functools
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


@dataclass(frozen=True)
class LocalObservation:
    """Image-frame geometry for one local planning step (units: grid cells).

    ``main`` is the reference point being steered (the robot body, or the
    carried object while transporting). ``parts`` holds the head/body/tail
    points; heading derives from tail -> head. ``zero`` is the image zero
    point, the origin of the frame by definition, and ``anchor`` the point
    the robot aligns with: the target, or the zero point when no target is
    seen.
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


def _arc(dot: float) -> float:
    return math.acos(min(1.0, max(-1.0, dot)))


def candidate_theta(index: int, count: int) -> float:
    """Heading of candidate ``index`` of ``count`` uniform directions."""
    return 2.0 * math.pi * index / count


@functools.lru_cache(maxsize=16)
def _directions(count: int) -> tuple[tuple[float, float], ...]:
    """(cos, sin) of every candidate heading, computed once per count."""
    return tuple((math.cos(theta), math.sin(theta))
                 for theta in (candidate_theta(i, count) for i in range(count)))


def _arcs(directions, ux: float, uy: float, dist: float) -> list[float]:
    """arccos of each unit heading's dot with (ux, uy) / dist. _arc inlined:
    an in-range dot passes unchanged; anything else, NaN included, clamps as
    min(1.0, max(-1.0, dot)) does."""
    acos = math.acos
    out = []
    for dx, dy in directions:
        dot = (dx * ux + dy * uy) / dist
        out.append(acos(dot if -1.0 <= dot <= 1.0 else 1.0 if dot > 1.0 else -1.0))
    return out


def _score(obs: LocalObservation, w: LocalCostWeights, lookahead: float,
           directions) -> list[tuple[float, float, float, float, float]]:
    """(align, zero, obstacle, window, total) of each unit heading (dx, dy)
    of ``directions``, with the ray cut at ``lookahead`` cells. The terms
    that depend only on the observation (the goal and zero-point offsets and
    their lengths, the offsets from M of the obstacles in reach) are computed
    once, so each heading costs one pass over the obstacles in reach. When
    the target is the zero point, the alignment arcs are the zero-point arcs;
    with no obstacle in reach and every ray endpoint inside the window, the
    rows are built without the per-heading obstacle and window tests."""
    mx, my = obs.main
    zx, zy = -mx, -my
    zdist = math.hypot(zx, zy)
    n = len(directions)
    zeros = _arcs(directions, zx, zy, zdist) if zdist > 0.0 else [0.0] * n
    aligns = [0.0] * n
    if obs.target == LocalObservation.zero:
        # T = Z: the goal offset 0 - M is -M up to the sign of a zero, which
        # changes no dot product's value, so the alignment arc is the zero arc
        if zdist > 0.0:
            scale = w.beta / zdist
            aligns = [scale * arc for arc in zeros]
    elif obs.target is not None:
        tx, ty = obs.target
        gx, gy = tx - mx, ty - my
        dist = math.hypot(gx, gy)
        if dist > 0.0:
            scale = w.beta / dist
            aligns = [scale * arc for arc in _arcs(directions, gx, gy, dist)]
    half, d_safe, eps = w.window_half_extent, w.d_safe, w.epsilon
    q_align, q_zero, q_obstacle = w.q_align, w.q_zero, w.q_obstacle
    q_window_open = w.q_window * 0.0  # the window term where it is open
    hypot = math.hypot
    # an obstacle out of reach scores on no ray: |r| <= t + |r - t d|, so
    # beyond lookahead + d_safe + radius either t > lookahead or its surface
    # lies d_safe or more off the ray (the margin covers rounding)
    offsets = []
    for (ox, oy), radius in obs.obstacles:
        rx, ry = ox - mx, oy - my
        if not hypot(rx, ry) > (lookahead + d_safe + radius) * (1.0 + 1e-9):
            offsets.append((rx, ry, radius))
    if not offsets and ((abs(mx) + lookahead) * (1.0 + 1e-9) < half
                        and (abs(my) + lookahead) * (1.0 + 1e-9) < half):
        # no ray endpoint leaves the window (|m + l d| <= |m| + l per axis)
        # and no obstacle is in reach: every obstacle and window term is 0
        q_no_obstacle = q_obstacle * 0.0
        return [(align, zero, 0.0, 0.0,
                 q_align * align + q_zero * zero + q_no_obstacle + q_window_open)
                for align, zero in zip(aligns, zeros)]
    out = []
    for (dx, dy), align, zero in zip(directions, aligns, zeros):
        obstacle = 0.0
        for rx, ry, radius in offsets:
            t = rx * dx + ry * dy
            if t < 0.0 or t > lookahead:
                continue
            eff = max(0.0, hypot(rx - t * dx, ry - t * dy) - radius)
            if eff < d_safe:
                obstacle += 1.0 / (eff + eps)
        if max(abs(mx + lookahead * dx), abs(my + lookahead * dy)) > half:
            out.append((align, zero, obstacle, math.inf, math.inf))
        else:
            total = q_align * align + q_zero * zero + q_obstacle * obstacle + q_window_open
            out.append((align, zero, obstacle, 0.0, total))
    return out


def cost_local(theta: float, obs: LocalObservation, w: LocalCostWeights) -> LocalCost:
    return LocalCost(*_score(obs, w, w.lookahead, ((math.cos(theta), math.sin(theta)),))[0])


@dataclass(frozen=True)
class Candidate:
    index: int
    theta: float
    cost: LocalCost


@dataclass(frozen=True)
class DirectionChoice:
    """The selected candidate, every candidate's total J by index, and the
    (align, zero, obstacle, window, total) rows they were scored from."""

    theta: float
    index: int
    totals: tuple[float, ...]
    rows: tuple = field(repr=False)

    @property
    def table(self) -> tuple[Candidate, ...]:
        n = len(self.rows)
        return tuple(Candidate(i, candidate_theta(i, n), LocalCost(*row))
                     for i, row in enumerate(self.rows))


def _goal_deviation(theta: float, obs: LocalObservation) -> float:
    gx, gy = obs.anchor[0] - obs.main[0], obs.anchor[1] - obs.main[1]
    dist = math.hypot(gx, gy)
    if dist == 0.0:
        return 0.0
    return _arc((math.cos(theta) * gx + math.sin(theta) * gy) / dist)


def select_direction(obs: LocalObservation, w: LocalCostWeights, *,
                     lookahead: Optional[float] = None) -> DirectionChoice:
    """argmin of cost_local over candidate_count uniform directions, in one
    scan of the totals; the goal-deviation tie-break is evaluated only for
    tied minima. ``lookahead`` (cells, default ``w.lookahead``) cuts the
    ray; it scores as ``replace(w, lookahead=lookahead)`` would."""
    if lookahead is None:
        lookahead = w.lookahead
    elif not 0.0 < lookahead < math.inf:
        raise ValueError(f"lookahead must be positive and finite, got {lookahead}")
    n = w.candidate_count
    rows = tuple(_score(obs, w, lookahead, _directions(n)))
    totals = tuple(row[4] for row in rows)
    index, best, tied = None, math.inf, False
    for i, t in enumerate(totals):  # the least finite total and its first index
        if t < best:
            if math.isfinite(t):
                index, best, tied = i, t, False
        elif t == best and index is not None:
            tied = True
    if index is None:
        raise BlockedError("all candidate directions exit the window")
    if tied:
        index = min((i for i, t in enumerate(totals) if t == best),
                    key=lambda i: (_goal_deviation(candidate_theta(i, n), obs), i))
    return DirectionChoice(candidate_theta(index, n), index, totals, rows)


class MotionKind(Enum):
    STOP = "stop"
    ROTATE = "rotate"
    FORWARD = "forward"
    BACKWARD = "backward"


@dataclass(frozen=True)
class MotionCommand:
    kind: MotionKind
    target_heading: float = 0.0  # rotate only

    @classmethod
    def stop(cls):
        return cls(MotionKind.STOP)

    @classmethod
    def rotate(cls, target_heading: float):
        return cls(MotionKind.ROTATE, target_heading=target_heading)

    @classmethod
    def forward(cls):
        return cls(MotionKind.FORWARD)

    @classmethod
    def backward(cls):
        return cls(MotionKind.BACKWARD)


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
    heading = obs.heading
    gx, gy = obs.anchor[0] - obs.main[0], obs.anchor[1] - obs.main[1]
    if math.hypot(gx, gy) < dist_stop:
        return MotionCommand.stop()
    axis_err = min(abs(wrap_angle(heading - theta_star)),
                   abs(wrap_angle(heading + math.pi - theta_star)))
    if axis_err > angle_tol:
        return MotionCommand.rotate(theta_star)
    along = gx * math.cos(heading) + gy * math.sin(heading)
    return MotionCommand.forward() if along >= 0.0 else MotionCommand.backward()
