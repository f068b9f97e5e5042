"""Strictly increasing homographic reparametrizations of an interval.

Each map sends [a, b] onto [0, 1], 0 at a and 1 at b, and is selected by
one real index alpha < 0 or alpha > 1.  The paper's form
w(x) = alpha (x - a) / (x + (alpha - 1) b - alpha a) is evaluated from the
positive weights p = |alpha| and q = |alpha - 1|, scaled so the larger is 1:

    s = p (x - a),    r = q (b - x),    w = s / (s + r),    1 - w = r / (s + r)

Both terms are nonnegative on [a, b], so neither w nor 1 - w is formed by
subtraction.  ``INFINITY`` (either sign) is the case p = q, the linear map.
A method given an array runs the float arithmetic elementwise, with the
same bits.  The split reparametrizations carry [a, b] onto either piece of
a split at c; they are the parameter maps behind curve subdivision.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, DomainError

#: Index of the limiting linear reparametrization.
INFINITY = math.inf

#: Finite indices closer than this to the forbidden band [0, 1] are rejected.
#: Values, derivatives and ``inverse_pair`` keep full accuracy up to it.  It
#: bounds ``inverse(w)``, given w alone: above 1, w is near 1 on most of
#: [a, b] and the float w holds 1 - w to 2**-53 absolute.  Measured worst
#: x -> value -> inverse error over b - a: 1.4e-7 at 1 + 1e-9, 1.4e-10 at
#: 1 + 1e-6, 1.5e-14 at 1.01, below 4e-15 at -1e-9 and at |alpha| >= 1.
ALPHA_MARGIN = 1e-9

#: Arguments within DOMAIN_RTOL * (b - a) of the interval are clamped onto it;
#: anything further out raises DomainError.  Subdivision recursion accumulates
#: roundoff of this order.
DOMAIN_RTOL = 1e-12


def _clamp(x, lo: float, hi: float, tol: float, name: str):
    """x clamped onto [lo, hi]; DomainError, naming the first bad value as a float,
    if NaN or further than tol outside.  min/max for a float; for an array the
    range test reads its extremes, which are NaN if any entry is, and
    ``np.minimum(hi, np.maximum(lo, x))`` gives the bits of ``np.clip(x, lo, hi)``,
    also for zeros of either sign, without that wrapper's cost."""
    if isinstance(x, (float, int)):
        if not lo - tol <= x <= hi + tol:
            raise DomainError(f"{name}={float(x)!r} outside [{lo}, {hi}]")
        return min(max(x, lo), hi)
    x = np.asarray(x, dtype=float)
    if x.size and not (lo - tol <= x.min() and x.max() <= hi + tol):
        outside = ~((lo - tol <= x) & (x <= hi + tol))
        raise DomainError(f"{name}={float(x[outside].flat[0])!r} outside [{lo}, {hi}]")
    return np.minimum(hi, np.maximum(lo, x))


class Side(enum.Enum):
    """Which piece of a split interval a reparametrization targets."""

    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True)
class HomographyMap:
    """Increasing homography from [a, b] onto [0, 1].

    ``alpha`` must be negative, greater than 1, or ``INFINITY``.  The derived
    ``p`` and ``q`` are |alpha| and |alpha - 1| over the larger of the two,
    and ``gap`` = q - p is formed as +-1 over it, keeping its digits when p
    and q round alike.  Instances are immutable and methods pure.
    """

    a: float
    b: float
    alpha: float
    p: float = field(init=False, repr=False, compare=False)
    q: float = field(init=False, repr=False, compare=False)
    gap: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = float(self.a)
        b = float(self.b)
        alpha = float(self.alpha)
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ArgumentError("interval endpoints must be finite")
        if not a < b:
            raise ArgumentError(f"interval start {a} must be below end {b}")
        if not sys.float_info.min <= b - a < math.inf:  # else s + r can be 0 or inf
            raise ArgumentError(f"interval width {b - a} must be a finite normal float")
        if math.isnan(alpha):
            raise ArgumentError("index must not be NaN")
        if math.isfinite(alpha) and not (alpha <= -ALPHA_MARGIN or alpha >= 1.0 + ALPHA_MARGIN):
            raise ArgumentError(
                f"index {alpha} invalid: need alpha <= -{ALPHA_MARGIN} or alpha >= 1 + {ALPHA_MARGIN}"
            )
        if math.isinf(alpha):
            p, q, gap = 1.0, 1.0, 0.0
        else:  # |alpha - 1| - |alpha| is +1 below the band and -1 above it
            p, q, gap = abs(alpha), abs(alpha - 1.0), math.copysign(1.0, 0.5 - alpha)
        top = max(p, q)  # scaled once, so no later product can overflow
        for name, value in (("a", a), ("b", b), ("alpha", alpha),
                            ("p", p / top), ("q", q / top), ("gap", gap / top)):
            object.__setattr__(self, name, value)

    @property
    def width(self) -> float:
        return self.b - self.a

    def _terms(self, x):
        """s = p (x - a), r = q (b - x) and s + r at x clamped onto [a, b]."""
        x = _clamp(x, self.a, self.b, DOMAIN_RTOL * self.width, "x")
        s, r = self.p * (x - self.a), self.q * (self.b - x)
        return s, r, s + r

    def weights(self, x):
        """(w(x), 1 - w(x)): exactly (0, 1) at a and (1, 0) at b, and each
        within a few ulps elsewhere, however close x is to an end."""
        s, r, d = self._terms(x)
        return s / d, r / d

    def value(self, x):
        """Map x in [a, b] into [0, 1]; exactly 0 at a and exactly 1 at b."""
        return self.weights(x)[0]

    __call__ = value

    def inverse_pair(self, w, u):
        """The x whose weights are proportional to (w, u) >= 0: the average
        (p u a + q w b) / (p u + q w), exactly a at (0, 1) and b at (1, 0)."""
        s = self.q * w
        r = self.p * u
        d = s + r
        return _clamp(self.a * (r / d) + self.b * (s / d), self.a, self.b, math.inf, "x")

    def inverse(self, w):
        """The x in [a, b] with value(x) = w.  The one place 1 - w is formed
        by subtraction, exact for w >= 0.5; see ALPHA_MARGIN."""
        w = _clamp(w, 0.0, 1.0, DOMAIN_RTOL, "w")
        return self.inverse_pair(w, 1.0 - w)

    def _jet(self, x):
        """(w, 1 - w, w', w'') at x from one clamp: the weights as in ``weights``,
        w' = p q (b - a) / (s + r)**2 > 0 on [a, b] and w'' = 2 (q - p) w' / (s + r),
        0 for INFINITY.  The one home of the derivative formulas."""
        s, r, d = self._terms(x)
        w1 = self.p * self.q * self.width / d / d
        return s / d, r / d, w1, 2.0 * self.gap * w1 / d

    def deriv1(self, x):
        """First derivative of value at x; see ``_jet``."""
        return self._jet(x)[2]

    def deriv2(self, x):
        """Second derivative of value at x; see ``_jet``."""
        return self._jet(x)[3]

    def _split_point(self, c) -> float:
        """c as a float; DomainError unless a < c < b.  The one split rule."""
        if not self.a < c < self.b:
            raise DomainError(f"split point {c} must lie strictly inside ({self.a}, {self.b})")
        return float(c)

    def split_left(self, c: float) -> SegmentReparam:
        """Bijection of [a, b] onto [a, c] that multiplies this map by value(c)."""
        return SegmentReparam(self, c, Side.LEFT)

    def split_right(self, c: float) -> SegmentReparam:
        """Bijection of [a, b] onto [c, b], the mirror of :meth:`split_left`."""
        return SegmentReparam(self, c, Side.RIGHT)


@dataclass(frozen=True)
class SegmentReparam:
    """Increasing bijection of [a, b] onto one piece of a split at c.

    The LEFT map u satisfies f(u(t)) = f(c) * f(t) and carries [a, b] onto
    [a, c]; the RIGHT map v satisfies f(v(t)) = 1 - (1 - f(c)) * (1 - f(t))
    and carries [a, b] onto [c, b], where f is the parent homography.  Each
    complement goes to ``inverse_pair`` as a sum of nonnegative terms.
    """

    parent: HomographyMap
    c: float
    side: Side

    def __post_init__(self):
        object.__setattr__(self, "c", self.parent._split_point(self.c))

    def value(self, t: float) -> float:
        f = self.parent
        wt, ut = f.weights(t)
        wc, uc = f.weights(self.c)
        if self.side is Side.LEFT:  # the split end maps to c exactly, the other end by the formula
            return self.c if ut == 0.0 else f.inverse_pair(wc * wt, uc + wc * ut)
        return self.c if wt == 0.0 else f.inverse_pair(wc + uc * wt, uc * ut)

    __call__ = value
