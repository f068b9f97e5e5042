"""The homography-indexed rational Bernstein basis.

For a degree n and a reparametrization w of [a, b], the basis functions are

    B_i(x) = C(n, i) * w(x)**i * (1 - w(x))**(n - i),    i = 0..n

Each B_i is a rational function of degree (n, n) in x (a polynomial when the
classical linear reparametrization is selected).  The family is positive,
sums to 1, and is linearly independent.  One kernel, ``_bernstein``,
evaluates the closed form from the homography's pair (w, 1 - w) at one
point or an array of them.  Neither weight is formed by subtraction, so
each value keeps its relative accuracy up to the ends and the index
margins.  The values, derivatives, degree-raising identities and
collocation matrices all come from it; peak locations are inverse(i/n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ArgumentError, DomainError, _check_count
from .homography import HomographyMap

#: Specs above this degree are rejected at construction.
MAX_DEGREE = 60


@lru_cache(maxsize=None)
def binomial_row(n: int) -> np.ndarray:
    """C(n, 0..n) as a read-only float array.

    The entries are the exact binomials for n <= 56; from n = 57 the
    largest ones exceed 2**53 and are rounded to the nearest double.
    """
    row = np.array([math.comb(n, i) for i in range(n + 1)], dtype=float)
    row.flags.writeable = False
    return row


def _powers(base: np.ndarray, kmax: int) -> np.ndarray:
    """[1, base, base**2, ..., base**kmax] along a new last axis; 0**0 == 1."""
    out = np.empty(base.shape + (kmax + 1,))
    out[..., 0] = 1.0
    out[..., 1:] = base[..., None]
    return np.multiply.accumulate(out, axis=-1, out=out)


def _bernstein(n: int, w, u) -> np.ndarray:
    """C(n, i) * w**i * u**(n - i), i = 0..n, along a new last axis of w; u = 1 - w."""
    p = _powers(np.array([w, u], dtype=float), n)
    return binomial_row(n) * p[0] * p[1, ..., ::-1]


def _differenced(n: int, w: float, u: float, order: int) -> np.ndarray:
    """d^order/dw^order of the degree-n basis over n!/(n-order)!, from the
    identity d/dw B^m_i = m (B^(m-1)_(i-1) - B^(m-1)_i), B^(m-1) = 0 outside 0..m-1.
    """
    if order > n:
        return np.zeros(n + 1)
    d = np.zeros(n + 1 + order)  # the lower-degree values padded with order zeros a side
    d[order:-order] = _bernstein(n - order, w, u)
    for _ in range(order):
        d = d[:-1] - d[1:]
    return d


def peak_value(n: int, i: int) -> float:
    """Height of the unique maximum of B_i: C(n,i) * i**i * (n-i)**(n-i) / n**n.

    Independent of the reparametrization index.  Evaluated as an exact
    integer ratio (0**0 == 1), so equal indices give bit-identical values.
    """
    n, i = _check_count("degree", n, 0), _check_count("index", i, 0, n)
    if n == 0:
        return 1.0
    return math.comb(n, i) * i**i * (n - i) ** (n - i) / n**n


@dataclass(frozen=True)
class MaxPoint:
    """Location and height of the unique maximum of one basis function."""

    index: int
    location: float
    value: float


@dataclass(frozen=True)
class BasisSpec:
    """A basis family: a degree plus the reparametrization of its interval.

    Degree 0 is allowed as the constant-1 convention.  Instances are
    immutable and every method is pure.
    """

    degree: int
    homography: HomographyMap

    def __post_init__(self):
        object.__setattr__(self, "degree", _check_count("degree", self.degree, 0, MAX_DEGREE))

    @property
    def a(self) -> float:
        return self.homography.a

    @property
    def b(self) -> float:
        return self.homography.b

    def raised(self) -> "BasisSpec":
        """The spec one degree higher on the same reparametrization."""
        return BasisSpec(self.degree + 1, self.homography)

    def values(self, x) -> np.ndarray:
        """All n+1 basis values at x, from the closed form.

        A 1-D array of m points gives the (m, n+1) table whose row j equals
        values(x[j]) bit for bit.  Nonnegative, summing to 1; exactly
        (1, 0, ..., 0) at a and (0, ..., 0, 1) at b.
        """
        return _bernstein(self.degree, *self.homography.weights(x))

    def values_recursive(self, x: float) -> np.ndarray:
        """All n+1 basis values at one point x, built bottom-up from the two-term recursion.

        Level r sets B_i = w * B_(i-1) + u * B_i from level r - 1, where B_r
        of level r - 1 is 0.  It runs on Python floats and makes one array
        at the end.
        """
        w, u = self.homography.weights(x)
        vals = [1.0]
        for _ in range(self.degree):
            vals = [u * vals[0]] + [w * lo + u * hi for lo, hi in zip(vals, vals[1:] + [0.0])]
        return np.array(vals)

    def derivatives(self, x: float, order: int = 1) -> np.ndarray:
        """First or second x-derivatives of all basis functions at x.

        The chain rule applied to w-derivatives taken as differences of
        the closed form one and two degrees lower; defined for every degree.
        """
        return self._derivative_rows(x, _check_count("order", order, 1, 2))[-1]

    def _derivative_rows(self, x: float, order: int) -> tuple:
        """The x-derivative rows of orders 1..order at x: one ``_jet`` call, and
        the degree n-1 difference table g1 built once and shared by both orders."""
        n = self.degree
        w, u, w1, w2 = self.homography._jet(x)
        g1 = _differenced(n, w, u, 1)
        first = g1 * (n * w1)
        if order == 1:
            return (first,)
        return first, _differenced(n, w, u, 2) * (n * (n - 1) * w1 * w1) + g1 * (n * w2)

    def maxima(self) -> list[MaxPoint]:
        """Peak location and height of each basis function.

        The peak of B_i sits where w equals i/n; its height does not depend
        on the reparametrization index and is symmetric under i <-> n - i.
        All n+1 locations come from one array ``inverse`` call.
        """
        n = self.degree
        locations = self.homography.inverse(np.arange(n + 1) / max(n, 1)).tolist()
        return [MaxPoint(i, x, peak_value(n, i)) for i, x in enumerate(locations)]


def elevation_residual(spec: BasisSpec, x: float) -> float:
    """Largest absolute residual of the two degree-raising identities at x.

    The identities relate degree-n and degree-(n+1) values:
    (1 - w) * B_i of degree n equals (n+1-i)/(n+1) times B_i of degree n+1,
    and w * B_i equals (i+1)/(n+1) times B_{i+1} of degree n+1.  Both rows
    come from the one weight pair (w, 1 - w) at x.
    """
    n = spec.degree
    w, u = spec.homography.weights(x)
    lo = _bernstein(n, w, u)
    hi = _bernstein(n + 1, w, u)
    i = np.arange(n + 1)
    down = np.abs(u * lo - (n + 1.0 - i) / (n + 1.0) * hi[:-1])
    up = np.abs(w * lo - (i + 1.0) / (n + 1.0) * hi[1:])
    return float(max(down.max(), up.max()))


def collocation_matrix(spec: BasisSpec, nodes) -> np.ndarray:
    """Matrix with row j holding the basis values at nodes[j].

    Rows sum to 1.  For n+1 distinct nodes the matrix is nonsingular, which
    is the finite-precision face of linear independence.  Nodes must be
    strictly increasing and lie inside the parameter interval.
    """
    xs = np.asarray(nodes, dtype=float)
    if xs.ndim != 1 or xs.size == 0:
        raise ArgumentError("nodes must be a nonempty 1-D sequence")
    if np.any(np.diff(xs) <= 0.0):
        raise ArgumentError("nodes must be strictly increasing")
    try:
        return spec.values(xs)
    except DomainError:
        raise ArgumentError(f"nodes must lie inside [{spec.a}, {spec.b}]") from None


def rowwise_dot(rows: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """rows[j] @ coeffs for each row j; sum_i c_i B_i(x) on a grid for a basis table.

    A stack of 1-row products, so each row rounds like a lone ``row @ coeffs``;
    one (m, k) @ (k, ...) matrix product would round differently.
    """
    return np.matmul(rows[:, None, :], coeffs)[:, 0]


def is_nonsingular(matrix: np.ndarray, threshold: float = 1e-10) -> bool:
    """True when the smallest singular value exceeds threshold * spectral norm."""
    s = np.linalg.svd(np.asarray(matrix, dtype=float), compute_uv=False)
    return bool(s[-1] > threshold * s[0])
