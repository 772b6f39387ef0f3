"""Trigonometric polynomials on the circle R/Z and wavelet filter calculus.

The basis convention is e_k(t) = exp(-2 pi i k t).  A filter (a_k) has
modulation m(t) = sum a_k e_k(t) and induced weight W = |m|^2; the
transfer operator of scaling degree d sums f over the d preimages of
t under t -> d t mod 1, weighted by W:

    (T_W f)(t) = sum_{d y = t} W(y) f(y).

In coefficients this is (T_W f)_k = d * (W f)_{d k}, which is how it is
computed here; every identity asserted in this module then has a second,
independent, pointwise route on a grid.

Coefficients may be int, Fraction, float, or complex.  Integer and
Fraction coefficients survive products, transfer steps, and inner
products exactly; this is what makes several of the checks below exact
rather than approximate.

Solenoid walks live on exact dyadic rationals: the state after k steps
from level-L start is numerator / 2^(L+k) with the numerator carried as
an integer, so a long walk cannot drift.  SolenoidEnsemble.evaluate
matches walks.PathEnsemble.evaluate, so walks.covariance_mc estimates on
both walks; the walk and those rows evaluate through TrigPoly.real_part.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from .rng import _bits_threshold, path_keys, run_blocks, step_bits, step_uniforms
from .tree import encode_int

__all__ = [
    "TrigPoly",
    "WaveletFilter",
    "DyadicAngle",
    "SolenoidEnsemble",
    "QmfReport",
    "haar_filter",
    "four_tap_filter",
    "modulation",
    "qmf_check",
    "w_from_filter",
    "transfer_apply",
    "cantor_filter",
    "lowpass_check",
    "cascade_phihat",
    "tightness_defect",
    "pt_cylinder_mass",
    "strong_invariance_check",
    "v_adjoint_check",
    "solenoid_walk",
    "solenoid_covariance_exact",
]

_REAL_TOL = 1e-12  # |c_{-k} - conj(c_k)| of a real TrigPoly; |W(0) - 1| and |W(j/d)| of a low-pass W
_IDENTITY_TOL = 1e-10  # a QMF residual; the l1 norm of the coefficients of T_W 1 - 1 of a solenoid W


class TrigPoly:
    """A finitely supported Fourier series sum_k c_k exp(-2 pi i k t)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict):
        clean = {}
        for k, c in coeffs.items():
            if not isinstance(k, int) or isinstance(k, bool):
                raise TypeError(f"frequency {k!r} is not an integer")
            if c != 0:
                clean[k] = c
        self.coeffs = clean

    @classmethod
    def basis(cls, k: int) -> "TrigPoly":
        return cls({k: 1})

    @classmethod
    def constant(cls, c) -> "TrigPoly":
        return cls({0: c})

    def coefficient(self, k: int):
        return self.coeffs.get(k, 0)

    def __add__(self, other):
        if not isinstance(other, TrigPoly):
            return NotImplemented
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) + c
        return TrigPoly(out)

    def __sub__(self, other):
        if not isinstance(other, TrigPoly):
            return NotImplemented
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) - c
        return TrigPoly(out)

    def __neg__(self):
        return TrigPoly({k: -c for k, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, TrigPoly):
            out = {}
            for k1, c1 in self.coeffs.items():
                for k2, c2 in other.coeffs.items():
                    k = k1 + k2
                    out[k] = out.get(k, 0) + c1 * c2
            return TrigPoly(out)
        return TrigPoly({k: c * other for k, c in self.coeffs.items()})

    def __rmul__(self, other):
        return TrigPoly({k: other * c for k, c in self.coeffs.items()})

    def conjugate(self) -> "TrigPoly":
        """Pointwise complex conjugate: coefficient k becomes conj(c_{-k})."""
        return TrigPoly({-k: c.conjugate() for k, c in self.coeffs.items()})

    def compose_scale(self, d: int) -> "TrigPoly":
        """f(d t): every frequency k moves to d k."""
        if d < 1:
            raise ValueError("scale must be a positive integer")
        return TrigPoly({d * k: c for k, c in self.coeffs.items()})

    def integral(self):
        """Integral over one period: the coefficient at frequency 0."""
        return self.coeffs.get(0, 0)

    def inner(self, other: "TrigPoly"):
        """L2(R/Z) pairing via Parseval: sum_k conj(self_k) other_k."""
        total = 0
        for k, c in self.coeffs.items():
            oc = other.coeffs.get(k)
            if oc is not None:
                total += c.conjugate() * oc
        return total

    def is_real(self) -> bool:
        """Whether the function is real-valued: c_{-k} = conj(c_k) within 1e-12."""
        for k in set(self.coeffs) | {-k for k in self.coeffs}:
            if abs(complex(self.coeffs.get(k, 0)) - complex(self.coeffs.get(-k, 0)).conjugate()) > _REAL_TOL:
                return False
        return True

    def __call__(self, t):
        """Complex values at a scalar or array of positions: sum complex(c_k) exp(-2 pi i k t) in sorted-k order."""
        arr = np.asarray(t, dtype=np.float64)
        out = np.zeros(arr.shape, dtype=np.complex128)
        for k in sorted(self.coeffs):
            out += complex(self.coeffs[k]) * np.exp((-2j * np.pi * k) * arr)
        return complex(out) if arr.ndim == 0 else out

    def real_part(self, t):
        """Real part of the value at a scalar or array of finite positions.

        One cosine per distinct |k|, one sine only where a complex coefficient
        reads it, both reused by the -k term.  Summed in sorted-k order, so for
        real coefficients it is the real part of __call__ bit for bit.
        """
        arr = np.asarray(t, dtype=np.float64)
        terms = [(k, complex(self.coeffs[k])) for k in sorted(self.coeffs)]
        with_sine = {abs(k) for k, c in terms if c.imag != 0}
        re = np.zeros(arr.shape)
        term = np.empty(arr.shape)  # each product lands here, so no term allocates
        waves = {}
        for k, c in terms:
            if k == 0:
                re += c.real
                continue
            if abs(k) not in waves:
                theta = np.multiply(-2.0 * math.pi * abs(k), arr, out=np.empty(arr.shape))
                sin = np.sin(theta) if abs(k) in with_sine else None
                waves[abs(k)] = (np.cos(theta, out=theta), sin)
            cos, sin = waves[abs(k)]
            if c.imag == 0:
                re += np.multiply(c.real, cos, out=term)
            else:  # theta_{-k} = -theta_k: the sine changes sign with k
                re += c.real * cos - (c.imag if k > 0 else -c.imag) * sin
        return float(re) if re.ndim == 0 else re

    def __eq__(self, other):
        return isinstance(other, TrigPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self):
        inside = ", ".join(f"{k}: {self.coeffs[k]!r}" for k in sorted(self.coeffs))
        return f"TrigPoly({{{inside}}})"


@dataclass(frozen=True)
class WaveletFilter:
    """Taps a_0, a_1, ... of a dyadic (scaling degree 2) filter."""

    taps: tuple

    def __post_init__(self):
        if not self.taps:
            raise ValueError("a filter needs at least one tap")
        object.__setattr__(self, "taps", tuple(self.taps))

    def tap_sum(self):
        return sum(self.taps)


def haar_filter() -> WaveletFilter:
    """a = (1/2, 1/2), exact."""
    return WaveletFilter((Fraction(1, 2), Fraction(1, 2)))


def four_tap_filter() -> WaveletFilter:
    """The 4-tap QMF filter with one vanishing moment beyond normalization.

    Solves sum a_k = 1, sum a_k a_{k+2} = 0, sum a_k^2 = 1/2 together with
    the flatness condition a_0 - a_1 + a_2 - a_3 = 0.
    """
    r = math.sqrt(3.0)
    return WaveletFilter(((1 + r) / 8, (3 + r) / 8, (3 - r) / 8, (1 - r) / 8))


def _as_filter(a) -> WaveletFilter:
    if isinstance(a, WaveletFilter):
        return a
    return WaveletFilter(tuple(a))


def modulation(a) -> TrigPoly:
    """m(t) = sum_k a_k e_k(t) for taps indexed from k = 0."""
    a = _as_filter(a)
    return TrigPoly({k: c for k, c in enumerate(a.taps)})


@dataclass(frozen=True)
class QmfReport:
    """Residuals of the quadrature-mirror conditions for a filter."""

    orthogonality: dict
    normalization: float

    @property
    def passed(self) -> bool:
        worst = max(self.orthogonality.values(), default=0.0)
        return worst <= _IDENTITY_TOL and self.normalization <= _IDENTITY_TOL


def qmf_check(a) -> QmfReport:
    """Residuals of sum_k conj(a_k) a_{k+2l} = (1/2) delta_{l,0} and sum a_k = 1."""
    a = _as_filter(a)
    taps = a.taps
    n = len(taps)
    max_l = (n - 1) // 2
    orth = {}
    for l in range(-max_l, max_l + 1):
        acc = 0
        for k in range(n):
            j = k + 2 * l
            if 0 <= j < n:
                acc += taps[k].conjugate() * taps[j]
        target = Fraction(1, 2) if l == 0 else 0
        orth[l] = float(abs(acc - target))
    norm_res = float(abs(a.tap_sum() - 1))
    return QmfReport(orthogonality=orth, normalization=norm_res)


def w_from_filter(a) -> TrigPoly:
    """W = |m|^2 as an exact coefficient convolution; real, >= 0 on the circle."""
    m = modulation(a)
    return m.conjugate() * m


def _branch_sums(w: dict, f: dict, degree: int) -> dict:
    """{k: degree * (W f)_{degree k}} from coefficient dicts, zeros dropped: the one branch-sum loop.

    Only the products that land on multiples of degree are formed: f's
    terms are grouped by k2 mod degree, in f's order, and each k1 of w
    meets only the group with k1 + k2 = 0 mod degree.  So the products
    are added in the order w * f adds them, each frequency first appears
    where it does in w * f, float coefficients keep the bits of the full
    product and int coefficients stay ints.
    """
    groups = {}
    for k2, c2 in f.items():
        groups.setdefault(k2 % degree, []).append((k2, c2))
    out = {}
    for k1, c1 in w.items():
        for k2, c2 in groups.get(-k1 % degree, ()):
            k = (k1 + k2) // degree
            out[k] = out.get(k, 0) + c1 * c2
    return {k: v for k, c in out.items() if (v := degree * c) != 0}


def transfer_apply(w: TrigPoly, f: TrigPoly, degree: int) -> TrigPoly:
    """(T_W f)_k = degree * (W f)_{degree k}: the branch sum in coefficients."""
    if degree < 2:
        raise ValueError("scaling degree must be at least 2")
    return TrigPoly(_branch_sums(w.coeffs, f.coeffs, degree))


def cantor_filter() -> TrigPoly:
    """The degree-3 weight (1/6)|1 + z^2|^2, z = e_1: coefficients {0: 1/3, +-2: 1/6}.

    Its branch sums are exactly 1 (T_W fixes constants) yet W(0) = 2/3,
    so it is not low-pass: the invariant measure is spread out rather
    than sitting at 0.
    """
    return TrigPoly({0: Fraction(1, 3), 2: Fraction(1, 6), -2: Fraction(1, 6)})


def lowpass_check(w: TrigPoly, degree: int) -> bool:
    """Whether delta_0 is invariant for T_W: W(0) = 1 and W(j/d) = 0 for 0 < j < d, within 1e-12."""
    if degree < 2:
        raise ValueError("scaling degree must be at least 2")
    if not w.is_real():
        raise ValueError("W must be real-valued")
    if abs(w(0.0) - 1.0) > _REAL_TOL:
        return False
    return all(abs(w(j / degree)) <= _REAL_TOL for j in range(1, degree))


def _phihat_grid(a, ts: np.ndarray, depth: int) -> np.ndarray:
    """prod_{j=1..depth} m(t / 2^j) on an array of t values."""
    mp = modulation(a)
    acc = np.ones(ts.shape, dtype=np.complex128)
    for j in range(depth, 0, -1):
        u = np.ldexp(ts, -j)
        acc = acc * np.asarray(mp(u), dtype=np.complex128)
    return acc


def cascade_phihat(a, t: float, depth: int) -> complex:
    """Depth-J cascade approximation to the Fourier transform of the scaler.

    phihat_J(t) = prod_{j=1}^{J} m(t / 2^j); for a normalized filter
    phihat_J(0) = 1 exactly, and for the Haar filter the J -> infinity
    limit is e^{-i pi t} sin(pi t)/(pi t).

    The two-scale recursion phihat_J(t) = m(t/2) * phihat_{J-1}(t/2) holds
    as an equality of floats, not just to rounding: t/2^j == (t/2)/2^(j-1)
    bitwise, each factor is evaluated through TrigPoly.__call__, and the
    left-multiplied Python-complex accumulation below builds the same
    product tree a caller composing those two expressions would.  t/2^j
    is ldexp(t, -j), the bits of the division without the float 2^j,
    which overflows from j = 1024.
    """
    if depth < 1:
        raise ValueError("cascade depth must be at least 1")
    mp = modulation(a)
    tf = float(t)
    acc = complex(1.0)
    for j in range(depth, 0, -1):
        acc = complex(mp(math.ldexp(tf, -j))) * acc
    return acc


def tightness_defect(a, t: float, K: int, depth: int) -> float:
    """1 - sum_{|n| <= K} |phihat_J(t + n)|^2.

    Near 0 exactly when the integer translates of the scaler are an
    orthonormal family; always >= -eps by the Bessel bound, and can reach
    1 when mass escapes the lattice entirely (stretched filters).
    """
    if K < 1 or depth < 1:
        raise ValueError("need K >= 1 and depth >= 1")
    ts = float(t) + np.arange(-K, K + 1, dtype=np.float64)
    vals = _phihat_grid(a, ts, depth)
    return float(1.0 - np.sum(np.abs(vals) ** 2))


def pt_cylinder_mass(a, t: float, word: str, depth: int = 20) -> float:
    """Mass |phihat_J(t + n_w)|^2 of the cylinder named by a binary word.

    n_w is the signed-integer reading of the word (encode_int), so the
    cylinders of a fixed length tile the integer shifts of t.
    """
    if word == "":
        raise ValueError("cylinder words are nonempty")
    shift = encode_int(word)
    return float(abs(cascade_phihat(a, float(t) + shift, depth)) ** 2)


def strong_invariance_check(f: TrigPoly, degree: int) -> float:
    """|integral of the branch average of f - integral of f|; 0 for Lebesgue.

    The branch average is T_W f with the flat weight W = 1/degree.  Both
    integrals are coefficients at frequency zero, so for int or Fraction
    input the result is exact (and exactly 0.0).
    """
    w = TrigPoly.constant(Fraction(1, degree))
    avg = transfer_apply(w, f, degree)
    return float(abs(avg.integral() - f.integral()))


def v_adjoint_check(m: TrigPoly, f: TrigPoly, g: TrigPoly, degree: int = 2) -> float:
    """|<Vf, g> - <f, V*g>| for V f = m (f o sigma), sigma(t) = degree t.

    The adjoint is computed independently as (V*g)_k = (conj(m) g)_{dk}
    (the branch average against conj(m)); both pairings go through
    Parseval on coefficients.
    """
    if degree < 2:
        raise ValueError("scaling degree must be at least 2")
    vf = m * f.compose_scale(degree)
    lhs = vf.inner(g)
    mg = m.conjugate() * g
    vstar = TrigPoly({k // degree: c for k, c in mg.coeffs.items() if k % degree == 0})
    rhs = f.inner(vstar)
    return float(abs(complex(lhs) - complex(rhs)))


@dataclass(frozen=True)
class DyadicAngle:
    """An exact point numerator / 2^level of the circle, in [0, 1).

    Both fields are read through operator.index and stored as int, so a
    numpy integer is accepted; a bool, a float or a Fraction is a
    TypeError even when its value is integral.
    """

    numerator: int
    level: int

    def __post_init__(self):
        for name in ("numerator", "level"):
            value = getattr(self, name)
            if isinstance(value, bool):
                raise TypeError(f"DyadicAngle {name} must be an integer, not bool")
            object.__setattr__(self, name, operator.index(value))
        if self.level < 0:
            raise ValueError("level must be nonnegative")
        if not 0 <= self.numerator < (1 << self.level):
            raise ValueError("numerator out of range for the level")

    @property
    def value(self) -> float:
        return self.numerator / (1 << self.level)

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, 1 << self.level)


@dataclass(frozen=True)
class SolenoidEnsemble:
    """Paths of exact dyadic angles; the level grows by one per step.

    numerators[path, step] is the numerator at that step.  solenoid_walk
    stores one contiguous row per step and passes its transpose, so a
    step's column (what angles reads) is contiguous in memory.
    """

    seed: int
    start_level: int
    numerators: np.ndarray

    @property
    def n_paths(self) -> int:
        return self.numerators.shape[0]

    @property
    def n_steps(self) -> int:
        return self.numerators.shape[1] - 1

    def level(self, step: int) -> int:
        """The level at one step; this and angles, evaluate and angle refuse a step outside 0..n_steps."""
        if not 0 <= step <= self.n_steps:
            raise ValueError(f"step {step} is outside 0..{self.n_steps}")
        return self.start_level + step

    def angles(self, step: int) -> np.ndarray:
        """Angle values at one step, as floats (exact up to 53-bit levels)."""
        denom = float(1 << self.level(step))
        return self.numerators[:, step].astype(np.float64) / denom

    def evaluate(self, f, step: int) -> np.ndarray:
        """f(angles(step)) by one call to a pointwise f, such as a TrigPoly or its real_part.

        _at_dyadics decides on the whole column, not one of the walk's
        blocks, whether f sees the occupied range instead: the same bits.
        A column on one numerator (every step of a walk from a fixed
        point) calls f on that one point and fills the column with
        np.full.
        """
        level = self.level(step)
        return _at_dyadics(f, self.numerators[:, step], level)

    def angle(self, path: int, step: int) -> DyadicAngle:
        level = self.level(step)
        return DyadicAngle(int(self.numerators[path, step]), level)


def _dyadic_values(fn, nums, level):
    """fn at nums / 2^level: one numpy scalar when every entry of nums is one integer, else an array like nums.

    One scan finds the occupied range [lo, hi].  When lo == hi, fn is
    called on that one point and its value returned as it is, without a
    per-entry subtract, astype or gather.  Otherwise fn is called once
    per integer of the range, and its values gathered, when the range
    holds at most half as many integers as nums has entries, and once
    on every entry when it does not.  Inside the walk nums is one block
    of the plan (at most rng.BLOCK paths), so the choice is made per
    block.  fn must act pointwise; numpy's elementwise ufuncs do not
    depend on where a value sits in its array, and the range is
    converted from uint64 like the numerators themselves (the same
    integer gives the same float, above 2^53 too), so the one value and
    the gathered values are the direct ones bit for bit.  The one-value
    case serves the walks from the default fixed-point start
    DyadicAngle(0, 0); if that default moves to a level start, it is to
    be re-measured together with the range grid, and deleted if no
    workload still gains from it.
    """
    denom = float(1 << level)
    lo, hi = int(nums.min()), int(nums.max())
    if lo == hi or hi - lo < nums.size // 2:
        values = fn(np.arange(lo, hi + 1, dtype=np.uint64).astype(np.float64) / denom)
        return values[0] if lo == hi else values[(nums - np.uint64(lo)).astype(np.intp)]
    return fn(nums.astype(np.float64) / denom)


def _at_dyadics(fn, nums, level):
    """fn at nums / 2^level as an array like nums: _dyadic_values, with one value filled out by np.full.

    The one value has fn's dtype, so the filled column has the bytes of
    direct evaluation: complex for a TrigPoly, float for its real_part.
    """
    values = _dyadic_values(fn, nums, level)
    return np.full(nums.shape, values) if np.ndim(values) == 0 else values


def _solenoid_block(w, n_steps, start_level, start_num, seed, out, first, count):
    """Walk paths first .. first+count-1 into out, which is step-major: row k holds every numerator at step k.

    A flat W (no coefficient but the constant) has one value at every
    angle, read once per block from one real_part call.  Otherwise each
    step scans the block's numerators once, in _dyadic_values, and on
    one numerator (every step from the default DyadicAngle(0, 0) of the
    Haar and four-tap walks) p_low is again one scalar.  The bounds
    check and the certain-low skip read a scalar p_low directly, and
    its draws are the raw words of step_bits compared with one integer
    threshold, rng._bits_threshold; an array p_low is compared with
    step_uniforms.  Each step is written into its row of out in place,
    and a step where no path goes high copies the row before it.
    """
    keys = path_keys(seed, first, count)
    if start_num is None:
        # uniform start: the top start_level bits of the step-0 draw name a cell of the level grid
        bits = step_bits(keys, 0)
        nums = bits >> np.uint64(64 - start_level) if start_level else np.zeros(count, dtype=np.uint64)
    else:
        nums = np.full(count, start_num, dtype=np.uint64)
    out[0, first : first + count] = nums
    flat = w.real_part(0.0) if w.coeffs.keys() <= {0} else None
    for k in range(n_steps):
        level = start_level + k
        # the low branch of nums / 2^level is nums / 2^(level+1)
        p_low = flat if flat is not None else _dyadic_values(w.real_part, nums, level + 1)
        lowest, highest = (p_low, p_low) if np.ndim(p_low) == 0 else (p_low.min(), p_low.max())
        # p_low > 1 means the complementary branch weight is negative; NaN fails both bounds
        if not (lowest >= -1e-12 and highest <= 1.0 + 1e-12):
            raise ValueError("negative W sample along the walk")
        row = out[k + 1, first : first + count]
        row[...] = nums
        # nums < 2^level, so bit `level` is clear and the high branch sets it.  A draw
        # u in [0, 1 - 2^-53] goes high iff u >= p_low, so a step where every path
        # goes low for certain draws nothing; draws are keyed by step, so no other draw moves
        if lowest < 1.0:
            if np.ndim(p_low) == 0:
                high = step_bits(keys, k + 1) >= _bits_threshold(p_low)
            else:
                high = step_uniforms(keys, k + 1) >= p_low
            if high.any():
                row |= high.astype(np.uint64) << np.uint64(level)
        nums = row


def _read_start(start):
    """(level, numerator) of a DyadicAngle start; (L, None) for uniform on the level-L grid."""
    if isinstance(start, DyadicAngle):
        return start.level, start.numerator
    if int(start) < 0:
        raise ValueError("start level must be nonnegative")
    return int(start), None


def solenoid_walk(w: TrigPoly, n_steps: int, n_paths: int, seed: int, start=DyadicAngle(0, 0)) -> SolenoidEnsemble:
    """Random walk on inverse orbits of doubling: from t, step to t/2 or t/2 + 1/2.

    The branch probabilities are W evaluated at the branch itself
    (p(t, y) = W(y)), which requires T_W 1 = 1: before any drawing, the l1
    norm of the coefficients of T_W 1 - 1, a bound on every branch-sum
    deviation, must be at most 1e-10.  start may be a DyadicAngle, or an
    integer level L meaning uniform on the 2^L-point grid.  Levels are
    capped so that numerators stay inside 64 bits.

    The paths run in the blocks of rng.block_plan: one block of all the
    paths up to rng.BLOCK, near-equal blocks of at most rng.BLOCK above
    it.  In each block, a step evaluates W once per integer of the
    block's occupied numerator range when that range holds at most half
    as many integers as the block has paths, and draws no uniforms when
    every path of the block goes low for certain (all p_low >= 1); draws
    are keyed by (path, step), so neither the plan nor these shortcuts
    move a numerator.  A flat W (only a constant term, as W = 1/2) is
    evaluated once per block, from any start, and when the block sits on
    one numerator, as every step of the walks from the default
    DyadicAngle(0, 0) start does, W is evaluated at that one point.
    Either way the bounds check, the skip and the draw read the one value
    and no per-path p_low is built: the raw 64-bit draws are compared
    with one integer threshold that splits them exactly as their
    uniforms split at the value.
    """
    if n_steps < 0 or n_paths < 1:
        raise ValueError("need n_steps >= 0 and n_paths >= 1")
    if not w.is_real():
        raise ValueError("W must be real-valued")
    one = TrigPoly.constant(1)
    worst = sum(abs(c) for c in (transfer_apply(w, one, 2) - one).coeffs.values())
    if not worst <= _IDENTITY_TOL:  # a NaN deviation fails too
        raise ValueError(f"W branches do not sum to 1 (deviation {float(worst):.3e}); not a transition weight")
    start_level, start_num = _read_start(start)
    if start_level + n_steps > 62:
        raise ValueError("start level plus steps exceeds 62; numerators would overflow")
    out = np.empty((n_steps + 1, n_paths), dtype=np.uint64)
    run_blocks(partial(_solenoid_block, w, n_steps, start_level, start_num, seed, out), n_paths)
    return SolenoidEnsemble(seed=seed, start_level=start_level, numerators=out.T)


def _integer_numerators(coeffs: dict) -> tuple:
    """(numerators, d) with coeffs[k] == numerators[k] / d for int and Fraction coefficients; d is the lcm of their denominators."""
    d = math.lcm(*(c.denominator for c in coeffs.values()))
    return {k: c.numerator * (d // c.denominator) for k, c in coeffs.items()}, d


def solenoid_covariance_exact(w: TrigPoly, f1: TrigPoly, f2: TrigPoly, start, lags) -> list:
    """E[f1(Z_n) f2(Z_{n+1})] for each lag n of solenoid_walk(w, ..., start=start).

    Lag n is the start law applied to T_W^n (f1 T_W f2), by one chain of
    T_W steps to the largest lag.  start is read as solenoid_walk reads
    it: a DyadicAngle is a point mass, one evaluation; on the level-L grid
    e_k averages to 1 if 2^L divides k and to 0 otherwise, so a level L
    gives the exact sum of the coefficients at multiples of 2^L.

    When every coefficient of W and of f1 T_W f2 is an int or a Fraction,
    each is scaled once to an integer numerator over one common
    denominator; a step is then integer branch sums, and the chain's
    denominator gains W's, with no gcd.  Fractions are formed only at the
    lags read, so the values are those of a Fraction chain bit for bit.
    Other coefficients step as they are, in the order transfer_apply adds
    them, so they keep its bits.
    """
    lags = list(lags)
    if any(n < 0 for n in lags):
        raise ValueError("lags must be nonnegative")
    level, numerator = _read_start(start)
    cells = 1 << level
    if numerator is None:
        law = lambda g: complex(sum(c for k, c in g.items() if k % cells == 0)).real
    else:
        law = lambda g: TrigPoly(g).real_part(numerator / cells)
    wc, g = w.coeffs, (f1 * transfer_apply(w, f2, 2)).coeffs
    exact = all(isinstance(c, (int, Fraction)) for c in (*wc.values(), *g.values()))
    w_denom = denom = 1
    if exact:
        (wc, w_denom), (g, denom) = _integer_numerators(wc), _integer_numerators(g)
    values = {}
    for n in range(max(lags, default=0) + 1):
        if n:
            g, denom = _branch_sums(wc, g, 2), denom * w_denom
        if n in lags:
            values[n] = law({k: Fraction(c, denom) for k, c in g.items()} if exact else g)
    return [values[n] for n in lags]
