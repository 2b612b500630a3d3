"""Periodic spectral grid on [-L, L]^n: unitary discrete Fourier transforms and
the Fourier-multiplier kernel.

The physical lattice is x_j = -L + j*h per axis (h = 2L/N) and the frequency
lattice is xi_k = (pi/L)*k with k in {-N/2, ..., N/2 - 1}.  The transforms use
the unitary continuum normalization

    fhat(xi) = (2*pi)^(-n/2) * sum_j f(x_j) e^{-i xi . x_j} h^n,

so Parseval holds without conversion factors: the discrete L^2 norm with cell
volume h^n of the samples equals that with cell volume h_xi^n of the
transform.

Frequency-side arrays are stored in FFT ordering (numpy.fft.fftfreq), row-major
over axes, matching the physical layout.  Transforms run on scipy.fft.

Functions on the grid are plain arrays: physical samples with the grid's
shape (or flat), a stack of states with a leading axis over the states, and
the grid passed beside them wherever the cell volume or the lattice is
needed.  No call writes to or freezes the caller's arrays, except where a
docstring says that a buffer is consumed.  The frequency side is an array in
FFT ordering that only the transform pair produces (forward_transform) and
consumes (samples_from_spectrum); the probes build samples there (the
sobolev shell samples), and the tests read spectra there.

A Fourier multiplier (apply_symbol, apply_multiplier) is ifftn(sigma * fftn(f))
over the grid's axes, one call for a stack of states: the centring phase and
the scale factors of the unitary transforms cancel between the forward and
the inverse, so a multiplier applies neither.  Its second half,
apply_symbol_spectrum, takes fftn(f) from a caller that already holds it, for
instance as the outer product of 1-D transforms of a separable f, written
into a buffer the caller owns (outer_product with out).

The elementwise passes over a whole grid array (norm_lp, and the passes of
the large-grid probes) run over leading-axis slabs of about SLAB_POINTS
points (slabs), so their temporaries are the size of a slab, not of the grid.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import BinaryIO, Iterator, Sequence, Tuple

import numpy as np
import scipy.fft

#: Cap on total grid points (N^n) of every grid; guards against huge FFTs.
DEFAULT_MAX_POINTS = 2 ** 25

#: Points per slab of an elementwise pass over a grid array (1 MiB of
#: complex128): small enough that a slab's temporaries stay in cache.
SLAB_POINTS = 2 ** 16


class ConfigError(ValueError):
    """A parameter a config can set violates an invariant; the message names
    it.  The command line exits 2 on it, not 1 as on a numerical failure."""


@dataclass(frozen=True)
class GridSpec:
    """Periodic discretization of [-L, L]^n.

    n must be odd, the dimensions every oracle and reference value of the lab
    is set in (in even n the free resolvent's expansion at z = 0 has log z
    terms), and N even so the frequency lattice is symmetric about zero.
    """

    n: int
    npts: int
    half_width: float

    def __post_init__(self):
        if self.n < 1 or self.n % 2 == 0:
            raise ConfigError(f"dimension must be odd, got n={self.n}")
        if self.npts < 4 or self.npts % 2 != 0:
            raise ConfigError(f"points-per-axis must be even and >= 4, got N={self.npts}")
        if not self.half_width > 0:
            raise ConfigError(f"half-width must be positive, got L={self.half_width}")
        if self.npts ** self.n > DEFAULT_MAX_POINTS:
            raise ConfigError(
                f"grid has {self.npts ** self.n} points, exceeding the "
                f"memory budget of {DEFAULT_MAX_POINTS}"
            )

    @property
    def h(self) -> float:
        """Physical lattice spacing 2L/N."""
        return 2.0 * self.half_width / self.npts

    @property
    def h_xi(self) -> float:
        """Frequency lattice spacing pi/L."""
        return np.pi / self.half_width

    @property
    def cell_volume(self) -> float:
        return self.h ** self.n

    @property
    def cell_volume_xi(self) -> float:
        return self.h_xi ** self.n

    @property
    def shape(self) -> tuple:
        return (self.npts,) * self.n

    @property
    def size(self) -> int:
        return self.npts ** self.n

    @property
    def nyquist_radius(self) -> float:
        """Largest per-axis |xi| on the lattice, (pi/L)*(N/2)."""
        return self.h_xi * self.npts / 2

    def provenance(self) -> dict:
        """The grid as probe reports record it."""
        return {"n": self.n, "N": self.npts, "L": self.half_width}

    def axis_coords(self) -> np.ndarray:
        """1D physical coordinates -L + j*h, j = 0..N-1."""
        return -self.half_width + self.h * np.arange(self.npts)

    def axis_freqs(self) -> np.ndarray:
        """1D frequency coordinates in FFT ordering."""
        return self.h_xi * np.fft.fftfreq(self.npts, d=1.0 / self.npts)

    def coords(self) -> np.ndarray:
        """Physical coordinates, shape (n,) + grid shape."""
        return np.stack(np.meshgrid(*[self.axis_coords()] * self.n, indexing="ij"))

    def freqs(self) -> np.ndarray:
        """Frequency coordinates in FFT ordering, shape (n,) + grid shape."""
        return np.stack(np.meshgrid(*[self.axis_freqs()] * self.n, indexing="ij"))

    def radii(self, regularize_origin: bool = False,
              rows: slice = slice(None)) -> np.ndarray:
        """|x| on the grid, or on its leading-axis rows (a slab).  With
        regularize_origin, the origin cell is set to the radius of the ball
        with the same volume as one cell (keeps singular radial weights
        finite and refinement-stable)."""
        sq = self.axis_coords() ** 2
        r = outer_product([sq[rows]] + [sq] * (self.n - 1), np.add)
        np.sqrt(r, out=r)
        if regularize_origin:
            r = np.where(r == 0.0, self.origin_cell_radius(), r)
        return r

    def xi_radii(self, rows: slice = slice(None),
                 half: bool = False) -> np.ndarray:
        """|xi| on the frequency lattice (FFT ordering), or on its
        leading-axis rows (a slab); with half, on the half lattice of the
        real transforms, the first N/2 + 1 entries of the last axis."""
        sq = self.axis_freqs() ** 2
        axes = [sq] * self.n
        if half:
            axes[-1] = sq[:self.npts // 2 + 1]
        axes[0] = axes[0][rows]
        r = outer_product(axes, np.add)
        return np.sqrt(r, out=r)

    def origin_cell_radius(self) -> float:
        """Radius of the n-ball whose volume equals one grid cell."""
        return self.h * (1.0 / unit_ball_volume(self.n)) ** (1.0 / self.n)


def slabs(shape: Sequence[int]) -> Iterator[slice]:
    """Slices of the leading axis of an array of the given shape (at least
    one axis), each of as many rows as fit in SLAB_POINTS points (at least
    one row), covering the axis in order."""
    row = math.prod(shape[1:])
    step = max(1, SLAB_POINTS // max(row, 1))
    for start in range(0, shape[0], step):
        yield slice(start, start + step)


def unit_ball_volume(n: int) -> float:
    from scipy.special import gamma

    return np.pi ** (n / 2) / gamma(n / 2 + 1)


def sphere_area(n: int, radius: float) -> float:
    """Surface area of the sphere |x| = radius in R^n."""
    return n * unit_ball_volume(n) * radius ** (n - 1)


def center_signs(grid: GridSpec) -> np.ndarray:
    """(-1)^k along one axis: the centre phase of the transforms is its
    product over the axes, for the physical origin sits at index N/2."""
    return np.where(np.arange(grid.npts) % 2 == 0, 1.0, -1.0)


def _apply_center_phase(grid: GridSpec, vals: np.ndarray) -> None:
    """Multiplies vals (grid shape) in place by the centre phase, one axis's
    signs at a time: each product with +-1 is exact, so the result is that
    of the whole-grid phase, with no temporary."""
    sign = center_signs(grid)
    for axis in range(grid.n):
        vals *= sign.reshape((-1,) + (1,) * (grid.n - 1 - axis))


def forward_transform(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    """Unitary DFT of the samples values (flat or grid-shaped): the
    frequency-lattice array fhat (FFT ordering, grid shape)."""
    vals = scipy.fft.fftn(np.reshape(values, grid.shape))
    _apply_center_phase(grid, vals)
    vals *= grid.cell_volume / (2.0 * np.pi) ** (grid.n / 2)
    return vals


def samples_from_spectrum(grid: GridSpec, hat: np.ndarray) -> np.ndarray:
    """The samples whose forward_transform is hat (complex128, grid shape,
    C order), returned in hat's buffer where the scipy.fft backend
    transforms in place (pocketfft does).  hat is consumed."""
    _apply_center_phase(grid, hat)
    vals = scipy.fft.ifftn(hat, overwrite_x=True)
    vals *= grid.cell_volume_xi * grid.size / (2.0 * np.pi) ** (grid.n / 2)
    return vals


def apply_symbol(values: np.ndarray, sym: np.ndarray, adjoint: bool = False,
                 overwrite: bool = False) -> np.ndarray:
    """ifftn(sym * fftn(values)) over the trailing sym.ndim axes: the Fourier
    multiplier sym (lattice array in FFT ordering) on physical samples, or
    in one call on a stack of them, each state bit for bit as alone; with
    adjoint, the multiplier conj(sym).  Only the kernel's own temporary is
    overwritten, never values, unless overwrite lets the complex path
    transform values in place (a caller's temporary).

    Real values with a real sym stay real: irfftn(sym_half * rfftn(values))
    (real_inverse_fft) with sym_half the last-axis half of sym, where
    conj(sym) = sym; sym may be given on the half lattice alone
    (xi_radii(half=True)).  That requires sym to be even, sym(-xi) =
    sym(xi), as every radial symbol is; the complex result would then be
    real up to rounding.  Every other input takes the complex path."""
    if np.isrealobj(values) and np.isrealobj(sym):
        out = scipy.fft.rfftn(values, axes=range(-sym.ndim, 0))
        out *= sym[..., :out.shape[-1]]
        return real_inverse_fft(out, values.shape[values.ndim - sym.ndim:])
    return apply_symbol_spectrum(scipy.fft.fftn(
        values, axes=range(-sym.ndim, 0), overwrite_x=overwrite), sym, adjoint)


def real_inverse_fft(half: np.ndarray, shape: Sequence[int]) -> np.ndarray:
    """scipy.fft.irfftn(half, s=shape), bit for bit, from the complex128
    half spectrum half (trailing axes shape[:-1] + (shape[-1] // 2 + 1,)).

    half is consumed: its other transformed axes are inverted in its buffer,
    then one 1-D inverse real transform of the last axis writes the real
    result, so the call holds half and the result alone (irfftn first
    copies its input into a whole-array temporary that tracemalloc does not
    see).  Neither pass scales; the result is multiplied once by 1/N^n,
    rounded from long double as scipy.fft's own factor is."""
    if len(shape) > 1:
        half = scipy.fft.ifftn(half, axes=range(-len(shape), -1),
                               norm="forward", overwrite_x=True)
    out = scipy.fft.irfft(half, n=shape[-1], norm="forward")
    out *= float(1 / np.longdouble(math.prod(shape)))
    return out


def apply_symbol_spectrum(spec: np.ndarray, sym: np.ndarray,
                          adjoint: bool = False) -> np.ndarray:
    """ifftn(sym * spec) over the trailing sym.ndim axes: apply_symbol's
    complex path from the unnormalized complex128 DFT spec = scipy.fft.fftn
    of its input.  A caller that holds spec (a spectrum taken once, or the
    outer product of the 1-D transforms of a separable input) applies a
    symbol to it at one inverse transform.

    spec is consumed: it is multiplied in place and transformed in its
    buffer, so the call needs no temporary the size of the grid; a caller
    that still needs spec passes a copy.  adjoint applies conj(sym) without
    a conjugated copy of sym: conj(conj(spec) * sym) equals spec * conj(sym)
    bitwise."""
    if adjoint:
        np.conjugate(spec, out=spec)
    spec *= sym
    if adjoint:
        np.conjugate(spec, out=spec)
    return scipy.fft.ifftn(spec, axes=range(-sym.ndim, 0), overwrite_x=True)


def outer_product(vectors: Sequence[np.ndarray],
                  op: np.ufunc = np.multiply,
                  out: np.ndarray = None) -> np.ndarray:
    """The grid array whose entry (j_1, ..., j_n) is vectors[0][j_1] op ...
    op vectors[n-1][j_n], a new array or out (grid shape): op folded over
    one 1-D vector per axis, so only the last pass runs over the whole grid."""
    if len(vectors) == 1:
        return np.positive(vectors[0], out=out)  # a copy
    return op(outer_product(vectors[:-1], op)[..., None], vectors[-1], out=out)


def separable_norm_lp(grid: GridSpec, factors: Sequence[np.ndarray],
                      p: float) -> float:
    """norm_lp of the outer product of the 1-D samples factors (one per
    axis) at a finite p, as the product of their 1-D norms with spacing h."""
    return float(np.prod([(np.sum(np.abs(fac) ** p) * grid.h) ** (1.0 / p)
                          for fac in factors]))


def apply_multiplier(values: np.ndarray, sym: np.ndarray) -> np.ndarray:
    """apply_symbol under the name the probes' multipliers are traced by;
    it goes when the tracer wraps apply_symbol itself (ROADMAP item 1)."""
    return apply_symbol(values, sym)


def abs_power(values: np.ndarray, p: float) -> np.ndarray:
    """|values|^p as a new real array.  An even integer p > 2 raises |f|^2 =
    re^2 + im^2 to p/2 by products, several times cheaper than the float
    power of |f|; any other p takes the float power of np.abs(values)."""
    if p % 2 == 0 and p > 2:
        sq = np.square(values.real)
        sq += np.square(values.imag)
        powered = sq * sq
        for _ in range(int(p) // 2 - 2):
            powered *= sq
        return powered
    powered = np.abs(values)
    powered **= p
    return powered


def norm_lp(grid: GridSpec, values: np.ndarray, p: float) -> float:
    """Discrete L^p norm (sum |f|^p h^n)^(1/p) of the samples values (flat
    or grid-shaped) on grid; max norm for p = inf.  The sum runs slab by
    slab (slabs), |f|^p from abs_power; p = 2 squares |f| and takes the
    correctly rounded square root."""
    if p < 1:
        raise ValueError(f"L^p norm requires p >= 1, got p={p}")
    parts = (values[rows] for rows in slabs(np.shape(values)))
    if np.isinf(p):
        return float(np.max([np.abs(part).max() for part in parts]))
    total = sum(float(np.sum(abs_power(part, p))) for part in parts)
    total *= grid.cell_volume
    return float(np.sqrt(total) if p == 2 else total ** (1.0 / p))


def weight_abs_power(grid: GridSpec, exponent: float) -> np.ndarray:
    """|x|^exponent on the grid; the origin cell uses the volume-equivalent
    cell-averaged radius so negative exponents stay finite."""
    return grid.radii(regularize_origin=True) ** exponent


def weight_bracket_power(grid: GridSpec, exponent: float) -> np.ndarray:
    """<x>^exponent = (1+|x|^2)^(exponent/2) on the grid."""
    return (1.0 + grid.radii() ** 2) ** (exponent / 2.0)


def check_smoothing_gamma(m: int, n: int, gamma: float) -> None:
    """Reject a smoothing order outside the window m - n/2 < gamma <= m - 1/2."""
    if not (m - n / 2.0 < gamma <= m - 0.5):
        raise ConfigError(
            f"gamma={gamma} outside the admissible window "
            f"({m - n / 2.0}, {m - 0.5}] for m={m}, n={n}"
        )


def smoothing_weight(grid: GridSpec, m: int, gamma: float,
                     eps: float) -> np.ndarray:
    """Spatial weight W of the gamma-smoothing operator W |D|^gamma:
    |x|^{-m+gamma} in the interior of the admissible range, switching to
    <x>^{-1/2-eps} at the endpoint gamma = m - 1/2 where the homogeneous
    weight fails."""
    if abs(gamma - (m - 0.5)) < 1e-12:
        return weight_bracket_power(grid, -0.5 - eps)
    return weight_abs_power(grid, -m + gamma)


def abs_derivative_symbol(grid: GridSpec, order: float,
                          rows: slice = slice(None)) -> np.ndarray:
    """Lattice symbol |xi|^order of |D|^order, zero at the zero mode when the
    order is negative, or its leading-axis rows (a slab)."""
    with np.errstate(divide="ignore"):
        sym = grid.xi_radii(rows) ** order
    if order < 0:
        sym[np.isinf(sym)] = 0.0  # the zero mode, 0^order
    return sym


# Flat binary serialization: magic, n, N, L, tag byte, then interleaved
# re/im float64 payload in row-major order, exactly 16 bytes per grid point.
# The tag byte is 0 (physical samples); tag 1 marked frequency-side values,
# which are not read.

_MAGIC = b"PHLF"
_HEADER = "<iidB"


def write_field(grid: GridSpec, values: np.ndarray, fh: BinaryIO) -> None:
    """Write the samples values (grid size, real or complex) on grid."""
    flat = np.asarray(values).reshape(grid.size)
    fh.write(_MAGIC)
    fh.write(struct.pack(_HEADER, grid.n, grid.npts, grid.half_width, 0))
    inter = np.empty(grid.size * 2, dtype=np.float64)
    inter[0::2] = flat.real
    inter[1::2] = flat.imag
    fh.write(inter.tobytes())


def read_field(fh: BinaryIO) -> Tuple[GridSpec, np.ndarray]:
    """(grid, complex128 samples of grid shape) from a write_field binary;
    raises ValueError for a bad header or a payload of the wrong length."""
    if fh.read(4) != _MAGIC:
        raise ValueError("not a field binary (bad magic)")
    head = fh.read(struct.calcsize(_HEADER))
    if len(head) != struct.calcsize(_HEADER):
        raise ValueError("field binary header is truncated")
    n, npts, half_width, tag = struct.unpack(_HEADER, head)
    if tag != 0:
        raise ValueError(f"field binary has tag {tag}; only physical samples (tag 0) are read")
    grid = GridSpec(n=n, npts=npts, half_width=half_width)
    nbytes = 16 * grid.size
    payload = fh.read(nbytes + 1)  # one byte more shows trailing data
    if len(payload) != nbytes:
        raise ValueError(
            f"field binary payload is {'longer' if len(payload) > nbytes else 'shorter'} "
            f"than the {nbytes} bytes of its {npts}^{n} grid")
    inter = np.frombuffer(payload, dtype=np.float64)
    return grid, (inter[0::2] + 1j * inter[1::2]).reshape(grid.shape)
