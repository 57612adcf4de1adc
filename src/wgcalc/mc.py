"""Monte Carlo oracle for Haar-moment values.

Samples every family with a moment route with a counter-based RNG (each
sample index owns a fixed run of Philox4x64 counter blocks under the seed
as key, so results do not depend on chunking, evaluation order or the
number of threads), estimates entry-monomial means, and compares them
against the exact backend at a 5-standard-error threshold.
:func:`ensemble_of` reads the ensemble off a validated
:class:`~wgcalc.moments.MomentSpec`, the family's
:class:`~wgcalc.exact.Family` record picks the sampler, and every exact
value is computed before the first sample is drawn.

Haar unitaries come from QR of a complex Ginibre matrix with the
triangular factor's diagonal made positive (Mezzadri, Notices AMS 54,
2007); plain QR without that fix is not Haar.  The QR is Gram-Schmidt
run twice per column: the same Q as phase-fixed Householder up to
roundoff.  Column j of Q depends only on the Gaussian columns 0..j, so
u and o samples compute only the first m columns, m the largest column
a requested monomial reads: bitwise the same values as the full matrix.
COE samples are u u^T, the two-block symmetry ensemble is
g diag(1..1,-1..-1) g*; each of their entries reads every column of u
(or g), so both are sampled and checked in full.  Symplectic sampling is
deliberately absent (sp has no moment route): the exact side only defines
those values up to sign, so there is no oracle target to compare against.

:func:`estimate_moments` splits the samples into one contiguous range
per available CPU, each at least ``MIN_SAMPLES`` long; the calling thread
samples the first range and a thread started for the call each other one.
Every sample's values land in their own slot of one array, so estimates
are bitwise those of the serial loop, and with one CPU no thread starts.
"""

from __future__ import annotations

import math
import os
import threading
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .exact import FAMILIES
from .graphs import GraphKind
from .moments import MomentSpec, exact_moment

_CHUNK = 4096
# fewest samples an estimate takes, and so the fewest a sampling thread gets
MIN_SAMPLES = 1000
# names the normal stream of _gaussian_block; change it whenever the
# samples drawn for a given seed change
STREAM = "philox4x64-counter-v1"
Z_THRESHOLD = 5.0
# float roundoff floor: degenerate monomials (all samples equal up to
# machine error) get an absolute comparison instead of a z-score
ABS_FLOOR = 1e-9


class MomentEstimate(NamedTuple):
    mean: complex
    se_real: float
    se_imag: float
    n: int
    seed: int
    stream: str


class ZReport(NamedTuple):
    spec: MomentSpec
    estimate: MomentEstimate
    exact: Fraction
    z_real: float
    z_imag: float
    passed: bool


def check_seed(seed: int) -> None:
    """Raise ValueError unless ``seed`` fits the 64-bit Philox key."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")


def _gaussian_block(seed, start, count, d, complex_valued, m=None):
    """Standard normals of samples start..start+count-1: the first ``m``
    columns (default all ``d``) of each d x d matrix, shape (count, d, m).

    A sample needs ``per`` normals and reads ``blocks = ceil(per / 4)``
    Philox4x64 blocks: sample i takes those that follow counter i*blocks
    under key ``seed``.  Each block gives four words, each word a uniform
    from its top 53 bits, and Box-Muller turns pairs of uniforms into
    pairs of normals.  A sample's normals therefore depend only on
    (seed, i), never on the chunk it is drawn in.  Entry (i, j) is the
    normal at stream position ``k = i*d + j`` (its imaginary part at
    ``d*d + k``): the cosine of pair ``k mod 2*blocks`` when
    ``k < 2*blocks``, else its sine.  Every word is drawn, but Box-Muller
    runs only on the pairs the first ``m`` columns read, so the values are
    bitwise those of the full block.
    """
    m = d if m is None else m
    per = 2 * d * d if complex_valued else d * d
    blocks = -(-per // 4)
    words = np.random.Philox(key=seed, counter=start * blocks).random_raw(count * blocks * 4)
    words = words.reshape(count, 2 * blocks, 2)
    if m < d:
        pos = (np.arange(d)[:, None] * d + np.arange(m)).ravel()
        if complex_valued:
            pos = np.concatenate((pos, pos + d * d))
        # the sorted pairs those positions read (np.unique would import numpy.ma)
        pairs = np.flatnonzero(np.bincount(pos % (2 * blocks), minlength=2 * blocks))
        words = words[:, pairs]
    u = (words >> 11).astype(np.float64)
    u += 0.5
    u *= 2.0**-53
    radius = np.sqrt(-2.0 * np.log(u[..., 0]))
    angle = 2.0 * np.pi * u[..., 1]
    z = np.empty((count, 2, words.shape[1]))
    np.cos(angle, out=z[:, 0])
    np.sin(angle, out=z[:, 1])
    z *= radius[:, None, :]
    z = z.reshape(count, -1)
    if m < d:
        z = z[:, np.searchsorted(pairs, pos % (2 * blocks)) + len(pairs) * (pos >= 2 * blocks)]
    else:
        z = z[:, :per]
    if complex_valued:
        w = np.empty((count, d * m), dtype=np.complex128)
        w.real, w.imag = z[:, :d * m], z[:, d * m:]
        z = w
    return z.reshape(count, d, m)


def _qr_positive(a):
    """Q of each sample's QR factorization whose R has positive diagonal.

    ``a[j, i]`` is row ``i`` of column ``j``, a vector over the samples on
    the last axis; Q comes back in that layout.  Gram-Schmidt, run twice
    per column, leaves R's diagonal the column norms, positive by
    construction: the Q of phase-fixed Householder up to roundoff, which
    is Haar for Gaussian input.  A column that orthogonalises to exactly
    zero comes back NaN and fails :func:`_check_unitary`, where Householder
    would return some unitary Q; Gaussian input does that with probability 0.
    """
    q = np.array(a, order="C")
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(len(q)):
            v = q[j]
            for _ in range(2 if j else 0):
                v -= np.einsum("kib,kb->ib", q[:j], np.einsum("kib,ib->kb", q[:j].conj(), v))
            v /= np.sqrt(np.einsum("ib,ib->b", v, v.conj()).real)
    return q


def _assert_small(diff, tol: float, what: str) -> None:
    err = float(np.max(np.abs(diff)))
    if not err <= tol:
        raise ValueError(f"sampler constraint violated: {what} defect {err:.3e} > {tol}")


def _check_unitary(q, tol=1e-10):
    """Raise unless the columns of every sample are orthonormal, q* q = 1 to
    ``tol``; layout as in _qr_positive.  On all d columns this is the full
    unitarity check; on the first m it checks just the columns computed."""
    eye = np.eye(len(q))[:, :, None]
    _assert_small(np.einsum("cib,rib->crb", q.conj(), q) - eye, tol, "unitarity")


def _sample_block(ens: tuple[str, int, int], seed: int, start: int, count: int, m=None):
    """Samples start..start+count-1 of ``ens``, an :func:`ensemble_of`
    tuple, shape (count, d, m): a view of a (column, row, sample) array, so
    each entry is a contiguous vector.

    ``u`` and ``o`` compute only the first ``m`` columns (default all d):
    Gram-Schmidt builds column j from Gaussian columns 0..j alone, so they
    are bitwise the full sample's.  ``coe`` and ``aiii`` read every column
    of Q for every entry, so they always return all d columns.
    """
    family, d, a = ens
    fam = FAMILIES[family]
    real = fam.pairing and not fam.conjugated  # o
    group = real or fam.kind is GraphKind.UNITARY  # u and o: Q itself
    if m is None or not group:
        m = d
    g = _gaussian_block(seed, start, count, d, not real, m)
    q = _qr_positive(g.transpose(2, 1, 0))
    _check_unitary(q)
    if group:
        return q.transpose(2, 1, 0)
    if fam.pairing:
        s = np.einsum("jcb,jrb->crb", q, q)
        _assert_small(s - s.swapaxes(0, 1), 1e-10, "symmetry")
        _check_unitary(s, tol=1e-9)
        return s.transpose(2, 1, 0)
    signs = np.ones(d)
    signs[a:] = -1.0
    s = np.einsum("jcb,jrb->crb", q.conj(), q * signs[:, None, None])
    _assert_small(s - s.swapaxes(0, 1).conj(), 1e-9, "hermiticity")
    _assert_small(np.einsum("iib->b", s) - (2 * a - d), 1e-9, "trace")
    _assert_small(np.einsum("mrb,cmb->crb", s, s) - np.eye(d)[:, :, None], 1e-9, "involution")
    return s.transpose(2, 1, 0)


def _cores() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _monomial_values(spec: MomentSpec, samples):
    vals = np.ones(samples.shape[0], dtype=np.complex128)
    for r, c in zip(spec.rows, spec.cols):
        vals = vals * samples[:, r - 1, c - 1]
    for r, c in zip(spec.crows, spec.ccols):
        vals = vals * np.conj(samples[:, r - 1, c - 1])
    return vals


def ensemble_of(spec: MomentSpec) -> tuple[str, int, int]:
    """The ensemble a moment request samples: ``(family, d, a)``.

    For A III (the spec has a ``dminus``) the signature is ``(a, d - a)``
    with ``a = (d + dminus)/2``; every other family has ``a = d``.
    :class:`MomentSpec` has validated everything else, so only the A III
    signature is checked here.
    """
    if spec.dminus is None:
        return spec.family, spec.d, spec.d
    if (spec.d + spec.dminus) % 2 != 0 or abs(spec.dminus) > spec.d:
        raise ValueError(
            f"no integer signature matches d={spec.d}, dminus={spec.dminus}"
        )
    if spec.dminus < 0:
        raise ValueError(
            "sample at the mirrored signature instead: negative dminus flips "
            "every degree-k moment by (-1)^k"
        )
    return spec.family, spec.d, (spec.d + spec.dminus) // 2


def estimate_moments(
    ens: tuple[str, int, int],
    specs: list[MomentSpec],
    n: int,
    seed: int,
    chunk: int = _CHUNK,
) -> list[MomentEstimate]:
    """Estimate several monomials of one ensemble, an :func:`ensemble_of`
    tuple, on a shared sample stream sampled in ranges over threads as the
    module docstring describes.  A sampler check that fails in any range is
    raised here, the lowest range's first.
    """
    if n < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {n}")
    check_seed(seed)
    # MomentSpec has checked every index against spec.d, so matching d
    # keeps every index inside the sampled matrices
    for spec in specs:
        if ensemble_of(spec) != ens:
            raise ValueError("moment spec does not match the ensemble")
    # u and o draw only the columns the monomials read
    m = max((c for spec in specs for c in spec.cols + spec.ccols), default=1)
    values = np.empty((len(specs), n), dtype=np.complex128)

    def fill(lo, hi):
        for start in range(lo, hi, chunk):
            count = min(chunk, hi - start)
            samples = _sample_block(ens, seed, start, count, m)
            for pos, spec in enumerate(specs):
                values[pos, start:start + count] = _monomial_values(spec, samples)

    blocks = max(1, min(_cores(), n // MIN_SAMPLES))
    edges = [n * b // blocks for b in range(blocks + 1)]
    errors = [None] * blocks

    def fill_block(b):
        try:
            fill(edges[b], edges[b + 1])
        except Exception as exc:  # raised again in the calling thread
            errors[b] = exc

    threads = [threading.Thread(target=fill_block, args=(b,)) for b in range(1, blocks)]
    try:
        for thread in threads:
            thread.start()
        fill(edges[0], edges[1])
    finally:
        # a thread that failed to start is not alive and has nothing to join
        for thread in threads:
            if thread.is_alive():
                thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    out = []
    for pos in range(len(specs)):
        v = values[pos]
        mean = complex(np.mean(v))
        se_r = float(np.std(v.real, ddof=1) / math.sqrt(n))
        se_i = float(np.std(v.imag, ddof=1) / math.sqrt(n))
        out.append(MomentEstimate(mean, se_r, se_i, n, seed, STREAM))
    return out


def _component_check(diff: float, se: float) -> tuple[float, bool]:
    if abs(diff) <= ABS_FLOOR:
        return (diff / se if se > 0 else 0.0), True
    if se == 0:
        return math.inf, False
    z = diff / se
    return z, abs(z) <= Z_THRESHOLD


def compare_many(
    ens: tuple[str, int, int], specs: list[MomentSpec], n: int, seed: int
) -> list[ZReport]:
    """z-test several monomials against the exact engine on one sample stream.

    Every exact value is computed before any sample is drawn, so a request
    the exact side refuses costs no sampling.  Each real component passes
    when it is within 5 standard errors, with an absolute floor of 1e-9 for
    degenerate monomials whose sample spread is pure float roundoff.
    """
    exacts = [exact_moment(spec) for spec in specs]
    out = []
    for spec, exact, est in zip(specs, exacts, estimate_moments(ens, specs, n, seed)):
        z_r, ok_r = _component_check(est.mean.real - float(exact), est.se_real)
        z_i, ok_i = _component_check(est.mean.imag, est.se_imag)
        out.append(ZReport(spec, est, exact, z_r, z_i, ok_r and ok_i))
    return out


def compare_with_exact(spec: MomentSpec, n: int, seed: int) -> ZReport:
    return compare_many(ensemble_of(spec), [spec], n, seed)[0]
