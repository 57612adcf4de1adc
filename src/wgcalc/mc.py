"""Monte Carlo oracle for Haar-moment values.

Samples the four computable ensembles with a counter-based RNG (each
sample index owns a fixed run of Philox4x64 counter blocks under the seed
as key, so results do not depend on chunking or evaluation order),
estimates entry-monomial means, and compares them against the exact
backend at a 5-standard-error threshold.

Haar unitaries come from QR of a complex Ginibre matrix with the
triangular factor's diagonal phase-normalized; plain QR without that fix
is not Haar.  COE samples are u u^T, the two-block symmetry ensemble is
g diag(1..1,-1..-1) g*.  Symplectic sampling is deliberately absent: the
exact side only defines those values up to sign, so there is no oracle
target to compare against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .moments import MomentSpec, exact_moment

_CHUNK = 4096
# names the normal stream of _gaussian_block; change it whenever the
# samples drawn for a given seed change
STREAM = "philox4x64-counter-v1"
Z_THRESHOLD = 5.0
# float roundoff floor: degenerate monomials (all samples equal up to
# machine error) get an absolute comparison instead of a z-score
ABS_FLOOR = 1e-9


@dataclass(frozen=True)
class EnsembleSpec:
    """Which matrix ensemble to sample: family, dimension, A III signature."""

    family: str
    d: int
    a: int | None = None
    b: int | None = None

    def __post_init__(self):
        if self.family == "sp":
            raise ValueError(
                "symplectic sampling is unsupported: exact values exist only up "
                "to sign, so there is no oracle target"
            )
        if self.family not in ("u", "o", "coe", "aiii"):
            raise ValueError(f"unknown ensemble family {self.family!r}")
        if self.d < 1:
            raise ValueError(f"dimension must be positive, got {self.d}")
        if self.family == "aiii":
            if self.a is None or self.b is None:
                raise ValueError("aiii ensembles need a signature (a, b)")
            if self.a < self.b or self.b < 0:
                raise ValueError("signature must satisfy a >= b >= 0")
            if self.a + self.b != self.d:
                raise ValueError(f"signature {self.a}+{self.b} does not sum to d={self.d}")
        elif self.a is not None or self.b is not None:
            raise ValueError(f"family {self.family!r} takes no signature")

    @property
    def dminus(self) -> int:
        return self.a - self.b


@dataclass(frozen=True)
class MomentEstimate:
    mean: complex
    se_real: float
    se_imag: float
    n: int
    seed: int
    stream: str


@dataclass(frozen=True)
class ZReport:
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


def _gaussian_block(seed, start, count, d, complex_valued):
    """Standard normals of samples start..start+count-1, shape (count, d, d).

    A sample needs ``per`` normals and reads ``blocks = ceil(per / 4)``
    Philox4x64 blocks: sample i takes those that follow counter i*blocks
    under key ``seed``.  Each block gives four words, each word a uniform
    from its top 53 bits, and Box-Muller turns pairs of uniforms into
    pairs of normals.  A sample's normals therefore depend only on
    (seed, i), never on the chunk it is drawn in.
    """
    per = 2 * d * d if complex_valued else d * d
    blocks = -(-per // 4)
    words = np.random.Philox(key=seed, counter=start * blocks).random_raw(count * blocks * 4)
    u = (((words >> 11) + 0.5) * 2.0**-53).reshape(count, 2 * blocks, 2)
    radius = np.sqrt(-2.0 * np.log(u[..., 0]))
    angle = 2.0 * np.pi * u[..., 1]
    z = np.concatenate((radius * np.cos(angle), radius * np.sin(angle)), axis=1)[:, :per]
    if complex_valued:
        z = z[:, :d * d] + 1j * z[:, d * d:]
    return z.reshape(count, d, d)


def _qr_positive(a):
    """Batched Householder QR returning the Q whose R has positive diagonal.

    For Gaussian input this phase convention is exactly what makes the
    output Haar-distributed.
    """
    batch, d, _ = a.shape
    cplx = np.iscomplexobj(a)
    r = a.copy()
    q = np.zeros_like(a)
    idx = np.arange(d)
    q[:, idx, idx] = 1
    for j in range(d):
        x = r[:, j:, j]
        norm = np.sqrt(np.sum(np.abs(x) ** 2, axis=1))
        lead = x[:, 0]
        absl = np.abs(lead)
        safe_abs = np.where(absl > 0, absl, 1.0)
        one = 1.0 + 0.0j if cplx else 1.0
        phase = np.where(absl > 0, lead / safe_abs, one)
        v = x.copy()
        v[:, 0] += phase * norm
        vsq = np.sum(np.abs(v) ** 2, axis=1)
        safe = np.where(vsq > 0, vsq, 1.0)
        w = np.einsum("bi,bij->bj", v.conj(), r[:, j:, j:])
        r[:, j:, j:] -= 2.0 * v[:, :, None] * w[:, None, :] / safe[:, None, None]
        t = np.einsum("bij,bj->bi", q[:, :, j:], v)
        q[:, :, j:] -= 2.0 * t[:, :, None] * v.conj()[:, None, :] / safe[:, None, None]
    diag = r[:, idx, idx]
    absd = np.abs(diag)
    lam = np.where(absd > 0, diag / np.where(absd > 0, absd, 1.0), 1.0)
    return q * lam[:, None, :]


def _assert_small(err: float, tol: float, what: str) -> None:
    if not err <= tol:
        raise ValueError(f"sampler constraint violated: {what} defect {err:.3e} > {tol}")


def _check_unitary(q, tol=1e-10):
    d = q.shape[-1]
    prod = np.matmul(q, q.conj().swapaxes(-1, -2))
    err = float(np.max(np.abs(prod - np.eye(d))))
    _assert_small(err, tol, "unitarity")


def _sample_block(ens: EnsembleSpec, seed: int, start: int, count: int):
    d = ens.d
    q = _qr_positive(_gaussian_block(seed, start, count, d, ens.family != "o"))
    _check_unitary(q)
    if ens.family in ("u", "o"):
        return q
    if ens.family == "coe":
        s = np.matmul(q, q.swapaxes(1, 2))
        err = float(np.max(np.abs(s - s.swapaxes(1, 2))))
        _assert_small(err, 1e-10, "symmetry")
        _check_unitary(s, tol=1e-9)
        return s
    signs = np.ones(d)
    signs[ens.a:] = -1.0
    s = np.matmul(q * signs[None, None, :], q.conj().swapaxes(1, 2))
    err = float(np.max(np.abs(s - s.conj().swapaxes(1, 2))))
    _assert_small(err, 1e-9, "hermiticity")
    traces = np.einsum("bii->b", s)
    err = float(np.max(np.abs(traces - ens.dminus)))
    _assert_small(err, 1e-9, "trace")
    err = float(np.max(np.abs(np.matmul(s, s) - np.eye(d))))
    _assert_small(err, 1e-9, "involution")
    return s


def _monomial_values(spec: MomentSpec, samples):
    vals = np.ones(samples.shape[0], dtype=np.complex128)
    for r, c in zip(spec.rows, spec.cols):
        vals = vals * samples[:, r - 1, c - 1]
    for r, c in zip(spec.crows, spec.ccols):
        vals = vals * np.conj(samples[:, r - 1, c - 1])
    return vals


def _ensemble_for(spec: MomentSpec) -> EnsembleSpec:
    if spec.family == "aiii":
        if (spec.d + spec.dminus) % 2 != 0:
            raise ValueError(
                f"no integer signature matches d={spec.d}, dminus={spec.dminus}"
            )
        if spec.dminus < 0:
            raise ValueError(
                "sample at the mirrored signature instead: negative dminus flips "
                "every degree-k moment by (-1)^k"
            )
        a = (spec.d + spec.dminus) // 2
        return EnsembleSpec("aiii", spec.d, a, spec.d - a)
    return EnsembleSpec(spec.family, spec.d)


def estimate_moments(
    ens: EnsembleSpec,
    specs: list[MomentSpec],
    n: int,
    seed: int,
    chunk: int = _CHUNK,
) -> list[MomentEstimate]:
    """Estimate several monomials of one ensemble on a shared sample stream."""
    if n < 1000:
        raise ValueError(f"need at least 1000 samples, got {n}")
    check_seed(seed)
    # MomentSpec has checked every index against spec.d, so matching d
    # keeps every index inside the sampled matrices
    for spec in specs:
        if spec.family != ens.family or spec.d != ens.d:
            raise ValueError("moment spec does not match the ensemble")
        if spec.family == "aiii" and spec.dminus != ens.dminus:
            raise ValueError("moment dminus does not match the ensemble signature")
    values = np.empty((len(specs), n), dtype=np.complex128)
    start = 0
    while start < n:
        count = min(chunk, n - start)
        samples = _sample_block(ens, seed, start, count)
        for pos, spec in enumerate(specs):
            values[pos, start:start + count] = _monomial_values(spec, samples)
        start += count
    out = []
    for pos in range(len(specs)):
        v = values[pos]
        mean = complex(np.mean(v))
        se_r = float(np.std(v.real, ddof=1) / math.sqrt(n))
        se_i = float(np.std(v.imag, ddof=1) / math.sqrt(n))
        out.append(MomentEstimate(mean, se_r, se_i, n, seed, STREAM))
    return out


def estimate_moment(spec: MomentSpec, n: int, seed: int) -> MomentEstimate:
    return estimate_moments(_ensemble_for(spec), [spec], n, seed)[0]


def _component_check(diff: float, se: float) -> tuple[float, bool]:
    if abs(diff) <= ABS_FLOOR:
        return (diff / se if se > 0 else 0.0), True
    if se == 0:
        return math.inf, False
    z = diff / se
    return z, abs(z) <= Z_THRESHOLD


def compare_many(
    ens: EnsembleSpec, specs: list[MomentSpec], n: int, seed: int
) -> list[ZReport]:
    """z-test several monomials against the exact engine on one sample stream.

    Each real component passes when it is within 5 standard errors, with
    an absolute floor of 1e-9 for degenerate monomials whose sample spread
    is pure float roundoff.
    """
    out = []
    for spec, est in zip(specs, estimate_moments(ens, specs, n, seed)):
        exact = exact_moment(spec)
        z_r, ok_r = _component_check(est.mean.real - float(exact), est.se_real)
        z_i, ok_i = _component_check(est.mean.imag, est.se_imag)
        out.append(ZReport(spec, est, exact, z_r, z_i, ok_r and ok_i))
    return out


def compare_with_exact(spec: MomentSpec, n: int, seed: int) -> ZReport:
    return compare_many(_ensemble_for(spec), [spec], n, seed)[0]
