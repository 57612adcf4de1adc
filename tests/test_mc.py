"""Sampler and z-test checks for the Monte Carlo oracle."""

import hashlib
import inspect
import os
import subprocess
import sys
import threading
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from wgcalc import cli, mc
from wgcalc.mc import (
    STREAM,
    _check_unitary,
    _gaussian_block,
    _qr_positive,
    _sample_block,
    compare_with_exact,
    ensemble_of,
    estimate_moments,
)
from wgcalc.moments import MomentSpec

SEED = 20260822
BATCH = 64


def _estimate(spec, n, seed):
    return estimate_moments(ensemble_of(spec), [spec], n, seed)[0]


def test_haar_unitary_is_unitary():
    u = _sample_block(("u", 4, 4), SEED, 0, BATCH)
    assert u.shape == (BATCH, 4, 4)
    assert np.max(np.abs(u @ u.conj().swapaxes(1, 2) - np.eye(4))) < 1e-12


def test_haar_orthogonal_is_real_orthogonal():
    o = _sample_block(("o", 3, 3), SEED, 0, BATCH)
    assert o.dtype == np.float64
    assert np.max(np.abs(o @ o.swapaxes(1, 2) - np.eye(3))) < 1e-12


def test_coe_sample_is_symmetric_unitary():
    s = _sample_block(("coe", 3, 3), SEED, 0, BATCH)
    assert np.max(np.abs(s - s.swapaxes(1, 2))) < 1e-12
    assert np.max(np.abs(s @ s.conj().swapaxes(1, 2) - np.eye(3))) < 1e-11


def test_aiii_sample_constraints():
    s = _sample_block(("aiii", 3, 2), SEED, 0, BATCH)
    assert np.max(np.abs(s - s.conj().swapaxes(1, 2))) < 1e-11
    assert np.max(np.abs(np.einsum("bii->b", s) - 1)) < 1e-10
    assert np.max(np.abs(s @ s - np.eye(3))) < 1e-11


@pytest.mark.parametrize("complex_valued", [False, True])
def test_gaussian_block_offset_matches_full_stream(complex_valued):
    start, count = 37, 50
    for d in range(1, 5):
        full = _gaussian_block(SEED, 0, start + count, d, complex_valued)
        part = _gaussian_block(SEED, start, count, d, complex_valued)
        assert np.array_equal(part, full[start:])


def test_pooled_normals_are_standard():
    z = _gaussian_block(SEED, 0, 20000, 3, True).ravel()
    normals = np.concatenate((z.real, z.imag))
    n = normals.size
    assert abs(np.mean(normals)) < 5 / np.sqrt(n)
    # the sample variance of n standard normals has standard error sqrt(2/n)
    assert abs(np.var(normals) - 1) < 5 * np.sqrt(2 / n)
    assert abs(np.corrcoef(z.real, z.imag)[0, 1]) < 5 / np.sqrt(z.size)


def test_first_normal_at_seed_is_pinned():
    # a change here means every estimate for a given seed changed: rename STREAM
    assert STREAM == "philox4x64-counter-v1"
    first = _gaussian_block(SEED, 0, 1, 2, True)[0, 0, 0]
    assert abs(first - (0.8209029592863308 - 0.7998329323467099j)) < 1e-12
    # every byte of the real and complex streams at two starts, d = 1..4
    pins = {False: "85b61d21f690b07583f89b195b307759ac3f3147327dcb05a15de246450c915f",
            True: "2b7cec4d485b8e11ea046dd0462fc6a5aaa0b6d4ed975dee03dc2c308c470b8c"}
    for complex_valued, pin in pins.items():
        digest = hashlib.sha256()
        for d in range(1, 5):
            for start in (0, 37):
                digest.update(_gaussian_block(SEED, start, 50, d, complex_valued).tobytes())
        assert digest.hexdigest() == pin


def _flip(a):
    """(sample, row, column) <-> the (column, row, sample) layout of _qr_positive."""
    return a.transpose(2, 1, 0)


@pytest.mark.parametrize("complex_valued", [False, True])
def test_qr_positive_is_phase_fixed_householder(complex_valued):
    for d in range(1, 7):
        a = _gaussian_block(SEED, 0, 200, d, complex_valued)
        q = _flip(_qr_positive(_flip(a)))
        ref, r = np.linalg.qr(a)
        diag = np.diagonal(r, axis1=1, axis2=2)
        assert np.max(np.abs(q - ref * (diag / np.abs(diag))[:, None, :])) < 1e-12
        # R = Q* A is upper triangular with a real, positive diagonal
        r = q.conj().swapaxes(1, 2) @ a
        assert np.max(np.abs(np.tril(r, -1))) < 1e-12
        diag = np.diagonal(r, axis1=1, axis2=2)
        assert np.max(np.abs(diag.imag)) < 1e-12
        assert np.min(diag.real) > 0


@pytest.mark.parametrize("complex_valued", [False, True])
def test_qr_positive_stays_unitary_on_near_dependent_columns(complex_valued):
    a = _gaussian_block(SEED, 0, 200, 4, complex_valued)
    # condition numbers from about 1e5 up to 1e12 and past it
    for eps in (1e-4, 1e-7, 1e-10):
        b = a.copy()
        b[:, :, 1:] = a[:, :, :1] + eps * a[:, :, 1:]
        assert np.max(np.linalg.cond(b)) > 10 / eps
        _check_unitary(_qr_positive(_flip(b)), tol=1e-14)


@pytest.mark.parametrize("complex_valued", [False, True])
def test_rank_deficient_block_fails_the_unitarity_check_without_a_warning(complex_valued):
    zero = _gaussian_block(SEED, 0, 8, 3, complex_valued).copy()
    zero[3, :, 1] = 0
    dependent = np.zeros_like(zero)
    dependent[:, 0, 0] = dependent[:, 0, 2] = dependent[:, 1, 1] = 1
    for a in (zero, dependent):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="unitarity defect nan"):
                _check_unitary(_qr_positive(_flip(a)))


@pytest.mark.parametrize("complex_valued", [False, True])
def test_column_prefix_is_bitwise_the_full_sample(complex_valued):
    family = "u" if complex_valued else "o"
    for d in range(1, 7):
        for start in (0, 37):
            normals = _gaussian_block(SEED, start, 50, d, complex_valued)
            sample = _sample_block((family, d, d), SEED, start, 50)
            for m in range(1, d + 1):
                assert np.array_equal(_gaussian_block(SEED, start, 50, d, complex_valued, m),
                                      normals[:, :, :m])
                assert np.array_equal(_sample_block((family, d, d), SEED, start, 50, m),
                                      sample[:, :, :m])


def test_check_unitary_on_a_column_prefix_catches_a_scaled_column():
    q = _qr_positive(_flip(_gaussian_block(SEED, 0, 8, 4, True, 2)))
    _check_unitary(q)
    q[1, :, 5] *= 1 + 1e-6
    with pytest.raises(ValueError, match="unitarity defect"):
        _check_unitary(q)


def _orthogonalised_columns(monkeypatch, capsys, argv):
    seen = []
    qr = mc._qr_positive

    def recording(a):
        seen.append(len(a))
        return qr(a)

    monkeypatch.setattr(mc, "_qr_positive", recording)
    assert cli.run(argv) == 0
    capsys.readouterr()
    return set(seen)


def test_mc_orthogonalises_only_the_columns_it_reads(monkeypatch, capsys):
    # u and o stop at the largest column a monomial reads; coe and aiii
    # read every column of Q for every entry
    cases = (
        (["--family", "u", "--dim", "4", "--rows", "1", "--cols", "1",
          "--crows", "1", "--ccols", "1"], 1),
        (["--family", "o", "--dim", "3", "--rows", "1,2", "--cols", "2,2"], 2),
        (["--family", "coe", "--dim", "3", "--rows", "1", "--cols", "1",
          "--crows", "1", "--ccols", "1"], 3),
        (["--family", "aiii", "--sig", "2,1", "--rows", "1", "--cols", "1"], 3),
    )
    for flags, columns in cases:
        argv = ["mc", *flags, "--samples", "1000"]
        assert _orthogonalised_columns(monkeypatch, capsys, argv) == {columns}, flags


def test_batched_estimates_equal_each_spec_alone():
    first = MomentSpec("u", rows=(2,), cols=(1,), crows=(2,), ccols=(1,), d=4)
    third = MomentSpec("u", rows=(1, 4), cols=(3, 2), crows=(1, 4), ccols=(3, 2), d=4)
    ens = ensemble_of(first)
    alone = [estimate_moments(ens, [spec], 2000, SEED)[0] for spec in (first, third)]
    for chunk in (mc._CHUNK, 173):
        assert estimate_moments(ens, [first, third], 2000, SEED, chunk=chunk) == alone
        assert [estimate_moments(ens, [spec], 2000, SEED, chunk=chunk)[0]
                for spec in (first, third)] == alone


def test_degree_zero_estimate_is_one_and_still_checked(monkeypatch):
    checked = []
    check = mc._check_unitary

    def recording(q, tol=1e-10):
        checked.append(len(q))
        return check(q, tol)

    monkeypatch.setattr(mc, "_check_unitary", recording)
    spec = MomentSpec("u", (), (), d=3)
    est = _estimate(spec, 1000, SEED)
    assert (est.mean, est.se_real, est.se_imag) == (1, 0, 0)
    assert checked == [1]


def test_estimates_are_reproducible_and_chunk_independent():
    spec = MomentSpec("u", rows=(1,), cols=(1,), crows=(1,), ccols=(1,), d=3)
    ens = ensemble_of(spec)
    first = estimate_moments(ens, [spec], 2000, SEED)[0]
    again = estimate_moments(ens, [spec], 2000, SEED)[0]
    rechunked = estimate_moments(ens, [spec], 2000, SEED, chunk=173)[0]
    assert first == again
    assert first == rechunked


# one degree-4 monomial of each sampled ensemble at d = 4
THREAD_SPECS = {
    "u": MomentSpec("u", rows=(1, 4), cols=(2, 3), crows=(1, 4), ccols=(3, 2), d=4),
    "o": MomentSpec("o", rows=(1, 2, 3, 3), cols=(4, 4, 1, 2), d=4),
    "coe": MomentSpec("coe", rows=(1, 2), cols=(2, 3), crows=(1, 2), ccols=(2, 3), d=4),
    "aiii": MomentSpec("aiii", rows=(1, 2, 3, 4), cols=(2, 1, 4, 3), d=4, dminus=0),
}


@pytest.mark.parametrize("family", THREAD_SPECS)
def test_estimates_do_not_depend_on_the_thread_count(monkeypatch, family):
    spec = THREAD_SPECS[family]
    ens = ensemble_of(spec)
    sample = mc._sample_block
    caller = threading.get_ident()
    drawn = []

    def recording(ens, seed, start, count, m=None):
        drawn.append((start, count, threading.get_ident() == caller))
        return sample(ens, seed, start, count, m)

    for n in (1000, 2999, 4001):
        monkeypatch.setattr(mc, "_cores", lambda: 1)
        serial = estimate_moments(ens, [spec], n, SEED)
        for cores in (1, 2, 3, 8):
            monkeypatch.setattr(mc, "_cores", lambda: cores)
            for chunk in (mc._CHUNK, 173):
                drawn.clear()
                monkeypatch.setattr(mc, "_sample_block", recording)
                assert estimate_moments(ens, [spec], n, SEED, chunk=chunk) == serial
                monkeypatch.setattr(mc, "_sample_block", sample)
                # every sample is drawn once, in pieces of at most `chunk`
                drawn.sort()
                assert [start for start, _, _ in drawn] == [
                    0, *(start + count for start, count, _ in drawn[:-1])]
                assert drawn[-1][0] + drawn[-1][1] == n
                assert max(count for _, count, _ in drawn) <= chunk
                # each thread samples at least MIN_SAMPLES
                off_caller = sum(count for _, count, mine in drawn if not mine)
                assert (off_caller > 0) == (cores > 1 and n >= 2 * mc.MIN_SAMPLES)


def test_one_cpu_or_one_range_starts_no_thread(monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("started a sampling thread")

    spec = THREAD_SPECS["coe"]
    monkeypatch.setattr(mc.threading, "Thread", no_thread)
    for cores, n in ((1, 4001), (8, 1999)):
        monkeypatch.setattr(mc, "_cores", lambda: cores)
        _estimate(spec, n, SEED)


def test_a_failed_check_off_the_calling_thread_is_raised_by_the_call(monkeypatch):
    check = mc._check_unitary
    caller = threading.get_ident()

    def failing_past_the_first_range(q, tol=1e-10):
        if threading.get_ident() != caller:
            raise ValueError("sampler constraint violated: injected")
        return check(q, tol)

    monkeypatch.setattr(mc, "_cores", lambda: 2)
    monkeypatch.setattr(mc, "_check_unitary", failing_past_the_first_range)
    before = threading.active_count()
    with pytest.raises(ValueError, match="injected"):
        _estimate(THREAD_SPECS["u"], 4000, SEED)
    assert threading.active_count() == before


@pytest.mark.parametrize("first_failing", [0, 1000])
def test_the_lowest_failing_range_is_raised(monkeypatch, first_failing):
    sample = mc._sample_block

    def failing(ens, seed, start, count, m=None):
        if start >= first_failing:
            raise ValueError(f"range at {start}")
        return sample(ens, seed, start, count, m)

    monkeypatch.setattr(mc, "_cores", lambda: 3)
    monkeypatch.setattr(mc, "_sample_block", failing)
    before = threading.active_count()
    with pytest.raises(ValueError, match=f"^range at {first_failing}$"):
        _estimate(THREAD_SPECS["aiii"], 3000, SEED)
    assert threading.active_count() == before


def _src_env():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


# runs `wg` pinned to one CPU, where starting a thread fails
PINNED_WG = """
import os, sys, threading
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
def refuse(self):
    raise AssertionError("started a thread on one CPU")
threading.Thread.start = refuse
from wgcalc import cli
sys.exit(cli.run(sys.argv[1:]))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity")
                    or len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs to pin to one")
@pytest.mark.parametrize("monomial", [
    ["--family", "coe", "--dim", "4", "--rows", "1,2", "--cols", "2,3",
     "--crows", "1,2", "--ccols", "2,3"],
    ["--family", "aiii", "--sig", "2,2", "--rows", "1,2,3,4", "--cols", "2,1,4,3"]])
def test_wg_mc_output_does_not_depend_on_the_cpu_count(monomial):
    # the roundoff-level imaginary means in these outputs show any bit that moves
    argv = ["mc", *monomial, "--samples", "4001", "--seed", "11"]
    for extra in ([], ["--json"]):
        runs = [subprocess.run([sys.executable, *how, *argv, *extra], capture_output=True,
                               text=True, env=_src_env(), timeout=60)
                for how in (["-m", "wgcalc"], ["-c", PINNED_WG])]
        for proc in runs:
            assert proc.returncode == 0, proc.stderr
        assert runs[0].stdout == runs[1].stdout


def test_importing_mc_leaves_concurrent_futures_unloaded():
    script = "import sys, wgcalc.mc; assert 'concurrent.futures' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_unitary_phase_mean_near_zero():
    spec = MomentSpec("u", rows=(1,), cols=(1,), d=1)
    report = compare_with_exact(spec, 4000, SEED)
    assert report.exact == 0
    assert report.passed


def test_unitary_second_and_fourth_moments():
    spec2 = MomentSpec("u", rows=(1,), cols=(1,), crows=(1,), ccols=(1,), d=3)
    report = compare_with_exact(spec2, 20000, SEED)
    assert report.exact == Fraction(1, 3)
    assert report.passed
    spec4 = MomentSpec("u", rows=(1, 2), cols=(1, 2), crows=(1, 2), ccols=(2, 1), d=2)
    report = compare_with_exact(spec4, 20000, SEED)
    assert report.exact == Fraction(-1, 6)
    assert report.passed


def test_orthogonal_moments():
    spec = MomentSpec("o", rows=(1, 1), cols=(1, 1), d=2)
    report = compare_with_exact(spec, 20000, SEED)
    assert report.exact == Fraction(1, 2)
    assert report.passed
    spec = MomentSpec("o", rows=(1, 1, 2, 2), cols=(1, 2, 1, 2), d=2)
    report = compare_with_exact(spec, 20000, SEED)
    assert report.exact == Fraction(-1, 8)
    assert report.passed


def test_coe_degenerate_monomial_hits_absolute_floor():
    spec = MomentSpec("coe", rows=(1,), cols=(1,), crows=(1,), ccols=(1,), d=1)
    report = compare_with_exact(spec, 1000, SEED)
    assert report.exact == 1
    assert report.passed
    # past the floor, a difference with no spread to measure it by fails
    assert mc._component_check(2 * mc.ABS_FLOOR, 0.0) == (float("inf"), False)


def test_coe_fourth_moment():
    spec = MomentSpec("coe", rows=(1, 1), cols=(2, 2), crows=(1, 1), ccols=(2, 2), d=3)
    report = compare_with_exact(spec, 20000, SEED)
    assert report.exact == Fraction(2, 18)
    assert report.passed


def test_aiii_moments():
    spec = MomentSpec("aiii", rows=(1,), cols=(1,), d=3, dminus=1)
    report = compare_with_exact(spec, 20000, SEED)
    assert report.exact == Fraction(1, 3)
    assert report.passed
    spec = MomentSpec("aiii", rows=(1, 2), cols=(2, 1), d=3, dminus=1)
    report = compare_with_exact(spec, 20000, SEED)
    assert report.exact == Fraction(1, 3)
    assert report.passed


def test_ensemble_validation():
    assert ensemble_of(MomentSpec("u", (1,), (1,), (1,), (1,), 3)) == ("u", 3, 3)
    assert ensemble_of(MomentSpec("aiii", (1,), (1,), d=5, dminus=1)) == ("aiii", 5, 3)
    for d, dminus in ((4, 1), (3, 5)):
        with pytest.raises(ValueError, match="no integer signature matches"):
            ensemble_of(MomentSpec("aiii", (1,), (1,), d=d, dminus=dminus))
    with pytest.raises(ValueError, match="mirrored signature"):
        ensemble_of(MomentSpec("aiii", (1,), (1,), d=3, dminus=-1))


def test_refused_exact_value_draws_no_sample(capsys, monkeypatch):
    def no_sampling(*args):
        raise AssertionError("sampled a request the exact side refuses")

    monkeypatch.setattr(mc, "_sample_block", no_sampling)
    argv = ["mc", "--family", "u", "--dim", "2", "--rows", "1,1,1", "--cols", "1,1,1",
            "--crows", "1,1,1", "--ccols", "1,1,1", "--samples", "1000000"]
    code = cli.run(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        1, "", "error: --dim: dimension 2 below level 3\n")


def test_sampling_entry_points_keep_their_leading_parameters():
    # bench/tracing.py hooks both functions by name and reads args[2] as the
    # number of samples
    for func in (estimate_moments, mc.compare_many):
        params = list(inspect.signature(func).parameters)
        assert params[:4] == ["ens", "specs", "n", "seed"], func.__name__


def test_estimate_rejects_bad_requests():
    spec = MomentSpec("u", rows=(1,), cols=(1,), crows=(1,), ccols=(1,), d=3)
    with pytest.raises(ValueError):
        _estimate(spec, 999, SEED)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed"):
            _estimate(spec, 2000, seed)
    with pytest.raises(ValueError):
        estimate_moments(("o", 3, 3), [spec], 2000, SEED)
    # MomentSpec refuses the out-of-range index before any sampling
    with pytest.raises(ValueError, match="rows index 5 outside 1..3"):
        big = MomentSpec("u", rows=(5,), cols=(1,), crows=(5,), ccols=(1,), d=3)
        estimate_moments(("u", 3, 3), [big], 2000, SEED)
    odd = MomentSpec("aiii", rows=(1,), cols=(1,), d=3, dminus=2)
    with pytest.raises(ValueError):
        _estimate(odd, 2000, SEED)
