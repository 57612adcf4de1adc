"""Round-trip, corruption, and verification checks for the value cache."""

from fractions import Fraction

import pytest
from oracles import load_cache

from wgcalc import cache
from wgcalc.cache import CacheCorruptionError


def test_export_and_load_round_trip(tmp_path):
    path = str(tmp_path / "values.tsv")
    written = cache.export(path, "u", 3, 5)
    assert written == 6
    entries = load_cache(path)
    assert entries[("U", 1, "1", "d=5")] == Fraction(1, 5)
    assert entries[("U", 2, "2", "d=5")] == Fraction(-1, 120)
    assert entries[("U", 3, "3", "d=5")] == Fraction(1, 1260)
    text = open(path).read()
    assert "U\t2\t1+1\td=5\t1/24\n" in text


def test_export_is_append_only_and_idempotent(tmp_path):
    path = str(tmp_path / "values.tsv")
    cache.export(path, "o", 2, 4)
    before = open(path).read()
    assert cache.export(path, "o", 2, 4) == 0
    assert open(path).read() == before
    added = cache.export(path, "o", 3, 4)
    assert open(path).read().startswith(before)
    assert added == 3
    assert cache.export(path, "coe", 2, 3) == 3
    entries = load_cache(path)
    assert entries[("O", 2, "1+1", "d=4")] == Fraction(5, 72)
    assert entries[("COE", 2, "1+1", "d=3")] == Fraction(5, 72)


def test_aiii_and_sp_records(tmp_path):
    path = str(tmp_path / "values.tsv")
    cache.export(path, "aiii", 2, 4, dminus=2)
    cache.export(path, "sp", 2, 2)
    entries = load_cache(path)
    assert entries[("AIII", 1, "1", "d=4,dm=2")] == Fraction(1, 2)
    assert entries[("AIII", 2, "2", "d=4,dm=2")] == Fraction(1, 5)
    assert entries[("SP", 2, "1+1", "d=2")] == Fraction(3, 40)
    assert cache.verify(path, fraction=1.0, seed=7) == (6, 6)


def test_export_argument_validation(tmp_path):
    path = str(tmp_path / "values.tsv")
    with pytest.raises(ValueError):
        cache.export(path, "q", 2, 4)
    with pytest.raises(ValueError):
        cache.export(path, "aiii", 2, 4)
    with pytest.raises(ValueError):
        cache.export(path, "u", 2, 4, dminus=1)
    with pytest.raises(ValueError):
        cache.export(path, "u", 0, 4)


def test_load_reports_malformed_lines(tmp_path):
    path = tmp_path / "values.tsv"
    path.write_text("U\t1\t1\td=5\t1/5\nU\t2\t2\td=5\n")
    with pytest.raises(CacheCorruptionError, match="line 2.*5 tab-separated"):
        load_cache(str(path))
    path.write_text("X\t1\t1\td=5\t1/5\n")
    with pytest.raises(CacheCorruptionError, match="line 1.*family tag"):
        load_cache(str(path))
    path.write_text("U\ttwo\t2\td=5\t-1/120\n")
    with pytest.raises(CacheCorruptionError, match="line 1.*not an integer"):
        load_cache(str(path))
    path.write_text("U\t2\t3\td=5\t-1/120\n")
    with pytest.raises(CacheCorruptionError, match="line 1.*partition of 2"):
        load_cache(str(path))
    path.write_text("U\t2\t2\tdim=5\t-1/120\n")
    with pytest.raises(CacheCorruptionError, match="line 1.*dimension"):
        load_cache(str(path))
    path.write_text("U\t2\t2\td=5,dm=1\t-1/120\n")
    with pytest.raises(CacheCorruptionError, match="line 1.*dimension"):
        load_cache(str(path))
    path.write_text("AIII\t1\t1\td=5\t1/5\n")
    with pytest.raises(CacheCorruptionError, match="line 1.*2 dimension"):
        load_cache(str(path))
    path.write_text("U\t2\t2\td=5\t0.5\n")
    with pytest.raises(CacheCorruptionError, match="line 1.*p/q"):
        load_cache(str(path))
    path.write_bytes(b"U\t1\t1\td=5\t1/5\nU\t2\t2\td=5\t-1/120\n\xe9\n")
    with pytest.raises(CacheCorruptionError, match="^line 3: not UTF-8 text$"):
        load_cache(str(path))


def test_conflicting_duplicate_is_corruption(tmp_path):
    path = tmp_path / "values.tsv"
    path.write_text("U\t1\t1\td=5\t1/5\nU\t1\t1\td=5\t1/5\n")
    assert load_cache(str(path)) == {("U", 1, "1", "d=5"): Fraction(1, 5)}
    path.write_text("U\t1\t1\td=5\t1/5\nU\t1\t1\td=5\t1/6\n")
    with pytest.raises(CacheCorruptionError, match="line 2.*conflicts with line 1"):
        load_cache(str(path))


def test_verify_catches_a_tampered_value(tmp_path):
    path = str(tmp_path / "values.tsv")
    cache.export(path, "u", 3, 5)
    assert cache.verify(path, fraction=1.0, seed=3) == (6, 6)
    lines = open(path).read().splitlines()
    lines[2] = lines[2].rsplit("\t", 1)[0] + "\t1/23"
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(CacheCorruptionError, match="disagrees with recomputed"):
        cache.verify(path, fraction=1.0, seed=3)


def test_verify_samples_deterministically(tmp_path):
    path = str(tmp_path / "values.tsv")
    cache.export(path, "u", 4, 6)
    checked, total = cache.verify(path, seed=11)
    assert (checked, total) == (1, 11)
    assert cache.verify(path, seed=11) == (1, 11)


def test_verify_rejects_unrecomputable_dimension(tmp_path):
    path = tmp_path / "values.tsv"
    # the U record is one an older export wrote below the level
    for record in ("SP\t1\t1\td=0\t1/2\n", "U\t1\t1\td=-5\t-1/5\n"):
        path.write_text(record)
        with pytest.raises(CacheCorruptionError, match="cannot recompute"):
            cache.verify(str(path), fraction=1.0, seed=0)
