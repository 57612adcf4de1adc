"""Append-only TSV cache of solved class values.

Each record is one line with five tab-separated fields: family tag (the
family's name in capitals: U, O, COE, SP, AIII), level, class key
("3+1+1"), dimension arguments ("d=5" or "d=5,dm=1"), and the exact value
as "p/q".  Loading validates every field and treats two records that give
the same key different values as corruption.  Verification recomputes a
seeded random sample of the stored values with the exact engine.
"""

from __future__ import annotations

import math
import os
import random
import re
from fractions import Fraction

from . import exact
from .symcore import format_partition, parse_partition, partitions

_FAMILIES = {name.upper(): name for name in exact.FAMILIES}
_VALUE_RE = re.compile(r"-?\d+/\d+$")
_UNDECODED_RE = re.compile("[\udc80-\udcff]")


class CacheCorruptionError(Exception):
    """A cache file failed validation; the message names the offending line."""


def _dims_text(d: int, dminus) -> str:
    return f"d={d}" if dminus is None else f"d={d},dm={dminus}"


def _parse_dims(family: str, text: str, lineno: int) -> tuple[int, int | None]:
    fields = text.split(",")
    want = 2 if exact.FAMILIES[family].takes_dminus else 1
    if len(fields) != want:
        raise CacheCorruptionError(
            f"line {lineno}: family {family.upper()} needs "
            f"{want} dimension argument(s), got {text!r}"
        )
    if not fields[0].startswith("d=") or (want == 2 and not fields[1].startswith("dm=")):
        raise CacheCorruptionError(f"line {lineno}: malformed dimension field {text!r}")
    try:
        d = int(fields[0][2:])
        dminus = int(fields[1][3:]) if want == 2 else None
    except ValueError:
        raise CacheCorruptionError(
            f"line {lineno}: malformed dimension field {text!r}"
        ) from None
    return d, dminus


def _key_text(key: tuple) -> str:
    tag, level, class_text, dims_text = key
    return f"{tag} level {level} class {class_text} at {dims_text}"


def _parse_file(path: str) -> dict[tuple, tuple[Fraction, int]]:
    entries: dict[tuple, tuple[Fraction, int]] = {}
    # undecodable bytes become lone surrogates, so the line that holds them
    # can be named
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if _UNDECODED_RE.search(line):
                raise CacheCorruptionError(f"line {lineno}: not UTF-8 text")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 5:
                raise CacheCorruptionError(
                    f"line {lineno}: expected 5 tab-separated fields, got {len(fields)}"
                )
            tag, level_text, class_text, dims_text, value_text = fields
            if tag not in _FAMILIES:
                raise CacheCorruptionError(f"line {lineno}: unknown family tag {tag!r}")
            family = _FAMILIES[tag]
            try:
                level = int(level_text)
            except ValueError:
                raise CacheCorruptionError(
                    f"line {lineno}: level {level_text!r} is not an integer"
                ) from None
            try:
                mu = parse_partition(class_text)
            except ValueError as exc:
                raise CacheCorruptionError(f"line {lineno}: {exc}") from None
            if sum(mu) != level or level < 1:
                raise CacheCorruptionError(
                    f"line {lineno}: class {class_text!r} is not a partition of {level}"
                )
            d, dminus = _parse_dims(family, dims_text, lineno)
            if not _VALUE_RE.fullmatch(value_text):
                raise CacheCorruptionError(
                    f"line {lineno}: value {value_text!r} is not of the form p/q"
                )
            value = Fraction(value_text)
            key = (tag, level, format_partition(mu), _dims_text(d, dminus))
            if key in entries:
                stored, first = entries[key]
                if stored != value:
                    raise CacheCorruptionError(
                        f"line {lineno}: value {value_text} conflicts with "
                        f"line {first} for {_key_text(key)}"
                    )
                continue
            entries[key] = (value, lineno)
    return entries


def export(path: str, family: str, k: int, d: int, dminus: int | None = None) -> int:
    """Append all class values for levels 1..k, skipping records already
    present.  Returns the number of newly written records."""
    if family not in exact.FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if k < 1:
        raise ValueError(f"level must be positive, got {k}")
    existing = _parse_file(path) if os.path.exists(path) else {}
    tag = family.upper()
    dims = _dims_text(d, dminus)
    fresh = []
    for level in range(1, k + 1):
        for mu in partitions(level):
            value = exact.wg_class(family, mu, d, dminus)
            key = (tag, level, format_partition(mu), dims)
            if key in existing:
                stored, lineno = existing[key]
                if stored != value:
                    raise CacheCorruptionError(
                        f"line {lineno}: stored value {stored} for {_key_text(key)} "
                        f"disagrees with recomputed {value}"
                    )
                continue
            fresh.append(
                "\t".join([tag, str(level), format_partition(mu), dims,
                           f"{value.numerator}/{value.denominator}"])
            )
    if fresh:
        with open(path, "a", encoding="utf-8") as fh:
            for line in fresh:
                fh.write(line + "\n")
    return len(fresh)


def verify(path: str, fraction: float = 0.05, seed: int = 0) -> tuple[int, int]:
    """Recompute a seeded random sample of the stored values.

    Returns (checked, total).  Raises CacheCorruptionError on any mismatch
    or if a stored key cannot be recomputed at all.
    """
    entries = _parse_file(path)
    keys = sorted(entries)
    if not keys:
        return 0, 0
    count = min(len(keys), max(1, math.ceil(fraction * len(keys))))
    chosen = random.Random(seed).sample(keys, count)
    for key in chosen:
        tag, _, class_text, dims_text = key
        family = _FAMILIES[tag]
        mu = parse_partition(class_text)
        stored, lineno = entries[key]
        d, dminus = _parse_dims(family, dims_text, lineno)
        try:
            value = exact.wg_class(family, mu, d, dminus)
        except (exact.SingularSystemError, ValueError) as exc:
            raise CacheCorruptionError(
                f"line {lineno}: cannot recompute {_key_text(key)}: {exc}"
            ) from None
        if value != stored:
            raise CacheCorruptionError(
                f"line {lineno}: stored value {stored} for {_key_text(key)} "
                f"disagrees with recomputed {value}"
            )
    return count, len(keys)
