"""Build the candidate job pools and record their expected outputs.

Usage, from the repository root:

    python3 bench/record.py            # rewrite bench/pool/<workload>.json
    python3 bench/record.py --check    # compare the engine against the pools

A pool is a list of slots.  Each slot holds one or a few variants of equal
cost (another element of the same level, other index values of the same
multiplicities, another sampler seed); the benchmark seed picks one variant
per slot and shuffles the slots, so every seed runs the same amount of work.  A variant
is a list of jobs run in order (a cache export and the verify that reads
its file).  A job is a ``wg`` argv run in process through ``cli.run``, or a
library call for ``exact.wg_coe_direct``, which has no command.

Expected outputs are what the engine prints at the commit that recorded
them: exact jobs must later match stdout byte for byte, ``mc`` jobs must
exit 0 and match the ``exact:`` line.  The ``known_defect`` rows of the
``moments`` pool are the exception: they hold moments at ``d < k`` whose
true values are known in closed form,

    E|u11|^(2k)  = 1 / C(d+k-1, k)
    E[o11^(2k)]  = prod_{i<k} (2i+1) / (d+2i),

which the engine refuses today.  Their expected output is the closed form,
so they count as failed jobs until the engine returns those values.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import common

POOL_DIR = Path(__file__).resolve().parent / "pool"
WORKLOADS = ("solve", "paths", "moments", "mc")
POOLS = (*WORKLOADS, "baseline")
VARIANTS = 3
MC_SAMPLES = 4000


def _perm_text(images) -> str:
    return ",".join(str(x) for x in images)


def _pairing_text(blocks) -> str:
    return "|".join(f"{a},{b}" for a, b in blocks)


class _Elements:
    """Seeded random elements, so the pools are the same on every recording."""

    def __init__(self, symcore, seed: int):
        self.sc = symcore
        self.rng = random.Random(seed)

    def perm(self, k: int):
        imgs = list(range(1, k + 1))
        self.rng.shuffle(imgs)
        return self.sc.Permutation(tuple(imgs))

    def pairing(self, k: int):
        return self.sc.PairPartition.trivial(k).apply(self.perm(2 * k))

    def in_class(self, mu, pairing: bool):
        """A random element of the class ``mu``."""
        if pairing:
            while True:
                cand = self.pairing(sum(mu))
                if cand.coset_type() == tuple(mu):
                    return cand
        rep = self.sc.class_representative(mu)
        zeta = self.perm(len(rep.images))
        return zeta * rep * zeta.inverse()


def _job(argv, **extra) -> dict:
    return {"argv": [str(a) for a in argv], **extra}


def _elem_flags(family, elem):
    if family in ("u", "aiii"):
        return ["--perm", _perm_text(elem.images)]
    return ["--pairing", _pairing_text(elem.blocks)]


def _slot(name, variants) -> dict:
    return {"name": name, "variants": variants}


def solve_slots(el: _Elements) -> list[dict]:
    """Cold ``wg value`` for all five families, from small levels to the
    largest unitary tables, at dimensions from the edge of the valid range
    to far above it; plus symbolic values, ratio bounds, the value cache
    and the element-level COE solver."""
    # variants keep the dimension: the cost of a table depends on d, not on the element.
    # Levels 10 and 11 run at two dimensions each: their jobs, of 0.1 to 0.2 s,
    # set the p90 latency, which is steadier when more jobs sit near it.
    slots = []
    levels = {
        "u": [(2, 2), (3, 3), (4, 40), (5, 5), (6, 600), (7, 7), (8, 8), (9, 90), (10, 10),
              (10, 1000), (11, 11), (11, 1100), (12, 12), (14, 14)],
        "o": [(2, 2), (3, 3), (4, 40), (5, 50), (6, 6), (8, 8), (10, 10), (10, 100)],
        "coe": [(2, 2), (4, 4), (7, 70), (10, 10), (10, 100)],
        "sp": [(2, 2), (4, 4), (7, 70), (10, 10), (10, 100)],
        "aiii": [(2, 2), (4, 4), (6, 60), (8, 8), (11, 11), (11, 110)],
    }
    for family, pairs in levels.items():
        pairing = family in ("o", "coe", "sp")
        for k, d0 in pairs:
            variants = []
            for _ in range(VARIANTS):
                elem = el.pairing(k) if pairing else el.perm(k)
                argv = ["value", "--family", family, *_elem_flags(family, elem),
                        "--dim", d0]
                if family == "aiii":
                    argv += ["--dminus", (d0 % 3) * 2 - 2]
                variants.append([_job(argv)])
            slots.append(_slot(f"value-{family}-k{k}-d{d0}", variants))
    # the degree of a closed form, and so its cost, depends on the class
    symbolic = [("u", (3, 1)), ("u", (1, 1, 1)), ("o", (2,)), ("o", (1, 1, 1)), ("coe", (2,)),
                ("sp", (2,)), ("aiii", (2, 1))]
    for family, mu in symbolic:
        pairing = family in ("o", "coe", "sp")
        variants = []
        for _ in range(VARIANTS):
            elem = el.in_class(mu, pairing)
            argv = ["value", "--family", family, *_elem_flags(family, elem), "--symbolic"]
            if family == "aiii":
                argv += ["--dminus", 1]
            variants.append([_job(argv)])
        slots.append(_slot(f"symbolic-{family}-{el.sc.format_partition(mu)}", variants))
    ratio = [("u", 5, 100), ("u", 6, 300), ("o", 2, 200), ("sp", 2, 80)]
    for family, k, d0 in ratio:
        variants = [[_job(["bounds", "--check", "ratio", "--family", family,
                           "--k", k, "--dim", d0])] for _ in range(VARIANTS)]
        slots.append(_slot(f"ratio-{family}-k{k}", variants))
    caches = [("u", 6, 6, None), ("o", 5, 5, None), ("aiii", 5, 7, 1)]
    for family, k, d0, dm in caches:
        variants = []
        for v in range(VARIANTS):
            path = f"{{work}}/cache-{family}.tsv"
            export = ["cache", "export", "--family", family, "--k", k, "--dim", d0]
            if dm is not None:
                export += ["--dminus", dm]
            export += ["--out", path]
            verify = ["cache", "verify", "--path", path, "--fraction", "0.5", "--seed", v]
            variants.append([_job(export, fresh=path), _job(verify)])
        slots.append(_slot(f"cache-{family}-k{k}", variants))
    for k, d0 in ((3, 3), (4, 5)):
        variants = [[{"call": "wg_coe_direct", "pairing": _pairing_text(el.pairing(k).blocks),
                      "dim": d0}] for _ in range(VARIANTS)]
        slots.append(_slot(f"coe-direct-k{k}", variants))
    return slots


def paths_slots(el: _Elements) -> list[dict]:
    """Series for every class at the levels where the element-level path
    memo grows, bound checks that walk the graphs, path listings and
    monotone factorizations."""
    sc = el.sc
    slots = []
    # one element per class: the element-level memo makes the cost of a
    # series differ between elements of the same class
    def series(family, mu, order):
        elem = el.in_class(mu, family in ("o", "sp"))
        return [_job(["series", "--family", family, *_elem_flags(family, elem),
                      "--order", order])]

    # (family, k, order); u at k=7 runs at order 2, where its 15 series cost
    # 0.03 to 1.1 s, about as much as eight of them at order 3
    plan = [("u", 5, 3), ("u", 6, 3), ("u", 7, 2), ("o", 4, 3), ("o", 5, 3), ("sp", 4, 2),
            ("sp", 5, 2), ("aiii", 4, 2), ("aiii", 5, 2)]
    for family, k, order in plan:
        for mu in sc.partitions(k):
            slots.append(_slot(f"series-{family}-{sc.format_partition(mu)}",
                               [series(family, mu, order)]))
    # every aiii series at k=6 costs 1.0 to 1.4 s, whatever the class and
    # order, so one slot holds all eleven classes and the seed picks one
    slots.append(_slot("series-aiii-k6", [series("aiii", mu, 2) for mu in sc.partitions(6)]))
    checks = [["counts", "--family", "u", "--k", 5], ["counts", "--family", "o", "--k", 4],
              ["neighborhood", "--k", 6], ["injection", "--k", 5]]
    for check in checks:
        slots.append(_slot(f"bounds-{check[0]}-{check[-3] if check[0] == 'counts' else 'u'}",
                           [[_job(["bounds", "--check", *check])]]))
    listings = [("u", (4, 1), 2), ("o", (2, 1), 2), ("aiii", (2, 2), 2)]
    for family, mu, extra in listings:
        pairing = family == "o"
        variants = []
        for _ in range(VARIANTS):
            elem = el.in_class(mu, pairing)
            solid = elem.absolute_length() + extra
            variants.append([_job(["paths", "--family", family, *_elem_flags(family, elem),
                                   "--solid", solid, "--list"])])
        slots.append(_slot(f"paths-{family}-{sc.format_partition(mu)}", variants))
    for family, mu, extra in (("u", (4,), 2), ("o", (2, 1), 1)):
        pairing = family == "o"
        variants = []
        for _ in range(VARIANTS):
            elem = el.in_class(mu, pairing)
            length = elem.absolute_length() + extra
            variants.append([_job(["factorizations", "--family", family,
                                   *_elem_flags(family, elem), "--length", length,
                                   "--list"])])
        slots.append(_slot(f"factorizations-{family}-{sc.format_partition(mu)}", variants))
    return slots


def _indices(rng: random.Random, mult: tuple[int, ...], d: int) -> list[int]:
    """Indices from ``1..d``: one value per multiplicity, positions shuffled."""
    values = rng.sample(range(1, d + 1), len(mult))
    out = [v for v, m in zip(values, mult) for _ in range(m)]
    rng.shuffle(out)
    return out


def _shuffled(rng: random.Random, seq: list[int]) -> list[int]:
    out = seq[:]
    rng.shuffle(out)
    return out


def moments_slots(el: _Elements) -> list[dict]:
    """Moments across index multiplicity, from all-distinct indices (one
    term) to all-equal ones ((k!)^2 terms for ``u``), at ``d`` from ``k``
    up, plus the known-defect rows at ``d < k``.

    A slot fixes the multiplicities of its row and column indices, which
    fix the number of convolution terms; its variants draw other values
    and positions."""
    rng = el.rng
    slots = []

    def seq(values):
        return ",".join(str(x) for x in values)

    # (family, row multiplicities, column multiplicities, d, dminus)
    plan = [("u", (1, 1), (1, 1), 2, None), ("u", (3,), (3,), 3, None),
            ("u", (2, 1), (1, 1, 1), 4, None), ("u", (2, 2), (2, 2), 4, None),
            ("u", (1, 1, 1, 1), (1, 1, 1, 1), 6, None), ("u", (4,), (4,), 5, None),
            ("u", (1, 1, 1, 1, 1), (1, 1, 1, 1, 1), 5, None), ("u", (3, 1, 1), (2, 2, 1), 5, None),
            ("u", (5,), (5,), 5, None),
            ("o", (4,), (4,), 2, None), ("o", (4, 2), (2, 2, 2), 3, None),
            ("o", (6,), (6,), 4, None), ("o", (4, 4), (4, 2, 2), 4, None),
            ("o", (8,), (8,), 4, None), ("o", (2, 2, 2, 2), (2, 2, 2, 2), 6, None),
            ("coe", (4,), None, 2, None), ("coe", (2, 2), None, 3, None),
            ("coe", (4, 2), None, 3, None), ("coe", (6,), None, 4, None),
            ("aiii", (2,), None, 2, 0), ("aiii", (2, 1), None, 3, 1),
            ("aiii", (2, 2), None, 4, 2), ("aiii", (4,), None, 5, 1),
            ("aiii", (3, 2), None, 5, -1)]
    for family, mult_r, mult_c, d, dminus in plan:
        variants = []
        for _ in range(VARIANTS):
            if family in ("u", "o"):
                rows, cols = _indices(rng, mult_r, d), _indices(rng, mult_c, d)
                argv = ["--rows", seq(rows), "--cols", seq(cols)]
                if family == "u":
                    argv += ["--crows", seq(_shuffled(rng, rows)),
                             "--ccols", seq(_shuffled(rng, cols))]
            elif family == "coe":
                # k plain and k conjugated factors; conjugate indices permute the plain ones
                flat = _indices(rng, mult_r, d)
                conj = _shuffled(rng, flat)
                argv = ["--rows", seq(flat[0::2]), "--cols", seq(flat[1::2]),
                        "--crows", seq(conj[0::2]), "--ccols", seq(conj[1::2])]
            else:
                rows = _indices(rng, mult_r, d)
                argv = ["--rows", seq(rows), "--cols", seq(_shuffled(rng, rows)),
                        "--dminus", dminus]
            variants.append([_job(["moment", "--family", family, *argv, "--dim", d])])
        name = "-".join(map(str, mult_r)) + ("/" + "-".join(map(str, mult_c)) if mult_c else "")
        slots.append(_slot(f"moment-{family}-{name}-d{d}", variants))
    # known-defect rows: d < k, true value in closed form
    defects = [("u", [(2, 1), (3, 2), (3, 1)]), ("u", [(4, 2), (4, 3), (4, 1)]),
               ("o", [(2, 1), (3, 1), (3, 2)])]
    for n, (family, cases) in enumerate(defects):
        variants = []
        for k, d in cases:
            ones = seq([1] * k) if family == "u" else seq([1] * (2 * k))
            argv = ["moment", "--family", family, "--rows", ones, "--cols", ones]
            if family == "u":
                argv += ["--crows", ones, "--ccols", ones]
                value = Fraction(1, math.comb(d + k - 1, k))
            else:
                value = math.prod(Fraction(2 * i + 1, d + 2 * i) for i in range(k))
            variants.append([_job(argv + ["--dim", d], known_defect=True,
                                  expect={"rc": 0, "stdout": f"{value}\n"})])
        slots.append(_slot(f"defect-{family}-{n}", variants))
    return slots


def mc_slots(el: _Elements) -> list[dict]:
    """Monte Carlo z-tests of degree <= 4 monomials at fixed sample count."""
    rng = el.rng
    slots = []
    monomials = {
        "u": [["--rows", "1", "--cols", "1", "--crows", "1", "--ccols", "1"],
              ["--rows", "1,2", "--cols", "1,2", "--crows", "1,2", "--ccols", "2,1"]],
        "o": [["--rows", "1,1", "--cols", "1,1"], ["--rows", "1,2,1,2", "--cols", "1,2,2,1"]],
        "coe": [["--rows", "1", "--cols", "1", "--crows", "1", "--ccols", "1"],
                ["--rows", "1,2", "--cols", "2,1", "--crows", "1,2", "--ccols", "2,1"]],
        "aiii": [["--rows", "1", "--cols", "1"], ["--rows", "1,2", "--cols", "2,1"]],
    }
    ensembles = [(f, ["--dim", d]) for f in ("u", "o", "coe") for d in (2, 3, 4)]
    ensembles += [("aiii", ["--sig", sig]) for sig in ("2,1", "2,2", "3,1")]
    for family, dims in ensembles:
        for m, mono in enumerate(monomials[family]):
            variants = [[_job(["mc", "--family", family, *dims, *mono,
                               "--samples", MC_SAMPLES, "--seed", rng.randrange(10**6)])]
                        for _ in range(VARIANTS)]
            slots.append(_slot(f"mc-{family}-{dims[1]}-m{m}", variants))
    return slots


def baseline_slots(el: _Elements) -> list[dict]:
    """The cases ROADMAP item 1 measured by hand, timed once per traced run."""
    sc = el.sc

    def one(name, job):
        return _slot(name, [[job]])

    cycle8 = _perm_text(list(range(2, 9)) + [1])
    return [
        one("u_table_k14", _job(["value", "--family", "u", "--perm",
                                 _perm_text(list(range(2, 15)) + [1]), "--dim", 14])),
        one("u_series_k8", _job(["series", "--family", "u", "--perm", cycle8, "--order", 3])),
        one("o_series_k6", _job(["series", "--family", "o", "--pairing",
                                 _pairing_text(sc.coset_representative((3, 3)).blocks),
                                 "--order", 3])),
        one("coe_direct_k4", {"call": "wg_coe_direct",
                              "pairing": _pairing_text(sc.PairPartition.trivial(4).blocks),
                              "dim": 5}),
    ]


BUILDERS = {"solve": solve_slots, "paths": paths_slots, "moments": moments_slots,
            "mc": mc_slots, "baseline": baseline_slots}


def _expect(job: dict, outcome: common.Outcome) -> dict:
    if job.get("argv", [""])[0] == "mc":
        return {"rc": outcome.rc, "exact_line": common.exact_line(outcome.stdout)}
    return {"rc": outcome.rc, "stdout": outcome.stdout}


def record(workload: str, check: bool) -> int:
    """Run every candidate job once, cold; write or check its expectation."""
    engine = common.load_engine()
    path = POOL_DIR / f"{workload}.json"
    if check:
        slots = json.loads(path.read_text())["slots"]
    else:
        slots = BUILDERS[workload](_Elements(engine.symcore, seed=POOLS.index(workload)))
    problems = 0
    with common.WorkDir() as work:
        for slot in slots:
            for variant in slot["variants"]:
                for job in variant:
                    engine.clear_caches()
                    outcome = common.run_job(engine, job, work.path)
                    if job.get("known_defect"):
                        ok = common.matches(job, outcome, job["expect"])
                        if ok:
                            print(f"note: known defect now passes: {slot['name']}")
                        continue
                    if check:
                        if not common.matches(job, outcome, job["expect"]):
                            problems += 1
                            print(f"MISMATCH {slot['name']}: {common.describe(job)}\n"
                                  f"  got rc={outcome.rc} {outcome.stdout[:200]!r}")
                        continue
                    if outcome.rc != 0:
                        problems += 1
                        print(f"FAILED {slot['name']}: {common.describe(job)}\n"
                              f"  rc={outcome.rc} {outcome.stderr.strip()[:200]}")
                    job["expect"] = _expect(job, outcome)
    if not check and not problems:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"workload": workload, "slots": slots}, indent=1) + "\n")
    print(f"{workload}: {len(slots)} slots, {problems} problems")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare the engine with the recorded pools instead of writing them")
    parser.add_argument("workloads", nargs="*", default=list(POOLS))
    args = parser.parse_args(argv)
    problems = sum(record(w, args.check) for w in args.workloads)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
