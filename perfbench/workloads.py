"""The three benchmark workloads: seeded inputs, the operation, its check.

A workload is an endless, seed-determined stream of rounds.  A round is a
list of items; each item is one timed call into a4csl plus the answer it
must give.  Everything in an item -- sampling, the primitive/admissible
filter and the expected answers -- is computed when the round is made,
before its timed region, so the timed calls receive only generated
inputs.  No input comes from the enumerator.

Calls go through module attributes (``a4csl.csl.rotation_of`` and so on)
at call time, so the traced run's rebinding of those names is seen.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from pathlib import Path

import a4csl
import a4csl.cli
import a4csl.csl

from reference import admissible_data, rotation_class_count

HERE = Path(__file__).resolve().parent

# Coordinates of sampled icosians are drawn from [-BOX, BOX]^8.  About 9% of
# the draws are primitive and admissible; sigma then runs from 1 into the
# thousands with median about 22.
BOX = 3

# 12 reaches 11, the first split prime, so every branch of the enumerator runs.
CENSUS_NMAX = 12
CENSUS_GOLDEN = HERE / "golden" / f"census_nmax{CENSUS_NMAX}.csv"

# sigma = 5 witness pair: distinct rotations, same CSL, not symmetry related.
WITNESS = ("(t,2*t,0,0)", "(1+t,t,t,1)")


@dataclass(frozen=True)
class Sample:
    q: a4csl.Icosian
    sigma: int
    den: int


def sample_icosian(rng: random.Random) -> Sample:
    """A primitive admissible icosian by rejection sampling in the box."""
    while True:
        zc = tuple(rng.randint(-BOX, BOX) for _ in range(8))
        data = admissible_data(zc)
        if data is None:
            continue
        q = a4csl.Icosian(zc)
        if q.is_primitive():
            return Sample(q, *data)


def _parse_witness(text: str) -> Sample:
    q = a4csl.to_icosian(a4csl.parse_quat(text))
    return Sample(q, *admissible_data(q.zc))


def run_census(nmax: int) -> tuple[int, str]:
    """`a4csl census --nmax nmax` in-process: (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = a4csl.cli.main(["census", "--nmax", str(nmax)])
    return code, buf.getvalue()


def census_golden_check(text: str, nmax: int) -> list[str]:
    """Problems with a census CSV: every row must match f(n), and the class
    count must equal the ideal-zeta count.  Empty when the table is sound."""
    lines = text.splitlines()
    problems = []
    if not lines or lines[0] != "n,rotation_classes,csl_count,f_formula,match":
        problems.append("bad header")
    rows = lines[1:]
    if [r.split(",")[0] for r in rows] != [str(n) for n in range(1, nmax + 1)]:
        problems.append("rows are not n = 1..nmax")
    for r in rows:
        n, classes, _csls, _f, match = r.split(",")
        if match != "true":
            problems.append(f"n={n}: match is {match}")
        if int(classes) != rotation_class_count(int(n)):
            problems.append(f"n={n}: {classes} classes, ideal zeta gives "
                            f"{rotation_class_count(int(n))}")
    return problems


class Census:
    """`a4csl census --nmax N` in-process; one op is one rotation class.

    The headline user job.  About three quarters of its time is the
    two-form DFS in shortvec and the unit-orbit dedup in counting.  The
    seed does not change the input.
    """

    name = "census"
    trace_rounds = 1

    def __init__(self):
        self.golden = CENSUS_GOLDEN.read_text()
        problems = census_golden_check(self.golden, CENSUS_NMAX)
        if problems:
            raise RuntimeError(f"{CENSUS_GOLDEN.name} is unsound: {problems}")
        self.golden_rows = self.golden.splitlines()[1:]
        self.classes = [int(r.split(",")[1]) for r in self.golden_rows]

    def rounds(self, seed: int):
        while True:
            yield [CENSUS_NMAX]

    def op(self, nmax):
        return run_census(nmax)

    def weight(self, nmax) -> int:
        return sum(self.classes)

    def failures(self, nmax, out) -> int:
        code, text = out
        if code != 0:
            return self.weight(nmax)
        if text == self.golden:
            return 0
        # Charge the classes of each differing row; any other byte
        # difference (header, trailer) fails the whole call.
        rows = text.splitlines()[1:]
        differing = sum(
            k for i, k in enumerate(self.classes)
            if i >= len(rows) or rows[i] != self.golden_rows[i]
        )
        return differing or self.weight(nmax)


class CslPipeline:
    """The per-rotation CSL pipeline on random primitive admissible icosians.

    One op: rotation_of, csl_Lq, csl_intersection, csl_ideal_form and
    criterion_ideal.  It runs csl, lattice, hnf and field at indices far
    beyond what census reaches, and shortvec not at all.
    """

    name = "csl_pipeline"
    round_size = 32
    trace_rounds = 16

    def rounds(self, seed: int):
        rng = random.Random(f"a4csl-bench:{self.name}:{seed}")
        while True:
            yield [sample_icosian(rng) for _ in range(self.round_size)]

    def op(self, s: Sample):
        csl = a4csl.csl
        rot = csl.rotation_of(s.q)
        return (
            rot.sigma,
            csl.csl_Lq(rot).hnf,
            csl.csl_intersection(rot).hnf,
            csl.csl_ideal_form(rot).hnf,
            csl.criterion_ideal(s.q),
        )

    def weight(self, s) -> int:
        return 1

    def failures(self, s: Sample, out) -> int:
        sigma, h_lq, h_int, h_ideal, crit = out
        index = 1
        for i, row in enumerate(h_lq):
            index *= row[i]
        ok = (
            h_lq == h_int == h_ideal
            and index == sigma == s.sigma
            and crit.contains(s.q)
        )
        return 0 if ok else 1


@dataclass(frozen=True)
class Query:
    p: Sample
    partner: a4csl.Icosian
    beta: a4csl.OInt
    equal: bool
    symmetric: bool
    glcd_ideal: tuple


class IdealQueries:
    """Per-pair CSL questions: equal_csl, symmetry_related and glcd(p, den).

    The partner of p is p*u for a random unit u (same rotation class), u*p
    (same norm, CSL turned by a symmetry, so equal_csl must compare
    criterion ideals), or an unrelated random icosian.  shortvec runs here
    as glcd's ball search, and same_right_ideal goes through the rational
    quaternion inverse.
    """

    name = "ideal_queries"
    round_size = 8
    trace_rounds = 12

    def rounds(self, seed: int):
        rng = random.Random(f"a4csl-bench:{self.name}:{seed}")
        units = a4csl.unit_group()
        first = [self._query(_parse_witness(WITNESS[0]), _parse_witness(WITNESS[1]).q)]
        while True:
            items = first
            first = []
            while len(items) < self.round_size:
                p = sample_icosian(rng)
                kind = rng.randrange(3)
                if kind == 0:
                    partner = p.q * rng.choice(units)
                elif kind == 1:
                    partner = rng.choice(units) * p.q
                else:
                    partner = sample_icosian(rng).q
                items.append(self._query(p, partner))
            yield items

    @staticmethod
    def _query(p: Sample, partner) -> Query:
        """The query with its answers from the HNF oracles."""

        def csl_hnf(x):
            return a4csl.csl_Lq(a4csl.rotation_of(x)).hnf

        def ideal(*gens):
            return a4csl.right_ideal(gens).rows

        beta = a4csl.OInt(p.den, 0)
        return Query(
            p=p,
            partner=partner,
            beta=beta,
            equal=csl_hnf(p.q) == csl_hnf(partner),
            symmetric=ideal(p.q) == ideal(partner),
            glcd_ideal=ideal(p.q, a4csl.Icosian.from_o(beta)),
        )

    def op(self, x: Query):
        return (
            a4csl.equal_csl(x.p.q, x.partner),
            a4csl.symmetry_related(x.p.q, x.partner),
            a4csl.glcd(x.p.q, x.beta),
        )

    def weight(self, x) -> int:
        return 1

    def failures(self, x: Query, out) -> int:
        equal, symmetric, d = out
        ok = (
            equal == x.equal
            and symmetric == x.symmetric
            and a4csl.right_ideal([d]).rows == x.glcd_ideal
        )
        return 0 if ok else 1


WORKLOADS = {w.name: w for w in (Census, CslPipeline, IdealQueries)}
