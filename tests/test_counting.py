import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from a4csl.errors import BudgetError, DomainError
from a4csl.field import OInt, factor_int, factor_o, is_prime, lcm_o, tau_pow, unit_normalize
from a4csl.csl import criterion_ideal
from a4csl import counting
from a4csl.icosian import (
    Icosian,
    NORM_A_GRAM,
    TRACE_GRAM,
    _apply8,
    _content_norm,
    _orbit,
    _orbit_bits,
    _orbit_blocks,
    _orbit_min,
    _orbit_packing,
    _right_rows,
    _unit_matrices,
    extension,
    sigma_index,
    unit_group,
    unit_right_mul_matrices,
)
from a4csl.lattice import phi_plus_image
from a4csl.counting import (
    NodeBudget,
    _class_csls,
    _class_reps_by_products,
    _local_euler_series,
    _norm_candidate,
    _totally_positive,
    census,
    census_csv,
    census_table,
    dirichlet_coeffs,
    enumerate_rotations,
    euler_product_coeffs,
    f,
    f_prime_power,
    norm_candidates,
    prime_class_reps,
)
from a4csl.shortvec import enumerate_form, enumerate_two_forms

rng = random.Random(8128)

PRINTED_SERIES = [1, 5, 10, 20, 6, 50, 50, 80, 90, 30, 144]


def test_f_prime_power_examples():
    assert f_prime_power(5, 1) == 6
    assert f_prime_power(2, 2) == 20
    assert f_prime_power(11, 1) == 144
    assert f_prime_power(3, 2) == 90
    with pytest.raises(DomainError):
        f_prime_power(6, 1)


def test_f_prime_power_split_branch_is_integral():
    """The closed form, one exact integer division in the split branch,
    against the local Euler factor, for every prime below 200 (all four
    splitting cases: 5, p = +-2 and p = +-1 mod 5)."""
    for p in range(2, 200):
        if not is_prime(p):
            continue
        series = _local_euler_series(p, 6)
        for r in range(1, 7):
            assert f_prime_power(p, r) == series[r], (p, r)


def test_f_examples():
    assert f(1) == 1
    assert f(6) == 50
    assert f(10) == 30
    assert f(6) == f(2) * f(3)


def test_dirichlet_examples():
    assert dirichlet_coeffs(11) == PRINTED_SERIES
    assert dirichlet_coeffs(1) == [1]
    assert dirichlet_coeffs(8) == PRINTED_SERIES[:8]


def test_euler_product_agreement_to_50():
    direct = [f(n) for n in range(1, 51)]
    assert euler_product_coeffs(50) == direct


def test_series_division_refuses_a_divisor_without_constant_term_one():
    # an explicit raise, so the check holds under python -O
    with pytest.raises(AssertionError, match="constant term 1"):
        counting._series_div([1], [2, 1], 3)


def test_norm_candidates():
    assert norm_candidates(1) == [OInt(1, 0)]
    assert norm_candidates(2) == [OInt(2, 0)]
    assert norm_candidates(5) == [OInt(5, 0)]
    for m in norm_candidates(11 * 11):
        assert m.is_totally_positive()
        assert lcm_o(m, m.conj()) == OInt(121, 0)
    assert len(norm_candidates(121)) == 3  # pi^2, 121, pi'^2


# -- the full short-vector route, the oracle of the generator search ---------


def icosians_with_norm(m: OInt, budget: NodeBudget | None = None) -> list[tuple[int, ...]]:
    """Coordinate vectors of all icosians with nr exactly m (one per +-pair),
    sorted: the two-form search run to its end."""
    return sorted(
        enumerate_two_forms(NORM_A_GRAM, 2 * m.a, TRACE_GRAM, 2 * m.trace(), budget=budget)
    )


def _repeated_prime_divides(q: Icosian, m: OInt, factors: dict) -> bool:
    """The oracle of the CSL stage's primitivity test: some prime whose
    square divides m = nr(q) divides every coordinate of q (a prime
    dividing q divides nr(q) twice).  factors caches factor_o by norm."""
    if m not in factors:
        factors[m] = [pi for pi, e, _tag in factor_o(m).factors if e >= 2]
    return any(all(pi.divides(c) for c in q.coords()) for pi in factors[m])


def class_reps_for_norm(m: OInt, budget: NodeBudget | None = None) -> list[tuple[int, ...]]:
    """One coordinate vector per right-ideal class with nr exactly m, by
    short-vector search over all icosians of that norm: the primitive ones,
    and of those the first of each unit orbit in sorted order."""
    factors = {}
    vecs = [
        zc
        for zc in icosians_with_norm(m, budget)
        if not _repeated_prime_divides(Icosian(zc), m, factors)
    ]
    # The search yields each +-pair once, last nonzero coordinate positive,
    # which is the sign normalisation of the orbit members.
    seen: set[tuple[int, ...]] = set()
    reps = []
    for zc in vecs:
        if zc not in seen:
            reps.append(zc)
            seen.update(_orbit(zc))
    return reps


def test_icosians_with_norm_counts():
    # nr = 1: the 120 units, i.e. 60 +-pairs
    assert len(icosians_with_norm(OInt(1, 0))) == 60
    vecs = icosians_with_norm(OInt(2, 0))
    assert all(Icosian(v).nr() == OInt(2, 0) for v in vecs)
    # 5 classes x 120 units, halved by sign symmetry
    assert len(vecs) == 5 * 60


def test_enumerate_rotations_examples():
    reps1 = enumerate_rotations(1)
    assert len(reps1) == 1 and reps1[0].is_unit()
    assert len(enumerate_rotations(2)) == 5
    reps5 = enumerate_rotations(5)
    assert len(reps5) == 30
    for q in reps5:
        assert q.is_primitive() and q.is_admissible()


def test_census_examples():
    assert census(3).csl_count == 10
    assert census(4).csl_count == 20
    c11 = census(11)
    assert c11.csl_count == 144 and c11.match


def test_census_multiplicativity_seen_in_counts():
    assert census(6).csl_count == census(2).csl_count * census(3).csl_count == 50


def test_census_table_and_csv():
    rows, truncated = census_table(4)
    assert not truncated
    text = census_csv(rows)
    assert text.splitlines()[0] == "n,rotation_classes,csl_count,f_formula,match"
    assert text.splitlines()[2] == "2,5,5,5,true"


def test_budget_enforced():
    """The generator memo lives for one call, so the same budget truncates
    at the same index cold and after a warm census.  Each search stops once
    its classes are complete: norm 1 (8 nodes) and norm 2 (9) fit in 20
    nodes, norm 3 (11 more) does not; index 11 needs nr 3+t and 3+2t, 23
    nodes each, so 30 nodes are not enough."""
    with pytest.raises(BudgetError):
        enumerate_rotations(11, budget=NodeBudget(30))
    cold, truncated = census_table(9, budget=NodeBudget(20))
    assert truncated and census_csv(cold).splitlines()[1:] == ["1,1,1,1,true", "2,5,5,5,true"]
    census_table(12)
    warm, truncated = census_table(9, budget=NodeBudget(20))
    assert truncated and warm == cold


def test_enumeration_matches_short_vector_route():
    """The product construction lists the same icosians in the same order as
    the short-vector search over every candidate norm."""
    memo = {}
    for n in range(1, 26):
        dfs = [zc for m in norm_candidates(n) for zc in class_reps_for_norm(m)]
        assert [q.zc for q in enumerate_rotations(n, memo=memo)] == dfs, n


def _limits():
    """(bits, limit) of each digit width of the packed kernel, narrowest first."""
    return list(_unit_matrices().limits)


def _route(top):
    """The digit width that holds coordinates up to top, None past the widest."""
    return next((bits for bits, limit in _limits() if top <= limit), None)


def test_orbit_widths_and_limits():
    # The widest column sum of a unit matrix is 10: |x_i| <= limit keeps
    # every coordinate of x*u within B/2 - 1.
    assert _limits() == [(8, 12), (16, 3_276), (32, 214_748_364)]


def test_orbit_min_packed_and_plain_paths_agree():
    # Scaling by c > 0 scales the orbit minimum.  The largest c that keeps
    # every coordinate within a width's limit takes that width (or a
    # narrower one); the limit of the 32-bit digits plus one and 2**62 take
    # the plain apply loop.
    wide = _limits()[-1][1]
    for n in (1, 2, 5, 9, 11):
        for q in enumerate_rotations(n):
            top = max(map(abs, q.zc))
            tops = [limit // top for _bits, limit in _limits()]
            for c in (1, 3, *tops, wide + 1, 2**62):
                scaled = tuple(c * v for v in q.zc)
                assert _orbit_min(scaled) == scaled == min(_plain_orbit(scaled))
                assert _orbit_bits(scaled) == _route(c * top)
            assert [_orbit_bits(tuple(c * v for v in q.zc)) for c in tops] == [8, 16, 32]


def _sign_normalised(o):
    last = [v for v in o if v][-1]
    return o if last > 0 else tuple(-v for v in o)


def _plain_orbit(zc):
    """Every sign-normalised x*u over the 120 unit matrices, by _apply8."""
    return {_sign_normalised(_apply8(zc, mat)) for mat in unit_right_mul_matrices()}


def _decoded_blocks(zc, bits):
    """The 60 members of the orbit of x read back from the packed blocks of
    the given digit width."""
    pk = _orbit_packing(bits)
    return {tuple(v - pk.half for v in pk.unpack(b)) for b in _orbit_blocks(zc, pk)}


def _check_orbit(zc):
    """The kernel against the plain orbit over all 120 unit matrices; on
    the packed routes every decoded block too."""
    plain = _plain_orbit(zc)
    assert _orbit_min(zc) == min(plain)
    members = _orbit(zc)
    assert len(members) == 60 and set(members) == plain
    bits = _orbit_bits(zc)
    if bits is not None:
        assert _decoded_blocks(zc, bits) == plain


@st.composite
def _orbit_vectors(draw):
    """Coordinates up to a cap just below, at or just above the limit of
    each digit width, or at or past 2**63; one coordinate sits at +-cap."""
    caps = [3, 2**63 - 1, 2**63 + 1, 2**70]
    caps += [limit + d for _bits, limit in _limits() for d in (-1, 0, 1)]
    cap = draw(st.sampled_from(caps))
    zc = draw(st.lists(st.integers(-cap, cap), min_size=8, max_size=8))
    zc[draw(st.integers(0, 7))] = draw(st.sampled_from((cap, -cap)))
    return tuple(zc)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_orbit_vectors())
def test_packed_orbit_matches_plain_apply_over_all_units(zc):
    assert _orbit_bits(zc) == _route(max(map(abs, zc)))
    _check_orbit(zc)


def test_orbit_fields_hold_the_widest_sum():
    """A vector at a width's limit whose signs match the widest column of a
    unit matrix fills that digit to widest * limit and still takes that
    width; one step further it takes the next width, and past the 32-bit
    digits the plain route.  Every sign pattern of that column agrees too."""
    mat, k = max(
        ((mat, k) for mat in _unit_matrices().units for k in range(8)),
        key=lambda mk: sum(abs(row[mk[1]]) for row in mk[0]),
    )
    signs = tuple((row[k] > 0) - (row[k] < 0) for row in mat)
    assert sum(abs(row[k]) for row in mat) == 10
    widths = [bits for bits, _limit in _limits()]
    for (bits, limit), wider in zip(_limits(), widths[1:] + [None]):
        for c, route in ((limit - 1, bits), (limit, bits), (limit + 1, wider)):
            zc = tuple(c * s for s in signs)
            assert _orbit_bits(zc) == route
            assert abs(_apply8(zc, mat)[k]) == 10 * c
            _check_orbit(zc)
    narrow = _limits()[0][1]
    for flips in itertools.product((1, -1), repeat=sum(map(abs, signs))):
        it = iter(flips)
        zc = tuple(narrow * s * next(it) if s else 0 for s in signs)
        assert _orbit_bits(zc) == 8
        _check_orbit(zc)
    for zc in ((2**63 - 1,) * 8, (-(2**63) - 1,) + (0,) * 7, (0,) * 7 + (2**70,)):
        assert _orbit_bits(zc) is None
        _check_orbit(zc)


def _first_positive(o):
    lead = [v for v in o if v][0]
    return o if lead > 0 else tuple(-v for v in o)


def _check_orbit_first_nonzero(zc):
    """_check_orbit for glcd's convention, the first nonzero coordinate
    positive: the kernel, the plain loop and, on the packed routes, every
    decoded block against the orbit over all 120 unit matrices."""
    plain = {_first_positive(_apply8(zc, mat)) for mat in unit_right_mul_matrices()}
    assert _orbit_min(zc, True) == min(plain)
    members = _orbit(zc, True)
    assert len(members) == 60 and set(members) == plain
    bits = _orbit_bits(zc)
    if bits is not None:
        pk = _orbit_packing(bits, True)
        assert {tuple(v - pk.half for v in pk.unpack(b)) for b in _orbit_blocks(zc, pk)} == plain


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_orbit_vectors())
def test_packed_orbit_first_nonzero_matches_plain_apply_over_all_units(zc):
    assert _orbit_bits(zc) == _route(max(map(abs, zc)))
    _check_orbit_first_nonzero(zc)


def test_orbit_fields_hold_the_widest_sum_first_nonzero():
    """test_orbit_fields_hold_the_widest_sum for the first-nonzero sign
    field: limit - 1, limit and limit + 1 of each width along the widest
    column, its sign patterns at the narrowest limit, and 2**63 +- 1 and
    2**70 on the plain route."""
    mat, k = max(
        ((mat, k) for mat in _unit_matrices().units for k in range(8)),
        key=lambda mk: sum(abs(row[mk[1]]) for row in mk[0]),
    )
    signs = tuple((row[k] > 0) - (row[k] < 0) for row in mat)
    widths = [bits for bits, _limit in _limits()]
    for (bits, limit), wider in zip(_limits(), widths[1:] + [None]):
        for c, route in ((limit - 1, bits), (limit, bits), (limit + 1, wider)):
            for zc in (tuple(c * s for s in signs), tuple(-c * s for s in signs)):
                assert _orbit_bits(zc) == route
                assert abs(_apply8(zc, mat)[k]) == 10 * c
                _check_orbit_first_nonzero(zc)
    narrow = _limits()[0][1]
    for flips in itertools.product((1, -1), repeat=sum(map(abs, signs))):
        it = iter(flips)
        zc = tuple(narrow * s * next(it) if s else 0 for s in signs)
        assert _orbit_bits(zc) == 8
        _check_orbit_first_nonzero(zc)
    wide = ((2**63 - 1,) * 8, (-(2**63) - 1,) + (0,) * 7, (0,) * 7 + (2**70,))
    for zc in wide + ((-(2**63) - 1, 1) + (0,) * 6,):
        assert _orbit_bits(zc) is None
        _check_orbit_first_nonzero(zc)


def _dedup_by_seen_set(m, vecs):
    """The former dedup of class_reps_for_norm: each new vector's whole
    orbit, every x*u and -x*u over the 120 units, goes into a seen set."""
    repeated = [pi for pi, e, _tag in factor_o(m).factors if e >= 2]
    if repeated:
        vecs = [
            zc
            for zc in vecs
            if not any(all(pi.divides(c) for c in Icosian(zc).coords()) for pi in repeated)
        ]
    seen = set()
    reps = []
    for zc in vecs:
        if zc in seen:
            continue
        reps.append(zc)
        for mat in unit_right_mul_matrices():
            o = _apply8(zc, mat)
            seen.add(o)
            seen.add(tuple(-v for v in o))
    return reps


def test_class_reps_for_norm_matches_seen_set_dedup(monkeypatch):
    """For every prime of o above a rational prime p < 25 (and the squares
    4 and 9, which take the primitivity filter), the oracle's dedup over the
    60 sign-normalised members of each orbit keeps the same vectors as the
    seen set of every x*u and -x*u over the 120 units, on the same search."""
    searched = {}
    search = icosians_with_norm

    def recording(m, budget=None):
        searched[m] = search(m, budget)
        return searched[m]

    monkeypatch.setitem(globals(), "icosians_with_norm", recording)
    norms = [OInt(4, 0), OInt(9, 0)]
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
        norms += [_totally_positive(pi) for pi, _e, _tag in factor_o(OInt(p, 0)).factors]
    for m in norms:
        assert class_reps_for_norm(m) == _dedup_by_seen_set(m, searched[m]), m


def _primes_of_o_below(bound: int) -> list[OInt]:
    """The totally positive primes of o of absolute norm below bound."""
    out = []
    for p in range(2, bound):
        if is_prime(p):
            for pi, _e, _tag in factor_o(OInt(p, 0)).factors:
                if pi.abs_norm() < bound:
                    out.append(_totally_positive(pi))
    return out


def test_prime_generators_match_full_search():
    """The stopped search gives the oracle's generators, in its order, for
    nr 1 and every prime of o of norm below 100: 2 + t, the inert 2, 3 and
    7, and both primes above each split p <= 89."""
    primes = _primes_of_o_below(100)
    assert len(primes) == 24
    assert {OInt(2, 0), OInt(3, 0), OInt(7, 0), OInt(2, 1)} <= set(primes)
    for m in [OInt(1, 0)] + primes:
        assert prime_class_reps(m) == class_reps_for_norm(m), m


def test_prime_generators_stop_early():
    """At nr 7 the search stops once the 50 classes are complete, long
    before the full search ends; the budget pays only for the nodes run."""
    m = OInt(7, 0)
    stopped, full = NodeBudget(10**9), NodeBudget(10**9)
    assert len(prime_class_reps(m, stopped)) == 50
    assert len(icosians_with_norm(m, full)) == 60 * 50
    assert 0 < stopped.used < full.used // 100


def test_prime_generators_refuse_a_short_or_foreign_stream(monkeypatch):
    """A search that ends before every class is found raises (the first
    vector of nr 7 brings the 20 classes of its left-unit orbit), and so does
    a stream whose keys outnumber the ideals (vectors of nr 3 offered as nr 2:
    their 10 classes exceed the 5 ideals of norm 2)."""
    full = counting.enumerate_two_forms

    def first_only(*args, **kwargs):
        yield next(iter(full(*args, **kwargs)))

    monkeypatch.setattr(counting, "enumerate_two_forms", first_only)
    with pytest.raises(AssertionError, match="20 classes, the ideal count is 50"):
        prime_class_reps(OInt(7, 0))

    def norm_three(*args, budget=None):
        return full(NORM_A_GRAM, 6, TRACE_GRAM, 12, budget=budget)

    monkeypatch.setattr(counting, "enumerate_two_forms", norm_three)
    with pytest.raises(AssertionError, match="10 classes, the ideal count is 5"):
        prime_class_reps(OInt(2, 0))


def test_prime_generators_refuse_other_norms():
    for m in (OInt(4, 0), OInt(11, 0), OInt(6, 0)):
        with pytest.raises(DomainError, match="not a prime"):
            prime_class_reps(m)
    with pytest.raises(DomainError, match="totally positive"):
        prime_class_reps(OInt(3, -2))


@st.composite
def admissible_primitive(draw):
    """A primitive admissible icosian: a random vector if it is admissible,
    else its product with its twist (nr becomes nr * nr', whose field norm
    is a square), reduced to its primitive part."""
    zc = draw(st.tuples(*[st.integers(-3, 3)] * 8).filter(any))
    q = Icosian(zc)
    if not q.is_admissible():
        q = q * q.twist()
    return q.primitive_part()


def class_rep(q: Icosian) -> tuple[int, ...]:
    """The coordinate vector enumerate_rotations lists for the class q*I:
    q scaled by a power of tau to its norm candidate, then the least vector
    of its orbit under the 120 norm-1 units with last nonzero coordinate
    positive (the first one a full sorted short-vector search meets)."""
    j = _norm_candidate(q.nr())[1]
    return _orbit_min(q.scale_o(tau_pow(-j)).zc if j else q.zc)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    admissible_primitive(),
    st.sampled_from(unit_group()),
    st.integers(-4, 4),
    st.sampled_from((1, -1)),
)
def test_class_rep_invariant_under_units(reps_by_index, q, u, k, sign):
    rep = class_rep(q)
    moved = (q * u).scale_o(tau_pow(k) * sign)
    assert class_rep(moved) == rep
    assert Icosian(rep).nr() in norm_candidates(sigma_index(q))
    if sigma_index(q) <= NMAX_ORACLE:
        assert rep in {r.zc for r in reps_by_index[sigma_index(q)]}


# -- independent oracles ----------------------------------------------------


def _canonical_class_key(q: Icosian):
    """Canonical form of the right-ideal class of q: scale nr into the
    fundamental tau^2 window, then minimise over the unit orbit."""
    from a4csl.field import TAU, TAU_INV

    m = q.nr()
    y, k, _s = unit_normalize(m)
    if y.field_norm() < 0:
        k -= 1
    assert k % 2 == 0
    j = -(k // 2)
    scale = TAU if j >= 0 else TAU_INV
    for _ in range(abs(j)):
        q = q.scale_o(scale)
    orbit = set()
    for mat in unit_right_mul_matrices():
        o = tuple(
            sum(q.zc[i] * mat[i][c] for i in range(8) if q.zc[i]) for c in range(8)
        )
        orbit.add(o)
        orbit.add(tuple(-v for v in o))
    return min(orbit)


def _sigma_of_primitive(p):
    if not p.is_admissible():
        return None
    m = p.nr()
    lam = lcm_o(m, m.conj())
    assert lam.b == 0
    return lam.a


NMAX_ORACLE = 12


@pytest.fixture(scope="module")
def reps_by_index():
    return {n: enumerate_rotations(n) for n in range(1, NMAX_ORACLE + 1)}


def test_enumeration_complete_vs_exhaustive_scan(reps_by_index):
    """Every rotation class of index n <= 12 is hit: compare against one raw
    scan of all icosians with trace norm at most 2n.  Imprimitive vectors are
    skipped; a class found through one is also found through its balanced
    primitive representative, which the same ball contains."""
    from math import isqrt

    from a4csl.icosian import NORM_A_GRAM, NORM_B_GRAM
    from a4csl.shortvec import eval_form

    mats = unit_right_mul_matrices()
    slow = {n: set() for n in range(1, NMAX_ORACLE + 1)}
    seen = set()
    for vec, val in enumerate_form(TRACE_GRAM, 4 * NMAX_ORACLE, equal=False):
        if vec in seen:
            continue
        na = eval_form(NORM_A_GRAM, vec) // 2
        nb = eval_form(NORM_B_GRAM, vec) // 2
        m = OInt(na, nb)
        nn = m.abs_norm()
        if isqrt(nn) ** 2 != nn:
            continue  # not admissible
        lam = lcm_o(m, m.conj())
        if lam.b != 0 or lam.a > NMAX_ORACLE:
            continue
        if val // 2 > 2 * lam.a:
            continue  # outside the per-index ball
        q = Icosian(vec)
        if not q.is_primitive():
            continue
        slow[lam.a].add(_canonical_class_key(q))
        for mat in mats:
            o = tuple(sum(vec[i] * mat[i][c] for i in range(8) if vec[i]) for c in range(8))
            seen.add(o)
            seen.add(tuple(-v for v in o))
    for n in range(1, NMAX_ORACLE + 1):
        fast = {_canonical_class_key(q) for q in reps_by_index[n]}
        assert fast == slow[n], f"enumeration incomplete or unsound at n={n}"


def _keyed_classes(n, keep=None):
    """The classes of index n (of the norms m with keep(m)), as
    enumerate_rotations lists them, with (m, head walks) as it leaves them
    for census."""
    memo = {}
    norms = [m for m in norm_candidates(n) if keep is None or keep(m)]
    pairs = [(zc, (m, w)) for m in norms for zc, w in _class_reps_by_products(m, None, memo)]
    return [Icosian(zc) for zc, _norm_walks in pairs], [norm_walks for _zc, norm_walks in pairs]


def _partition(labels):
    blocks = {}
    for i, label in enumerate(labels):
        blocks.setdefault(label, []).append(i)
    return sorted(blocks.values())


def _criterion_partition(reps):
    return _partition((unit_normalize(q.nr())[0], criterion_ideal(q).rows) for q in reps)


def test_census_stage_matches_public_routes(reps_by_index):
    """Class by class, the per-norm CSL stage of census gives the CSL of
    phi_plus_image(extension(q)), and its keys partition the classes as
    the unit-normal nr(q) with criterion_ideal(q) does.  Every norm of
    index <= 12 is rational (alpha = 1), so the classes of the two norms
    pi^2 and pi'^2 of index 121 are checked too (alpha = pi', pi; the walk
    key has depth 1 of 2 there, 11 classes to a key)."""
    cases = {n: _keyed_classes(n) for n in reps_by_index}
    cases[121] = _keyed_classes(121, lambda m: m != OInt(121, 0))
    for n, (reps, norm_walks) in cases.items():
        if n in reps_by_index:
            assert [q.zc for q in reps] == [q.zc for q in reps_by_index[n]]
        stage = list(_class_csls(n, reps, norm_walks))
        assert len(stage) == len(reps)
        for q, (lat, (key, _walks)) in zip(reps, stage):
            assert lat.hnf == phi_plus_image(extension(q)[0]).hnf, (n, q.zc)
            assert key == unit_normalize(q.nr())[0]
        assert _partition(key for _lat, key in stage) == _criterion_partition(reps), n
    reps, norm_walks = cases[121]
    assert len({(q.nr(), w) for q, (_m, w) in zip(reps, norm_walks)}) == 24


@pytest.mark.parametrize(
    "n, keep",
    [
        (35, None),  # sqrt5^2 at depth 1, then 7: prefixes of walk products fail
        (45, None),  # 3^2 at full depth, sqrt5^2 at depth 1
        (50, None),  # 2 and sqrt5^4 at depth 3
        (125, None),  # sqrt5^6 at depth 5: 5 classes to a key
        (605, lambda m: m == OInt(50, 15)),  # sqrt5^2 pi^2, pi over 11: both short
    ],
)
def test_walk_keys_partition_as_criterion_ideals(n, keep):
    """The oracle of the census key: the head walks with the unit-normal nr
    partition the classes as the 16-row HNF of q I + beta I does, where
    the norm has a prime of depth j < k (sqrt5, or the larger power of a
    split p) and, at 605, two of them."""
    reps, norm_walks = _keyed_classes(n, keep)
    keys = [(unit_normalize(q.nr())[0], w) for q, (_m, w) in zip(reps, norm_walks)]
    assert _partition(keys) == _criterion_partition(reps)


def test_census_split_square_matches_f(monkeypatch):
    """The even-exponent split branch of f_prime_power against enumeration:
    at 121 = 11^2 the classes of nr 121 have one CSL each and those of nr
    pi^2 and pi'^2 eleven, as the keys that census checks against the CSL
    HNFs show."""
    stage = counting._class_csls
    keys = []

    def recorded(n, reps, norm_walks):
        for lat, key in stage(n, reps, norm_walks):
            keys.append(key)
            yield lat, key

    monkeypatch.setattr(counting, "_class_csls", recorded)
    assert census(121).csl_count == f(121) == f_prime_power(11, 2) == 17448
    assert Counter(Counter(keys).values()) == {1: 17424, 11: 24}


def test_census_stage_refuses_bad_reps():
    # nr(2) = 4 has index 4, but 2 divides every coordinate
    with pytest.raises(DomainError, match="not primitive"):
        list(_class_csls(4, [Icosian.from_int(2)], [(OInt(4, 0), ((0,),))]))
    # a unit has index 1, not 3
    with pytest.raises(AssertionError):
        list(_class_csls(3, [Icosian.from_int(1)], [(OInt(1, 0), ())]))


def test_enumerator_norms_and_content_primitivity():
    """For every class of index n <= 25, the norm m the enumerator leaves
    for census is nr(q), and the content-norm test the CSL stage runs
    agrees with the repeated-prime test: on q, and on pi*q for each prime
    pi dividing m, which no census rep may be."""
    memo, factors, seen = {}, {}, 0
    for n in range(1, 26):
        reps = enumerate_rotations(n, memo=memo)
        norm_walks = memo.pop(n)
        assert len(norm_walks) == len(reps)
        for q, (m, _w) in zip(reps, norm_walks):
            assert m == q.nr(), (n, q.zc)
            assert _content_norm(q.zc) == 1 and not _repeated_prime_divides(q, m, factors)
            for pi, _e, _tag in factor_o(m).factors:
                x = q.scale_o(pi)
                assert _content_norm(x.zc) != 1 and _repeated_prime_divides(x, x.nr(), factors)
            seen += 1
    assert seen == 6910


def test_census_refuses_a_key_partition_that_splits_a_csl(monkeypatch):
    """Equal block counts are not enough: census compares the partitions.
    Swapping the keys of two classes of different CSLs keeps 6 keys for the
    6 CSLs of index 5, 5 classes each, but mixes two blocks."""
    stage = counting._class_csls

    def swapped(n, reps, norm_walks):
        keys = list(norm_walks)
        i = next(i for i, key in enumerate(keys) if key != keys[0])
        keys[0], keys[i] = keys[i], keys[0]
        return stage(n, reps, keys)

    monkeypatch.setattr(counting, "_class_csls", swapped)
    with pytest.raises(AssertionError, match="criterion dedup disagrees"):
        census(5)


def test_census_refuses_two_generators_in_one_class(monkeypatch):
    """Where a norm has no tail, census names classes by the products as
    built, and their distinctness rests on the CSLs: a generator of 3
    replaced by a right-unit multiple of another is a new vector of an old
    class under a new key, so one CSL HNF comes under two keys.  The
    sorted least vectors of enumerate_rotations refuse it by themselves."""
    search = counting.prime_class_reps
    u = next(u for u in unit_group() if u.zc[1:] != (0,) * 7)

    def doubled(pi, budget=None):
        reps = search(pi, budget)
        if pi == OInt(3, 0):
            reps[1] = _apply8(reps[0], _right_rows(u.zc))
        return reps

    monkeypatch.setattr(counting, "prime_class_reps", doubled)
    with pytest.raises(AssertionError, match="criterion dedup disagrees with HNF dedup"):
        census(3)
    with pytest.raises(AssertionError, match="two products give the same class"):
        enumerate_rotations(3)


def test_census_refuses_a_repeated_tail(monkeypatch):
    """Where a norm has a tail, classes share head keys, so census compares
    the orbit minima: at 5 = sqrt5^2 (head and tail of depth 1) a repeated
    tail keeps the 30 classes but gives one head the same product twice."""
    build = counting._prime_power_classes
    calls = []

    def repeated(pi, k, budget, memo):
        part = build(pi, k, budget, memo)
        calls.append((pi, k))
        if len(calls) == 2:  # the tail, after the head of the same prime
            part = [part[0], part[0], *part[2:]]
        return part

    monkeypatch.setattr(counting, "_prime_power_classes", repeated)
    with pytest.raises(AssertionError, match="two products give the same class"):
        census(5)
    assert calls[0] == calls[1]


def _primitive_ideal_count(n: int) -> int:
    """Right-ideal classes with coincidence index n, from the local ideal
    counts of a maximal order split at every finite place."""
    total = 0
    for m in norm_candidates(n):
        cnt = 1
        for prime, e, _tag in factor_o(m).factors:
            np = prime.abs_norm()
            full = sum(np**i for i in range(e + 1))
            below = sum(np**i for i in range(e - 1)) if e >= 2 else 0
            cnt *= full - below
        total += cnt
    return total


def test_rotation_class_counts_match_ideal_zeta(reps_by_index):
    for n in range(1, NMAX_ORACLE + 1):
        assert len(reps_by_index[n]) == _primitive_ideal_count(n)
