import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eprblab import (
    TWO_PI,
    AssumeFixed,
    AssumeRandom,
    BothKnown,
    CountTable,
    DiskPreparation,
    JointPmf,
    SamplingMode,
    Sector,
    SingletKind,
    SplitDisk,
    SplitSector,
    build_bell_special,
    build_param_disks,
    build_singlet_disk,
    joint_pmf_from_splits,
    qm_joint_prediction,
    sample_param_setup,
    sample_separated,
    sample_split_many,
    split_disk,
    wrap_angle,
)
import eprblab.disks as disks
import eprblab.domain as domain
from eprblab.cli import main
from eprblab.disks import policy_is_per_trial

ANTI = SingletKind.ANTICORRELATED
CORR = SingletKind.CORRELATED

angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
kinds = st.sampled_from([ANTI, CORR])


# --- scalar reference -------------------------------------------------------------
# The per-sector scalar walks and the per-trial loop that the array path
# replaced, and the masked per-arc lookup that the compiled table replaced
# on static disks, kept as the references the library code is checked against.

def _arc_contains(start: float, length: float, lam: float) -> bool:
    # Half-open arc [start, start + length) with wraparound.
    return (lam - start) % TWO_PI < length


def sector_at(disk: DiskPreparation, lam: float) -> Sector:
    """The unique sector containing the pointer angle lam."""
    lam = wrap_angle(lam)
    for s in disk.sectors:
        if s.length > 0.0 and _arc_contains(s.start, s.length, lam):
            return s
    raise RuntimeError(f"no sector contains {lam!r}")


def outcome_at(disk: SplitDisk, lam: float) -> int:
    lam = wrap_angle(lam)
    for s in disk.sectors:
        if s.length > 0.0 and _arc_contains(s.start, s.length, lam):
            return s.outcome
    raise RuntimeError(f"no sector contains {lam!r}")


def reference_sector_lookup(lams, arcs) -> np.ndarray:
    """Outcome (int8) of the first arc holding each pointer angle.

    arcs yields (start, length, outcome) in sector order; start and length
    are floats or arrays shaped like lams. An arc holds lam when
    (lam - start) % 2*pi < length: arcs are half-open, the boundary belongs
    to the arc that starts there, and a zero-length arc holds nothing.
    """
    lams = np.asarray(lams, dtype=float)
    out = np.zeros(lams.shape, dtype=np.int8)
    for start, length, outcome in reversed(list(arcs)):  # earlier arcs win
        out[(lams - start) % TWO_PI < length] = outcome
    if not out.all():
        raise RuntimeError("pointer angle fell outside every sector")
    return out


def _assumed_remote(policy, true_value: float, rng) -> float:
    if isinstance(policy, BothKnown):
        return true_value
    if isinstance(policy, AssumeFixed):
        return policy.value
    if rng is None:
        raise ValueError(f"{type(policy).__name__} needs an rng for its per-trial draw")
    return float(rng.uniform(0.0, TWO_PI))


def reference_param_disks(alpha, beta, policy_a, policy_b, kind, rng=None):
    beta_hat = _assumed_remote(policy_a, beta, rng)
    alpha_hat = _assumed_remote(policy_b, alpha, rng)
    disk_for_a = build_singlet_disk(alpha - beta_hat, kind)
    disk_for_b = build_singlet_disk(alpha_hat - beta, kind)
    return split_disk(disk_for_a)[0], split_disk(disk_for_b)[1]


def reference_param_setup(alpha, beta, policy_a, policy_b, kind, n, seed,
                          mode=SamplingMode.SHARED_LAMBDA) -> CountTable:
    """One scalar walk per trial. Static policies draw A's pointer array, then
    B's; a per-trial policy rebuilds both disks every trial and draws (A's
    guess, B's guess, pointer angle(s)) per trial."""
    rng = np.random.default_rng(seed)
    counts = {(oa, ob): 0 for oa in (-1, 1) for ob in (-1, 1)}
    if not (policy_is_per_trial(policy_a) or policy_is_per_trial(policy_b)):
        da, db = reference_param_disks(alpha, beta, policy_a, policy_b, kind)
        if mode is SamplingMode.SHARED_LAMBDA:
            lam_a = lam_b = rng.uniform(0.0, TWO_PI, n)
        else:
            lam_a = rng.uniform(0.0, TWO_PI, n)
            lam_b = rng.uniform(0.0, TWO_PI, n)
        for x, y in zip(lam_a.tolist(), lam_b.tolist()):
            counts[(outcome_at(da, x), outcome_at(db, y))] += 1
    else:
        for _ in range(n):
            da, db = reference_param_disks(alpha, beta, policy_a, policy_b, kind, rng=rng)
            if mode is SamplingMode.SHARED_LAMBDA:
                lam_a = lam_b = float(rng.uniform(0.0, TWO_PI))
            else:
                lam_a = float(rng.uniform(0.0, TWO_PI))
                lam_b = float(rng.uniform(0.0, TWO_PI))
            counts[(outcome_at(da, lam_a), outcome_at(db, lam_b))] += 1
    return CountTable(
        n_pp=counts[(1, 1)],
        n_pm=counts[(1, -1)],
        n_mp=counts[(-1, 1)],
        n_mm=counts[(-1, -1)],
        singles_a=n,
        singles_b=n,
        n_pairs=n,
    )


def joint_lookup(disk: DiskPreparation, lams) -> list[tuple[int, int]]:
    """Per-side array lookups of a joint disk's projections, paired up."""
    da, db = split_disk(disk)
    return list(zip(sample_split_many(da, lams).tolist(), sample_split_many(db, lams).tolist()))


def grid_sweep_pmf(da: SplitDisk, db: SplitDisk, n: int = 40_000) -> JointPmf:
    """Independent oracle: tabulate shared-pointer outcomes on a uniform grid."""
    lams = (np.arange(n) + 0.5) * (TWO_PI / n)
    a = sample_split_many(da, lams)
    b = sample_split_many(db, lams)
    cells = [
        np.count_nonzero((a == 1) & (b == 1)),
        np.count_nonzero((a == 1) & (b == -1)),
        np.count_nonzero((a == -1) & (b == 1)),
        np.count_nonzero((a == -1) & (b == -1)),
    ]
    return JointPmf(*(c / n for c in cells))


# --- construction -------------------------------------------------------------

def test_singlet_disk_theta_zero_arcs():
    d = build_singlet_disk(0.0, ANTI)
    assert [s.length for s in d.sectors] == pytest.approx([0.0, math.pi, math.pi, 0.0])
    labels = [(s.outcome_a, s.outcome_b) for s in d.sectors]
    assert labels == [(1, 1), (1, -1), (-1, 1), (-1, -1)]


def test_singlet_disk_quarter_arcs():
    d = build_singlet_disk(math.pi / 4, ANTI)
    assert [s.length for s in d.sectors] == pytest.approx([math.pi / 2] * 4)


def test_singlet_disk_correlated_swaps_roles():
    d = build_singlet_disk(0.0, CORR)
    assert [s.length for s in d.sectors] == pytest.approx([math.pi, 0.0, 0.0, math.pi])


def test_implied_pmf_matches_prediction_at_pi_eighth():
    p = build_singlet_disk(math.pi / 8, ANTI).implied_pmf()
    assert p.p_pp == pytest.approx(qm_joint_prediction(math.pi / 8, ANTI), abs=1e-15)
    assert p.p_pp == pytest.approx(0.0732233, abs=1e-6)


@given(angles, kinds)
def test_partition_invariant(theta, kind):
    d = build_singlet_disk(theta, kind)
    assert math.fsum(s.length for s in d.sectors) == pytest.approx(TWO_PI, abs=1e-9)
    lams = (np.arange(512) + 0.5) * (TWO_PI / 512)
    hits = np.zeros(512, dtype=int)
    for s in d.sectors:
        if s.length > 0:
            hits += ((lams - s.start) % TWO_PI < s.length).astype(int)
    assert (hits == 1).all()


def test_partition_invariant_dense_grid():
    d = build_singlet_disk(0.3, ANTI)
    lams = (np.arange(10_000) + 0.5) * (TWO_PI / 10_000)
    hits = np.zeros(10_000, dtype=int)
    for s in d.sectors:
        if s.length > 0:
            hits += ((lams - s.start) % TWO_PI < s.length).astype(int)
    assert (hits == 1).all()


def test_disk_rejects_bad_partitions():
    with pytest.raises(ValueError):
        DiskPreparation((Sector(0.0, math.pi, 1, 1),))
    with pytest.raises(ValueError):
        SplitDisk((SplitSector(0.0, math.pi, 1), SplitSector(math.pi, math.pi / 2, -1)))
    with pytest.raises(ValueError):
        Sector(0.0, 1.0, 2, 1)
    for start in (-0.1, TWO_PI + 1e-9, math.nan):
        with pytest.raises(ValueError, match="start"):
            SplitSector(start, math.pi, 1)
        with pytest.raises(ValueError, match="start"):
            Sector(start, math.pi, 1, 1)


# --- sampling ------------------------------------------------------------------

def test_sample_disk_boundaries():
    d = build_singlet_disk(0.0, ANTI)
    lams = [math.pi / 2, 3 * math.pi / 2, 0.0]
    expected = [(1, -1), (-1, 1), (1, -1)]  # half-open arcs: boundary owns its start
    assert joint_lookup(d, lams) == expected
    assert [(s.outcome_a, s.outcome_b) for s in (sector_at(d, x) for x in lams)] == expected
    # Every nonzero sector owns its own start, on the array path and the walk.
    d = build_singlet_disk(math.pi / 8, ANTI)
    starts = [s.start for s in d.sectors]
    owners = [(s.outcome_a, s.outcome_b) for s in d.sectors]
    assert joint_lookup(d, starts) == owners
    assert [sector_at(d, x) for x in starts] == list(d.sectors)


def test_sample_disk_monte_carlo_matches_implied_pmf():
    d = build_singlet_disk(math.pi / 8, ANTI)
    target = d.implied_pmf()
    lams = np.random.default_rng(11).uniform(0.0, TWO_PI, 1_000_000)
    da, db = split_disk(d)
    a, b = sample_split_many(da, lams), sample_split_many(db, lams)
    emp = JointPmf(
        float(np.mean((a == 1) & (b == 1))),
        float(np.mean((a == 1) & (b == -1))),
        float(np.mean((a == -1) & (b == 1))),
        float(np.mean((a == -1) & (b == -1))),
    )
    assert max(abs(p - q) for p, q in zip(emp.as_tuple(), target.as_tuple())) < 0.002


# --- the compiled lookup ------------------------------------------------------------

def _nudged(x: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.inf if ulps > 0 else -math.inf)
    return x


@st.composite
def split_disks(draw) -> SplitDisk:
    """Split singlet disks, special disks, and random partitions whose arc
    lengths are nudged by a few ulps, so arcs overlap or leave gaps."""
    source = draw(st.sampled_from(["singlet", "special", "random"]))
    side = draw(st.sampled_from([0, 1]))
    if source == "singlet":
        return split_disk(build_singlet_disk(draw(angles), draw(kinds)))[side]
    if source == "special":
        return build_bell_special(draw(angles))[side]
    cuts = draw(st.lists(st.floats(0.0, TWO_PI), min_size=1, max_size=5, unique=True))
    cuts.sort()
    arcs = []
    for start, end in zip(cuts, cuts[1:] + [cuts[0] + TWO_PI]):
        length = min(_nudged(end - start, draw(st.integers(-3, 3))), TWO_PI)
        arcs.append(SplitSector(start, max(length, 0.0), draw(st.sampled_from([-1, 1]))))
    return SplitDisk(tuple(draw(st.permutations(arcs))))


def _probe_pointers(disk: SplitDisk, extra) -> list[float]:
    """0, the last double below 2*pi, and every table boundary, arc start and
    nominal arc end with both of its neighbours, plus extra; all in [0, 2*pi)."""
    marks = [*disk._table[0], *(s.start for s in disk.sectors)]
    marks += [wrap_angle(s.start + s.length) for s in disk.sectors]
    points = {0.0, math.nextafter(TWO_PI, 0.0), *extra}
    for x in marks:
        points.update((_nudged(x, -1), x, _nudged(x, 1)))
    return sorted(x for x in points if 0.0 <= x < TWO_PI)


def _reference_or_none(lam: float, arcs):
    try:
        return int(reference_sector_lookup([lam], arcs)[0])
    except RuntimeError:  # a gap: no arc holds lam
        return None


@settings(max_examples=300, deadline=None)
@given(split_disks(), st.lists(st.floats(0.0, TWO_PI, exclude_max=True), max_size=20))
@example(build_bell_special(math.pi / 4)[0], [math.pi / 2])
def test_compiled_lookup_equals_reference(disk, lams):
    arcs = [(s.start, s.length, s.outcome) for s in disk.sectors]
    bounds, outcomes = disk._table
    assert bounds[0] == 0.0 and (np.diff(bounds) > 0).all() and bounds[-1] < TWO_PI
    assert set(outcomes.tolist()) <= {-1, 1} and (outcomes[1:] != outcomes[:-1]).all()
    # A held stretch begins at an arc's start or at 0, so a pointer in a gap
    # reads the first of those after it, wrapping round the circle.
    starts = sorted(s.start for s in disk.sectors if s.length > 0.0 and s.start < TWO_PI)
    points = _probe_pointers(disk, lams)
    for lam, got in zip(points, sample_split_many(disk, points).tolist()):
        ahead = [lam, *(x for x in starts if x > lam), 0.0, *starts]
        want = next(w for w in (_reference_or_none(x, arcs) for x in ahead) if w is not None)
        assert got == want, lam


@settings(max_examples=300, deadline=None)
@given(
    st.floats(0.0, TWO_PI),
    st.floats(0.0, TWO_PI),
    st.lists(st.floats(0.0, TWO_PI, exclude_max=True), max_size=30),
)
@example(TWO_PI, 1e-300, [])
@example(0.0, TWO_PI, [])
@example(4.71238898038469, math.pi, [])
def test_arc_test_is_monotone_on_each_side_of_start(start, length, lams):
    # The claim the compiled table's bisection rests on: below its start and
    # from its start up, an arc holds a prefix of the pointers and no more.
    points = {0.0, math.nextafter(TWO_PI, 0.0), *lams}
    for mark in (start, wrap_angle(start + length)):
        points.update(_nudged(mark, k) for k in range(-8, 9))
    points = np.array(sorted(x for x in points if 0.0 <= x < TWO_PI))
    held = disks._holds(points, start, length)
    for side in (points < start, points >= start):
        h = held[side]
        assert not (h[1:] & ~h[:-1]).any()


def reference_holds(lams, start, length):
    """_holds as it took np.remainder (Python's float % on a float)."""
    return (lams - start) % TWO_PI < length


#: Arc starts at the ends of their range, and pointers where an arc test can
#: round differently: 0, the smallest subnormal and the largest double below 2*pi.
EDGE_STARTS = [0.0, math.pi, math.nextafter(TWO_PI, 0.0), TWO_PI]
EDGE_LAMS = [0.0, 5e-324, math.nextafter(TWO_PI, 0.0)]


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.sampled_from(EDGE_STARTS), st.floats(0.0, TWO_PI)),
    st.floats(0.0, TWO_PI),
    st.lists(st.floats(0.0, TWO_PI, exclude_max=True), max_size=30),
)
@example(TWO_PI, 1e-300, [])
@example(0.0, TWO_PI, [])
@example(math.nextafter(TWO_PI, 0.0), 5e-324, [])
def test_arc_test_equals_the_remainder_form(start, length, lams):
    # Pointers in [0, 2*pi) and a start in [0, 2*pi], the range every caller
    # keeps to: the test without % reads what % read, on arrays and on the
    # Python floats _first_unheld bisects over.
    points = {*EDGE_LAMS, *lams}
    for mark in (start, wrap_angle(start + length), *EDGE_STARTS):
        points.update((math.nextafter(mark, -math.inf), mark, math.nextafter(mark, math.inf)))
    points = np.array(sorted(x for x in points if 0.0 <= x < TWO_PI))
    assert np.array_equal(disks._holds(points, start, length),
                          reference_holds(points, start, length))
    for x in points.tolist():
        assert disks._holds(x, start, length) is reference_holds(x, start, length)
    # Per-element lengths at each pointer's % value and the double above it:
    # the arc holds it at the second and not at the first, so the test
    # compares the very double % gave.
    offset = (points - start) % TWO_PI
    assert not disks._holds(points, start, offset).any()
    assert disks._holds(points, start, np.nextafter(offset, math.inf)).all()
    for x, r in zip(points.tolist(), offset.tolist()):
        assert not disks._holds(x, start, r) and disks._holds(x, start, math.nextafter(r, math.inf))


def test_special_disk_gap_pointer_reads_the_next_arc():
    # fl(pi/2) is what rng.uniform(0, 2*pi) returns for a raw uniform of
    # 0.25. At alpha = pi/4 side A's + arc starts one ulp above it and the -
    # arc ends just below, so the masked lookup found no sector there.
    da, db = build_bell_special(math.pi / 4)
    arcs = [(s.start, s.length, s.outcome) for s in da.sectors]
    with pytest.raises(RuntimeError, match="outside every sector"):
        reference_sector_lookup([math.pi / 2], arcs)
    assert sample_split_many(da, [math.pi / 2]).tolist() == [1]


def test_lookup_wraps_out_of_range_pointers():
    da, _ = split_disk(build_singlet_disk(0.3, ANTI))
    lams = [-1e-300, -0.5, TWO_PI, 7.0, -20.0, 1e6]
    wrapped = [wrap_angle(x) for x in lams]
    assert sample_split_many(da, lams).tolist() == sample_split_many(da, wrapped).tolist()
    with pytest.raises(ValueError, match="finite"):
        sample_split_many(da, [0.1, math.nan])


# --- splitting -------------------------------------------------------------------

def test_split_theta_zero_sides():
    da, db = split_disk(build_singlet_disk(0.0, ANTI))
    probes = [0.1, math.pi + 0.1]
    assert sample_split_many(da, probes).tolist() == [1, -1]
    assert sample_split_many(db, probes).tolist() == [-1, 1]


def test_split_quarter_arcs_alternate_on_b():
    _, db = split_disk(build_singlet_disk(math.pi / 4, ANTI))
    probes = [math.pi / 4 + k * math.pi / 2 for k in range(4)]  # arc midpoints
    assert sample_split_many(db, probes).tolist() == [1, -1, 1, -1]


@given(
    angles,
    kinds,
    st.lists(st.floats(min_value=0.0, max_value=TWO_PI, exclude_max=True), max_size=20),
)
def test_split_equivalence_is_exact(theta, kind, lams):
    # The per-side array lookups agree with the scalar walk over the joint
    # disk angle by angle, sector starts included.
    d = build_singlet_disk(theta, kind)
    lams = lams + [s.start for s in d.sectors]
    walked = [(s.outcome_a, s.outcome_b) for s in (sector_at(d, x) for x in lams)]
    assert joint_lookup(d, lams) == walked
    da, db = split_disk(d)
    assert [(outcome_at(da, x), outcome_at(db, x)) for x in lams] == walked


# --- separated sampling ----------------------------------------------------------

def test_shared_lambda_preserves_joint():
    da, db = split_disk(build_singlet_disk(0.0, ANTI))
    t = sample_separated(da, db, SamplingMode.SHARED_LAMBDA, 100_000, 3)
    assert t.n_pp / t.n_pairs < 0.002
    assert t.n_pairs == t.singles_a == t.singles_b == 100_000


def test_independent_lambdas_give_product_of_marginals():
    disk = build_singlet_disk(0.0, ANTI)
    da, db = split_disk(disk)
    t = sample_separated(da, db, SamplingMode.INDEPENDENT_LAMBDAS, 100_000, 3)
    assert t.n_pp / t.n_pairs == pytest.approx(0.25, abs=0.006)


def product_of_marginals(p: JointPmf) -> JointPmf:
    """The independent table with p's one-sided marginals: the figure-3 target.

    A copy of the deleted method JointPmf.product_of_marginals."""
    a = p.p_pp + p.p_pm
    b = p.p_pp + p.p_mp
    return JointPmf(a * b, a * (1.0 - b), (1.0 - a) * b, (1.0 - a) * (1.0 - b))


def test_independent_lambdas_uniform_cells_any_theta():
    da, db = split_disk(build_singlet_disk(math.pi / 8, ANTI))
    t = sample_separated(da, db, SamplingMode.INDEPENDENT_LAMBDAS, 200_000, 5)
    emp = t.to_pmf()
    target = product_of_marginals(build_singlet_disk(math.pi / 8, ANTI).implied_pmf())
    # 3 sigma for a cell frequency at p = 1/4
    assert emp.tv_distance(target) < 3 * math.sqrt(0.25 * 0.75 / 200_000) * 2


def test_sample_separated_rejects_nonpositive_n():
    da, db = split_disk(build_singlet_disk(0.1, ANTI))
    with pytest.raises(ValueError):
        sample_separated(da, db, SamplingMode.SHARED_LAMBDA, 0, 1)
    with pytest.raises(ValueError, match="n must be positive"):
        sample_param_setup(0.1, 0.0, AssumeRandom(), BothKnown(), ANTI, 0, 1)


# --- knowledge policies -----------------------------------------------------------

def test_both_known_equals_split_of_joint_disk():
    alpha, beta = 0.9, 0.2
    da, db = build_param_disks(alpha, beta, BothKnown(), BothKnown(), ANTI)
    ref_a, ref_b = split_disk(build_singlet_disk(alpha - beta, ANTI))
    assert da == ref_a and db == ref_b


@given(angles, angles, kinds)
def test_assume_fixed_true_value_reproduces_both_known(alpha, beta, kind):
    fixed = build_param_disks(alpha, beta, AssumeFixed(beta), AssumeFixed(alpha), kind)
    known = build_param_disks(alpha, beta, BothKnown(), BothKnown(), kind)
    assert fixed == known


def test_assume_zero_matches_both_known_when_settings_are_zero():
    zero = AssumeFixed(0.0)
    assert build_param_disks(0.0, 0.0, zero, zero, ANTI) == build_param_disks(
        0.0, 0.0, BothKnown(), BothKnown(), ANTI
    )


def test_assume_zero_mismatch_breaks_joint_sampling():
    # Wrong guess on the scanned side: B assumes alpha = 0 while alpha = pi/4.
    alpha, beta = math.pi / 4, 0.0
    da, db = build_param_disks(alpha, beta, AssumeFixed(0.0), AssumeFixed(0.0), ANTI)
    target = build_singlet_disk(alpha - beta, ANTI).implied_pmf()
    swept = grid_sweep_pmf(da, db)
    assert swept.tv_distance(target) > 0.05
    exact = joint_pmf_from_splits(da, db)
    assert exact.tv_distance(swept) < 1e-3  # grid sweep agrees with exact integration


def test_assume_zero_coincidentally_right_guess_still_samples_joint():
    # With alpha = 0, B's zero guess is the true alpha, and the A-side
    # projection carries no angle structure, so the target joint survives
    # even though A's guess about beta is wrong.
    alpha, beta = 0.0, math.pi / 4
    da, db = build_param_disks(alpha, beta, AssumeFixed(0.0), AssumeFixed(0.0), ANTI)
    target = build_singlet_disk(alpha - beta, ANTI).implied_pmf()
    assert joint_pmf_from_splits(da, db).tv_distance(target) < 1e-12


def test_per_trial_policies_need_rng():
    # A per-trial policy lays out new disks every trial: there is no single
    # apparatus to build, whichever side holds it.
    with pytest.raises(ValueError, match="every trial"):
        build_param_disks(0.0, 0.0, AssumeRandom(), BothKnown(), ANTI)
    with pytest.raises(ValueError, match="every trial"):
        build_param_disks(0.0, 0.0, AssumeFixed(0.0), AssumeRandom(), ANTI)


def test_non_finite_settings_are_rejected():
    with pytest.raises(ValueError, match="theta"):
        build_singlet_disk(math.nan, ANTI)
    with pytest.raises(ValueError, match="finite"):
        AssumeFixed(math.inf)
    with pytest.raises(ValueError, match="finite"):
        sample_param_setup(math.nan, 0.0, AssumeRandom(), BothKnown(), ANTI, 10, 1)


policies = st.one_of(
    st.sampled_from([BothKnown(), AssumeFixed(0.0), AssumeRandom()]),
    st.builds(AssumeFixed, angles),
)


@settings(max_examples=250, deadline=None)
@given(
    policies,
    policies,
    kinds,
    st.sampled_from(list(SamplingMode)),
    angles,
    angles,
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=200),
)
@example(AssumeRandom(), AssumeRandom(), ANTI, SamplingMode.SHARED_LAMBDA, 0.0, 0.0, 0, 200)
@example(AssumeFixed(0.0), AssumeRandom(), CORR, SamplingMode.INDEPENDENT_LAMBDAS, 0.0, 0.0, 1, 200)
@example(AssumeRandom(), AssumeFixed(0.3), ANTI, SamplingMode.SHARED_LAMBDA, 0.0, 0.0, 11, 200)
def test_param_setup_equals_scalar_reference(pa, pb, kind, mode, alpha, beta, seed, n):
    assert sample_param_setup(alpha, beta, pa, pb, kind, n, seed, mode) == reference_param_setup(
        alpha, beta, pa, pb, kind, n, seed, mode
    )


@pytest.mark.parametrize("block_rows", [1, 7, 64])
@pytest.mark.parametrize("mode", list(SamplingMode))
def test_param_setup_row_chunks_are_invisible(monkeypatch, block_rows, mode):
    # Chunked draws and lookups give the one-block result, even when chunks
    # are tiny and n is not a multiple of them.
    monkeypatch.setattr(domain, "_BLOCK_ROWS", block_rows)
    args = (0.4, 0.1, AssumeRandom(), AssumeRandom(), ANTI, 203, 5, mode)
    assert sample_param_setup(*args) == reference_param_setup(*args)
    # The static path: sample_separated, directly and through sample_param_setup.
    static = (0.4, 0.1, AssumeFixed(0.0), AssumeFixed(0.3), ANTI, 203, 5, mode)
    da, db = build_param_disks(*static[:5])
    assert sample_separated(da, db, mode, 203, 5) == reference_param_setup(*static)
    assert sample_param_setup(*static) == reference_param_setup(*static)


def test_assume_random_averages_to_quarter():
    # A uniform guess for the remote setting averages sin^2 to 1/2, so every
    # cell of the sampled table tends to 1/4.
    t = sample_param_setup(0.3, 0.8, BothKnown(), AssumeRandom(), ANTI, 4000, 17)
    sigma = math.sqrt(0.25 * 0.75 / 4000)
    assert t.n_pp / t.n_pairs == pytest.approx(0.25, abs=4 * sigma)


def test_static_policy_sampling_matches_sample_separated():
    da, db = build_param_disks(0.5, 0.2, BothKnown(), BothKnown(), ANTI)
    direct = sample_separated(da, db, SamplingMode.SHARED_LAMBDA, 5000, 9)
    via_setup = sample_param_setup(0.5, 0.2, BothKnown(), BothKnown(), ANTI, 5000, 9)
    assert direct == via_setup


# --- the fixed-remote-setting construction ------------------------------------------

def test_bell_special_alpha_zero():
    da, _ = build_bell_special(0.0)
    assert sample_split_many(da, [math.pi + 0.1, 0.1]).tolist() == [1, -1]
    assert joint_pmf_from_splits(*build_bell_special(0.0)).p_pp == 0.0


def test_bell_special_alpha_half_pi():
    p = joint_pmf_from_splits(*build_bell_special(math.pi / 2))
    assert p.p_pp == pytest.approx(0.5, abs=1e-12)


def test_bell_special_alpha_quarter_pi():
    p = joint_pmf_from_splits(*build_bell_special(math.pi / 4))
    assert p.p_pp == pytest.approx(0.25, abs=1e-12)


def test_bell_special_exact_for_32_alphas():
    for alpha in np.linspace(0.0, TWO_PI, 32, endpoint=False):
        p = joint_pmf_from_splits(*build_bell_special(float(alpha)))
        target = build_singlet_disk(float(alpha), ANTI).implied_pmf()
        assert abs(p.p_pp - 0.5 * math.sin(alpha) ** 2) <= 1e-12
        assert p.tv_distance(target) <= 1e-12


@settings(max_examples=40)
@given(angles)
def test_bell_special_grid_sweep_agrees(alpha):
    da, db = build_bell_special(alpha)
    swept = grid_sweep_pmf(da, db)
    assert abs(swept.p_pp - 0.5 * math.sin(alpha) ** 2) < 1e-3


# --- exact integration vs sweep ------------------------------------------------------

@settings(max_examples=30)
@given(angles, kinds)
def test_joint_pmf_from_splits_matches_grid_sweep(theta, kind):
    da, db = split_disk(build_singlet_disk(theta, kind))
    exact = joint_pmf_from_splits(da, db)
    swept = grid_sweep_pmf(da, db)
    assert exact.tv_distance(swept) < 1e-3
    assert exact.tv_distance(build_singlet_disk(theta, kind).implied_pmf()) < 1e-12


# --- serialization --------------------------------------------------------------------

def test_disk_serialization_shape(tmp_path):
    # disk-demo writes the joint disk of figure 1 and the split disks of figure 2.
    for figure in ("1", "2"):
        argv = ["disk-demo", "--figure", figure, "--theta", "0.3", "--n", "10"]
        assert main([*argv, "--out", str(tmp_path / figure)]) == 0
    lines = (tmp_path / "1" / "disk.txt").read_text().strip().splitlines()
    assert lines[0].startswith("#") and len(lines) == 5
    assert all(len(line.split(",")) == 4 for line in lines[1:])
    stext = (tmp_path / "2" / "disk_a.txt").read_text()
    assert all(len(line.split(",")) == 3 for line in stext.strip().splitlines()[1:])


# --- per-trial gap pointers --------------------------------------------------------

#: A guessed relative angle and pointer that fall in a gap of side A's arcs.
GAP_THETA, GAP_LAM = 3.6578319513973883, 3.1415926535897927


def _row_table_lookup(lam: float, theta: float, kind, outcomes) -> int:
    bounds, codes = disks._compile_lookup(list(zip(*disks._singlet_arcs(theta, kind), outcomes)))
    return int(codes[np.searchsorted(bounds, lam, side="right") - 1])


def test_per_trial_gap_pointer_reads_the_next_arc(monkeypatch):
    arcs = list(zip(*disks._singlet_arcs(GAP_THETA, ANTI), disks._SINGLET_A))
    with pytest.raises(RuntimeError, match="outside every sector"):
        reference_sector_lookup([GAP_LAM], arcs)
    got = disks._per_trial_lookup(np.array([GAP_LAM]), np.array([GAP_THETA]), ANTI, disks._SINGLET_A)
    da, db = split_disk(build_singlet_disk(GAP_THETA, ANTI))
    assert got.tolist() == sample_split_many(da, [GAP_LAM]).tolist() == [-1]

    # A run whose one trial draws that guess and pointer completes.
    class Draws:
        def uniform(self, low, high, size):
            return np.array([[0.0, GAP_LAM]])  # A's guess of beta, then the pointer

    monkeypatch.setattr(disks.np.random, "default_rng", lambda seed: Draws())
    t = sample_param_setup(GAP_THETA, 0.0, AssumeRandom(), BothKnown(), ANTI, 1, 0)
    cell = (sample_split_many(da, [GAP_LAM])[0], sample_split_many(db, [GAP_LAM])[0])
    assert (t.n_pp, t.n_pm, t.n_mp, t.n_mm) == tuple(
        int(cell == c) for c in ((1, 1), (1, -1), (-1, 1), (-1, -1))
    )


@settings(max_examples=150, deadline=None)
@given(st.lists(angles, min_size=1, max_size=4), kinds, st.sampled_from([0, 1]))
@example([GAP_THETA], ANTI, 0)
def test_per_trial_lookup_equals_each_rows_compiled_table(thetas, kind, side):
    # Probe every row at its arc ends and their neighbours, where gaps lie.
    outcomes = (disks._SINGLET_A, disks._SINGLET_B)[side]
    rows = []
    for theta in thetas:
        starts, lengths = disks._singlet_arcs(theta, kind)
        for mark in (*starts, *(s + n for s, n in zip(starts, lengths))):
            rows += [(theta, x) for x in (_nudged(mark, k) for k in range(-2, 3))
                     if 0.0 <= x < TWO_PI]
    theta_col, lams = (np.array(col) for col in zip(*rows))
    got = disks._per_trial_lookup(lams, theta_col, kind, outcomes).tolist()
    assert got == [_row_table_lookup(x, t, kind, outcomes) for t, x in rows]


# --- the segment kernel and the shared-pointer count ----------------------------

def reference_split_many(disk: SplitDisk, lams) -> np.ndarray:
    """sample_split_many as it searched the compiled table with np.searchsorted."""
    lams = np.asarray(lams, dtype=float)
    # In-range pointers skip np.remainder, which costs more than the search.
    if lams.size and not (lams.min() >= 0.0 and lams.max() < TWO_PI):
        if not np.isfinite(lams).all():
            raise ValueError("pointer angles must be finite")
        lams = lams % TWO_PI
        lams = np.where(lams >= TWO_PI, 0.0, lams)
    bounds, outcomes = disk._table
    return outcomes[np.searchsorted(bounds, lams, side="right") - 1]


@st.composite
def static_disk_pairs(draw) -> tuple[SplitDisk, SplitDisk]:
    """The two sides' disks of every static construction: the split singlet,
    the policy-built disks under AssumeFixed, and the special disks."""
    source = draw(st.sampled_from(["singlet", "param", "special"]))
    if source == "singlet":
        return split_disk(build_singlet_disk(draw(angles), draw(kinds)))
    if source == "param":
        alpha, beta, guess_a, guess_b = (draw(angles) for _ in range(4))
        return build_param_disks(alpha, beta, AssumeFixed(guess_a), AssumeFixed(guess_b),
                                 draw(kinds))
    return build_bell_special(draw(angles))


#: A disk of one sector, whose compiled table is one segment.
WHOLE = SplitDisk((SplitSector(0.0, TWO_PI, 1),))


class ProbedRng:
    """A Generator whose uniform draws start, block by block, with the probe
    pointers; records the draws it returns and the ones it made."""

    def __init__(self, seed: int, probes: list[float]):
        self.rng = np.random.default_rng(seed)
        self.probes = np.array(probes)
        self.made, self.returned = [], []

    def uniform(self, low, high, size):
        lams = self.rng.uniform(low, high, size)
        self.made.append(lams.copy())
        k = min(size, len(self.probes))
        lams[:k] = self.probes[:k]
        self.returned.append(lams.copy())
        return lams


@settings(max_examples=60, deadline=None)
@given(static_disk_pairs(), st.sampled_from(list(SamplingMode)),
       st.sampled_from([1, domain._BLOCK_ROWS, domain._BLOCK_ROWS + 1]), st.integers(0, 2**32))
@example(build_bell_special(math.pi / 4), SamplingMode.SHARED_LAMBDA, domain._BLOCK_ROWS + 1, 0)
@example((WHOLE, WHOLE), SamplingMode.SHARED_LAMBDA, 1, 0)  # one segment: no cut
@example((WHOLE, build_bell_special(0.3)[0]), SamplingMode.SHARED_LAMBDA, 1, 0)
def test_boundary_comparison_equals_the_searchsorted_lookup(pair, mode, n, seed):
    # Every compiled boundary and its neighbours, a per-trial gap pointer, 0
    # and the largest double below 2*pi: where a lookup can read one segment
    # too far or too short.
    probes = {0.0, GAP_LAM, math.nextafter(TWO_PI, 0.0)}
    for disk in pair:
        for x in disk._table[0].tolist():
            probes.update((math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)))
    probes = sorted(x for x in probes if 0.0 <= x < TWO_PI)
    for disk in pair:
        assert np.array_equal(sample_split_many(disk, probes), reference_split_many(disk, probes))

    rng = ProbedRng(seed, probes)
    got = disks._sample_separated_rng(*pair, mode, n, rng)
    lams = np.concatenate(rng.returned)
    lam_a, lam_b = (lams, lams) if mode is SamplingMode.SHARED_LAMBDA else (lams[:n], lams[n:])
    assert got == CountTable.from_codes(*map(reference_split_many, pair, (lam_a, lam_b)))
    # The blocked draws are one draw of n pointers per pointer array.
    fresh = np.random.default_rng(seed)
    made = [fresh.uniform(0.0, TWO_PI, n) for _ in range(len(lams) // n)]
    assert np.array_equal(np.concatenate(rng.made), np.concatenate(made))
    assert rng.rng.bit_generator.state == fresh.bit_generator.state


def _assert_merge_is_union1d(monkeypatch, pair) -> None:
    """The shared-pointer count's merged boundaries, at which it reads each
    side's outcome through _segment, are np.union1d of the two tables'."""
    seen = []
    segment = disks._segment

    def recording(lams, bounds):
        seen.append(lams)
        return segment(lams, bounds)

    monkeypatch.setattr(disks, "_segment", recording)
    disks._sample_separated_rng(*pair, SamplingMode.SHARED_LAMBDA, 1, np.random.default_rng(0))
    want = np.union1d(pair[0]._table[0], pair[1]._table[0])
    assert len(seen) == 2
    for got in seen:
        assert got.dtype == want.dtype and np.array_equal(got, want)


#: The split disks of the figures that count a shared pointer: figures 1 and
#: 2 (split singlet), 4 and 5 with static policies (policy-built) and special.
FIGURE_PAIRS = [
    split_disk(build_singlet_disk(math.pi / 8, ANTI)),
    split_disk(build_singlet_disk(math.pi / 8, CORR)),
    build_param_disks(0.0, 0.0, BothKnown(), BothKnown(), ANTI),
    build_param_disks(math.pi / 4, 0.0, BothKnown(), BothKnown(), CORR),
    build_param_disks(math.pi / 4, 0.0, AssumeFixed(0.0), AssumeFixed(0.0), ANTI),
    build_bell_special(0.0),
    build_bell_special(math.pi / 8),
    build_bell_special(math.pi / 4),
]


@pytest.mark.parametrize("pair", FIGURE_PAIRS)
def test_merged_boundaries_equal_union1d_on_the_figure_disks(monkeypatch, pair):
    _assert_merge_is_union1d(monkeypatch, pair)


@settings(max_examples=200, deadline=None)
@given(st.one_of(static_disk_pairs(), st.tuples(split_disks(), split_disks())))
@example((WHOLE, WHOLE))
def test_merged_boundaries_equal_union1d(pair):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_merge_is_union1d(monkeypatch, pair)


def _untemper(y: int) -> int:
    """The MT19937 key word whose tempered output is y."""
    for shift, mask in ((18, None), (15, 0xEFC60000), (7, 0x9D2C5680), (11, None)):
        x = y
        for _ in range(32 // shift + 1):
            x = y ^ (((x << shift) & mask) if mask else (x >> shift))
        y = x
    return y


def test_uniform_pointers_stay_below_two_pi():
    # The shared-pointer count skips sample_split_many's range check, so it
    # relies on Generator.uniform(0, 2*pi) never returning 2*pi. Its largest
    # raw double is 1 - 2**-53, and 2*pi times that rounds below 2*pi.
    assert TWO_PI * (1 - 2**-53) < TWO_PI
    bits = np.random.MT19937()
    state = bits.state
    state["state"]["key"][:] = _untemper(0xFFFFFFFF)
    state["state"]["pos"] = 0
    bits.state = state
    assert np.random.Generator(bits).random() == 1 - 2**-53
    bits.state = state
    top = np.random.Generator(bits).uniform(0.0, TWO_PI, 4)
    assert (top == math.nextafter(TWO_PI, 0.0)).all()
