"""Surface models: toric seeds, blow-ups, boundary invariants."""

import sys
import traceback
from collections import Counter

import pytest

from helpers import (
    count_eliminations,
    fan_seeds,
    invert_unimodular,
    kernel_blow_down,
    random_unimodular,
    smith_toric_from_sequence,
    unit_column_complements,
    unwind_blow_down,
)

import cuspcheck.checker
import cuspcheck.intlinalg
import cuspcheck.lattice
import cuspcheck.pipeline
import cuspcheck.surface
from cuspcheck import jsonio
from cuspcheck.errors import InputError
from cuspcheck.intcore import inertia, rank_int, transpose
from cuspcheck.intlinalg import combination, right_kernel
from cuspcheck.lattice import Signature, gram_lattice, signature
from cuspcheck.pipeline import (
    BLOWUP_COMPONENTS,
    SEED_SEQUENCE,
    _Chain,
    make_config,
    run_criterion,
    run_pipeline,
)
from cuspcheck.surface import (
    NOT_RATIONAL,
    blow_down,
    blow_down_with_embedding,
    boundary_complement,
    boundary_definiteness,
    fan_from_sequence,
    LooijengaSurface,
    interior_blowup,
    surface_invariants,
    toric_from_sequence,
)


def test_projective_plane_from_triangle():
    s = toric_from_sequence((1, 1, 1))
    assert s.picard_rank == 1
    assert s.boundary_self_intersection() == 9
    assert signature(s.picard) == Signature(1, 0, 0)


def test_quadric_from_square():
    s = toric_from_sequence((0, 0, 0, 0))
    assert s.picard_rank == 2
    assert s.boundary_self_intersection() == 8
    assert s.self_intersections() == (0, 0, 0, 0)


def test_seed_sequence_invariants(seed_surface):
    plain = toric_from_sequence((-1, -2, -1, -1, -1, -1, -2))
    assert plain.picard_rank == 5
    assert plain.boundary_self_intersection() == 5
    assert signature(plain.picard) == Signature(1, 4, 0)
    # rank always satisfies rho = 10 - D.D
    assert plain.picard_rank == 10 - plain.boundary_self_intersection()
    assert seed_surface.picard_rank == 10 - seed_surface.boundary_self_intersection()


def test_fan_rejects_non_closing_sequences():
    with pytest.raises(InputError):
        fan_from_sequence((0, 0, 0))
    with pytest.raises(InputError):
        toric_from_sequence((1, 1, 1, 1, 1, 1))


def test_fan_rejects_too_short_sequences():
    with pytest.raises(InputError):
        toric_from_sequence((7, 7))


def _toric_outcome(build, seq):
    """Gram, labels and boundary of the seed ``build`` makes of ``seq``, or
    the type and message of its refusal."""
    try:
        s = build(seq)
    except (InputError, ArithmeticError) as err:
        return type(err), str(err)
    return s.picard.gram, s.picard.basis_labels, s.boundary


def _corner_blowup(seq, i):
    """The toric blow-up of the corner between components i and i + 1
    (0-based, cyclic): both drop by one and a (-1)-component enters between."""
    a = list(seq)
    j = (i + 1) % len(a)
    a[i] -= 1
    a[j] -= 1
    return tuple(a[: i + 1] + [-1] + a[i + 1 :])


def test_toric_seed_matches_the_smith_form_oracle_on_every_census_fan():
    # entries -2..1, cycle lengths 3-9: every fan the census and the survey
    # start from, and the longest cycles with those entries
    for n in range(3, 10):
        for seq in fan_seeds(n):
            assert _toric_outcome(toric_from_sequence, seq) == _toric_outcome(
                smith_toric_from_sequence, seq
            ), seq


def test_toric_seed_matches_the_smith_form_oracle_on_corner_blowups(rng):
    # corner blow-ups of P^2 and F_0..F_4 reach entries below -2, so the
    # rays, and with them D_1's and D_2's coordinates, grow past those of
    # the census fans
    bases = [(1, 1, 1)] + [(k, 0, -k, 0) for k in range(5)]
    seen = set()
    for _ in range(80):
        seq = rng.choice(bases)
        for _ in range(rng.randint(0, 6)):
            seq = _corner_blowup(seq, rng.randrange(len(seq)))
        seen.update(seq)
        outcome = _toric_outcome(toric_from_sequence, seq)
        assert outcome[0] is not InputError, seq
        assert outcome == _toric_outcome(smith_toric_from_sequence, seq), seq
    assert min(seen) < -2


def test_toric_seed_refuses_as_the_smith_form_oracle_does(rng):
    # too short, not closing, and closing but winding more than once: the
    # same exception type and message; then seeded sequences with entries
    # -3..3, most of which are refused
    fixed = [(7, 7), (0, 0, 0), (2, 2, 2), (1, 0, 1, 0), (1,) * 6, (1,) * 9, (0,) * 8]
    for seq in fixed:
        outcome = _toric_outcome(toric_from_sequence, seq)
        assert outcome[0] is InputError, seq
        assert outcome == _toric_outcome(smith_toric_from_sequence, seq), seq
    assert _toric_outcome(toric_from_sequence, (1,) * 6)[1] == (
        "sequence closes but winds more than once; not a complete fan"
    )
    for _ in range(300):
        seq = tuple(rng.randint(-3, 3) for _ in range(rng.randint(3, 8)))
        assert _toric_outcome(toric_from_sequence, seq) == _toric_outcome(
            smith_toric_from_sequence, seq
        ), seq


def test_toric_seed_takes_no_smith_or_hermite_form(monkeypatch):
    # the Picard lattice is read off the fan (v_1 = e_1, v_2 = e_2), so
    # building a seed eliminates nothing
    calls = count_eliminations(monkeypatch)
    for seq in ((1, 1, 1), (0, 0, 0, 0), (-1, -2, -1, -1, -1, -1, -2), *fan_seeds(8)):
        toric_from_sequence(seq)
    assert not calls, calls


def test_interior_blowup_bookkeeping():
    s = toric_from_sequence((-1, -2, -1, -1, -1, -1, -2))
    t = interior_blowup(s, 2)
    assert t.picard_rank == s.picard_rank + 1
    # only the chosen component drops by one
    before = s.self_intersections()
    after = t.self_intersections()
    assert after[1] == before[1] - 1
    assert after[:1] == before[:1] and after[2:] == before[2:]
    # exceptional class: square -1, meets only component 2
    comp, e = t.history[-1]
    assert comp == 2
    assert t.picard.square(e) == -1
    assert [t.picard.pair(e, b) for b in t.boundary] == [0, 1, 0, 0, 0, 0, 0]


def _twice_blown_up_quadric():
    """P1 x P1 blown up twice on its second boundary component: E1, E2."""
    return interior_blowup(interior_blowup(toric_from_sequence((0, 0, 0, 0)), 2), 2)


def _refusal(picard, boundary, history):
    with pytest.raises(InputError) as err:
        LooijengaSurface(picard=picard, boundary=boundary, history=history)
    return str(err.value)


def test_surface_refuses_a_picard_lattice_of_no_rational_surface():
    # Noether's n + D.D = 10 and the signature (1, n - 1) of the Hodge index
    # theorem: a (-1)-direction added to P1 x P1 breaks the first alone, a
    # positive direction in place of a (-1)-direction next to a (-2)-cycle
    # breaks the second alone
    s = toric_from_sequence((0, 0, 0, 0))
    extra = gram_lattice([list(row) + [0] for row in s.picard.gram] + [[0, 0, -1]])
    assert extra.signature == (1, 2, 0)
    assert _refusal(extra, tuple(b + (0,) for b in s.boundary), ()) == NOT_RATIONAL
    t = _nonprimitive_cycle(1)
    gram = [list(row) for row in t.picard.gram]
    gram[4][4] = 1
    assert t.boundary_self_intersection() == 0
    assert _refusal(gram_lattice(gram), t.boundary, ()) == NOT_RATIONAL


def test_surface_refuses_boundary_that_is_not_a_cycle():
    s = _twice_blown_up_quadric()
    b = s.boundary
    assert _refusal(s.picard, (b[0], b[2], b[1], b[3]), s.history) == (
        "boundary classes do not form a cycle"
    )


def test_surface_refuses_history_index_out_of_range():
    s = _twice_blown_up_quadric()
    (_, e1), second = s.history
    for comp in (0, 5):
        assert _refusal(s.picard, s.boundary, ((comp, e1), second)) == (
            "history component index out of range"
        )


def test_surface_refuses_history_class_that_is_not_exceptional():
    s = _twice_blown_up_quadric()
    (comp, e1), (_, e2) = s.history
    # 2 E1 - E2 meets the second component once, like E1, but has square -5
    cls = tuple(2 * x - y for x, y in zip(e1, e2))
    assert s.picard.square(cls) == -5
    assert [s.picard.pair(cls, b) for b in s.boundary] == [0, 1, 0, 0]
    assert _refusal(s.picard, s.boundary, ((comp, cls), s.history[1])) == (
        "history class is not a (-1)-class"
    )


def test_surface_refuses_history_class_on_the_wrong_component():
    s = _twice_blown_up_quadric()
    (_, e1), second = s.history
    assert _refusal(s.picard, s.boundary, ((3, e1), second)) == (
        "history class does not meet its recorded component once"
    )


def test_one_pipeline_run_checks_no_surface(monkeypatch):
    # the toric seed, the five blow-ups of Y, S~ and the second fibration's
    # blow-down all derive their surfaces by formula and check none
    stacks = []
    real = LooijengaSurface.__post_init__

    def counted(surface):
        stacks.append({frame.name for frame in traceback.extract_stack()})
        return real(surface)

    monkeypatch.setattr(LooijengaSurface, "__post_init__", counted)
    assert run_pipeline()["all_pass"]
    assert stacks == []


def test_interior_blowup_rejects_bad_component():
    s = toric_from_sequence((1, 1, 1))
    with pytest.raises(InputError):
        interior_blowup(s, 0)
    with pytest.raises(InputError):
        interior_blowup(s, 4)


def test_blowup_blowdown_roundtrip():
    s = toric_from_sequence((-1, -2, -1, -1, -1, -1, -2))
    t = interior_blowup(s, 3)
    back = blow_down(t, t.history[-1][1])
    assert back.picard.gram == s.picard.gram
    assert back.boundary == s.boundary
    assert back.self_intersections() == s.self_intersections()


def test_blow_down_embedding_transports_pairings(seed_surface):
    t = interior_blowup(seed_surface, 6)
    res = blow_down_with_embedding(t, t.history[-1][1])
    emb = res.embedding
    small = res.surface
    # the embedding rows realize the small lattice inside the big one
    for i, u in enumerate(emb):
        for j, v in enumerate(emb):
            assert t.picard.pair(u, v) == small.picard.gram[i][j]


def test_blow_down_of_last_exceptional_matches_the_unwind_oracle():
    # every blow-up of the paper chain, S~ included: the general complement
    # path gives the surface, labels, history and embedding of the old unwind
    s = toric_from_sequence((-1, -2, -1, -1, -1, -1, -2))
    for comp in (1, 3, 4, 5, 6, 6):
        s = interior_blowup(s, comp)
        e = s.history[-1][1]
        new = blow_down_with_embedding(s, e)
        old = unwind_blow_down(s, e)
        assert new.surface == old.surface
        assert new.surface.picard.basis_labels == old.surface.picard.basis_labels
        assert new.surface.history == old.surface.history
        assert new.embedding == old.embedding


def _assert_blow_down_matches_the_kernel_oracle(surface, v):
    # the same surface, labels, history and embedding, or the same refusal
    try:
        old = kernel_blow_down(surface, v)
    except InputError as exc:
        with pytest.raises(InputError) as info:
            blow_down_with_embedding(surface, v)
        assert str(info.value) == str(exc)
        return
    # GramLattice equality compares the labels too
    assert blow_down_with_embedding(surface, v) == old


def _sheared(surface, rng):
    """An isometric copy of ``surface`` on the basis f_i = sum_j U_ij e_j +
    a_i e_n (i < n), f_n = e_n, for U unimodular and a != 0 at random, with
    U.  e_n is still the last history class, but its Gram row (-a, -1) on a
    blown-up surface is no longer orthogonal to the other basis vectors."""
    n = surface.picard.rank
    a = [rng.randint(-3, 3) for _ in range(n - 1)]
    a[rng.randrange(n - 1)] = rng.choice((-2, -1, 1, 2))
    u = random_unimodular(rng, n - 1)
    f = [row + [ai] for row, ai in zip(u, a)] + [[0] * (n - 1) + [1]]
    f_inv = invert_unimodular(f)
    labels = rng.choice((None, tuple(f"F{i + 1}" for i in range(n))))
    copy = LooijengaSurface(
        picard=gram_lattice(surface.picard.gram_of(f), labels),
        boundary=tuple(tuple(combination(b, f_inv)) for b in surface.boundary),
        history=tuple((comp, tuple(combination(c, f_inv))) for comp, c in surface.history),
    )
    return copy, u


def test_undoing_the_last_blowup_on_a_sheared_basis_matches_the_kernel_oracle(rng):
    # 200 seeded surfaces whose last basis vector is the last exceptional
    # class but pairs with other basis vectors: the canonical kernel basis is
    # e_i + p_i e_n, not the first n - 1 unit vectors, which the unwind
    # oracle cannot express
    for _ in range(200):
        s = toric_from_sequence(rng.choice(fan_seeds(rng.randint(3, 8))))
        for _ in range(rng.randint(1, 4)):
            s = interior_blowup(s, rng.randint(1, s.r))
        t, u = _sheared(s, rng)
        n = t.picard.rank
        assert t.history[-1][1] == tuple([0] * (n - 1) + [1])
        assert any(t.picard.gram[n - 1][: n - 1])
        _assert_blow_down_matches_the_kernel_oracle(t, t.history[-1][1])
        # f_i + (f_i.e_n) e_n is U_i on the plain surface blown down: the
        # same lattice on the basis U
        small, plain = blow_down(t, t.history[-1][1]), blow_down(s, s.history[-1][1])
        assert small.picard.gram == tuple(map(tuple, plain.picard.gram_of(u)))


def test_blow_down_at_a_row_ending_in_a_non_unit_takes_the_kernel(rng, monkeypatch):
    # seeded isometric copies of blown-up surfaces on a basis f = F.e, F
    # unimodular, chosen so that an exceptional class's Gram row F.p ends in
    # a non-unit: no closed form, so the kernel branch runs, and it gives
    # the oracle's surface and embedding
    kernels = []
    real = cuspcheck.surface.orthogonal_complement
    monkeypatch.setattr(
        cuspcheck.surface,
        "orthogonal_complement",
        lambda lat, vs: kernels.append(list(vs)) or real(lat, vs),
    )
    found = 0
    while found < 40:
        s = toric_from_sequence(rng.choice(fan_seeds(rng.randint(3, 8))))
        for _ in range(rng.randint(1, 4)):
            s = interior_blowup(s, rng.randint(1, s.r))
        n = s.picard.rank
        f = random_unimodular(rng, n)
        _, e = rng.choice(s.history)
        p = combination(s.picard.pairing_row(e), transpose(f))
        if p[max(i for i, x in enumerate(p) if x)] in (1, -1):
            continue
        found += 1
        f_inv = invert_unimodular(f)
        t = LooijengaSurface(
            picard=gram_lattice(s.picard.gram_of(f)),
            boundary=tuple(tuple(combination(b, f_inv)) for b in s.boundary),
            history=tuple((comp, tuple(combination(c, f_inv))) for comp, c in s.history),
        )
        v = tuple(combination(e, f_inv))
        assert t.picard.pairing_row(v) == p
        kernels.clear()
        assert blow_down_with_embedding(t, v) == kernel_blow_down(t, v)
        assert kernels == [[v]]


def test_undoing_the_last_blowup_refuses_a_kept_class_off_its_orthogonal(rng):
    # the constructor checks each history class against the boundary, not
    # against the others: recording the last exceptional class twice keeps a
    # class with v.v = -1, which no coordinates on v^perp can express
    t = interior_blowup(toric_from_sequence((-1, -2, -1, -1, -1, -1, -2)), 3)
    doubled = LooijengaSurface(picard=t.picard, boundary=t.boundary, history=t.history * 2)
    for surface in (doubled, _sheared(doubled, rng)[0]):
        e = surface.history[-1][1]
        with pytest.raises(InputError, match="^vector does not lie in the sublattice$"):
            blow_down_with_embedding(surface, e)
        _assert_blow_down_matches_the_kernel_oracle(surface, e)


def test_run_criterion_undoes_the_last_blowup_without_a_smith_form(
    seed_surface, generic_phi, monkeypatch
):
    # the input check blows S~ down at its last exceptional class in closed
    # form: no kernel, no Hermite or Smith elimination, no Sublattice
    calls = []
    inside = []
    entered = []
    for name in ("_hermite", "hnf_transform", "snf_transform"):
        real = getattr(cuspcheck.intlinalg, name)

        def probe(*a, name=name, real=real, **kw):
            if inside:
                calls.append(name)
            return real(*a, **kw)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("cuspcheck") and getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, probe)
    real_blow_down = cuspcheck.pipeline.blow_down

    def blow_down_probe(*a):
        entered.append(1)
        inside.append(1)
        try:
            return real_blow_down(*a)
        finally:
            inside.pop()

    monkeypatch.setattr(cuspcheck.pipeline, "blow_down", blow_down_probe)
    tilde = interior_blowup(seed_surface, 6)
    run_criterion(tilde, generic_phi, 5)
    assert len(entered) == 1 and calls == []


def test_blow_down_rejects_non_exceptional_class():
    s = toric_from_sequence((-1, -2, -1, -1, -1, -1, -2))
    t = interior_blowup(s, 3)
    with pytest.raises(InputError):
        blow_down(t, t.boundary[0])


def test_boundary_complement_of_plane_is_trivial():
    s = toric_from_sequence((1, 1, 1))
    comp = boundary_complement(s)
    assert comp.sublattice.rank == 0
    assert comp.kernel_rank == 2


def test_boundary_complement_of_seed(seed_surface):
    comp = boundary_complement(seed_surface)
    assert comp.sublattice.rank == 3
    assert comp.kernel_rank == 0
    assert comp.sublattice.contains(seed_surface.boundary_sum())


def test_boundary_complement_is_kept_on_the_surface():
    s = toric_from_sequence((-1, -2, -1, -1, -1, -1, -2))
    assert boundary_complement(s) is boundary_complement(s)


def test_boundary_complement_keeps_its_roots(seed_surface):
    roots = boundary_complement(seed_surface).roots
    assert roots is boundary_complement(seed_surface).roots
    assert len(roots.radical) == 1 and len(roots.representatives) == 2


def _permuted_surface_file(surface, perm):
    """``surface`` on the basis e'_j = e_perm[j], written to JSON and read
    back through the checked decoder."""
    d = jsonio.surface_to_dict(surface)
    d["picard"]["gram"] = [[surface.picard.gram[i][j] for j in perm] for i in perm]
    labels = d["picard"]["basis_labels"]
    d["picard"]["basis_labels"] = labels and [labels[i] for i in perm]
    d["boundary"] = [[b[i] for i in perm] for b in d["boundary"]]
    for entry in d["history"]:
        entry["class"] = [entry["class"][i] for i in perm]
    return jsonio.surface_from_dict(jsonio.loads(jsonio.canonical_dumps(d)))


def test_kernel_rank_is_the_corank_of_the_boundary_span(rng, monkeypatch):
    # the kernel rank is read off the complement's rank on a nondegenerate
    # Pic; rank_int of the boundary classes is its oracle on every census Y
    # and S~ and on the paper's Y, S~ and Y2.  The same Y and S~ on a seeded
    # basis with a toric column last end in no unit column, so they take the
    # kernel and the checked Sublattice: the same complement as a set, and
    # the same kernel rank
    chains = [_Chain(make_config(), SEED_SEQUENCE, BLOWUP_COMPONENTS)]
    for n in range(3, 9):
        for seq in fan_seeds(n):
            order = [i + 1 for i, a in enumerate(seq) for _ in range(a + 2)]
            rng.shuffle(order)
            chains.append(_Chain(make_config(), seq, order))
    surfaces = [s for c in chains for s in (c.y, c.s_tilde)]
    for s in surfaces + [chains[0].y2[0]]:
        assert boundary_complement(s).kernel_rank == s.r - rank_int([list(b) for b in s.boundary])
    taken = unit_column_complements(monkeypatch)
    for s in surfaces:
        n = s.picard_rank
        perm = rng.sample(range(n), n)
        perm.remove(t := rng.randrange(n - len(s.history)))
        permuted = _permuted_surface_file(s, perm + [t])
        comp, want = boundary_complement(permuted), boundary_complement(s)
        # back on the old basis, x_old[perm[j]] = x_new[j]
        back = [[0] * n for _ in comp.sublattice.basis]
        for row, b in zip(back, comp.sublattice.basis):
            for j, i in enumerate(perm + [t]):
                row[i] = b[j]
        assert comp.sublattice.rank == want.sublattice.rank
        assert all(map(want.sublattice.contains, back))
        assert comp.kernel_rank == want.kernel_rank
    assert not taken
    # a null direction added to the paper's Pic: no surface has that Pic, so
    # the constructor refuses it, and no complement reads a degenerate Gram
    y = chains[0].y
    n = y.picard_rank
    degenerate = gram_lattice([list(row) + [0] for row in y.picard.gram] + [[0] * (n + 1)])
    boundary = tuple(b + (0,) for b in y.boundary)
    history = tuple((comp, c + (0,)) for comp, c in y.history)
    assert _refusal(degenerate, boundary, history) == NOT_RATIONAL


def test_boundary_definiteness_classifications(seed_surface):
    all_minus_two = boundary_definiteness(seed_surface)
    assert all_minus_two.classification == "negative_semidefinite_degenerate"
    assert all_minus_two.radical_rank == 1
    assert all_minus_two.criterion_agrees is True

    tilde = interior_blowup(seed_surface, 6)
    negdef = boundary_definiteness(tilde)
    assert negdef.classification == "negative_definite"
    assert negdef.criterion_agrees is True


def test_boundary_definiteness_skips_cross_check_on_minus_one():
    s = toric_from_sequence((-1, -2, -1, -1, -1, -1, -2))
    out = boundary_definiteness(s)
    assert out.criterion_applicable is False
    assert out.criterion_agrees is None


def test_surface_invariants_shape(seed_surface):
    inv = surface_invariants(seed_surface)
    assert inv["picard_rank"] == 10
    assert inv["boundary_square"] == 0
    assert inv["components"] == 7
    assert inv["blowups"] == 5
    assert inv["self_intersections"] == [-2] * 7


def _census_chains(rng):
    """Every census seed (cycle length 3-8) and its blow-ups, component i
    a_i + 2 times in a seeded order."""
    for n in range(3, 9):
        for seq in fan_seeds(n):
            order = [i + 1 for i, a in enumerate(seq) for _ in range(a + 2)]
            rng.shuffle(order)
            chain = [toric_from_sequence(seq)]
            for comp in order:
                chain.append(interior_blowup(chain[-1], comp))
            yield chain


def _assert_signature_is_the_inertia(surface):
    picard = surface.picard
    assert picard.signature == Signature(*inertia(picard.gram)), picard.gram


def _non_unit_copy(rng, y):
    """An isometric copy of ``y`` on a seeded basis on which the Gram row of
    one exceptional class ends in a non-unit, and that class: its blow-down
    takes the kernel path."""
    n = y.picard.rank
    while True:
        f = random_unimodular(rng, n)
        _, e = rng.choice(y.history)
        p = combination(y.picard.pairing_row(e), transpose(f))
        if p[max(i for i, x in enumerate(p) if x)] not in (1, -1):
            break
    f_inv = invert_unimodular(f)
    copy = LooijengaSurface(
        picard=gram_lattice(y.picard.gram_of(f)),
        boundary=tuple(tuple(combination(b, f_inv)) for b in y.boundary),
        history=tuple((comp, tuple(combination(c, f_inv))) for comp, c in y.history),
    )
    return copy, tuple(combination(e, f_inv))


def test_each_derived_signature_is_the_inertia_of_its_gram(rng, monkeypatch):
    # every census chain: the toric seed, each blow-up and each blow-down
    # of Y at an exceptional class (closed form) works no signature out, and
    # neither does a blow-down on the kernel path, from a checked copy.
    # Each equals the inertia of its own Gram
    calls = []
    monkeypatch.setattr(cuspcheck.lattice, "inertia", lambda a: calls.append(a) or inertia(a))
    kernel_paths = 0
    for chain in _census_chains(rng):
        y = chain[-1]
        closed = [blow_down_with_embedding(y, e).surface for _, e in y.history]
        for surface in chain + closed:
            _assert_signature_is_the_inertia(surface)
        copy, v = _non_unit_copy(rng, y)
        assert copy.picard.signature == y.picard.signature
        small = blow_down_with_embedding(copy, v)
        assert small == kernel_blow_down(copy, v)
        _assert_signature_is_the_inertia(small.surface)
        kernel_paths += 1
    # per chain, the checked constructor's, of the copy and of the kernel oracle
    assert kernel_paths == 91 and len(calls) == 2 * 91


def _handed_shape(surface) -> str:
    """Which facts ``boundary_complement`` handed the complement of
    ``surface``, each checked against the elimination it replaces: the
    signature against ``inertia`` and the radical against ``right_kernel``
    of the complement's Gram."""
    lat = boundary_complement(surface).sublattice.as_lattice()
    if lat._signature is None:
        assert lat._radical is None
        return "lazy"
    assert lat._signature == Signature(*inertia(lat.gram)), lat.gram
    assert lat._radical == tuple(map(tuple, right_kernel([list(r) for r in lat.gram]))), lat.gram
    return "(-2)-cycle" if lat._radical else "negative definite"


def test_handed_complement_facts_are_the_eliminations(rng):
    # every census chain at every prefix of its seeded blow-up order, its S~
    # and its Y on a seeded basis (a general-path complement, with
    # coordinates of D of any sign), and the paper's Y, S~ and Y2
    shapes = Counter()
    for chain in _census_chains(rng):
        y = chain[-1]
        surfaces = [*chain, interior_blowup(y, y.history[-1][0]), _non_unit_copy(rng, y)[0]]
        shapes.update(map(_handed_shape, surfaces))
    paper = _Chain(make_config(), SEED_SEQUENCE, BLOWUP_COMPONENTS)
    assert [_handed_shape(s) for s in (paper.y, paper.s_tilde, paper.y2[0])] == [
        "(-2)-cycle", "negative definite", "(-2)-cycle"
    ]
    assert shapes["(-2)-cycle"] == 2 * 91 and shapes["negative definite"] == 91
    # each toric seed and each prefix with a component of square > -2 stays lazy
    assert shapes["lazy"] == sum(a + 2 for n in range(3, 9) for seq in fan_seeds(n) for a in seq)


def _nonprimitive_cycle(sign: int) -> LooijengaSurface:
    """A (-2)-cycle D_1 = e_3, D_2 = e_4, D_3 = 2 sign e_1 - e_3 - e_4 in
    U(sign) + A_2(-1) + <-1>^6, whose sum D = 2 sign e_1 has content 2."""
    gram = [[0] * 10 for _ in range(10)]
    gram[0][1] = gram[1][0] = sign
    gram[2][2] = gram[3][3] = -2
    gram[2][3] = gram[3][2] = 1
    for i in range(4, 10):
        gram[i][i] = -1
    d1, d2 = (tuple(int(i == j) for i in range(10)) for j in (2, 3))
    d3 = (2 * sign, 0, -1, -1) + (0,) * 6
    return LooijengaSurface(picard=gram_lattice(gram), boundary=(d1, d2, d3))


def test_handed_radical_is_the_primitive_line_of_the_boundary_sum():
    # D = 2 sign e_1 has content 2, and its coordinates on the complement's
    # basis lead with -2 when sign is -1: the radical is the primitive,
    # sign-normalized line, as right_kernel gives it
    for sign in (1, -1):
        surface = _nonprimitive_cycle(sign)
        assert surface.picard.signature == (1, 9, 0)
        lam = boundary_complement(surface).sublattice
        assert lam.coords_of(surface.boundary_sum())[0] == 2 * sign
        assert _handed_shape(surface) == "(-2)-cycle"
        assert lam.as_lattice().radical == ((1, 0, 0, 0, 0, 0, 0),)


def test_every_derived_surface_carries_the_rational_signature(rng):
    # the toric seed, each blow-up and each blow-down (in closed form or on
    # the kernel path) is handed (1, n - 1, 0) before anything reads it,
    # whether its parent was derived, decoded or built checked; each equals
    # the inertia of its own Gram
    for chain in _census_chains(rng):
        y = chain[-1]
        decoded = jsonio.surface_from_dict(jsonio.surface_to_dict(chain[len(chain) // 2]))
        fresh = LooijengaSurface(
            picard=gram_lattice(y.picard.gram, y.picard.basis_labels),
            boundary=y.boundary,
            history=y.history,
        )
        copy, v = _non_unit_copy(rng, y)
        derived = [*chain, blow_down_with_embedding(copy, v).surface]
        for surface in (y, decoded, fresh):
            up = interior_blowup(surface, rng.randint(1, surface.r))
            derived += [up, blow_down(up, up.history[-1][1]), blow_down(up, up.history[0][1])]
        for surface in derived:
            n = surface.picard_rank
            assert surface.picard._signature == Signature(1, n - 1, 0), surface.picard.gram
            _assert_signature_is_the_inertia(surface)


def test_one_pipeline_run_works_out_four_signatures(monkeypatch):
    # the boundary Grams of Y and S~, the Gram of Y2's extra fiber and the
    # checker's totaro_check; no Picard lattice takes one, toric or derived,
    # and the complements of Y and Y2 ((-2)-cycles) and of S~ (M, a
    # negative definite cycle) are handed theirs
    calls = []
    for module in (cuspcheck.lattice, cuspcheck.checker):
        monkeypatch.setattr(module, "inertia", lambda a: calls.append(len(a)) or inertia(a))
    assert run_pipeline()["all_pass"]
    assert sorted(calls) == [2, 4, 7, 7]
