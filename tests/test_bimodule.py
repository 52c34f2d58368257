"""Oracle tests for Soergel bimodules and their morphisms."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dihedralcat import bimodule, complexes, linalg
from dihedralcat.bimodule import (Bimodule, HomSpace, b_generator,
                                  bott_samelson, direct_sum, dot_in, dot_out,
                                  hom_degree_basis, id_tensor_matrix,
                                  identity_morphism, invert_morphism,
                                  is_invertible, mat_mul, regular, tensor,
                                  tensor_id_matrix)
from dihedralcat.complexes import decompose_bimodule, indecomposable_b
from dihedralcat.field import FieldScalar, field_for
from dihedralcat.hecke import group_elements, hom_rank, kl_basis
from dihedralcat.ring import LETTERS, RingElement, realization
from dihedralcat.series import QSeries
from dihedralcat.trace import rho_endomorphism
from helpers import (dualize_D, find_isomorphism, reference_hom_basis,
                     reference_hom_space, tensor_matrix, tensor_morphism,
                     zero_morphism)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_b_generator_structure(m):
    for x in LETTERS:
        bs = b_generator(m, x)
        assert bs.rank == 2
        assert list(bs.degrees) == [-1, 1]
        # validation (commuting actions, graded homogeneity) runs in ctor
        Bimodule(bs.real, bs.degrees, bs.left["s"], bs.left["t"])


@pytest.mark.parametrize("m", [2, 3, 4])
def test_left_action_is_ring_homomorphism(m):
    real = realization(m)
    bs = b_generator(m, "s")
    f = real.alpha["s"] * real.alpha["t"] + real.alpha["t"]
    g = real.alpha["s"]
    lf = bs.left_action_of(f)
    lg = bs.left_action_of(g)
    assert bs.left_action_of(f * g) == mat_mul(lf, lg, real.field)


def test_tensor_ranks_and_degrees():
    bs = b_generator(3, "s")
    bt = b_generator(3, "t")
    both = tensor(bs, bt)
    assert both.rank == 4
    assert sorted(both.degrees) == [-2, 0, 0, 2]
    assert both.word == ("s", "t")
    assert bott_samelson(3, ("s", "t", "s")).rank == 8


def test_dot_composites():
    # dot_out . dot_in = multiplication by alpha_s; the normalization 1/2
    # makes the coefficient exactly 1
    m = 3
    real = realization(m)
    out_map = dot_out(m, "s")
    in_map = dot_in(m, "s")
    comp = out_map.compose(in_map)
    assert comp.matrix[0][0] == real.alpha["s"]
    assert comp.degree == 0  # shifts live in the objects, not the degree


@pytest.mark.parametrize("m", [2, 3, 4])
def test_soergel_hom_ranks_small(m):
    # hom(B_s, B_s) has graded rank 1 + Q^2; hom(R, B_s) rank Q
    bs = b_generator(m, "s")
    assert HomSpace(bs, bs).graded_rank() == QSeries({0: 1, 2: 1}, 0)
    assert HomSpace(regular(m), bs).graded_rank() == QSeries({1: 1}, 0)
    assert HomSpace(bs, regular(m)).graded_rank() == QSeries({1: 1}, 0)
    bt = b_generator(m, "t")
    if m == 2:
        # s and t commute: hom(B_s, B_t) = Q^2
        assert HomSpace(bs, bt).graded_rank() == QSeries({2: 1}, 0)
    else:
        assert HomSpace(bs, bt).graded_rank() == QSeries({2: 1}, 0)


def _slice_dim(ranks, d):
    """Q^d coefficient of sum_e ranks[e] Q^e / (1 - Q^2)^2: the dimension
    in degree d of a free right R-module with ranks[e] generators in
    degree e."""
    return sum(c * ((d - e) // 2 + 1) for e, c in ranks.items()
               if d >= e and (d - e) % 2 == 0)


def test_hom_degree_basis_matches_hom_space():
    bs = b_generator(3, "s")
    full = HomSpace(bs, bs)
    for d in (0, 2):
        got = len(hom_degree_basis(bs, bs, d))
        # degree-d morphisms = generators of degree <= d times ring elements
        assert got == _slice_dim(Counter(full.degrees), d)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_hom_rank_of_shifted_atoms(m):
    # the graded ranks of test_soergel_hom_ranks_small, moved by k - l
    # for Hom(M(k), N(l)); R(k) -> R(l) is generated in degree k - l
    bs, bt, r = b_generator(m, "s"), b_generator(m, "t"), regular(m)
    cases = [(bs, bs, {0: 1, 2: 1}), (r, bs, {1: 1}), (bs, r, {1: 1}),
             (bs, bt, {2: 1}), (r, r, {0: 1})]
    for k, l in [(0, 0), (2, 0), (0, 3), (-1, 4)]:
        for dom, cod, ranks in cases:
            dom_k, cod_l = dom.shifted(k), cod.shifted(l)
            want = {e + k - l: c for e, c in ranks.items()}
            assert hom_rank(dom_k, cod_l) == want
            assert Counter(HomSpace(dom_k, cod_l).degrees) == want
            for d in range(min(want) - 2, max(want) + 3):
                assert len(hom_degree_basis(dom_k, cod_l, d)) == \
                    _slice_dim(want, d)
    assert hom_rank(regular(m, 3), regular(m, 1)) == {2: 1}


def _hom_test_objects(m):
    """B_w for l(w) <= 3, BS(st), BS(ts) and R(2), and shifts of the two
    first."""
    objs = [indecomposable_b(m, w) for w in group_elements(m) if len(w) <= 3]
    objs += [bott_samelson(m, "st"), bott_samelson(m, "ts"), regular(m, 2)]
    return objs + [objs[0].shifted(1), objs[1].shifted(-2)]


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_hom_space_matches_its_reference(m):
    objs = _hom_test_objects(m)
    for dom in objs:
        for cod in objs:
            hs = HomSpace(dom, cod)
            assert repr((hs.generators, hs.degrees)) == \
                repr(reference_hom_space(dom, cod)), (dom, cod)


def test_up_to_shift_keys_every_shift_alike():
    for mod in _hom_test_objects(4):
        low, key = mod.up_to_shift()
        for k in (-3, 1, 4):
            low_k, key_k = mod.shifted(k).up_to_shift()
            assert key_k == key and low - low_k == k
    assert b_generator(4, "s").up_to_shift()[1] != \
        b_generator(4, "t").up_to_shift()[1]


def _matrices(maps):
    return [repr(phi.matrix) for phi in maps]


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_hom_degree_basis_matches_the_full_solve(m, monkeypatch):
    # hom_degree_basis stops eliminating at the rank Soergel's hom formula
    # names and checks the rows left; at m = 3 it solves the equations of
    # left a_s alone (a map that commutes with it is a bimodule map).  The
    # basis is still the reduced echelon basis of every equation of both
    # letters.  The longest element at m = 4, 5 (rank 16, 32) is left out
    # for time.
    checked = []
    real = linalg.Echelon.spans

    def counting(self, row):
        checked.append(None)
        return real(self, row)

    monkeypatch.setattr(linalg.Echelon, "spans", counting)
    atoms = [regular(m), bott_samelson(m, "st"), bott_samelson(m, "ts")] + \
        [indecomposable_b(m, w) for w in group_elements(m) if 1 <= len(w) <= 3]
    for dom in atoms:
        for cod in atoms:
            for d in range(-2, 5):
                assert _matrices(hom_degree_basis(dom, cod, d)) == \
                    _matrices(reference_hom_basis(dom, cod, d)), (dom, cod, d)
    assert checked  # the early stop fired


def test_split_solves_at_m3_equal_the_two_letter_solve(monkeypatch):
    # the hom solves that split every product B_x (x) B_y at m = 3
    calls = []
    real = bimodule.hom_degree_basis

    def recording(dom, cod, degree=0):
        out = real(dom, cod, degree)
        calls.append((dom, cod, degree, out))
        return out

    monkeypatch.setattr(bimodule, "hom_degree_basis", recording)
    complexes.clear_caches()
    atoms = [indecomposable_b(3, w) for w in group_elements(3) if w]
    for mod_x in atoms:
        for mod_y in atoms[:4]:
            decompose_bimodule(tensor(mod_x, mod_y))
    assert len(calls) > 20
    for dom, cod, degree, got in calls:
        assert _matrices(got) == \
            _matrices(reference_hom_basis(dom, cod, degree)), (dom, cod)


def test_m5_keeps_both_letters_for_cost_only():
    # At m = 5 too no root is perpendicular to alpha_s, so the equations of
    # left a_s alone give the same dimensions; hom_degree_basis keeps both
    # letters there because the solves are faster with them.
    atoms = [indecomposable_b(5, w) for w in group_elements(5)
             if len(w) <= 3]
    for dom in atoms:
        for cod in atoms:
            for d in range(-1, 3):
                assert len(reference_hom_basis(dom, cod, d, ("s",))) == \
                    len(hom_degree_basis(dom, cod, d)), (dom, cod, d)


@pytest.mark.parametrize("m, dom, cod, degree, want", [
    (2, (), ("t",), -1, 0),
    (4, ("s",), ("t", "s", "t"), 2, 1),
    (6, ("t", "s", "t"), ("t", "s", "t"), 2, 4),
])
def test_even_m_needs_both_letters(m, dom, cod, degree, want):
    # At even m the reflection in the root perpendicular to alpha_s fixes
    # it, and the equations of left a_s alone let through one map too many.
    dom, cod = indecomposable_b(m, dom), indecomposable_b(m, cod)
    assert len(hom_degree_basis(dom, cod, degree)) == want
    assert len(reference_hom_basis(dom, cod, degree)) == want
    assert len(reference_hom_basis(dom, cod, degree, ("s",))) == want + 1


def test_hom_space_refuses_a_missing_or_wrong_class():
    summed = direct_sum([b_generator(3, "s"), b_generator(3, "t")])
    with pytest.raises(ValueError, match="no Hecke class"):
        HomSpace(summed, b_generator(3, "s"))
    with pytest.raises(ValueError, match="no Hecke class"):
        HomSpace(regular(3), summed)
    summed.product_class = kl_basis(3, "s") + kl_basis(3, "t")
    assert Counter(HomSpace(summed, summed).degrees) == {0: 2, 2: 4}
    summed.product_class = kl_basis(3, "st")  # End would be 1 + 2Q^2 + Q^4
    with pytest.raises(ArithmeticError, match="generators in degree 0"):
        HomSpace(summed, summed)


def test_invertibility_and_neumann_inverse():
    m = 3
    real = realization(m)
    total = direct_sum([regular(m, 0), regular(m, -2)])
    ident = identity_morphism(total)
    assert is_invertible(ident)
    # identity plus a strictly-positive-degree nilpotent correction
    from dihedralcat.bimodule import BimoduleMorphism
    mat = [list(row) for row in ident.matrix]
    mat[0][1] = real.alpha["s"]
    phi = BimoduleMorphism(total, total, mat, 0)
    assert is_invertible(phi)
    inv = invert_morphism(phi)
    assert inv.compose(phi) == ident
    assert phi.compose(inv) == ident
    # a genuinely singular endomorphism
    assert not is_invertible(zero_morphism(total, total))


def test_tensor_morphism_functorial():
    m = 3
    bs = b_generator(m, "s")
    bt = b_generator(m, "t")
    f = identity_morphism(bs)
    g = dot_out(m, "t")
    fg = tensor_morphism(f, g)
    assert fg.dom.rank == tensor(bs, b_generator(m, "t")).rank
    assert fg.degree == g.degree
    # (id (x) g) . (id (x) g') composes correctly
    g2 = dot_in(m, "t")
    comp = tensor_morphism(f, g.compose(g2))
    assert comp == fg.compose(tensor_morphism(f, g2))


def _naive_mat_mul(a, b, field):
    """The reference product: a triple sum of RingElement products."""
    ncols = len(b[0]) if b else 0
    return [[sum((a[i][p] * b[p][j] for p in range(len(b))),
                 RingElement.zero(field)) for j in range(ncols)]
            for i in range(len(a))]


def _ring_elements(field):
    """Sparse elements of R: up to three terms, often none."""
    coeffs = st.lists(st.fractions(-3, 3, max_denominator=3),
                      min_size=field.degree, max_size=field.degree)
    terms = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                            coeffs.map(lambda c: FieldScalar(field, c)),
                            max_size=3)
    return st.one_of(st.just({}), terms).map(
        lambda t: RingElement(field, t))


@pytest.mark.parametrize("m", [3, 5])  # K_3 = Q; K_5 has degree 2
@settings(derandomize=True, max_examples=80, deadline=None)
@given(data=st.data())
def test_mat_mul_matches_the_naive_triple_sum(m, data):
    field = field_for(m)
    n, k, ncols = (data.draw(st.integers(0, 4)) for _ in range(3))
    elems = _ring_elements(field)
    a = [[data.draw(elems) for _ in range(k)] for _ in range(n)]
    zero_rows = data.draw(st.sets(st.integers(0, max(k - 1, 0))))
    b = [[RingElement.zero(field) if p in zero_rows else data.draw(elems)
          for _ in range(ncols)] for p in range(k)]
    assert mat_mul(a, b, field) == _naive_mat_mul(a, b, field)


@pytest.mark.parametrize("m", [3, 5])
def test_mat_mul_of_empty_shapes(m):
    field = field_for(m)
    one = RingElement.constant(field, 1)
    # a product has len(a) rows and len(b[0]) columns, none when b is empty
    assert mat_mul([[], []], [], field) == [[], []]       # a is 2x0
    assert mat_mul([], [[one, one]], field) == []          # a is 0x1
    assert mat_mul([[one, one]], [[], []], field) == [[]]  # b is 2x0


def test_left_action_memo_is_safe_to_write_and_free_of_shifts():
    mod = tensor(b_generator(3, "s"), b_generator(3, "t"))
    rho = mod.real.rho["s"]
    want = [list(row) for row in mod.left_action_of(rho)]
    scratch = mod.left_action_of(rho)
    scratch[0][0] = scratch[0][0] - rho
    scratch[1] = []
    assert mod.left_action_of(rho) == want
    assert rho_endomorphism(mod, "s") == rho_endomorphism(mod, "s")
    for k in (-3, 2):
        assert mod.shifted(k).left_action_of(rho) == want


def test_identity_tensor_helpers_match_tensor_matrix():
    m = 3
    maps = [dot_out(m, "s"), dot_in(m, "t"),
            *hom_degree_basis(b_generator(m, "s"), b_generator(m, "s"), 2)]
    mods = [regular(m, 1), b_generator(m, "t"), bott_samelson(m, "st")]
    for f in maps:
        for mod in mods:
            ident = identity_morphism(mod)
            assert tensor_id_matrix(f, mod) == tensor_matrix(f, ident)
            assert id_tensor_matrix(mod, f) == tensor_matrix(ident, f)


def test_duality_involution_and_degrees():
    bs = b_generator(3, "s", shift=1)
    dual = dualize_D(bs)
    assert sorted(dual.degrees) == sorted(-d for d in bs.degrees)
    again = dualize_D(dual)
    assert list(again.degrees) == list(bs.degrees)
    assert again.left == bs.left


def test_find_isomorphism_positive_and_negative():
    m = 3
    bs = b_generator(m, "s")
    iso = find_isomorphism(bs, b_generator(m, "s"))
    assert iso is not None
    assert find_isomorphism(bs, b_generator(m, "t")) is None
    assert find_isomorphism(bs, regular(m)) is None


def test_json_round_trip():
    bs = b_generator(3, "s", shift=2)
    back = Bimodule.from_json(bs.to_json())
    assert back == bs
    assert back.shift == bs.shift and back.word == bs.word
