"""Tests for Rouquier complexes, tensor products and minimal forms."""

import hashlib
import importlib
import json
import pkgutil
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dihedralcat
from dihedralcat import bimodule, complexes, hecke, linalg, serre, trace
from dihedralcat.bimodule import (Bimodule, BimoduleMorphism, _mat_to_json,
                                  b_generator, bott_samelson, direct_sum,
                                  hom_degree_basis, id_tensor_matrix,
                                  identity_morphism, is_invertible, mat_add,
                                  mat_identity, mat_mul, mat_neg, mat_sub,
                                  regular, scalar_part, split_summand, tensor,
                                  tensor_id_matrix)
from dihedralcat.complexes import (MAX_WORD_LENGTH, ChainComplex,
                                   chain_map_basis, complexes_isomorphic,
                                   decompose_bimodule, indecomposable_b,
                                   minimal_form, parse_braid, rouquier,
                                   rouquier_braid, single_object, split_atoms,
                                   tensor_complex)
from dihedralcat.hecke import (Laurent, bs_class, class_of_bimodule,
                               class_of_complex, delta_product,
                               group_elements, kl_basis, kl_multiplicities)
from dihedralcat.homology import hhh
from dihedralcat.ring import RingElement
from dihedralcat.serre import homology_series
from helpers import reference_complement


def test_rouquier_generator_shapes():
    pos = rouquier(3, "s", 1)
    assert sorted(pos.objects) == [0, 1]
    assert pos.objects[0][0].word == ("s",)
    assert list(pos.objects[1][0].degrees) == [-1]  # R(1)
    neg = rouquier(3, "s", -1)
    assert sorted(neg.objects) == [-1, 0]
    assert list(neg.objects[-1][0].degrees) == [1]  # R(-1)
    assert neg.objects[0][0].word == ("s",)
    pos.validate()
    neg.validate()


def test_parse_braid_grammar():
    assert parse_braid("s t") == [("s", 1), ("t", 1)]
    assert parse_braid("s^2 t^-1") == [("s", 1), ("s", 1), ("t", -1)]
    assert parse_braid("1 -2") == [("s", 1), ("t", -1)]
    assert parse_braid("s^{3}")[0] == ("s", 1)
    with pytest.raises(ValueError):
        parse_braid("")
    with pytest.raises(ValueError):
        parse_braid("u")
    with pytest.raises(ValueError):
        parse_braid("s^x")


def test_parse_braid_bounds_expanded_length():
    assert len(parse_braid("s^%d" % MAX_WORD_LENGTH)) == MAX_WORD_LENGTH
    with pytest.raises(ValueError, match="25 letters"):
        parse_braid("s^%d t" % MAX_WORD_LENGTH)
    with pytest.raises(ValueError, match="100000 letters"):
        parse_braid("s^100000")
    with pytest.raises(ValueError, match="100001 letters"):
        parse_braid("t s^-100000")


@pytest.mark.parametrize("word", ["s t", "s t^-1", "s^2"])
def test_tensor_complex_d_squared(word):
    raw = rouquier_braid(3, word)
    raw.validate()


def test_tensor_complex_reuses_its_atoms(monkeypatch):
    # Cold, the Whitehead complex takes 55 tensor products: the atoms of each
    # tensor_complex plus the B_w the splits read, none per differential block.
    complexes.clear_caches()
    calls = []
    real_tensor = bimodule.tensor

    def counting(a, b):
        calls.append((a, b))
        return real_tensor(a, b)

    monkeypatch.setattr(bimodule, "tensor", counting)
    monkeypatch.setattr(complexes, "tensor", counting)
    rouquier_braid(3, "s^-2 t s^-1 t", split=True)
    assert len(calls) == 55
    monkeypatch.undo()
    cplx = tensor_complex(rouquier_braid(3, "s^-1 t", split=True),
                          rouquier(3, "s", -1))
    blocks = [(n, r, c, blk) for n, rows in cplx.diffs.items()
              for r, row in enumerate(rows) for c, blk in enumerate(row)
              if blk is not None]
    assert blocks
    for n, r, c, blk in blocks:
        assert blk.dom is cplx.objects[n][c]
        assert blk.cod is cplx.objects[n + 1][r]


def test_inverse_pair_collapses_to_unit():
    cplx = rouquier_braid(3, "s s^-1", split=True)
    assert sorted(cplx.degrees()) == [0]
    (only,) = cplx.objects[0]
    assert only.word == () and list(only.degrees) == [0]


def test_minimal_form_idempotent_and_smaller():
    raw = rouquier_braid(3, "s t s")
    mini = minimal_form(split_atoms(minimal_form(raw)))
    assert mini.atom_count() <= raw.atom_count()
    again = minimal_form(mini)
    assert again.graded_atom_profile() == mini.graded_atom_profile()


@pytest.mark.parametrize("m", [3, 4, 5])
def test_half_twist_powers_atom_counts(m):
    # F_{(st)^k} for k = 1, 2: the minimal complex has one atom per element
    # of length <= 2k that is a suffix-compatible canonical word; at least
    # the ranks must be finite and d^2 = 0 after full simplification.
    for k in (1, 2):
        word = " ".join(["s t"] * k)
        cplx = rouquier_braid(m, word, split=True)
        cplx.validate()
        assert cplx.atom_count() >= 1
        # top cohomological degree object is R(2k)
        top = max(cplx.degrees())
        assert top == 2 * k
        (mod,) = cplx.objects[top]
        assert mod.word == () and list(mod.degrees) == [-2 * k]


def test_simplification_preserves_homology():
    # Gaussian elimination is a homotopy equivalence: the triply-graded
    # series computed from the raw and the simplified complex agree.
    for word in ("s t", "s^2"):
        raw = rouquier_braid(3, word)
        simp = rouquier_braid(3, word, split=True)
        assert hhh(word, 3, precomputed=raw) == hhh(word, 3, precomputed=simp)


def test_random_words_minimal_forms_stable():
    rng = random.Random(20240401)
    tokens = ["s", "t", "s^-1", "t^-1"]
    for _ in range(8):
        word = " ".join(rng.choice(tokens) for _ in range(rng.randint(1, 4)))
        cplx = rouquier_braid(3, word, split=True)
        cplx.validate()
        assert minimal_form(cplx).graded_atom_profile() == \
            cplx.graded_atom_profile()


def test_complexes_isomorphic_positive_and_negative():
    a = rouquier_braid(3, "s s^-1 s", split=True)
    b = rouquier_braid(3, "s", split=True)
    verdict, witness = complexes_isomorphic(a, b)
    assert verdict == "yes"
    assert witness and sorted(witness) == sorted(a.degrees())
    verdict, _ = complexes_isomorphic(b, rouquier_braid(3, "t"))
    assert verdict != "yes"


def test_complex_json_round_trip():
    cplx = rouquier_braid(3, "s t^-1", split=True)
    back = ChainComplex.from_json(cplx.to_json())
    assert back.graded_atom_profile() == cplx.graded_atom_profile()
    verdict, _ = complexes_isomorphic(back, cplx)
    assert verdict == "yes"


@pytest.mark.parametrize("part", ["objects", "diffs"])
def test_complex_from_json_checks_every_copy_of_a_repeated_piece(part):
    # from_json checks each atom up to shift, and each block up to a shift
    # of its ends, once; a wrong degree in the last copy of a repeated one
    # is still caught
    cplx = rouquier_braid(3, "s t s t s t s t", split=True)

    def key(piece):
        if part == "objects":
            return piece.up_to_shift()[1]
        (low, dom_key), (cod_low, cod_key) = (piece.dom.up_to_shift(),
                                              piece.cod.up_to_shift())
        return piece.matrix, dom_key, cod_key, cod_low - low

    if part == "objects":
        pieces = [((str(d), i), mod) for d, obs in cplx.objects.items()
                  for i, mod in enumerate(obs)]
    else:
        pieces = [((str(d), r, c), blk) for d, rows in cplx.diffs.items()
                  for r, row in enumerate(rows)
                  for c, blk in enumerate(row) if blk is not None]
    copies = {}
    for path, piece in pieces:
        copies.setdefault(key(piece), []).append(path)
    path = max((paths for paths in copies.values() if len(paths) > 1),
               key=len)[-1]
    data = cplx.to_json()
    ChainComplex.from_json(data)
    entry = data[part][path[0]]
    for i in path[1:]:
        entry = entry[i]
    matrix = entry["left_t"] if part == "objects" else entry
    term = next(poly for row in matrix for poly in row if poly)[0]
    term[0] += 1
    with pytest.raises(ValueError, match="homogeneous"):
        ChainComplex.from_json(data)


def test_d_squared_check_sees_a_corrupted_copy_of_a_repeated_block_pair():
    # validate forms each product of two block matrices once; doubling the
    # second block of the last copy of a repeated pair with a nonzero
    # product keeps it a bimodule map but breaks d^2 = 0
    cplx = rouquier_braid(3, " ".join(["s t"] * 7), split=True)
    copies = {}
    for d, blocks in cplx.diffs.items():
        for row in cplx.diffs.get(d + 1, []):
            for k, f in enumerate(row):
                for c, g in enumerate(blocks[k]):
                    if f is not None and g is not None and any(map(
                            any, mat_mul(f.matrix, g.matrix, f.dom.field))):
                        copies.setdefault((f.matrix, g.matrix), []).append(
                            (str(d), k, c))
    repeated = max(copies.values(), key=len)
    assert len(repeated) > 1
    d, k, c = repeated[-1]
    data = cplx.to_json()
    ChainComplex.from_json(data)
    for row in data["diffs"][d][k][c]:
        for poly in row:
            for term in poly:
                term[2] = [str(2 * Fraction(x)) for x in term[2]]
    with pytest.raises(ValueError, match=r"d\^2 != 0"):
        ChainComplex.from_json(data)


def test_tensor_with_unit_is_identity_up_to_iso():
    unit = rouquier_braid(3, "s s^-1", split=True)
    f_t = rouquier_braid(3, "t", split=True)
    prod = minimal_form(split_atoms(minimal_form(tensor_complex(unit, f_t))))
    verdict, _ = complexes_isomorphic(prod, f_t)
    assert verdict == "yes"


def test_complexes_isomorphic_without_degree_zero_maps():
    # same graded atom profile, but no degree-0 maps B_st -> B_ts at m = 3
    b_st = single_object(3, bott_samelson(3, ("s", "t")))
    b_ts = single_object(3, bott_samelson(3, ("t", "s")))
    vecs, per_degree, offsets = chain_map_basis(b_st, b_ts)
    assert vecs == [] and per_degree == {0: []} and offsets == {0: 0}
    assert complexes_isomorphic(b_st, b_ts) == ("no", None)


def test_one_dimensional_chain_maps_decide_exactly():
    # every chain map F_s -> [B_s   R(1)] (no differential) is c (id, 0),
    # which no c makes invertible; likewise the other way
    f_s = rouquier(3, "s")
    flat = ChainComplex(3, f_s.objects, {})
    for c1, c2 in ((f_s, flat), (flat, f_s)):
        assert len(chain_map_basis(c1, c2)[0]) == 1
        assert complexes_isomorphic(c1, c2) == ("no", None)


def test_kl_tag_survives_json_and_shifts():
    b_sts = indecomposable_b(3, ("s", "t", "s"))
    back = Bimodule.from_json(b_sts.shifted(-1).to_json())
    assert repr(back) == "B_sts(-1)" and back.kl == ("s", "t", "s")
    assert back == b_sts.shifted(-1)
    assert "kl" not in bott_samelson(3, ("s", "t")).to_json()


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_indecomposables_have_kl_rank_and_local_degree_zero_ends(m):
    for w in group_elements(m):
        b_w = indecomposable_b(m, w)
        expect = sorted(2 * len(y) - len(w) for y in kl_basis(m, w).terms)
        assert sorted(b_w.degrees) == expect
        assert len(hom_degree_basis(b_w, b_w, 0)) == 1


def test_indecomposable_b_rejects_unreduced_words():
    with pytest.raises(ValueError):
        indecomposable_b(3, ("s", "s"))
    with pytest.raises(ValueError):
        indecomposable_b(3, ("s", "t", "s", "t"))


# sha256 of json.dumps(B_w.to_json(), sort_keys=True) at m = 4, as built by
# peeling every shorter B_v(k) off BS(w): a change of basis fails here
# instead of silently invalidating on-disk cache entries.
B_W_SHA256_M4 = {
    "": "39386b17a6eb31baad522c1c16ae1084e33624fb84b0dc1b29a9af97dec84d1f",
    "s": "96e917c65109c81440129a7d8a7eccd2f3504a5b662136203ed368a4c1e35111",
    "st": "fee13c15b464e03b1b5bab082bb1897cc9b9f24cc551693da594cb9634bc3130",
    "sts": "c07b5a51a0030bc9702ac115ee2ef0c8d7cb04169af23a22162ef86f6066d825",
    "stst": "9feb4bc66e6d3a0250bc583c1e5746a9a722c708c9ea53cccac0ec603b2045a9",
    "t": "9887f14d4bdf55d79e304edfc55f866b51e5e8ad7973b4bb3fc05982c9b1108c",
    "ts": "57a3efc41edb3463424335587e67c31f648f60b26b60eb9acefa24b8bcad25dd",
    "tst": "6cb5e8492e84dce147fe7d8bfe64c3330b67a0f171cb42d9e91e98a6ae8829ee",
}


def test_indecomposables_keep_their_basis():
    for w in group_elements(4):
        text = json.dumps(indecomposable_b(4, w).to_json(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == \
            B_W_SHA256_M4["".join(w)]


def _decompose_counting_splits(mod, monkeypatch):
    """decompose_bimodule(mod), cold, and the number of split_summand calls
    it made; the indecomposables it reads are built beforehand."""
    complexes.clear_caches()
    for w in group_elements(mod.m):
        indecomposable_b(mod.m, w)
    calls = []
    split_summand = complexes.split_summand

    def counting(current, cand):
        calls.append(cand)
        return split_summand(current, cand)

    monkeypatch.setattr(complexes, "split_summand", counting)
    pieces = decompose_bimodule(mod)
    monkeypatch.undo()
    return pieces, len(calls)


def _assert_complete_orthogonal_idempotents(mod, pieces):
    """proj_j . incl_i = delta_ij id and sum_i incl_i . proj_i = id."""
    total = None
    for i, (atom, incl, proj) in enumerate(pieces):
        for j, (_, _, proj_j) in enumerate(pieces):
            comp = proj_j.compose(incl)
            assert comp == identity_morphism(atom) if i == j else not comp
        term = incl.compose(proj)
        total = term if total is None else total + term
    assert total == identity_morphism(mod)


def _hom_solve_pieces(mod):
    """Reference split by hom solves alone: each summand the class names,
    in decompose_bimodule's order, split off the complement of those
    before it."""
    mults = kl_multiplicities(class_of_bimodule(mod))
    summands = [indecomposable_b(mod.m, w).shifted(k)
                for w in sorted(group_elements(mod.m), key=len, reverse=True)
                if w in mults for k, n in sorted(mults[w].terms.items())
                for _ in range(n)]
    out, current = [], mod
    incl_cur = proj_cur = identity_morphism(mod)
    for cand in summands:
        incl, proj = split_summand(current, cand)
        out.append((cand, incl_cur.compose(incl), proj.compose(proj_cur)))
        if cand.rank == current.rank:
            break
        current, rest_incl, rest_proj = \
            complexes._complement_of_idempotent(current, incl, proj)
        incl_cur = incl_cur.compose(rest_incl)
        proj_cur = rest_proj.compose(proj_cur)
    return out


def _complement_text(found):
    summand, incl, proj = found
    return (repr(summand), summand.to_json(), _mat_to_json(incl.matrix),
            _mat_to_json(proj.matrix))


def test_complements_match_their_reference(monkeypatch):
    # _complement_of_idempotent reads the summand's left action and its
    # projection off the graded inverse of a square block of 1 - incl.proj;
    # the reference lifts them through a ModuleGB.  Every complement made
    # to build B_w at m = 2-6, or to split B_x (x) B_y from cold at m = 3, 4
    # (l(x) <= 3, l(y) <= 2), comes out the same.
    seen = []
    real = complexes._complement_of_idempotent

    def comparing(mod, incl, proj):
        found = real(mod, incl, proj)
        assert _complement_text(found) == \
            _complement_text(reference_complement(mod, incl, proj)), mod
        seen.append(mod.m)
        return found

    monkeypatch.setattr(complexes, "_complement_of_idempotent", comparing)
    complexes.clear_caches()
    for m in range(2, 7):
        for w in group_elements(m):
            indecomposable_b(m, w)
    built = len(seen)
    for m in (3, 4):
        short = [w for w in group_elements(m) if 1 <= len(w) <= 3]
        for x in short:
            for y in (w for w in short if len(w) <= 2):
                complexes.clear_caches()
                decompose_bimodule(tensor(indecomposable_b(m, x),
                                          indecomposable_b(m, y)))
    assert set(seen[:built]) == {3, 4, 5, 6} and len(seen) > built


def test_building_b_w_at_m5_eliminates_few_rows(monkeypatch):
    # hom_degree_basis stops eliminating at the rank the hom formula names:
    # building every B_w with l(w) <= 4 at m = 5 from cold hands 1,032
    # rows to its hom solves, eliminates 534 and checks the other 498.
    handed, checked = [], []
    real_solve, real_spans = linalg.sparse_kernel_basis, linalg.Echelon.spans

    def solve(rows, ncols, field, nullity=None):
        rows = list(rows)
        handed.extend(row for row in rows if any(row.values()))
        return real_solve(rows, ncols, field, nullity)

    def spans(self, row):
        checked.append(None)
        return real_spans(self, row)

    monkeypatch.setattr(linalg, "sparse_kernel_basis", solve)
    monkeypatch.setattr(linalg.Echelon, "spans", spans)
    complexes.clear_caches()
    for w in group_elements(5):
        if 1 <= len(w) <= 4:
            indecomposable_b(5, w)
    assert checked and len(handed) - len(checked) <= 534


def _assert_intertwines(pieces):
    for _, incl, proj in pieces:
        incl._validate()
        proj._validate()


def _assert_splits_bott_samelson_class(mod, pieces, word):
    atoms = [atom for atom, _, _ in pieces]
    total = class_of_complex(ChainComplex(mod.m, {0: atoms}, {}, check=False))
    assert total == bs_class(mod.m, word).scale(Laurent.monomial(mod.shift))
    _assert_complete_orthogonal_idempotents(mod, pieces)


@pytest.mark.parametrize("m, word", [(3, "stst"), (3, "ss"), (4, "ststs"),
                                     (5, "ststs")])
def test_decomposition_matches_bott_samelson_class(m, word, monkeypatch):
    # With every B_v (x) B_x split memoized, BS(w) = BS(w') (x) B_x splits
    # through its factors and solves no hom system.
    complexes.clear_caches()
    for v in group_elements(m):
        for x in "st":
            decompose_bimodule(tensor(indecomposable_b(m, v),
                                      b_generator(m, x)))
    mod = bott_samelson(m, word)
    calls = []
    monkeypatch.setattr(complexes, "split_summand",
                        lambda *args: calls.append(args))
    pieces = decompose_bimodule(mod)
    monkeypatch.undo()
    assert len(pieces) > 1 and calls == []
    _assert_splits_bott_samelson_class(mod, pieces, word)


def test_rank_64_bott_samelson_splits_through_its_factors():
    m, word = 5, "ststst"
    complexes.clear_caches()
    for w in group_elements(m):
        indecomposable_b(m, w)
    mod = bott_samelson(m, word).shifted(1)
    assert mod.rank == 64
    pieces = decompose_bimodule(mod)
    assert [repr(atom) for atom, _, _ in pieces] == \
        ["B_ststs", "B_ststs(2)"] + ["B_stst(1)"] * 3 + ["B_st(1)"] * 5
    _assert_intertwines(pieces)
    _assert_splits_bott_samelson_class(mod, pieces, word)


def test_product_with_a_shifted_bott_samelson_factor(monkeypatch):
    a = indecomposable_b(3, "sts").shifted(2)
    b = bott_samelson(3, "st").shifted(-1)
    mod = tensor(a, b)
    assert mod.factors == (a, b) and mod.shifted(3).factors == (a, b)
    complexes.clear_caches()
    want = _hom_solve_pieces(mod)
    assert len(want) == 4
    _assert_complete_orthogonal_idempotents(mod, want)
    # wrong factors fail the associativity check and take the hom-solve
    # path; the true ones split through the factors
    for factors in ((a, bott_samelson(3, "ts")), (a, b)):
        complexes.clear_caches()
        mod.factors = factors
        pieces = decompose_bimodule(mod)
        assert [repr(x) for x, _, _ in pieces] == \
            [repr(x) for x, _, _ in want]
        _assert_complete_orthogonal_idempotents(mod, pieces)
        _assert_intertwines(pieces)
    calls = []
    monkeypatch.setattr(complexes, "split_summand",
                        lambda *args: calls.append(args))
    pieces = decompose_bimodule(mod.shifted(-2))
    assert [repr(x) for x, _, _ in pieces] == \
        [repr(x.shifted(-2)) for x, _, _ in want]
    _assert_complete_orthogonal_idempotents(mod.shifted(-2), pieces)
    assert calls == []


def test_untagged_tensor_splits_by_its_class(monkeypatch):
    mod = tensor(indecomposable_b(3, "st"), b_generator(3, "s"))
    assert mod.word is None and mod.kl is None
    pieces, splits = _decompose_counting_splits(mod, monkeypatch)
    assert [repr(atom) for atom, _, _ in pieces] == ["B_sts", "B_s"]
    assert splits == 2
    _assert_complete_orthogonal_idempotents(mod, pieces)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_bott_samelson_of_two_letters_splits_as_its_one_summand(m,
                                                                monkeypatch):
    # From m = 3 on, BS(st) and BS(ts) have the matrices of B_st and B_ts
    # and split as (B_w, id, id) with no hom solve; at m = 2 B_ts is B_st,
    # so BS(ts) still splits by one.  Either way the pieces are the hom
    # solves' own.
    real, calls = complexes.split_summand, []
    monkeypatch.setattr(complexes, "split_summand",
                        lambda *args: calls.append(args) or real(*args))
    for word in ("st", "ts"):
        complexes.clear_caches()
        mod = bott_samelson(m, word)
        calls.clear()
        pieces = decompose_bimodule(mod)
        assert len(calls) == (1 if m == 2 and word == "ts" else 0)
        assert [_complement_text(p) for p in pieces] == \
            [_complement_text(p) for p in _hom_solve_pieces(mod)]


def test_tensor_class_is_the_product_and_shifts_by_v():
    a = indecomposable_b(3, "st").shifted(-1)
    b = b_generator(3, "s", shift=2)
    prod = tensor(a, b)
    assert prod.word is None and prod.kl is None
    assert class_of_bimodule(prod) == \
        class_of_bimodule(a) * class_of_bimodule(b)
    for k in (-2, 3):
        assert class_of_bimodule(prod.shifted(k)) == \
            class_of_bimodule(prod).scale(Laurent.monomial(k))


def test_decompose_refuses_a_missing_or_wrong_class():
    summed = direct_sum([b_generator(3, "s"), b_generator(3, "t")])
    assert class_of_bimodule(summed) is None
    assert class_of_bimodule(tensor(summed, b_generator(3, "s"))) is None
    with pytest.raises(ValueError, match="no Hecke class"):
        decompose_bimodule(summed)
    b_ts = tensor(indecomposable_b(3, "t"), b_generator(3, "s"))
    # the memo holds the true splitting of these matrices; a wrong class
    # must still be refused, not answered from it
    assert [repr(a) for a, _, _ in decompose_bimodule(b_ts)] == ["B_ts"]
    b_ts.product_class = kl_basis(3, "sts")
    with pytest.raises(ValueError, match="does not match its class"):
        decompose_bimodule(b_ts)
    b_ts.product_class = kl_basis(3, "st")  # same degrees as B_ts
    with pytest.raises(ValueError, match="does not split off B_st"):
        decompose_bimodule(b_ts)


def test_tensor_memo_matches_cold_shifted_products():
    pairs = [(indecomposable_b(3, "st"), b_generator(3, "s")),
             (b_generator(3, "s"), b_generator(3, "t"))]
    shifts = [(0, 0), (2, -1), (-3, 1), (1, 4)]

    def summary(mod):
        return repr(mod), mod.to_json(), class_of_bimodule(mod)

    for a, b in pairs:
        cold = []
        for i, j in shifts:
            complexes.clear_caches()
            cold.append(summary(tensor(a, b).shifted(i + j)))
        complexes.clear_caches()
        warm = [summary(tensor(a.shifted(i), b.shifted(j)))
                for i, j in shifts]
        assert warm == cold


@pytest.mark.parametrize("m, word", [(3, "stst"), (4, "stst")])
def test_decompose_memo_rewraps_shifted_splittings(m, word, monkeypatch):
    mod = bott_samelson(m, word)
    shifts = [0, 3, -2, 1]

    def summary(pieces):
        return [(repr(a), i.matrix, p.matrix) for a, i, p in pieces]

    cold = []
    for k in shifts:
        complexes.clear_caches()
        cold.append(summary(decompose_bimodule(mod.shifted(k))))
    decompose_bimodule(mod.shifted(5))
    calls = []
    monkeypatch.setattr(complexes, "split_summand",
                        lambda *args: calls.append(args))
    for k, want in zip(shifts, cold):
        pieces = decompose_bimodule(mod.shifted(k))
        assert summary(pieces) == want
        for atom, incl, proj in pieces:
            assert incl.dom is atom and proj.cod is atom
        _assert_complete_orthogonal_idempotents(mod.shifted(k), pieces)
    assert calls == []


def test_sweep_words_share_their_splittings(monkeypatch):
    # The 50 words of criterion 08a split 394 modules, 13 of them distinct
    # up to shift; from cold they cost 44 hom_degree_basis solves (1,144
    # with every splitting recomputed).
    complexes.clear_caches()
    calls = []
    real = bimodule.hom_degree_basis

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(bimodule, "hom_degree_basis", counting)
    monkeypatch.setattr(complexes, "hom_degree_basis", counting)
    rng = random.Random(20240401)
    tokens = ["s", "t", "s^-1", "t^-1"]
    for _ in range(50):
        word = " ".join(rng.choice(tokens) for _ in range(rng.randint(1, 6)))
        rouquier_braid(3, word, split=True)
    assert len(calls) <= 60


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(["s", "t", "s^-1", "t^-1"]),
                min_size=1, max_size=4))
def test_split_rouquier_complexes_are_sound(tokens):
    word = " ".join(tokens)
    cplx = rouquier_braid(3, word, split=True)
    cplx.validate()
    for obs in cplx.objects.values():
        for mod in obs:
            assert mod.kl is not None or (mod.word is not None
                                          and len(mod.word) <= 1)
    assert class_of_complex(cplx) == delta_product(3, parse_braid(word))
    raw = rouquier_braid(3, word)
    assert homology_series(raw) == homology_series(cplx)


def _package_memos():
    """{name: size} of every lru_cache and every module-level _UPPER dict
    in the package."""
    sizes = {}
    for info in pkgutil.iter_modules(dihedralcat.__path__):
        module = importlib.import_module("dihedralcat." + info.name)
        for name, value in vars(module).items():
            key = "%s.%s" % (info.name, name)
            if hasattr(value, "cache_info"):
                sizes[key] = value.cache_info().currsize
            elif isinstance(value, dict) and re.fullmatch(r"_[A-Z_]+", name):
                sizes[key] = len(value)
    return sizes


def test_clear_caches_empties_every_memo():
    objs = serre.serre_test_objects(2)
    serre.HomComplex(objs["F_s"], objs["F_sF_t"])
    for twist in (serre.full_twist, serre.full_twist_inverse, serre.ft_over_t):
        twist(2)
    decompose_bimodule(bott_samelson(2, "ss"))
    indecomposable_b(2, "st")
    trace.hochschild_on_complex(objs["F_sF_t"], 1)
    hecke.standard_in_kl(2, "st")
    hecke.hom_rank(b_generator(2, "s"), b_generator(2, "t"))
    before = _package_memos()
    assert {"bimodule._LEFT_IDS", "bimodule._LEFT_ACTION",
            "bimodule._LEFT_POWERS", "bimodule._TENSOR_LEFT",
            "bimodule._PRODUCT_CLASS", "complexes._SPLITTINGS",
            "complexes._SPLIT_BLOCKS", "serre._HOM_BLOCKS", "trace._TRACED",
            "complexes.rouquier", "serre.full_twist",
            "serre.ft_over_t", "hecke.standard_in_kl",
            "hecke._hom_rank"} <= set(before)
    assert all(before.values()), before
    complexes.clear_caches()
    assert not any(_package_memos().values())


def test_indecomposable_b_keys_a_word_by_its_letters():
    assert indecomposable_b(5, "ts") is indecomposable_b(5, ("t", "s"))
    assert indecomposable_b(3, "sts") is indecomposable_b(3, ("s", "t", "s"))


def test_equal_left_actions_share_one_left_id():
    prod = tensor(indecomposable_b(3, "st"), b_generator(3, "s"))
    assert Bimodule.from_json(prod.to_json()).left_id == prod.left_id
    assert prod.shifted(2).left_id == prod.left_id
    # (B_s B_t) B_s and B_s (B_t B_s): one pair basis, two memo paths
    b_s, b_t = b_generator(3, "s"), b_generator(3, "t")
    left_first = tensor(tensor(b_s, b_t), b_s)
    right_first = tensor(b_s, tensor(b_t, b_s))
    assert left_first.left == right_first.left
    assert left_first.left_id == right_first.left_id
    bs = bott_samelson(4, "sts")
    assert Bimodule.from_json(bs.to_json()).left_id == bs.left_id


def test_different_left_actions_never_share_a_left_id():
    def modules(ms):
        out = []
        for m in ms:
            out += [regular(m), regular(m, 2)]
            for x in "st":
                out += [b_generator(m, x), b_generator(m, x, -1)]
                for w in group_elements(m):
                    if w:
                        out.append(indecomposable_b(m, w))
                        out.append(tensor(indecomposable_b(m, w),
                                          b_generator(m, x)).shifted(1))
                        out.append(bott_samelson(m, w + (x,)))
        return out

    before = modules((2, 3, 4))
    for mod in before:
        mod.left_id
    complexes.clear_caches()  # ids of before are interned again on use
    after = modules((4, 3, 2))
    owner = {}
    for mod in before + after:
        key = (mod.m, mod.left["s"], mod.left["t"])
        assert owner.setdefault(mod.left_id, key) == key
    keys = {(mod.m, mod.left["s"], mod.left["t"]) for mod in after}
    assert len({mod.left_id for mod in after}) == len(keys)
    # R at m = 3 and m = 4 print alike; their entries live in other fields
    assert regular(3).left_id != regular(4).left_id


def test_a_module_made_before_clear_caches_splits_like_a_fresh_one(
        monkeypatch):
    # BS(st) at m = 2 is B_st, so it splits as itself with no hom solve,
    # also when its left id was interned before the memos were emptied
    old = bott_samelson(2, "st")
    old.left_id
    pieces, calls = _decompose_counting_splits(old, monkeypatch)
    fresh, fresh_calls = _decompose_counting_splits(bott_samelson(2, "st"),
                                                    monkeypatch)
    assert calls == fresh_calls == 0
    assert [a.kl for a, _, _ in pieces] == [a.kl for a, _, _ in fresh] == \
        [("s", "t")]
    assert old.left_id == bott_samelson(2, "st").left_id


def test_complex_built_before_clear_caches_matches_a_cold_build():
    word = "s^-2 t s^-1 t"

    def summary(cplx):
        ext = minimal_form(split_atoms(tensor_complex(
            cplx, rouquier(3, "s", 1))))
        return (repr(cplx), cplx.to_json(),
                hhh(word, 3, precomputed=cplx).to_json(),
                repr(ext), ext.to_json())

    complexes.clear_caches()
    old = rouquier_braid(3, word, split=True)
    complexes.clear_caches()
    used_after = summary(old)
    complexes.clear_caches()
    assert used_after == summary(rouquier_braid(3, word, split=True))


def test_rouquier_braids_agree_cold_and_warm():
    # the 50 words of criterion 08a, with every memo filled by all of them
    # and each from a cold start
    rng = random.Random(20240401)
    tokens = ["s", "t", "s^-1", "t^-1"]
    words = [" ".join(rng.choice(tokens) for _ in range(rng.randint(1, 6)))
             for _ in range(50)]

    def summary(word):
        cplx = rouquier_braid(3, word, split=True)
        return repr(cplx), cplx.to_json()

    complexes.clear_caches()
    for word in words:
        summary(word)
    warm = [summary(word) for word in words]
    for word, want in zip(words, warm):
        complexes.clear_caches()
        assert summary(word) == want, word


# ---------------------------------------------------------------------------
# The split Rouquier step against its earlier form: products with R split
# by a hom solve, every block split as proj . blk . incl, elimination by the
# Neumann series per (row, column), a full rescan after every elimination,
# and minimal_form both before and after split_atoms.


def _ref_tensor(a, b):
    """tensor, with a product of B_x and R untagged and split by its class."""
    out = tensor(a, b)
    if out.kl is None:
        return out
    plain = Bimodule(out.real, out.degrees, out.left["s"], out.left["t"],
                     shift=out.shift, check=False)
    plain.product_class = (class_of_bimodule(a) * class_of_bimodule(b)).scale(
        Laurent.monomial(-out.shift))
    return plain


def _ref_tensor_complex(c1, c2, product=_ref_tensor):
    objects, index = {}, {}
    for p in c1.degrees():
        for q in c2.degrees():
            lst = objects.setdefault(p + q, [])
            for i, a in enumerate(c1.objects[p]):
                for j, b in enumerate(c2.objects[q]):
                    index[(p, i, q, j)] = (p + q, len(lst))
                    lst.append(product(a, b))
    diffs = {n: [[None] * len(objects[n]) for _ in objects[n + 1]]
             for n in objects if n + 1 in objects}
    for (p, i, q, j), (n, col) in index.items():
        if n not in diffs:
            continue
        terms = []
        for r, row in enumerate(c1.diffs.get(p, [])):
            if row[i] is not None:
                terms.append((index[(p + 1, r, q, j)][1],
                              tensor_id_matrix(row[i], c2.objects[q][j])))
        for r, row in enumerate(c2.diffs.get(q, [])):
            if row[j] is not None:
                mat = id_tensor_matrix(c1.objects[p][i], row[j])
                terms.append((index[(p, i, q + 1, r)][1],
                              mat_neg(mat) if p % 2 else mat))
        for tgt, mat in terms:
            term = BimoduleMorphism(objects[n][col], objects[n + 1][tgt], mat,
                                    0, check=False)
            old = diffs[n][tgt][col]
            diffs[n][tgt][col] = term if old is None else old + term
    return ChainComplex(c1.m, objects, diffs, check=False)


def _ref_split_atoms(cplx):
    pieces = {}
    for d, obs in cplx.objects.items():
        lst = []
        for src, mod in enumerate(obs):
            if mod.kl is not None or (mod.word is not None
                                      and len(mod.word) <= 1):
                lst.append((src, mod, None, None))
                continue
            for atom, incl, proj in decompose_bimodule(mod):
                lst.append((src, atom, incl, proj))
        pieces[d] = lst
    objects = {d: [p[1] for p in lst] for d, lst in pieces.items()}
    diffs = {}
    for d, blocks in cplx.diffs.items():
        rows = []
        for (ro, _, _, prj) in pieces[d + 1]:
            left = [blk if blk is None or prj is None else prj.compose(blk)
                    for blk in blocks[ro]]
            row = []
            for (co, _, inc, _) in pieces[d]:
                comp = left[co]
                if comp is not None and inc is not None:
                    comp = comp.compose(inc)
                row.append(comp if comp else None)
            rows.append(row)
        diffs[d] = rows
    return ChainComplex(cplx.m, objects, diffs, check=False)


def _ref_invert_morphism(phi):
    field, n = phi.dom.field, phi.dom.rank
    spart = scalar_part(phi)
    sinv = linalg.inverse(spart, field)
    zero = RingElement.zero(field)
    sinv_r = [[RingElement(field, {(0, 0): c}) for c in row] for row in sinv]
    smat = [[RingElement(field, {(0, 0): row[j]}) if j in row else zero
             for j in range(n)] for row in spart]
    nmat = mat_mul(sinv_r, mat_sub(phi.matrix, smat), field)
    acc = term = mat_identity(field, n)
    for _ in range(n + 1):
        term = mat_neg(mat_mul(term, nmat, field))
        if not any(any(row) for row in term):
            break
        acc = mat_add(acc, term)
    return BimoduleMorphism(phi.cod, phi.dom, mat_mul(acc, sinv_r, field), 0,
                            check=False)


def _ref_gaussian_eliminate(cplx, deg, row, col):
    psi_inv = _ref_invert_morphism(cplx.block(deg, row, col))
    objects = {d: list(obs) for d, obs in cplx.objects.items()}
    diffs = {d: [list(r) for r in blocks] for d, blocks in cplx.diffs.items()}
    old = diffs[deg]
    new_blocks = []
    for r in range(len(objects[deg + 1])):
        if r == row:
            continue
        new_row = []
        for c in range(len(objects[deg])):
            if c == col:
                continue
            blk, gamma, beta = old[r][c], old[r][col], old[row][c]
            if gamma is not None and beta is not None:
                corr = gamma.compose(psi_inv).compose(beta)
                blk = (-corr) if blk is None else blk + (-corr)
            new_row.append(blk if (blk is not None and blk) else None)
        new_blocks.append(new_row)
    objects[deg].pop(col)
    objects[deg + 1].pop(row)
    diffs[deg] = new_blocks
    if deg - 1 in diffs:
        diffs[deg - 1].pop(col)
    if deg + 1 in diffs:
        for r_row in diffs[deg + 1]:
            r_row.pop(row)
    return ChainComplex(cplx.m, objects, diffs, check=False)


def _ref_minimal_form(cplx):
    cur = cplx
    while True:
        found = next(((d, r, c) for d in sorted(cur.diffs)
                      for c in range(len(cur.objects[d]))
                      for r in range(len(cur.objects[d + 1]))
                      if cur.diffs[d][r][c] is not None
                      and is_invertible(cur.diffs[d][r][c])), None)
        if found is None:
            return cur
        cur = _ref_gaussian_eliminate(cur, *found)


def _ref_simplify_split(cplx):
    return _ref_minimal_form(_ref_split_atoms(_ref_minimal_form(cplx)))


def _ref_rouquier_braid(m, word, split=True):
    out = single_object(m, regular(m, 0))
    for letter, sign in parse_braid(word):
        out = _ref_tensor_complex(out, rouquier(m, letter, sign),
                                  _ref_tensor if split else tensor)
        out = _ref_simplify_split(out) if split else out
    return out


def _summary(cplx):
    return repr(cplx), json.dumps(cplx.to_json(), sort_keys=True)


def _criterion_08a_words():
    rng = random.Random(20240401)
    tokens = ["s", "t", "s^-1", "t^-1"]
    return [" ".join(rng.choice(tokens) for _ in range(rng.randint(1, 6)))
            for _ in range(50)]


@pytest.mark.parametrize("m, words", [
    (3, "08a"),
    (3, ["s t " * 7, "s t " * 3 + "t^-1 t^-1"]),  # T(3,7), ft_over_t(3)
    (4, ["s t " * 5, "t^-1 s^-1 " * 5]),
    (5, ["s t " * 4]),
], ids=["08a", "m3", "m4", "m5"])
def test_split_step_matches_its_reference(m, words):
    unsplit = words == "08a"  # of at most 6 letters, so 2^6 atoms unsplit
    words = _criterion_08a_words() if unsplit else words
    complexes.clear_caches()
    cold = [_summary(rouquier_braid(m, w, split=True)) for w in words]
    warm = [_summary(rouquier_braid(m, w, split=True)) for w in words]
    ref = [_summary(_ref_rouquier_braid(m, w)) for w in words]
    for word, a, b, c in zip(words, cold, warm, ref):
        assert a == b == c, word
    # the unsplit products, whose blocks are built as repr and to_json read
    for word in words if unsplit else ():
        assert _summary(rouquier_braid(m, word)) == \
            _summary(_ref_rouquier_braid(m, word, split=False)), word


def _blocks(cplx):
    return [blk for rows in cplx.diffs.values() for row in rows
            for blk in row if blk is not None]


def test_products_of_complexes_without_invertible_blocks_have_none(
        monkeypatch):
    # simplify's lemma: a block of X (x) Y is f (x) id_b or +-id_a (x) g, so
    # it is invertible only if f or g is.  Neither pass that eliminates
    # before a split could ever fire.
    eliminations = []
    real = complexes.gaussian_eliminate

    def counting(*args):
        eliminations.append(args[1:])
        return real(*args)

    monkeypatch.setattr(complexes, "gaussian_eliminate", counting)
    words = _criterion_08a_words()[:10]
    raws = [rouquier_braid(3, w) for w in words]
    assert eliminations == []
    for raw in raws:
        assert minimal_form(raw) is raw
    assert eliminations == []
    pairs = list(zip(raws, (rouquier_braid(3, w, split=True) for w in words)))
    for i, xs in enumerate(pairs):
        for x in xs:
            for y in pairs[(i + 1) % len(pairs)]:
                assert not any(map(is_invertible,
                                   _blocks(tensor_complex(x, y)))), words[i]
    for m in (2, 3, 4):
        for name, x in serre.serre_test_objects(m).items():
            prod = tensor_complex(serre.ft_over_t(m), x)
            assert not any(map(is_invertible, _blocks(prod))), (m, name)
    # the check can fire: splitting B_s (x) B_s in F_s (x) F_s^-1 exposes one
    split = split_atoms(tensor_complex(rouquier(3, "s", 1),
                                       rouquier(3, "s", -1)))
    assert any(map(is_invertible, _blocks(split)))


def test_serre_simplify_split_matches_its_reference():
    # the products check_relative_serre and check_serre simplify
    complexes.clear_caches()
    for twist in (serre.ft_over_t(3), serre.full_twist_inverse(3)):
        for name, x in serre.serre_test_objects(3).items():
            prod = tensor_complex(twist, x)
            want = _summary(_ref_simplify_split(_ref_tensor_complex(
                twist, x)))
            assert _summary(complexes.simplify(prod)) == want, name
    # the products themselves, their blocks built as repr and to_json read
    for name, x in serre.serre_test_objects(3).items():
        twist = serre.ft_over_t(3)
        assert _summary(tensor_complex(twist, x)) == \
            _summary(_ref_tensor_complex(twist, x, tensor)), name


@pytest.mark.parametrize("m", [3, 4])
def test_products_with_r_keep_the_kl_tag(m):
    for x in group_elements(m):
        b_x = indecomposable_b(m, x)
        for k, l in ((0, 0), (0, 1), (2, -1), (-1, -3)):
            want = b_x.shifted(k + l)
            for prod in (tensor(b_x.shifted(k), regular(m, l)),
                         tensor(regular(m, l), b_x.shifted(k))):
                assert prod.degrees == want.degrees
                assert prod.left == want.left
                assert repr(prod) == repr(want)
                assert prod.to_json() == want.to_json()


def test_split_block_memo_keeps_fields_apart():
    # One memo for m = 3, 4, 5 gives each m its cold complexes.
    words = ["s t s", "t^-1 s^-1 t^-1"]
    complexes.clear_caches()
    shared = {(m, w): _summary(rouquier_braid(m, w, split=True))
              for m in (3, 4, 5) for w in words}
    assert {key[0] for key in complexes._SPLIT_BLOCKS} == {3, 4, 5}
    for (m, w), want in shared.items():
        complexes.clear_caches()
        assert _summary(rouquier_braid(m, w, split=True)) == want, (m, w)


def test_a_split_step_builds_nothing_it_does_not_read(monkeypatch):
    # The 50 words of criterion 08a, built cold one after another as the
    # braid sweep does.  A block of tensor_complex is built when read: one
    # that split_atoms finds in its memo never is.  Every pivot is a scalar
    # c id, so elimination inverts nothing but c.  The bound is the count
    # when blocks became lazy (building every block made 1,160 calls).
    calls = {"build": 0, "invert": 0, "pivots": [], "blocks": []}

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    def eliminate(cplx, deg, row, col, real=complexes.gaussian_eliminate):
        calls["pivots"].append(bimodule._scalar_of(
            cplx.block(deg, row, col).matrix))
        return real(cplx, deg, row, col)

    def product(c1, c2, real=complexes.tensor_complex):
        out = real(c1, c2)
        calls["blocks"] += _blocks(out)
        return out

    for name in ("tensor_id_matrix", "id_tensor_matrix"):
        monkeypatch.setattr(complexes, name, counting(
            "build", getattr(complexes, name)))
    monkeypatch.setattr(complexes, "invert_morphism", counting(
        "invert", complexes.invert_morphism))
    monkeypatch.setattr(complexes, "gaussian_eliminate", eliminate)
    monkeypatch.setattr(complexes, "tensor_complex", product)
    complexes.clear_caches()
    for word in _criterion_08a_words():
        rouquier_braid(3, word, split=True)
    assert len(calls["blocks"]) == 1160
    assert calls["build"] <= 685
    assert len(calls["pivots"]) == 222 and None not in calls["pivots"]
    assert calls["invert"] == 0
