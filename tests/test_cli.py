"""CLI tests: exit codes, JSON determinism and the on-disk cache."""

import hashlib
import itertools
import json
import shutil

import pytest
import sympy as sp
from click.testing import CliRunner

from dihedralcat import cli
from dihedralcat.cli import cached_simplified_complex, main
from dihedralcat.complexes import ChainComplex, parse_braid
from dihedralcat.series import PoincareSeries, QSeries
from helpers import reference_homfly


@pytest.fixture()
def runner(tmp_path, monkeypatch):
    monkeypatch.setenv("SOERGEL_CACHE", str(tmp_path / "cache"))
    return CliRunner()


def test_hhh_json_deterministic(runner):
    first = runner.invoke(main, ["hhh", "s t", "--json"])
    second = runner.invoke(main, ["hhh", "s t", "--json"])
    assert first.exit_code == 0
    assert first.output == second.output  # warm cache, byte-identical
    payload = json.loads(first.output)
    assert sorted(payload) == ["braid", "m", "series", "strands"]
    assert payload["m"] == 3 and payload["series"]


def test_hhh_experimental_note_for_other_m(runner):
    res = runner.invoke(main, ["hhh", "s", "--m", "4", "--json"])
    assert res.exit_code == 0
    assert "experimental" in json.loads(res.output)["note"]


def test_bad_braid_exits_one(runner):
    res = runner.invoke(main, ["hhh", "q u x"])
    assert res.exit_code == 1


def test_hhh_formatting_error_exits_one(runner, monkeypatch):
    def broken(self):
        raise ValueError("not a graded-module series")

    monkeypatch.setattr(QSeries, "terms", broken)
    res = runner.invoke(main, ["hhh", "s t"])
    assert res.exit_code == 1
    assert "error: ValueError: not a graded-module series" in res.output
    assert "Traceback" not in res.output
    assert isinstance(res.exception, SystemExit)


def test_overlong_braid_exits_one(runner):
    res = runner.invoke(main, ["hhh", "s^100000"])
    assert res.exit_code == 1
    assert "100000 letters" in res.output


@pytest.mark.parametrize("args", [["minimal", "s t s t"],
                                  ["trace", "s t", "--functor", "pi_s_plus"],
                                  ["hhh", "s t s t", "--strand", "1"],
                                  ["trace", "s t", "--functor", "hh1"]])
def test_cold_and_warm_cache_print_the_same(runner, args):
    cold = runner.invoke(main, args)
    warm = runner.invoke(main, args)
    assert cold.exit_code == 0 and warm.exit_code == 0
    assert warm.output == cold.output


def test_invalid_cache_entry_is_recomputed(runner, tmp_path):
    cold = runner.invoke(main, ["minimal", "s t"])
    hhh_cold = runner.invoke(main, ["hhh", "s t"])
    (entry,) = (tmp_path / "cache").glob("*.json")
    data = json.loads(entry.read_text())
    data["objects"]["2"] *= 2  # deg 2 holds R(2) twice: shapes disagree
    entry.write_text(json.dumps(data))
    warm = runner.invoke(main, ["minimal", "s t"])
    assert cold.exit_code == 0 and warm.exit_code == 0
    assert warm.output == cold.output
    entry.write_text(json.dumps(data))
    hhh_warm = runner.invoke(main, ["hhh", "s t"])
    assert hhh_warm.exit_code == 0 and hhh_warm.output == hhh_cold.output


def _wrong_left_action(data):
    # a wrong coefficient in the left action of B_sts(-1): the entry still
    # parses, but its left actions no longer commute
    atom = next(mod for obs in data["objects"].values() for mod in obs
                if len(mod["degrees"]) > 1)
    assert atom["kl"] == ["s", "t", "s"] and atom["shift"] == -1
    atom["left_t"][0][0][0][2][0] = "7"


def _zero_denominator(data):
    # a coefficient 1/0 in one differential block
    poly = next(poly for rows in data["diffs"].values() for row in rows
                for blk in row if blk for entries in blk for poly in entries
                if poly)
    poly[0][2][0] = "1/0"


def _top_level_m(data):
    # a complex over K_13, which has no realization here
    data["m"] = 13


def _atom_m(data):
    # atoms of m = 2 in a complex of m = 3
    for obs in data["objects"].values():
        for mod in obs:
            mod["m"] = 2


def _every_m(data):
    # a valid complex of m = 2 under the key of m = 3
    data["m"] = 2
    _atom_m(data)


STST_TRACE = [["trace", "s t s t", "--functor", "pi_s_minus"],
              ["trace", "s t s t", "--functor", "pi_s_plus"]]


CORRUPTIONS = [
    ([["hhh", "s t s t"], STST_TRACE[1], ["minimal", "s t s t", "--json"]],
     _wrong_left_action),
    ([["hhh", "s t"]], _zero_denominator),
    ([["hhh", "s t"]], _top_level_m),
    (STST_TRACE, _every_m),
    (STST_TRACE, _atom_m),
]


def test_corrupted_cache_entry_is_recomputed(runner, tmp_path):
    for commands, corrupt in CORRUPTIONS:
        shutil.rmtree(tmp_path / "cache", ignore_errors=True)
        cold = [runner.invoke(main, args) for args in commands]
        (entry,) = (tmp_path / "cache").glob("*.json")
        data = json.loads(entry.read_text())
        corrupt(data)
        for args, want in zip(commands, cold):
            entry.write_text(json.dumps(data))
            warm = runner.invoke(main, args)
            assert want.exit_code == 0 and warm.exit_code == 0, (
                corrupt.__name__, warm.output)
            assert warm.output == want.output, corrupt.__name__


def test_malformed_cache_entry_is_recomputed(runner, tmp_path):
    cold = runner.invoke(main, ["minimal", "s t"])
    (entry,) = (tmp_path / "cache").glob("*.json")
    data = json.loads(entry.read_text())
    data["objects"] = list(data["objects"].values())
    entry.write_text(json.dumps(data))
    warm = runner.invoke(main, ["minimal", "s t"])
    assert cold.exit_code == 0 and warm.exit_code == 0
    assert warm.output == cold.output


def test_minimal_lists_degrees(runner):
    res = runner.invoke(main, ["minimal", "s"])
    assert res.exit_code == 0
    assert "deg 0" in res.output and "deg 1" in res.output


# The trace command on the Whitehead link, pinned to the outputs of the
# kernel/cokernel code before the trace layer shared one kernel helper.
WHITEHEAD = "s^-2 t s^-1 t"
WHITEHEAD_HH = {
    "hh0": {"1": {"degrees": [-1], "series": "Q^-1"},
            "2": {"degrees": [-3], "series": "Q^-3"}},
    "hh1": {"-1": {"degrees": [-1], "series": "Q^-1"},
            "0": {"degrees": [-3, -3], "series": "Q^-3 + Q^-3/(1-Q^2)"},
            "1": {"degrees": [-5], "series": "Q^-5"},
            "2": {"degrees": [-7], "series": "Q^-7"}},
    "hh2": {"-1": {"degrees": [-5], "series": "Q^-5"},
            "0": {"degrees": [-7], "series": "Q^-7/(1-Q^2)"}},
}


WHITEHEAD_PI = {
    "pi_s_minus":
        "ChainComplex{-1: Bimodule(rank=2, degrees=[1, 3]); "
        "0: Bimodule(rank=1, degrees=[1]) + "
        "Bimodule(rank=2, degrees=[-1, 1]) + "
        "Bimodule(rank=2, degrees=[-1, 1]); "
        "1: Bimodule(rank=1, degrees=[-1]) + "
        "Bimodule(rank=1, degrees=[-1]) + "
        "Bimodule(rank=2, degrees=[-3, -1]); "
        "2: Bimodule(rank=1, degrees=[-3])}\n",
    "pi_s_plus":
        "ChainComplex{-3: Bimodule(rank=2, degrees=[3, 5]); "
        "-2: Bimodule(rank=2, degrees=[1, 3]) + "
        "Bimodule(rank=2, degrees=[1, 3]) + "
        "Bimodule(rank=2, degrees=[1, 3]); "
        "-1: Bimodule(rank=2, degrees=[-1, 1]) + "
        "Bimodule(rank=1, degrees=[1]) + "
        "Bimodule(rank=2, degrees=[-1, 1]) + "
        "Bimodule(rank=2, degrees=[-1, 1]) + "
        "Bimodule(rank=2, degrees=[-1, 1]); "
        "0: Bimodule(rank=1, degrees=[-1]) + "
        "Bimodule(rank=1, degrees=[-1]) + "
        "Bimodule(rank=2, degrees=[-3, -1]) + "
        "Bimodule(rank=2, degrees=[-3, -1]) + "
        "Bimodule(rank=2, degrees=[-3, -1]); "
        "1: Bimodule(rank=1, degrees=[-3]) + "
        "Bimodule(rank=1, degrees=[-3]) + "
        "Bimodule(rank=2, degrees=[-5, -3]); "
        "2: Bimodule(rank=1, degrees=[-5])}\n",
}


def test_trace_functor_output(runner):
    res = runner.invoke(main, ["trace", "s", "--functor", "pi_s_plus"])
    assert res.exit_code == 0
    res = runner.invoke(main, ["trace", "s t", "--functor", "hh0", "--json"])
    assert res.exit_code == 0
    assert "homology" in json.loads(res.output)
    for functor, payload in WHITEHEAD_HH.items():
        res = runner.invoke(main, ["trace", WHITEHEAD, "--functor", functor,
                                   "--json"])
        assert res.exit_code == 0
        assert json.loads(res.output)["homology"] == payload
    for functor, text in WHITEHEAD_PI.items():
        res = runner.invoke(main, ["trace", WHITEHEAD, "--functor", functor])
        assert res.exit_code == 0
        assert res.output == text


T37 = " ".join(["s t"] * 7)


def test_repeated_block_texts_load_warm_and_are_each_checked(runner,
                                                             tmp_path):
    # from_json parses each distinct matrix text once per load; the warm
    # output equals the cold one, and a corrupted copy of the most repeated
    # block text is parsed on its own, refused and recomputed
    cold = runner.invoke(main, ["hhh", T37, "--json"])
    warm = runner.invoke(main, ["hhh", T37, "--json"])
    assert cold.exit_code == 0 and warm.output == cold.output
    (entry,) = (tmp_path / "cache").glob("*.json")
    data = json.loads(entry.read_text())
    copies = {}
    for blocks in data["diffs"].values():
        for row in blocks:
            for blk in row:
                if blk is not None:
                    copies.setdefault(json.dumps(blk), []).append(blk)
    repeated = max(copies.values(), key=len)
    assert len(repeated) > 1
    assert ChainComplex.from_json(data).to_json() == data
    [poly for row in repeated[-1] for poly in row if poly][-1][0][0] += 1
    with pytest.raises(ValueError, match="homogeneous"):
        ChainComplex.from_json(data)
    entry.write_text(json.dumps(data))
    again = runner.invoke(main, ["hhh", T37, "--json"])
    assert again.exit_code == 0 and again.output == cold.output
    assert json.loads(entry.read_text()) != data  # rewritten


@pytest.mark.parametrize("braid", [WHITEHEAD, T37], ids=["whitehead", "t37"])
def test_trace_hh2_matches_the_hhh_strand_2(runner, braid):
    # trace --functor hh2 and hhh --strand 2 both take HH^2 of the minimal
    # pi_s^+ complex (strand_homology); the series agree degree by degree
    res = runner.invoke(main, ["trace", braid, "--functor", "hh2", "--json"])
    assert res.exit_code == 0
    traced = {d: h["series"] for d, h in
              json.loads(res.output)["homology"].items()}
    res = runner.invoke(main, ["hhh", braid, "--strand", "2", "--json"])
    assert res.exit_code == 0
    series = PoincareSeries.from_terms(json.loads(res.output)["series"])
    assert {a for a, _ in series.strata} == {2}
    assert traced == {str(t): repr(qs) for (_, t), qs in series.strata.items()}
    assert traced


def test_homfly_command(runner):
    res = runner.invoke(main, ["homfly", "s t", "--json"])
    assert res.exit_code == 0
    assert json.loads(res.output)["homfly"] == "1"


def test_homfly_command_prints_the_sympy_text(runner):
    # on every braid word of 1-4 letters, the text sympy printed for the
    # expanded polynomial, plain and in JSON
    tokens = ["s", "t", "s^-1", "t^-1"]
    for n in range(1, 5):
        for letters in itertools.product(tokens, repeat=n):
            word = " ".join(letters)
            text = str(sp.expand(reference_homfly(word)))
            plain = runner.invoke(main, ["homfly", word])
            assert plain.exit_code == 0 and plain.output == text + "\n"
            as_json = runner.invoke(main, ["homfly", word, "--json"])
            assert as_json.output == json.dumps(
                {"braid": word, "homfly": text}, sort_keys=True) + "\n"


# sha256 of the stdout that sympy's printing gave for the Whitehead link and
# the torus knot T(3, 12)
HOMFLY_STDOUT = [
    ("s^-2 t s^-1 t", [],
     "83ff27b22796c6f9583461d2c052d3fa8275f43ba51729d4c8e9d8cb84391dc7"),
    ("s^-2 t s^-1 t", ["--json"],
     "79c1634912381d0dcc8e71fadade9a6a34d0293d091ca310bc850ad354311b03"),
    (" ".join(["s t"] * 12), [],
     "a5ab4a286854625ad6befc140d04fe1915ac848b349b95105c187428b791156e"),
    (" ".join(["s t"] * 12), ["--json"],
     "12666fee11c64b14f7898c03fd68e2cd2f0771852135442af4e961be5c7c0ded"),
]


@pytest.mark.parametrize("braid,flags,digest", HOMFLY_STDOUT)
def test_homfly_command_output_is_pinned(runner, braid, flags, digest):
    res = runner.invoke(main, ["homfly", braid] + flags)
    assert res.exit_code == 0
    assert hashlib.sha256(res.output.encode()).hexdigest() == digest


# sha256 of the stdout of trace --functor hhK --json on s t, the Whitehead
# link and T(3, 5), and of hhh --json on T(3, 7) and on a braid at m = 4, as
# they were printed from the Koszul complex's own (non-minimal) HH^1 and
# HH^2 presentations
WHITEHEAD, T35 = "s^-2 t s^-1 t", " ".join(["s t"] * 5)
HOCHSCHILD_STDOUT = [
    (["trace", "s t", "--functor", "hh0"],
     "8c90ee2c55d1d5505670f2eeea025cb6773af89fc6f64c065fe9689647b87bef"),
    (["trace", "s t", "--functor", "hh1"],
     "09a504c270eb445aaf492f70a828597c301cfb26f422fd2523f2d5b7123440e1"),
    (["trace", "s t", "--functor", "hh2"],
     "4dd2fc1d71392ee2c97465f674881f2967d2a1af1a0ec4e87b7255b42733c1d5"),
    (["trace", WHITEHEAD, "--functor", "hh0"],
     "341a973efc3830f782c084322e0c06dcd1104362428c87739fff03198317eebc"),
    (["trace", WHITEHEAD, "--functor", "hh1"],
     "f8716e1b49f8363263212a4fb5356fcfe8222f7aab96560e5d9c02d1a5b78900"),
    (["trace", WHITEHEAD, "--functor", "hh2"],
     "bf30cda00f5a0fb26792a5b326f6c8e4071b47790bff1c04700e3cf9cd0a6794"),
    (["trace", T35, "--functor", "hh0"],
     "941e47d724447b12988ab091f99e1c12dd43ca2aee6d405e1d2f3d3b83bc4809"),
    (["trace", T35, "--functor", "hh1"],
     "929b66f5d729e3339dc14b5d7673a05ce81f2fd3b2ec43e6853cd43e5bbbbee7"),
    (["trace", T35, "--functor", "hh2"],
     "d3b98fbfdd4621fa292e3fb06c0ac22e027f08b38d4e20787dfabb18dcc025af"),
    (["hhh", " ".join(["s t"] * 7)],
     "b515d91743b0d58c0c6016412cc79c6ffeb9d9334b55521bbde623afc4f09549"),
    (["hhh", "s t^-1 s^2 t s^-1", "--m", "4"],
     "4cc06a29739c57a3eb62a1cce727ab1422730ccb088f1f4fb36afd4e1d0779e3"),
]


@pytest.mark.parametrize("args,digest", HOCHSCHILD_STDOUT)
def test_hochschild_outputs_are_pinned(runner, args, digest):
    res = runner.invoke(main, args + ["--json"])
    assert res.exit_code == 0
    assert hashlib.sha256(res.output.encode()).hexdigest() == digest


def test_serre_check_exit_codes(runner):
    res = runner.invoke(main, ["serre-check", "--suite", "pift", "--m", "2",
                               "--json"])
    assert res.exit_code == 0
    assert json.loads(res.output)["status"] == "pass"
    bad = runner.invoke(main, ["serre-check", "--suite", "bogus"])
    assert bad.exit_code == 2  # click usage error


@pytest.mark.parametrize("suite", ["vanishing", "pift", "relative", "full"])
def test_serre_check_refuses_m_below_two(runner, suite):
    res = runner.invoke(main, ["serre-check", "--suite", suite, "--m", "1"])
    assert res.exit_code == 1


def test_cache_round_trip(tmp_path, monkeypatch):
    monkeypatch.setenv("SOERGEL_CACHE", str(tmp_path / "cache"))
    cold = cached_simplified_complex("s t^-1", 3)
    files = list((tmp_path / "cache").glob("*.json"))
    assert len(files) == 1
    warm = cached_simplified_complex("s t^-1", 3)
    assert warm.graded_atom_profile() == cold.graded_atom_profile()
    # corrupt entry falls back to recomputation
    files[0].write_text("{not json")
    again = cached_simplified_complex("s t^-1", 3)
    assert again.graded_atom_profile() == cold.graded_atom_profile()


def test_cache_key_is_stable_for_one_braid_and_m():
    key = cli._cache_key(parse_braid("s t^-1"), 3)
    assert cli._cache_key(parse_braid("s t^-1"), 3) == key
    assert cli._cache_key(parse_braid("s t^-1"), 4) != key


def test_cache_key_changes_with_the_sources(monkeypatch):
    braid = parse_braid("s t^-1")
    key = cli._cache_key(braid, 3)
    monkeypatch.setattr(cli, "_source_digest", lambda: "0" * 64)
    assert cli._cache_key(braid, 3) != key
