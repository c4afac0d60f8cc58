import contextlib
import hashlib
import importlib.util
import io
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracle
import pointedcat
from pointedcat import (
    CorpusSpec,
    Document,
    ModularData,
    ValidationError,
    canonical_form,
    check_gram,
    cli,
    cyclo,
    dense,
    from_lattice,
    parse,
    root_of_unity,
    serialize,
    verify_all,
)
from pointedcat.cli import main
from pointedcat.cyclo import format_root, format_value, parse_value
from pointedcat.errors import QUOTE_BYTES, quoted
from pointedcat.lattice import discriminant_group

SEMION_MAT = "2\n"
HOPF_MAT = "# hopf link, zero framings\n0 1\n1 0\n"
CORRUPT_SEMION = """kind: modular_data
rank: 2
s_tilde: 1, 1; 1, -1
twists: e(0/1), e(0/1)
"""
# S~ = I: unitary, C = I and (S~ T)^3 = p+ D^2 I all hold, but d_1 = 0
ZERO_DIMENSION = """kind: modular_data
rank: 2
s_tilde: 1, 0; 0, 1
twists: e(0/1), e(0/1)
"""

# d_1 = -1: every entry a root token, so an exponent table, but row 0 is not
# all 1, so no group law, and the checks run dense
NEGATIVE_DIMENSION = """kind: modular_data
rank: 2
s_tilde: 1, -1; -1, 1
twists: e(0/1), e(1/4)
"""


@pytest.fixture
def semion_file(tmp_path):
    path = tmp_path / "semion.mat"
    path.write_text(SEMION_MAT)
    return str(path)


@pytest.fixture
def semion_data(tmp_path, semion_file, capsys):
    out = tmp_path / "semion.data"
    assert main(["construct", "--b", semion_file, "--out", str(out)]) == 0
    capsys.readouterr()
    return str(out)


class TestConstruct:
    def test_writes_document(self, semion_file, capsys):
        assert main(["construct", "--b", semion_file]) == 0
        body = capsys.readouterr().out
        assert "rank: 2" in body
        assert "twists: e(0/1), e(1/4)" in body
        assert "s_tilde: 1, 1; 1, -1" in body

    def test_missing_file(self, capsys):
        assert main(["construct", "--b", "/nonexistent.mat"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unwritable_output(self, tmp_path, semion_file, capsys):
        out = tmp_path / "missing" / "semion.data"
        assert main(["construct", "--b", semion_file, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: cannot write {out}")

    def test_invalid_matrix(self, tmp_path, capsys):
        path = tmp_path / "odd.mat"
        path.write_text("1\n")
        assert main(["construct", "--b", str(path)]) == 2

    def test_matrix_files_may_begin_with_a_byte_order_mark(self, tmp_path, semion_data, capsys):
        # a UTF-8 byte-order mark is read as no text; the document is written without one
        path, hopf, out = tmp_path / "bom.mat", tmp_path / "hopf.mat", tmp_path / "bom.data"
        path.write_text("\ufeff" + SEMION_MAT, encoding="utf-8")
        hopf.write_text("\ufeff" + HOPF_MAT, encoding="utf-8")
        assert main(["construct", "--b", str(path), "--out", str(out)]) == 0
        assert out.read_bytes() == Path(semion_data).read_bytes()
        assert main(["link", "--data", semion_data, "--linking", str(hopf), "--colors", "1,1"]) == 0
        assert capsys.readouterr() == ("-1\n", "")


class TestVerify:
    def test_constructed_data_passes(self, semion_data, capsys):
        assert main(["verify", "--data", semion_data]) == 0
        out = capsys.readouterr().out
        assert "result: pass" in out

    def test_documents_may_begin_with_a_byte_order_mark(self, tmp_path, semion_data, capsys):
        assert main(["verify", "--data", semion_data]) == 0
        report = capsys.readouterr().out
        path = tmp_path / "bom.data"
        path.write_text("\ufeff" + Path(semion_data).read_text(), encoding="utf-8")
        assert main(["verify", "--data", str(path)]) == 0
        assert capsys.readouterr() == (report, "")

    @pytest.mark.parametrize("body", [
        CORRUPT_SEMION.replace("e(0/1)\n", "e(3/4)\nprovenance: 2\n"),
        "kind: modular_data\nrank: 1\ns_tilde: 1\ntwists: e(0/1)\nprovenance: 2\n",
        "kind: modular_data\nrank: 2\ns_tilde: 1, 1; 1, 1\ntwists: e(0/1), e(1/4)\n"
        "provenance: 2\n",
    ])
    def test_contradictory_provenance_rejected(self, tmp_path, capsys, body):
        path = tmp_path / "contradiction.data"
        path.write_text(body)
        assert main(["verify", "--data", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "provenance" in captured.err

    @pytest.mark.parametrize("s_tilde, twists, error", [
        ("1, 1; -1, -1", "e(0/1), e(1/4)", "s_tilde is not symmetric at (0,1)"),
        ("1, 1; 1, -1", "e(1/2), e(1/4)", "twist of the tensor unit must be 1"),
    ])
    def test_report_invariants_are_rejected_at_construction(self, tmp_path, capsys,
                                                           s_tilde, twists, error):
        # the report's twists_unit and s_symmetric always pass, because no
        # ModularData fails them
        rows = tuple(tuple(map(parse_value, row.split(","))) for row in s_tilde.split(";"))
        with pytest.raises(ValidationError, match=re.escape(error)):
            ModularData(rank=2, s_tilde=rows, twists=tuple(map(parse_value, twists.split(","))))
        path = tmp_path / "invariant.data"
        path.write_text(f"kind: modular_data\nrank: 2\ns_tilde: {s_tilde}\ntwists: {twists}\n")
        assert main(["verify", "--data", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {error}\n"

    def test_corrupted_fails_and_names_relation(self, tmp_path, capsys):
        path = tmp_path / "corrupt.data"
        path.write_text(CORRUPT_SEMION)
        assert main(["verify", "--data", str(path)]) == 1
        out = capsys.readouterr().out
        assert "check: st_cubed fail" in out
        assert "check: gauss_identity fail" in out
        assert "result: fail" in out

    def test_zero_square_is_a_report(self, tmp_path, capsys):
        # (S~ T)^2 = 0 and p+ = 0: (S~ T)^3 = p+ D^2 I holds and the rest fails
        path = tmp_path / "zero_square.data"
        path.write_text("kind: modular_data\nrank: 3\n"
                        "s_tilde: 1, 13/5, 12/5; 13/5, 169/25, 156/25; 12/5, 156/25, 144/25\n"
                        "twists: e(0/1), e(1/2), e(0/1)\n")
        assert main(["verify", "--data", str(path)]) == 1
        assert capsys.readouterr().out == (
            "kind: report\n"
            "check: gauss_identity fail: p+ p- = D^2\n"
            "check: unitarity fail: S~ conj(S~)^t = D^2 I\n"
            "check: verlinde_integral fail: N(0,0)^1 = 13/5 is not a non-negative integer\n"
            "check: twists_unit pass: twist of the unit is 1\n"
            "check: s_symmetric pass: S~ = S~^t\n"
            "check: charge_conjugation fail: row 0 of S~^2 is not D^2 times a unit vector\n"
            "check: conjugation_involution fail: C undefined\n"
            "check: st_cubed pass: (S~ T)^3 = p+ D^2 I\n"
            "result: fail\n")

    def test_failure_at_a_large_prime_is_named_quickly(self, tmp_path, capsys):
        # Naming the non-integral N(0,0)^0 asks root_exponent of a value at
        # conductor 1021; the candidate roots at 2042 took 4.4 s here.
        path = tmp_path / "prime.data"
        path.write_text("kind: modular_data\nrank: 2\n"
                        "s_tilde: 1, e(1/1021); e(1/1021), e(3/1021)+e(1/2)\n"
                        "twists: e(0/1), e(1/1021)\n")
        start = time.perf_counter()
        assert main(["verify", "--data", str(path)]) == 1
        assert time.perf_counter() - start < 1.0
        value = "+".join(f"-2*e({k}/1021)" for k in range(1, 1019) if k % 4 in (1, 2))
        assert capsys.readouterr().out == (
            "kind: report\n"
            "check: gauss_identity fail: p+ p- = D^2\n"
            "check: unitarity fail: S~ conj(S~)^t = D^2 I\n"
            f"check: verlinde_integral fail: N(0,0)^0 = {value} is not a non-negative integer\n"
            "check: twists_unit pass: twist of the unit is 1\n"
            "check: s_symmetric pass: S~ = S~^t\n"
            "check: charge_conjugation fail: row 0 of S~^2 is not D^2 times a unit vector\n"
            "check: conjugation_involution fail: C undefined\n"
            "check: st_cubed fail: (S~ T)^3 = p+ D^2 I\n"
            "result: fail\n")

    def test_failure_at_conductor_256_is_named_quickly(self, tmp_path, capsys):
        # Naming the non-integral N(0,0)^0 divides by D^2 = 1 + |S~_01|^2 at
        # conductor 256, which the extended Euclid over Q[x] took 34-48 s to
        # invert; the report is 38855 bytes, nearly all of it that entry
        entry = "-1*e(11/256)+2*e(23/256)+2*e(3/16)+-3*e(107/256)+-2*e(7/16)"
        path = tmp_path / "c256.data"
        path.write_text(f"kind: modular_data\nrank: 2\ns_tilde: 1, {entry}; {entry}, -1\n"
                        "twists: e(0/1), e(1/4)\n")
        start = time.perf_counter()
        assert main(["verify", "--data", str(path)]) == 1
        assert time.perf_counter() - start < 1.0
        out = capsys.readouterr().out
        assert out.splitlines()[:3] == ["kind: report", "check: gauss_identity fail: p+ p- = D^2",
                                        "check: unitarity fail: S~ conj(S~)^t = D^2 I"]
        assert len(out.encode()) == 38855 and hashlib.sha256(out.encode()).hexdigest() == (
            "f12d14873c51a79db92897d8ad6e7469ec8c05f1665aeaeba5dfcb4ff806ae17")

    def test_a_scaled_root_at_a_large_prime_ends_within_the_bound(self, tmp_path, capsys):
        # d_1 = 10^100 e(1/1021) is inverted as the root e(1/1021), its primitive
        # row; D^2 = 1 + 10^200 e(2/1021) is beyond the inverse's work bound, so
        # the bad entry is named without its value. At full size the descent on
        # d_1 would multiply integers of about 40 MB; the report took 0.2-0.7 s.
        big = "1" + "0" * 100 + "*e(1/1021)"
        path = tmp_path / "big.data"
        path.write_text(f"kind: modular_data\nrank: 2\ns_tilde: 1, {big}; {big}, -1\n"
                        "twists: e(0/1), e(1/1021)\n")
        start = time.perf_counter()
        assert main(["verify", "--data", str(path)]) == 1
        assert time.perf_counter() - start < 10.0
        assert capsys.readouterr().out.splitlines()[1:5] == [
            "check: gauss_identity fail: p+ p- = D^2",
            "check: unitarity fail: S~ conj(S~)^t = D^2 I",
            "check: verlinde_integral fail: N(0,0)^0 is not a non-negative integer"
            " (estimated inverse work 710676156180 exceeds the bound 2500000000)",
            "check: twists_unit pass: twist of the unit is 1"]

    def test_a_dimension_beyond_the_inverse_bound_is_rejected(self, tmp_path, capsys):
        # 1/d_1 for d_1 = 1 + 10^6 e(1/1021) is estimated before any check runs;
        # its descent took 15-20 s
        path = tmp_path / "wide.data"
        path.write_text("kind: modular_data\nrank: 2\n"
                        "s_tilde: 1, 1+1000000*e(1/1021); 1+1000000*e(1/1021), -1\n"
                        "twists: e(0/1), e(1/1021)\n")
        assert main(["verify", "--data", str(path)]) == 2
        assert capsys.readouterr() == (
            "", "error: estimated inverse work 3706436400 exceeds the bound 2500000000\n")

    def test_zero_quantum_dimension_fails_verlinde_only(self, tmp_path, capsys):
        path = tmp_path / "zero.data"
        path.write_text(ZERO_DIMENSION)
        assert main(["verify", "--data", str(path)]) == 1
        assert capsys.readouterr().out == (
            "kind: report\n"
            "check: gauss_identity pass: p+ p- = D^2\n"
            "check: unitarity pass: S~ conj(S~)^t = D^2 I\n"
            "check: verlinde_integral fail: zero quantum dimension\n"
            "check: twists_unit pass: twist of the unit is 1\n"
            "check: s_symmetric pass: S~ = S~^t\n"
            "check: charge_conjugation pass: S~^2 = D^2 C with C a permutation\n"
            "check: conjugation_involution pass: C^2 = I\n"
            "check: st_cubed pass: (S~ T)^3 = p+ D^2 I\n"
            "result: fail\n")

    def test_integers_past_the_print_limit(self, tmp_path, capsys):
        # N(0,0)^1 = 2 X / (1 + X^2) with X = 10^2200 has 4401 digits below the
        # line, more than str() converts: verify still reports, show refuses
        # with one error line, and neither prints the interpreter's text
        big = 10 ** 2200
        path = tmp_path / "big.data"
        path.write_text(f"kind: modular_data\nrank: 2\ns_tilde: 1, {big}; {big}, 1\n"
                        "twists: e(0/1), e(1/4)\n")
        limit = f"cannot print an integer of more than {sys.get_int_max_str_digits()} digits"
        assert main(["verify", "--data", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == (
            "kind: report\n"
            "check: gauss_identity fail: p+ p- = D^2\n"
            "check: unitarity fail: S~ conj(S~)^t = D^2 I\n"
            f"check: verlinde_integral fail: N(0,0)^1 is not a non-negative integer ({limit})\n"
            "check: twists_unit pass: twist of the unit is 1\n"
            "check: s_symmetric pass: S~ = S~^t\n"
            "check: charge_conjugation fail: row 0 of S~^2 is not D^2 times a unit vector\n"
            "check: conjugation_involution fail: C undefined\n"
            "check: st_cubed fail: (S~ T)^3 = p+ D^2 I\n"
            "result: fail\n")
        for args in (["show"], ["show", "--approx"]):
            assert main([*args, "--data", str(path)]) == 2
            assert capsys.readouterr() == ("", f"error: {limit}\n")

    @pytest.mark.parametrize("s_tilde, twists, place", [
        ("1, {big}; {big}, 1", "e(0/1), e(1/4)", "line 3, column 13"),
        ("1, 1; 1, -1", "e(0/1), e(1/{big})", "line 4, column 17"),
    ])
    def test_integers_past_the_read_limit(self, tmp_path, capsys, s_tilde, twists, place):
        # int() refuses 4501 digits; the error names the place and the limit,
        # not the digits
        big = "1" + "0" * 4500
        path = tmp_path / "big.data"
        path.write_text(f"kind: modular_data\nrank: 2\ns_tilde: {s_tilde.format(big=big)}\n"
                        f"twists: {twists.format(big=big)}\n")
        assert main(["verify", "--data", str(path)]) == 2
        captured = capsys.readouterr()
        limit = sys.get_int_max_str_digits()
        assert captured == (
            "", f"error: {place}: cannot read an integer of more than {limit} digits\n")
        assert len(captured.err.encode()) < 120

    def test_parse_error_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "broken.data"
        path.write_text(CORRUPT_SEMION.replace("e(0/1), e(0/1)", "e(0/1), e(1/3"))
        assert main(["verify", "--data", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_negative_dimension_fails_without_a_group_law(self, tmp_path, capsys):
        path = tmp_path / "negative.data"
        path.write_text(NEGATIVE_DIMENSION)
        md = parse(Document("modular_data", NEGATIVE_DIMENSION))
        assert md._exponents[1] == ((0, 1), (1, 0)) and md._law is None
        assert main(["verify", "--data", str(path)]) == 1
        assert capsys.readouterr().out == (
            "kind: report\n"
            "check: gauss_identity pass: p+ p- = D^2\n"
            "check: unitarity fail: S~ conj(S~)^t = D^2 I\n"
            "check: verlinde_integral fail: N(0,0)^1 = -1 is not a non-negative integer\n"
            "check: twists_unit pass: twist of the unit is 1\n"
            "check: s_symmetric pass: S~ = S~^t\n"
            "check: charge_conjugation fail: row 0 of S~^2 is not D^2 times a unit vector\n"
            "check: conjugation_involution fail: C undefined\n"
            "check: st_cubed fail: (S~ T)^3 = p+ D^2 I\n"
            "result: fail\n")


class TestFusion:
    def test_semion_outcome(self, semion_data, capsys):
        assert main(["fusion", "--data", semion_data, "--i", "1", "--j", "1"]) == 0
        assert capsys.readouterr().out == "0 1\n"

    def test_out_of_range_label(self, semion_data, capsys):
        assert main(["fusion", "--data", semion_data, "--i", "5", "--j", "0"]) == 2

    def test_zero_quantum_dimension_is_rejected(self, tmp_path, capsys):
        path = tmp_path / "zero.data"
        path.write_text(ZERO_DIMENSION)
        assert main(["fusion", "--data", str(path), "--i", "0", "--j", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: zero quantum dimension\n"

    def test_negative_dimension_is_rejected(self, tmp_path, capsys):
        path = tmp_path / "negative.data"
        path.write_text(NEGATIVE_DIMENSION)
        assert main(["fusion", "--data", str(path), "--i", "1", "--j", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: N(0,0)^1 = -1 is not a non-negative integer\n"


class TestLink:
    def test_hopf_value(self, tmp_path, semion_data, capsys):
        hopf = tmp_path / "hopf.mat"
        hopf.write_text(HOPF_MAT)
        code = main(["link", "--data", semion_data,
                     "--linking", str(hopf), "--colors", "1,1"])
        assert code == 0
        assert capsys.readouterr().out == "-1\n"

    def test_framed_unknot_twist(self, tmp_path, semion_data, capsys):
        unknot = tmp_path / "unknot.mat"
        unknot.write_text("1\n")
        assert main(["link", "--data", semion_data,
                     "--linking", str(unknot), "--colors", "1"]) == 0
        assert capsys.readouterr().out == "e(1/4)\n"

    def test_linking_matrix_not_square(self, tmp_path, semion_data, capsys):
        linking = tmp_path / "wide.mat"
        linking.write_text("0 1 0\n1 0 0\n")
        assert main(["link", "--data", semion_data,
                     "--linking", str(linking), "--colors", "1,1"]) == 2
        assert capsys.readouterr() == ("", "error: linking matrix is not square\n")

    def test_bad_colors(self, tmp_path, semion_data, capsys):
        hopf = tmp_path / "hopf.mat"
        hopf.write_text(HOPF_MAT)
        assert main(["link", "--data", semion_data,
                     "--linking", str(hopf), "--colors", "1,x"]) == 2


class TestEnumerate:
    def test_small_corpus_table(self, capsys):
        assert main(["enumerate", "--max-dim", "1", "--max-entry", "2"]) == 0
        out = capsys.readouterr().out
        assert "corpus: 2 matrices" in out
        assert "2     2" in out

    def test_rank_cap_respected(self, capsys):
        assert main(["enumerate", "--max-dim", "2", "--max-entry", "2"]) == 0
        out = capsys.readouterr().out
        assert "corpus:" in out

    def test_excessive_rank_is_usage_error(self, capsys):
        code = main(["enumerate", "--max-dim", "2", "--max-entry", "4",
                     "--max-rank", "32"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_rank_cap_past_the_bound_is_rejected_first(self, capsys):
        code = main(["enumerate", "--max-dim", "1", "--max-entry", "2",
                     "--max-rank", "513"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "exceeds the rank bound 512" in captured.err


class TestShow:
    def test_plain(self, semion_data, capsys):
        assert main(["show", "--data", semion_data]) == 0
        out = capsys.readouterr().out
        assert "rank: 2" in out
        assert "twists: 1, e(1/4)" in out
        assert "built from: [2]" in out

    def test_labels(self, tmp_path, capsys):
        path = tmp_path / "labels.data"
        path.write_text("kind: modular_data\nrank: 2\nlabels: one, semion\n"
                        "s_tilde: 1, 1; 1, -1\ntwists: e(0/1), e(1/4)\n")
        assert main(["show", "--data", str(path)]) == 0
        assert capsys.readouterr().out == (
            "rank: 2\nlabels: one, semion\nquantum dimensions: 1, 1\n"
            "D^2: 2\np+: 1+e(1/4)\np-: 1+-1*e(1/4)\ntwists: 1, e(1/4)\n"
            "s_tilde:\n  1, 1\n  1, -1\n")

    def test_negative_dimension(self, tmp_path, capsys):
        path = tmp_path / "negative.data"
        path.write_text(NEGATIVE_DIMENSION)
        assert main(["show", "--data", str(path)]) == 0
        assert capsys.readouterr().out == (
            "rank: 2\nquantum dimensions: 1, -1\n"
            "D^2: 2\np+: 1+e(1/4)\np-: 1+-1*e(1/4)\ntwists: 1, e(1/4)\n"
            "s_tilde:\n  1, -1\n  -1, 1\n")

    def test_approx(self, semion_data, capsys):
        assert main(["show", "--data", semion_data, "--approx"]) == 0
        out = capsys.readouterr().out
        assert "(+0.000000+1.000000j)" in out

    def test_approx_beyond_float_precision(self, tmp_path, capsys):
        # (1 - phi)^90 with phi = 1 + e(1/5) + e(4/5) is about 1.55e-19, but its
        # coefficients are about 4.7e18, and the float sum gave (512.0, 768.0)
        phi = 1 + root_of_unity(Fraction(1, 5)) + root_of_unity(Fraction(4, 5))
        value = 1 - phi
        for _ in range(89):
            value = value * (1 - phi)
        text = format_value(value)
        assert text == ("4660046610375530309+2880067194370816120*e(2/5)"
                        "+2880067194370816120*e(3/5)")
        path = tmp_path / "cancel.data"
        path.write_text(f"kind: modular_data\nrank: 2\ns_tilde: 1, 1; 1, {text}\n"
                        "twists: e(0/1), e(1/4)\n")
        assert main(["show", "--data", str(path), "--approx"]) == 0
        out = capsys.readouterr().out
        assert f"  1 (+1.000000+0.000000j), {text} (beyond float precision)\n" in out
        assert "D^2: 2 (+2.000000+0.000000j)\n" in out


    def test_each_distinct_value_is_formatted_once(self, tmp_path, monkeypatch, capsys):
        # a parsed document shares one object per token: 64 in S~ and the
        # dims of [[64]], 4096 entries
        body = serialize(from_lattice(check_gram([[64]]))).body
        path = tmp_path / "r64.data"
        path.write_text(body)
        fields = dict(line.split(": ", 1) for line in body.splitlines())
        tokens = set(re.split("[,;] ", fields["s_tilde"])) | set(fields["twists"].split(", "))
        render = cyclo.format_value
        calls = []
        monkeypatch.setattr(cyclo, "format_value", lambda x: calls.append(x) or render(x))
        for argv in (["show"], ["show", "--approx"]):
            del calls[:]
            assert main([*argv, "--data", str(path)]) == 0
            assert len(calls) <= len(tokens) + 3  # and D^2, p+, p-
            out = capsys.readouterr().out
            assert out.count("\n  ") == 64 and "built from: [64]" in out

    def test_value_data_prints_from_its_table(self, monkeypatch, capsys):
        # data of roots of unity built from values holds its exponent table
        # from construction, so show formats no value through cyclo: D^2, p+
        # and p- print from the integer vectors of the table's Gauss sums, as
        # the values print, and the text is the same before and after verify_all
        from pointedcat.show import show

        md = from_lattice(check_gram([[4, 4], [4, -4]]))
        values = ModularData(rank=md.rank, s_tilde=md.s_tilde, twists=md.twists,
                             provenance=md.provenance)
        show(md, False)
        want = capsys.readouterr().out
        render, calls = cyclo.format_value, []
        monkeypatch.setattr(cyclo, "format_value", lambda x: calls.append(x) or render(x))
        for _ in range(2):
            del calls[:]
            show(values, False)
            assert capsys.readouterr().out == want and calls == []
            gauss = values._gauss
            sums = "D^2: {}\np+: {}\np-: {}\n".format(
                *map(render, (gauss.d_squared, gauss.p_plus, gauss.p_minus)))
            assert sums in want
            assert verify_all(values).passed


@pytest.mark.parametrize("middle, error", [
    ("rank: 2\nrank: 2\n", "line 3, column 1: duplicate key 'rank'"),
    ("rank: two\n", "line 2, column 7: rank must be an integer"),
    ("rank: 2\nlabels: one, se mion\n", "line 3, column 9: bad label name 'se mion'"),
    ("rank: 2\nprovenance: 2 x\n", "line 3, column 13: expected space-separated integers"),
    ("rank: 2\nlabels: a, b, c\n", "label_names length does not match rank"),
    ("rank: 2\ns_tilde: 1, 1; 1\n", "s_tilde is not square"),
    ("rank: 2\ns_tilde: 2, 1; 1, -1\n", "s_tilde[0][0] must be 1"),
])
def test_document_errors(tmp_path, capsys, middle, error):
    body = f"kind: modular_data\n{middle}twists: e(0/1), e(1/4)\n"
    if "s_tilde" not in middle:
        body += "s_tilde: 1, 1; 1, -1\n"
    path = tmp_path / "bad.data"
    path.write_text(body)
    assert main(["verify", "--data", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {error}\n")


BIG = 10 ** 400
NINES = "9" * 400


class TestCoefficientsBeyondFloatRange:
    """Coefficients past float range are decided exactly; `--approx` marks
    the values it cannot approximate, and nothing ends in a traceback."""

    TWIST = f"kind: modular_data\nrank: 2\ns_tilde: 1, 1; 1, -1\ntwists: e(0/1), {BIG}*e(1/4)\n"
    ENTRY = f"kind: modular_data\nrank: 2\ns_tilde: 1, 1; 1, {BIG}*e(1/2)\ntwists: e(0/1), e(1/4)\n"
    SHOW = ("rank: 2\nquantum dimensions: 1, 1\nD^2: 2\np+: 1+e(1/4)\np-: 1+-1*e(1/4)\n"
            f"twists: 1, e(1/4)\ns_tilde:\n  1, 1\n  1, -{BIG}\n")
    SHOW_APPROX = (
        "rank: 2\n"
        "quantum dimensions: 1 (+1.000000+0.000000j), 1 (+1.000000+0.000000j)\n"
        "D^2: 2 (+2.000000+0.000000j)\n"
        "p+: 1+e(1/4) (+1.000000+1.000000j)\n"
        "p-: 1+-1*e(1/4) (+1.000000-1.000000j)\n"
        "twists: 1 (+1.000000+0.000000j), e(1/4) (+0.000000+1.000000j)\n"
        "s_tilde:\n"
        "  1 (+1.000000+0.000000j), 1 (+1.000000+0.000000j)\n"
        f"  1 (+1.000000+0.000000j), -{BIG} (beyond float range)\n")
    FUSION_ERROR = f"error: N(0,0)^1 = -{NINES}/2 is not a non-negative integer\n"
    REPORT = ("kind: report\n"
              "check: gauss_identity pass: p+ p- = D^2\n"
              "check: unitarity fail: S~ conj(S~)^t = D^2 I\n"
              f"check: verlinde_integral fail: N(0,0)^1 = -{NINES}/2 is not a non-negative integer\n"
              "check: twists_unit pass: twist of the unit is 1\n"
              "check: s_symmetric pass: S~ = S~^t\n"
              "check: charge_conjugation fail: row 0 of S~^2 is not D^2 times a unit vector\n"
              "check: conjugation_involution fail: C undefined\n"
              "check: st_cubed fail: (S~ T)^3 = p+ D^2 I\n"
              "result: fail\n")

    @pytest.mark.parametrize("argv", [["verify"], ["show"], ["show", "--approx"],
                                      ["fusion", "--i", "1", "--j", "1"]])
    def test_twist_is_not_a_root(self, tmp_path, capsys, argv):
        path = tmp_path / "twist.data"
        path.write_text(self.TWIST)
        assert main([*argv, "--data", str(path)]) == 2
        assert capsys.readouterr() == ("", "error: twist 1 is not a root of unity\n")

    @pytest.mark.parametrize("argv, code, out, err", [
        (["verify"], 1, REPORT, ""),
        (["show"], 0, SHOW, ""),
        (["show", "--approx"], 0, SHOW_APPROX, ""),
        (["fusion", "--i", "1", "--j", "1"], 2, "", FUSION_ERROR),
    ])
    def test_entry_past_float_range(self, tmp_path, capsys, argv, code, out, err):
        path = tmp_path / "entry.data"
        path.write_text(self.ENTRY)
        assert main([*argv, "--data", str(path)]) == code
        assert capsys.readouterr() == (out, err)


_TOKENS = st.sampled_from([
    "1", "-1", "0", "2", "1/2", "e(0/1)", "e(1/2)", "e(1/4)", "e(3/4)", "e(1/3)", "e(2/3)",
    "e(1/5)", "e(1/8)", "e(5/12)", "1+e(1/4)", "e(1/3)+e(2/3)", "e(1/5)+e(4/5)",
    f"{BIG}*e(1/4)", f"-{BIG}", f"{BIG}*e(1/2)", f"1/{BIG + 1}*e(1/3)", f"1/{BIG + 1}",
    f"{BIG}*e(1/3)+e(1/4)", f"{BIG}*e(1/8)+-{BIG}*e(3/8)"])


@st.composite
def _small_documents(draw):
    rank = draw(st.sampled_from([2, 3]))
    rows = [[None] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i, rank):
            rows[i][j] = rows[j][i] = draw(_TOKENS) if i or j else "1"
    twists = ["e(0/1)"] + [draw(_TOKENS) for _ in range(rank - 1)]  # the unit's are fixed
    rows = "; ".join(", ".join(row) for row in rows)
    return f"kind: modular_data\nrank: {rank}\ns_tilde: {rows}\ntwists: {', '.join(twists)}\n"


@given(_small_documents())
@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_no_document_ends_in_a_traceback(tmp_path, capsys, text):
    path = tmp_path / "d.data"
    path.write_text(text)
    for argv in (["verify"], ["fusion", "--i", "1", "--j", "1"], ["show"], ["show", "--approx"]):
        assert main([*argv, "--data", str(path)]) in (0, 1, 2)
    capsys.readouterr()


class TestExitCodeContract:
    def test_usage_error_without_command(self, capsys):
        assert main([]) == 2

    def test_unknown_flag(self, capsys):
        assert main(["verify", "--nope", "x"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0


class TestCommandTable:
    """Options come from cli.COMMANDS: --name VALUE or --name=VALUE, flags
    without a value, help on stdout and usage errors on stderr."""

    def test_every_command_and_option(self, tmp_path, semion_file, capsys):
        data = str(tmp_path / "semion.data")
        hopf = tmp_path / "hopf.mat"
        hopf.write_text(HOPF_MAT)
        assert main(["construct", f"--b={semion_file}", f"--out={data}"]) == 0
        assert capsys.readouterr().out == ""
        assert main(["construct", "--b", semion_file]) == 0
        assert capsys.readouterr().out == Path(data).read_text()
        assert main(["verify", f"--data={data}"]) == 0
        assert capsys.readouterr().out.endswith("result: pass\n")
        assert main(["fusion", "--data", data, "--i=1", "--j", "1"]) == 0
        assert capsys.readouterr().out == "0 1\n"
        assert main(["link", f"--data={data}", f"--linking={hopf}", "--colors=1,1"]) == 0
        assert capsys.readouterr().out == "-1\n"
        assert main(["show", "--approx", "--data", data]) == 0
        assert "e(1/4) (+0.000000+1.000000j)" in capsys.readouterr().out
        assert main(["enumerate", "--max-dim=2", "--max-entry", "2"]) == 0
        default = capsys.readouterr().out
        assert main(["enumerate", "--max-dim", "2", "--max-entry=2", "--max-rank=8"]) == 0
        assert capsys.readouterr().out == default

    @pytest.mark.parametrize("argv", [
        ["-h"], ["--help"], *([command, flag] for command in cli.COMMANDS
                              for flag in ("-h", "--help")),
        ["fusion", "--data", "x", "--help"],
    ])
    def test_help(self, argv, capsys):
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: pointedcat ") and captured.err == ""
        if len(argv) > 1:
            assert all(f"--{option[0]}" in captured.out for option in cli.COMMANDS[argv[0]][2])

    @pytest.mark.parametrize("argv, message", [
        ([], "no command given"),
        (["frobnicate"], "unknown command 'frobnicate'"),
        (["verify", "--nope", "x"], "unrecognized argument '--nope'"),
        (["verify", "extra"], "unrecognized argument 'extra'"),
        (["enumerate", "--max-d", "1", "--max-entry", "1"], "unrecognized argument '--max-d'"),
        (["verify", "--data"], "--data expects a value"),
        (["link", "--data", "--colors", "1"], "--data expects a value"),
        (["verify"], "missing required option --data"),
        (["fusion", "--data", "x"], "missing required option --i, --j"),
        (["fusion", "--data", "x", "--i", "x", "--j", "0"], "--i: invalid int value 'x'"),
        (["show", "--data", "x", "--approx=1"], "--approx takes no value"),
    ])
    def test_usage_errors(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: pointedcat ")
        assert captured.err.endswith(f"error: {message}\n")


_TWISTS = "twists: e(0/1), e(1/4)\n"
_ROWS = "s_tilde: 1, 1; 1, -1\n"


@pytest.mark.parametrize("argv, body, short, long, message", [
    # a document after its rank line ({text} is the quoted text), or an argv
    (None, "s_tilde: 1, {text}; 1, -1\n" + _TWISTS, "-1x", "-1" + "x" * 4998,
     "line 3, column 13: bad rational {}"),
    (None, _ROWS + "twists: e(0/1), {text}\n", "e(1/4", "e(" + "1" * 4998,
     "line 4, column 17: bad root of unity {}"),
    (None, "s_tilde: 1, {text}; 1, -1\n" + _TWISTS, "1++e(1/4)", "1++" + "1" * 4997,
     "line 3, column 13: empty term in value {}"),
    (None, "{text}: 1\n" + _ROWS + _TWISTS, "colour", "x" * 5000,
     "line 3, column 1: unknown key {}"),
    (None, "labels: a, {text}\n" + _ROWS + _TWISTS, "se mion", "se " + "m" * 4997,
     "line 3, column 9: bad label name {}"),
    (["enumerate", "--max-dim", "{text}", "--max-entry", "1"], None, "2x", "1" * 5000,
     "--max-dim: invalid int value {}"),
    (["fusion", "--data", "x", "--i", "{text}", "--j", "0"], None, "x", "x" * 5000,
     "--i: invalid int value {}"),
    (["verify", "{text}"], None, "extra", "--" + "x" * 4998, "unrecognized argument {}"),
    (["{text}"], None, "frobnicate", "x" * 5000, "unknown command {}"),
    (["link", "--data", "{data}", "--linking", "{hopf}", "--colors", "{text}"], None,
     "1,x", "1," + "x" * 4998, "bad color list {}"),
])
def test_errors_quote_at_most_40_characters(tmp_path, semion_data, capsys,
                                            argv, body, short, long, message):
    # a short echo is the repr of the text; a long one is the repr of its first
    # 40 characters and its length, so no error line reaches 120 bytes
    hopf = tmp_path / "hopf.mat"
    hopf.write_text(HOPF_MAT)
    for text, echo in ((short, repr(short)), (long, f"{long[:40]!r}... ({len(long)} characters)")):
        if body is not None:
            path = tmp_path / "echo.data"
            path.write_text("kind: modular_data\nrank: 2\n" + body.format(text=text))
            args = ["verify", "--data", str(path)]
        else:
            args = [arg.format(text=text, data=semion_data, hopf=hopf) for arg in argv]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.endswith(f"error: {message.format(echo)}\n")
        assert all(len(line.encode()) < 120 for line in captured.err.splitlines())


@pytest.mark.parametrize("name, echo", [
    # 40 characters that escape to four each: the repr is cut at QUOTE_BYTES
    ("\x01" * 40, f"{chr(1) * 10!r}... (40 characters)"),
    ("a\x01" * 30, f"{('a' + chr(1)) * 8!r}... (60 characters)"),
    # at most 40 printable characters: the whole repr, however many bytes
    ("\\" * 40, repr("\\" * 40)),
    ("\u00e9" * 40, repr("\u00e9" * 40)),
    # a repr within the budget is kept whole, printable or not
    ("se\tmion", repr("se\tmion")),
])
def test_echoes_are_cut_at_a_byte_budget(tmp_path, capsys, name, echo):
    path = tmp_path / "label.data"
    path.write_text(f"kind: modular_data\nrank: 2\nlabels: a, {name}\n{_ROWS}{_TWISTS}")
    line = f"error: line 3, column 9: bad label name {echo}\n"
    assert main(["verify", "--data", str(path)]) == 2
    assert capsys.readouterr() == ("", line)
    # a cut repr takes at most QUOTE_BYTES, so such a line stays under 120 bytes
    assert quoted(name) == echo
    assert name.isprintable() or len(echo.partition("... (")[0].encode()) <= QUOTE_BYTES
    assert name.isprintable() or len(line.encode()) < 120


def run_cli(args, **kwargs):
    """python -m pointedcat.cli ARGS in a fresh interpreter without site or a
    bytecode cache, so every module it imports is compiled and listed, and
    without PYTHONUNBUFFERED, so stdout is block-buffered as in a shell pipe."""
    src = str(Path(pointedcat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.Popen([sys.executable, "-S", *args], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, **kwargs)


def imported_modules(args, program=("-m", "pointedcat.cli")):
    """Exit code and the names of the modules `-X importtime` lists for a CLI
    job, or for another program such as ("-c", "import pointedcat.cli")."""
    proc = run_cli(["-X", "importtime", *program, *args])
    _, err = proc.communicate(timeout=60)
    names = {line.rsplit("|", 1)[1].strip() for line in err.splitlines()
             if line.startswith("import time:") and "|" in line}
    return proc.returncode, names


def compiled_lines(names):
    """Source lines a CLI job compiles with no bytecode cache: those of its
    pointedcat modules, and of cli.py, which runs as __main__."""
    root = Path(pointedcat.__file__).parent
    stems = {"cli"} | {name.partition(".")[2] or "__init__" for name in names
                       if name.split(".")[0] == "pointedcat"}
    return sum(len((root / f"{stem}.py").read_text().splitlines()) for stem in stems)


def test_pointed_commands_import_only_what_they_run(tmp_path, semion_file, semion_data, su2):
    # Each pointed command loads exactly its own pointedcat modules. construct
    # writes the lattice's exponent table, with no moddata; verify, link and
    # fusion by the group law read only the table, so none loads cyclo or the
    # standard modules it needs; show prints D^2 and p+- from the counts of
    # the roots e(k/2n) in the table's Gauss sums (gauss) through the integer
    # core of cyclo (cyclo_core), as verify decides p+ p- = D^2 on those counts
    # when the cube check fails, so neither loads cyclo either; only show loads
    # its text module (show), and cyclo and values only with --approx, which
    # sums the values and so loads no gauss. A table document whose twist
    # contradicts its provenance lattice is refused on the tokens of the two
    # tables (values), with no value built, so it loads no cyclo either.
    # No command needs argparse, the classification or the dense checks, no
    # module imports dataclasses or __future__, and a byte-order mark is
    # dropped with no codec module but utf-8.
    hopf = tmp_path / "hopf.mat"
    hopf.write_text(HOPF_MAT)
    corrupt = tmp_path / "corrupt.data"
    corrupt.write_text(CORRUPT_SEMION)
    mismatch = tmp_path / "mismatch.data"
    mismatch.write_text(CORRUPT_SEMION.replace("e(0/1)\n", "e(3/4)\nprovenance: 2\n"))
    never = {"argparse", "gettext", "dataclasses", "inspect", "__future__",
             "encodings.utf_8_sig"}
    values = {"fractions", "decimal", "numbers", "cmath"}
    base = {"pointedcat", "pointedcat.errors", "pointedcat.record", "pointedcat.serialization"}
    table = base | {"pointedcat.lattice", "pointedcat.moddata"}
    shown = table | {"pointedcat.cyclo_core", "pointedcat.show"}
    cases = [
        (["construct", "--b", semion_file], 0, base | {"pointedcat.lattice"}, never | values),
        (["verify", "--data", semion_data], 0, table, never | values),
        (["fusion", "--data", semion_data, "--i", "1", "--j", "1"], 0, table, never | values),
        (["link", "--data", semion_data, "--linking", str(hopf), "--colors", "1,1"], 0,
         table | {"pointedcat.links"}, never | values),
        (["show", "--data", semion_data], 0, shown | {"pointedcat.gauss"}, never | values),
        (["show", "--data", semion_data, "--approx"], 0,
         shown | {"pointedcat.cyclo", "pointedcat.values"}, never),
        # a law that fails its cube check gets exact Gauss sums; no provenance, no lattice
        (["verify", "--data", str(corrupt)], 1,
         base | {"pointedcat.moddata", "pointedcat.cyclo_core", "pointedcat.gauss"},
         never | values),
        (["verify", "--data", str(mismatch)], 2, table | {"pointedcat.values"}, never | values),
    ]
    for args, expected, modules, absent in cases:
        code, names = imported_modules(args)
        assert code == expected
        assert {name for name in names if name.startswith("pointedcat")} == modules, args
        assert names.isdisjoint(absent), (args, names & absent)
        # only --approx prints floats, through cmath
        assert ("cmath" in names) == ("--approx" in args), args
        if args[0] == "show" and "--approx" not in args:
            assert compiled_lines(names) <= 1725
    # enumerate runs on integer exponent tables: no cyclotomic values, no
    # ModularData and no documents, nor the standard modules cyclo needs
    code, names = imported_modules(["enumerate", "--max-dim", "2", "--max-entry", "2"])
    assert code == 0 and {name for name in names if name.startswith("pointedcat")} == {
        "pointedcat", "pointedcat.errors", "pointedcat.record", "pointedcat.lattice",
        "pointedcat.enumeration"}
    assert names.isdisjoint(never | values)
    assert compiled_lines(names) <= 1038
    # importing the CLI loads two modules of its own and, of the standard
    # library, only what its imports name (with what they need in this Python)
    code, names = imported_modules([], program=("-c", "import pointedcat.cli"))
    _, stdlib = imported_modules([], program=("-c", "import importlib, os"))
    assert code == 0 and names - stdlib == {"pointedcat", "pointedcat.cli", "pointedcat.errors"}
    # inverting a value in a library call loads the arithmetic and the dense
    # inverse, but no moddata: dense names ModularData only in annotations
    code, names = imported_modules([], program=(
        "-c", "from fractions import Fraction; from pointedcat.cyclo import root_of_unity; "
              "(root_of_unity(Fraction(1, 5)) + 2).inverse()"))
    assert code == 0 and {name for name in names if name.startswith("pointedcat")} == {
        "pointedcat", "pointedcat.cyclo", "pointedcat.cyclo_core", "pointedcat.dense",
        "pointedcat.errors", "pointedcat.record"}
    # generic data takes the dense checks on Cyclotomic values; without
    # provenance it needs no lattice, and show prints its values with no
    # exponent table, so it needs no values module either
    generic = tmp_path / "su2_3.data"
    generic.write_text(serialize(su2(3)).body)
    code, names = imported_modules(["verify", "--data", str(generic)])
    assert code == 0 and {"pointedcat.dense", "pointedcat.cyclo"} <= names
    assert names.isdisjoint({"pointedcat.lattice", "pointedcat.show", "cmath", "__future__"})
    assert compiled_lines(names) <= 2010
    code, names = imported_modules(["show", "--data", str(generic)])
    assert code == 0 and {name for name in names if name.startswith("pointedcat")} == (
        base | {"pointedcat.moddata", "pointedcat.cyclo", "pointedcat.cyclo_core",
                "pointedcat.show"})
    assert "__future__" not in names
    assert compiled_lines(names) <= 1754


# SHA-256 of transcript(pointed_documents(corpus4)) as written at the commit
# before pointed show printed tables from their tokens, D^2 and p+- were
# summed over exponent pairs and fusion read the group law, when each of
# these jobs printed values through cyclo
PARENT_TRANSCRIPT_SHA256 = "15a4d81167bdb3cbc10576759acfc57c7db250de5276b0f5b3ed49cdfd3bfe76"

# The toric code with the boson e at label 0 (test_serialization): its rows
# form a group, but row 0 is not the unit, so the table has no group law
RELABELED_TORIC = ("kind: modular_data\nrank: 4\n"
                   "s_tilde: 1, 1, -1, -1; 1, 1, 1, 1; -1, 1, 1, -1; -1, 1, -1, 1\n"
                   "twists: e(0/1), e(0/1), e(0/1), e(1/2)\n")


def load_bench_module(name):
    """bench/NAME.py, which is not a package."""
    path = Path(__file__).resolve().parent.parent / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pointed_documents(corpus4):
    """Documents of pointed data with and without a group law: every corpus4
    lattice, the first 16 of rank 2 or more with row and column 1 negated (a
    table without a law), the relabelled toric code, a corruption as the
    bench's r20_bad (twist 1 set to 1 and the labels permuted, without
    provenance: a law whose cube check fails) and [[512]]."""
    docs = [serialize(from_lattice(gram)).body for gram in corpus4]
    signed = [md for md in map(from_lattice, corpus4) if md.rank > 1][:16]
    docs += [serialize(oracle.with_row_sign(md)).body for md in signed]
    r20 = from_lattice(check_gram([[4, 2], [2, -4]]))
    perm = [0, *random.Random(20).sample(range(1, 20), 19)]
    docs += [RELABELED_TORIC, serialize(oracle.relabel(oracle.with_twist_one(r20), perm)).body,
             serialize(from_lattice(check_gram([[512]]))).body]
    return docs


def transcript(path, documents) -> str:
    """Exit code, stdout and stderr of main for show and fusion of labels 1
    and rank - 1 on each document, written to path in turn, as one text."""
    parts = []
    for body in documents:
        path.write_text(body)
        rank = int(body.split("rank: ", 1)[1].split("\n", 1)[0])
        for argv in (["show"], ["fusion", "--i", str(1 % rank), "--j", str(rank - 1)]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([*argv, "--data", str(path)])
            parts.append(f"{' '.join(argv)}: exit {code}\n{out.getvalue()}{err.getvalue()}")
    return "".join(parts)


def test_pointed_show_and_fusion_keep_their_bytes(tmp_path, corpus4):
    from pointedcat.show import show

    documents = pointed_documents(corpus4)
    text = transcript(tmp_path / "d.data", documents)
    assert hashlib.sha256(text.encode()).hexdigest() == PARENT_TRANSCRIPT_SHA256
    # show --approx prints floats of each value's coefficients at its own
    # conductor, and this platform's libm, so it is compared with the value
    # path (the parent's only one) in this process: the Gauss sums of data
    # that holds only its table are the sums over the values built from it,
    # as the oracle sums them, and those of the same data built from values,
    # which holds the same table from construction; conductors and
    # coefficients are included, and so is the --approx text.
    for k, body in enumerate(documents):
        table = parse(Document("modular_data", body))
        gauss = table._gauss  # summed over the values built from the table
        held = ModularData(rank=table.rank, s_tilde=table.s_tilde, twists=table.twists,
                           provenance=table.provenance, label_names=table.label_names)
        assert repr(held._gauss) == repr(gauss), body
        assert repr((gauss.d_squared, gauss.p_plus, gauss.p_minus)) == repr(
            oracle.gauss_sums(held)), body
        if k % 10 == 0 or k >= len(documents) - 3:
            printed = []
            for data, approx in ((table, True), (held, True), (table, False), (held, False)):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    show(data, approx)
                printed.append(out.getvalue())
            assert printed[0] == printed[1] and printed[2] == printed[3], body


def test_construct_writes_what_serialize_writes(tmp_path, corpus4, capsys):
    # one writer (serialization.data_document) for construct and serialize
    bench = load_bench_module("workloads")
    grams = [gram.entries for gram in corpus4] + list(bench.POINTED.values())
    path = tmp_path / "b.mat"
    for entries in grams:
        path.write_text("".join(" ".join(map(str, row)) + "\n" for row in entries))
        assert main(["construct", "--b", str(path)]) == 0
        assert capsys.readouterr().out == serialize(from_lattice(check_gram(entries))).body


def test_closed_stdout_ends_quietly(tmp_path):
    # `show | head -n 3`: show writes about 160 kB, more than a pipe holds
    path = tmp_path / "r128.data"
    path.write_text(serialize(from_lattice(check_gram([[128]]))).body)
    proc = run_cli(["-m", "pointedcat.cli", "show", "--data", str(path)])
    head = [proc.stdout.readline() for _ in range(3)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == cli.EXIT_CLOSED_STDOUT
    assert head == ["rank: 128\n", "quantum dimensions: " + ", ".join(["1"] * 128) + "\n",
                    "D^2: 128\n"]
    assert err == ""


def test_output_is_complete_before_the_fast_exit(tmp_path, semion_file, semion_data):
    # entry ends with os._exit, which flushes nothing, so block-buffered stdout
    # reaches the reader only through entry's own flush
    corrupt = tmp_path / "corrupt.data"
    corrupt.write_text(CORRUPT_SEMION)
    semion = from_lattice(check_gram([[2]]))
    usage = "usage: pointedcat construct --b FILE [--out FILE]\n"
    cases = [
        (["verify", "--data", semion_data], serialize(verify_all(semion)).body, "", 0),
        (["verify", "--data", str(corrupt)],
         serialize(verify_all(parse(Document("modular_data", CORRUPT_SEMION)))).body, "", 1),
        (["construct", "--b", semion_file], serialize(semion).body, "", 0),
        (["construct"], "", usage + "error: missing required option --b\n", 2),
    ]
    for argv, out, err, code in cases:
        proc = run_cli(["-m", "pointedcat.cli", *argv])
        assert proc.communicate(timeout=60) == (out, err)
        assert proc.returncode == code
    assert cases[0][1].endswith("result: pass\n") and cases[1][1].endswith("result: fail\n")


class TestDeterminism:
    def test_byte_identical_output(self, semion_data, capsys):
        main(["show", "--data", semion_data, "--approx"])
        first = capsys.readouterr().out
        main(["show", "--data", semion_data, "--approx"])
        second = capsys.readouterr().out
        assert first == second

    def test_construct_deterministic(self, semion_file, capsys):
        main(["construct", "--b", semion_file])
        first = capsys.readouterr().out
        main(["construct", "--b", semion_file])
        second = capsys.readouterr().out
        assert first == second


def fibonacci_power_document(m):
    """The document of Fib^m (rank 2^m, conductor 5), written from its 2m + 2
    distinct values: entry (a, b) is (-1)^|a & b| phi^|a ^ b| over the bits of
    the labels, and twist a is e(2 |a| / 5)."""
    one = root_of_unity(0)
    phi = one + root_of_unity(Fraction(1, 5)) + root_of_unity(Fraction(4, 5))
    powers = [one]
    for _ in range(m):
        powers.append(powers[-1] * phi)
    tokens = [[format_value(sign * x) for x in powers] for sign in (one, -one)]
    rank = 2 ** m
    rows = "; ".join(", ".join(tokens[bin(a & b).count("1") % 2][bin(a ^ b).count("1")]
                               for b in range(rank)) for a in range(rank))
    twists = ", ".join(format_root(root_of_unity(Fraction(2 * bin(a).count("1"), 5)))
                       for a in range(rank))
    return f"kind: modular_data\nrank: {rank}\ns_tilde: {rows}\ntwists: {twists}\n"


class TestInputBounds:
    """Inputs past MAX_RANK, MAX_CONDUCTOR, MAX_CANONICAL_RANK, MAX_CANDIDATES,
    MAX_DENSE_WORK or MAX_GRAM_DIM are usage errors, raised before anything of
    their size is built."""

    def _exit_code_and_seconds(self, argv):
        start = time.perf_counter()
        code = main(argv)
        return code, time.perf_counter() - start

    def test_rank_bound(self, tmp_path):
        # 200000 classes: a MemoryError under a 1 GB address-space limit before
        # the bound, so the job runs in a child process under that limit
        import resource

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        path = tmp_path / "big.mat"
        path.write_text("200000\n")
        start = time.perf_counter()
        proc = run_cli(["-m", "pointedcat.cli", "construct", "--b", str(path)], preexec_fn=limit)
        _, err = proc.communicate(timeout=60)
        seconds = time.perf_counter() - start
        assert proc.returncode == 2 and seconds < 1.0
        assert "exceeds the rank bound 512" in err

    def test_rank_bound_message_has_a_byte_budget(self, tmp_path, capsys):
        # |det B| is printed only up to 40 digits: a seeded 128 x 128 matrix of
        # entries up to 6 wrote a 227-byte line, and a determinant past 4300
        # digits failed its own str() in an error line that named no bound
        rng = random.Random(128)
        rows = [[0] * 128 for _ in range(128)]
        for i in range(128):
            rows[i][i] = rng.choice(range(-6, 7, 2))
            for j in range(i + 1, 128):
                rows[i][j] = rows[j][i] = rng.randint(-6, 6)
        big = 2 * 10 ** 4000
        long = "error: |det B| has more than 40 digits and exceeds the rank bound 512\n"
        for matrix, line in ((rows, long), ([[big, 1], [1, big]], long), ([[10 ** 40]], long),
                             ([[10 ** 40 - 2]], f"error: |det B| = {10 ** 40 - 2} "
                                                "exceeds the rank bound 512\n")):
            path = tmp_path / "b.mat"
            path.write_text("".join(" ".join(map(str, row)) + "\n" for row in matrix))
            assert main(["construct", "--b", str(path)]) == 2
            assert capsys.readouterr() == ("", line)
            assert len(line.encode()) < 120

    def test_gram_dimension_bound(self, tmp_path, capsys):
        # A_600 (2 on the diagonal, 1 next to it, |det B| = 601) ran 9-13 s
        # in its determinant before the rank bound refused it
        a_n = lambda n: "".join(" ".join("2" if i == j else "1" if abs(i - j) == 1 else "0"
                                         for j in range(n)) + "\n" for i in range(n))
        path = tmp_path / "a600.mat"
        path.write_text(a_n(600))
        code, seconds = self._exit_code_and_seconds(["construct", "--b", str(path)])
        assert code == 2 and seconds < 1.0
        assert capsys.readouterr().err == \
            "error: dimension 600 exceeds the Gram dimension bound 128\n"
        data = tmp_path / "a129.data"
        data.write_text("kind: modular_data\nrank: 1\ns_tilde: 1\ntwists: 1\nprovenance: "
                        + a_n(129).replace("\n", "; ").rstrip("; ") + "\n")
        code, seconds = self._exit_code_and_seconds(["verify", "--data", str(data)])
        assert code == 2 and seconds < 1.0
        assert capsys.readouterr().err == ("error: invalid provenance matrix: dimension 129 "
                                           "exceeds the Gram dimension bound 128\n")
        # A_128 is within the bound
        assert check_gram([row.split() for row in a_n(128).splitlines()]).determinant == 129

    def test_canonical_rank_bound(self, capsys):
        # refused before generating the corpus, which alone takes seconds
        code, seconds = self._exit_code_and_seconds(
            ["enumerate", "--max-dim", "3", "--max-entry", "5", "--max-rank", "12"])
        assert code == 2 and seconds < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "rank cap 12 exceeds the relabeling bound 8" in captured.err

    def test_enumerate_candidate_bound(self, capsys):
        # 3^15 candidates in dimension 6; generating them ran past 20 s
        code, seconds = self._exit_code_and_seconds(
            ["enumerate", "--max-dim", "6", "--max-entry", "1"])
        assert code == 2 and seconds < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "14408716 candidate matrices up to dimension 6 exceed the bound 1000000" \
            in captured.err

    @pytest.mark.parametrize("entry, twist", [
        ("e(1/1000003)", "e(1/1000003)"),  # one root past the bound (ran over 30 s)
        ("e(1/1009)", "e(1/1013)"),  # each root within it, the document not
        ("e(1/1009)+e(1/1013)", "e(1/4)"),  # one value past it
    ])
    def test_conductor_bound(self, tmp_path, capsys, entry, twist):
        path = tmp_path / "big.data"
        path.write_text(f"kind: modular_data\nrank: 2\ns_tilde: 1, 1; 1, {entry}\n"
                        f"twists: e(0/1), {twist}\n")
        code, seconds = self._exit_code_and_seconds(["verify", "--data", str(path)])
        assert code == 2 and seconds < 1.0
        assert "exceeds the bound 1024" in capsys.readouterr().err

    def test_dense_work_bound(self, tmp_path, capsys):
        # Fib^8: rank 256 at conductor 5, 3.9e10 units of estimated work; Fib^5
        # (0.25 s) and Fib^6 (1.7 s) show about 7x per doubling of the rank.
        path = tmp_path / "fib8.data"
        path.write_text(fibonacci_power_document(8))
        code, seconds = self._exit_code_and_seconds(["verify", "--data", str(path)])
        assert code == 2 and seconds < 1.0
        assert "exceeds the bound 2500000000" in capsys.readouterr().err
        path.write_text(fibonacci_power_document(3))
        assert main(["verify", "--data", str(path)]) == 0
        assert capsys.readouterr().out.endswith("result: pass\n")

    def test_dense_work_bound_counts_coefficient_size(self, tmp_path, capsys, su2):
        # S~_ij (i, j >= 1) times f: each 64-bit word of the largest coefficient
        # multiplies the estimate by w^(3/2); SU(2)_16 with f = 10^4000 + 7 took
        # 53 s, within the bound on rank and conductor alone
        def scaled(k, f):
            md = su2(k)
            rows = tuple(tuple(x if 0 in (i, j) else x * f for j, x in enumerate(row))
                         for i, row in enumerate(md.s_tilde))
            path = tmp_path / f"su2_{k}.data"
            path.write_text(serialize(ModularData(rank=md.rank, s_tilde=rows,
                                                  twists=md.twists)).body)
            return str(path)

        code, seconds = self._exit_code_and_seconds(
            ["verify", "--data", scaled(16, 10 ** 4000 + 7)])
        assert code == 2 and seconds < 1.0
        assert capsys.readouterr().err == (
            "error: estimated dense work 18484199552 exceeds the bound 2500000000\n")
        assert main(["verify", "--data", scaled(6, 10 ** 1000 + 7)]) == 1
        out = capsys.readouterr().out
        assert "check: unitarity fail" in out and out.endswith("result: fail\n")

    def test_data_with_a_group_law_is_not_work_bounded(self, semion_data, monkeypatch, capsys):
        monkeypatch.setattr(dense, "MAX_DENSE_WORK", 0)
        assert main(["verify", "--data", semion_data]) == 0
        path = Path(semion_data).with_name("fib.data")
        path.write_text(fibonacci_power_document(1))
        assert main(["verify", "--data", str(path)]) == 2
        assert "exceeds the bound 0" in capsys.readouterr().err

    @pytest.mark.parametrize("call, message", [
        (lambda: discriminant_group(check_gram([[1026]])),
         "|det B| = 1026 exceeds the rank bound 512"),
        (lambda: CorpusSpec(max_dim=1, max_entry=2, max_rank=513),
         "max_rank 513 exceeds the rank bound 512"),
        (lambda: parse_value("e(1/1031)"), "conductor 1031 exceeds the bound 1024"),
        (lambda: canonical_form(from_lattice(check_gram([[4, 1], [1, -2]]))),
         "rank 9 exceeds the bound 8"),
        (lambda: cli._cmd_enumerate(max_dim=1, max_entry=2, max_rank=9),
         "rank cap 9 exceeds the relabeling bound 8"),
        (lambda: CorpusSpec(max_dim=6, max_entry=1),
         "14408716 candidate matrices up to dimension 6 exceed the bound 1000000"),
        (lambda: dense.packed(parse(Document("modular_data", fibonacci_power_document(8)))),
         "estimated dense work 38654705664 exceeds the bound 2500000000"),
        (lambda: check_gram([[2 * (i == j) for j in range(129)] for i in range(129)]),
         "dimension 129 exceeds the Gram dimension bound 128"),
    ], ids=["MAX_RANK", "CorpusSpec.max_rank", "MAX_CONDUCTOR", "MAX_CANONICAL_RANK",
            "enumerate.max_rank", "MAX_CANDIDATES", "MAX_DENSE_WORK", "MAX_GRAM_DIM"])
    def test_every_bound_is_a_validation_error(self, call, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            call()

    def test_one_value_is_bounded_before_its_sum(self):
        with pytest.raises(ValidationError, match="conductor 1022117"):
            parse_value("e(1/1009)+e(1/1013)")
