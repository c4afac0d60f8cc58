import pytest

from pointedcat.cli import main

SEMION_MAT = "2\n"
HOPF_MAT = "# hopf link, zero framings\n0 1\n1 0\n"
CORRUPT_SEMION = """kind: modular_data
rank: 2
s_tilde: 1, 1; 1, -1
twists: e(0/1), e(0/1)
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

    def test_invalid_matrix(self, tmp_path, capsys):
        path = tmp_path / "odd.mat"
        path.write_text("1\n")
        assert main(["construct", "--b", str(path)]) == 2


class TestVerify:
    def test_constructed_data_passes(self, semion_data, capsys):
        assert main(["verify", "--data", semion_data]) == 0
        out = capsys.readouterr().out
        assert "result: pass" in out

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

    def test_corrupted_fails_and_names_relation(self, tmp_path, capsys):
        path = tmp_path / "corrupt.data"
        path.write_text(CORRUPT_SEMION)
        assert main(["verify", "--data", str(path)]) == 1
        out = capsys.readouterr().out
        assert "check: st_cubed fail" in out
        assert "check: gauss_identity fail" in out
        assert "result: fail" in out

    def test_parse_error_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "broken.data"
        path.write_text(CORRUPT_SEMION.replace("e(0/1), e(0/1)", "e(0/1), e(1/3"))
        assert main(["verify", "--data", str(path)]) == 2
        assert "error:" in capsys.readouterr().err


class TestFusion:
    def test_semion_outcome(self, semion_data, capsys):
        assert main(["fusion", "--data", semion_data, "--i", "1", "--j", "1"]) == 0
        assert capsys.readouterr().out == "0 1\n"

    def test_out_of_range_label(self, semion_data, capsys):
        assert main(["fusion", "--data", semion_data, "--i", "5", "--j", "0"]) == 2


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


class TestShow:
    def test_plain(self, semion_data, capsys):
        assert main(["show", "--data", semion_data]) == 0
        out = capsys.readouterr().out
        assert "rank: 2" in out
        assert "twists: 1, e(1/4)" in out
        assert "built from: [2]" in out

    def test_approx(self, semion_data, capsys):
        assert main(["show", "--data", semion_data, "--approx"]) == 0
        out = capsys.readouterr().out
        assert "(+0.000000+1.000000j)" in out


class TestExitCodeContract:
    def test_usage_error_without_command(self, capsys):
        assert main([]) == 2

    def test_unknown_flag(self, capsys):
        assert main(["verify", "--nope", "x"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0


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
