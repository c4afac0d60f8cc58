from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointedcat import (
    Document,
    ModularData,
    ParseError,
    PointedCatError,
    ValidationError,
    check_gram,
    parse,
    root_of_unity,
    serialize,
    verify_all,
)
from pointedcat.cyclo import Cyclotomic, sum_values

SEMION_DOC = """kind: modular_data
rank: 2
s_tilde: 1, 1; 1, -1
twists: e(0/1), e(1/4)
provenance: 2
"""


class TestGramDocuments:
    def test_round_trip(self):
        gram = check_gram([[0, 2], [2, 0]])
        doc = serialize(gram)
        assert doc.kind == "gram_matrix"
        assert doc.body == "0 2\n2 0\n"
        assert parse(doc) == gram

    def test_comments_and_blanks_ignored(self):
        text = "# the semion input\n\n2\n"
        assert parse(Document("gram_matrix", text)) == check_gram([[2]])

    def test_bad_token(self):
        with pytest.raises(ParseError) as info:
            parse(Document("gram_matrix", "2 x\nx 2\n"))
        assert info.value.line == 1

    def test_non_square_is_a_parse_error(self):
        with pytest.raises(ParseError, match="square, not 2 x 3"):
            parse(Document("gram_matrix", "0 0 0\n0 0 0\n"))


class TestModularDataDocuments:
    def test_semion_golden_document(self, semion):
        assert serialize(semion).body == SEMION_DOC

    def test_hand_written_semion_parses_to_construction(self, semion):
        assert parse(Document("modular_data", SEMION_DOC)) == semion

    def test_round_trip_fixtures(self, semion, toric, z3, ising):
        for md in (semion, toric, z3, ising):
            doc = serialize(md)
            assert parse(doc) == md
            assert serialize(parse(doc)).body == doc.body

    def test_round_trip_corpus_sample(self, corpus3_data):
        for _, md in corpus3_data[::7]:
            doc = serialize(md)
            assert parse(doc) == md

    def test_label_names_preserved(self, semion):
        named = ModularData(rank=2, s_tilde=semion.s_tilde, twists=semion.twists,
                            label_names=("unit", "s"))
        doc = serialize(named)
        assert "labels: unit, s" in doc.body
        assert parse(doc) == named

    def test_unknown_key_rejected(self):
        bad = SEMION_DOC + "color: blue\n"
        with pytest.raises(ParseError):
            parse(Document("modular_data", bad))

    def test_unbalanced_root_position(self):
        bad = SEMION_DOC.replace("e(1/4)", "e(1/4")
        with pytest.raises(ParseError) as info:
            parse(Document("modular_data", bad))
        assert info.value.line == 4
        assert info.value.column > 0

    def test_asymmetric_matrix_rejected(self):
        bad = SEMION_DOC.replace("1, 1; 1, -1", "1, 1; -1, -1")
        with pytest.raises(ValidationError):
            parse(Document("modular_data", bad))

    def test_nonroot_twist_rejected(self):
        bad = SEMION_DOC.replace("e(1/4)", "2")
        with pytest.raises(ValidationError):
            parse(Document("modular_data", bad))

    def test_missing_key(self):
        bad = "kind: modular_data\nrank: 1\ns_tilde: 1\n"
        with pytest.raises(ParseError):
            parse(Document("modular_data", bad))

    def test_bad_provenance(self):
        bad = SEMION_DOC.replace("provenance: 2", "provenance: 1")
        with pytest.raises(ValidationError):
            parse(Document("modular_data", bad))

    def test_provenance_rank_contradiction(self):
        # |det B| = 2 for a rank-1 document
        bad = "kind: modular_data\nrank: 1\ns_tilde: 1\ntwists: e(0/1)\nprovenance: 2\n"
        with pytest.raises(ValidationError, match="rank"):
            parse(Document("modular_data", bad))

    def test_provenance_twist_contradiction(self):
        # anti-semion twists under the semion lattice, which implies e(1/4)
        bad = SEMION_DOC.replace("e(1/4)", "e(3/4)")
        with pytest.raises(ValidationError) as info:
            parse(Document("modular_data", bad))
        assert str(info.value) == "twist 1 is e(3/4), but provenance gives e(1/4)"

    def test_provenance_s_tilde_contradiction(self):
        # twists of the semion, but S~ of no lattice with |det B| = 2
        bad = SEMION_DOC.replace("s_tilde: 1, 1; 1, -1", "s_tilde: 1, 1; 1, 1")
        with pytest.raises(ValidationError) as info:
            parse(Document("modular_data", bad))
        assert str(info.value) == "s_tilde (1,1) is 1, but provenance gives -1"

    def test_provenance_checked_on_corpus_documents(self, corpus3_data):
        for _, md in corpus3_data[::5]:
            assert parse(serialize(md)) == md

    def test_rank_mismatch(self):
        bad = SEMION_DOC.replace("rank: 2", "rank: 3")
        with pytest.raises(ValidationError):
            parse(Document("modular_data", bad))


class TestReportGolden:
    """Report text of the verify pipeline, byte for byte."""

    def test_semion_passes(self, semion):
        doc = serialize(verify_all(semion))
        assert doc.kind == "report"
        assert doc.body == (
            "kind: report\n"
            "check: gauss_identity pass: p+ p- = D^2\n"
            "check: unitarity pass: S~ conj(S~)^t = D^2 I\n"
            "check: verlinde_integral pass: all N(i,j)^k are non-negative integers\n"
            "check: twists_unit pass: twist of the unit is 1\n"
            "check: s_symmetric pass: S~ = S~^t\n"
            "check: charge_conjugation pass: S~^2 = D^2 C with C a permutation\n"
            "check: conjugation_involution pass: C^2 = I\n"
            "check: st_cubed pass: (S~ T)^3 = p+ D^2 I\n"
            "result: pass\n"
        )

    def test_corrupted_semion_fails_gauss_and_cube(self, semion):
        corrupted = ModularData(rank=2, s_tilde=semion.s_tilde,
                                twists=(root_of_unity(0), root_of_unity(0)))
        assert serialize(verify_all(corrupted)).body == (
            "kind: report\n"
            "check: gauss_identity fail: p+ p- = D^2\n"
            "check: unitarity pass: S~ conj(S~)^t = D^2 I\n"
            "check: verlinde_integral pass: all N(i,j)^k are non-negative integers\n"
            "check: twists_unit pass: twist of the unit is 1\n"
            "check: s_symmetric pass: S~ = S~^t\n"
            "check: charge_conjugation pass: S~^2 = D^2 C with C a permutation\n"
            "check: conjugation_involution pass: C^2 = I\n"
            "check: st_cubed fail: (S~ T)^3 = p+ D^2 I\n"
            "result: fail\n"
        )

    def test_report_kind_not_parsed(self, semion):
        with pytest.raises(ParseError):
            parse(serialize(verify_all(semion)))


class TestDeterminism:
    def test_serialize_twice_identical(self, corpus3_data):
        for _, md in corpus3_data[::11]:
            assert serialize(md).body == serialize(md).body

    def test_serialize_parse_serialize_fixed_point(self, toric):
        doc = serialize(toric)
        again = serialize(parse(doc))
        assert again.body == doc.body


# Fragments of both grammars, so random documents reach past the first line.
_fragments = st.sampled_from([
    "kind: modular_data\n", "kind:", "modular_data", "rank: ", "labels: ", "s_tilde: ",
    "twists: ", "provenance: ", "e(", ")", "/", ",", ";", "*", "+", "-", " ", "\n", "#",
    ":", "0", "1", "2", "3", "4", "7", "1021", "99999999999", "e(1/4)", "e(0/1)", "1/2",
])
_rows = st.lists(st.integers(-4, 4), min_size=1, max_size=3).map(lambda r: " ".join(map(str, r)))
_texts = st.one_of(st.text(max_size=80), st.lists(_fragments, max_size=40).map("".join),
                   st.lists(_rows, min_size=1, max_size=3).map("\n".join))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(kind=st.sampled_from(["gram_matrix", "modular_data"]), text=_texts)
def test_parse_raises_only_package_errors(kind, text):
    try:
        parse(Document(kind, text))
    except PointedCatError:
        pass


_roots = st.builds(F, st.integers(0, 23), st.sampled_from([1, 2, 3, 4, 6, 8, 12, 24]))
_values = st.lists(st.tuples(st.builds(F, st.integers(-4, 4), st.integers(1, 3)), _roots),
                   max_size=3).map(lambda terms: sum_values(
                       [Cyclotomic.from_rational(c) * root_of_unity(q) for c, q in terms]))


@st.composite
def _generic_data(draw):
    rank = draw(st.integers(1, 4))
    rows = [[None] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i, rank):
            rows[i][j] = rows[j][i] = Cyclotomic.one() if i == j == 0 else draw(_values)
    twists = (Cyclotomic.one(),) + tuple(root_of_unity(draw(_roots)) for _ in range(rank - 1))
    return ModularData(rank=rank, s_tilde=tuple(map(tuple, rows)), twists=twists)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(md=_generic_data())
def test_parse_inverts_serialize_on_generic_data(md):
    doc = serialize(md)
    assert parse(doc) == md
    assert serialize(parse(doc)).body == doc.body
