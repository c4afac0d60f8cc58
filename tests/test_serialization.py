import random
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
    from_lattice,
    parse,
    parse_gram_text,
    root_of_unity,
    serialize,
    verify_all,
)
from pointedcat import cyclo, lattice, serialization, values
from pointedcat.cyclo import Cyclotomic, sum_values
from pointedcat.errors import MAX_CONDUCTOR

SEMION_DOC = """kind: modular_data
rank: 2
s_tilde: 1, 1; 1, -1
twists: e(0/1), e(1/4)
provenance: 2
"""


class TestGramDocuments:
    """Matrix files are input only, read by parse_gram_text."""

    def test_round_trip(self):
        text = "0 2\n2 0\n"
        gram = parse_gram_text(text)
        assert gram == check_gram([[0, 2], [2, 0]])
        assert "".join(" ".join(map(str, row)) + "\n" for row in gram.entries) == text

    def test_comments_and_blanks_ignored(self):
        text = "# the semion input\n\n2\n"
        assert parse_gram_text(text) == check_gram([[2]])

    def test_bad_token(self):
        with pytest.raises(ParseError) as info:
            parse_gram_text("2 x\nx 2\n")
        assert info.value.line == 1

    def test_non_square_is_a_parse_error(self):
        with pytest.raises(ParseError, match="square, not 2 x 3"):
            parse_gram_text("0 0 0\n0 0 0\n")


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

    @pytest.mark.parametrize("rows, twists, message", [
        # twist 2, then S~ entry (1,2) = (2,1), then the diagonal entry (3,3)
        ("1, 1, 1, 1; 1, 1, -1, -1; 1, -1, 1, -1; 1, -1, -1, 1", "e(0/1), e(0/1), e(1/2), e(1/2)",
         "twist 2 is e(1/2), but provenance gives e(0/1)"),
        ("1, 1, 1, 1; 1, 1, 1, -1; 1, 1, 1, -1; 1, -1, -1, 1", "e(0/1), e(0/1), e(0/1), e(1/2)",
         "s_tilde (1,2) is 1, but provenance gives -1"),
        ("1, 1, 1, 1; 1, 1, -1, -1; 1, -1, 1, -1; 1, -1, -1, -1", "e(0/1), e(0/1), e(0/1), e(1/2)",
         "s_tilde (3,3) is -1, but provenance gives 1"),
    ])
    def test_provenance_mismatch_of_a_table_builds_no_values(self, rows, twists, message,
                                                             monkeypatch):
        # a document of root tokens under the toric code's lattice is compared
        # with it by tokens: no rank^2 values are built to name the entry
        doc = Document("modular_data", f"kind: modular_data\nrank: 4\ns_tilde: {rows}\n"
                                       f"twists: {twists}\nprovenance: 0 2; 2 0\n")

        def refuse(*table):
            raise AssertionError("table values built")

        monkeypatch.setattr(values, "table_values", refuse)
        with pytest.raises(ValidationError) as info:
            parse(doc)
        assert str(info.value) == message

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

    def test_other_values_are_not_serialized(self):
        with pytest.raises(TypeError, match="cannot serialize object"):
            serialize(object())


class TestDeterminism:
    def test_serialize_twice_identical(self, corpus3_data):
        for _, md in corpus3_data[::11]:
            assert serialize(md).body == serialize(md).body

    def test_serialize_parse_serialize_fixed_point(self, toric):
        doc = serialize(toric)
        again = serialize(parse(doc))
        assert again.body == doc.body

    def test_each_distinct_value_is_formatted_once(self, monkeypatch, su2):
        # pointed data prints from its exponent table, with no format_value
        # call; other data formats each distinct object once, and parse shares
        # one object per token
        md = from_lattice(check_gram([[64]]))
        generic = parse(serialize(su2(16)))
        format_value = cyclo.format_value
        calls = []
        monkeypatch.setattr(cyclo, "format_value", lambda x: calls.append(x) or format_value(x))
        for data in (md, parse(serialize(md)), generic):
            del calls[:]
            body = serialize(data).body
            distinct = len({id(x) for row in data.s_tilde for x in row})
            if data is generic:
                assert 0 < len(calls) <= distinct < data.rank ** 2
            else:
                assert not calls and distinct <= 64
            rows = "; ".join(", ".join(map(format_value, row)) for row in data.s_tilde)
            assert f"\ns_tilde: {rows}\n" in body


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
        parse_gram_text(text) if kind == "gram_matrix" else parse(Document(kind, text))
    except PointedCatError:
        pass


_roots = st.builds(F, st.integers(0, 23), st.sampled_from([1, 2, 3, 4, 6, 8, 12, 24]))
_values = st.lists(st.tuples(st.builds(F, st.integers(-4, 4), st.integers(1, 3)), _roots),
                   max_size=3).map(lambda terms: sum_values(
                       [Cyclotomic.from_rational(c) * root_of_unity(q) for c, q in terms]))


@st.composite
def _generic_data(draw):
    rank = draw(st.integers(1, 4))
    one = Cyclotomic.from_rational(1)
    rows = [[None] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i, rank):
            rows[i][j] = rows[j][i] = one if i == j == 0 else draw(_values)
    twists = (one,) + tuple(root_of_unity(draw(_roots)) for _ in range(rank - 1))
    return ModularData(rank=rank, s_tilde=tuple(map(tuple, rows)), twists=twists)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(md=_generic_data())
def test_parse_inverts_serialize_on_generic_data(md):
    doc = serialize(md)
    assert parse(doc) == md
    assert serialize(parse(doc)).body == doc.body


def _outcome(call):
    try:
        return call()
    except PointedCatError as exc:
        return type(exc), str(exc)


def _semion_body(entry="-1", twist="e(1/4)", tail=""):
    return (f"kind: modular_data\nrank: 2\ns_tilde: 1, 1; 1, {entry}\n"
            f"twists: e(0/1), {twist}\n{tail}")


# The data of the semion with S~_11 and twist 1 written as below, as
# serialize writes it without provenance, and the error under the semion's
# provenance, if any
_OTHER_TOKENS = {
    ("e(2/4)", "e(1/4)"): ("1, 1; 1, -1", "e(1/4)", None),  # not in lowest terms
    ("e(5/4)", "e(1/4)"): ("1, 1; 1, e(1/4)", "e(1/4)",  # not below 1
                           "s_tilde (1,1) is e(1/4), but provenance gives -1"),
    ("1*e(1/4)", "e(1/4)"): ("1, 1; 1, e(1/4)", "e(1/4)",  # a coefficient
                             "s_tilde (1,1) is e(1/4), but provenance gives -1"),
    ("2/2", "e(1/4)"): ("1, 1; 1, 1", "e(1/4)",  # a rational
                        "s_tilde (1,1) is 1, but provenance gives -1"),
    ("e( 1/4 )", "e(1/4)"): ("1, 1; 1, e(1/4)", "e(1/4)",  # spaces inside the root
                             "s_tilde (1,1) is e(1/4), but provenance gives -1"),
    ("-1", "e(1/4)+0"): ("1, 1; 1, -1", "e(1/4)", None),  # a sum
    # the lcm counts e(2/4) = -1 at conductor 1, not 4
    ("e(2/4)", "e(1/257)"): ("1, 1; 1, -1", "e(1/257)",
                             "twist 1 is e(1/257), but provenance gives e(1/4)"),
    ("e(4/8)", "e(1/257)"): ("1, 1; 1, -1", "e(1/257)",
                             "twist 1 is e(1/257), but provenance gives e(1/4)"),
}

# The outcome of root documents: the document serialize writes, or the error
_ROOT_DOCUMENTS = {
    _semion_body("1"): _semion_body("1"),  # S~ of all ones: not unitary, but data
    _semion_body(twist="1"): _semion_body(twist="e(0/1)"),
    _semion_body(twist="e(1/2)"): _semion_body(twist="e(1/2)"),
    _semion_body(tail="provenance: 2\n"): _semion_body(tail="provenance: 2\n"),
    # the anti-semion's twist
    _semion_body(twist="e(3/4)", tail="provenance: 2\n"):
        (ValidationError, "twist 1 is e(3/4), but provenance gives e(1/4)"),
    _semion_body("1", tail="provenance: 2\n"):
        (ValidationError, "s_tilde (1,1) is 1, but provenance gives -1"),
    _semion_body(tail="provenance: 0 2; 2 0\n"):  # |det B| = 4
        (ValidationError, "provenance has |det B| = 4, but rank is 2"),
    _semion_body(tail="provenance: 1\n"):  # odd diagonal
        (ValidationError, "invalid provenance matrix: diagonal entry (0,0) = 1 is odd"),
    _semion_body(tail="provenance: 1026\n"):  # past MAX_RANK
        (ValidationError, "|det B| = 1026 exceeds the rank bound 512"),
    _semion_body(tail="labels: a, b, c\n"):
        (ValidationError, "label_names length does not match rank"),
    _semion_body(tail="labels: a, b\nrank: 2\n"):
        (ParseError, "line 6, column 1: duplicate key 'rank'"),
    _semion_body(tail="colour: 1\n"): (ParseError, "line 5, column 1: unknown key 'colour'"),
    "kind: modular_data\nrank: 2\ns_tilde: 1, 1; -1, -1\ntwists: e(0/1), e(1/4)\n":
        (ValidationError, "s_tilde is not symmetric at (0,1)"),
    "kind: modular_data\nrank: 2\ns_tilde: -1, 1; 1, -1\ntwists: e(0/1), e(1/4)\n":
        (ValidationError, "s_tilde[0][0] must be 1"),
    "kind: modular_data\nrank: 2\ns_tilde: 1, 1; 1, -1\ntwists: e(1/4), e(1/4)\n":
        (ValidationError, "twist of the tensor unit must be 1"),
    # d_1 = -1: a table, but no group law
    "kind: modular_data\nrank: 2\ns_tilde: 1, -1; -1, 1\ntwists: e(0/1), e(1/4)\n":
        "kind: modular_data\nrank: 2\ns_tilde: 1, -1; -1, 1\ntwists: e(0/1), e(1/4)\n",
    "kind: modular_data\nrank: 3\ns_tilde: 1, 1; 1, -1\ntwists: e(0/1), e(1/4)\n":
        (ValidationError, "rank does not match matrix and twist sizes"),
    "kind: modular_data\nrank: 2\ns_tilde: 1, 1; 1\ntwists: e(0/1), e(1/4)\n":
        (ValidationError, "s_tilde is not square"),
    "kind: modular_data\nrank: 2\ns_tilde:1,1;1,-1\ntwists:  e(0/1) ,e(1/4)\n": _semion_body(),
}


class TestIntegerParse:
    """parse reads each line and each distinct chunk once: a root token as
    serialize writes it becomes its (a, b), any other chunk its Cyclotomic
    value. A document of root tokens becomes its exponent table, whatever
    its row 0 and with or without provenance; any other is built from values.
    Each outcome is pinned as the previous two-parse design gave it."""

    @pytest.mark.parametrize("entry, twist, error", [
        ("e(2/4)", "e(1/4)", None),
        ("e(5/4)", "e(1/4)", None),
        ("1*e(1/4)", "e(1/4)", None),
        ("2/2", "e(1/4)", None),
        ("e( 1/4 )", "e(1/4)", None),
        ("-1", "e(1/4)+0", None),
        ("-1", f"e(1/{MAX_CONDUCTOR + 7})",
         (ValidationError, f"conductor {MAX_CONDUCTOR + 7} exceeds the bound {MAX_CONDUCTOR}")),
        ("e(1/1009)", "e(1/1013)",
         (ValidationError, f"conductor 1022117 exceeds the bound {MAX_CONDUCTOR}")),
        ("e(1/4", "e(1/4)", (ParseError, "line 3, column 19: bad root of unity 'e(1/4'")),
        ("1++e(1/4)", "e(1/4)",
         (ParseError, "line 3, column 19: empty term in value '1++e(1/4)'")),
        ("e(2/4)", "e(1/257)", None),
        ("e(4/8)", "e(1/257)", None),
        # e(1/4) counts at conductor 4, and a sum at its own conductor (12 here, not 3)
        ("e(1/4)", "e(1/257)",
         (ValidationError, f"conductor 1028 exceeds the bound {MAX_CONDUCTOR}")),
        ("e(1/3)+e(1/4)+-1*e(1/4)", "e(1/257)",
         (ValidationError, f"conductor 3084 exceeds the bound {MAX_CONDUCTOR}")),
        # the first bad chunk in reading order, a ParseError or a ValidationError
        ("e(1/4", "e(1/1031)", (ParseError, "line 3, column 19: bad root of unity 'e(1/4'")),
        ("e(1/1031)", "e(1/4",
         (ValidationError, f"conductor 1031 exceeds the bound {MAX_CONDUCTOR}")),
    ])
    def test_other_tokens_take_the_cyclotomic_parse(self, entry, twist, error):
        # without provenance, and with the semion's; data read from values
        # becomes a table once written in root tokens
        for tail in ("", "provenance: 2\n"):
            body = _semion_body(entry, twist, tail)
            got = _outcome(lambda: parse(Document("modular_data", body)))
            if error is not None:
                assert got == error
                continue
            s_tilde, twist_1, contradiction = _OTHER_TOKENS[entry, twist]
            if tail and contradiction:
                assert got == (ValidationError, contradiction)
                continue
            # built from values, whose exponent table, formed at
            # construction, is that of the same data in root tokens
            want = f"kind: modular_data\nrank: 2\ns_tilde: {s_tilde}\n" \
                   f"twists: e(0/1), {twist_1}\n{tail}"
            again = parse(Document("modular_data", want))
            assert "_exponents" in vars(again) and "s_tilde" not in vars(again)
            assert "s_tilde" in vars(got) and vars(got)["_exponents"] == vars(again)["_exponents"]
            assert serialize(got).body == want
            assert again == got and serialize(again).body == want

    @pytest.mark.parametrize("body", list(_ROOT_DOCUMENTS))
    def test_root_documents_match_the_cyclotomic_parse(self, body):
        got = _outcome(lambda: parse(Document("modular_data", body)))
        outcome = _ROOT_DOCUMENTS[body]
        if isinstance(outcome, tuple):
            assert got == outcome
        else:
            # always a table; only the group law reads row 0
            assert "_exponents" in vars(got) and "s_tilde" not in vars(got)
            if "1, -1;" in body:  # d_1 = -1
                assert got._law is None
            assert serialize(got).body == outcome

    def test_only_the_group_law_reads_row_0(self):
        # the toric code with the boson e at label 0: its rows form a group,
        # but row 0 is not the unit, so the table has no law and every check
        # runs dense (the report pinned as the parse from values gave it)
        body = ("kind: modular_data\nrank: 4\n"
                "s_tilde: 1, 1, -1, -1; 1, 1, 1, 1; -1, 1, 1, -1; -1, 1, -1, 1\n"
                "twists: e(0/1), e(0/1), e(0/1), e(1/2)\n")
        md = parse(Document("modular_data", body))
        assert vars(md)["_exponents"][1][0] == (0, 0, 1, 1) and md._law is None
        assert serialize(md).body == body
        assert serialize(verify_all(md)).body == (
            "kind: report\n"
            "check: gauss_identity pass: p+ p- = D^2\n"
            "check: unitarity pass: S~ conj(S~)^t = D^2 I\n"
            "check: verlinde_integral pass: all N(i,j)^k are non-negative integers\n"
            "check: twists_unit pass: twist of the unit is 1\n"
            "check: s_symmetric pass: S~ = S~^t\n"
            "check: charge_conjugation pass: S~^2 = D^2 C with C a permutation\n"
            "check: conjugation_involution pass: C^2 = I\n"
            "check: st_cubed pass: (S~ T)^3 = p+ D^2 I\n"
            "result: pass\n")

    def test_corpus_documents_are_tables(self, corpus3_data):
        # the lattice's own table, n included, so the provenance check is one
        # comparison; and the same data as built from values
        for gram, md in corpus3_data:
            parsed = parse(serialize(md))
            assert vars(parsed)["_exponents"] == vars(md)["_exponents"]
            built = ModularData(rank=md.rank, s_tilde=md.s_tilde, twists=md.twists,
                                provenance=gram)
            assert vars(built)["_exponents"] == vars(parsed)["_exponents"] and parsed == built

    def test_provenance_table_is_formed_after_the_rank_check(self, monkeypatch):
        # a rank that contradicts a large provenance lattice is refused before
        # the lattice's table is formed, and the rank bound still comes before
        # check_fields in the error order
        def refused(gram):
            raise AssertionError("pairing_exponents was called")

        monkeypatch.setattr(lattice, "pairing_exponents", refused)
        for tail, error in (
                ("provenance: 512\n", "provenance has |det B| = 512, but rank is 2"),
                ("labels: a, b, c\nprovenance: 600\n",
                 "|det B| = 600 exceeds the rank bound 512")):
            got = _outcome(lambda: parse(Document("modular_data", _semion_body(tail=tail))))
            assert got == (ValidationError, error)

    def test_generic_document_is_read_once(self, monkeypatch, su2):
        # every content line is read once, and each distinct chunk goes
        # through parse_value once, also one that both S~ and a twist hold
        lines, values = [], []
        key_value_lines, parse_value = serialization._key_value_lines, cyclo.parse_value
        monkeypatch.setattr(serialization, "_key_value_lines",
                            lambda *args: (lines.append(line) or line
                                           for line in key_value_lines(*args)))
        monkeypatch.setattr(cyclo, "parse_value", lambda text: values.append(text) or
                            parse_value(text))
        semion = parse(Document("modular_data", _semion_body("-1", "e(1/2)")))
        for body, md in ((serialize(su2(6)).body, su2(6)),
                         (_semion_body("1*e(1/2)", "1*e(1/2)"), semion)):
            del lines[:], values[:]
            assert parse(Document("modular_data", body)) == md
            assert [key for key, *_ in lines] == ["rank", "s_tilde", "twists"]
            chunks = {chunk for line in body.splitlines()[2:] for row in
                      line.partition(":")[2].strip().split(";") for chunk in row.split(",")}
            assert len(values) == len(chunks) < md.rank * (md.rank + 1)


_GRID_TOKENS = ("1", "-1", "e(0/1)", "e(1/2)", "e(1/4)", "e(3/4)", "e(2/4)", "e(5/4)",
                "1*e(1/4)", "2/2", "e( 1/4 )", "e(1/4)+0", "e(1/1031)", "e(1/1009)", "e(1/4",
                "1++e(1/4)", "", "e(1/257)", "e(1/3)+e(1/4)+-1*e(1/4)", "e(1/3)", "e(4/8)",
                "e(1/5)+e(4/5)", "1/0", "e(7/12)")
_GRID_TAILS = ("", "provenance: 2\n", "provenance: 0 2; 2 0\n", "provenance: 1\n",
               "provenance: 6\n", "labels: a, b\n", "labels: a, b\nprovenance: 2\n")


def _grid_documents():
    """The semion with every pair of grid tokens as S~_11 and twist 1, under
    every tail; then 30 seeded corruptions of one chunk each of the documents
    of four lattices."""
    docs = [_semion_body(entry, twist, tail) for tail in _GRID_TAILS
            for entry in _GRID_TOKENS for twist in _GRID_TOKENS]
    rng = random.Random(27)
    for gram in ([[2]], [[0, 2], [2, 0]], [[2, 1], [1, 2]], [[4, 1], [1, 2]]):
        lines = serialize(from_lattice(check_gram(gram))).body.splitlines(keepends=True)
        for _ in range(30):
            i = rng.choice((2, 3))  # the s_tilde or twists line
            key, _, value = lines[i].partition(":")
            rows = [row.split(",") for row in value.rstrip("\n").split(";")]
            row = rng.choice(rows)
            k = rng.randrange(len(row))
            row[k] = row[k][:len(row[k]) - len(row[k].lstrip())] + rng.choice(_GRID_TOKENS)
            docs.append("".join(lines[:i] + [f"{key}:{';'.join(map(','.join, rows))}\n"]
                                + lines[i + 1:]))
    return docs


def _outcome_text(body):
    """The exception type and text, or the document serialize writes, less
    its kind line."""
    try:
        return serialize(parse(Document("modular_data", body))).body.partition("\n")[2]
    except PointedCatError as exc:
        return f"{type(exc).__name__}: {exc}"


def _from_tokens(body):
    """ModularData built from cyclo.parse_value of each token of a grid
    document that parses."""
    fields = dict(line.split(":", 1) for line in body.splitlines()[1:])
    row = lambda text: tuple(map(cyclo.parse_value, text.split(",")))
    provenance = fields.get("provenance")
    labels = fields.get("labels")
    return ModularData(
        rank=int(fields["rank"]), s_tilde=tuple(map(row, fields["s_tilde"].split(";"))),
        twists=row(fields["twists"]),
        provenance=provenance and check_gram([r.split() for r in provenance.split(";")]),
        label_names=labels and tuple(name.strip() for name in labels.split(",")))


# The outcome of grid documents by index, as the previous two-parse design
# gave it: every distinct error text of the grid, and more data documents.
_GRID_PINS = {
    7: 'rank: 2\ns_tilde: 1, 1; 1, 1\ntwists: e(0/1), e(1/4)\n',
    12: 'ValidationError: conductor 1031 exceeds the bound 1024',
    14: "ParseError: line 4, column 17: bad root of unity 'e(1/4'",
    15: "ParseError: line 4, column 17: empty term in value '1++e(1/4)'",
    16: 'ParseError: line 4, column 16: empty value',
    17: 'rank: 2\ns_tilde: 1, 1; 1, 1\ntwists: e(0/1), e(1/257)\n',
    21: 'ValidationError: twist 1 is not a root of unity',
    22: "ParseError: line 4, column 17: bad rational '1/0'",
    28: 'rank: 2\ns_tilde: 1, 1; 1, -1\ntwists: e(0/1), e(1/4)\n',
    35: 'rank: 2\ns_tilde: 1, 1; 1, -1\ntwists: e(0/1), e(1/4)\n',
    71: 'rank: 2\ns_tilde: 1, 1; 1, 1\ntwists: e(0/1), e(7/12)\n',
    97: 'rank: 2\ns_tilde: 1, 1; 1, e(1/4)\ntwists: e(0/1), e(1/2)\n',
    98: 'rank: 2\ns_tilde: 1, 1; 1, e(1/4)\ntwists: e(0/1), e(0/1)\n',
    109: 'ValidationError: conductor 4036 exceeds the bound 1024',
    113: 'ValidationError: conductor 1028 exceeds the bound 1024',
    144: 'rank: 2\ns_tilde: 1, 1; 1, -1\ntwists: e(0/1), e(0/1)\n',
    155: 'rank: 2\ns_tilde: 1, 1; 1, -1\ntwists: e(0/1), e(1/4)\n',
    161: 'rank: 2\ns_tilde: 1, 1; 1, -1\ntwists: e(0/1), e(1/257)\n',
    175: 'rank: 2\ns_tilde: 1, 1; 1, e(1/4)\ntwists: e(0/1), e(1/4)\n',
    187: 'rank: 2\ns_tilde: 1, 1; 1, e(1/4)\ntwists: e(0/1), e(1/3)\n',
    196: 'rank: 2\ns_tilde: 1, 1; 1, e(1/4)\ntwists: e(0/1), e(1/4)\n',
    222: 'rank: 2\ns_tilde: 1, 1; 1, 1\ntwists: e(0/1), e(1/2)\n',
    225: 'rank: 2\ns_tilde: 1, 1; 1, 1\ntwists: e(0/1), e(0/1)\n',
    260: 'rank: 2\ns_tilde: 1, 1; 1, e(1/4)\ntwists: e(0/1), e(1/2)\n',
    329: 'ValidationError: conductor 259313 exceeds the bound 1024',
    330: 'ValidationError: conductor 12108 exceeds the bound 1024',
    331: 'ValidationError: conductor 3027 exceeds the bound 1024',
    333: 'ValidationError: conductor 5045 exceeds the bound 1024',
    336: "ParseError: line 3, column 19: bad root of unity 'e(1/4'",
    360: "ParseError: line 3, column 19: empty term in value '1++e(1/4)'",
    384: 'ParseError: line 3, column 18: empty value',
    426: 'ValidationError: conductor 3084 exceeds the bound 1024',
    429: 'ValidationError: conductor 1285 exceeds the bound 1024',
    432: 'rank: 2\ns_tilde: 1, 1; 1, e(1/3)\ntwists: e(0/1), e(0/1)\n',
    476: 'rank: 2\ns_tilde: 1, 1; 1, e(1/3)\ntwists: e(0/1), e(1/2)\n',
    481: 'rank: 2\ns_tilde: 1, 1; 1, -1\ntwists: e(0/1), e(1/2)\n',
    487: 'rank: 2\ns_tilde: 1, 1; 1, -1\ntwists: e(0/1), e(1/4)\n',
    524: 'rank: 2\ns_tilde: 1, 1; 1, -1+-1*e(2/5)+-1*e(3/5)\ntwists: e(0/1), e(1/2)\n',
    528: "ParseError: line 3, column 19: bad rational '1/0'",
    576: 'ValidationError: twist 1 is e(0/1), but provenance gives e(1/4)',
    577: 'ValidationError: twist 1 is e(1/2), but provenance gives e(1/4)',
    580: 'ValidationError: s_tilde (1,1) is 1, but provenance gives -1',
    581: 'ValidationError: twist 1 is e(3/4), but provenance gives e(1/4)',
    589: 'ValidationError: twist 1 is e(1/1009), but provenance gives e(1/4)',
    593: 'ValidationError: twist 1 is e(1/257), but provenance gives e(1/4)',
    594: 'ValidationError: twist 1 is e(1/3), but provenance gives e(1/4)',
    599: 'ValidationError: twist 1 is e(7/12), but provenance gives e(1/4)',
    640: 'ParseError: line 4, column 16: empty value',
    676: 'ValidationError: s_tilde (1,1) is e(1/4), but provenance gives -1',
    700: 'ValidationError: s_tilde (1,1) is e(3/4), but provenance gives -1',
    725: 'ValidationError: twist 1 is e(3/4), but provenance gives e(1/4)',
    727: 'rank: 2\ns_tilde: 1, 1; 1, -1\ntwists: e(0/1), e(1/4)\nprovenance: 2\n',
    790: "ParseError: line 4, column 17: bad rational '1/0'",
    852: 'ValidationError: conductor 1031 exceeds the bound 1024',
    860: 'ValidationError: twist 1 is e(1/2), but provenance gives e(1/4)',
    884: 'ValidationError: conductor 1031 exceeds the bound 1024',
    903: "ParseError: line 4, column 17: empty term in value '1++e(1/4)'",
    928: "ParseError: line 3, column 19: bad root of unity 'e(1/4'",
    1012: 'ValidationError: s_tilde (1,1) is e(1/3), but provenance gives -1',
    1084: 'ValidationError: s_tilde (1,1) is -1+-1*e(2/5)+-1*e(3/5), but provenance gives -1',
    1132: 'ValidationError: s_tilde (1,1) is e(7/12), but provenance gives -1',
    1152: 'ValidationError: provenance has |det B| = 4, but rank is 2',
    1234: 'ValidationError: provenance has |det B| = 4, but rank is 2',
    1273: 'ValidationError: provenance has |det B| = 4, but rank is 2',
    1334: "ParseError: line 4, column 17: bad root of unity 'e(1/4'",
    1529: "ParseError: line 3, column 19: empty term in value '1++e(1/4)'",
    1619: 'ValidationError: provenance has |det B| = 4, but rank is 2',
    1728: 'ValidationError: invalid provenance matrix: diagonal entry (0,0) = 1 is odd',
    1750: "ParseError: line 4, column 17: bad rational '1/0'",
    2259: "ParseError: line 3, column 19: bad rational '1/0'",
    2304: 'ValidationError: provenance has |det B| = 6, but rank is 2',
    2614: 'ValidationError: conductor 1031 exceeds the bound 1024',
    2828: 'ValidationError: provenance has |det B| = 6, but rank is 2',
    2880: 'rank: 2\nlabels: a, b\ns_tilde: 1, 1; 1, 1\ntwists: e(0/1), e(0/1)\n',
    2935: 'rank: 2\nlabels: a, b\ns_tilde: 1, 1; 1, 1\ntwists: e(0/1), e(1/4)\n',
    2954: 'rank: 2\nlabels: a, b\ns_tilde: 1, 1; 1, -1\ntwists: e(0/1), e(0/1)\n',
    2963: 'rank: 2\nlabels: a, b\ns_tilde: 1, 1; 1, -1\ntwists: e(0/1), e(1/4)\n',
    2978: 'rank: 2\nlabels: a, b\ns_tilde: 1, 1; 1, e(1/4)\ntwists: e(0/1), e(0/1)\n',
    3005: 'rank: 2\nlabels: a, b\ns_tilde: 1, 1; 1, e(3/4)\ntwists: e(0/1), e(3/4)\n',
    3057: 'rank: 2\nlabels: a, b\ns_tilde: 1, 1; 1, e(1/4)\ntwists: e(0/1), e(0/1)\n',
    3092: 'rank: 2\nlabels: a, b\ns_tilde: 1, 1; 1, e(1/4)\ntwists: e(0/1), e(1/2)\n',
    3098: 'rank: 2\nlabels: a, b\ns_tilde: 1, 1; 1, 1\ntwists: e(0/1), e(0/1)\n',
    3228: "ParseError: line 3, column 19: bad root of unity 'e(1/4'",
    3305: 'rank: 2\nlabels: a, b\ns_tilde: 1, 1; 1, e(1/257)\ntwists: e(0/1), e(1/257)\n',
    3323: 'rank: 2\nlabels: a, b\ns_tilde: 1, 1; 1, e(1/3)\ntwists: e(0/1), e(1/4)\n',
    3369: 'rank: 2\nlabels: a, b\ns_tilde: 1, 1; 1, -1\ntwists: e(0/1), e(0/1)\n',
    3491: 'rank: 2\nlabels: a, b\ns_tilde: 1, 1; 1, -1\ntwists: e(0/1), e(1/4)\nprovenance: 2\n',
    3539: 'rank: 2\nlabels: a, b\ns_tilde: 1, 1; 1, -1\ntwists: e(0/1), e(1/4)\nprovenance: 2\n',
    3634: 'ValidationError: s_tilde (1,1) is e(1/4), but provenance gives -1',
    3638: "ParseError: line 4, column 17: bad root of unity 'e(1/4'",
    3653: 'ValidationError: twist 1 is e(3/4), but provenance gives e(1/4)',
    3725: 'ValidationError: twist 1 is e(3/4), but provenance gives e(1/4)',
    3898: 'ValidationError: s_tilde (1,1) is e(1/3), but provenance gives -1',
    3919: 'ValidationError: s_tilde (1,1) is e(1/3), but provenance gives -1',
    3997: "ParseError: line 3, column 19: bad rational '1/0'",
    4003: "ParseError: line 3, column 19: bad rational '1/0'",
    4018: 'ValidationError: s_tilde (1,1) is e(7/12), but provenance gives -1',
    4024: 'ParseError: line 4, column 16: empty value',
    4032: 'ValidationError: twist 1 is e(1/2), but provenance gives e(1/4)',
    4035: "ParseError: line 3, column 10: empty term in value '1++e(1/4)'",
    4038: 'ValidationError: twist of the tensor unit must be 1',
    4041: "ParseError: line 3, column 13: bad rational '1/0'",
    4042: 'ValidationError: s_tilde is not symmetric at (0,1)',
    4046: "ParseError: line 3, column 16: empty term in value '1++e(1/4)'",
    4052: 'rank: 2\ns_tilde: 1, 1; 1, -1\ntwists: e(0/1), e(1/4)\nprovenance: 2\n',
    4063: 'ValidationError: twist 2 is e(1/257), but provenance gives e(0/1)',
    4064: 'ValidationError: twist 3 is e(0/1), but provenance gives e(1/2)',
    4065: 'ValidationError: s_tilde is not symmetric at (1,2)',
    4066: "ParseError: line 3, column 22: empty term in value '1++e(1/4)'",
    4067: 'ValidationError: s_tilde is not symmetric at (1,3)',
    4068: 'ValidationError: twist 1 is e(1/2), but provenance gives e(0/1)',
    4069: 'ValidationError: twist 2 is e(1/2), but provenance gives e(0/1)',
    4070: "ParseError: line 3, column 13: bad root of unity 'e(1/4'",
    4071: 'ValidationError: s_tilde is not symmetric at (0,3)',
    4075: 'ParseError: line 3, column 39: empty value',
    4076: "ParseError: line 3, column 46: empty term in value '1++e(1/4)'",
    4077: 'ValidationError: twist 1 is e(1/3), but provenance gives e(0/1)',
    4080: "ParseError: line 3, column 46: bad rational '1/0'",
    4081: 'ValidationError: twist 2 is e(1/3), but provenance gives e(0/1)',
    4082: 'ValidationError: s_tilde is not symmetric at (2,3)',
    4084: 'ValidationError: s_tilde (1,1) is e(7/12), but provenance gives 1',
    4085: "ParseError: line 4, column 25: bad rational '1/0'",
    4086: "ParseError: line 4, column 33: empty term in value '1++e(1/4)'",
    4092: 'ValidationError: twist 2 is e(1/2), but provenance gives e(1/3)',
    4093: "ParseError: line 3, column 38: bad root of unity 'e(1/4'",
    4094: 'ValidationError: s_tilde[0][0] must be 1',
    4097: 'ValidationError: twist 1 is e(7/12), but provenance gives e(1/3)',
    4099: 'ValidationError: s_tilde (1,1) is -1+-1*e(2/5)+-1*e(3/5), but provenance gives e(2/3)',
    4102: 'ValidationError: twist 2 is e(7/12), but provenance gives e(1/3)',
    4105: 'ValidationError: twist 1 is e(1/4), but provenance gives e(1/3)',
    4107: "ParseError: line 3, column 30: bad root of unity 'e(1/4'",
    4109: 'ValidationError: twist 2 is not a root of unity',
    4112: 'ValidationError: twist 2 is e(1/4), but provenance gives e(1/3)',
    4114: 'ValidationError: twist 2 is e(3/4), but provenance gives e(1/3)',
    4117: 'ValidationError: s_tilde (2,2) is 1, but provenance gives e(2/3)',
    4118: 'ValidationError: s_tilde (2,2) is e(3/4), but provenance gives e(2/3)',
    4120: 'ValidationError: twist 1 is e(1/257), but provenance gives e(1/3)',
    4122: 'ValidationError: twist 4 is e(1/4), but provenance gives e(4/7)',
    4123: 'ValidationError: s_tilde is not symmetric at (2,5)',
    4124: 'ValidationError: twist 3 is e(3/4), but provenance gives e(4/7)',
    4125: 'ValidationError: twist 1 is e(7/12), but provenance gives e(2/7)',
    4126: 'ValidationError: conductor 1799 exceeds the bound 1024',
    4128: "ParseError: line 3, column 219: empty term in value '1++e(1/4)'",
    4129: "ParseError: line 3, column 28: empty term in value '1++e(1/4)'",
    4130: 'ValidationError: twist 1 is e(0/1), but provenance gives e(2/7)',
    4133: "ParseError: line 4, column 9: empty term in value '1++e(1/4)'",
    4134: 'ValidationError: twist 4 is not a root of unity',
    4135: 'ValidationError: s_tilde is not symmetric at (0,2)',
    4136: 'ValidationError: s_tilde is not symmetric at (0,5)',
    4137: 'ValidationError: conductor 7063 exceeds the bound 1024',
    4138: 'ValidationError: conductor 7063 exceeds the bound 1024',
    4141: 'ValidationError: s_tilde is not symmetric at (4,6)',
    4142: 'ValidationError: twist 3 is e(0/1), but provenance gives e(4/7)',
    4143: 'ValidationError: twist 1 is e(1/4), but provenance gives e(2/7)',
    4144: "ParseError: line 4, column 49: empty term in value '1++e(1/4)'",
    4145: 'ValidationError: twist 6 is not a root of unity',
    4146: 'ValidationError: s_tilde is not symmetric at (3,5)',
    4148: 'ValidationError: s_tilde is not symmetric at (0,4)',
    4149: 'ValidationError: twist 5 is e(0/1), but provenance gives e(1/7)',
    4150: "ParseError: line 4, column 41: empty term in value '1++e(1/4)'",
}


def test_grid_outcomes_are_pinned_and_match_the_values():
    # every grid document that parses equals the data built from parse_value
    # of each token, and serializes the same; every error it gives is pinned
    docs = _grid_documents()
    assert len(docs) == 7 * 24 * 24 + 4 * 30
    errors = set()
    for i, body in enumerate(docs):
        got = _outcome_text(body)
        if i in _GRID_PINS:
            assert got == _GRID_PINS[i], i
        if got.startswith(("ParseError: ", "ValidationError: ")):
            errors.add(got)
            continue
        md, reference = parse(Document("modular_data", body)), _from_tokens(body)
        assert md == reference and serialize(md).body == serialize(reference).body
    assert errors <= set(_GRID_PINS.values())
