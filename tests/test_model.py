from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from akh.exact import GaussScalar
from akh.forms import BigradedAlgebra, build
from akh.model import (
    CATALOG_NAMES,
    LieModel,
    ModelError,
    _j_from_pairs,
    catalog,
    load_model,
    model_from_json,
    model_to_json,
    save_model,
    validate,
)
from linalg_reference import form_from_real, real_coordinates
from test_cli import AFF_X_AFF

AK_MODELS = ("torus2", "torus4", "torus6", "kodaira_thurston", "filiform4_Jprime")
LADDER = {p.stem: p for p in
          (Path(__file__).resolve().parents[1] / "bench" / "models").glob("*.json")}


# ---------------------------------------------------------------------------
# catalog and validation flags


def test_catalog_names_complete():
    assert CATALOG_NAMES == (
        "filiform4_J", "filiform4_Jprime", "h5_J", "kodaira_thurston",
        "torus2", "torus4", "torus6")


def test_catalog_unknown_name():
    with pytest.raises(ModelError):
        catalog("not_a_model")


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_catalog_models_are_well_formed(name):
    report = validate(catalog(name))
    assert report.structure_ok
    assert report.jacobi_ok and report.acs_ok and report.compatible_ok
    assert report.nilpotent
    assert report.jacobi_witness is None


def test_validation_flags_by_model():
    expect = {
        "torus2": (True, True),
        "torus4": (True, True),
        "torus6": (True, True),
        "kodaira_thurston": (False, True),
        "filiform4_J": (False, False),
        "filiform4_Jprime": (False, True),
        "h5_J": (True, False),
    }
    for name, (integrable, ak) in expect.items():
        report = validate(catalog(name))
        assert report.integrable is integrable, name
        assert report.almost_kahler is ak, name


def test_structure_report_json_round_trip():
    report = validate(catalog("kodaira_thurston"))
    data = report.to_json()
    assert data["structure_ok"] is True
    assert data["almost_kahler"] is True
    assert data["jacobi_witness"] is None


# ---------------------------------------------------------------------------
# construction errors


def test_odd_dimension_rejected():
    with pytest.raises(ModelError):
        LieModel(name="bad", dim=3, brackets=(), J=((0,) * 3,) * 3)


def test_bad_J_shape_rejected():
    with pytest.raises(ModelError):
        LieModel(name="bad", dim=4, brackets=(), J=((0, 1), (-1, 0)))


def test_bracket_index_out_of_range_rejected():
    with pytest.raises(ModelError):
        LieModel(
            name="bad", dim=4, brackets=((0, 1, 7, 1),),
            J=catalog("torus4").J)


@pytest.mark.parametrize("make, says", [
    (lambda kt: kt._replace(brackets=((0, 0, 2, Fraction(10 ** 4000)),)), "[X,X] must vanish"),
    (lambda kt: kt._replace(brackets=((0, 1, 10 ** 4000, 1),)), "bracket index out of range"),
    (lambda kt: kt._replace(brackets=((0, 1, 10 ** 5000, 1),)),
     "an integer of more than"),
    (lambda kt: build(kt._replace(name="x" * 5000, J=((0,) * 4,) * 4)),
     "fails structural checks"),
], ids=["self_bracket", "bracket_index", "bracket_index_past_digit_limit", "structure"])
def test_refusal_quotes_a_long_value(make, says):
    with pytest.raises(ModelError) as exc:
        make(catalog("kodaira_thurston"))
    message = str(exc.value)
    assert says in message and "\n" not in message and len(message) < 200


AFF = model_from_json(AFF_X_AFF)  # Kahler as given, but tr ad X1 = 1
ZERO_COFRAME = ((0,) * 4,) * 2
H5 = catalog("h5_J")


@pytest.mark.parametrize("model, says", [
    # [X1, X2] = X1 breaks Jacobi, and the first pinned row is a -i eigenvector
    (H5._replace(brackets=H5.brackets + ((0, 1, 0, 1),),
                 coframe=(tuple(x.conj() for x in H5.coframe[0]),) + H5.coframe[1:]),
     "fails structural checks: jacobi=False acs=True compatible=True"),
    (AFF._replace(J=((0,) * 4,) * 4, coframe=ZERO_COFRAME),
     "fails structural checks: jacobi=True acs=False compatible=False"),
    (AFF._replace(coframe=ZERO_COFRAME), "not unimodular: tr ad X1 = 1"),
    (catalog("torus4")._replace(coframe=ZERO_COFRAME), "coframe rows and conjugates are dependent"),
], ids=["jacobi_and_coframe", "structure_unimodular_and_coframe", "unimodular_and_coframe",
        "coframe"])
def test_build_refuses_a_model_for_the_first_check_it_fails(model, says):
    # structure, then unimodularity, then the coframe; validate reports the
    # flags of each model and refuses none
    validate(model)
    with pytest.raises(ModelError) as exc:
        build(model)
    assert says in str(exc.value)


# every field is checked at construction, so _replace refuses a bad value
# in one line, whoever builds the model: not a str name, a dim that is not
# an int (a string, a float, a bool), brackets that are not (i, j, k, c)
# entries, and bracket indices that are bools or floats
BAD_FIELDS = {
    "str dim": {"dim": "4"},
    "float dim": {"dim": 4.0},
    "bool dim": {"dim": True},
    "int name": {"name": 5},
    "short bracket entry": {"brackets": ((0, 1),)},
    "long bracket entry": {"brackets": ((0, 1, 2, -1, 0),)},
    "brackets None": {"brackets": None},
    "bracket entry not iterable": {"brackets": (5,)},
    "bool bracket indices": {"brackets": ((False, True, 2, -1),)},
    "float bracket index": {"brackets": ((0.0, 1, 2, -1),)},
}


@pytest.mark.parametrize("case", BAD_FIELDS)
def test_construction_refuses_a_bad_field_in_one_line(case):
    kt = catalog("kodaira_thurston")
    with pytest.raises(ModelError) as exc:
        build(kt._replace(**BAD_FIELDS[case]))
    message = str(exc.value)
    assert "\n" not in message and len(message) < 200 and "JSON" not in message


def test_jacobi_failure_reports_witness():
    # [e0,e1]=e2 with [e0,e2]=e0 gives [[e2,e0],e1] = -e2, breaking Jacobi
    model = LieModel(
        name="nonlie", dim=4,
        brackets=((0, 1, 2, 1), (0, 2, 0, 1)),
        J=catalog("torus4").J)
    report = validate(model)
    assert not report.jacobi_ok
    assert report.jacobi_witness == (0, 1, 2)
    assert not report.structure_ok


def test_non_involutive_J_flagged():
    model = LieModel(
        name="badJ", dim=2, brackets=(),
        J=((1, 0), (0, 1)))
    report = validate(model)
    assert not report.acs_ok


def test_incompatible_J_flagged():
    # J^2 = -1 but J is not an isometry of the implied orthonormal metric
    model = LieModel(
        name="skewless", dim=2, brackets=(),
        J=((1, -1), (2, -1)))
    report = validate(model)
    assert not report.acs_ok or not report.compatible_ok


# ---------------------------------------------------------------------------
# the Nijenhuis tensor, against the dense reference below


def test_nijenhuis_antisymmetric():
    model = catalog("kodaira_thurston")
    nij = _dense_nijenhuis(model)
    n = model.dim
    for i in range(n):
        for j in range(n):
            assert nij[i][j] == tuple(-x for x in nij[j][i])


def test_nijenhuis_vanishes_iff_integrable():
    for name in CATALOG_NAMES:
        model = catalog(name)
        nij = _dense_nijenhuis(model)
        vanishes = all(not any(v) for row in nij for v in row)
        assert vanishes is validate(model).integrable, name


def _rotated_kodaira_thurston() -> LieModel:
    """Kodaira-Thurston with J conjugated by a rational rotation of the
    X1, X2 plane, so that J is not a signed permutation."""
    kt = catalog("kodaira_thurston")
    c, s = Fraction(3, 5), Fraction(4, 5)
    rot = [[c, -s, 0, 0], [s, c, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    rj = [[sum(rot[r][k] * kt.J[k][col] for k in range(4)) for col in range(4)]
          for r in range(4)]
    J = [[sum(rj[r][k] * rot[col][k] for k in range(4)) for col in range(4)]
         for r in range(4)]
    return LieModel(name="kt_rotated", dim=4, brackets=kt.brackets, J=J)


def _dense_calculus(model: LieModel):
    """(bracket, J, frame basis) on dense Fraction coordinate lists, from a
    dense structure tensor."""
    n = model.dim
    C = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i, j, k, c in model.brackets:
        C[i][j][k] += c
        C[j][i][k] -= c

    def br(u, v):
        pairs = [(u[i] * v[j], C[i][j]) for i in range(n) if u[i] for j in range(n) if v[j]]
        return [sum((x * c[k] for x, c in pairs), Fraction(0)) for k in range(n)]

    def J(v):
        return [sum(model.J[r][c] * v[c] for c in range(n)) for r in range(n)]

    return br, J, [[Fraction(int(r == i)) for r in range(n)] for i in range(n)]


def _dense_nijenhuis(model: LieModel) -> list:
    """N(X_i, X_j) from a dense structure tensor and dense J products."""
    n = model.dim
    br, J, e = _dense_calculus(model)
    return [[tuple(a - b - c - d for a, b, c, d in zip(
        br(J(e[i]), J(e[j])), J(br(J(e[i]), e[j])), J(br(e[i], J(e[j]))),
        br(e[i], e[j]))) for j in range(n)] for i in range(n)]


def _row_basis(rows: list) -> list:
    """A basis of the span of Fraction rows, by Gaussian elimination."""
    basis = []
    for row in rows:
        row = list(row)
        for b in basis:
            lead = next(k for k, x in enumerate(b) if x)
            if row[lead]:
                f = row[lead] / b[lead]
                row = [x - f * y for x, y in zip(row, b)]
        if any(row):
            basis.append(row)
    return basis


def _dense_validate(model: LieModel) -> dict:
    """Every validate flag and the Jacobi witness, from the definitions on
    dense coordinates."""
    n = model.dim
    br, J, e = _dense_calculus(model)
    minus_id = [[-x for x in row] for row in e]
    acs_ok = [J(J(e[c])) for c in range(n)] == minus_id
    compatible_ok = [[sum(model.J[r][a] * model.J[r][b] for r in range(n)) for b in range(n)]
                     for a in range(n)] == e
    witness = next((t for t in combinations(range(n), 3) if any(
        sum(col) for col in zip(*(br(br(e[a], e[b]), e[c]) for a, b, c in (
            t, (t[1], t[2], t[0]), (t[2], t[0], t[1])))))), None)

    def omega(u, v):
        return sum(model.J[b][a] * u[a] * v[b] for a in range(n) for b in range(n))

    domega_zero = all(
        -omega(br(e[i], e[j]), e[k]) + omega(br(e[i], e[k]), e[j])
        - omega(br(e[j], e[k]), e[i]) == 0 for i, j, k in combinations(range(n), 3))
    # with Jacobi, g^1 = g contains g^2 = [g, g^1] contains ...; the
    # series reaches 0 within n steps exactly when g is nilpotent
    current, nilpotent = e, False
    for _ in range(n):
        current = _row_basis([br(x, v) for x in e for v in current])
        if not current:
            nilpotent = True
            break
    return {
        "jacobi_ok": witness is None, "jacobi_witness": witness,
        "acs_ok": acs_ok, "compatible_ok": compatible_ok,
        "integrable": not any(any(v) for row in _dense_nijenhuis(model) for v in row),
        "almost_kahler": acs_ok and compatible_ok and witness is None and domega_zero,
        "nilpotent": witness is None and nilpotent,
    }


def _named_model(name: str) -> LieModel:
    if name == "kt_rotated":
        return _rotated_kodaira_thurston()
    return load_model(str(LADDER[name])) if name in LADDER else catalog(name)


@pytest.mark.parametrize("name", ("kt_rotated",) + CATALOG_NAMES + tuple(sorted(LADDER)))
def test_nijenhuis_matches_dense_reference(name):
    model = _named_model(name)
    vanishes = not any(any(v) for row in _dense_nijenhuis(model) for v in row)
    assert validate(model).integrable is vanishes


@st.composite
def random_models(draw):
    """Models of dimension 4 or 6 with one of three kinds of bracket: random
    structure constants (Jacobi mostly fails), 2-step nilpotent ones with
    every bracket in the centre, and R acting on an abelian ideal by a
    random matrix (Jacobi holds, nilpotent exactly when that matrix is)."""
    n = draw(st.sampled_from((4, 6)))
    coeff = st.integers(-2, 2)
    kind = draw(st.sampled_from(("random", "two_step", "semidirect")))
    if kind == "random":
        brackets = draw(st.lists(st.tuples(
            st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, n - 1), coeff)
            .filter(lambda b: b[0] != b[1]), max_size=5))
    elif kind == "two_step":
        centre = n // 2
        brackets = draw(st.lists(st.tuples(
            st.integers(0, centre - 1), st.integers(0, centre - 1), st.integers(centre, n - 1),
            coeff).filter(lambda b: b[0] != b[1]), max_size=5))
    else:
        brackets = [(0, j, k, draw(coeff)) for j in range(1, n) for k in range(1, n)]
    # J: an orthogonal structure from a signed pairing of the frame, maybe
    # turned by a rational rotation, or a small integer matrix
    if draw(st.booleans()):
        frame = draw(st.permutations(range(1, n + 1)))
        J = _j_from_pairs(n, [frame[2 * k:2 * k + 2] for k in range(n // 2)])
        if draw(st.booleans()):
            c, s = Fraction(3, 5), Fraction(4, 5)
            rot = [[Fraction(int(r == k)) for k in range(n)] for r in range(n)]
            rot[0][0], rot[0][1], rot[1][0], rot[1][1] = c, -s, s, c
            rj = [[sum(rot[r][k] * J[k][col] for k in range(n)) for col in range(n)]
                  for r in range(n)]
            J = [[sum(rj[r][k] * rot[col][k] for k in range(n)) for col in range(n)]
                 for r in range(n)]
    else:
        J = draw(st.lists(st.lists(st.integers(-1, 1), min_size=n, max_size=n),
                          min_size=n, max_size=n))
    return LieModel(name="drawn", dim=n, brackets=brackets, J=J)


@given(random_models())
@settings(max_examples=80, deadline=None)
def test_validate_matches_dense_reference(model):
    report, expected = validate(model), _dense_validate(model)
    assert {key: getattr(report, key) for key in expected} == expected


def test_rotated_kodaira_thurston_is_a_general_almost_hermitian_model():
    model = _rotated_kodaira_thurston()
    assert any(x not in (-1, 0, 1) for row in model.J for x in row)
    report = validate(model)
    assert report.structure_ok and not report.integrable


def nijenhuis_scalar(model: LieModel):
    """Fit (mu + mubar) = scalar * N on 1-forms; None when both sides vanish
    or no single scalar works.  The value depends on the evaluation
    conventions of this package."""
    algebra = build(model)
    nij = _dense_nijenhuis(model)
    n = model.dim
    mixed = algebra.mu + algebra.mu_bar
    scalar = None
    for k in range(n):
        # N* pullback on the k-th real coframe element, determinant convention
        comps = {(i, j): GaussScalar(nij[i][j][k])
                 for i, j in combinations(range(n), 2) if nij[i][j][k]}
        rhs = form_from_real(algebra, comps)
        lhs = mixed.apply(form_from_real(algebra, {(k,): GaussScalar(1)}))
        if rhs.is_zero() and lhs.is_zero():
            continue
        if rhs.is_zero() or lhs.is_zero():
            return None
        ratio = None
        for pq in rhs.bidegrees():
            if pq not in lhs.bidegrees():
                return None
            for a, b in zip(rhs.block(pq), lhs.block(pq)):
                if a or b:
                    if not a:
                        return None
                    r = b / a
                    if ratio is None:
                        ratio = r
                    elif ratio != r:
                        return None
        if ratio is None:
            continue
        if scalar is None:
            scalar = ratio
        elif scalar != ratio:
            return None
        if not (rhs.scale(scalar) - lhs).is_zero():
            return None
    return scalar


def test_nijenhuis_scalar_fit():
    # the (2,-1)+(-1,2) part of d acts on 1-forms as a fixed multiple of
    # the Nijenhuis tensor; the multiple is 1/4 in this package's conventions
    for name in ("kodaira_thurston", "filiform4_J", "filiform4_Jprime"):
        assert nijenhuis_scalar(catalog(name)) == Fraction(1, 4), name
    for name in ("torus2", "h5_J"):
        assert nijenhuis_scalar(catalog(name)) is None, name


# ---------------------------------------------------------------------------
# fundamental form


def test_fundamental_form_lives_in_middle_block():
    for name in CATALOG_NAMES:
        model = catalog(name)
        alg = build(model)
        omega = alg.fundamental_form
        assert omega.bidegrees() == ((1, 1),)


def test_fundamental_form_closed_iff_almost_kahler():
    for name in CATALOG_NAMES:
        model = catalog(name)
        alg = build(model)
        domega = alg.d.apply(alg.fundamental_form)
        assert domega.is_zero() is validate(model).almost_kahler, name


def test_omega_entries_match_J():
    # omega(X_a, X_b) = g(J X_a, X_b) = J[b][a], antisymmetric as J is
    model = catalog("kodaira_thurston")
    alg = build(model)
    pairs = list(combinations(range(model.dim), 2))
    coords = real_coordinates(alg, alg.fundamental_form, 2)
    assert {pairs[i]: c for i, c in coords.items()} == \
        {(a, b): GaussScalar(model.J[b][a]) for a, b in pairs if model.J[b][a]}
    for a in range(model.dim):
        for b in range(model.dim):
            assert model.J[b][a] == -model.J[a][b]


# ---------------------------------------------------------------------------
# serialization


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_model_json_round_trip(name):
    model = catalog(name)
    once = model_from_json(model_to_json(model))
    twice = model_from_json(model_to_json(once))
    assert once == twice
    assert once.brackets == model.brackets
    assert once.J == model.J
    assert once.name == model.name
    assert once == model
    assert ("coframe" in model_to_json(model)) == (model.coframe is not None)


def test_model_file_round_trip(tmp_path):
    path = tmp_path / "kt.json"
    model = catalog("kodaira_thurston")
    save_model(model, str(path))
    loaded = load_model(str(path))
    assert loaded == model


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"format": 1,', encoding="utf-8")
    with pytest.raises(ModelError) as err:
        load_model(str(path))
    assert "line" in str(err.value)


def test_from_json_rejects_missing_fields():
    with pytest.raises(ModelError):
        model_from_json({"format": 1, "name": "x"})


def _bracket(**changes):
    return [dict({"i": 1, "j": 2, "k": 3, "c": "-1"}, **changes)]


MALFORMED_SHAPES = {
    "J_not_a_list": {"J": 5},
    "brackets_not_a_list": {"brackets": 5},
    "J_row_not_a_list": {"J": [["0"] * 4, 7, ["0"] * 4, ["0"] * 4]},
    "J_row_a_string": {"J": [["0"] * 4, "1000", ["0"] * 4, ["0"] * 4]},
    "bracket_not_an_object": {"brackets": [[1, 2, 3, "-1"]]},
    "fractional_index": {"brackets": _bracket(i=1.7)},
    "boolean_index": {"brackets": _bracket(i=True)},
    "string_index": {"brackets": _bracket(k="3")},
    "fractional_dim": {"dim": 4.5},
    "list_dim": {"dim": [4]},
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SHAPES))
def test_from_json_rejects_malformed_shapes(case):
    model = catalog("kodaira_thurston")
    data = model_to_json(model)
    assert model_from_json(dict(data, brackets=_bracket())) == model
    with pytest.raises(ModelError):
        model_from_json(dict(data, **MALFORMED_SHAPES[case]))


H5_COFRAME = model_to_json(catalog("h5_J"))["coframe"]

MALFORMED_COFRAMES = {
    "not_a_list": 5,
    "too_few_rows": H5_COFRAME[:2],
    "row_not_a_list": [H5_COFRAME[0], "1 i 0 0 0 0", H5_COFRAME[2]],
    "short_row": [H5_COFRAME[0], H5_COFRAME[1][:5], H5_COFRAME[2]],
    "bad_scalar": [H5_COFRAME[0], ["1", "j", "0", "0", "0", "0"], H5_COFRAME[2]],
    "number_not_string": [H5_COFRAME[0], [1, "i", "0", "0", "0", "0"], H5_COFRAME[2]],
}


@pytest.mark.parametrize("case", sorted(MALFORMED_COFRAMES))
def test_from_json_rejects_malformed_coframe(case):
    data = model_to_json(catalog("h5_J"))
    with pytest.raises(ModelError):
        model_from_json(dict(data, coframe=MALFORMED_COFRAMES[case]))


def test_coframe_of_ints_and_fractions_is_the_catalog_coframe():
    # the real entries of the h5_J coframe given as ints and Fractions, the
    # others as GaussScalars, in lists: construction reads each through as_gauss
    h5 = catalog("h5_J")
    rows = [[x if not x.is_real() else Fraction(str(x)) if x._d > 1 else int(str(x))
             for x in row] for row in h5.coframe]
    assert {type(x) for row in rows for x in row} == {int, Fraction, GaussScalar}
    model = h5._replace(coframe=rows)
    assert model == h5 and hash(model) == hash(h5)
    assert all(type(x) is GaussScalar for row in model.coframe for x in row)
    assert BigradedAlgebra(model).d.matrix == build(h5).d.matrix
    assert model_from_json(model_to_json(model)) == h5


def test_from_json_rejects_unknown_format():
    data = model_to_json(catalog("torus2"))
    data["format"] = 99
    with pytest.raises(ModelError):
        model_from_json(data)


def test_rational_strings_in_json():
    model = catalog("kodaira_thurston")
    data = model_to_json(model)
    assert data["format"] == 1
    assert all(isinstance(x, str) for row in data["J"] for x in row)
    # brackets serialize 1-based with rational-string coefficients
    for entry in data["brackets"]:
        assert min(entry["i"], entry["j"], entry["k"]) >= 1
        assert isinstance(entry["c"], str)
