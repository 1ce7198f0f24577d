import gc
import hashlib
import itertools
import json
import weakref
from collections import Counter
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import akh.harmonic as harmonic
import akh.operators as operators
from akh.exact import ExactMatrix, GaussScalar, hermitian_signature, kernel, rank, vstack
from akh.cli import main
from akh.forms import DBAR_SHIFT, BlockOperator, Form, build, form_from_coordinates
from akh.harmonic import (
    AK_NONEXISTENCE_VERDICT,
    WHICH_CHOICES,
    HarmonicError,
    _holomorphic_vectors,
    ak_nonexistence_report,
    betti,
    ell_diamond,
    hard_lefschetz,
    harmonic_basis,
    hodge_index,
    hodge_riemann_check,
    holomorphic_forms,
    mu_bar_cohomology,
    obstruction_report,
    primitive_decomposition,
)
from akh.model import CATALOG_NAMES, catalog, load_model, validate
from linalg_reference import eightfold_d_kernel, in_span, mu_bar_cohomology_by_rank
from test_product_oracle import PAIRS, make_ladder

AK_MODELS = ("torus2", "torus4", "torus6", "kodaira_thurston",
             "filiform4_Jprime")
COMBINED_ROUTES = ("d", "dbar+mu", "partial+mu_bar")
LADDER = ("kt_x_kt", "h5_J_x_T2", "torus8")
MODELS_DIR = Path(__file__).resolve().parents[1] / "bench" / "models"


def model_of(source):
    """A catalog model, or a ladder model read from bench/models."""
    if source in LADDER:
        return load_model(str(MODELS_DIR / f"{source}.json"))
    return catalog(source)


def gs(re, im=0):
    return GaussScalar(Fraction(re), Fraction(im))


def blocks_of(model):
    alg = build(model)
    return alg.block_order


# ---------------------------------------------------------------------------
# Betti numbers


def test_betti_values():
    assert betti(catalog("kodaira_thurston")) == (1, 3, 4, 3, 1)
    assert betti(catalog("filiform4_J")) == (1, 2, 2, 2, 1)
    assert betti(catalog("filiform4_Jprime")) == (1, 2, 2, 2, 1)
    assert betti(catalog("h5_J")) == (1, 4, 8, 10, 8, 4, 1)


@pytest.mark.parametrize("name,m", (("torus2", 1), ("torus4", 2), ("torus6", 3)))
def test_betti_torus_binomials(name, m):
    assert betti(catalog(name)) == tuple(comb(2 * m, k) for k in range(2 * m + 1))


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_betti_poincare_duality(name):
    b = betti(catalog(name))
    assert b == b[::-1]
    assert b[0] == 1 and b[-1] == 1


# ---------------------------------------------------------------------------
# harmonic bases and the route equivalence


def test_unknown_flavour_rejected():
    with pytest.raises(HarmonicError):
        harmonic_basis(catalog("torus2"), "nonsense", 0, 0)


def test_unknown_block_rejected():
    with pytest.raises(HarmonicError):
        harmonic_basis(catalog("torus2"), "d", 5, 5)


def test_harmonic_forms_are_pure_bidegree():
    model = catalog("kodaira_thurston")
    for pq in blocks_of(model):
        for which in WHICH_CHOICES:
            for f in harmonic_basis(model, which, *pq):
                assert f.bidegrees() == (pq,)


def test_eightfold_kernel_is_killed_by_all_components():
    model = catalog("kodaira_thurston")
    alg = build(model)
    ops = [alg.mu_bar, alg.dbar, alg.partial, alg.mu]
    ops += [op.adjoint() for op in ops]
    for pq in blocks_of(model):
        for f in harmonic_basis(model, "d", *pq):
            for op in ops:
                assert op.apply(f).is_zero()


@pytest.mark.parametrize("name", AK_MODELS)
def test_route_equivalence_on_almost_kahler_models(name):
    # the eightfold kernel and both mixed Laplacian kernels agree blockwise
    model = catalog(name)
    alg = build(model)
    for pq in blocks_of(model):
        spaces = {w: harmonic_basis(model, w, *pq) for w in COMBINED_ROUTES}
        dims = {len(v) for v in spaces.values()}
        assert len(dims) == 1, (pq, spaces)
        for wa, wb in itertools.permutations(COMBINED_ROUTES, 2):
            basis = [list(f.block(pq)) for f in spaces[wb]]
            for f in spaces[wa]:
                assert in_span(basis, list(f.block(pq))), (pq, wa, wb)


def test_routes_differ_without_closedness():
    # on the nonclosed integrable model the two mixed kernels differ
    model = catalog("h5_J")
    dims_a = len(harmonic_basis(model, "dbar+mu", 1, 0))
    dims_b = len(harmonic_basis(model, "partial+mu_bar", 1, 0))
    assert dims_a != dims_b


# ---------------------------------------------------------------------------
# diamonds


def test_diamond_kodaira_thurston():
    dia = ell_diamond(catalog("kodaira_thurston"))
    assert dia.rows() == ((1,), (1, 1), (0, 3, 0), (1, 1), (1,))
    assert dia.betti == (1, 3, 4, 3, 1)
    assert dia.duality_ok and dia.bounds_ok and dia.lefschetz_ok


def test_diamond_torus4():
    dia = ell_diamond(catalog("torus4"))
    assert dia.rows() == ((1,), (2, 2), (1, 4, 1), (2, 2), (1,))
    assert dia.duality_ok and dia.bounds_ok and dia.lefschetz_ok


def test_diamond_filiform_second_structure():
    dia = ell_diamond(catalog("filiform4_Jprime"))
    assert dia.rows() == ((1,), (0, 0), (0, 2, 0), (0, 0), (1,))
    assert dia.betti == (1, 2, 2, 2, 1)
    assert dia.duality_ok and dia.bounds_ok and dia.lefschetz_ok


def test_diamond_flags_none_without_almost_kahler():
    dia = ell_diamond(catalog("h5_J"))
    assert dia.duality_ok is None
    assert dia.bounds_ok is None
    assert dia.lefschetz_ok is None
    assert dia.betti == (1, 4, 8, 10, 8, 4, 1)


def test_diamond_json_grid():
    dia = ell_diamond(catalog("kodaira_thurston"))
    data = dia.to_json()
    assert data["scope"] == "invariant"
    assert data["ell"][1][1] == 3
    assert data["rows"][2] == [0, 3, 0]
    json.dumps(data)


@pytest.mark.parametrize("name", AK_MODELS)
def test_diamond_symmetries(name):
    dia = ell_diamond(catalog(name))
    m = dia.m
    for p in range(m + 1):
        for q in range(m + 1):
            assert dia.ell[p][q] == dia.ell[q][p]
            assert dia.ell[p][q] == dia.ell[m - p][m - q]


@pytest.mark.parametrize("name", AK_MODELS)
def test_degree_sums_bounded_by_betti(name):
    dia = ell_diamond(catalog(name))
    m = dia.m
    for k in range(2 * m + 1):
        total = sum(dia.ell[p][k - p]
                    for p in range(max(0, k - m), min(k, m) + 1))
        assert total <= dia.betti[k]


@pytest.mark.parametrize("name", AK_MODELS)
def test_diagonal_at_least_one(name):
    dia = ell_diamond(catalog(name))
    for k in range(dia.m + 1):
        assert dia.ell[k][k] >= 1


@pytest.mark.parametrize("name", AK_MODELS)
def test_off_diagonal_forces_betti(name):
    # a nonzero off-diagonal space forces b >= 3 in even positive degree
    # (the diagonal contributes one more dimension) and b >= 2 in odd
    dia = ell_diamond(catalog(name))
    m = dia.m
    for p in range(m + 1):
        for q in range(m + 1):
            if p == q or dia.ell[p][q] == 0:
                continue
            k = p + q
            assert dia.betti[k] >= (3 if k % 2 == 0 else 2), (p, q)


def test_omega_powers_are_harmonic():
    # closed fundamental form: every power lands in the harmonic diagonal
    from akh.operators import laplacian
    for name in AK_MODELS:
        alg = build(catalog(name))
        lap = laplacian(alg.d)
        f = Form(alg, {(): gs(1)})
        for k in range(alg.m + 1):
            assert lap.apply(f).is_zero(), (name, k)
            f = f.wedge(alg.fundamental_form)


def test_star_maps_harmonics_to_dual_block():
    for name in AK_MODELS:
        model = catalog(name)
        alg = build(model)
        m = alg.m
        for pq in blocks_of(model):
            target = (m - pq[1], m - pq[0])
            target_basis = [list(f.block(target))
                            for f in harmonic_basis(model, "d", *target)]
            for f in harmonic_basis(model, "d", *pq):
                sf = alg.star.apply(f)
                assert set(sf.bidegrees()) <= {target}
                if not sf.is_zero():
                    assert in_span(target_basis, list(sf.block(target)))


# ---------------------------------------------------------------------------
# hard Lefschetz


def test_lefschetz_requires_almost_kahler():
    with pytest.raises(HarmonicError):
        hard_lefschetz(catalog("h5_J"))


@pytest.mark.parametrize("name", AK_MODELS)
def test_lefschetz_maps_are_isomorphisms(name):
    report = hard_lefschetz(catalog(name))
    assert report.all_iso
    assert report.monotone_ok
    for entry in report.maps:
        assert entry.rank == entry.source_dim == entry.target_dim


def test_lefschetz_specific_map():
    report = hard_lefschetz(catalog("kodaira_thurston"))
    entry, = (entry for entry in report.maps if (entry.p, entry.q) == (1, 0))
    assert entry.power == 1
    assert (entry.source_dim, entry.target_dim, entry.rank) == (1, 1, 1)
    assert entry.iso


@pytest.mark.parametrize("name", AK_MODELS)
def test_ell_monotone_under_lefschetz(name):
    dia = ell_diamond(catalog(name))
    m = dia.m
    for p in range(m):
        for q in range(m):
            if p + q + 2 <= m:
                assert dia.ell[p][q] <= dia.ell[p + 1][q + 1]


# ---------------------------------------------------------------------------
# primitive decomposition and the positivity of the pairing


def test_primitive_decomposition_requires_almost_kahler():
    with pytest.raises(HarmonicError):
        primitive_decomposition(catalog("h5_J"), 1, 1)


def test_primitive_decomposition_kt():
    pd = primitive_decomposition(catalog("kodaira_thurston"), 1, 1)
    assert pd.summand_dims == (2, 1)
    assert pd.ell == 3
    assert pd.sum_ok and pd.orthogonal_ok


def test_primitive_decomposition_torus4():
    pd = primitive_decomposition(catalog("torus4"), 1, 1)
    assert pd.summand_dims == (3, 1)
    assert pd.sum_ok and pd.orthogonal_ok
    pd22 = primitive_decomposition(catalog("torus4"), 2, 2)
    assert pd22.summand_dims == (0, 0, 1)
    assert pd22.sum_ok


@pytest.mark.parametrize("name", AK_MODELS)
def test_primitive_decomposition_sums(name):
    model = catalog(name)
    m = build(model).m
    for pq in blocks_of(model):
        pd = primitive_decomposition(model, *pq)
        assert pd.sum_ok, pq
        assert pd.orthogonal_ok, pq
        # no primitive content above the middle degree
        if pq[0] + pq[1] > m:
            assert pd.summand_dims[0] == 0


def test_hodge_riemann_requires_low_degree():
    with pytest.raises(HarmonicError):
        hodge_riemann_check(catalog("kodaira_thurston"), 2, 1)
    with pytest.raises(HarmonicError):
        hodge_riemann_check(catalog("h5_J"), 1, 0)


def test_hodge_riemann_kt():
    hr = hodge_riemann_check(catalog("kodaira_thurston"), 1, 1)
    assert hr.prim_dim == 2
    assert hr.signature_unsigned == (0, 2, 0)
    assert hr.signature_signed == (2, 0, 0)
    assert hr.positive_definite
    hr10 = hodge_riemann_check(catalog("kodaira_thurston"), 1, 0)
    assert hr10.signature_signed == (1, 0, 0)
    assert hr10.positive_definite
    hr00 = hodge_riemann_check(catalog("kodaira_thurston"), 0, 0)
    assert hr00.positive_definite


@pytest.mark.parametrize("name", AK_MODELS)
def test_hodge_riemann_positive_on_all_primitive_blocks(name):
    model = catalog(name)
    m = build(model).m
    for p in range(m + 1):
        for q in range(m + 1):
            if p + q > m:
                continue
            hr = hodge_riemann_check(model, p, q)
            assert hr.positive_definite, (p, q)
            n = hr.prim_dim
            assert hr.signature_signed == (n, 0, 0)


# ---------------------------------------------------------------------------
# four-dimensional signature data


def test_hodge_index_requires_dim_four():
    with pytest.raises(HarmonicError):
        hodge_index(catalog("torus2"))
    with pytest.raises(HarmonicError):
        hodge_index(catalog("torus6"))


def test_hodge_index_requires_almost_kahler():
    with pytest.raises(HarmonicError):
        hodge_index(catalog("filiform4_J"))


def test_hodge_index_values():
    kt = hodge_index(catalog("kodaira_thurston"))
    assert (kt.b2_plus, kt.b2_minus, kt.ell11) == (2, 2, 3)
    assert kt.relation_ok
    assert kt.b2 == 4
    t4 = hodge_index(catalog("torus4"))
    assert (t4.b2_plus, t4.b2_minus, t4.ell11) == (3, 3, 4)
    assert t4.relation_ok
    jp = hodge_index(catalog("filiform4_Jprime"))
    assert (jp.b2_plus, jp.b2_minus, jp.ell11) == (1, 1, 2)
    assert jp.relation_ok


def test_two_zero_harmonics_vanish_without_integrability():
    # in dimension four, a nonintegrable structure with closed fundamental
    # form admits no harmonic (2,0)-forms
    for name in ("kodaira_thurston", "filiform4_Jprime"):
        report = hodge_index(catalog(name))
        assert not report.integrable
        assert report.ell20 == 0
        assert report.nonintegrable_20_vanishes
        dia = ell_diamond(catalog(name))
        assert dia.ell[2][0] == 0 and dia.ell[0][2] == 0


def test_intersection_form_ignores_exact_perturbations():
    # the Hermitian pairing is computed on closed representatives; shifting
    # one by an exact form must not change any entry, hence not the signature
    model = catalog("kodaira_thurston")
    alg = build(model)
    vecs = kernel(vstack([alg.d.degree_slice(2, 3), alg.d.adjoint().degree_slice(2, 1)]))
    reps = [alg.form_from_vector(vec, alg.degree_range(2).start) for vec in vecs]
    exact = [alg.generator_form(g).d() for g in range(model.dim)]
    exact = [f for f in exact if not f.is_zero()]
    assert exact, "the model must have at least one exact 2-form"
    unit = alg.basis_form((0, 0), 0)
    base = harmonic._pairing(reps, unit)
    sig_base = hermitian_signature(base)
    assert sig_base == (2, 2, 0)
    for shift in exact:
        for idx in range(len(reps)):
            perturbed = list(reps)
            perturbed[idx] = perturbed[idx] + shift
            mat = harmonic._pairing(perturbed, unit)
            assert mat == base
            assert hermitian_signature(mat) == sig_base


# ---------------------------------------------------------------------------
# holomorphic forms and partial-bar cohomology


def test_holomorphic_forms_kt():
    report = holomorphic_forms(catalog("kodaira_thurston"), 1)
    assert report.dim == 1
    assert report.matches_harmonic
    assert report.symplectic_bound_ok
    assert not report.free_rank_hypothesis
    assert report.b1 == 3


def test_holomorphic_forms_torus4_equality_case():
    report = holomorphic_forms(catalog("torus4"), 1)
    assert report.dim == 2
    assert report.b1 == 4
    assert report.symplectic_bound_ok


def test_holomorphic_forms_h5_violates_bound():
    report = holomorphic_forms(catalog("h5_J"), 1)
    assert report.dim == 3
    assert report.b1 == 4
    assert not report.symplectic_bound_ok
    assert report.matches_harmonic is None


def test_holomorphic_basis_in_kernel():
    model = catalog("h5_J")
    alg = build(model)
    for p in range(alg.m + 1):
        report = holomorphic_forms(model, p)
        assert len(report.basis) == report.dim
        for f in report.basis:
            assert set(f.bidegrees()) <= {(p, 0)}
            assert alg.dbar.apply(f).is_zero()


def test_mu_bar_cohomology_values():
    kt = catalog("kodaira_thurston")
    assert mu_bar_cohomology(kt, 0, 1) == 2
    assert mu_bar_cohomology(kt, 1, 0) == 1


def test_mu_bar_cohomology_integrable_gives_block_dims():
    model = catalog("h5_J")
    alg = build(model)
    for pq in blocks_of(model):
        assert mu_bar_cohomology(model, *pq) == alg.dim_block(pq)


@pytest.mark.parametrize("source", CATALOG_NAMES + LADDER)
def test_harmonic_counts_match_the_rank_and_kernel_routes(source):
    # mu_bar cohomology is counted by mu_bar-harmonic forms and the
    # holomorphic forms are the dbar-harmonic (p,0)-forms; both agree with
    # the direct computation on every block
    model = model_of(source)
    alg = build(model)
    for pq in alg.block_order:
        assert mu_bar_cohomology(model, *pq) == mu_bar_cohomology_by_rank(alg, *pq), pq
    for p in range(alg.m + 1):
        assert _holomorphic_vectors(alg, p) == tuple(kernel(alg.dbar.block((p, 0), DBAR_SHIFT)))
    assert _holomorphic_vectors(alg, alg.m + 1) == ()


# ---------------------------------------------------------------------------
# the nonexistence certificate


def test_nonexistence_verdict_on_filiform():
    report = ak_nonexistence_report(catalog("filiform4_J"))
    assert report.verdict == AK_NONEXISTENCE_VERDICT
    assert report.nonexistence
    assert report.closed_real_11_dim == 2
    assert report.holomorphic_1_dim == 1
    assert report.t1_is_full
    assert report.t2_dim == 1
    assert report.top_power_vanishes


def test_nonexistence_inconclusive_on_models_with_structures():
    for name in ("kodaira_thurston", "torus2", "torus4"):
        report = ak_nonexistence_report(catalog(name))
        assert report.verdict == "inconclusive", name
        assert not report.nonexistence


def test_nonexistence_vacuous_without_holomorphic_one_forms():
    report = ak_nonexistence_report(catalog("filiform4_Jprime"))
    assert report.verdict == "vacuous"
    assert not report.nonexistence
    assert report.holomorphic_1_dim == 0


def test_nonexistence_never_claims_without_certificate():
    for name in CATALOG_NAMES:
        report = ak_nonexistence_report(catalog(name))
        if report.nonexistence:
            assert report.top_power_vanishes
            assert report.t1_is_full


def test_nonexistence_json():
    data = ak_nonexistence_report(catalog("filiform4_J")).to_json()
    assert data["verdict"] == AK_NONEXISTENCE_VERDICT
    assert data["t2_dim"] == 1
    json.dumps(data)


def _catalog_or_pair(source):
    if source in CATALOG_NAMES:
        return catalog(source)
    first, second = source
    return make_ladder.product(f"{first}_x_{second}", catalog(first), catalog(second))


@pytest.mark.parametrize("source", CATALOG_NAMES + tuple(PAIRS))
def test_real_11_basis_is_real_and_counts_closed_forms(source):
    # d is real, so its kernel on the (1,1) block is the complexification of
    # the closed real (1,1)-forms: their real dimension is its complex nullity
    model = _catalog_or_pair(source)
    alg = build(model)
    n = alg.dim_block((1, 1))
    basis = harmonic._real_11_basis(alg)
    assert rank(ExactMatrix._from_rows(basis, n)) == len(basis) == n
    for vec in basis:
        form = form_from_coordinates(alg, (1, 1), vec)
        assert form.conj() == form
    nullity = n - rank(alg.d.columns((1, 1)))
    assert ak_nonexistence_report(model).closed_real_11_dim == nullity


# product of two catalog models -> sha256 of its nonexistence report JSON
PAIR_NONEXISTENCE_DIGESTS = {
    "filiform4_J_x_filiform4_J":
        "c2fcdd2e52c1859edac078e0526b4fe929333d5414e3d31adf379134da43e443",
    "filiform4_J_x_filiform4_Jprime":
        "03dfef282a747960c52b1128e5676656a48e741b7ad239a6c529cbbae256777d",
    "filiform4_J_x_kodaira_thurston":
        "f89a285aa6eb73fe2d5d4f1ec6317ac4e788cd240a1a806b5b412cd2e2942a7c",
    "filiform4_J_x_torus2":
        "5d4e7f54dbe5358a0079e7bfb95c62ad3ee86bde25dc3e59e9214ceabe3cb648",
    "filiform4_J_x_torus4":
        "79b6df490ba75756e60f3715193d91b8345be7222c3b34151604f2d58f30cf70",
    "filiform4_Jprime_x_filiform4_Jprime":
        "59c385e431930602e26c693c0e33e326157eea7eac1949e54518c66396ac6cbb",
    "filiform4_Jprime_x_kodaira_thurston":
        "f39e211539fee3e3db0b29787ea16bbc6cd47f4641361ebb3276cacb2b2d6c29",
    "filiform4_Jprime_x_torus2":
        "5931682ef473a2f58a1f535859b7044f37a49694901e313c59ab247318e59d73",
    "filiform4_Jprime_x_torus4":
        "a1a390be0a68385e4318373808ec1bf1a406900c0c064a74fbed2b8e4045b733",
    "h5_J_x_torus2":
        "f58b46c384db0ed21db06436c8fbc4b1db1774d08cfd89464b086d028ce12062",
    "kodaira_thurston_x_kodaira_thurston":
        "62b1c02aa79652034c5be95e9e2b4211cf3adeb78851b89ae46136d39fe90781",
    "kodaira_thurston_x_torus2":
        "a83683130ffe3aa41a21fdbdca4a14374286ca1041ff52663f70056f017481a4",
    "kodaira_thurston_x_torus4":
        "2fffcd7a7ec02d590d0dc2c5a47adc6852bec66ffb647830fa21a227944b5368",
    "torus2_x_torus2":
        "2302b49deb0eec4e84e12af7ddd13385239ca1c621c067d2553a0444aa5f266b",
    "torus2_x_torus4":
        "3728d34780c501af8b102b921678b5d97d8296399c7a16061b86a71f67cbdb9b",
    "torus2_x_torus6":
        "4bcbe64d9e69479e28c7aab614812eefba8a986ab0a099143c9e176747400a38",
    "torus4_x_torus4":
        "906e1f4d40289d37f6aa26dd7ee92605a056d9ad0d8e98943663e06bc5f4c873",
}


@pytest.mark.parametrize("first, second", PAIRS)
def test_pair_nonexistence_report_matches_recorded_digest(first, second):
    report = ak_nonexistence_report(_catalog_or_pair((first, second)))
    text = json.dumps(report.to_json(), sort_keys=True)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == PAIR_NONEXISTENCE_DIGESTS[f"{first}_x_{second}"]


# ---------------------------------------------------------------------------
# combined obstruction report


def test_obstruction_fires_on_h5():
    report = obstruction_report(catalog("h5_J"))
    assert report.fires
    assert not report.symplectic_bound_ok
    assert report.hol_dims == (1, 3, 3, 1)
    assert report.b1 == 4
    assert report.laplacian_witness is not None
    assert report.integrable


def test_obstruction_fires_on_filiform():
    report = obstruction_report(catalog("filiform4_J"))
    assert report.fires
    assert report.symplectic_bound_ok  # the dimension count alone is happy
    assert report.laplacian_witness is not None
    assert report.ak_nonexistence.nonexistence


def test_obstruction_quiet_on_almost_kahler_models():
    for name in AK_MODELS:
        report = obstruction_report(catalog(name))
        assert not report.fires, name
        assert report.laplacian_witness is None
        assert report.symplectic_bound_ok


def test_obstruction_json():
    data = obstruction_report(catalog("h5_J")).to_json()
    assert data["scope"] == "invariant"
    assert data["fires"] is True
    assert data["symplectic_bound_ok"] is False
    json.dumps(data)


# ---------------------------------------------------------------------------
# the per-algebra memo


def test_build_cache_clear_frees_every_report():
    # a name of its own gives an algebra that no other test holds
    model = catalog("kodaira_thurston")._replace(name="kt_freed")
    ref = weakref.ref(build(model))
    ell_diamond(model)
    obstruction_report(model)
    build.cache_clear()
    gc.collect()
    assert ref() is None


def test_reports_reuse_kernels_and_laplacians(monkeypatch):
    model = catalog("kodaira_thurston")._replace(name="kt_memo")
    first = obstruction_report(model)
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for module in (harmonic, operators):
        monkeypatch.setattr(module, "kernel", counted("kernel", module.kernel))
    monkeypatch.setattr(operators, "_laplacian",
                        counted("laplacian", operators._laplacian))
    assert obstruction_report(model) == first
    assert calls == Counter()
    ell_diamond(model)
    assert calls["laplacian"] == 0


def test_report_builds_each_adjoint_once(monkeypatch, capsys):
    # the adjoints of d, its four components and L; the ledger's lap_mu_split
    # sums the memoized adjoints of mu_bar and mu.  A cleared build cache
    # makes the report start cold
    build.cache_clear()
    calls = []
    adjoint = BlockOperator.adjoint

    def counted(op):
        calls.append(op)
        return adjoint(op)

    monkeypatch.setattr(BlockOperator, "adjoint", counted)
    assert main(["report", "--catalog", "kodaira_thurston", "--format", "json"]) == 0
    capsys.readouterr()
    assert len(calls) == 6


def test_cold_reports_compose_only_for_the_d_squared_check(monkeypatch, capsys):
    # harmonic spaces are joint kernels of components and adjoints, so no
    # report composes operators; build composes d with itself once
    calls = []
    compose = BlockOperator.compose

    def counted(op, other):
        calls.append(op)
        return compose(op, other)

    monkeypatch.setattr(BlockOperator, "compose", counted)
    for command in ("diamond", "obstructions", "lefschetz"):
        build.cache_clear()
        calls.clear()
        assert main([command, "--catalog", "kodaira_thurston", "--format", "json"]) == 0
        capsys.readouterr()
        assert len(calls) == 1, command


def test_hard_lefschetz_runs_once_per_algebra(monkeypatch):
    model = catalog("kodaira_thurston")._replace(name="kt_lefschetz")
    ell_diamond(model)  # runs hard Lefschetz for its lefschetz_ok flag
    ranks = []
    monkeypatch.setattr(harmonic, "rank", lambda mat: ranks.append(mat))
    report = hard_lefschetz(model)
    assert ranks == []
    assert report.model_name == "kt_lefschetz" and report.all_iso


# ---------------------------------------------------------------------------
# property sampling across the catalog


@settings(deadline=None, max_examples=60)
@given(name=st.sampled_from(AK_MODELS), data=st.data())
def test_duality_pairs_sampled(name, data):
    model = catalog(name)
    m = build(model).m
    p = data.draw(st.integers(min_value=0, max_value=m))
    q = data.draw(st.integers(min_value=0, max_value=m))
    dia = ell_diamond(model)
    assert dia.ell[p][q] == dia.ell[q][p] == dia.ell[m - p][m - q]


@settings(deadline=None, max_examples=40)
@given(name=st.sampled_from(CATALOG_NAMES))
def test_harmonic_dims_bounded_by_block_dims(name):
    model = catalog(name)
    alg = build(model)
    for pq in alg.block_order:
        n = alg.dim_block(pq)
        for which in WHICH_CHOICES:
            assert 0 <= len(harmonic_basis(model, which, *pq)) <= n


# ---------------------------------------------------------------------------
# harmonic spaces against their Laplacian definitions


def _old_primitive_vectors(alg, pq):
    """The primitive harmonics as first computed: the combinations of the
    d-harmonic basis that the contraction operator kills."""
    harm = operators._harmonic_vectors(alg, "d", pq)
    if not harm:
        return ()
    lam_mat = alg.lam.block(pq, (-1, -1))
    combos = kernel(ExactMatrix._from_rows([lam_mat.apply(v) for v in harm],
                                           lam_mat.rows).transpose())
    basis = ExactMatrix._from_rows(harm, alg.dim_block(pq)).transpose()
    return tuple(basis.apply(c) for c in combos)


@pytest.mark.parametrize("source", CATALOG_NAMES + LADDER)
def test_harmonic_spaces_are_kernels_of_laplacians(source):
    alg = build(model_of(source))
    lap = {name: operators.laplacian(getattr(alg, name))
           for name in ("mu_bar", "dbar", "partial", "mu", "d")}
    sums = {"dbar+mu": lap["dbar"] + lap["mu"],
            "partial+mu_bar": lap["partial"] + lap["mu_bar"]}
    for pq in alg.block_order:
        for which, op in sums.items():
            assert (operators._harmonic_vectors(alg, which, pq)
                    == tuple(kernel(op.block(pq, (0, 0))))), (which, pq)
        assert (operators._harmonic_vectors(alg, "d", pq)
                == tuple(kernel(lap["d"].columns(pq)))
                == eightfold_d_kernel(alg, pq)), pq
        new = harmonic._primitive_vectors(alg, pq)
        old = _old_primitive_vectors(alg, pq)
        assert len(new) == len(old), pq
        if new:
            assert rank(ExactMatrix._from_rows(new + old, alg.dim_block(pq))) == len(new), pq
