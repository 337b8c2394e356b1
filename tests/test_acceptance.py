"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is fixed here; run with ``pytest -s tests/test_acceptance.py``
to see the per-criterion lines.
"""

import math

import numpy as np

from psokit import matops, psocheck, triplets
from psokit.expfun import (
    NEG_INF,
    POS_INF,
    PiecewiseExpFunction,
    inner,
    inner_quadrature,
)
from psokit.models import (
    HaarSystem,
    MomentumModel,
    NonlocalModel,
    ShiftModel,
    continuous_bump,
    haar_gram,
    momentum_eigen_test,
    random_maximal_domain_function,
    restriction_pairing,
    shift_cayley_identity,
    shift_orthogonality_defect,
    shift_wandering_report,
    similarity_conjugation_check,
    weyl_relation_check,
)

GRID = psocheck.Grid.default()


def report(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{criterion}: {detail}"


def quadrature_theta(model, lam, rel_tol):
    """theta at lam from the native boundary maps, each pairing (f, h) taken
    by the quadrature oracle instead of the closed form."""
    f = model.defects(lam)
    gp, gm = (m.combine(f.limit(0.0, "-"), f.limit(0.0, "+"),
                        [inner_quadrature(f, h, rel_tol) for _, h in m.pairings])
              for m in (model.triplet.gamma_plus, model.triplet.gamma_minus))
    return triplets.char_value(lam, gp, gm)


def test_criterion_01_constant_theta_closed_form_and_quadrature():
    model = NonlocalModel("I", 4j)
    closed = max(abs(triplets.char_function(model.triplet, model.defects, lam))
                 for lam in GRID.lambdas_upper)
    quad = max(abs(quadrature_theta(model, lam, 1e-8)) for lam in GRID.lambdas_upper)
    ok = closed <= 1e-10 and quad <= 1e-6
    report("01 constant theta (alpha=4i)", ok,
           f"closed-form max |theta| = {closed:.3e} (tol 1e-10), "
           f"quadrature max |theta| = {quad:.3e} (tol 1e-6)")


def test_criterion_02_nonconstant_theta_witness():
    model = NonlocalModel("I", 1.0)
    theta_i = triplets.char_function(model.triplet, model.defects, 1j)
    deviation = psocheck.constancy_scan(model, GRID).max_residual
    value_ok = abs(theta_i - (-0.10820 - 0.20984j)) <= 1e-4
    ok = value_ok and deviation >= 0.01
    report("02 non-constant theta (alpha=1)", ok,
           f"theta(i) = {theta_i:.6f} (expected -0.10820-0.20984i +- 1e-4), "
           f"grid deviation = {deviation:.3e} (>= 0.01)")


def test_criterion_03_case_ii_pairing_formula():
    worst_match = 0.0
    for alpha in (1.0, 1j, 2j, 3 - 1j):
        model = NonlocalModel("II", alpha)
        for lam in GRID.lambdas_upper:
            for nu in GRID.lambdas_lower:
                got = inner(model.defects(lam), model.defects(nu))
                expected = (np.conj(alpha) * (2j - alpha)
                            / (2 * (1 - 1j * lam) * (1 - 1j * np.conj(nu))))
                worst_match = max(worst_match, abs(got - expected))

    def normalized_sup(alpha):
        defects = NonlocalModel("II", alpha).defects

        def unit(z):
            return (1.0 / defects.norms_at([z])[0]) * defects(z)

        return max(
            abs(inner(unit(lam), unit(nu)))
            for lam in GRID.lambdas_upper for nu in GRID.lambdas_lower
        )

    vanishing = normalized_sup(2j)
    others = {a: normalized_sup(a) for a in (1.0, 1j, 3 - 1j)}
    ok = (worst_match <= 1e-10 and vanishing <= 1e-12
          and all(v > 1e-12 for v in others.values()))
    report("03 case II pairing formula", ok,
           f"max formula mismatch = {worst_match:.3e} (tol 1e-10), "
           f"alpha=2i sup = {vanishing:.3e} (tol 1e-12), "
           f"others min = {min(others.values()):.3e} (> 1e-12)")


def test_criterion_04_momentum_scans_and_criterion_equivalence():
    mom = MomentumModel()
    cert = psocheck.pso_certificate(mom, GRID)
    mom_worst = max(c.max_residual for c in cert.checks)

    fixtures = [mom]
    fixtures += [NonlocalModel("I", a) for a in (0.0, 1.0, 1j, 2j, 4j, -4j, 3 + 1j)]
    fixtures += [NonlocalModel("II", a) for a in (1.0, 1j, 2j, 3 - 1j)]
    agreement = True
    for model in fixtures:
        verdicts = {c.verdict for c in psocheck.pso_certificate(model, GRID).checks}
        agreement = agreement and len(verdicts) == 1

    ok = mom_worst <= 1e-12 and cert.overall == "pass" and agreement
    report("04 momentum scans + criterion equivalence", ok,
           f"momentum max residual = {mom_worst:.3e} (tol 1e-12), "
           f"verdicts agree on {len(fixtures)} fixtures = {agreement}")


def test_criterion_05_shift_model():
    wander_ok = True
    for d in (8, 16):
        rep = shift_wandering_report(ShiftModel(d))
        pre = max(rep.defect_per_n[: d - 1])
        wander_ok = (wander_ok and rep.first_violation == d
                     and pre <= 1e-10 and abs(rep.defect_per_n[d - 1] - 1) <= 1e-10)

    decay_ok = True
    defects = {}
    for d in (10, 16, 22, 28):
        value = shift_orthogonality_defect(ShiftModel(d), 2j)
        defects[d] = value
        ratio = value / 3.0 ** (-(d - 1))
        decay_ok = decay_ok and 0.1 <= ratio <= 10.0

    rng = np.random.default_rng(55)
    identity_worst = 0.0
    for d in (8, 16, 32):
        model = ShiftModel(d)
        for _ in range(10):
            x = rng.normal(size=d) + 1j * rng.normal(size=d)
            identity_worst = max(identity_worst, shift_cayley_identity(model, x))

    ok = wander_ok and decay_ok and identity_worst <= 1e-11
    report("05 shift model", ok,
           f"wandering exact for d in (8,16) = {wander_ok}, "
           f"defect(d)/3^-(d-1) in [0.1,10] for d in (10,16,22,28) = {decay_ok}, "
           f"cayley identity worst = {identity_worst:.3e} (tol 1e-11)")


def test_criterion_06_cayley_round_trip():
    rng = np.random.default_rng(66)
    worst_unitary = 0.0
    worst_trip = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 33))
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = (g + g.conj().T) / 2
        u = matops.cayley(a)
        worst_unitary = max(worst_unitary,
                            matops.opnorm(u.conj().T @ u - np.eye(n)))
        worst_trip = max(worst_trip,
                         matops.opnorm(matops.inverse_cayley(u) - a)
                         / (1 + matops.opnorm(a)))
    ok = worst_unitary <= 1e-10 and worst_trip <= 1e-9
    report("06 cayley round trip", ok,
           f"unitarity worst = {worst_unitary:.3e} (tol 1e-10), "
           f"round-trip worst = {worst_trip:.3e} (tol 1e-9)")


def test_criterion_07_interspherical_transform():
    rng = np.random.default_rng(77)
    k_id = matops.KreinBlockOperator.identity(2)
    z0 = rng.normal(size=(2, 2)) * 0.3
    identity_exact = np.array_equal(matops.interspherical(k_id, z0), z0)

    r = math.log(2)
    k_hyp = matops.KreinBlockOperator([[math.cosh(r)]], [[math.sinh(r)]],
                                      [[math.sinh(r)]], [[math.cosh(r)]])
    hyp = matops.interspherical(k_hyp, 0.0)
    hyp_ok = abs(hyp - 0.6) <= 1e-12

    contraction_worst = 0.0
    composition_worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 4))
        k1 = matops.random_krein_unitary(m, rng)
        k2 = matops.random_krein_unitary(m, rng)
        z = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        z *= rng.uniform(0, 0.9) / max(matops.opnorm(z), 1e-12)
        phi1 = np.atleast_2d(matops.interspherical(k1, z))
        contraction_worst = max(contraction_worst, matops.opnorm(phi1) - 1)
        lhs = np.atleast_2d(matops.interspherical(
            matops.KreinBlockOperator.from_matrix(k2.matrix @ k1.matrix), z))
        rhs = np.atleast_2d(matops.interspherical(k2, phi1))
        composition_worst = max(composition_worst, matops.opnorm(lhs - rhs))

    ok = (identity_exact and hyp_ok and contraction_worst <= 1e-10
          and composition_worst <= 1e-10)
    report("07 interspherical transform", ok,
           f"identity exact = {identity_exact}, hyperbolic value = {hyp:.12f}, "
           f"contraction excess = {contraction_worst:.3e}, "
           f"composition worst = {composition_worst:.3e} (tol 1e-10)")


def test_criterion_08_mobius_relation_between_triplets():
    model = NonlocalModel("I", 1.0)
    t2 = triplets.defect_triplet(model, 1j)
    k = triplets.change_of_basis(model.triplet, t2, model, mu=1j)
    krein_defect = k.krein_defect()
    worst = 0.0
    for lam in GRID.lambdas_upper:
        th1 = triplets.char_function(model.triplet, model.defects, lam)
        th2 = triplets.char_function(t2, model.defects, lam)
        worst = max(worst, abs(th2 - matops.interspherical(k, th1)))
    ok = worst <= 1e-8 and krein_defect <= 1e-10
    report("08 mobius relation across triplet change", ok,
           f"max relation deviation = {worst:.3e} (tol 1e-8), "
           f"krein defect = {krein_defect:.3e} (tol 1e-10)")


def test_criterion_09_green_identity_all_triplets():
    rng = np.random.default_rng(99)
    worst = 0.0
    for model in (MomentumModel(), NonlocalModel("I", 1.0),
                  NonlocalModel("II", 3 - 1j)):
        for _ in range(20):
            f = random_maximal_domain_function(rng)
            g = random_maximal_domain_function(rng)
            worst = max(worst, triplets.green_residual(model.triplet, model, f, g))
    ok = worst <= 1e-10
    report("09 green identity", ok,
           f"worst residual over 3 x 20 random pairs = {worst:.3e} (tol 1e-10)")


def test_criterion_10_haar_gram_identity():
    system = HaarSystem(j_range=(-3, 3), k_range=(-8, 8))
    gram = haar_gram(system)
    deviation = matops.opnorm(gram - np.eye(gram.shape[0]))
    ok = deviation <= 1e-12
    report("10 haar gram identity", ok,
           f"{gram.shape[0]} elements, ||gram - I|| = {deviation:.3e} (tol 1e-12)")


def test_criterion_11_classification_and_similarity():
    rng = np.random.default_rng(111)
    table_ok = True
    for _ in range(50):
        n = int(rng.integers(1, 4))
        t = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        if rng.random() < 0.5:
            v = rng.normal(size=n) + 1j * rng.normal(size=n)
            t = t - np.outer(t @ v, v.conj()) / np.vdot(v, v)
        lam = complex(rng.uniform(-5, 5), rng.uniform(0.1, 5))
        label = psocheck.classify_spectrum(np.zeros((n, n)), t)
        eigen = momentum_eigen_test(t, lam)
        singular = matops.is_singular(t)
        expected = (psocheck.SpectrumClass.REAL_PLUS_UPPER if singular
                    else psocheck.SpectrumClass.REAL_LINE)
        table_ok = table_ok and label == expected and eigen == singular

    def sample_for(t1, m):
        v = rng.normal(size=m) + 1j * rng.normal(size=m)
        w = np.atleast_2d(t1) @ v
        comps = []
        for j in range(m):
            comps.append(
                PiecewiseExpFunction.single(v[j], NEG_INF, 0.0, rng.uniform(0.5, 2))
                + PiecewiseExpFunction.single(w[j], 0.0, POS_INF, -rng.uniform(0.5, 2))
            )
        return comps if m > 1 else comps[0]

    similarity_worst = 0.0
    for _ in range(20):
        m = int(rng.integers(1, 3))
        t1 = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)) + 2 * np.eye(m)
        t2 = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        samples = [sample_for(t1, m) for _ in range(3)]
        similarity_worst = max(similarity_worst,
                               similarity_conjugation_check(t1, t2, samples))

    ok = table_ok and similarity_worst <= 1e-12
    report("11 spectrum classification + similarity", ok,
           f"truth table on 50 draws = {table_ok}, "
           f"similarity worst = {similarity_worst:.3e} (tol 1e-12)")


def test_criterion_12_weyl_relation():
    fixtures = [
        PiecewiseExpFunction.single(1.0, NEG_INF, 0.0, 1.0)
        + PiecewiseExpFunction.single(1.0, 0.0, POS_INF, -1.0),
        PiecewiseExpFunction.single(0.5 - 1j, NEG_INF, 0.0, 2.0)
        + PiecewiseExpFunction.single(0.5 - 1j, 0.0, POS_INF, -3.0),
        continuous_bump(-1.0, 2.5, 0.9, 2.2, 1.0 + 0.5j),
    ]
    worst = max(weyl_relation_check(t, f)
                for t in (-2.0, 0.5, 1.0) for f in fixtures)
    ok = worst <= 1e-14
    report("12 weyl commutation relation", ok,
           f"worst term-level distance = {worst:.3e} (tol 1e-14)")


def test_criterion_13_restriction_condition_equivalences():
    gamma_right = PiecewiseExpFunction.single(1.0, 0.0, POS_INF, -1.0)
    gamma_left = PiecewiseExpFunction.single(1.0, NEG_INF, 0.0, 1.0)

    def witness(p, q, r):
        u1 = (PiecewiseExpFunction.single(1.0, NEG_INF, 0.0, 1.0)
              + PiecewiseExpFunction.single(1.0, 0.0, POS_INF, -1.0))
        u2 = (PiecewiseExpFunction.single(1.0, NEG_INF, 0.0, 2.0)
              + PiecewiseExpFunction.single(1.0, 0.0, POS_INF, -3.0))
        u3 = continuous_bump(-1.5, 2.0, 0.7, 1.9)
        return p * u1 + q * u2 + r * u3

    coeff_sets = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0.8 - 0.3j, -1.1, 0.6 + 1j)]
    worst_point = 0.0
    worst_nonlocal = 0.0
    for coeffs in coeff_sets:
        u = witness(*coeffs)
        u0 = u.limit(0.0, "-")
        point = restriction_pairing(u, gamma_right) - (-1j) * u0
        worst_point = max(worst_point, abs(point))
        nonlocal_ = restriction_pairing(u, gamma_left) - 1j * (
            u0 - 2 * inner(u, gamma_left))
        worst_nonlocal = max(worst_nonlocal, abs(nonlocal_))
    ok = worst_point <= 1e-12 and worst_nonlocal <= 1e-12
    report("13 restriction-condition equivalences", ok,
           f"point condition residual = {worst_point:.3e}, "
           f"nonlocal condition residual = {worst_nonlocal:.3e} (tol 1e-12)")
