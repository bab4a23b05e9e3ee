"""Enveloping crossed module of a Leibniz crossed module.

Pipeline: semidirect product -> truncated envelopes -> induced maps for the
two cat¹ projections s, t -> kernel-product ideal X = Ker(s)Ker(t) +
Ker(t)Ker(s) -> quotient -> (Ker s̄, UL(p), t̄ restricted).  The
kernel-product step is :func:`kernel_product_quotient`, which the
categorical envelope in ``lm`` runs for its top row as well.

Everything is degree-truncated, so every verdict carries a report degree
d <= D - 2 and stabilization certificates.
"""

import itertools
from dataclasses import dataclass, field

from .linalg import LinearMap, Subspace, zero_subspace
from .freealg import (TruncQuotAlgebra, filtration_basis, induced_map,
                      subspace_product)
from .leibniz import semidirect
from .xmod import (LeibnizXMod, cat1_matrices, check_xmod, identity_xmod,
                   zero_xmod)
from .envelope import ULAlgebra, ul, ul_images, ul_map


class XModAxiomError(ValueError):
    """Raised when the input of :func:`xul` fails the crossed-module
    axioms."""


def require_xmod(x):
    """Raise XModAxiomError unless x satisfies the crossed-module axioms."""
    bad = check_xmod(x)
    if bad:
        raise XModAxiomError("input fails crossed-module axioms: %r"
                             % bad[:3])


@dataclass(frozen=True)
class TruncAssocXMod:
    """Degree-truncated (Ker s̄, UL(p), t̄|) with its ambient quotient."""

    x: LeibnizXMod
    ul_sd: ULAlgebra        # UL(q ⋊ p) before the kernel-product quotient
    ul_p: ULAlgebra
    ambient: TruncQuotAlgebra
    pi: LinearMap           # UL(q⋊p) class coords -> ambient class coords
    bar_s: LinearMap        # ambient -> UL(p)
    bar_t: LinearMap
    embed: LinearMap        # UL(p) -> ambient (section through p ↪ q⋊p)
    B: Subspace             # Ker bar_s, in ambient class coordinates
    rho: LinearMap          # bar_t restricted to B (columns = B basis rows)
    report_degree: int
    certificates: dict = field(default_factory=dict)

    def b_filtration(self, d):
        """Filtration basis rows of B with fdeg <= d, as class vectors."""
        return filtration_basis(self.ambient, self.B, d)

    def b_dim_upto(self, d):
        return len(self.b_filtration(d))


def report_degree_for(degree, report_degree):
    """The report degree d of a run at working degree D: D - 2 unless
    given; raises unless 0 <= d <= D - 2."""
    d = degree - 2 if report_degree is None else report_degree
    if not 0 <= d <= degree - 2:
        raise ValueError("report degree must satisfy 0 <= d <= D - 2")
    return d


@dataclass(frozen=True)
class KernelQuotient:
    """The kernel-product quotient of a cat¹ envelope and its induced maps."""

    s: LinearMap            # envelope class coords -> target class coords
    t: LinearMap
    s_ker: Subspace         # Ker s, in envelope class coordinates
    t_ker: Subspace
    quot: TruncQuotAlgebra  # envelope / (Ker s·Ker t + Ker t·Ker s)
    pi: LinearMap           # envelope class coords -> quot class coords
    bar_s: LinearMap        # quot -> target
    bar_t: LinearMap
    embed: LinearMap        # target -> quot through the section


def kernel_product_quotient(env, target, s_imgs, t_imgs, section):
    """Quotient of the envelope ``env`` by X = Ker s·Ker t + Ker t·Ker s,
    where s, t: env -> target are the algebra maps with generator images
    s_imgs, t_imgs (class vectors of target), and the embedding target ->
    env / X sends target generator j to the class of env generator
    section[j]."""
    s = induced_map(env, target, s_imgs)
    t = induced_map(env, target, t_imgs)
    s_ker, t_ker = s.kernel(), t.kernel()
    quot = env.extend_by(subspace_product(s_ker, t_ker, env).sum(
        subspace_product(t_ker, s_ker, env)))
    pi = LinearMap.from_cols(
        quot.dim, [quot.to_coords(quot.reduce({w: 1}))
                   for w in env.class_words])
    # induced s̄, t̄: the same generator images, now also checked against X
    bar_s = induced_map(quot, target, s_imgs)
    bar_t = induced_map(quot, target, t_imgs)
    embed = induced_map(target, quot,
                        [quot.reduce_word((i,)) for i in section])
    return KernelQuotient(s, t, s_ker, t_ker, quot, pi, bar_s, bar_t, embed)


def xul(x, degree, slack=2, report_degree=None):
    """Build the truncated enveloping crossed module of x."""
    require_xmod(x)
    report_degree = report_degree_for(degree, report_degree)

    sd = semidirect(x.action)
    usd = ul(sd, degree, slack)
    up = ul(x.p, degree, slack)
    n_sd, nq = sd.dim, x.q.dim
    smat, tmat = cat1_matrices(x.eta)
    section = [nq + i for i in range(x.p.dim)] + \
        [n_sd + nq + i for i in range(x.p.dim)]
    kq = kernel_product_quotient(usd.quot, up.quot, ul_images(up, smat),
                                 ul_images(up, tmat), section)
    B = kq.bar_s.kernel()
    rho = kq.bar_t.restrict(B)
    certs = {
        "ul_semidirect_stabilized": usd.stabilized,
        "ul_p_stabilized": up.stabilized,
        "product_boundary_degree": degree - 1,
    }
    return TruncAssocXMod(x, usd, up, kq.quot, kq.pi, kq.bar_s, kq.bar_t,
                          kq.embed, B, rho, report_degree, certs)


def check_trunc_xmod(tx):
    """CAs1/CAs2 and the crossed-module identities at the report degree.

    Returns a list of violations (empty = pass at degree d).
    """
    bad = []
    d = tx.report_degree
    bar, up = tx.ambient, tx.ul_p

    if tx.bar_s.compose(tx.embed) != LinearMap.identity(up.dim):
        bad.append(("CAs1_s", None))
    if tx.bar_t.compose(tx.embed) != LinearMap.identity(up.dim):
        bad.append(("CAs1_t", None))

    def mult_coords(a, b, bound):
        av, bv = bar.from_coords(a), bar.from_coords(b)
        return bar.to_coords(bar.mult(av, bv, bound))

    B_rows = tx.b_filtration(d)
    Kt = tx.bar_t.kernel()
    Kt_rows = filtration_basis(bar, Kt, d)

    # CAs2: kernel products vanish up to degree d
    for da, va in B_rows:
        for db, vb in Kt_rows:
            if da + db > d:
                continue
            a, b = bar.to_coords(va), bar.to_coords(vb)
            if mult_coords(a, b, d) or mult_coords(b, a, d):
                bad.append(("CAs2", (da, db)))

    # crossed-module identities on filtration bases
    up_rows = [(len(w), {i: 1})
               for i, w in enumerate(up.quot.class_words) if len(w) <= d]
    for da, va in B_rows:
        a = bar.to_coords(va)
        ra = tx.rho.apply(tx.B.coords(a))
        for db, vb in B_rows:
            if da + db > d:
                continue
            b = bar.to_coords(vb)
            ab = mult_coords(a, b, d)
            rb = tx.rho.apply(tx.B.coords(b))
            # rho is multiplicative
            lhs = tx.rho.apply(tx.B.coords(ab))
            rhs = up.quot.to_coords(up.quot.mult(
                up.quot.from_coords(ra), up.quot.from_coords(rb), d))
            if lhs != rhs:
                bad.append(("rho_hom", (da, db)))
            # Peiffer: rho(a).b = a.b = a.rho(b)
            if mult_coords(tx.embed.apply(ra), b, d) != ab:
                bad.append(("peiffer_left", (da, db)))
            if mult_coords(a, tx.embed.apply(rb), d) != ab:
                bad.append(("peiffer_right", (da, db)))
        for du, vu in up_rows:
            if da + du > d:
                continue
            u = tx.embed.apply(vu)
            ua = mult_coords(u, a, d)
            au = mult_coords(a, u, d)
            if not tx.B.contains_vec(ua) or not tx.B.contains_vec(au):
                bad.append(("action_not_in_B", (du, da)))
                continue
            # equivariance: rho(u.b) = u rho(b), rho(b.u) = rho(b) u
            uq = {i: c for i, c in vu.items()}
            if tx.rho.apply(tx.B.coords(ua)) != up.quot.to_coords(
                    up.quot.mult(up.quot.from_coords(uq),
                                 up.quot.from_coords(ra), d)):
                bad.append(("equivariance_left", (du, da)))
            if tx.rho.apply(tx.B.coords(au)) != up.quot.to_coords(
                    up.quot.mult(up.quot.from_coords(ra),
                                 up.quot.from_coords(uq), d)):
                bad.append(("equivariance_right", (du, da)))
    return bad


# ---------------------------------------------------------------------------
# executable lemmas


def combine_verdict(ok, certificates):
    """The verdict of a check: "fail" when ok is false, whatever the
    certificates say; otherwise "inconclusive" if any certificate is False,
    else "pass".  Non-boolean certificate values (degrees) never count as
    false."""
    if not ok:
        return "fail"
    if any(v is False for v in certificates):
        return "inconclusive"
    return "pass"


def _kernel_words_span(usd, nq, d):
    """Span of classes of words of length <= d containing a pure-q letter."""
    g = usd.quot.parent.ngens
    n_sd = g // 2
    qletters = set(range(nq)) | set(range(n_sd, n_sd + nq))
    vecs = []
    for k in range(1, d + 1):
        for w in itertools.product(range(g), repeat=k):
            if any(c in qletters for c in w):
                vecs.append(usd.quot.to_coords(usd.quot.reduce_word(w)))
    return Subspace.from_vectors(usd.quot.dim, vecs)


def _lemma41_core(x, degree, slack, d):
    sd = semidirect(x.action)
    usd = ul(sd, degree, slack)
    up = ul(x.p, degree, slack)
    smat, _ = cat1_matrices(x.eta)
    Us = ul_map(usd, up, smat)
    Ks = Us.kernel()
    rows = filtration_basis(usd.quot, Ks, d)
    lhs = Subspace.from_vectors(
        usd.quot.dim, [usd.quot.to_coords(v) for _, v in rows])
    rhs = _kernel_words_span(usd, x.q.dim, d)
    return lhs, rhs, usd.stabilized, up.stabilized


def lemma41_check(x, degree, slack=2, report_degree=None):
    """Ker UL(s) ∩ F_d equals the span of classes of words with a zero
    p-component slot, with stabilization certificates.

    When both envelopes are exact (their certificates are proofs),
    Ker UL(s) ∩ F_d depends on neither the working degree D >= d + 2 nor
    the slack, so the slack and degree stability certificates are the
    conjunction of the two envelopes' certificates.

    Returns a dict record with verdict "pass", "fail" or "inconclusive";
    raises XModAxiomError, as :func:`xul` does, on a non-crossed module.
    """
    require_xmod(x)
    d = report_degree_for(degree, report_degree)
    lhs, rhs, stab, p_stab = _lemma41_core(x, degree, slack, d)
    equal = lhs == rhs
    exact = stab and p_stab
    return {
        "name": "lemma41",
        "degree": d,
        "lhs_dim": lhs.dim,
        "rhs_dim": rhs.dim,
        "equal": equal,
        "stabilized": stab,
        "slack_stable": exact,
        "degree_stable": exact,
        "verdict": combine_verdict(equal, (exact,)),
    }


def section_into_b(tx, eps):
    """pi ∘ UL(eps) for a section eps: p -> q⋊p with s∘eps = 0, t∘eps = id,
    in B-coordinates.

    Both s-bar and the induced envelope maps are unital, so the unit can
    never lie in Ker s-bar; the section lands in the kernel only on the
    augmentation ideal (classes with zero constant term).  The unit column
    is therefore zero.  Raises if any non-unit class leaves Ker s-bar.
    """
    Ueps = ul_map(tx.ul_p, tx.ul_sd, eps)
    comp = tx.pi.compose(Ueps)
    cols = []
    for j, w in enumerate(tx.ul_p.quot.class_words):
        if w == ():
            cols.append({})
            continue
        v = comp.col(j)
        if not tx.B.contains_vec(v):
            raise ValueError("section image leaves Ker bar_s")
        cols.append(tx.B.coords(v))
    return LinearMap.from_cols(tx.B.dim, cols)


def prop42_check(p, degree, slack=2, report_degree=None):
    """For (p, p, id): pi∘UL(eps) and bar_t| are mutually inverse between
    the augmentation ideal of UL(p) and Ker bar_s, on filtration bases up
    to the report degree.

    The kernel is a non-unital ideal, so the identification with UL(p)
    necessarily misses the unit; both composites are checked on classes
    with zero constant term only.
    """
    d = report_degree_for(degree, report_degree)
    x = identity_xmod(p)
    tx = xul(x, degree, slack, report_degree=d)
    n = p.dim
    eps = LinearMap.from_cols(2 * n, [{i: 1} for i in range(n)])
    sigma = section_into_b(tx, eps)

    up = tx.ul_p.quot
    ok_there = True
    for i, w in enumerate(up.class_words):
        if len(w) > d or w == ():
            continue
        out = tx.rho.apply(sigma.col(i))
        if out != {i: 1}:
            ok_there = False
    ok_back = True
    checked = 0
    for deg, v in tx.b_filtration(d):
        bc = tx.B.coords(tx.ambient.to_coords(v))
        if sigma.apply(tx.rho.apply(bc)) != bc:
            ok_back = False
        checked += 1
    bad = check_trunc_xmod(tx)
    certs = dict(tx.certificates)
    verdict = combine_verdict(ok_there and ok_back and not bad,
                              certs.values())
    return {
        "name": "prop42",
        "degree": d,
        "ul_dim_upto_d": up.dim_upto(d),
        "b_dim_upto_d": checked,
        "composite_on_ul_is_id": ok_there,
        "composite_on_b_is_id": ok_back,
        "xmod_violations": len(bad),
        "verdict": verdict,
        "certificates": certs,
    }


def embedding_squares_check(p, degree, slack=2, report_degree=None):
    """XUL(0, p, 0) = (0, UL(p), 0): zero kernel and ambient identified
    with UL(p) on the nose."""
    d = report_degree_for(degree, report_degree)
    tx = xul(zero_xmod(p), degree, slack, report_degree=d)
    b_zero = tx.B == zero_subspace(tx.ambient.dim)
    a_matches = (tx.ambient.dim == tx.ul_p.dim
                 and tx.bar_s.rank() == tx.ul_p.dim)
    certs = dict(tx.certificates)
    verdict = combine_verdict(b_zero and a_matches, certs.values())
    return {
        "name": "embedding_squares",
        "degree": d,
        "b_dim": tx.B.dim,
        "ambient_dim": tx.ambient.dim,
        "ul_p_dim": tx.ul_p.dim,
        "ul_p_dim_upto_d": tx.ul_p.dim_upto(d),
        "verdict": verdict,
        "certificates": certs,
    }
