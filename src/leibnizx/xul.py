"""Enveloping crossed module of a Leibniz crossed module.

Pipeline: cat¹ algebra (q ⋊ p, s, t) of x (``xmod.xmod_to_cat1``) ->
truncated envelopes -> induced maps for s, t -> kernel-product ideal X =
Ker(s)Ker(t) + Ker(t)Ker(s) -> quotient -> (Ker s̄, UL(p), t̄ restricted).  The
kernel-product step is :func:`kernel_product_quotient`, which the
categorical envelope in ``lm`` runs for its top row as well.

Everything is degree-truncated, so every verdict carries a report degree
d <= D - 2 and stabilization certificates.
"""

from dataclasses import dataclass, field

from .linalg import LinearMap, Subspace, zero_subspace
from .freealg import (TruncQuotAlgebra, filtration_basis, induced_map,
                      subspace_product)
from .xmod import (Cat1, LeibnizXMod, check_xmod, identity_xmod,
                   identity_violations, integral, xmod_to_cat1, zero_xmod)
from .envelope import ul, ul_images, ul_map


class XModAxiomError(ValueError):
    """Raised when the input of :func:`xul` fails the crossed-module
    axioms."""


def require_xmod(x):
    """Raise XModAxiomError unless x satisfies the crossed-module axioms.

    ``xul`` and ``lemma41_check`` call it on their input.
    ``lm.lm_xmod_envelope`` leaves it to its callers: ``cli.cmd_lm`` calls
    it, and ``lm.theta_check`` gets it through ``xul``."""
    bad = check_xmod(x)
    if bad:
        raise XModAxiomError("input fails crossed-module axioms: %r"
                             % bad[:3])


@dataclass(frozen=True)
class TruncAssocXMod:
    """Degree-truncated (Ker s̄, UL(p), t̄|) with its ambient quotient."""

    x: LeibnizXMod
    cat1: Cat1               # (q ⋊ p, s, t) with its section
    ul_sd: TruncQuotAlgebra  # UL(q ⋊ p) before the kernel-product quotient
    ul_p: TruncQuotAlgebra
    ambient: TruncQuotAlgebra
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

    s_rows: list            # Ker s ∩ F_1, envelope class vectors
    t_rows: list            # Ker t ∩ F_1
    quot: TruncQuotAlgebra  # envelope / (Ker s·Ker t + Ker t·Ker s)
    bar_s: LinearMap        # quot -> target
    bar_t: LinearMap
    embed: LinearMap        # target -> quot through the section


def _degree_one_kernel(env, target, gen_images):
    """The canonical rows (:func:`freealg.filtration_basis`) of Ker f ∩ F_1,
    as class vectors of env, for the algebra map f: env -> target with the
    given generator images.  F_1 is spanned by the class words of length
    <= 1, the first coordinates of env, so this is the kernel of f on the
    unit and the normal letters alone."""
    words = [w for w in env.class_words if len(w) <= 1]
    f = LinearMap.from_cols(target.dim, [
        target.to_coords(gen_images[w[0]] if w else target.unit())
        for w in words])
    return [v for _, v in filtration_basis(env, f.kernel())]


def kernel_product_quotient(env, target, s_imgs, t_imgs, section):
    """Quotient of the envelope ``env`` by X = Ker s·Ker t + Ker t·Ker s,
    where s, t: env -> target are the algebra maps with generator images
    s_imgs, t_imgs (class vectors of target), and the embedding target ->
    env / X sends target generator j to the class of section[j], a class
    vector of env of fdeg <= 1.

    X is generated by its degree-two products A·B of the degree-one
    kernel rows A = Ker s ∩ F_1 and B = Ker t ∩ F_1, which span B·A too
    modulo env's relations (:func:`freealg.subspace_product`), so only
    those rows are computed, and the quotient is presented by env's rows
    with A·B (:meth:`freealg.TruncQuotAlgebra.extend_by`).  When its ideal
    is ``stabilized``, the quotient is env / X at every degree <= D.

    s and t are checked as algebra maps once, on the quotient, by
    ``bar_s`` and ``bar_t``.  The quotient's rows are the interreduced
    env rows and A·B, so each of env's rows is a combination of them.  The
    target is associative, so an ``induced_map`` on the quotient, which
    kills the quotient's rows, kills env's ideal too: s and t are algebra
    maps on env."""
    s_rows, t_rows = (_degree_one_kernel(env, target, imgs)
                      for imgs in (s_imgs, t_imgs))
    quot = env.extend_by(subspace_product(s_rows, t_rows))
    bar_s = induced_map(quot, target, s_imgs)
    bar_t = induced_map(quot, target, t_imgs)
    embed = induced_map(target, quot, [quot.reduce(v) for v in section])
    return KernelQuotient(s_rows, t_rows, quot, bar_s, bar_t, embed)


def xul(x, degree, report_degree=None):
    """Build the truncated enveloping crossed module of x."""
    require_xmod(x)
    report_degree = report_degree_for(degree, report_degree)

    c = xmod_to_cat1(x)
    usd = ul(c.total, degree)
    up = ul(c.sub, degree)
    kq = kernel_product_quotient(usd, up, ul_images(up, c.s),
                                 ul_images(up, c.t), ul_images(usd, c.embed))
    B = kq.bar_s.kernel()
    rho = kq.bar_t.restrict(B)
    certs = {
        "ul_semidirect_stabilized": usd.ideal.stabilized,
        "ul_p_stabilized": up.ideal.stabilized,
        "kernel_product_stabilized": kq.quot.ideal.stabilized,
    }
    return TruncAssocXMod(x, c, usd, up, kq.quot, kq.bar_s, kq.bar_t,
                          kq.embed, B, rho, report_degree, certs)


def check_trunc_xmod(tx):
    """CAs1, CAs2, B closed under the UL(p) action, and the crossed-module
    identities (:func:`xmod.identity_violations`, boundary rho) on
    filtration rows with degree sums at most the report degree d, UL(p)
    running over its unit and letters.

    Returns a list of violations (empty = pass at degree d).

    rho needs no hom check: it is ``bar_t``, an ``induced_map``
    (:func:`freealg.word_fold`), restricted to B, and a product of ambient
    classes is the class of the concatenated words, so rho(a·b) =
    rho(a)·rho(b) when the degrees sum to <= d, where nothing is truncated.

    The letters suffice.  ``embed`` is an ``induced_map``, a ``word_fold``,
    so embed(r) = embed(r′)·embed(g) for a class word r = r′·g (a prefix
    of a normal word is normal), and the ambient is associative when its
    rows resolve (Bergman's diamond lemma, Adv. Math. 29, 1978).  So
    embed(r)·b = embed(r′)·(embed(g)·b) and b·embed(r) =
    (b·embed(r′))·embed(g).  Induction on |r| then carries each check from
    the letters to r: embed(g)·b and b·embed(r′) lie in B (checked for the
    letters, and for r′ by induction) at fdeg at most fdeg(b) + 1 and
    fdeg(b) + |r′|, where the filtration rows of B span them, so
    rho(embed(r)·b) = r′·rho(embed(g)·b) = r′·g·rho(b) = r·rho(b), and
    rho(b·embed(r)) = rho(b·embed(r′))·g = rho(b)·r′·g likewise.

    A product that leaves B is reported as ``action_not_in_B``; rho is
    not defined on it, so the identity that needs it fails too.
    """
    bad = []
    d = tx.report_degree
    bar, up = tx.ambient, tx.ul_p
    for name, f in (("s", tx.bar_s), ("t", tx.bar_t)):
        if f.compose(tx.embed) != LinearMap.identity(up.dim):
            bad.append(("CAs1_" + name, None))

    def mult(a, b):
        return bar.mult(a, b, d)

    def embed(r):
        return bar.from_coords(tx.embed.apply(up.to_coords(r)))

    def rho(v):
        """rho of an ambient class vector; None outside B."""
        try:
            c = tx.B.coords(bar.to_coords(v))
        except ValueError:
            return None
        return up.from_coords(tx.rho.apply(c))

    B_rows = tx.b_filtration(d)
    Kt_rows = filtration_basis(bar, tx.bar_t.kernel(), d)
    for da, a in B_rows:
        for db, b in Kt_rows:
            if da + db <= d and (mult(a, b) or mult(b, a)):
                bad.append(("CAs2", (da, db)))
    top = [(len(w), {w: 1}) for w in up.class_words if len(w) <= 1]
    for du, u in top:
        for db, b in B_rows:
            if du + db <= d and None in (rho(mult(embed(u), b)),
                                         rho(mult(b, embed(u)))):
                bad.append(("action_not_in_B", (du, db)))
    return bad + identity_violations(
        B_rows, top, mult, lambda a, b: up.mult(a, b, d), rho,
        lambda r, b: mult(embed(r), b), lambda b, r: mult(b, embed(r)),
        bound=d)


# ---------------------------------------------------------------------------
# executable lemmas


def combine_verdict(ok, certificates):
    """The verdict of a check: "fail" when ok is false, whatever the
    certificates say; otherwise "inconclusive" if any certificate is False,
    else "pass"."""
    if not ok:
        return "fail"
    if any(v is False for v in certificates):
        return "inconclusive"
    return "pass"


def _kernel_words_span(usd, nq, d):
    """Span of the classes of words of length <= d that contain a pure-q
    letter: the span of the class words of length <= d that contain one.

    q is an ideal of q ⋊ p and p a subalgebra, so each UL relation has a
    q-letter in every term or in none, and so has each interreduced row
    (the reduced echelon basis is unique, and the union of those of the
    two kinds of relation, whose supports are apart, is one).  A rewriting
    step x·l·y -> x·tail·y keeps the letters outside the rule, so a word
    with a q-letter rewrites to class words with one, none of them longer.
    Each class word with a q-letter is its own class."""
    g = len(usd.gens)
    qletters = set(range(nq)) | set(range(g // 2, g // 2 + nq))
    return Subspace(usd.dim, [
        {i: 1} for i, w in enumerate(usd.class_words)
        if len(w) <= d and qletters.intersection(w)])


def _lemma41_core(x, degree, d):
    c = xmod_to_cat1(x)
    usd = ul(c.total, degree)
    up = ul(c.sub, degree)
    Us = ul_map(usd, up, c.s)
    Ks = Us.kernel()
    rows = filtration_basis(usd, Ks, d)
    lhs = Subspace.from_vectors(usd.dim, [usd.to_coords(v) for _, v in rows])
    rhs = _kernel_words_span(usd, x.q.dim, d)
    return lhs, rhs, usd.ideal.stabilized, up.ideal.stabilized


def lemma41_check(x, degree, report_degree=None):
    """Ker UL(s) ∩ F_d equals the span of classes of words with a zero
    p-component slot, with stabilization certificates.

    Both envelopes are UL of a Leibniz algebra, certified on every input
    (:func:`envelope.ul`), and then Ker UL(s) ∩ F_d does not depend on
    D >= d + 2.  The two certificates are the record's ``certificates``,
    named as :func:`xul` names them; ``stabilized`` repeats UL(q ⋊ p)'s.

    Returns a dict record with verdict "pass", "fail" or "inconclusive";
    raises XModAxiomError, as :func:`xul` does, on a non-crossed module.
    """
    require_xmod(x)
    d = report_degree_for(degree, report_degree)
    lhs, rhs, stab, p_stab = _lemma41_core(x, degree, d)
    equal = lhs == rhs
    certs = {"ul_semidirect_stabilized": stab, "ul_p_stabilized": p_stab}
    return {
        "name": "lemma41",
        "degree": d,
        "lhs_dim": lhs.dim,
        "rhs_dim": rhs.dim,
        "equal": equal,
        "stabilized": stab,
        "verdict": combine_verdict(equal, certs.values()),
        "certificates": certs,
    }


def section_into_b(tx, eps):
    """UL(eps) into the ambient, the projection of UL(q⋊p) onto it after
    UL(eps), for a section eps: p -> q⋊p with s∘eps = 0, t∘eps = id, in
    B-coordinates.

    Both s-bar and the induced envelope maps are unital, so the unit can
    never lie in Ker s-bar; the section lands in the kernel only on the
    augmentation ideal (classes with zero constant term).  The unit column
    is therefore zero.  Raises if any non-unit class leaves Ker s-bar.
    """
    comp = ul_map(tx.ul_p, tx.ambient, eps)
    cols = []
    for j, w in enumerate(tx.ul_p.class_words):
        if w == ():
            cols.append({})
            continue
        v = comp.col(j)
        if not tx.B.contains_vec(v):
            raise ValueError("section image leaves Ker bar_s")
        cols.append(tx.B.coords(v))
    return LinearMap.from_cols(tx.B.dim, cols)


def prop42_check(p, degree, report_degree=None):
    """For (p, p, id): UL(eps) and bar_t| are mutually inverse between
    the augmentation ideal of UL(p) and Ker bar_s, on filtration bases up
    to the report degree.

    The kernel is a non-unital ideal, so the identification with UL(p)
    necessarily misses the unit; both composites are checked on classes
    with zero constant term only.
    """
    d = report_degree_for(degree, report_degree)
    x = identity_xmod(p)
    tx = xul(x, degree, report_degree=d)
    n = p.dim
    eps = LinearMap.from_cols(2 * n, [{i: 1} for i in range(n)])
    sigma = section_into_b(tx, eps)

    up = tx.ul_p
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


def embedding_squares_check(p, degree, report_degree=None):
    """XUL(0, p, 0) = (0, UL(p), 0): zero kernel and ambient identified
    with UL(p) on the nose."""
    d = report_degree_for(degree, report_degree)
    tx = xul(zero_xmod(integral(p)), degree, report_degree=d)
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
