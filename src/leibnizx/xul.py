"""Enveloping crossed module of a Leibniz crossed module.

Pipeline: cat¹ algebra (q ⋊ p, s, t) of x (``xmod.xmod_to_cat1``) ->
truncated envelopes -> induced maps for s, t -> kernel-product ideal X =
Ker(s)Ker(t) + Ker(t)Ker(s) -> quotient -> (Ker s̄, UL(p), t̄ restricted).  The
kernel-product step is :func:`kernel_product_quotient` and its check
:func:`kernel_xmod_violations`; ``lm`` runs both for its top row.

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


def _on_first(f, n):
    """f on its first n source coordinates: on F_k of a length-first
    basis for n = dim_upto(k)."""
    return LinearMap.from_cols(f.rows, [f.col(j) for j in range(n)])


def kernel_xmod_violations(quot, target, bar_s, bar_t, embed, a_rows,
                           boundary, d):
    """The crossed module (Ker s̄, target, t̄|) of a kernel-product
    quotient (:func:`kernel_product_quotient`), the target acting through
    embed, at the report degree d, on generators: CAs1 (s̄ and t̄ split
    embed), CAs2 on A × A′, the action, and the crossed-module identities
    (:func:`xmod.identity_violations`) with the target on its unit and
    letters.  a_rows are the (fdeg, class vector) rows of A = Ker s̄ ∩ F_1;
    A′ = Ker t̄ ∩ F_1 is t̄'s kernel on F_1.  ``boundary`` is t̄ on Ker s̄,
    None outside its domain: rho for UL(q ⋊ p)/X (:func:`check_trunc_xmod`)
    and ut2 for lm's top row U(L)/X′ (``lm.check_lm_assoc_xmod``).
    Returns a list of violations (empty = pass at degree d).

    The quotient is a presented algebra, associative when its rows resolve
    (the certificate), and s̄, t̄ and embed are ``induced_map``s: each
    sends a class word to the product of its letters' images
    (:func:`freealg.word_fold`).  A product of classes is the class of the
    concatenated words, so the boundary is multiplicative when the degrees
    sum to <= d, where nothing is truncated, and gets no hom check.

    (S) Ker s̄ ∩ F_k is spanned by the a·u and by the u·a for a in A and
    |u| <= k - 1, and Ker t̄ ∩ F_k likewise with A′.  By the argument of
    :func:`freealg.subspace_product` it is spanned by the u·a·v with |u| +
    1 + |v| <= k, and for a letter z, z·a lies in A·E_1 + A and a·z in
    E_1·A + A, E_1 the letters: by the relations listed there, read
    either way (with u_l z_l = -u_r z_l), as Ker s ∩ (q ⋊ p) = q is a
    two-sided ideal, and for U(L) as k_s is a Lie ideal.  Both hold in the
    quotient, whose F_k is the image of the envelope's, and Ker s̄ is the
    image of Ker s.

    - CAs2 runs over A × A′.  By (S) for both kernels a product of Ker s̄
      and Ker t̄ is a sum of a·w·b, and by the argument of
      ``subspace_product`` of a·b′·w′ with b′ in A′; so Ker s̄·Ker t̄ = 0
      once A·A′ = 0, and Ker t̄·Ker s̄ likewise from A′·A.
    - The target runs over its unit and letters.  A class word r with
      |r| >= 1 is r′·g for its prefix r′, a class word, and a letter g,
      and embed(r) = embed(r′)·embed(g).  For b in Ker s̄ ∩ F_{d-|r|}, by
      induction on |r|: embed(r)·b = embed(r′)·(embed(g)·b) with
      embed(g)·b in Ker s̄, so t̄(embed(r)·b) = r′·t̄(embed(g)·b) =
      r′·g·t̄(b); and b·embed(r) = (b·embed(r′))·embed(g), so
      t̄(b·embed(r)) = t̄(b)·r′·g.
    - Equivariance runs b over A: t̄(embed(g)·a·u) = t̄(embed(g)·a)·t̄(u)
      = g·t̄(a·u) and t̄(u·a·embed(g)) = t̄(u)·t̄(a)·g = t̄(u·a)·g, and (S)
      gives every b in Ker s̄ ∩ F_{d-1}.
    - Peiffer runs both factors over A.  Each side of b·b′ =
      embed(t̄(b))·b′ is right linear in b′ over the quotient, and of b·b′
      = b·embed(t̄(b′)) left linear in b, so by (S) the checks give (a -
      embed(t̄(a)))·b′ = 0 and b·(a - embed(t̄(a))) = 0 for a in A and b,
      b′ in Ker s̄.  The quotient is generated by its letters, and F_1 is
      the unit, the embed(g) and A, as s̄∘embed = id; x - embed(t̄(x)) is 0
      on the unit and on embed(g) (t̄∘embed = id).  For x = l·x′ with l in
      F_1, x - embed(t̄(x)) = (l - embed(t̄(l)))·x′ + embed(t̄(l))·(x′ -
      embed(t̄(x′))), and x′·b′ is in Ker s̄; so by induction on |x|,
      (x - embed(t̄(x)))·b′ = 0 for every x, and b·(x - embed(t̄(x))) = 0
      from x = x′·l: both Peiffer identities on every pair.

    ``action_not_in_B`` reports an embed(r)·a or a·embed(r) outside the
    boundary's domain, as does the identity that needs it; under CAs1
    none is, as s̄(embed(r)·b) = r·s̄(b) = 0.
    """
    bad = [("CAs1_" + name, None) for name, f in (("s", bar_s), ("t", bar_t))
           if f.compose(embed) != LinearMap.identity(target.dim)]

    def mult(a, b):
        return quot.mult(a, b, d)

    def act(r):
        return quot.from_coords(embed.apply(target.to_coords(r)))

    a2_rows = [(quot.fdeg(v), v) for v in map(quot.from_coords, _on_first(
        bar_t, quot.dim_upto(1)).kernel().rows)]
    for da, a in a_rows:
        for db, b in a2_rows:
            if da + db <= d and (mult(a, b) or mult(b, a)):
                bad.append(("CAs2", (da, db)))
    letters = [(len(w), {w: 1}) for w in target.class_words if len(w) <= 1]
    for dr, r in letters:
        for da, a in a_rows:
            if dr + da <= d and None in (boundary(mult(act(r), a)),
                                         boundary(mult(a, act(r)))):
                bad.append(("action_not_in_B", (dr, da)))
    return bad + identity_violations(
        a_rows, letters, mult, lambda a, b: target.mult(a, b, d), boundary,
        lambda r, b: mult(act(r), b), lambda b, r: mult(b, act(r)), bound=d)


def check_trunc_xmod(tx):
    """The crossed module (B, UL(p), rho) at the report degree, by
    :func:`kernel_xmod_violations`, with rho read through B's coordinates
    and None outside B.  Returns a list of violations (empty = pass)."""
    bar, up = tx.ambient, tx.ul_p

    def rho(v):
        try:
            c = tx.B.coords(bar.to_coords(v))
        except ValueError:
            return None
        return up.from_coords(tx.rho.apply(c))

    return kernel_xmod_violations(bar, up, tx.bar_s, tx.bar_t, tx.embed,
                                  tx.b_filtration(1), rho, tx.report_degree)


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
