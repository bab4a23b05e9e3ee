"""Command line interface.

Subcommands:

  check PATH            run the axiom suite matching the file's kind
  ul PATH               truncated envelope of a Leibniz algebra: dimensions
  xul PATH              enveloping crossed module: identities at the report
                        degree
  lm PATH               enveloping crossed module in the category of linear
                        maps: identities at the report degree
  verify WHAT PATH      executable statements: lemma41, prop42, thm5,
                        theta, squares

Exit codes: 0 all checks pass, 1 a check failed, 2 malformed input,
3 a verdict is inconclusive (a stabilization certificate failed: an
ambiguity of a presentation's relations did not resolve).
Output is deterministic for fixed inputs and flags.
"""

import argparse
import functools
import sys

from . import io
from .leibniz import LeibnizAlgebra, LeibnizRep, check_rep
from .assoc import AssocAlgebra
from .xmod import LeibnizXMod, check_xmod, integral, xmod_to_cat1
from .xrep import (LeibnizXModRep, XRepAxiomError, check_xmod_rep,
                   check_xmodule, rep_to_xmodule, xmodule_to_rep)
from .envelope import ul, check_module
from .xul import (XModAxiomError, xul, check_trunc_xmod, lemma41_check,
                  prop42_check, embedding_squares_check, require_xmod)
from .lm import lm_xmod_envelope, check_lm_assoc_xmod, theta_check
from .report import Report, record, violations_record


def _word_str(gens, w):
    return "*".join(gens[c] for c in w) if w else "1"


def _kind_of(obj):
    return io._KIND_OF_TYPE[type(obj)]


def _load(path, want=None):
    obj = io.load_path(path)
    kind = _kind_of(obj)
    if want is not None and kind not in want:
        raise io.FormatError("%s is a %s file; this command needs %s"
                             % (path, kind, " or ".join(want)))
    return obj


def _stability_records(certs):
    out = []
    for k, v in certs.items():
        if v is False:
            out.append(record(k, "inconclusive"))
    return out


def cmd_check(args):
    obj = _load(args.path)
    kind = _kind_of(obj)
    if args.kind and args.kind != kind:
        raise io.FormatError("%s is a %s file, not %s"
                             % (args.path, kind, args.kind))
    if isinstance(obj, LeibnizAlgebra):
        recs = [violations_record("leibniz_identity", obj.check_leibniz())]
    elif isinstance(obj, AssocAlgebra):
        recs = [violations_record("associativity", obj.check_assoc())]
    elif isinstance(obj, LeibnizXMod):
        recs = [violations_record("crossed_module", check_xmod(obj))]
    elif isinstance(obj, LeibnizXModRep):
        recs = [violations_record("crossed_module_representation",
                                  check_xmod_rep(obj))]
    elif isinstance(obj, LeibnizRep):
        recs = [violations_record("representation", check_rep(obj))]
    else:  # a module over UL(p)
        recs = [violations_record("module_relations", check_module(obj))]
    return Report("check", {"path": args.path, "kind": kind}, recs)


def _construction_failure(e):
    """The fail record for an error raised while building from well-formed
    input: the crossed-module axiom failure of ``xul`` is a check_xmod
    record, the representation axiom failure of ``rep_to_xmodule`` an
    xmod_rep_axioms record, any other ``ValueError`` a construction
    record."""
    if isinstance(e, XModAxiomError):
        return record("check_xmod", "fail", stage="check_xmod",
                      witness=str(e))
    if isinstance(e, XRepAxiomError):
        return violations_record("xmod_rep_axioms", e.violations)
    return record("construction", "fail", witness=str(e))


def cmd_ul(args):
    p = _load(args.path, ("leibniz_algebra",))
    params = {"path": args.path, "degree": args.degree}
    axioms = violations_record("leibniz_identity", p.check_leibniz())
    if axioms["verdict"] == "fail":
        return Report("ul", params, [axioms])
    alg = ul(integral(p), args.degree)
    recs = [record("dimensions", "pass",
                   dims_by_degree=[alg.dim_upto(k)
                                   for k in range(args.degree + 1)],
                   dim=alg.dim)]
    certs = {"ideal_stabilized": alg.ideal.stabilized}
    recs += _stability_records(certs)
    rep = Report("ul", params, recs, certs)
    if args.dump_basis:
        recs.append(record(
            "basis", "pass",
            classes=[_word_str(alg.gens, w) for w in alg.class_words]))
    return rep


def _xul_params(args):
    return {"path": args.path, "degree": args.degree,
            "report_degree": args.report_degree}


def cmd_xul(args):
    x = _load(args.path, ("xmod",))
    try:
        tx = xul(x, args.degree, args.report_degree)
    except ValueError as e:
        return Report("xul", _xul_params(args), [_construction_failure(e)])
    d = tx.report_degree
    recs = [
        record("dimensions", "pass", b_dim=tx.B.dim,
               b_dim_upto_d=tx.b_dim_upto(d), ambient_dim=tx.ambient.dim,
               ul_p_dim=tx.ul_p.dim, report_degree=d),
        violations_record("crossed_module_identities", check_trunc_xmod(tx)),
    ]
    recs += _stability_records(tx.certificates)
    if args.dump_basis:
        gens = tx.ul_sd.gens
        rows = [(deg, {i: c for i, c in sorted(v.items())})
                for deg, v in tx.b_filtration(d)]
        recs.append(record("b_filtration", "pass",
                           rows=[{"degree": deg, "vector": v}
                                 for deg, v in rows],
                           generators=list(gens)))
    return Report("xul", _xul_params(args), recs, dict(tx.certificates))


def cmd_lm(args):
    x = _load(args.path, ("xmod",))
    try:
        x = integral(x)
        require_xmod(x)
        Y = lm_xmod_envelope(xmod_to_cat1(x), args.degree,
                             args.report_degree)
    except ValueError as e:
        return Report("lm", _xul_params(args), [_construction_failure(e)])
    d = Y.report_degree
    recs = [
        record("dimensions", "pass", top_dim=Y.top.dim,
               bottom_dim=Y.bottom.dim,
               b_ker_dim_upto_d=Y.b_ker_dim_upto(d),
               report_degree=d),
        violations_record("crossed_module_identities",
                          check_lm_assoc_xmod(Y)),
    ]
    recs += _stability_records(Y.certificates)
    return Report("lm", _xul_params(args), recs, dict(Y.certificates))


def _thm5(r, args, params):
    """Representation <-> module round trip through the enveloping crossed
    module.  rep_to_xmodule checks the representation; a failure is the
    xmod_rep_axioms fail record (:func:`_construction_failure`)."""
    tx = xul(r.xmod, args.degree, args.report_degree)
    mod = rep_to_xmodule(r, tx)
    recs = [violations_record("xmod_rep_axioms", []),
            violations_record("module_identities", check_xmodule(mod))]
    back = xmodule_to_rep(mod)
    recs.append(record("round_trip",
                       "pass" if io.dumps(back) == io.dumps(r) else "fail"))
    recs += _stability_records(tx.certificates)
    return Report("verify", params, recs, dict(tx.certificates))


def _verify_table():
    """Input kind and checker of each statement; thm5 is _thm5.  Built at
    call time, so a checker rebound on this module after import (a tracing
    wrapper, a test double) is the one that runs."""
    return {"lemma41": ("xmod", lemma41_check),
            "prop42": ("leibniz_algebra", prop42_check),
            "squares": ("leibniz_algebra", embedding_squares_check),
            "theta": ("xmod", theta_check),
            "thm5": ("xmod_rep", None)}


def cmd_verify(args):
    params = {"what": args.what, "path": args.path, "degree": args.degree,
              "report_degree": args.report_degree}
    kind, check = _verify_table()[args.what]
    obj = _load(args.path, (kind,))
    try:
        if check is None:
            return _thm5(obj, args, params)
        rec = check(obj, args.degree, args.report_degree)
    except ValueError as e:
        return Report("verify", params, [_construction_failure(e)])
    certs = rec.pop("certificates", {})
    return Report("verify", params, [rec], certs)


@functools.cache
def build_parser():
    """The argument parser, built once: parsing keeps no state in it."""
    ap = argparse.ArgumentParser(
        prog="leibnizx",
        description="Exact verification toolkit for Leibniz crossed modules "
                    "and their enveloping constructions.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--degree", type=int, default=3,
                        help="working truncation degree D (default 3)")
    common.add_argument("--slack", type=int, default=2,
                        help="accepted and ignored; must be at least 0 "
                             "(default 2)")
    common.add_argument("--report-degree", type=int, default=None,
                        help="certified report degree d (default D-2)")
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--dump-basis", action="store_true")
    sub = ap.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("check", parents=[common],
                        help="axiom suite for one input file")
    pc.add_argument("path")
    pc.add_argument("--kind", choices=sorted(io._KIND_OF_TYPE.values()))
    pc.set_defaults(func=cmd_check)

    for name, func, hlp in (
            ("ul", cmd_ul, "truncated enveloping algebra"),
            ("xul", cmd_xul, "enveloping crossed module"),
            ("lm", cmd_lm, "enveloping crossed module of linear maps")):
        sp = sub.add_parser(name, parents=[common], help=hlp)
        sp.add_argument("path")
        sp.set_defaults(func=func)

    pv = sub.add_parser("verify", parents=[common],
                        help="executable statements")
    pv.add_argument("what", choices=("lemma41", "prop42", "thm5", "theta",
                                     "squares"))
    pv.add_argument("path")
    pv.set_defaults(func=cmd_verify)
    return ap


def _bad_parameters(args):
    """Why the truncation flags are unusable, or None.  Every presentation
    here is quadratic, so the working degree must be at least 2, and the
    report degree d must satisfy 0 <= d <= D - 2."""
    if args.degree < 2:
        return "degree must be at least 2 (the relations are quadratic)"
    if args.slack < 0:
        return "slack must be at least 0"
    d = args.report_degree
    if d is not None and not 0 <= d <= args.degree - 2:
        return "report degree must satisfy 0 <= d <= degree - 2"
    return None


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    bad = _bad_parameters(args)
    if bad:
        print("error: %s" % bad, file=sys.stderr)
        return 2
    try:
        rep = args.func(args)
    except io.FormatError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    sys.stdout.write(rep.render(args.format))
    return rep.status


if __name__ == "__main__":
    sys.exit(main())
