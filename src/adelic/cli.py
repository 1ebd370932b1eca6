"""Command-line driver.

Subcommands expose the library's computations with reproducible text or JSON
output: ``split``, ``spectrum``, ``invariants``, ``equiv``, ``adele-iso``,
``fv-eval``; the ``--corpus`` flag runs the built-in golden suite.  Field
arguments are either a path to a field file (one polynomial in the text
grammar, with an optional leading ``label:`` line) or an inline polynomial.

Exit codes: 0 for any well-formed verdict (a NotEquivalent or NotIsomorphic
verdict is data, not an error), 2 for parse/input errors, 3 when a needed
result is Undetermined, 4 when a cap is exceeded, 5 for everything else.
"""

from __future__ import annotations

import argparse
import json
import os
import reprlib
import sys

# Each layer is imported by the command that runs it, so a cold start pays
# only for the layers its command needs.
from .primes import DEFAULT_PRIME_BOUND

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_UNDETERMINED = 3
EXIT_CAP = 4
EXIT_OTHER = 5

# Exit code of each library error, keyed by "module.class" so that main needs
# none of the layers to map them; main walks the exception's MRO, and any
# other ValueError exits EXIT_OTHER.
_EXIT_CODES = {
    "adelic.exactpoly.PolyParseError": EXIT_PARSE,
    "adelic.fv.formulas.FormulaSyntaxError": EXIT_PARSE,
    "adelic.fv.evaluate.ArityMismatchError": EXIT_PARSE,
    "adelic.splitting.UndeterminedError": EXIT_UNDETERMINED,
    "adelic.invariants.UnresolvedPrimeError": EXIT_UNDETERMINED,
    "adelic.exactpoly.DegreeCapError": EXIT_CAP,
    "adelic.primes.PrimalityCapError": EXIT_CAP,
    "adelic.primes.PrimeBoundCapError": EXIT_CAP,
    "adelic.finring.RingCapExceededError": EXIT_CAP,
    "adelic.fv.evaluate.EvalCapError": EXIT_CAP,
    "adelic.fv.formulas.FormulaCapError": EXIT_CAP,
}

# An inline field argument longer than this is quoted only around the error.
_QUOTE_WIDTH = 60


class _CliError(ValueError):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _exit_code(exc: ValueError) -> int:
    """The exit code main gives exc."""
    if isinstance(exc, _CliError):
        return exc.code
    for cls in type(exc).__mro__:
        code = _EXIT_CODES.get(f"{cls.__module__}.{cls.__qualname__}")
        if code is not None:
            return code
    return EXIT_OTHER


def _quote(arg: str, position: int) -> str:
    """repr of arg, cut to a window around position if arg is long."""
    if len(arg) <= _QUOTE_WIDTH:
        return repr(arg)
    lo = max(0, position - _QUOTE_WIDTH // 2)
    hi = lo + _QUOTE_WIDTH
    return ("..." if lo else "") + repr(arg[lo:hi]) + ("..." if hi < len(arg) else "")


def _load_field(arg: str):
    """A field argument is a file path or an inline polynomial."""
    from .exactpoly import DegreeCapError
    from .splitting import NumberField

    label = None
    poly_text = arg
    from_file = os.path.exists(arg)
    if from_file:
        poly_text = None
        try:
            with open(arg, "r", encoding="utf-8") as fh:
                for raw in fh:
                    line = raw.strip()
                    if not line or line.startswith("#"):
                        continue
                    if line.startswith("label:"):
                        label = line[len("label:") :].strip()
                        continue
                    poly_text = line
                    break
        except (OSError, UnicodeDecodeError) as exc:
            raise _CliError(f"cannot read field file: {exc}", EXIT_PARSE) from exc
        if poly_text is None:
            raise _CliError(f"{arg}: no polynomial line found", EXIT_PARSE)
    try:
        return NumberField.from_text(poly_text, label=label)
    except DegreeCapError:
        raise
    except ValueError as exc:
        where = arg if from_file else _quote(arg, getattr(exc, "position", 0))
        raise _CliError(f"{where}: {exc}", EXIT_PARSE) from exc


def _emit(args, text_lines, json_obj) -> None:
    if args.format == "json":
        print(json.dumps(json_obj, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _cmd_split(args) -> int:
    from .primes import is_prime
    from .splitting import decompose

    K = _load_field(args.field)
    if not is_prime(args.prime):
        raise _CliError(f"{args.prime} is not prime", EXIT_PARSE)
    dec = decompose(K, args.prime)
    if not dec.is_resolved:
        _emit(
            args,
            [str(dec)],
            {"prime": dec.prime, "status": dec.status, "reason": dec.reason},
        )
        return EXIT_UNDETERMINED
    body = "".join(f"({e},{f})" for e, f in dec.factors)
    _emit(
        args,
        [f"{body} via {dec.method}", f"sum e*f = {dec.ef_sum()} = [K:Q] = {K.degree}"],
        {
            "prime": dec.prime,
            "status": dec.status,
            "method": dec.method,
            "factors": [[e, f] for e, f in dec.factors],
            "ef_sum": dec.ef_sum(),
            "degree": K.degree,
        },
    )
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    from .invariants import spectrum

    K = _load_field(args.field)
    spec = spectrum(K, args.bound)
    lines = [f"splitting spectrum of {K.name()} up to {args.bound}:"]
    entries = []
    for t in spec.types():
        primes = spec.entries[t]
        lines.append(f"  {t}: {list(primes)}")
        entries.append({"type": list(t.degrees), "primes": list(primes)})
    lines.append(f"  excluded (undetermined): {list(spec.excluded)}")
    _emit(
        args,
        lines,
        {"bound": args.bound, "entries": entries, "excluded": list(spec.excluded)},
    )
    return EXIT_OK


def _cmd_invariants(args) -> int:
    from .invariants import aq_distinguisher, degree_via_split_prime, signature

    K = _load_field(args.field)
    sig = signature(K)
    detect = degree_via_split_prime(K, args.bound)
    aq = aq_distinguisher(K, args.bound)
    lines = [
        f"field {K.name()} (degree {K.degree}, disc(f) = {K.poly_disc})",
        f"signature: ({sig.r1},{sig.r2})",
    ]
    if detect is None:
        lines.append(f"degree detection: no completely split prime <= {args.bound}")
    else:
        lines.append(f"degree detection: {detect[0]} (witness prime {detect[1]})")
    lines.append(f"rational-field distinguisher primes <= {args.bound}: {list(aq)}")
    _emit(
        args,
        lines,
        {
            "degree": K.degree,
            "poly_disc": K.poly_disc,
            "signature": [sig.r1, sig.r2],
            "detected_degree": None if detect is None else detect[0],
            "split_witness": None if detect is None else detect[1],
            "aq_distinguisher": list(aq),
        },
    )
    return EXIT_OK


def _cmd_equiv(args) -> int:
    from .invariants import arithmetic_equiv

    K = _load_field(args.field1)
    L = _load_field(args.field2)
    verdict = arithmetic_equiv(K, L, args.bound)
    if verdict.kind == "NotEquivalent":
        lines = [
            f"NotEquivalent: witness prime {verdict.witness_prime}, "
            f"types {verdict.type_k} vs {verdict.type_l}"
        ]
    else:
        lines = [
            f"EquivalentUpToBound {verdict.bound}: {verdict.compared_count} primes compared, "
            f"excluded {list(verdict.excluded_primes)}"
        ]
    lines.append(f"degree check: {'agree' if verdict.degree_check else 'disagree'}")
    _emit(args, lines, verdict.to_json_dict())
    return EXIT_OK


def _cmd_adele_iso(args) -> int:
    from .invariants import adele_iso_verdict

    K = _load_field(args.field1)
    L = _load_field(args.field2)
    verdict = adele_iso_verdict(K, L, args.bound)
    lines = [f"{verdict.kind}"]
    if verdict.reason:
        lines.append(f"reason: {verdict.reason}")
    for m in verdict.matching:
        lines.append(
            f"  matched p={m.prime} (e={m.e}, f={m.f}) via {m.certificate}"
            + (f" at truncation {m.truncation}" if m.truncation else "")
        )
    for u in verdict.unmatched:
        lines.append(f"  assumed p={u.prime} (e={u.e}, f={u.f}): {u.reason}")
    if verdict.assumption_note:
        lines.append(f"assumption: {verdict.assumption_note}")
    _emit(args, lines, verdict.to_json_dict())
    if verdict.kind == "Undetermined":
        return EXIT_UNDETERMINED
    return EXIT_OK


def _parse_elements(text: str, family) -> tuple[dict, ...]:
    """--elements: a JSON list of objects, each mapping every index label to
    an element code of that label's stalk."""
    try:
        elements = json.loads(text)
    except ValueError as exc:
        raise _CliError(f"--elements is not JSON: {exc}", EXIT_PARSE) from exc
    except RecursionError:
        raise _CliError("--elements is nested too deeply", EXIT_PARSE) from None
    if not isinstance(elements, list) or not all(isinstance(f, dict) for f in elements):
        raise _CliError("--elements must be a JSON list of label -> code objects", EXIT_PARSE)
    for j, f in enumerate(elements):
        for i in family.index_set:
            if i not in f:
                raise _CliError(
                    f"--elements[{j}] has no code for label {reprlib.repr(i)}", EXIT_PARSE
                )
            code, order = f[i], family.stalks[i].order
            if type(code) is not int or not 0 <= code < order:
                raise _CliError(
                    f"--elements[{j}][{reprlib.repr(i)}] is {reprlib.repr(code)}, "
                    f"not a code in 0..{order - 1}",
                    EXIT_PARSE,
                )
    return tuple(elements)


def _cmd_fv_eval(args) -> int:
    from .fv import (
        GeneralizedSentence,
        family_from_json,
        gen_product_eval,
        parse_boole_formula,
        parse_ring_formula,
        ring_free_vars,
    )

    try:
        with open(args.family, "r", encoding="utf-8") as fh:
            family = family_from_json(fh.read())
    except OSError as exc:
        raise _CliError(f"cannot read family file: {exc}", EXIT_PARSE) from exc
    except (ValueError, KeyError) as exc:
        raise _CliError(f"bad family document: {exc}", EXIT_PARSE) from exc
    psi = parse_boole_formula(args.psi)
    thetas = [parse_ring_formula(t) for t in args.theta]
    sentence = GeneralizedSentence(psi, thetas)
    if args.elements is not None:
        elements = _parse_elements(args.elements, family)
    else:
        zeros = {i: family.stalks[i].zero for i in family.index_set}
        elements = dict.fromkeys(frozenset().union(*map(ring_free_vars, thetas)), zeros)
    value = gen_product_eval(sentence, family, elements)
    _emit(args, ["true" if value else "false"], {"value": value})
    return EXIT_OK


def _cmd_corpus(args) -> int:
    lines, all_ok = run_corpus_checks()
    for line in lines:
        print(line)
    return EXIT_OK if all_ok else EXIT_OTHER


def run_corpus_checks() -> tuple[list[str], bool]:
    """Golden self-check over the built-in corpus; deterministic output."""
    from .corpus import corpus_fields
    from .exactpoly import parse_int_poly
    from .finring import LocalQuotientRing, ZmodRing, finite_ring_isomorphic
    from .fv import (
        FiniteFamily,
        GeneralizedSentence,
        gen_product_eval,
        parse_boole_formula,
        parse_ring_formula,
    )
    from .invariants import adele_iso_verdict, arithmetic_equiv, keating_bound, signature
    from .primes import primes_up_to
    from .splitting import decompose

    lines = []
    all_ok = True

    def check(name: str, ok: bool, detail: str = "") -> None:
        nonlocal all_ok
        all_ok = all_ok and ok
        mark = "PASS" if ok else "FAIL"
        lines.append(f"[{mark}] {name}" + (f" -- {detail}" if detail else ""))

    fields = corpus_fields()
    bad_sum = []
    undetermined = 0
    for K in fields:
        for p in primes_up_to(200):
            dec = decompose(K, p)
            if not dec.is_resolved:
                undetermined += 1
                continue
            if dec.ef_sum() != K.degree:
                bad_sum.append((K.name(), p))
    check(
        "sum of e*f equals the degree at every resolved prime <= 200",
        not bad_sum,
        f"{len(fields)} fields, {undetermined} undetermined decompositions",
    )

    ok = True
    for K in fields:
        for p in primes_up_to(100):
            if K.poly_disc % p == 0:
                continue
            if any(e != 1 for e, _ in decompose(K, p).factors):
                ok = False
    check("good primes are unramified", ok)

    check(
        "truncation levels",
        keating_bound(3, 1) == 2 and keating_bound(2, 2) == 5 and keating_bound(2, 1) == 2,
    )

    sig_checks = []
    for label, expected in (("Q(sqrt2)", (2, 0)), ("Q(i)", (0, 1)), ("plastic-cubic", (1, 1))):
        K = next(f for f in fields if f.label == label)
        s = signature(K)
        sig_checks.append((s.r1, s.r2) == expected)
    check("signatures of the three reference fields", all(sig_checks))

    K2 = next(f for f in fields if f.label == "Q(sqrt2)")
    K3 = next(f for f in fields if f.label == "Q(sqrt3)")
    v = arithmetic_equiv(K2, K3, 100)
    check(
        "quadratic pair separates with witness 7",
        v.kind == "NotEquivalent" and v.witness_prime == 7,
    )

    K7a = next(f for f in fields if f.label == "deg7-pair-a")
    K7b = next(f for f in fields if f.label == "deg7-pair-b")
    v = arithmetic_equiv(K7a, K7b, 200)
    check(
        "degree-7 pair agrees at every good prime <= 200",
        v.kind == "EquivalentUpToBound",
        f"{v.compared_count} primes compared",
    )

    v = adele_iso_verdict(K2, K2, 100)
    check("reflexive adele verdict is certified", v.kind == "IsomorphicCertified")

    z4 = ZmodRing(4)
    f4 = LocalQuotientRing(2, 1, 2, None, 1)
    f2t = LocalQuotientRing(2, 2, 1, parse_int_poly("x^2 - 2"), 2)
    check(
        "the three rings of order 4 are pairwise distinguished",
        not finite_ring_isomorphic(z4, f4)
        and not finite_ring_isomorphic(z4, f2t)
        and not finite_ring_isomorphic(f4, f2t),
    )

    family = FiniteFamily(
        ("a", "b", "c"), {"a": ZmodRing(2), "b": ZmodRing(3), "c": ZmodRing(5)}
    )
    ones = {"a": 1, "b": 1, "c": 1}
    g1 = GeneralizedSentence(parse_boole_formula("v0 = 1"), (parse_ring_formula("w0 = w0"),))
    g2 = GeneralizedSentence(parse_boole_formula("v0 = 0"), (parse_ring_formula("w0 = w0"),))
    g3 = GeneralizedSentence(
        parse_boole_formula("not (v0 = 1)"), (parse_ring_formula("w0 + w0 = 0"),)
    )
    check(
        "generalized-product evaluation reference sentences",
        gen_product_eval(g1, family, (ones,))
        and not gen_product_eval(g2, family, (ones,))
        and gen_product_eval(g3, family, (ones,)),
    )

    lines.append("all checks passed" if all_ok else "SOME CHECKS FAILED")
    return lines, all_ok


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adelic",
        description="prime splitting, adelic invariants, and generalized products",
    )
    parser.add_argument(
        "--corpus", action="store_true", help="run the built-in golden suite and exit"
    )
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument(
            "--format", choices=("text", "json"), default="text", help="output format"
        )

    p = sub.add_parser("split", help="decomposition of one prime in a field")
    p.add_argument("field")
    p.add_argument("--prime", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("spectrum", help="splitting types of all primes up to a bound")
    p.add_argument("field")
    p.add_argument("--bound", type=int, default=DEFAULT_PRIME_BOUND)
    common(p)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("invariants", help="signature, degree detection, distinguisher")
    p.add_argument("field")
    p.add_argument("--bound", type=int, default=DEFAULT_PRIME_BOUND)
    common(p)
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("equiv", help="bounded arithmetic-equivalence verdict")
    p.add_argument("field1")
    p.add_argument("field2")
    p.add_argument("--bound", type=int, default=DEFAULT_PRIME_BOUND)
    common(p)
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("adele-iso", help="adele-ring comparison verdict")
    p.add_argument("field1")
    p.add_argument("field2")
    p.add_argument("--bound", type=int, default=DEFAULT_PRIME_BOUND)
    common(p)
    p.set_defaults(func=_cmd_adele_iso)

    p = sub.add_parser("fv-eval", help="evaluate a generalized sentence over a family")
    p.add_argument("--family", required=True, help="JSON family file")
    p.add_argument("--psi", required=True, help="Boolean-side formula")
    p.add_argument("--theta", action="append", default=[], help="ring formula (repeatable)")
    p.add_argument(
        "--elements",
        default=None,
        help="JSON list of global elements (label -> code maps); defaults to zeros",
    )
    common(p)
    p.set_defaults(func=_cmd_fv_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.corpus:
        return _cmd_corpus(args)
    if not getattr(args, "command", None):
        parser.print_help()
        return EXIT_PARSE
    try:
        # spectrum, invariants, equiv and adele-iso sweep the primes up to --bound
        if getattr(args, "bound", 2) < 2:
            raise _CliError(f"bound must be at least 2, got {args.bound}", EXIT_PARSE)
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
