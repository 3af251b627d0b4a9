"""Command line front end.

Three commands:

* ``expand`` materialises a series for a descriptor and prints it,
* ``verify`` runs named identity checks and reports pass or fail,
* ``compare`` expands two descriptors and reports the first difference.

Descriptors name a series to build:

* a registry name: ``theta``, ``eta^3``, ``Theta_A2``, or a member key
  such as ``psi_4_D8`` (the block lattice, ``D8`` or ``3A2``, also works),
* ``lift:MEMBER`` for the arithmetic lift,
* ``borcherds:MEMBER`` for the product in exponential form,
* ``product:MEMBER`` for the literal factor-by-factor product,
* ``phi0:MEMBER`` for the weight-0 input of the product,
* ``closedform:Dk`` for the divisor-sum formula on the D tower.

Windows are given in displayed powers: ``--qmax 4 --smax 2`` keeps
everything through q^4 and s^2.  Expansions can be cached on disk with
``--cache-dir`` (or the CACHE_DIR environment variable): one file per
descriptor and window, holding a digest of the package source that wrote
it, a digest of the payload and its term count.  A request parses its
series at most once, a ``compare`` of two equal digests parses neither,
and one answered from the cache imports no numpy.
"""

import argparse
import functools
import hashlib
import json
import os
import sys
import tempfile
from fractions import Fraction
from itertools import groupby

from .series import FourierSeries, TruncationWindow
from . import jacobi
from . import lifting
from . import borcherds
from . import verification

_SCHEMA = 1

_BY_LATTICE = {meta.lattice_name: key for key, meta in jacobi.MEMBERS.items()}


def _resolve_member(tok: str) -> str:
    if tok in jacobi.MEMBERS:
        return tok
    if tok in _BY_LATTICE:
        return _BY_LATTICE[tok]
    raise ValueError("unknown member %r (use a key like psi_4_D8 or a "
                     "block name like D8)" % tok)


def expand_descriptor(desc: str, window: TruncationWindow) -> FourierSeries:
    """Build the series a descriptor names, exact through the window."""
    kind, _, rest = desc.partition(":")
    if not rest:
        name = desc
        if name in _BY_LATTICE:
            name = _BY_LATTICE[name]
        try:
            return jacobi.build(name, window).series
        except KeyError:
            raise ValueError("unknown registry name %r" % desc)
    if kind == "lift":
        return lifting.gritsenko_lift(_resolve_member(rest), window).series
    if kind == "borcherds":
        return borcherds.borcherds_exp(_resolve_member(rest), window)
    if kind == "product":
        return borcherds.borcherds_product_form(_resolve_member(rest), window)
    if kind == "phi0":
        key = _resolve_member(rest)
        form = jacobi.weak_weight0(key, max(window.q_max // 24, 1))
        return form.series.truncated(TruncationWindow(window.q_max, 0))
    if kind == "closedform":
        key = _resolve_member(rest)
        meta = jacobi.MEMBERS[key]
        if meta.family != "D":
            raise ValueError("closedform: covers the D tower only")
        return lifting.closed_form_Dk(meta.r, window).series
    raise ValueError("unknown descriptor prefix %r" % kind)


# ---------------------------------------------------------------------------
# cache

@functools.lru_cache(maxsize=None)
def _code_digest() -> str:
    """sha256 over the refltower source files, so older code's entries miss."""
    here = os.path.dirname(os.path.abspath(__file__))
    h = hashlib.sha256()
    for name in sorted(os.listdir(here)):
        if name.endswith(".py"):
            with open(os.path.join(here, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read() + b"\0")
    return h.hexdigest()


def _cache_path(cache_dir: str, desc: str, window: TruncationWindow) -> str:
    key = json.dumps({"schema": _SCHEMA, "descriptor": desc,
                      "q_max": window.q_max, "s_max": window.s_max},
                     separators=(",", ":"), sort_keys=True)
    h = hashlib.sha256(key.encode()).hexdigest()
    return os.path.join(cache_dir, h + ".json")


def _cached_expand(desc: str, window: TruncationWindow, cache_dir, *,
                   parse: bool = True) -> tuple:
    """Return (series_json, digest, hit, series, terms), terms counted in
    the body.  A hit parses the body only if ``parse``; a miss returns the
    series as built, which readers read only as far as the body holds it.
    An entry of other code, with a wrong payload digest, without the term
    count of its body or with a body ``from_json`` rejects is a miss and
    rewritten."""
    path = _cache_path(cache_dir, desc, window) if cache_dir else None
    if path:
        try:
            with open(path) as fh:
                doc = json.load(fh)
            body = doc["series"]
            if (doc["schema"] == _SCHEMA and doc["code"] == _code_digest()
                    and doc["terms"] == body.count('"c":')  # one "c" key per term
                    and hashlib.sha256(body.encode()).hexdigest() == doc["digest"]):
                return (body, doc["digest"], True,
                        FourierSeries.from_json(body) if parse else None, doc["terms"])
        except (OSError, ValueError, LookupError, TypeError, AttributeError):
            pass  # missing, unreadable or malformed entry: a miss, rewritten below
    series = expand_descriptor(desc, window)
    body = series.to_json()
    digest = hashlib.sha256(body.encode()).hexdigest()
    terms = body.count('"c":')
    if path:
        os.makedirs(cache_dir, exist_ok=True)
        doc = {"schema": _SCHEMA, "code": _code_digest(), "descriptor": desc,
               "q_max": window.q_max, "s_max": window.s_max,
               "series": body, "digest": digest, "terms": terms}
        # a temp file of its own, so that writers of one entry never
        # move each other's file away
        fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=cache_dir)
        with os.fdopen(fd, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"), sort_keys=True)
        os.replace(tmp, path)
    return body, digest, False, series, terms


# ---------------------------------------------------------------------------
# rendering

def _render_text(desc: str, window, series: FourierSeries, digest: str, terms: int) -> str:
    """The terms ``to_json`` writes (``FourierSeries.terms``), per cell."""
    lines = [
        "descriptor: %s" % desc,
        "window: q^%s s^%s" % (Fraction(window.q_max, 24), Fraction(window.s_max, 2)),
        "grid: r=%d den_z=%d" % (series.r, series.den_z),
        "terms: %d" % terms,
        "digest: %s" % digest,
    ]
    term = "  (%s) %%s" % ",".join(["%d"] * series.r)  # one template for every term
    for (s, q), cell in groupby(series.terms(), lambda t: (t[2], t[0])):
        rows = [term % (*z, c) for _, z, _, c in cell]
        lines.append("s^%s q^%s: %d terms" % (Fraction(s, 2), Fraction(q, 24), len(rows)))
        lines.extend(rows)
    return "\n".join(lines) + "\n"


def _render_json(desc: str, window, body: str, digest: str) -> str:
    """The document with sorted keys, the series body spliced in as stored."""
    head = json.dumps({"descriptor": desc, "digest": digest, "schema": _SCHEMA},
                      separators=(",", ":"), sort_keys=True)
    return '%s,"series":%s,"window":{"q_max":%d,"s_max":%d}}\n' % (
        head[:-1], body, window.q_max, window.s_max)


def _emit(text: str, out) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# commands

def _window_from(args) -> TruncationWindow:
    return TruncationWindow(24 * args.qmax, 2 * args.smax)


def _cmd_expand(args) -> int:
    window = _window_from(args)
    cache_dir = args.cache_dir or os.environ.get("CACHE_DIR")
    try:
        body, digest, _, series, terms = _cached_expand(args.descriptor, window, cache_dir,
                                                        parse=args.format != "json")
    except (ValueError, ArithmeticError) as exc:
        # ArithmeticError: an exactness check failed, e.g. integrality
        print("error: %s" % exc, file=sys.stderr)
        return 1 if isinstance(exc, ArithmeticError) else 2
    if args.format == "json":
        text = _render_json(args.descriptor, window, body, digest)
    else:
        text = _render_text(args.descriptor, window, series, digest, terms)
    _emit(text, args.out)
    return 0


def _cmd_verify(args) -> int:
    if args.list:
        _emit("".join(n + "\n" for n in verification.identities()), args.out)
        return 0
    window = None
    if args.qmax is not None or args.smax is not None:
        qn = 24 * args.qmax if args.qmax is not None else 1 << 40
        sn = 2 * args.smax if args.smax is not None else 1 << 40
        window = TruncationWindow(qn, sn)
    try:
        reports = verification.run_suite(args.identity or None, window)
    except KeyError as exc:
        print("error: %s" % exc.args[0], file=sys.stderr)
        return 2
    if args.format == "json":
        doc = [r._asdict() for r in reports]
        text = json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n"
    else:
        lines = []
        for r in reports:
            lines.append("%-4s %-34s checked=%-9d window=q^%s,s^%s" % (
                r.status, r.identity, r.checked_terms,
                Fraction(r.window[0], 24), Fraction(r.window[1], 2)))
            if r.status != "pass":
                lines.append("     claim: %s" % r.claim)
                lines.append("     details: %s" % json.dumps(r.details, sort_keys=True))
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0 if all(r.status == "pass" for r in reports) else 1


def _cmd_compare(args) -> int:
    window = _window_from(args)
    cache_dir = args.cache_dir or os.environ.get("CACHE_DIR")
    descs = (args.left, args.right)
    try:
        sides = [_cached_expand(d, window, cache_dir, parse=False) for d in descs]
        if sides[0][1] != sides[1][1]:  # parse the hits; a rejected body is a miss
            sides = [_cached_expand(d, window, cache_dir) if side[2] else side
                     for d, side in zip(descs, sides)]
    except (ValueError, ArithmeticError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1 if isinstance(exc, ArithmeticError) else 2
    (_, digest_a, _, a, terms_a), (_, digest_b, _, b, terms_b) = sides
    upto = "through q^%s s^%s" % (Fraction(window.q_max, 24), Fraction(window.s_max, 2))
    if digest_a != digest_b and (a.r, a.den_z) != (b.r, b.den_z):
        print("error: incompatible grids r=%d,den_z=%d vs r=%d,den_z=%d"
              % (a.r, a.den_z, b.r, b.den_z), file=sys.stderr)
        return 2
    if not terms_a and not terms_b:  # a check that examines no term fails
        print("nothing compared: neither %s nor %s has a term %s" % (args.left, args.right, upto))
        return 1
    if digest_a != digest_b:
        diff = a.first_difference(b)
        if diff is not None:
            s, q, z, ca, cb = diff
            print("difference at s^%s q^%s z=(%s): %s vs %s" % (
                Fraction(s, 2), Fraction(q, 24), ",".join(str(v) for v in z), ca, cb))
            return 1
    print("equal: %s == %s %s (%d terms)" % (args.left, args.right, upto, terms_a))
    return 0


def _power(text: str) -> int:
    """A displayed power for --qmax/--smax: a nonnegative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must not be negative, got %d" % value)
    return value


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="refltower",
        description="Expand and verify the reflective tower forms.")
    sub = p.add_subparsers(dest="command", required=True)

    def add_window(sp):
        sp.add_argument("--qmax", type=_power, default=4,
                        help="largest displayed q power (default 4)")
        sp.add_argument("--smax", type=_power, default=2,
                        help="largest displayed s power (default 2)")

    def add_io(sp):
        sp.add_argument("--format", choices=("text", "json"), default="text")
        sp.add_argument("--out", help="write output to a file")

    sp = sub.add_parser("expand", help="materialise one series")
    sp.add_argument("descriptor")
    add_window(sp)
    add_io(sp)
    sp.add_argument("--cache-dir", help="cache expansions here (or CACHE_DIR)")
    sp.set_defaults(func=_cmd_expand)

    sp = sub.add_parser("verify", help="run identity checks")
    sp.add_argument("identity", nargs="*", help="identity names (default all)")
    sp.add_argument("--qmax", type=_power, default=None,
                    help="cap the displayed q power of every check")
    sp.add_argument("--smax", type=_power, default=None,
                    help="cap the displayed s power of every check")
    sp.add_argument("--list", action="store_true", help="list identity names")
    add_io(sp)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("compare", help="expand two descriptors and diff them")
    sp.add_argument("left")
    sp.add_argument("right")
    add_window(sp)
    sp.add_argument("--cache-dir", help="cache expansions here (or CACHE_DIR)")
    sp.set_defaults(func=_cmd_compare)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
