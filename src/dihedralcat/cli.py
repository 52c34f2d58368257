"""Command-line surface: hhh, minimal, trace, homfly, serre-check.

Exit codes: 0 pass, 1 computation error, 2 check-suite failure.  Simplified
Rouquier complexes are cached on disk as JSON (one content-addressed file
per braid/m), under $SOERGEL_CACHE or the XDG cache directory; writes are
create-then-rename atomic so concurrent invocations are safe.  An entry
that fails to load or check, raises an arithmetic error, or holds a
complex or an atom of another m is recomputed.  homfly prints its
polynomial as sympy printed it expanded.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

import click

from .complexes import ChainComplex, parse_braid, rouquier_braid

# Cache keys hash this tag and the package sources (_source_digest).
CACHE_FORMAT = "chaincomplex-json-1"


# ---------------------------------------------------------------------------
# cache


def cache_dir():
    root = os.environ.get("SOERGEL_CACHE")
    if not root:
        xdg = os.environ.get("XDG_CACHE_HOME",
                             os.path.join(os.path.expanduser("~"), ".cache"))
        root = os.path.join(xdg, "dihedralcat")
    return root


def _source_digest():
    """sha256 of the package's .py sources, by file name."""
    pkg = os.path.dirname(os.path.abspath(__file__))
    digest = hashlib.sha256()
    for name in sorted(n for n in os.listdir(pkg) if n.endswith(".py")):
        with open(os.path.join(pkg, name), "rb") as fh:
            digest.update(name.encode() + b"\0" + fh.read() + b"\0")
    return digest.hexdigest()


def _cache_key(braid, m):
    canon = " ".join("%s^%d" % (letter, sign) for letter, sign in braid)
    payload = "%s|%s|m%d|%s" % (CACHE_FORMAT, _source_digest(), m, canon)
    return hashlib.sha256(payload.encode()).hexdigest()


def cached_simplified_complex(braid, m):
    """Simplified + split Rouquier complex, via the on-disk cache."""
    braid = parse_braid(braid) if isinstance(braid, str) else list(braid)
    path = os.path.join(cache_dir(), _cache_key(braid, m) + ".json")
    if os.path.exists(path):
        try:
            with open(path) as fh:
                cplx = ChainComplex.from_json(json.load(fh))
            if cplx.m == m:
                return cplx
        except (ArithmeticError, ValueError, KeyError, IndexError, TypeError,
                AttributeError, OSError):
            pass  # corrupt, stale or invalid entry: recompute below
    cplx = rouquier_braid(m, braid, split=True)
    try:
        os.makedirs(cache_dir(), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_dir(), suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            json.dump(cplx.to_json(), fh)
        os.replace(tmp, path)
    except OSError:
        pass  # cache is best-effort
    return cplx


# ---------------------------------------------------------------------------
# commands


@click.group()
def main():
    """Exact computations in the homotopy category of dihedral Soergel
    bimodules."""


def _fail(message):
    click.echo("error: %s" % message, err=True)
    sys.exit(1)


def _parse(braid_text):
    try:
        return parse_braid(braid_text)
    except ValueError as exc:
        _fail(str(exc))


@main.command(name="hhh")
@click.argument("braid")
@click.option("--m", "m", type=int, default=3, show_default=True)
@click.option("--json", "as_json", is_flag=True, default=False)
@click.option("--strand", type=click.Choice(["0", "1", "2"]), default=None)
def hhh_command(braid, m, as_json, strand):
    """Triply-graded Poincare series of the braid closure."""
    from .homology import hhh
    word = _parse(braid)
    strands = (int(strand),) if strand is not None else (0, 1, 2)
    try:
        cplx = cached_simplified_complex(word, m)
        series = hhh(word, m, strands=strands, precomputed=cplx)
        if as_json:
            out = {"braid": braid, "m": m, "strands": list(strands),
                   "series": series.to_json()}
            if m != 3:
                out["note"] = "experimental: non-type-A dihedral closure"
            text = json.dumps(out, sort_keys=True)
        else:
            text = repr(series)
            if m != 3:
                text = ("# experimental: non-type-A dihedral closure "
                        "(m=%d)\n%s" % (m, text))
    except Exception as exc:  # contract violations carry module provenance
        _fail("%s: %s" % (type(exc).__name__, exc))
    click.echo(text)


@main.command(name="minimal")
@click.argument("braid")
@click.option("--m", "m", type=int, default=3, show_default=True)
@click.option("--json", "as_json", is_flag=True, default=False)
def minimal_command(braid, m, as_json):
    """Minimal (simplified, split) Rouquier complex of a braid word."""
    word = _parse(braid)
    try:
        cplx = cached_simplified_complex(word, m)
    except Exception as exc:
        _fail("%s: %s" % (type(exc).__name__, exc))
    if as_json:
        click.echo(json.dumps({"braid": braid, "m": m,
                               "complex": cplx.to_json()}, sort_keys=True))
    else:
        for d in cplx.degrees():
            click.echo("deg %d: %s" % (
                d, " + ".join(repr(mod) for mod in cplx.objects[d])))


FUNCTORS = ["pi_s_minus", "pi_s_plus", "pi_t_minus", "pi_t_plus",
            "hh0", "hh1", "hh2"]


@main.command(name="trace")
@click.argument("braid")
@click.option("--m", "m", type=int, default=3, show_default=True)
@click.option("--functor", type=click.Choice(FUNCTORS), required=True)
@click.option("--json", "as_json", is_flag=True, default=False)
def trace_command(braid, m, functor, as_json):
    """Apply a partial-trace or Hochschild functor to a Rouquier complex."""
    from .complexes import minimal_form
    from .trace import pi_on_complex
    word = _parse(braid)
    try:
        cplx = cached_simplified_complex(word, m)
        if functor.startswith("pi"):
            letter = functor.split("_")[1]
            sign = -1 if functor.endswith("minus") else 1
            out = minimal_form(pi_on_complex(cplx, letter, sign))
            if as_json:
                click.echo(json.dumps({"braid": braid, "m": m,
                                       "functor": functor,
                                       "complex": out.to_json()},
                                      sort_keys=True))
            else:
                click.echo(repr(out))
        else:
            from .homology import strand_homology
            k = int(functor[2])
            hom = strand_homology(cplx, k)
            payload = {str(d): {"degrees": mod.degrees,
                                "series": repr(mod.hilbert_series())}
                       for d, mod in hom.items()}
            if as_json:
                click.echo(json.dumps({"braid": braid, "m": m,
                                       "functor": functor,
                                       "homology": payload},
                                      sort_keys=True))
            else:
                for d in sorted(hom):
                    click.echo("T^%d: %s" % (
                        d, repr(hom[d].hilbert_series())))
    except Exception as exc:
        _fail("%s: %s" % (type(exc).__name__, exc))


def _homfly_text(poly):
    """{(v exponent, z exponent): c} as sympy printed it expanded: terms by
    descending exponents, as in -v**4 - 1/(v*z) + 2*z**3/v**2 + v**(-2)."""
    text = ""
    for (ve, ze), c in sorted(poly.items(), reverse=True):
        exps = [(x, e) for x, e in (("v", ve), ("z", ze)) if e]
        up, down = ([x if abs(e) == 1 else "%s**%d" % (x, abs(e))
                     for x, e in exps if (e > 0) == above]
                    for above in (True, False))
        if c == 1 and len(exps) == 1 and exps[0][1] <= -2:
            term = "%s**(%d)" % exps[0]
        else:
            term = "*".join([str(abs(c))] * (abs(c) != 1 or not up) + up)
            if down:
                term += "/" + ("(%s)" % "*".join(down) if len(down) > 1
                               else down[0])
        text += (" - " if c < 0 else " + ") + term
    return ("-" if text[1] == "-" else "") + text[3:]


@main.command(name="homfly")
@click.argument("braid")
@click.option("--json", "as_json", is_flag=True, default=False)
def homfly_command(braid, as_json):
    """HOMFLY-PT polynomial of the 3-strand closure, in v and z."""
    from .hecke import homfly
    word = _parse(braid)
    try:
        text = _homfly_text(homfly(word))
    except Exception as exc:
        _fail("%s: %s" % (type(exc).__name__, exc))
    if as_json:
        click.echo(json.dumps({"braid": braid, "homfly": text},
                              sort_keys=True))
    else:
        click.echo(text)


@main.command(name="serre-check")
@click.option("--m", "m", type=int, default=3, show_default=True)
@click.option("--suite", type=click.Choice(
    ["vanishing", "pift", "relative", "full"]), required=True)
@click.option("--json", "as_json", is_flag=True, default=False)
def serre_check_command(m, suite, as_json):
    """Run one of the structural-theorem check suites."""
    from .serre import run_suite
    try:
        report = run_suite(suite, m)
    except Exception as exc:
        _fail("%s: %s" % (type(exc).__name__, exc))
    click.echo(json.dumps(report, sort_keys=True) if as_json
               else json.dumps(report, indent=2, sort_keys=True))
    sys.exit(2 if report["status"] == "fail" else 0)


if __name__ == "__main__":
    main()
