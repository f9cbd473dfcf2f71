"""Command-line interface.

Every subcommand prints CSV or JSON (``--format``), to stdout or to
``--out``.  Output is deterministic: floats are rendered with 17
significant digits, line endings are LF, and rows follow the documented
column order, so repeated runs are byte-identical.  Every number is
computed before the first byte is written; a CSV table is then
formatted, and a JSON document encoded, as it is written, so neither is
held whole in memory.

Exit codes: 0 success, 1 usage error or an ``--out`` file that cannot
be written, 2 iteration failure (NoConvergence), 3 singular coupling
parameters, 141 stdout or stderr closed by the reader.

``run`` is the program entry (console script and ``python -m``); it ends
the process without interpreter teardown.  ``main`` is the in-process
entry and returns the exit code.
"""

import argparse
import errno
import functools
import itertools
import os
import re
import signal
import stat
import sys
from json.encoder import encode_basestring_ascii

# Only numpy-free modules here: each command imports the numeric module it
# needs after its own checks, so a call that fails before any solve,
# ``critical`` in closed form, ``continuum`` and ``locus`` never load numpy.
from .closedform import continuum_convergence, endpoint_locus
from .critical import critical_zeta
from .errors import NoConvergence, SingularParameters
from .families import FAMILIES
from .model import ModelParams, _check_count

# Every metric family parameter, each a float flag of metric and verify.
_FAMILY_PARAMS = tuple(dict.fromkeys(
    name for family in FAMILIES.values() for name, _ in family.params))


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads "-1e-3" and "-inf" as flags, not negative numbers:
        # its pattern has no exponent and no inf or nan (Python 3.10-3.12),
        # and repr of a small float has an exponent.  float() takes
        # inf, infinity and nan in any case; the finiteness checks then
        # name the flag.
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)([eE][-+]?\d+)?|inf|infinity|nan)$",
            re.IGNORECASE)

    # argparse exits with status 2 on bad flags; route through the
    # package-wide convention (1) instead.
    def error(self, message):
        raise _UsageError(message)


def _check_out_dir(out):
    """Raise the error that opening ``out`` would raise when it is a
    directory or its directory is missing, before any computation.  The
    file itself is opened only after a successful solve, so a failing call
    leaves it untouched."""
    try:
        if os.path.isdir(out):
            reason = os.strerror(errno.EISDIR)
        elif stat.S_ISDIR(os.stat(os.path.dirname(out) or ".").st_mode):
            return
        else:
            reason = os.strerror(errno.ENOTDIR)
    except OSError as exc:
        reason = exc.strerror
    raise _UsageError(f"cannot write {out}: {reason}")


def _emit(chunks, out):
    """Write the strings of ``chunks`` to ``out``, or to stdout."""
    if out:
        try:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.writelines(chunks)
        except OSError as exc:
            raise _UsageError(f"cannot write {out}: {exc.strerror}") from None
    else:
        sys.stdout.writelines(chunks)


def _emit_csv(header, row, values, out):
    """A CSV table: the ``header`` line, then ``row % v`` for each tuple
    v of computed numbers in ``values``, formatted as it is written."""
    _emit(itertools.chain((header + "\n",), map(row.__mod__, values)), out)


# JSON as ``json.dumps(doc, indent=2)`` writes it (a complex number as
# [re, im], an array as nested lists).  That encoder indents in pure Python,
# one generator frame per value, so here a 1-D array is one %-format of its
# numbers, each ``float.__repr__``, laid out as the encoder lays it out.
_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}
# float.__repr__ writes these three; json writes NaN, Infinity, -Infinity.
_JSON_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


@functools.lru_cache(maxsize=64)
def _row_format(size, pairs, indent):
    """The %-format of a JSON array of ``size`` numbers, or of ``size``
    [re, im] pairs, whose closing bracket is at ``indent``."""
    inner = indent + "  "
    item = f"[\n{inner}  %s,\n{inner}  %s\n{inner}]" if pairs else "%s"
    return (f"[\n{inner}" + f",\n{inner}".join([item] * size)
            + f"\n{indent}]")


def _json_chunks(value, indent=""):
    """The JSON text of ``value`` in pieces, one per 1-D array and one per
    other value.  It writes the types the documents hold: str, int, float,
    bool, None, complex (as [re, im]), list, tuple, dict with str keys, and
    float, complex or bool arrays (by rows); any other type is a TypeError.
    """
    if isinstance(value, str):
        yield encode_basestring_ascii(value)
    elif value is None or value is True or value is False:
        yield _JSON_CONSTANTS[value]
    elif isinstance(value, int):
        yield int.__repr__(value)
    elif isinstance(value, float):
        text = float.__repr__(value)
        yield _JSON_FLOATS.get(text, text)
    elif (getattr(value, "ndim", 0) == 1 and value.size
          and value.dtype.char in "dD?"):
        code = value.dtype.char
        if code == "d":
            texts = map(float.__repr__, value.tolist())
        elif code == "D":
            texts = map(float.__repr__, itertools.chain.from_iterable(
                zip(value.real.tolist(), value.imag.tolist())))
        else:
            texts = map(_JSON_CONSTANTS.__getitem__, value.tolist())
        text = _row_format(value.size, code == "D", indent) % tuple(texts)
        # Of the number texts only nan, inf and -inf hold an "n".
        if "n" in text:
            text = text.replace("nan", "NaN").replace("inf", "Infinity")
        yield text
    else:
        if isinstance(value, complex):
            value = [value.real, value.imag]
        elif getattr(value, "ndim", 0) and value.dtype.char in "dD?":
            value = list(value)  # the rows, or none of an empty array
        if isinstance(value, dict):
            # Any key that is not a str is a TypeError.
            items = ((encode_basestring_ascii(k) + ": ", v)
                     for k, v in value.items())
            brackets = "{}"
        elif isinstance(value, (list, tuple)):
            items = (("", v) for v in value)
            brackets = "[]"
        else:
            raise TypeError(f"{type(value).__module__}.{type(value).__name__}"
                            " is not JSON serializable")
        inner = indent + "  "
        opening = sep = brackets[0] + "\n" + inner
        for key, item in items:
            yield sep + key
            yield from _json_chunks(item, inner)
            sep = ",\n" + inner
        yield brackets if sep is opening else "\n" + indent + brackets[1]


def _emit_json(doc, out):
    """``doc`` as indented JSON, encoded as it is written: the pieces go
    out joined 4,096 at a time, so the text is never held whole and the
    writes are few."""
    pieces = _json_chunks(doc)
    batches = iter(lambda: "".join(itertools.islice(pieces, 4096)), "")
    _emit(itertools.chain(batches, ("\n",)), out)


def _add_coupling_flags(sub):
    sub.add_argument("--xi", type=float, default=None,
                     help="Robin coupling strength (needs --zeta)")
    sub.add_argument("--zeta", type=float, default=None,
                     help="Robin detuning (needs --xi)")
    sub.add_argument("--omega", type=float, default=None,
                     help="Cartesian coupling, z = 1 + rho + i omega")
    sub.add_argument("--rho", type=float, default=None,
                     help="Cartesian real shift (default 0)")


def _add_family_flags(sub):
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--family", required=True, choices=tuple(FAMILIES))
    for name in _FAMILY_PARAMS:
        sub.add_argument(f"--{name}", type=float, default=None)


def _add_convention_flag(sub):
    sub.add_argument("--convention", choices=("lattice", "shifted"),
                     default="lattice", help="energy convention")


def _add_output_flags(sub, fmt_default="csv"):
    sub.add_argument("--out", default=None, help="output file (default stdout)")
    sub.add_argument("--format", choices=("csv", "json"),
                     default=fmt_default, help="output format")


def _model_params(args, **kwargs):
    """``ModelParams`` from the coupling flags as given; it checks them."""
    return ModelParams(n=args.n, xi=args.xi, zeta=args.zeta,
                       omega=args.omega, rho=args.rho, **kwargs)


def _spectral_csv(values, energies, is_real):
    """Rows (axis value, index, re_E, im_E, is_real) of a grid of spectra."""
    return ("axis,index,re_E,im_E,is_real", "%.17g,%d,%.17g,%.17g,%d\n",
            ((v, i, e.real, e.imag, r)
             for v, row, flags in zip(values, energies, is_real)
             for i, (e, r) in enumerate(zip(row.tolist(), flags.tolist()))))


def _params_json(params):
    if params.coupling_style == "xizeta":
        return {"xi": params.xi, "zeta": params.zeta}
    return {"omega": params.omega, "rho": params.rho}


# Each command returns its CSV table, as (header, row format, row values)
# for ``_emit_csv``, and its JSON document; ``main`` writes the one that
# --format names.

def _cmd_spectrum(args):
    params = _model_params(args, convention=args.convention)
    from .spectrum import solve_spectrum

    spec = solve_spectrum(params)
    axis = params.xi if params.coupling_style == "xizeta" else params.omega
    return _spectral_csv((axis,), (spec.energies,), (spec.is_real,)), {
        "n": params.n,
        "params": _params_json(params),
        "convention": params.convention,
        "results": [{"y": y, "energy": e, "is_real": r} for y, e, r in zip(
            spec.y_roots.tolist(), spec.energies.tolist(),
            spec.is_real.tolist())],
    }


def _cmd_wavefn(args):
    params = _model_params(args, convention=args.convention)
    if not 0 <= args.index < params.n:
        raise _UsageError(f"--index must be in [0, {params.n - 1}]")
    from .spectrum import solve_spectrum, wavefunction

    spec = solve_spectrum(params)
    wf = wavefunction(params, spec.y_roots[args.index])
    return ("site,re_phi,im_phi", "%d,%.17g,%.17g\n",
            ((m, c.real, c.imag)
             for m, c in enumerate(wf.components.tolist(), 1))), {
        "n": params.n,
        "params": _params_json(params),
        "convention": params.convention,
        "index": args.index,
        "y": wf.y,
        "energy": wf.energy,
        "residual": wf.residual,
        "components": wf.components,
    }


def _build_family(args):
    family = FAMILIES[args.family]
    given = {name: getattr(args, name) for name in _FAMILY_PARAMS
             if getattr(args, name) is not None}
    params = family.bind(args.n, given, flag="--")
    return family, family.build(args.n, **params)


def _cmd_metric(args):
    family, theta = _build_family(args)
    from .metric import hermitian_eigenvalues

    eigs = hermitian_eigenvalues(theta)
    axis = theta.params[family.swept]
    return ("axis,index,eigenvalue", "%.17g,%d,%.17g\n",
            ((axis, i, e) for i, e in enumerate(eigs.tolist()))), {
        "n": theta.n,
        "family": theta.family,
        "params": theta.params,
        "eigenvalues": eigs,
        "min_eigenvalue": float(eigs[0]),
        "positive_definite": bool(eigs[0] > 0.0),
    }


def _cmd_verify(args):
    family, theta = _build_family(args)
    params = ModelParams(n=args.n, **{family.swept: theta.params[family.swept],
                                      family.held: 0.0})
    from .metric import verify_metric
    from .spectrum import solve_spectrum

    report = verify_metric(params, theta)
    spec = solve_spectrum(params, with_wavefunctions=True)
    doc = {
        "n": report.n,
        "family": report.family,
        "params": report.params,
        "dieudonne_residual": report.dieudonne_residual,
        "min_metric_eigenvalue": report.min_eigenvalue,
        "positive_definite": report.positive_definite,
        "max_wavefn_residual": max(w.residual for w in spec.wavefunctions),
    }
    # One record, written as a (field, value) column in document order.
    record = dict(doc, params=";".join("%s=%.17g" % kv
                                       for kv in report.params.items()))
    return ("field,value", "n,%d\nfamily,%s\nparams,%s\n"
            "dieudonne_residual,%.17g\nmin_metric_eigenvalue,%.17g\n"
            "positive_definite,%d\nmax_wavefn_residual,%.17g\n",
            [tuple(record.values())]), doc


def _cmd_nullspace(args):
    params = _model_params(args)
    from .metric import dieudonne_nullspace

    basis = dieudonne_nullspace(params)
    return ("element,row,col,re,im", "%d,%d,%d,%.17g,%.17g\n",
            ((k, i, j, v.real, v.imag)
             for k, element in enumerate(basis)
             for i, row in enumerate(element.matrix.tolist())
             for j, v in enumerate(row))), {
        "n": args.n,
        "params": _params_json(params),
        "dimension": len(basis),
        "elements": [b.matrix for b in basis],
    }


def _cmd_sweep(args):
    held = "zeta" if args.axis == "xi" else "xi"
    if getattr(args, held) is None:
        raise _UsageError(f"sweep over {args.axis} needs a fixed --{held}")
    if getattr(args, args.axis) is not None:
        raise _UsageError(f"--{args.axis} conflicts with --axis {args.axis}")
    from . import analysis

    sweep = getattr(analysis, "sweep_" + args.axis)
    result = sweep(args.n, getattr(args, held), args.min, args.max,
                   args.steps, convention=args.convention)
    return _spectral_csv(result.values, result.energies, result.is_real), {
        "n": result.n,
        "axis": result.axis,
        "fixed": result.fixed,
        "convention": result.convention,
        "values": result.values,
        "energies": result.energies,
        "is_real": result.is_real,
    }


def _cmd_critical(args):
    # The value is exact and does not depend on --xi-steps; it is still
    # checked, so that existing calls keep working, and the output keeps
    # its schema: xi_steps is echoed, the bracket is [value, value].
    _check_count("xi_steps", args.xi_steps)
    result = critical_zeta(args.n, xi_max=args.xi_max)
    v = result.value
    return ("n,value,bracket_lo,bracket_hi,xi_max,xi_steps",
            "%d,%.17g,%.17g,%.17g,%.17g,%d\n",
            [(result.n, v, v, v, result.xi_max, args.xi_steps)]), {
        "n": result.n,
        "value": v,
        "bracket": [v, v],
        "xi_max": result.xi_max,
        "xi_steps": args.xi_steps,
    }


def _cmd_continuum(args):
    try:
        ms = [int(tok) for tok in args.m.split(",") if tok]
    except ValueError:
        raise _UsageError("--m must be a comma-separated integer list")
    if not ms:
        raise _UsageError("--m must name at least one size")
    table = continuum_convergence(ms, args.levels)
    doubling = all(b == 2 * a for a, b in zip(ms, ms[1:])) and len(ms) > 1
    return ("m,level,energy,rescaled,target", "%d,%d,%.17g,%.17g,%.17g\n",
            ((m, k, *values)
             for m, row, scaled in zip(ms, table.energies, table.rescaled)
             for k, values in enumerate(zip(row, scaled, table.targets)))), {
        "ms": ms,
        "levels": table.levels,
        "energies": table.energies,
        "rescaled": table.rescaled,
        "targets": table.targets,
        "richardson": table.richardson() if doubling else None,
    }


def _cmd_locus(args):
    result = endpoint_locus(args.n, samples=args.samples)
    branches = (result.y_plus, result.y_minus)
    return ("branch,t,zeta,xi", "%s,%.17g,%.17g,%.17g\n",
            ((b.name, *point) for b in branches
             for point in zip(b.t, b.zeta, b.xi))), {
        "n": result.n,
        "branches": {b.name: {"t": b.t, "zeta": b.zeta, "xi": b.xi}
                     for b in branches},
    }


def _build_parser():
    parser = _Parser(prog="hermitize",
                     description="Spectra and metric operators of the "
                                 "endpoint-coupled discrete square well")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("spectrum", help="eigenvalues at one coupling")
    p.add_argument("--n", type=int, required=True)
    _add_coupling_flags(p)
    _add_convention_flag(p)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_spectrum)

    p = subs.add_parser("wavefn", help="eigenvector at one coupling")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--index", type=int, default=0,
                   help="root index in sorted order")
    _add_coupling_flags(p)
    _add_convention_flag(p)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_wavefn)

    p = subs.add_parser("metric", help="metric family eigenvalues")
    _add_family_flags(p)
    _add_output_flags(p, fmt_default="csv")
    p.set_defaults(func=_cmd_metric)

    p = subs.add_parser("verify",
                        help="check a metric family against its Hamiltonian")
    _add_family_flags(p)
    _add_output_flags(p, fmt_default="json")
    p.set_defaults(func=_cmd_verify)

    p = subs.add_parser("nullspace",
                        help="all Hermitian intertwiners of one coupling")
    p.add_argument("--n", type=int, required=True)
    _add_coupling_flags(p)
    _add_output_flags(p, fmt_default="json")
    p.set_defaults(func=_cmd_nullspace)

    p = subs.add_parser("sweep", help="spectra along a parameter grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--axis", required=True, choices=("xi", "zeta"))
    p.add_argument("--min", type=float, required=True)
    p.add_argument("--max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--xi", type=float, default=None,
                   help="fixed xi for --axis zeta")
    p.add_argument("--zeta", type=float, default=None,
                   help="fixed zeta for --axis xi")
    _add_convention_flag(p)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_sweep)

    p = subs.add_parser("critical",
                        help="largest zeta with an all-real spectrum")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--xi-max", type=float, default=10.0)
    p.add_argument("--xi-steps", type=int, default=2000,
                   help="checked and echoed; the value does not use it")
    _add_output_flags(p, fmt_default="json")
    p.set_defaults(func=_cmd_critical)

    p = subs.add_parser("continuum",
                        help="hard-wall chain versus the continuum box")
    p.add_argument("--m", required=True,
                   help="comma-separated half sizes, e.g. 50,100,200")
    p.add_argument("--levels", type=int, default=2)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_continuum)

    p = subs.add_parser("locus",
                        help="closed-form loci with a root at y = +/-1")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, default=20)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_locus)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.out:
            _check_out_dir(args.out)
        table, doc = args.func(args)
        if args.format == "csv":
            _emit_csv(*table, args.out)
        else:
            _emit_json(doc, args.out)
        return 0
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NoConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SingularParameters as exc:
        # Must precede ValueError: SingularParameters subclasses it.
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # A size too large to hold: numpy names the array it could not
        # allocate, ``closedform`` the list.
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 1


def _raise_broken_pipe(signum, frame):
    raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))


def run(argv=None):
    """Program entry: run ``main``, flush, and end the process.

    The process ends with ``os._exit``: module teardown and the last
    garbage collection, which only discard objects, do not run, and
    neither do ``atexit`` handlers.  ``SystemExit`` (``--help``) and
    uncaught exceptions leave through the normal interpreter exit.

    A reader that closes the pipe early ends the call with status 141
    (128 + SIGPIPE) and nothing more on stderr.  Python ignores SIGPIPE,
    and a large write that the reader cuts short returns without error
    and drops the rest, so SIGPIPE raises BrokenPipeError here.
    """
    if hasattr(signal, "SIGPIPE"):  # absent on Windows
        signal.signal(signal.SIGPIPE, _raise_broken_pipe)
    try:
        code = main(argv)
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        os._exit(141)
    os._exit(code)


if __name__ == "__main__":
    run()
