"""Command line interface.

Subcommands mirror the library: quiver inspection, entropy and Serre
dimension estimates, volumes, stability-condition operations, curve bounds,
and the verification battery.  Reports are emitted as JSON (default), CSV,
or Markdown; output is byte-deterministic for a fixed configuration and
seed.  Exit codes: 0 success, 2 configuration or usage errors, 3 domain
errors; errors are mirrored as a JSON envelope on stderr.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from fractions import Fraction

from . import __version__
from . import curves as cv
from . import entropy as ent
from . import stability as st
from . import verify as ver
from .catalog import catalog_for
from .derived import standard_generator
from .errors import ConfigError, ParseError, SdlabError
from .quivers import (
    Quiver,
    classify_dynkin,
    coxeter_matrix,
    parse_quiver,
)


def _sigma_from_args(ns: argparse.Namespace, q: Quiver) -> st.StabilityCondition:
    if ns.seed is not None and not ns.use_sample:
        raise ConfigError("--seed is read only with --sample")
    if ns.z is not None:
        return st.make_stability(q, ns.z)
    if ns.use_gepner:
        return st.gepner_construct(q)
    if ns.sigma_path is not None:
        try:
            with open(ns.sigma_path, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
        except OSError as exc:
            raise ConfigError("cannot read --sigma file: %s" % exc) from exc
        except ValueError as exc:
            raise ConfigError("--sigma file is not JSON: %s" % exc) from exc
        try:
            sigma = st.sigma_from_json(obj)
        except KeyError as exc:
            raise ConfigError("--sigma file lacks key %s" % exc) from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError("--sigma file is malformed: %s" % exc) from exc
        if sigma.quiver != q:
            raise ConfigError("--sigma file is for a different quiver")
        return sigma
    return st.sample_stability(q, ns.seed or 0)


def _records_table(sigma: st.StabilityCondition) -> dict:
    cat = catalog_for(sigma.quiver)
    rows = []
    for r in sigma.records:
        dim = cat.entries[r.ident].dim_vector
        rows.append([r.ident, " ".join(str(d) for d in dim), r.shift, r.phase,
                     r.z.real, r.z.imag])
    return {"header": ["id", "dim_vector", "shift", "phase", "z_re", "z_im"], "rows": rows}


# ---------------------------------------------------------------- commands


def _cmd_quiver(ns: argparse.Namespace) -> dict:
    q = parse_quiver(ns.quiver)
    ed = coxeter_matrix(q)
    dyn = classify_dynkin(q) if q.is_connected() else None
    report = {
        "kind": "quiver",
        "text": q.text(),
        "n": q.n,
        "arrow_count": len(q.arrows),
        "euler_matrix": [list(r) for r in ed.euler],
        "coxeter_matrix": [list(r) for r in ed.coxeter],
    }
    if dyn is not None:
        report["dynkin"] = {
            "series": dyn.series,
            "rank": dyn.rank,
            "coxeter_number": dyn.coxeter_number,
            "fcy_pair": list(dyn.fcy_pair),
        }
        # |Phi+| = nh/2, the count the catalog's knitting is certified by
        report["positive_root_count"] = dyn.rank * dyn.coxeter_number // 2
    else:
        report["dynkin"] = None
    return report


def _cmd_entropy(ns: argparse.Namespace) -> dict:
    q = parse_quiver(ns.quiver)
    if ns.series:
        series = ent.entropy_series(q, ns.n_max, ns.budget)
        rows = []
        for n, lev in enumerate(series.levels):
            for m in sorted(lev):
                rows.append([n, m, lev[m]])
        return {
            "kind": "entropy-series",
            "quiver": q.text(),
            "n_max": ns.n_max,
            "table": {"header": ["n", "m", "dim"], "rows": rows},
        }
    if ns.t_grid is not None:
        prof = ent.entropy_profile(q, ns.t_grid, ns.n_max, ns.budget)
        rows = [[t, h] for t, h in zip(ns.t_grid, prof.estimates)]
        return {
            "kind": "entropy-profile",
            "quiver": q.text(),
            "n_max": ns.n_max,
            "slope": prof.slope,
            "intercept": prof.intercept,
            "residual": prof.residual,
            "c_hat": prof.c_hat,
            "table": {"header": ["t", "h_t"], "rows": rows},
        }
    t = 0.0 if ns.t is None else ns.t
    return {
        "kind": "entropy",
        "quiver": q.text(),
        "t": t,
        "n_max": ns.n_max,
        "estimate": ent.entropy_estimate(q, t, ns.n_max, ns.budget),
    }


def _cmd_sdim(ns: argparse.Namespace) -> dict:
    q = parse_quiver(ns.quiver)
    sd = ent.sdim_estimate(q, ns.n_max, ns.budget)
    return {
        "kind": "serre-dimension",
        "quiver": q.text(),
        "n_max": ns.n_max,
        "upper": sd.upper,
        "lower": sd.lower,
        "exact": sd.exact,
    }


def _cmd_volume(ns: argparse.Namespace) -> dict:
    q = parse_quiver(ns.quiver)
    rows = [[lam, ent.volume(q, lam, ns.n_max)] for lam in ns.lam]
    return {
        "kind": "volume",
        "quiver": q.text(),
        "n_max": ns.n_max,
        "table": {"header": ["lam", "volume"], "rows": rows},
    }


def _stab_report(kind: str, q: Quiver, sigma: st.StabilityCondition, table=None, **extra) -> dict:
    """The report every stab command shares: the quiver, sigma, its global
    dimension and a table, by default the semistable records."""
    return {
        "kind": kind,
        "quiver": q.text(),
        "sigma": sigma.to_json(),
        "gldim": st.gldim(sigma),
        "table": table or _records_table(sigma),
        **extra,
    }


def _cmd_stab_gldim(ns: argparse.Namespace) -> dict:
    q = parse_quiver(ns.quiver)
    sigma = _sigma_from_args(ns, q)
    return _stab_report("stability-gldim", q, sigma, record_count=len(sigma.records))


def _cmd_stab_sample(ns: argparse.Namespace) -> dict:
    q = parse_quiver(ns.quiver)
    sigma = st.sample_stability(q, ns.seed)
    return _stab_report("stability-sample", q, sigma, seed=ns.seed,
                        record_count=len(sigma.records))


def _cmd_stab_gepner(ns: argparse.Namespace) -> dict:
    q = parse_quiver(ns.quiver)
    sigma = st.gepner_construct(q)
    dyn = classify_dynkin(q)
    mu = ns.mu if ns.mu is not None else (dyn.coxeter_number - 2) / dyn.coxeter_number
    report = _stab_report("gepner-point", q, sigma, mu=mu)
    if ns.check:
        rep = st.gepner_check(sigma, mu)
        report["charge_match"] = rep.charge_match
        report["slicing_match"] = rep.slicing_match
        report["verdict"] = rep.verdict
    return report


def _cmd_stab_fec(ns: argparse.Namespace) -> dict:
    q = parse_quiver(ns.quiver)
    sigma = _sigma_from_args(ns, q)
    coll = st.extract_exceptional_collection(sigma)
    cat = catalog_for(q)
    rows = []
    by_ident = {r.ident: r for r in sigma.records}
    for ident, shift in coll:
        r = by_ident[ident]
        dim = cat.entries[ident].dim_vector
        rows.append([ident, " ".join(str(d) for d in dim), shift,
                     r.phase + (shift - r.shift)])
    table = {"header": ["id", "dim_vector", "shift", "phase"], "rows": rows}
    return _stab_report("exceptional-collection", q, sigma, table)


def _cmd_stab_restrict(ns: argparse.Namespace) -> dict:
    q = parse_quiver(ns.quiver)
    sigma = _sigma_from_args(ns, q)
    sub = st.restrict_to_subquiver(sigma, ns.subset)
    return _stab_report("stability-restriction", q, sub, subset=list(ns.subset),
                        subquiver=sub.quiver.text())


def _cmd_stab_mass(ns: argparse.Namespace) -> dict:
    q = parse_quiver(ns.quiver)
    sigma = _sigma_from_args(ns, q)
    mg = st.mass_growth(sigma, ns.t_grid, ns.n_max)
    g = standard_generator(q)
    rows = [
        [t, st.mass(sigma, t, g), rate]
        for t, rate in zip(mg.t_grid, mg.rates)
    ]
    return {
        "kind": "mass-growth",
        "quiver": q.text(),
        "sigma": sigma.to_json(),
        "n_max": ns.n_max,
        "phase_upper": mg.phase_upper,
        "phase_lower": mg.phase_lower,
        "table": {"header": ["t", "mass_of_generator", "growth_rate"], "rows": rows},
    }


def _cmd_curve(ns: argparse.Namespace) -> dict:
    rows = [[h, lo, up] for h, lo, up in cv.curve_inf_scan(ns.genus, ns.h_grid, ns.beta)]
    return {
        "kind": "curve-gldim-bounds",
        "genus": ns.genus,
        "beta": ns.beta,
        "table": {"header": ["H", "lower", "upper"], "rows": rows},
    }


def _cmd_verify(ns: argparse.Namespace) -> dict:
    summary = ver.run_all(quivers=ns.quivers, samples=ns.samples, seed=ns.seed)
    rows = [[r.name, "pass" if r.passed else "FAIL", r.margin, r.detail] for r in summary.results]
    return {
        "kind": "verification",
        "quivers": list(ns.quivers),
        "samples": ns.samples,
        "seed": ns.seed,
        "all_passed": summary.all_passed,
        "worst_margin": summary.worst_margin,
        "table": {"header": ["check", "status", "margin", "detail"], "rows": rows},
    }


# -------------------------------------------------------------- formatting


def _normalize(x):
    if isinstance(x, dict):
        return {k: _normalize(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_normalize(v) for v in x]
    if isinstance(x, Fraction):
        return "%d/%d" % (x.numerator, x.denominator)
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, float) and math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def _cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (list, dict)):
        return json.dumps(v, sort_keys=True)
    return str(v)


def _fmt_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _fmt_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    table = report.get("table")
    if table is not None:
        writer.writerow(table["header"])
        for row in table["rows"]:
            writer.writerow([_cell(v) for v in row])
    else:
        writer.writerow(["key", "value"])
        for k in sorted(report):
            writer.writerow([k, _cell(report[k])])
    return buf.getvalue()


def _fmt_md(report: dict) -> str:
    lines = ["# %s" % report.get("kind", "report"), ""]
    for k in sorted(report):
        if k in ("kind", "table"):
            continue
        lines.append("- %s: %s" % (k, _cell(report[k])))
    table = report.get("table")
    if table is not None:
        lines.append("")
        lines.append("| " + " | ".join(table["header"]) + " |")
        lines.append("|" + "|".join(" --- " for _ in table["header"]) + "|")
        for row in table["rows"]:
            lines.append("| " + " | ".join(_cell(v) for v in row) + " |")
    return "\n".join(lines) + "\n"


_FORMATS = {"json": _fmt_json, "csv": _fmt_csv, "md": _fmt_md}


def run_report(ns: argparse.Namespace) -> tuple[str, int]:
    """Execute the parsed command; returns (artifact text, exit code)."""
    report = ns.handler(ns)
    # A failed verification battery is a domain failure, not a crash.
    code = 3 if report.get("all_passed") is False else 0
    return _FORMATS[ns.fmt](_normalize(report)), code


# ----------------------------------------------------------------- parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _finite(text: str) -> float:
    try:
        x = float(text)
    except ValueError as exc:
        raise ConfigError("bad number %r" % text) from exc
    if not math.isfinite(x):
        raise ConfigError("%r is not a finite number" % text)
    return x


def _floats(text: str) -> tuple:
    out = tuple(_finite(x) for x in text.split(",") if x.strip() != "")
    if not out:
        raise argparse.ArgumentTypeError("expected at least one number, got %r" % text)
    return out


def _ints(text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip() != "")
    except ValueError as exc:
        raise ConfigError("bad integer list %r" % text) from exc


def _charges(text: str) -> tuple:
    out = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        bits = part.split(",")
        if len(bits) != 2:
            raise ConfigError("charge %r is not re,im" % part)
        try:
            out.append(complex(float(bits[0]), float(bits[1])))
        except ValueError as exc:
            raise ConfigError("charge %r is not numeric" % part) from exc
    if not out:
        raise ConfigError("empty charge list")
    return tuple(out)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", dest="fmt", choices=("json", "csv", "md"), default="json")
    p.add_argument("--out", default=None, help="also write the report to this path")


def _add_sigma_source(p: argparse.ArgumentParser) -> None:
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--z", type=_charges, default=None, help="charges as re,im;re,im;...")
    source.add_argument("--gepner", dest="use_gepner", action="store_true",
                        help="use the constructed Gepner point")
    source.add_argument("--sample", dest="use_sample", action="store_true",
                        help="sample a random stability condition")
    source.add_argument("--sigma", dest="sigma_path", default=None,
                        help="JSON file with a stability condition")


# stab subcommand -> (handler, whether it reads a stability source)
_STAB_COMMANDS = {
    "gldim": (_cmd_stab_gldim, True),
    "sample": (_cmd_stab_sample, False),
    "gepner": (_cmd_stab_gepner, False),
    "fec": (_cmd_stab_fec, True),
    "restrict": (_cmd_stab_restrict, True),
    "mass": (_cmd_stab_mass, True),
}


def _add_stab_command(p: argparse.ArgumentParser, name: str) -> None:
    """The options of `stab <name>`."""
    handler, needs_sigma = _STAB_COMMANDS[name]
    p.set_defaults(handler=handler)
    p.add_argument("--quiver", required=True)
    if needs_sigma:
        _add_sigma_source(p)
    if name == "gepner":
        p.add_argument("--check", action="store_true")
        p.add_argument("--mu", type=_finite, default=None)
    if name == "restrict":
        p.add_argument("--subset", type=_ints, required=True)
    if name == "mass":
        p.add_argument("--t-grid", dest="t_grid", type=_floats, default=(0.0,))
        p.add_argument("--nmax", dest="n_max", type=int, default=30)
    if needs_sigma or name == "sample":  # read by `sample` and the --sample source
        p.add_argument("--seed", type=int, default=None if needs_sigma else 0,
                       help="PRNG seed (64-bit)")
    _add_common(p)


@functools.cache  # argparse keeps no state between parses
def build_parser() -> _Parser:
    parser = _Parser(prog="sdlab", description="entropy, Serre dimensions, and stability conditions")
    parser.add_argument("--version", action="version", version="sdlab %s" % __version__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser, required=True)

    p = sub.add_parser("quiver", help="inspect a quiver")
    p.set_defaults(handler=_cmd_quiver)
    p.add_argument("--quiver", required=True)
    _add_common(p)

    p = sub.add_parser("entropy", help="categorical entropy estimate")
    p.set_defaults(handler=_cmd_entropy)
    p.add_argument("--quiver", required=True)
    grid = p.add_mutually_exclusive_group()
    grid.add_argument("--t", type=_finite, default=None)
    grid.add_argument("--t-grid", dest="t_grid", type=_floats, default=None)
    grid.add_argument("--series", action="store_true", help="emit the n,m,dim table")
    p.add_argument("--nmax", dest="n_max", type=int, default=30)
    p.add_argument("--budget", type=int, default=ent.DEFAULT_BUDGET)
    _add_common(p)

    p = sub.add_parser("sdim", help="Serre dimension estimate")
    p.set_defaults(handler=_cmd_sdim)
    p.add_argument("--quiver", required=True)
    p.add_argument("--nmax", dest="n_max", type=int, default=30)
    p.add_argument("--budget", type=int, default=ent.DEFAULT_BUDGET)
    _add_common(p)

    p = sub.add_parser("volume", help="volume at scale factors")
    p.set_defaults(handler=_cmd_volume)
    p.add_argument("--quiver", required=True)
    p.add_argument("--lam", type=_floats, required=True)
    p.add_argument("--nmax", dest="n_max", type=int, default=30)
    _add_common(p)

    stab = sub.add_parser("stab", help="stability condition operations")
    stab_sub = stab.add_subparsers(dest="stab_command", parser_class=_Parser, required=True)
    for name in _STAB_COMMANDS:
        _add_stab_command(stab_sub.add_parser(name), name)

    p = sub.add_parser("curve", help="curve global dimension bounds")
    p.set_defaults(handler=_cmd_curve)
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--beta", type=_finite, default=0.0)
    p.add_argument("--h-grid", dest="h_grid", type=_floats, required=True)
    _add_common(p)

    p = sub.add_parser("verify", help="run the cross-check battery")
    p.set_defaults(handler=_cmd_verify)
    p.add_argument("--quivers", type=lambda s: tuple(x.strip() for x in s.split(",") if x.strip()),
                   default=ver.DEFAULT_QUIVERS)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--seed", type=int, default=0, help="PRNG seed (64-bit)")
    _add_common(p)

    # argparse's messages name the metavar, where it would name the dest
    for action in (sub, stab_sub):
        action.metavar = "{%s}" % ",".join(action.choices)
    return parser


def main(argv=None) -> int:
    try:
        ns = build_parser().parse_args(argv)
        text, code = run_report(ns)
        if ns.out:
            # written before stdout, so a bad path leaves stdout empty
            try:
                with open(ns.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                raise ConfigError("cannot write --out file: %s" % exc) from exc
    except (ConfigError, ParseError) as exc:
        _emit_error(exc)
        return 2
    except SdlabError as exc:
        _emit_error(exc)
        return 3
    sys.stdout.write(text)
    return code


def _emit_error(exc: Exception) -> None:
    payload = {"error": {"type": exc.__class__.__name__, "message": str(exc)}}
    sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
