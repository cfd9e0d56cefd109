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
import io
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from . import __version__
from . import curves as cv
from . import entropy as ent
from . import stability as st
from . import verify as ver
from .derived import standard_generator
from .errors import ConfigError, ParseError, SdlabError
from .quivers import (
    Quiver,
    classify_dynkin,
    coxeter_matrix,
    parse_quiver,
    positive_roots,
)
from .reps import catalog_for

_PRESET_RE = re.compile(r"(A\d+|D\d+|E[678]|K\d+)\Z")


@dataclass(frozen=True)
class RunConfig:
    command: str
    quiver: str | None = None
    sigma_path: str | None = None
    z: tuple | None = None
    use_gepner: bool = False
    use_sample: bool = False
    t: float | None = None
    t_grid: tuple | None = None
    series: bool = False
    n_max: int = 30
    budget: int = ent.DEFAULT_BUDGET
    lam: tuple | None = None
    mu: float | None = None
    check: bool = False
    subset: tuple | None = None
    genus: int | None = None
    beta: float = 0.0
    big_h: float | None = None
    h_grid: tuple | None = None
    quivers: tuple = ("A2", "A3", "D4")
    samples: int = 50
    seed: int = 0
    fmt: str = "json"
    out: str | None = None
    cache_dir: str = field(default_factory=lambda: os.environ.get("SDLAB_CACHE", "./.sdlab-cache"))


def _quiver_from_cfg(cfg: RunConfig) -> Quiver:
    if cfg.quiver is None:
        raise ConfigError("this command needs --quiver")
    text = cfg.quiver.strip()
    q = parse_quiver(text)
    key = text if _PRESET_RE.fullmatch(text) else None
    catalog_for(q, cache_dir=cfg.cache_dir, cache_key=key)
    return q


def _sigma_from_cfg(cfg: RunConfig, q: Quiver) -> st.StabilityCondition:
    sources = sum([cfg.z is not None, cfg.use_gepner, cfg.use_sample, cfg.sigma_path is not None])
    if sources != 1:
        raise ConfigError(
            "choose exactly one stability source: --z, --gepner, --sample, or --sigma"
        )
    if cfg.z is not None:
        return st.make_stability(q, cfg.z)
    if cfg.use_gepner:
        return st.gepner_construct(q)
    if cfg.sigma_path is not None:
        try:
            with open(cfg.sigma_path, "r", encoding="utf-8") as fh:
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
    return st.sample_stability(q, cfg.seed)


def _records_table(sigma: st.StabilityCondition) -> dict:
    cat = catalog_for(sigma.quiver)
    rows = []
    for r in sigma.records:
        dim = cat.entries[r.ident].dim_vector
        rows.append([r.ident, " ".join(str(d) for d in dim), r.shift, r.phase,
                     r.z.real, r.z.imag])
    return {"header": ["id", "dim_vector", "shift", "phase", "z_re", "z_im"], "rows": rows}


# ---------------------------------------------------------------- commands


def _cmd_quiver(cfg: RunConfig) -> dict:
    q = _quiver_from_cfg(cfg)
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
        report["positive_root_count"] = len(positive_roots(q))
    else:
        report["dynkin"] = None
    return report


def _cmd_entropy(cfg: RunConfig) -> dict:
    q = _quiver_from_cfg(cfg)
    if cfg.series:
        series = ent.entropy_series(q, cfg.n_max, cfg.budget)
        rows = []
        for n, lev in enumerate(series.levels):
            for m in sorted(lev):
                rows.append([n, m, lev[m]])
        return {
            "kind": "entropy-series",
            "quiver": q.text(),
            "n_max": cfg.n_max,
            "table": {"header": ["n", "m", "dim"], "rows": rows},
        }
    if cfg.t is not None and cfg.t_grid is not None:
        raise ConfigError("give --t or --t-grid, not both")
    if cfg.t_grid is not None:
        prof = ent.entropy_profile(q, cfg.t_grid, cfg.n_max, cfg.budget)
        rows = [[t, ent.entropy_estimate(q, t, cfg.n_max, cfg.budget)] for t in cfg.t_grid]
        return {
            "kind": "entropy-profile",
            "quiver": q.text(),
            "n_max": cfg.n_max,
            "slope": prof.slope,
            "intercept": prof.intercept,
            "residual": prof.residual,
            "c_hat": prof.c_hat,
            "table": {"header": ["t", "h_t"], "rows": rows},
        }
    t = 0.0 if cfg.t is None else cfg.t
    return {
        "kind": "entropy",
        "quiver": q.text(),
        "t": t,
        "n_max": cfg.n_max,
        "estimate": ent.entropy_estimate(q, t, cfg.n_max, cfg.budget),
    }


def _cmd_sdim(cfg: RunConfig) -> dict:
    q = _quiver_from_cfg(cfg)
    sd = ent.sdim_estimate(q, cfg.n_max, cfg.budget)
    return {
        "kind": "serre-dimension",
        "quiver": q.text(),
        "n_max": cfg.n_max,
        "upper": sd.upper,
        "lower": sd.lower,
        "exact": sd.exact,
    }


def _cmd_volume(cfg: RunConfig) -> dict:
    q = _quiver_from_cfg(cfg)
    if not cfg.lam:
        raise ConfigError("volume needs --lam")
    rows = [[lam, ent.volume(q, lam, cfg.n_max, cfg.budget)] for lam in cfg.lam]
    return {
        "kind": "volume",
        "quiver": q.text(),
        "n_max": cfg.n_max,
        "table": {"header": ["lam", "volume"], "rows": rows},
    }


def _cmd_stab_gldim(cfg: RunConfig) -> dict:
    q = _quiver_from_cfg(cfg)
    sigma = _sigma_from_cfg(cfg, q)
    return {
        "kind": "stability-gldim",
        "quiver": q.text(),
        "sigma": sigma.to_json(),
        "gldim": st.gldim(sigma),
        "record_count": len(sigma.records),
        "table": _records_table(sigma),
    }


def _cmd_stab_sample(cfg: RunConfig) -> dict:
    q = _quiver_from_cfg(cfg)
    sigma = st.sample_stability(q, cfg.seed)
    return {
        "kind": "stability-sample",
        "quiver": q.text(),
        "seed": cfg.seed,
        "sigma": sigma.to_json(),
        "gldim": st.gldim(sigma),
        "record_count": len(sigma.records),
        "table": _records_table(sigma),
    }


def _cmd_stab_gepner(cfg: RunConfig) -> dict:
    q = _quiver_from_cfg(cfg)
    sigma = st.gepner_construct(q)
    dyn = classify_dynkin(q)
    mu = cfg.mu if cfg.mu is not None else (dyn.coxeter_number - 2) / dyn.coxeter_number
    report = {
        "kind": "gepner-point",
        "quiver": q.text(),
        "mu": mu,
        "sigma": sigma.to_json(),
        "gldim": st.gldim(sigma),
        "table": _records_table(sigma),
    }
    if cfg.check:
        rep = st.gepner_check(sigma, mu)
        report["charge_match"] = rep.charge_match
        report["slicing_match"] = rep.slicing_match
        report["verdict"] = rep.verdict
    return report


def _cmd_stab_fec(cfg: RunConfig) -> dict:
    q = _quiver_from_cfg(cfg)
    sigma = _sigma_from_cfg(cfg, q)
    coll = st.extract_exceptional_collection(sigma)
    cat = catalog_for(q)
    rows = []
    by_ident = {r.ident: r for r in sigma.records}
    for ident, shift in coll:
        r = by_ident[ident]
        dim = cat.entries[ident].dim_vector
        rows.append([ident, " ".join(str(d) for d in dim), shift,
                     r.phase + (shift - r.shift)])
    return {
        "kind": "exceptional-collection",
        "quiver": q.text(),
        "sigma": sigma.to_json(),
        "gldim": st.gldim(sigma),
        "table": {"header": ["id", "dim_vector", "shift", "phase"], "rows": rows},
    }


def _cmd_stab_restrict(cfg: RunConfig) -> dict:
    q = _quiver_from_cfg(cfg)
    sigma = _sigma_from_cfg(cfg, q)
    if not cfg.subset:
        raise ConfigError("restrict needs --subset, e.g. --subset 1,2")
    sub = st.restrict_to_subquiver(sigma, cfg.subset)
    return {
        "kind": "stability-restriction",
        "quiver": q.text(),
        "subset": list(cfg.subset),
        "subquiver": sub.quiver.text(),
        "sigma": sub.to_json(),
        "gldim": st.gldim(sub),
        "table": _records_table(sub),
    }


def _cmd_stab_mass(cfg: RunConfig) -> dict:
    q = _quiver_from_cfg(cfg)
    sigma = _sigma_from_cfg(cfg, q)
    grid = cfg.t_grid if cfg.t_grid is not None else (cfg.t if cfg.t is not None else 0.0,)
    mg = st.mass_growth(sigma, grid, cfg.n_max)
    g = standard_generator(q)
    rows = [
        [t, st.mass(sigma, t, g), rate]
        for t, rate in zip(mg.t_grid, mg.rates)
    ]
    return {
        "kind": "mass-growth",
        "quiver": q.text(),
        "sigma": sigma.to_json(),
        "n_max": cfg.n_max,
        "phase_upper": mg.phase_upper,
        "phase_lower": mg.phase_lower,
        "table": {"header": ["t", "mass_of_generator", "growth_rate"], "rows": rows},
    }


def _cmd_curve(cfg: RunConfig) -> dict:
    if cfg.genus is None:
        raise ConfigError("curve needs --genus")
    hs = cfg.h_grid if cfg.h_grid is not None else ((cfg.big_h,) if cfg.big_h else None)
    if not hs:
        raise ConfigError("curve needs --H or --h-grid")
    rows = [[h, lo, up] for h, lo, up in cv.curve_inf_scan(cfg.genus, hs, cfg.beta)]
    return {
        "kind": "curve-gldim-bounds",
        "genus": cfg.genus,
        "beta": cfg.beta,
        "table": {"header": ["H", "lower", "upper"], "rows": rows},
    }


def _cmd_verify(cfg: RunConfig) -> tuple[dict, int]:
    summary = verify_suite(cfg.quivers, cfg.seed, cfg.samples)
    rows = [[r.name, "pass" if r.passed else "FAIL", r.margin, r.detail] for r in summary.results]
    report = {
        "kind": "verification",
        "quivers": list(cfg.quivers),
        "samples": cfg.samples,
        "seed": cfg.seed,
        "all_passed": summary.all_passed,
        "worst_margin": summary.worst_margin,
        "table": {"header": ["check", "status", "margin", "detail"], "rows": rows},
    }
    return report, 0 if summary.all_passed else 3


def verify_suite(quivers, seed: int, samples: int) -> ver.VerifySummary:
    """Run the cross-check battery; thin wrapper over verify.run_all."""
    if not quivers:
        raise ConfigError("verify needs at least one quiver")
    return ver.run_all(quivers=tuple(quivers), samples=samples, seed=seed)


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
            if k == "table":
                continue
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


def run_report(cfg: RunConfig) -> tuple[str, int]:
    """Execute the configured command; returns (artifact text, exit code)."""
    dispatch = {
        "quiver": _cmd_quiver,
        "entropy": _cmd_entropy,
        "sdim": _cmd_sdim,
        "volume": _cmd_volume,
        "stab-gldim": _cmd_stab_gldim,
        "stab-sample": _cmd_stab_sample,
        "stab-gepner": _cmd_stab_gepner,
        "stab-fec": _cmd_stab_fec,
        "stab-restrict": _cmd_stab_restrict,
        "stab-mass": _cmd_stab_mass,
        "curve": _cmd_curve,
    }
    code = 0
    if cfg.command == "verify":
        report, code = _cmd_verify(cfg)
    elif cfg.command in dispatch:
        report = dispatch[cfg.command](cfg)
    else:
        raise ConfigError("unknown command %r" % cfg.command)
    report = _normalize(report)
    if cfg.fmt == "json":
        text = _fmt_json(report)
    elif cfg.fmt == "csv":
        text = _fmt_csv(report)
    elif cfg.fmt == "md":
        text = _fmt_md(report)
    else:
        raise ConfigError("unknown format %r" % cfg.fmt)
    return text, code


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
    return tuple(_finite(x) for x in text.split(",") if x.strip() != "")


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
    p.add_argument("--seed", type=int, default=0, help="PRNG seed (64-bit)")
    p.add_argument("--format", dest="fmt", choices=("json", "csv", "md"), default="json")
    p.add_argument("--out", default=None, help="also write the report to this path")


def _add_sigma_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--z", default=None, help="charges as re,im;re,im;...")
    p.add_argument("--gepner", action="store_true", help="use the constructed Gepner point")
    p.add_argument("--sample", action="store_true", help="sample a random stability condition")
    p.add_argument("--sigma", dest="sigma_path", default=None, help="JSON file with a stability condition")


def build_parser() -> _Parser:
    parser = _Parser(prog="sdlab", description="entropy, Serre dimensions, and stability conditions")
    parser.add_argument("--version", action="version", version="sdlab %s" % __version__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("quiver", help="inspect a quiver")
    p.add_argument("--quiver", required=True)
    _add_common(p)

    p = sub.add_parser("entropy", help="categorical entropy estimate")
    p.add_argument("--quiver", required=True)
    p.add_argument("--t", type=_finite, default=None)
    p.add_argument("--t-grid", dest="t_grid", type=_floats, default=None)
    p.add_argument("--series", action="store_true", help="emit the n,m,dim table")
    p.add_argument("--nmax", dest="n_max", type=int, default=30)
    p.add_argument("--budget", type=int, default=ent.DEFAULT_BUDGET)
    _add_common(p)

    p = sub.add_parser("sdim", help="Serre dimension estimate")
    p.add_argument("--quiver", required=True)
    p.add_argument("--nmax", dest="n_max", type=int, default=30)
    p.add_argument("--budget", type=int, default=ent.DEFAULT_BUDGET)
    _add_common(p)

    p = sub.add_parser("volume", help="volume at scale factors")
    p.add_argument("--quiver", required=True)
    p.add_argument("--lam", type=_floats, required=True)
    p.add_argument("--nmax", dest="n_max", type=int, default=30)
    _add_common(p)

    stab = sub.add_parser("stab", help="stability condition operations")
    stab_sub = stab.add_subparsers(dest="stab_command", parser_class=_Parser)
    for name, needs_sigma in (
        ("gldim", True),
        ("sample", False),
        ("gepner", False),
        ("fec", True),
        ("restrict", True),
        ("mass", True),
    ):
        sp = stab_sub.add_parser(name)
        sp.add_argument("--quiver", required=True)
        if needs_sigma:
            _add_sigma_source(sp)
        if name == "gepner":
            sp.add_argument("--check", action="store_true")
            sp.add_argument("--mu", type=_finite, default=None)
        if name == "restrict":
            _ = sp.add_argument("--subset", type=_ints, required=True)
        if name == "mass":
            sp.add_argument("--t", type=_finite, default=None)
            sp.add_argument("--t-grid", dest="t_grid", type=_floats, default=None)
            sp.add_argument("--nmax", dest="n_max", type=int, default=30)
        _add_common(sp)

    p = sub.add_parser("gepner", help="alias for stab gepner")
    p.add_argument("--quiver", required=True)
    p.add_argument("--check", action="store_true")
    p.add_argument("--mu", type=_finite, default=None)
    _add_common(p)

    p = sub.add_parser("curve", help="curve global dimension bounds")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--beta", type=_finite, default=0.0)
    p.add_argument("--H", dest="big_h", type=_finite, default=None)
    p.add_argument("--h-grid", dest="h_grid", type=_floats, default=None)
    _add_common(p)

    p = sub.add_parser("verify", help="run the cross-check battery")
    p.add_argument("--quivers", type=lambda s: tuple(x.strip() for x in s.split(",") if x.strip()),
                   default=("A2", "A3", "D4"))
    p.add_argument("--samples", type=int, default=50)
    _add_common(p)

    return parser


def config_from_args(ns: argparse.Namespace) -> RunConfig:
    command = ns.command
    if command is None:
        raise ConfigError("no command given; try --help")
    if command == "stab":
        stab_command = getattr(ns, "stab_command", None)
        if stab_command is None:
            raise ConfigError("stab needs a subcommand: gldim, sample, gepner, fec, restrict, mass")
        command = "stab-" + stab_command
    if command == "gepner":
        command = "stab-gepner"
    kwargs = {"command": command}
    for name in (
        "quiver", "sigma_path", "use_gepner", "use_sample", "t", "t_grid", "series",
        "n_max", "budget", "lam", "mu", "check", "subset", "genus", "beta",
        "big_h", "h_grid", "quivers", "samples", "seed", "fmt", "out",
    ):
        src = {"use_gepner": "gepner", "use_sample": "sample"}.get(name, name)
        if hasattr(ns, src):
            kwargs[name] = getattr(ns, src)
    if getattr(ns, "z", None) is not None:
        kwargs["z"] = _charges(ns.z)
    return RunConfig(**kwargs)


def main(argv=None) -> int:
    try:
        parser = build_parser()
        ns = parser.parse_args(argv)
        cfg = config_from_args(ns)
        text, code = run_report(cfg)
    except (ConfigError, ParseError) as exc:
        _emit_error(exc)
        return 2
    except SdlabError as exc:
        _emit_error(exc)
        return 3
    sys.stdout.write(text)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return code


def _emit_error(exc: Exception) -> None:
    payload = {"error": {"type": exc.__class__.__name__, "message": str(exc)}}
    sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
