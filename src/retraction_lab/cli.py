"""Command-line front end.

Commands: classify, count, approx, gadget, estimate, csp, types, verify.
The parser binds each leaf command to one handler, which returns its report;
one writer sends the report to stdout, or to the file given by --out, which
every command takes.  A report is a JSON document, with a "meta" block unless
--no-meta; counts that can exceed 2^53 are decimal strings, printed in full
at any length.  Four commands print a text format instead: `gadget fixed`
and `csp build-graph` a graph, `gadget j-block` a blocked instance,
`csp translate` a CSP.  `verify` runs each check of a suite once, at its
acceptance size, prints one line per check and writes its JSON report,
without meta, only to --out.  An --out path that cannot be written is
refused before the command runs, and a command that fails leaves it as it
was.
Exit codes: 0 success, 1 domain error or a failed check, 2 usage error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from . import __version__, approx, csp, exact, files, gadgets, homtypes, reference
from . import classifier
from .fixedgraphs import build_fixed_graph, build_j_blocked
from .instances import ListedInstance, check_retraction_blocks


def _fraction_json(x: Fraction) -> dict:
    return {
        "numerator": str(x.numerator),
        "denominator": str(x.denominator),
        "decimal": _decimal(x),
    }


def _decimal(x: Fraction) -> str:
    """x as float's `.12g` writes it.  Past the float range (|x| >= 2^1024)
    the same 12 significant digits, rounded half to even, come from the
    integers."""
    try:
        return f"{float(x):.12g}"
    except OverflowError:
        pass
    a = abs(x)
    e = len(str(a.numerator // a.denominator)) - 1
    digits = round(a / 10 ** (e - 11))
    if digits == 10**12:
        digits, e = digits // 10, e + 1
    lead, rest = divmod(digits, 10**11)
    mantissa = f"{lead}.{rest:011d}".rstrip("0").rstrip(".")
    return f"{'-' if x < 0 else ''}{mantissa}e+{e}"


def _write(report: dict | str, out: str | None = None, meta: bool = False) -> None:
    """The one writer: a report goes to the file `out`, or else to stdout.
    A dict is written as indented JSON with sorted keys, plus a "meta" block
    when `meta` is true; a str is written as it is."""
    if isinstance(report, dict):
        if meta:
            stamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
            report = {**report, "meta": {"tool": "retraction-lab", "version": __version__, "time": stamp}}
        report = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(report)
    else:
        sys.stdout.write(report)


def _load_instance(args) -> tuple[ListedInstance, "object"]:
    if args.lists:
        return files.load_instance(args.lists)
    if not args.pattern or not args.target:
        raise ValueError("give -G and -H, or an instance file via -L")
    pattern = files.load_graph(args.pattern)
    target = files.load_graph(args.target)
    return ListedInstance.full(pattern, target), target


def _cmd_classify(args) -> dict:
    return classifier.classify(files.load_graph(args.target)).to_json()


def _cmd_count(args) -> dict:
    mode, method = args.mode, args.method
    if method == "blocked":
        if not args.lists:
            raise ValueError("--method blocked needs a blocked-instance file via -L")
        if mode not in ("hom", "lhom", "ret"):
            raise ValueError("--method blocked supports hom/lhom/ret modes")
        blocked, target = files.load_blocked(args.lists)
        if mode == "ret":
            check_retraction_blocks(blocked)
        value = exact.count_blocked(blocked, target)
    else:
        inst, target = _load_instance(args)
        if method == "bt":
            value = exact.count(inst, target, mode)
        elif method == "enum":
            value = reference.naive_count(inst, target, mode)
        elif mode == "sur":
            value = reference.count_surjective_ie(inst, target)
        elif mode == "comp":
            value = reference.count_compaction_ie(inst, target)
        else:
            raise ValueError("--method ie applies to sur/comp")
    return {"count": str(value), "mode": mode, "method": method}


ORACLE_HELP = "exact, or noisy:<eps0>,<delta0>[,<seed>] (seed 0 by default)"


def _make_oracle(spec: str):
    """The oracle of an --oracle spec, for both `approx` and `estimate cuts`."""
    if spec == "exact":
        return approx.ExactOracle()
    parts = spec.removeprefix("noisy:").split(",") if spec.startswith("noisy:") else []
    if len(parts) not in (2, 3):
        raise ValueError(f"unknown oracle {spec!r}; use {ORACLE_HELP}")
    seed = int(parts[2]) if len(parts) == 3 else 0
    return approx.NoisyOracle(float(parts[0]), float(parts[1]), seed)


def _cmd_approx(args) -> dict:
    inst, target = _load_instance(args)
    oracle = _make_oracle(args.oracle)
    run = approx.coverage_mc(
        inst, target, args.mode, args.epsilon, args.delta, oracle, args.seed
    )
    return {
        "mode": run.mode,
        "epsilon": run.epsilon,
        "delta": run.delta,
        "seed": run.seed,
        "t": run.t,
        "m": run.m,
        "omega": str(run.omega),
        "x_total": run.x_total,
        "Y": _fraction_json(run.y),
        "sampler": run.sampler,
    }


def _cut_plan(args) -> gadgets.CutReductionPlan:
    return gadgets.build_cut_instance(
        files.load_graph(args.base), args.alpha, args.beta, args.gamma, args.budget,
        files.load_graph(args.target),
        delta_prime=Fraction(args.delta_prime).limit_denominator(10**9),
    )


def _largecut_plan(args) -> gadgets.LargeCutPlan:
    return gadgets.build_largecut_instance(
        files.load_graph(args.base), args.K, args.k, p=args.p, q=args.q, t=args.t, s=args.s
    )


def _cmd_gadget_dirichlet(args) -> dict:
    lams = [Fraction(x).limit_denominator(10**9) for x in args.lambdas]
    ps, r = gadgets.dirichlet_approx(lams, args.N)
    return {"p": ps, "r": r, "N": args.N}


def _cmd_gadget_fixed(args) -> str:
    params = {}
    if args.q is not None:
        params["q"] = args.q
    if args.k is not None:
        params["k"] = args.k
    if args.S is not None:
        params["s"] = frozenset(int(x) for x in args.S.split(",") if x)
    return files.serialize_graph(build_fixed_graph(args.name, **params))


def _cmd_gadget_j_block(args) -> str:
    blocked = build_j_blocked(args.p, args.q, args.t, args.k)
    return files.serialize_blocked(blocked, args.target_path)


def _cmd_gadget_cut_instance(args) -> dict:
    plan = _cut_plan(args)
    return {
        "s": plan.s,
        "r": plan.r,
        "s_alpha": plan.s_alpha,
        "s_beta": plan.s_beta,
        "s_gamma": plan.s_gamma,
        "zstar": str(plan.zstar),
        "blocked": files.serialize_blocked(plan.blocked, os.path.basename(args.target)),
    }


def _cmd_gadget_largecut_instance(args) -> dict:
    plan = _largecut_plan(args)
    return {
        "p": plan.p,
        "q": plan.q,
        "t": plan.t,
        "s": plan.s,
        "expansion": plan.blocked.expansion_size(),
        "blocked": files.serialize_blocked(plan.blocked, f"H_{plan.k}.hg"),
    }


def _cmd_estimate_cuts(args) -> dict:
    oracle = _make_oracle(args.oracle)
    plan = _cut_plan(args)
    est = gadgets.estimate_multiterminal_cuts(plan, oracle.count, args.epsilon)
    brute = None
    if len(plan.base.non_loop_edges()) <= gadgets.BRUTE_CUT_EDGES:
        brute = gadgets.count_multiterminal_cuts_bruteforce(
            plan.base, args.alpha, args.beta, args.gamma, args.budget
        )
    return {"estimate": est, "bruteforce": brute, "zstar": str(plan.zstar)}


def _cmd_estimate_largecut(args) -> dict:
    plan = _largecut_plan(args)
    hist = gadgets.full_hom_histogram(plan)
    return {
        "full_hom_histogram": {str(k): str(v) for k, v in sorted(hist.items())},
        "cuts": {
            str(ell): gadgets.count_large_cuts_bruteforce(plan.base, ell)
            for ell in range(len(plan.base.non_loop_edges()) + 1)
        },
    }


def _cmd_csp_count(args) -> dict:
    return {"count": str(csp.count_csp(files.load_csp(args.csp)))}


def _cmd_csp_build_graph(args) -> str:
    return files.serialize_graph(csp.build_graph_from_csp(files.load_csp(args.iv), files.load_csp(args.ie)))


def _cmd_csp_pbrp(args) -> dict:
    iv, ie = csp.pbrp_csp(args.Q, frozenset(int(x) for x in args.S.split(",") if x))
    return {"iv": files.serialize_csp(iv), "ie": files.serialize_csp(ie)}


def _cmd_csp_translate(args) -> str:
    inst, _target = files.load_instance(args.instance)
    out = csp.translate_ret_to_csp(inst, files.load_csp(args.iv), files.load_csp(args.ie))
    return files.serialize_csp(out)


def _cmd_types_table(args) -> dict:
    rows = []
    for label, t in homtypes.enumerate_maximal_types(args.k):
        a, b, c, cp, bp, ap = (sorted(x) for x in t.projections())
        rows.append(
            {
                "label": label,
                "A": a, "B": b, "C": c, "C'": cp, "B'": bp, "A'": ap,
                "sizes": list(t.sizes()),
            }
        )
    return {"k": args.k, "rows": rows}


def _parse_grid(text: str) -> list[tuple[int, int, int]]:
    """The (p, q, t) triples of a --grid value "p,q,t;p,q,t;..."."""
    try:
        grid = [tuple(int(x) for x in g.split(",")) for g in text.split(";")]
    except ValueError:
        grid = []
    if not grid or any(len(g) != 3 for g in grid):
        raise ValueError(f"--grid {text!r}: give integer triples as p,q,t;p,q,t;...")
    return grid


def _cmd_types_verify(args) -> dict:
    grid = _parse_grid(args.grid)
    results = []
    for p, q, t in grid:
        buckets = homtypes.brute_count_by_type(p, q, t, args.k)
        ok = all(
            homtypes.n_exact(typ, p, q, t) == cnt for typ, cnt in buckets.items()
        )
        results.append({"p": p, "q": q, "t": t, "types": len(buckets), "match": ok})
    return {"k": args.k, "grid": results}


def _cmd_types_dominance(args) -> dict:
    p, q = gadgets.largecut_pq(args.k, args.p, args.q)
    if min(p, q) < 1:
        raise ValueError("p and q must be positive")
    rep = homtypes.dominance_report(args.k, p, q)
    return {
        "k": args.k,
        "p": p,
        "q": q,
        "window_ok": rep.window_ok,
        "gamma": _fraction_json(rep.gamma),
        "per_step": {label: _fraction_json(r) for label, r in rep.per_step},
    }


class _Suites:
    """`verify`'s suite names and "all", read on first use, so that the
    other commands do not import `verify`."""

    def __iter__(self):
        from . import verify

        return iter(sorted(verify.SUITES) + ["all"])

    def __contains__(self, name) -> bool:
        return name in list(self)


def _cmd_verify(args) -> int:
    """Writes its own two outputs, so returns its exit status, not a report."""
    from . import verify

    results = verify.run_suite(args.suite)
    _write("".join(f"{res.line()}\n" for res in results))
    passed = all(r.passed for r in results)
    if getattr(args, "out", None):
        checks = [
            {"suite": r.suite, "name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ]
        _write({"suite": args.suite, "checks": checks, "passed": passed}, args.out)
    return 0 if passed else 1


class _Parser(argparse.ArgumentParser):
    """The parser of the command line and of each (sub)command: each takes
    the output options, so they go before or after the command.  They
    default to absent, so that a subcommand keeps what was given before it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.add_argument(
            "--no-meta", action="store_true", default=argparse.SUPPRESS,
            help="omit timestamp metadata (byte-stable output)",
        )
        self.add_argument(
            "--out", default=argparse.SUPPRESS, help="write the report here instead of stdout"
        )


def build_parser() -> argparse.ArgumentParser:
    # the option sets that several commands share, each declared once
    graphs = argparse.ArgumentParser(add_help=False)
    graphs.add_argument("-G", "--pattern")
    graphs.add_argument("-H", "--target")
    graphs.add_argument("-L", "--lists", help="instance file (overrides -G/-H)")
    cut = argparse.ArgumentParser(add_help=False)
    cut.add_argument("-G", "--base", required=True)
    cut.add_argument("-H", "--target", required=True)
    cut.add_argument("--alpha", required=True)
    cut.add_argument("--beta", required=True)
    cut.add_argument("--gamma", required=True)
    cut.add_argument("-B", "--budget", type=int, required=True)
    large = argparse.ArgumentParser(add_help=False)
    large.add_argument("-G", "--base", required=True)
    large.add_argument("-K", type=int, required=True)
    large.add_argument("-k", type=int, default=1)
    for name in "pqts":
        large.add_argument(f"-{name}", type=int)

    def leaf(group, name, fn, *parents, **kwargs) -> argparse.ArgumentParser:
        p = group.add_parser(name, parents=parents, **kwargs)
        p.set_defaults(fn=fn)
        return p

    ap = _Parser(prog="retraction-lab")
    sub = ap.add_subparsers(dest="command", required=True)

    p = leaf(sub, "classify", _cmd_classify, help="trichotomy verdict for a target graph")
    p.add_argument("-H", "--target", required=True)

    p = leaf(sub, "count", _cmd_count, graphs, help="exact counting")
    p.add_argument("--mode", choices=sorted(exact.COUNT_MODES), required=True)
    p.add_argument("--method", choices=["bt", "ie", "enum", "blocked"], default="bt")

    p = leaf(sub, "approx", _cmd_approx, graphs, help="coverage Monte Carlo estimator")
    p.add_argument("--mode", choices=["sur", "comp"], required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--oracle", default="exact", help=ORACLE_HELP)

    gsub = sub.add_parser("gadget", help="gadget builders").add_subparsers(dest="kind", required=True)
    g = leaf(gsub, "dirichlet", _cmd_gadget_dirichlet)
    g.add_argument("lambdas", nargs="+", type=float)
    g.add_argument("-N", type=int, required=True)
    g = leaf(gsub, "fixed", _cmd_gadget_fixed)
    g.add_argument("name")
    g.add_argument("-q", type=int)
    g.add_argument("-k", type=int)
    g.add_argument("-S", help="bristle positions, comma separated")
    g = leaf(gsub, "j-block", _cmd_gadget_j_block)
    g.add_argument("-p", type=int, required=True)
    g.add_argument("-q", type=int, required=True)
    g.add_argument("-t", type=int, required=True)
    g.add_argument("-k", type=int, default=1)
    g.add_argument("--target-path", default="H_1.hg")
    g = leaf(gsub, "cut-instance", _cmd_gadget_cut_instance, cut)
    g.add_argument("--delta-prime", type=float, default=0.05)
    leaf(gsub, "largecut-instance", _cmd_gadget_largecut_instance, large)

    esub = sub.add_parser("estimate", help="run the reduction estimators").add_subparsers(
        dest="what", required=True
    )
    e = leaf(esub, "cuts", _cmd_estimate_cuts, cut)
    e.add_argument("--delta-prime", type=float, default=0.02)
    e.add_argument("--epsilon", type=float, default=0.2)
    e.add_argument("--oracle", default="exact", help=ORACLE_HELP)
    leaf(esub, "largecut", _cmd_estimate_largecut, large)

    csub = sub.add_parser("csp", help="CSP machinery").add_subparsers(dest="action", required=True)
    c = leaf(csub, "count", _cmd_csp_count)
    c.add_argument("csp")
    c = leaf(csub, "build-graph", _cmd_csp_build_graph)
    c.add_argument("--iv", required=True)
    c.add_argument("--ie", required=True)
    c = leaf(csub, "pbrp", _cmd_csp_pbrp)
    c.add_argument("-Q", type=int, required=True)
    c.add_argument("-S", required=True)
    c = leaf(csub, "translate", _cmd_csp_translate)
    c.add_argument("--instance", required=True)
    c.add_argument("--iv", required=True)
    c.add_argument("--ie", required=True)

    tsub = sub.add_parser("types", help="type analysis over the H_k targets").add_subparsers(
        dest="action", required=True
    )
    t = leaf(tsub, "table", _cmd_types_table)
    t.add_argument("-k", type=int, default=1)
    t = leaf(tsub, "verify", _cmd_types_verify)
    t.add_argument("-k", type=int, default=1)
    t.add_argument("--grid", default="1,1,1;2,2,1;1,2,1;2,1,1")
    t = leaf(tsub, "dominance", _cmd_types_dominance)
    t.add_argument("-k", type=int, default=1)
    t.add_argument("-p", type=int)
    t.add_argument("-q", type=int)

    p = leaf(sub, "verify", _cmd_verify, help="run named property suites")
    p.add_argument("suite", choices=_Suites(), metavar="suite")

    return ap


def _check_writable(out: str) -> None:
    """Refuse an --out path that cannot be written, before any work is done
    and without touching the file."""
    if os.path.isdir(out) or not os.access(
        out if os.path.exists(out) else os.path.dirname(os.path.abspath(out)), os.W_OK
    ):
        raise ValueError(f"cannot write --out {out!r}")


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    out = getattr(args, "out", None)
    # reports print counts in full: lift Python's cap on int-to-str digits
    # (4300 by default; no cap and no setter before 3.10.7) while they are made
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    try:
        if out:
            _check_writable(out)
        if limit:
            sys.set_int_max_str_digits(0)
        report = args.fn(args)
        if isinstance(report, int):  # verify's exit status; it wrote its outputs
            return report
        _write(report, out, meta=not getattr(args, "no_meta", False))
    except (ValueError, OSError, files.ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return 0


if __name__ == "__main__":
    sys.exit(main())
