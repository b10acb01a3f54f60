"""Command-line front end.

Commands: classify, count, approx, gadget, estimate, csp, types, verify.
Every run writes a single JSON document to stdout (or --out); counts that
can exceed 2^53 are emitted as decimal strings.  Exit codes: 0 success,
1 domain error, 2 usage error.
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
from .fixedgraphs import build_fixed_graph, build_hk, build_j_blocked, rebind_target
from .instances import ListedInstance, check_retraction_blocks


def _json_count(x) -> str:
    return str(x)


def _fraction_json(x: Fraction) -> dict:
    return {
        "numerator": str(x.numerator),
        "denominator": str(x.denominator),
        "decimal": f"{float(x):.12g}",
    }


def _load_instance(args) -> tuple[ListedInstance, "object"]:
    if args.lists:
        with open(args.lists, encoding="utf-8") as fh:
            inst, target = files.parse_instance(
                fh.read(), os.path.dirname(os.path.abspath(args.lists))
            )
        return inst, target
    if not args.pattern or not args.target:
        raise ValueError("give -G and -H, or an instance file via -L")
    pattern = files.load_graph(args.pattern)
    target = files.load_graph(args.target)
    return ListedInstance.full(pattern, target), target


def _emit(args, payload: dict) -> None:
    if not getattr(args, "no_meta", False):
        payload = {**payload, "meta": {"tool": "retraction-lab", "version": __version__, "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}}
    text = json.dumps(payload, indent=2, sort_keys=True)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_classify(args) -> int:
    h = files.load_graph(args.target)
    verdict = classifier.classify(h)
    _emit(args, verdict.to_json())
    return 0


def _cmd_count(args) -> int:
    mode = args.mode
    method = args.method
    if method == "blocked":
        if not args.lists:
            raise ValueError("--method blocked needs a blocked-instance file via -L")
        if mode not in ("hom", "lhom", "ret"):
            raise ValueError("--method blocked supports hom/lhom/ret modes")
        with open(args.lists, encoding="utf-8") as fh:
            blocked, target = files.parse_blocked(
                fh.read(), os.path.dirname(os.path.abspath(args.lists))
            )
        if mode == "ret":
            check_retraction_blocks(blocked)
        value = exact.count_blocked(blocked, target)
        _emit(args, {"count": _json_count(value), "mode": mode, "method": "blocked"})
        return 0
    inst, target = _load_instance(args)
    if method in (None, "bt"):
        value = exact.count(inst, target, mode)
        method = "bt"
    elif method == "ie":
        if mode == "sur":
            value = reference.count_surjective_ie(inst, target)
        elif mode == "comp":
            value = reference.count_compaction_ie(inst, target)
        else:
            raise ValueError("--method ie applies to sur/comp")
    elif method == "enum":
        value = reference.naive_count(inst, target, mode)
    else:
        raise ValueError(f"unknown method {method!r}")
    _emit(args, {"count": _json_count(value), "mode": mode, "method": method})
    return 0


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


def _cmd_approx(args) -> int:
    inst, target = _load_instance(args)
    oracle = _make_oracle(args.oracle)
    run = approx.coverage_mc(
        inst, target, args.mode, args.epsilon, args.delta, oracle, args.seed
    )
    _emit(
        args,
        {
            "mode": run.mode,
            "epsilon": run.epsilon,
            "delta": run.delta,
            "seed": run.seed,
            "t": run.t,
            "m": run.m,
            "omega": _json_count(run.omega),
            "x_total": run.x_total,
            "Y": _fraction_json(run.y),
            "sampler": run.sampler,
        },
    )
    return 0


def _cmd_gadget(args) -> int:
    if args.kind == "dirichlet":
        lams = [Fraction(x).limit_denominator(10**9) for x in args.lambdas]
        ps, r = gadgets.dirichlet_approx(lams, args.N)
        _emit(args, {"p": ps, "r": r, "N": args.N})
        return 0
    if args.kind == "fixed":
        params = {}
        if args.q is not None:
            params["q"] = args.q
        if args.k is not None:
            params["k"] = args.k
        if args.S is not None:
            params["s"] = frozenset(int(x) for x in args.S.split(",") if x)
        g = build_fixed_graph(args.name, **params)
        sys.stdout.write(files.serialize_graph(g))
        return 0
    if args.kind == "j-block":
        blocked = rebind_target(build_j_blocked(args.p, args.q, args.t), build_hk(args.k))
        sys.stdout.write(files.serialize_blocked(blocked, args.target_path))
        return 0
    if args.kind == "cut-instance":
        g = files.load_graph(args.base)
        h = files.load_graph(args.target)
        plan = gadgets.build_cut_instance(
            g, args.alpha, args.beta, args.gamma, args.budget, h,
            delta_prime=Fraction(args.delta_prime).limit_denominator(10**9),
        )
        payload = {
            "s": plan.s,
            "r": plan.r,
            "s_alpha": plan.s_alpha,
            "s_beta": plan.s_beta,
            "s_gamma": plan.s_gamma,
            "zstar": _json_count(plan.zstar),
            "blocked": files.serialize_blocked(plan.blocked, os.path.basename(args.target)),
        }
        _emit(args, payload)
        return 0
    if args.kind == "largecut-instance":
        g = files.load_graph(args.base)
        plan = gadgets.build_largecut_instance(
            g, args.K, args.k, p=args.p, q=args.q, t=args.t, s=args.s
        )
        _emit(
            args,
            {
                "p": plan.p,
                "q": plan.q,
                "t": plan.t,
                "s": plan.s,
                "expansion": plan.blocked.expansion_size(),
                "blocked": files.serialize_blocked(plan.blocked, f"H_{plan.k}.hg"),
            },
        )
        return 0
    raise ValueError(f"unknown gadget kind {args.kind!r}")


def _cmd_estimate(args) -> int:
    if args.what == "cuts":
        oracle = _make_oracle(args.oracle)
        g = files.load_graph(args.base)
        h = files.load_graph(args.target)
        plan = gadgets.build_cut_instance(
            g, args.alpha, args.beta, args.gamma, args.budget, h,
            delta_prime=Fraction(args.delta_prime).limit_denominator(10**9),
        )
        est = gadgets.estimate_multiterminal_cuts(plan, oracle.count, args.epsilon)
        brute = None
        if len(g.non_loop_edges()) <= 20:
            brute = gadgets.count_multiterminal_cuts_bruteforce(
                g, args.alpha, args.beta, args.gamma, args.budget
            )
        _emit(args, {"estimate": est, "bruteforce": brute, "zstar": _json_count(plan.zstar)})
        return 0
    if args.what == "largecut":
        g = files.load_graph(args.base)
        plan = gadgets.build_largecut_instance(
            g, args.K, args.k, p=args.p, q=args.q, t=args.t, s=args.s
        )
        hist = gadgets.full_hom_histogram(plan)
        _emit(
            args,
            {
                "full_hom_histogram": {str(k): _json_count(v) for k, v in sorted(hist.items())},
                "cuts": {
                    str(ell): gadgets.count_large_cuts_bruteforce(g, ell)
                    for ell in range(len(g.non_loop_edges()) + 1)
                },
            },
        )
        return 0
    raise ValueError(f"unknown estimate target {args.what!r}")


def _cmd_csp(args) -> int:
    if args.action == "count":
        inst = files.load_csp(args.csp)
        _emit(args, {"count": _json_count(csp.count_csp(inst))})
        return 0
    if args.action == "build-graph":
        iv = files.load_csp(args.iv)
        ie = files.load_csp(args.ie)
        g = csp.build_graph_from_csp(iv, ie)
        sys.stdout.write(files.serialize_graph(g))
        return 0
    if args.action == "pbrp":
        s = frozenset(int(x) for x in args.S.split(",") if x)
        iv, ie = csp.pbrp_csp(args.Q, s)
        _emit(args, {"iv": files.serialize_csp(iv), "ie": files.serialize_csp(ie)})
        return 0
    if args.action == "translate":
        with open(args.instance, encoding="utf-8") as fh:
            inst, _target = files.parse_instance(
                fh.read(), os.path.dirname(os.path.abspath(args.instance))
            )
        iv = files.load_csp(args.iv)
        ie = files.load_csp(args.ie)
        out = csp.translate_ret_to_csp(inst, iv, ie)
        sys.stdout.write(files.serialize_csp(out))
        return 0
    raise ValueError(f"unknown csp action {args.action!r}")


def _cmd_types(args) -> int:
    if args.action == "table":
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
        _emit(args, {"k": args.k, "rows": rows})
        return 0
    if args.action == "verify":
        grid = [tuple(int(x) for x in g.split(",")) for g in args.grid.split(";")]
        results = []
        for p, q, t in grid:
            buckets = homtypes.brute_count_by_type(p, q, t, args.k)
            ok = all(
                homtypes.n_exact(typ, p, q, t) == cnt for typ, cnt in buckets.items()
            )
            results.append({"p": p, "q": q, "t": t, "types": len(buckets), "match": ok})
        _emit(args, {"k": args.k, "grid": results})
        return 0
    if args.action == "dominance":
        p, q = (args.p, args.q) if args.p and args.q else gadgets.choose_pq(args.k)
        rep = homtypes.dominance_report(args.k, p, q)
        _emit(
            args,
            {
                "k": args.k,
                "p": p,
                "q": q,
                "window_ok": rep.window_ok,
                "gamma": _fraction_json(rep.gamma),
                "per_step": {label: _fraction_json(r) for label, r in rep.per_step},
            },
        )
        return 0
    raise ValueError(f"unknown types action {args.action!r}")


class _Suites:
    """`verify`'s suite names and "all", read on first use, so that the
    other commands do not import `verify`."""

    def __iter__(self):
        from . import verify

        return iter(sorted(verify.SUITES) + ["all"])

    def __contains__(self, name) -> bool:
        return name in list(self)


def _cmd_verify(args) -> int:
    from . import verify

    results = verify.run_suite(args.suite, quick=args.quick)
    for res in results:
        print(res.line())
    failures = [r for r in results if not r.passed]
    payload = {
        "suite": args.suite,
        "quick": args.quick,
        "checks": [
            {"suite": r.suite, "name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ],
        "passed": not failures,
    }
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0 if not failures else 1


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
            "--out", default=argparse.SUPPRESS, help="write the JSON report here instead of stdout"
        )


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="retraction-lab")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="trichotomy verdict for a target graph")
    p.add_argument("-H", "--target", required=True)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("count", help="exact counting")
    p.add_argument("--mode", choices=sorted(exact.COUNT_MODES), required=True)
    p.add_argument("-G", "--pattern")
    p.add_argument("-H", "--target")
    p.add_argument("-L", "--lists", help="instance file (overrides -G/-H)")
    p.add_argument("--method", choices=["bt", "ie", "enum", "blocked"])
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser("approx", help="coverage Monte Carlo estimator")
    p.add_argument("--mode", choices=["sur", "comp"], required=True)
    p.add_argument("-G", "--pattern")
    p.add_argument("-H", "--target")
    p.add_argument("-L", "--lists")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--oracle", default="exact", help=ORACLE_HELP)
    p.set_defaults(fn=_cmd_approx)

    p = sub.add_parser("gadget", help="gadget builders")
    gsub = p.add_subparsers(dest="kind", required=True)
    g = gsub.add_parser("dirichlet")
    g.add_argument("lambdas", nargs="+", type=float)
    g.add_argument("-N", type=int, required=True)
    g = gsub.add_parser("fixed")
    g.add_argument("name")
    g.add_argument("-q", type=int)
    g.add_argument("-k", type=int)
    g.add_argument("-S", help="bristle positions, comma separated")
    g = gsub.add_parser("j-block")
    g.add_argument("-p", type=int, required=True)
    g.add_argument("-q", type=int, required=True)
    g.add_argument("-t", type=int, required=True)
    g.add_argument("-k", type=int, default=1)
    g.add_argument("--target-path", default="H_1.hg")
    g = gsub.add_parser("cut-instance")
    g.add_argument("-G", "--base", required=True)
    g.add_argument("-H", "--target", required=True)
    g.add_argument("--alpha", required=True)
    g.add_argument("--beta", required=True)
    g.add_argument("--gamma", required=True)
    g.add_argument("-B", "--budget", type=int, required=True)
    g.add_argument("--delta-prime", type=float, default=0.05)
    g = gsub.add_parser("largecut-instance")
    g.add_argument("-G", "--base", required=True)
    g.add_argument("-K", type=int, required=True)
    g.add_argument("-k", type=int, default=1)
    g.add_argument("-p", type=int)
    g.add_argument("-q", type=int)
    g.add_argument("-t", type=int)
    g.add_argument("-s", type=int)
    p.set_defaults(fn=_cmd_gadget)

    p = sub.add_parser("estimate", help="run the reduction estimators")
    esub = p.add_subparsers(dest="what", required=True)
    e = esub.add_parser("cuts")
    e.add_argument("-G", "--base", required=True)
    e.add_argument("-H", "--target", required=True)
    e.add_argument("--alpha", required=True)
    e.add_argument("--beta", required=True)
    e.add_argument("--gamma", required=True)
    e.add_argument("-B", "--budget", type=int, required=True)
    e.add_argument("--delta-prime", type=float, default=0.02)
    e.add_argument("--epsilon", type=float, default=0.2)
    e.add_argument("--oracle", default="exact", help=ORACLE_HELP)
    e = esub.add_parser("largecut")
    e.add_argument("-G", "--base", required=True)
    e.add_argument("-K", type=int, required=True)
    e.add_argument("-k", type=int, default=1)
    e.add_argument("-p", type=int)
    e.add_argument("-q", type=int)
    e.add_argument("-t", type=int)
    e.add_argument("-s", type=int)
    p.set_defaults(fn=_cmd_estimate)

    p = sub.add_parser("csp", help="CSP machinery")
    csub = p.add_subparsers(dest="action", required=True)
    c = csub.add_parser("count")
    c.add_argument("csp")
    c = csub.add_parser("build-graph")
    c.add_argument("--iv", required=True)
    c.add_argument("--ie", required=True)
    c = csub.add_parser("pbrp")
    c.add_argument("-Q", type=int, required=True)
    c.add_argument("-S", required=True)
    c = csub.add_parser("translate")
    c.add_argument("--instance", required=True)
    c.add_argument("--iv", required=True)
    c.add_argument("--ie", required=True)
    p.set_defaults(fn=_cmd_csp)

    p = sub.add_parser("types", help="type analysis over the H_k targets")
    tsub = p.add_subparsers(dest="action", required=True)
    t = tsub.add_parser("table")
    t.add_argument("-k", type=int, default=1)
    t = tsub.add_parser("verify")
    t.add_argument("-k", type=int, default=1)
    t.add_argument("--grid", default="1,1,1;2,2,1;1,2,1;2,1,1")
    t = tsub.add_parser("dominance")
    t.add_argument("-k", type=int, default=1)
    t.add_argument("-p", type=int)
    t.add_argument("-q", type=int)
    p.set_defaults(fn=_cmd_types)

    p = sub.add_parser("verify", help="run named property suites")
    p.add_argument("suite", choices=_Suites(), metavar="suite")
    p.add_argument("--quick", action="store_true")
    p.set_defaults(fn=_cmd_verify)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, files.ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
