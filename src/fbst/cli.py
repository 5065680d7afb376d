"""Command-line front end: e-values, model selection, logic verification,
and network composition.

Exit codes: 0 success, 1 logic-verification failure, 2 spec error,
3 infeasible hypothesis, 4 sampler failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .composition import analyze_models, network_models
from .evalue import evalue
from .gfbst import GridModel, check_logical_properties, gfbst_decide
from .model import (
    Dataset,
    InfeasibleHypothesisError,
    SpecError,
    complement,
    model_from_spec,
)
from .modelsel import benchmark_dataset, fitted_curves, order_fits, select_order
from .optimizer import UnboundedSurpriseError, check_hypothesis, maximize_surprise
from .sampler import (
    InitializationError,
    SamplerConfig,
    SamplerStuckError,
    sample_posterior,
)
from .truth import sample_truth

EXIT_OK = 0
EXIT_LOGIC = 1
EXIT_SPEC = 2
EXIT_INFEASIBLE = 3
EXIT_SAMPLER = 4


def _manifest(command: str, args, started: float) -> dict:
    options = {k: v for k, v in vars(args).items() if k != "fn"}  # fn's str holds an address
    canonical = json.dumps(options, sort_keys=True, default=str)
    return {
        "command": command,
        "config_hash": hashlib.sha256(canonical.encode()).hexdigest()[:16],
        "seed": args.seed,
        "version": __version__,
        "elapsed_s": round(time.monotonic() - started, 3),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }


def _emit(payload: dict, out_path):
    text = json.dumps(payload, indent=2, default=float)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _sampler_config(args) -> SamplerConfig:
    return SamplerConfig(
        chains=args.chains,
        draws=args.draws,
        burnin=args.burnin,
        seed=args.seed,
    )


def _add_sampler_flags(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=None, help="master RNG seed")
    p.add_argument("--draws", type=int, default=50_000, help="retained draws per chain")
    p.add_argument("--chains", type=int, default=4)
    p.add_argument("--burnin", type=int, default=10_000)
    p.add_argument("--nmax", type=int, default=512, help="at least 2; ev echoes it as n_max")
    p.add_argument("--out", default=None, help="write JSON output here too")


def _resolve_seed(args) -> int:
    if args.seed is None:
        args.seed = int.from_bytes(os.urandom(4), "big")
        print(f"seed: {args.seed}", file=sys.stderr)
    return args.seed


def cmd_ev(args) -> tuple:
    _resolve_seed(args)
    if args.threshold is not None and not 0.0 < args.threshold < 1.0:
        raise SpecError("threshold must lie strictly inside (0, 1)")
    with open(args.spec) as fh:
        spec = json.load(fh)
    data = Dataset.from_csv(args.data) if args.data else None
    model, hyp = model_from_spec(spec, data)
    if hyp is None:
        raise SpecError("model spec carries no hypothesis")
    check_hypothesis(model, hyp)  # an inconsistent or out-of-bounds H raises before sampling
    cfg = _sampler_config(args)
    if model.draw is not None:
        del args.burnin  # exact draws read no burn-in: keep it out of config_hash
    sample = sample_posterior(model, cfg)
    report = evalue(model, hyp, sample, args.nmax)
    payload = report.to_dict()
    if args.threshold is not None:
        comp = maximize_surprise(model, complement(hyp), sample)
        payload["ev_complement"] = sample_truth(sample.log_surprise, comp.log_s_star)
        decision = gfbst_decide(report.ev, payload["ev_complement"], args.threshold)
        payload["decision"] = {0.0: "reject", 0.5: "agnostic", 1.0: "accept"}[decision.value]
    return payload, EXIT_OK


def cmd_select(args) -> tuple:
    if args.builtin is None and args.data is None:
        raise SpecError("select needs --data or --builtin sakamoto")
    if args.builtin is not None and args.builtin != "sakamoto":
        raise SpecError(f"unknown builtin dataset {args.builtin!r}")
    data = benchmark_dataset() if args.builtin else Dataset.from_csv(args.data)
    if args.criterion == "fbst":
        _resolve_seed(args)
        cfg = _sampler_config(args)
    else:
        args.seed = args.seed if args.seed is not None else 0
        cfg = None
    del args.burnin  # regression models take exact draws: keep it out of config_hash
    fits = order_fits(data, args.kmax)  # read by the table and by the plot
    report = select_order(
        data,
        args.kmax,
        criterion=args.criterion,
        threshold=args.threshold,
        sampler_cfg=cfg,
        n_max=args.nmax,
        fits=fits,
    )
    if args.csv:
        rows = report["rows"]
        header = list(rows[0].keys())
        with open(args.csv, "w") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join("" if row[k] is None else str(row[k]) for k in header) + "\n")
    if args.emit_plot:
        curves = fitted_curves(data, fits)
        names = list(curves)
        body = np.column_stack([curves[n] for n in names])
        np.savetxt(args.emit_plot, body, delimiter=",", header=",".join(names), comments="")
    return report, EXIT_OK


def cmd_verify_logic(args) -> tuple:
    _resolve_seed(args)
    if args.grid < 4:
        raise SpecError("grid must be at least 4x4")
    if args.trials < 0:
        raise SpecError("--trials must be at least 0")
    rng = np.random.default_rng(args.seed)
    grid = GridModel.random(args.grid, rng)
    report = check_logical_properties(
        grid, args.trials, c=args.threshold, seed=args.seed, rule=args.rule
    )
    return report, EXIT_OK if report["total_violations"] == 0 else EXIT_LOGIC


def cmd_compose(args) -> tuple:
    _resolve_seed(args)
    with open(args.spec) as fh:
        spec = json.load(fh)
    cfg = _sampler_config(args)
    models, rows = network_models(spec)
    if all(m.draw is not None for m in models):
        del args.burnin  # exact draws read no burn-in: keep it out of config_hash
    grid, ev = analyze_models(models, rows, cfg)
    return {
        "ev": ev,
        "components": grid.shape[1],
        "disjuncts": grid.shape[0],
        "log_s_star": [[None if np.isnan(v) else v for v in row] for row in grid],
    }, EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fbst",
        description="e-values, Bayesian significance tests, and composition",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ev = sub.add_parser("ev", help="e-value of a hypothesis in a model spec")
    p_ev.add_argument("spec", help="JSON model-spec path")
    p_ev.add_argument("--data", default=None, help="CSV dataset for regression models")
    p_ev.add_argument("--threshold", type=float, default=None, help="also decide at this level")
    _add_sampler_flags(p_ev)
    p_ev.set_defaults(fn=cmd_ev)

    p_sel = sub.add_parser("select", help="polynomial order selection study")
    p_sel.add_argument("--data", default=None, help="CSV dataset with x,y columns")
    p_sel.add_argument("--builtin", default=None, help="'sakamoto' for the embedded benchmark")
    p_sel.add_argument("--kmax", type=int, default=5)
    p_sel.add_argument("--criterion", default="sbc", help="fpe|sbc|gcv|sms|aic|fbst")
    p_sel.add_argument("--threshold", type=float, default=0.05)
    p_sel.add_argument("--csv", default=None, help="write the selection table as CSV")
    p_sel.add_argument("--emit-plot", default=None, help="write fitted-curve plot data CSV")
    _add_sampler_flags(p_sel)
    p_sel.set_defaults(fn=cmd_select)

    p_logic = sub.add_parser("verify-logic", help="logical-property verification harness")
    p_logic.add_argument("--grid", type=int, default=20)
    p_logic.add_argument("--trials", type=int, default=1000)
    p_logic.add_argument("--threshold", type=float, default=0.05)
    p_logic.add_argument("--rule", default="gfbst", help="gfbst | broken-negative-control")
    p_logic.add_argument("--seed", type=int, default=None)
    p_logic.add_argument("--out", default=None)
    p_logic.set_defaults(fn=cmd_verify_logic)

    p_comp = sub.add_parser("compose", help="parallel-serial network e-value")
    p_comp.add_argument("spec", help="JSON network-spec path")
    _add_sampler_flags(p_comp)
    p_comp.set_defaults(fn=cmd_compose)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        if getattr(args, "nmax", 2) < 2:
            raise SpecError("n_max must be at least 2")
        payload, code = args.fn(args)
        payload["manifest"] = _manifest(args.command, args, started)
        _emit(payload, args.out)
        return code
    except InfeasibleHypothesisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (SpecError, FileNotFoundError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except (SamplerStuckError, InitializationError, UnboundedSurpriseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SAMPLER


if __name__ == "__main__":
    sys.exit(main())
