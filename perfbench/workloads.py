"""The four seeded workloads: set-up, the timed op, its traced replay, checks.

An op, `replay(state, tr)`, calls fbst's public functions one layer at a
time inside the tracer's spans and the op's stages.  Each op of a run
repeats the same calls on the same inputs, so the ops do equal work and
every op must return the same output.  Untraced runs pass a StageClock,
traced runs a Tracer: the calls are the same.

Every check compares with a computation made apart from the program
(oracles.py) or with numbers printed in the paper, never with a stored copy
of the program's output.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
from importlib import import_module

import numpy as np
from scipy import special

import oracles
from fbst import (
    CompositeStructure,
    Hypothesis,
    InfeasibleHypothesisError,
    OptimizerConfig,
    SamplerConfig,
    SurpriseSample,
    chi2_cdf,
    chi2_quantile,
    complement,
    coordinate_zero_hypothesis,
    effective_sample_size,
    estimate_truth_ladder,
    evalue,
    gfbst_decide,
    hypothesis_from_spec,
    make_gaussian_mean_model,
    make_polynomial_regression_model,
    maximize_surprise,
    model_from_spec,
    point_hypothesis,
    sample_posterior,
    select_order,
    selection_table,
    standardize,
)
from fbst.composition import convolve_all, disjunctive_evalue
from fbst.gfbst import check_logical_properties
from fbst.modelsel import benchmark_dataset

# `fbst.evalue` names the function once the package is imported
EVALUE_MODULE = import_module("fbst.evalue")
COMPOSITION_MODULE = import_module("fbst.composition")

N_MAX = 512
LEVEL = 0.05
ORACLE_DRAWS = 200_000


# ---------------------------------------------------------------------------
# Calls into each layer, inside its span
# ---------------------------------------------------------------------------


def _sample(model, cfg, tr):
    with tr.span("sampler.sample"):
        sample = sample_posterior(model, cfg)
    tr.count("sampler.steps", cfg.burnin + cfg.draws * cfg.thin)
    tr.count("sampler.draws", cfg.chains * cfg.draws)
    return sample


def _ladder(sample, tr):
    with tr.span("truth.ladder"):
        return estimate_truth_ladder(sample, N_MAX)


def _optimize(model, H, sample, cfg, tr):
    with tr.span("optimizer.optimize"):
        opt = maximize_surprise(model, H, sample, cfg)
    tr.count("optimizer.restarts", opt.restarts)
    tr.count(f"optimizer.{opt.method}")
    return opt


def _report(model, H, sample, ladder, opt, tr):
    with tr.span("evalue.report"):
        return evalue(model, H, sample, N_MAX, ladder=ladder, optimum=opt)


@contextlib.contextmanager
def instrument(tr):
    """Spans for the ESS and standardization stages that run inside
    `evalue`, and a count of the atom pairs each Mellin convolution forms.
    They wrap the module-level names those functions are called through,
    so nothing runs twice; the originals come back on exit."""
    ev_mod, comp_mod = EVALUE_MODULE, COMPOSITION_MODULE
    ess, std, mellin = ev_mod.effective_sample_size, ev_mod.standardized_evalue, comp_mod.mellin_convolve

    def traced_ess(sample):
        with tr.span("evalue.ess"):
            return ess(sample)

    def traced_std(report):
        with tr.span("evalue.standardize"):
            return std(report)

    def counted_mellin(w1, w2, *args, **kwargs):
        # the ladders here never exceed the pair budget's per-side cap
        tr.count("composition.pairs", w1.size * w2.size)
        return mellin(w1, w2, *args, **kwargs)

    ev_mod.effective_sample_size, ev_mod.standardized_evalue = traced_ess, traced_std
    comp_mod.mellin_convolve = counted_mellin
    try:
        yield
    finally:
        ev_mod.effective_sample_size, ev_mod.standardized_evalue = ess, std
        comp_mod.mellin_convolve = mellin


def _seeds(rng, n):
    return [int(s) for s in rng.integers(0, 2**31, size=n)]


def _within(failures, label, got, want, tol):
    if not abs(got - want) <= tol:
        failures.append(f"{label}: got {got!r}, want {want!r} within {tol:.3g}")


# ---------------------------------------------------------------------------
# select-fbst
# ---------------------------------------------------------------------------

class SelectFbst:
    name = "select-fbst"
    K_MAX = 5
    SELECTED = 2  # the order the paper's Table 3 e-values select at 0.05

    def setup(self, seed, tr):
        rng = np.random.default_rng(seed)
        (sampler_seed,) = _seeds(rng, 1)
        return {
            "data": benchmark_dataset(),
            "cfg": SamplerConfig(chains=4, draws=1000, burnin=500, seed=sampler_seed),
            "oracle_seed": _seeds(rng, 1)[0],
        }

    def replay(self, st, tr):
        """select_order's steps, one stage per order; check() requires
        select_order itself to return the same selection and columns."""
        data, cfg = st["data"], st["cfg"]
        with tr.stage("table"), tr.span("modelsel.table"):
            rows = selection_table(data, self.K_MAX)
        reports = []
        for k in range(self.K_MAX + 1):
            with tr.stage(f"order {k}"):
                with tr.span("model.build"):
                    model = make_polynomial_regression_model(data, k)
                model = tr.model(model)
                H = coordinate_zero_hypothesis(k, k + 2)
                # select_order seeds order k's sampler with seed + 1000 k
                sample = _sample(model, dataclasses.replace(cfg, seed=cfg.seed + 1000 * k), tr)
                ladder = _ladder(sample, tr)
                opt = _optimize(model, H, sample, None, tr)
                reports.append(_report(model, H, sample, ladder, opt, tr))
        ev = np.array([r.ev for r in reports])
        below = [k for k in range(self.K_MAX, 0, -1) if ev[k] < LEVEL]
        return {
            "selected": below[0] if below else 0,
            "errors": np.array([[r.r_emp, r.r_fpe, r.r_sbc, r.r_gcv, r.r_sms] for r in rows]),
            "ev": ev,
            "sev": np.array([r.sev for r in reports]),
            "ess": [r.ess for r in reports],
        }

    def check(self, st, out):
        failures = []
        sel = select_order(st["data"], self.K_MAX, "fbst", LEVEL, st["cfg"], N_MAX)
        columns = ("r_emp", "r_fpe", "r_sbc", "r_gcv", "r_sms")
        if (sel["selected_order"] != out["selected"]
                or not np.array_equal([[r[c] for c in columns] for r in sel["rows"]], out["errors"])
                or not np.array_equal([r["ev"] for r in sel["rows"]], out["ev"])
                or not np.array_equal([r["sev"] for r in sel["rows"]], out["sev"])):
            failures.append("select_order differs from its steps called one by one")
        if out["selected"] != self.SELECTED:
            failures.append(f"selected order {out['selected']}, want {self.SELECTED}")
        x, y = st["data"].column("x"), st["data"].column("y")
        rng = np.random.default_rng(st["oracle_seed"])
        for k in range(self.K_MAX + 1):
            worst = float(np.max(np.abs(out["errors"][k] - oracles.TABLE3_ERRORS[k])))
            _within(failures, f"order {k} error columns vs Table 3", worst, 0.0, 1e-4)
            reg = oracles.Regression(x, y, k)
            beta, sigma = reg.draws(ORACLE_DRAWS, rng)
            _, _, log_s_star = reg.constrained_optimum(np.eye(k + 1)[k])
            want = oracles.evalue_from_draws(reg.log_surprise(beta, sigma), log_s_star)
            tol = (oracles.mc_tolerance(want, out["ess"][k]) + 1.0 / N_MAX
                   + oracles.mc_tolerance(want, ORACLE_DRAWS))
            _within(failures, f"order {k} ev(b{k}=0) vs exact draws", out["ev"][k], want, tol)
        return failures

    def ess(self, st, out):
        return out["ess"]


# ---------------------------------------------------------------------------
# gaussian-batch
# ---------------------------------------------------------------------------


def _slack(theta):
    return np.abs(np.asarray(theta)[..., 0]) - 0.5


class GaussianBatch:
    name = "gaussian-batch"
    BATCH = 8
    N_OBS = 200  # posterior variance 1 / N_OBS

    def setup(self, seed, tr):
        rng = np.random.default_rng(seed)
        var = 1.0 / self.N_OBS
        # the exact p-values of the true sharp hypothesis, one per stratum
        # of [0, 1]: a batch whose standardized e-values each match their
        # exact p-value is uniform up to the strata's width
        p = (rng.permutation(self.BATCH) + rng.random(self.BATCH)) / self.BATCH
        sign = rng.choice([-1.0, 1.0], size=self.BATCH)
        xbar = sign * special.ndtri(1.0 - p / 2.0) * math.sqrt(var)
        return {
            "var": var,
            "xbar": xbar,
            "cfgs": [SamplerConfig(chains=2, draws=1000, burnin=500, seed=s)
                     for s in _seeds(rng, self.BATCH)],
            "sharp": point_hypothesis([0.0]),
            "slack": Hypothesis(inequalities=(_slack,), label="|theta| <= 0.5"),
            "opt_cfg": OptimizerConfig(restarts=4, outer_iterations=4),
        }

    def replay(self, st, tr):
        sharp, slack = st["sharp"], st["slack"]
        rows = []
        for i, (xbar, cfg) in enumerate(zip(st["xbar"], st["cfgs"])):
            with tr.stage(f"sample {i}"):
                with tr.span("model.build"):
                    model = make_gaussian_mean_model(xbar, st["var"])
                model = tr.model(model)
                sample = _sample(model, cfg, tr)
                ladder = _ladder(sample, tr)
            with tr.stage(f"e-values {i}"):
                opt = _optimize(model, sharp, sample, None, tr)
                rep = _report(model, sharp, sample, ladder, opt, tr)
                comp = complement(sharp)
                opt_c = _optimize(model, comp, sample, None, tr)
                rep_c = _report(model, comp, sample, ladder, opt_c, tr)
                decision = gfbst_decide(rep.ev, rep_c.ev, LEVEL).value
                opt_s = _optimize(model, slack, sample, st["opt_cfg"], tr)
                rep_s = _report(model, slack, sample, ladder, opt_s, tr)
            rows.append((rep.ev, rep.sev, rep_c.ev, decision, rep_s.ev, rep.ess))
        ev, sev, ev_c, decision, ev_s, ess = map(np.array, zip(*rows))
        return {"ev": ev, "sev": sev, "ev_c": ev_c, "decision": decision, "ev_slack": ev_s,
                "ess": list(ess)}

    def check(self, st, out):
        failures = []
        for i, xbar in enumerate(st["xbar"]):
            want = oracles.gaussian_sharp_evalue(xbar, st["var"], 0.0)
            tol = oracles.mc_tolerance(want, out["ess"][i]) + 1.0 / N_MAX
            _within(failures, f"posterior {i} sharp ev vs erfc", out["ev"][i], want, tol)
            # sev = 1 - sigma(t, h, 1 - ev) with t = 1 and h = 0
            want_sev = 1.0 - oracles.standardize(1, 0, 1.0 - want)
            _within(failures, f"posterior {i} sev vs sigma(1, 0, erfc)", out["sev"][i], want_sev, tol)
            _within(failures, f"posterior {i} slack ev", out["ev_slack"][i], 1.0, 1.0 / N_MAX)
            ev, ev_c = out["ev"][i], out["ev_c"][i]
            rule = 0.0 if ev < LEVEL else 1.0 if ev_c < LEVEL else 0.5
            if out["decision"][i] != rule:
                failures.append(f"posterior {i}: decision {out['decision'][i]}, GFBST rule {rule}")
        return failures

    def ess(self, st, out):
        return out["ess"]


# ---------------------------------------------------------------------------
# constrained-ev
# ---------------------------------------------------------------------------


def _gaussian_spec(names, mean, var):
    a, b = names
    kernel = f"-((({a}) - ({mean[0]!r}))^2 + (({b}) - ({mean[1]!r}))^2) / (2 * {var!r})"
    return {"family": "generic", "coordinates": list(names), "log_kernel": kernel}


class ConstrainedEv:
    name = "constrained-ev"
    VAR = 0.09
    RADIUS = 1.2
    HALFPLANE = ((1.0, 1.0), 0.2)  # p + q <= 0.2
    AFFINE_ROWS = ((0, 0, 1, 0), (0, 0, 0, 1))  # b2 = b3 = 0
    # slot order: regression, circle model, half-plane model
    HYPOTHESES = {
        "affine2": (0, {"equalities": ["b2", "b3"]}),
        "affine1": (0, {"equalities": ["b3"]}),
        "circle": (1, {"equalities": ["a^2 + b^2 - 1.44"]}),
        "halfplane": (2, {"inequalities": ["p + q - 0.2"]}),
        "infeasible": (1, {"equalities": ["a - b", "a - b - 1"]}),
    }
    # disjunct rows of the network; None leaves a slot unconstrained
    NETWORK = (("affine2", "circle", "halfplane"), ("affine1", None, "halfplane"))

    def setup(self, seed, tr):
        rng = np.random.default_rng(seed)
        # the paper's dataset for every seed: with one optimizer start, the
        # work of the two-row affine maximization depends on the data alone
        data = benchmark_dataset()
        x, y = data.column("x"), data.column("y")
        means = [np.array([1.3, -0.6]) + rng.normal(0.0, 0.05, 2),
                 np.array([0.6, 0.1]) + rng.normal(0.0, 0.05, 2)]
        means = [[float(v) for v in m] for m in means]
        specs = [_gaussian_spec(("a", "b"), means[0], self.VAR),
                 _gaussian_spec(("p", "q"), means[1], self.VAR)]
        with tr.span("model.build"):
            models = [make_polynomial_regression_model(data, 3)]
        with tr.span("expressions.compile"):
            models += [model_from_spec(spec)[0] for spec in specs]
        cfgs = [SamplerConfig(chains=4, draws=2500, burnin=500, seed=s) for s in _seeds(rng, 3)]
        samples = [_sample(tr.model(m), c, tr) for m, c in zip(models, cfgs)]
        return {
            "x": x, "y": y, "means": means, "models": models, "samples": samples,
            "ladders": [_ladder(s, tr) for s in samples],
            "opt_cfg": OptimizerConfig(restarts=0, outer_iterations=8),
            "oracle_seed": _seeds(rng, 1)[0],
        }

    def replay(self, st, tr):
        models = [tr.model(m) for m in st["models"]]
        samples, cfg = st["samples"], st["opt_cfg"]
        with tr.stage("compile"), tr.span("expressions.compile"):
            hyps = {name: hypothesis_from_spec(spec, models[slot].space.names)
                    for name, (slot, spec) in self.HYPOTHESES.items()}
        out = {}
        for name, (slot, _) in self.HYPOTHESES.items():
            if name == "infeasible":
                continue
            with tr.stage(name):
                opt = _optimize(models[slot], hyps[name], samples[slot], cfg, tr)
            out[name] = np.concatenate([[opt.log_s_star], opt.theta_star])
        slot = self.HYPOTHESES["infeasible"][0]
        with tr.stage("infeasible"), tr.span("optimizer.infeasible"):
            try:
                maximize_surprise(models[slot], hyps["infeasible"], samples[slot], cfg)
                out["infeasible_raised"] = False
            except InfeasibleHypothesisError:
                out["infeasible_raised"] = True
        grid = np.array([[np.nan if h is None else out[h][0] for h in row] for row in self.NETWORK])
        with tr.stage("network"), tr.span("composition.convolve"):
            out["ev"] = disjunctive_evalue(CompositeStructure(st["ladders"], grid), N_MAX)
        return out

    def check(self, st, out):
        failures = []
        reg = oracles.Regression(st["x"], st["y"], 3)
        mean_a, mean_b = st["means"]
        (normal, offset) = self.HALFPLANE
        closed = {}
        for name, A in (("affine2", self.AFFINE_ROWS), ("affine1", self.AFFINE_ROWS[1:])):
            beta, sigma, log_s = reg.constrained_optimum(A)
            closed[name] = (log_s, np.concatenate([beta, [math.log(sigma)]]))
        theta, log_s = oracles.circle_optimum(mean_a, self.VAR, self.RADIUS)
        closed["circle"] = (log_s, theta)
        theta, log_s = oracles.halfplane_optimum(mean_b, self.VAR, normal, offset)
        closed["halfplane"] = (log_s, theta)
        for name, (log_s, theta) in closed.items():
            _within(failures, f"{name} log s*", out[name][0], log_s, 1e-6)
            _within(failures, f"{name} theta*", float(np.max(np.abs(out[name][1:] - theta))), 0.0, 1e-4)
        if not out["infeasible_raised"]:
            failures.append("the inconsistent affine pair did not raise InfeasibleHypothesisError")

        # disjunctive e-value from independent exact draws of each component
        rng = np.random.default_rng(st["oracle_seed"])
        beta, sigma = reg.draws(ORACLE_DRAWS, rng)
        log_s = [reg.log_surprise(beta, sigma)]
        log_s += [oracles.gaussian_log_surprise(oracles.gaussian_draws(m, self.VAR, ORACLE_DRAWS, rng),
                                                m, self.VAR) for m in (mean_a, mean_b)]
        tops = [reg.mode()[2], 0.0, 0.0]
        total = np.sum(log_s, axis=0)
        want = max(
            oracles.evalue_from_draws(total, sum(tops[j] if h is None else closed[h][0]
                                                 for j, h in enumerate(row)))
            for row in self.NETWORK)
        k = len(st["samples"])
        ess = min(self.ess(st, out))
        tol = (oracles.mc_tolerance(want, ess / k) + (2 * k - 1) / N_MAX
               + oracles.mc_tolerance(want, ORACLE_DRAWS))
        _within(failures, "network disjunctive ev vs exact draws", out["ev"], want, tol)
        return failures

    def ess(self, st, out):
        return [effective_sample_size(s) for s in st["samples"]]


# ---------------------------------------------------------------------------
# exact-calculus
# ---------------------------------------------------------------------------


class ExactCalculus:
    name = "exact-calculus"
    GRID = 20
    TRIALS = 1000  # per rule, run in CHUNKS calls with seeds harness_seed + j
    CHUNKS = 10
    MASKS = 40
    DIMS = (1, 2, 3, 4)  # k-fold convolution of chi-square log-surprise ladders
    IID_DRAWS = 20_000
    DKW_ALPHA = 1e-6
    DOF = range(1, 9)

    def setup(self, seed, tr):
        rng = np.random.default_rng(seed)
        masses = rng.random((self.GRID, self.GRID)) + 1e-6
        cells = self.GRID * self.GRID
        masks = [rng.permutation(cells) < int(rng.integers(1, cells)) for _ in range(self.MASKS)]
        samples = []
        for d in self.DIMS:
            z = rng.standard_normal((self.IID_DRAWS, d))
            samples.append(SurpriseSample(
                draws=z,
                log_surprise=-0.5 * np.sum(z * z, axis=1),
                acceptance_rates=np.ones(1),
                config=SamplerConfig(chains=1, draws=self.IID_DRAWS, burnin=0),
            ))
        levels = np.concatenate([[0.001, 0.5, 0.999], rng.uniform(1e-6, 1 - 1e-6, 40)])
        return {
            "levels": levels,
            # points where the program's CDF should return each level
            "cdf_points": np.array([[oracles.chi2_quantile(d, c) for c in levels] for d in self.DOF]),
            "masses": masses,
            # flat reference: the surprise of a cell is its posterior mass
            "surprise": masses / masses.sum(),
            "masks": [m.reshape(self.GRID, self.GRID) for m in masks],
            "harness_seed": _seeds(rng, 1)[0],
            "samples": samples,
        }

    def replay(self, st, tr):
        grid = tr.grid_model(st["masses"], st["surprise"])
        trials, violations = self.TRIALS // self.CHUNKS, {}
        for rule in ("gfbst", "broken-negative-control"):
            for j in range(self.CHUNKS):
                with tr.stage(f"{rule} {j}"), tr.span("gfbst.verify"):
                    report = check_logical_properties(grid, trials, LEVEL, st["harness_seed"] + j,
                                                      rule=rule)
                violations[rule] = violations.get(rule, 0) + report["total_violations"]
        with tr.stage("grid e-values"), tr.span("gfbst.verify"):
            mask_ev = np.array([grid.evalue(m) for m in st["masks"]])
        with tr.stage("convolution"):
            ladders = [_ladder(s, tr) for s in st["samples"]]
            with tr.span("composition.convolve"):
                joint = convolve_all(ladders, N_MAX)
        with tr.stage("standardization"), tr.span("evalue.standardize"):
            quantiles = np.array([[chi2_quantile(d, c) for c in st["levels"]] for d in self.DOF])
            cdfs = np.array([[chi2_cdf(d, z) for z in row]
                             for d, row in zip(self.DOF, st["cdf_points"])])
            std = np.array([[standardize(t, h, c) for c in st["levels"]]
                            for t in self.DOF for h in range(t + 1)])
            anchor = standardize(2, 1, 0.5)
        return {
            "clean": violations["gfbst"], "control": violations["broken-negative-control"],
            "mask_ev": mask_ev, "joint_log_v": joint.log_v, "joint_w": joint.w,
            "quantiles": quantiles, "cdfs": cdfs, "std": std, "anchor": anchor,
        }

    def check(self, st, out):
        failures = []
        if out["clean"] != 0:
            failures.append(f"GFBST rule: {out['clean']} logical-property violations")
        if out["control"] < 1:
            failures.append("negative control: no violation caught")
        for i, mask in enumerate(st["masks"]):
            want = oracles.grid_evalue_brute_force(st["masses"], st["surprise"], mask)
            _within(failures, f"grid mask {i} ev vs brute force", out["mask_ev"][i], want, 1e-12)
        sums = np.sum([s.log_surprise for s in st["samples"]], axis=0)
        k = len(self.DIMS)
        bound = (2 * k - 1) / N_MAX + (k + 1) * oracles.dkw(self.IID_DRAWS, self.DKW_ALPHA)
        dist = oracles.sup_distance_step_to_ecdf(out["joint_log_v"], out["joint_w"], sums)
        _within(failures, f"{k}-fold convolution sup-norm vs sums of draws", dist, 0.0, bound)
        levels = st["levels"]
        for i, d in enumerate(self.DOF):
            for j, c in enumerate(levels):
                _within(failures, f"round trip d={d} c={c}",
                        oracles.chi2_cdf(d, out["quantiles"][i, j]), c, 1e-10)
                _within(failures, f"chi2_cdf d={d} c={c}", out["cdfs"][i, j], c, 1e-10)
        row = 0
        for t in self.DOF:
            for h in range(t + 1):
                for j, c in enumerate(levels):
                    _within(failures, f"sigma({t},{h},{c})", out["std"][row, j],
                            oracles.standardize(t, h, c), 1e-10)
                row += 1
        _within(failures, "sigma(2,1,1/2)", out["anchor"], 0.7611, 1e-3)
        return failures

    def ess(self, st, out):
        return []  # no posterior samples


WORKLOADS = {w.name: w for w in (SelectFbst(), GaussianBatch(), ConstrainedEv(), ExactCalculus())}
