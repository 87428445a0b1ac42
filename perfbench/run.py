"""Benchmark of the affsched pipeline: load_nest -> run_procedure -> comm_report -> validate.

One workload per run, as the benchmark contract asks:

    python3 perfbench/run.py --workload fixtures --seed 1 --seconds 20 --trace 0

`--trace 0` measures the end-to-end metrics with no tracing; `--trace 1`
alternates untraced and traced passes and reports the per-layer metrics and
the tracing overhead.  The last line of standard output is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`.

All three workloads, with the instances known to fail,
in one table of end-to-end metrics and one of per-layer metrics:

    python3 perfbench/run.py --report --seed 1 --seconds 10

Every pass runs on one thread in one process as a closed loop: each instance
starts when the previous one has ended.  Spans of traced runs and the CLI's
scratch files go to `.perfbench_out/` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import workloads  # noqa: E402
from spans import LAYER_UNITS, Tracer, layer_metrics, median_metrics  # noqa: E402

SETUP_REPEATS = 7
MIN_PASSES = 3
E2E_UNITS = {
    "setup_s": "s",
    "plan_s": "s",
    "verdict_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    "comm_volume": "transfers",
}


def import_affsched():
    """The `affsched` package of this checkout, never an installed copy."""
    pkg = ROOT / "src" / "affsched"
    if not (pkg / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        raise SystemExit(f"error: {pkg} or {ROOT / 'fixtures'} is missing; "
                         "run the benchmark from a checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    import affsched

    if Path(affsched.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: imported affsched from {affsched.__file__}, not {pkg}")
    return affsched


@dataclass
class Outcome:
    """One instance of one pass."""

    id: str
    plan_s: float = 0.0
    verdict_s: float = 0.0
    pipeline_s: float = 0.0
    error: str | None = None
    plan_doc: str | None = None
    passed: tuple[bool, ...] = ()
    comm_count: int = 0
    objective: str = ""

    def signature(self) -> tuple:
        """The deterministic part, which must repeat exactly on every pass."""
        return (self.id, self.error is None, self.plan_doc, self.passed,
                self.comm_count, self.objective)


def run_instance(api, inst) -> Outcome:
    out = Outcome(inst.id)
    t0 = perf_counter()
    try:
        nest = api.load_nest(inst.text)
        plan = api.run_procedure(nest, r_space=inst.r,
                                 solver_cfg=api.SolverConfig(time_limit=inst.time_limit))
        t1 = perf_counter()
        api.comm_report(plan, nest)
        t2 = perf_counter()
        reports = [api.validate(nest, plan, n) for n in inst.sizes]
        t3 = perf_counter()
    except Exception as exc:  # a timeout, a procedure error or a defect fails the instance
        out.pipeline_s = out.plan_s = perf_counter() - t0
        out.error = f"{type(exc).__name__}: {exc}"
        return out
    out.plan_s, out.verdict_s, out.pipeline_s = t1 - t0, t3 - t2, t3 - t0
    out.plan_doc = json.dumps(api.plan_to_doc(plan), sort_keys=True)
    out.passed = tuple(r.passed for r in reports)
    out.comm_count = sum(r.comm_count for r in reports)
    out.objective = str(sum((d.objective for d in plan.diagnostics), Fraction(0)))
    return out


def run_pass(api, insts, tracer=None) -> list[Outcome]:
    outcomes = []
    for inst in insts:
        if tracer is not None:
            tracer.instance = inst.id
        outcomes.append(run_instance(api, inst))
    return outcomes


def pass_totals(outcomes) -> dict:
    return {
        "plan_s": sum(o.plan_s for o in outcomes),
        "verdict_s": sum(o.verdict_s for o in outcomes),
        "pipeline_s": sum(o.pipeline_s for o in outcomes),
        "comm_volume": sum(o.comm_count for o in outcomes),
    }


def check_instance(inst, out: Outcome) -> list[str]:
    """Reasons the instance fails; empty when it passes every check."""
    if out.error is not None:
        return [out.error]
    reasons = []
    for n, ok in zip(inst.sizes, out.passed):
        if not ok:
            reasons.append(f"validate() fails at N={n}")
    nest_doc, plan_doc = json.loads(inst.text), json.loads(out.plan_doc)
    for n in inst.sizes:
        bad = check.order_violations(nest_doc, plan_doc, n)
        if bad:
            di, src, tgt = bad[0]
            reasons.append(f"{len(bad)} dependence pairs not ordered at N={n}, e.g. "
                           f"dependence #{di} {src} -> {tgt}")
    return reasons


def oracle_mismatch(api, inst) -> str | None:
    """Recursion-1 optimum at bound 1 against the exhaustive oracle, when it fits."""
    from affsched.solver import SolverConfig, solve
    from affsched.validation import (ORACLE_MAX_VARS, brute_force_best_alignment,
                                     first_recursion_system)

    nest = api.load_nest(inst.text)
    system = first_recursion_system(nest, inst.r)
    if system.layout.size > ORACLE_MAX_VARS:
        return None
    got = solve(system, SolverConfig(coeff_bound=1)).objective
    want = brute_force_best_alignment(nest, inst.r, bound=1)
    return None if got == want else f"recursion-1 objective {got} != oracle {want}"


def time_cli(cli, insts, workdir: Path) -> tuple[float, float, dict]:
    """`affsched solve` and `affsched validate` in-process over every instance."""
    workdir.mkdir(parents=True, exist_ok=True)
    seconds = {"solve": 0.0, "validate": 0.0}
    errors = {}
    for inst in insts:
        stem = workdir / re.sub(r"[^A-Za-z0-9]+", "_", inst.id)
        nest_path, plan_path = stem.with_suffix(".nest.json"), stem.with_suffix(".plan.json")
        nest_path.write_text(inst.text)
        names = [p["name"] for p in json.loads(inst.text)["params"]]
        solve_argv = ["solve", "--input", str(nest_path), "--spatial-dims", str(inst.r),
                      "--out", str(plan_path)]
        if inst.time_limit is not None:
            solve_argv += ["--time-limit", str(inst.time_limit)]
        validate_argv = ["validate", "--input", str(nest_path), "--plan", str(plan_path),
                         "--out", str(stem.with_suffix(".validation.json"))]
        for n in inst.sizes:
            validate_argv += ["--params", ",".join(f"{k}={v}" for k, v in zip(names, n))]
        for argv in (solve_argv, validate_argv):
            t0 = perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    rc = cli.main(argv)
            except Exception as exc:  # `affsched solve` lets SolverTimeout escape
                rc = f"{type(exc).__name__}: {exc}"
            seconds[argv[0]] += perf_counter() - t0
            if rc != 0:
                errors[inst.id] = f"affsched {argv[0]}: {rc}"
                break
    return seconds["solve"], seconds["validate"], errors


@dataclass
class Result:
    workload: str
    instances: int
    passes: int
    e2e: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    failures: dict = field(default_factory=dict)
    deterministic: bool = True

    @property
    def attempted(self) -> int:
        return self.instances * self.passes

    @property
    def failed(self) -> int:
        return len(self.failures) * self.passes

    @property
    def correct(self) -> bool:
        return self.deterministic and not self.failures


def child(mode: str, workload: str, seed: int, known_failures: bool) -> subprocess.Popen:
    """This file again, in a fresh interpreter."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--child", mode,
            "--workload", workload, "--seed", str(seed)]
    if known_failures:
        argv.append("--known-failures")
    return subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)


def reply(proc: subprocess.Popen) -> dict:
    out, _ = proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(proc.args)} exited with {proc.returncode}")
    return json.loads(out.splitlines()[-1])


def measure_untraced(api, name, insts, seed, seconds, known_failures) -> Result:
    def time_setup():
        t0 = perf_counter()
        with child("setup", name, seed, known_failures) as proc:
            reply(proc)
        setup.append(perf_counter() - t0)

    # the untimed oracle runs while a fresh process measures its peak memory
    with child("pass", name, seed, known_failures) as proc:
        oracle = {inst.id: oracle_mismatch(api, inst) for inst in insts}
        fresh = reply(proc)
    # set-up samples are spread over the run, so that they see the same
    # machine as the passes
    setup, passes = [], []
    start = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() < start + seconds:
        passes.append(run_pass(api, insts))
        while len(setup) < SETUP_REPEATS * min(1.0, (perf_counter() - start) / seconds):
            time_setup()
    while len(setup) < SETUP_REPEATS:
        time_setup()

    res = Result(name, len(insts), len(passes))
    totals = [pass_totals(p) for p in passes]
    res.e2e = {
        "setup_s": median(setup),
        "plan_s": median(t["plan_s"] for t in totals),
        "verdict_s": median(t["verdict_s"] for t in totals),
        "pipeline_s": median(t["pipeline_s"] for t in totals),
        "peak_rss_mb": fresh["peak_rss_mb"],
        "comm_volume": totals[0]["comm_volume"],
    }
    signatures = [json.dumps([o.signature() for o in p]) for p in passes]
    signatures.append(json.dumps(fresh["signature"]))
    res.deterministic = len(set(signatures)) == 1
    for inst, out in zip(insts, passes[0]):
        reasons = check_instance(inst, out)
        if oracle[inst.id]:
            reasons.append(oracle[inst.id])
        if reasons:
            res.failures[inst.id] = reasons
    return res


def measure_traced(api, name, insts, seed, seconds) -> Result:
    import affsched.cli

    tracer = Tracer()
    untraced, traced, per_pass, counts, dump = [], [], [], [], []
    deadline = perf_counter() + seconds
    while len(traced) < MIN_PASSES or perf_counter() < deadline:
        untraced.append(pass_totals(run_pass(api, insts))["pipeline_s"])
        tracer.install()
        try:
            outcomes = run_pass(api, insts, tracer)
        finally:
            tracer.uninstall()
        spans, folded = tracer.take()
        traced.append(pass_totals(outcomes)["pipeline_s"])
        metrics = layer_metrics(spans, folded)
        per_pass.append(metrics)
        counts.append((
            [o.signature() for o in outcomes],
            [metrics[k] for k in ("comm_volume", "solver.objective_sum", "constraints.columns",
                                  "constraints.witness_branches", "nest.enum_points")],
        ))
        dump.append({"pass": len(dump), "spans": spans,
                     "folded": [[p, n, c, s] for (p, n), (c, s) in folded.items()]})

    res = Result(name, len(insts), len(traced))
    res.layers = median_metrics(per_pass)
    res.layers["cli.solve_s"], res.layers["cli.validate_s"], cli_errors = time_cli(
        affsched.cli, insts, OUT / "cli" / name)
    res.layers["trace.overhead_s"] = median(traced) - median(untraced)
    res.layers = {k: res.layers[k] for k in LAYER_UNITS}
    res.deterministic = all(c == counts[0] for c in counts)
    for inst, out in zip(insts, outcomes):
        reasons = check_instance(inst, out)
        if inst.id in cli_errors:
            reasons.append(cli_errors[inst.id])
        if reasons:
            res.failures[inst.id] = reasons
    OUT.mkdir(exist_ok=True)
    (OUT / f"spans-{name}-seed{seed}.json").write_text(json.dumps(dump))
    return res


def e2e_table(results) -> str:
    cols = [f"{k} [{u}]" for k, u in E2E_UNITS.items()] + ["failed_frac [instances]"]
    lines = ["  ".join(["workload".ljust(10), "passes", *cols])]
    for r in results:
        cells = [f"{r.e2e[k]:.6g}" for k in E2E_UNITS] + [f"{len(r.failures)}/{r.instances}"]
        lines.append("  ".join([r.workload.ljust(10), str(r.passes).rjust(6)]
                               + [v.rjust(len(c)) for v, c in zip(cells, cols)]))
    return "\n".join(lines)


def layer_table(results) -> str:
    lines = ["  ".join(["layer metric".ljust(30), "unit".ljust(9)]
                       + [r.workload.rjust(12) for r in results])]
    for k, unit in LAYER_UNITS.items():
        lines.append("  ".join([k.ljust(30), unit.ljust(9)]
                               + [f"{r.layers[k]:.6g}".rjust(12) for r in results]))
    return "\n".join(lines)


def failure_lines(r: Result) -> list[str]:
    lines = [f"{r.workload}: {len(r.failures)}/{r.instances} instances fail"]
    lines += [f"  {iid}: {'; '.join(reasons)}" for iid, reasons in r.failures.items()]
    if not r.deterministic:
        lines.append(f"  {r.workload}: passes disagree on deterministic counts")
    return lines


def result_line(r: Result, trace: bool) -> str:
    if trace:
        metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in r.layers.items()}
    else:
        metrics = {k: {"value": r.e2e[k], "unit": u} for k, u in E2E_UNITS.items()}
    return json.dumps({"correct": r.correct, "attempted": r.attempted, "failed": r.failed,
                       "metrics": metrics})


def peak_rss_kb() -> int:
    """Peak resident memory of this process since its exec.

    `ru_maxrss` is not used: Linux carries the parent's peak over a fork and
    exec, so a child of a large parent would report the parent's memory.
    """
    with open("/proc/self/status") as fh:
        return int(re.search(r"VmHWM:\s+(\d+) kB", fh.read()).group(1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--known-failures", action="store_true",
                    help="add the instances known to fail, which timed runs leave out")
    ap.add_argument("--report", action="store_true",
                    help="every workload, with known failures, untraced and traced")
    ap.add_argument("--child", choices=("setup", "pass"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.report and args.workload is None:
        ap.error("--workload is required unless --report is given")

    api = import_affsched()
    names = sorted(workloads.WORKLOADS) if args.report else [args.workload]
    known = args.known_failures or args.report
    insts = {n: workloads.instances(n, ROOT, args.seed, known) for n in names}

    if args.child == "setup":
        print(json.dumps({"instances": len(insts[args.workload])}))
        return 0
    if args.child == "pass":
        outcomes = run_pass(api, insts[args.workload])
        print(json.dumps({"peak_rss_mb": peak_rss_kb() / 1024,
                          "signature": [o.signature() for o in outcomes]}))
        return 0

    if not args.report:
        if args.trace:
            res = measure_traced(api, args.workload, insts[args.workload], args.seed,
                                 args.seconds)
            print(layer_table([res]))
        else:
            res = measure_untraced(api, args.workload, insts[args.workload], args.seed,
                                   args.seconds, known)
            print(e2e_table([res]))
        print("\n".join(failure_lines(res)))
        print(result_line(res, bool(args.trace)))
        return 0

    untraced, traced = [], []
    for n in names:
        untraced.append(measure_untraced(api, n, insts[n], args.seed, args.seconds, True))
        traced.append(measure_traced(api, n, insts[n], args.seed, args.seconds))
    print("end-to-end, untraced (median per pass; a pass runs every instance once)")
    print(e2e_table(untraced))
    print()
    print("per layer, traced (median per traced pass)")
    print(layer_table(traced))
    print()
    for r in untraced:
        print("\n".join(failure_lines(r)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
