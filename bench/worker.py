"""One benchmark run of one workload, in a fresh process started by run.py.

    python bench/worker.py --workload NAME --seed N --seconds S --spawned-at T [--trace] [--setup-only]

Set-up (imports, input generation, warm-up) is timed from the first line of
this file, before ``import propval``. The timed phase then runs blocks of ops
(see gen.py) back to back, one caller, closed loop, until ``--seconds`` of
timed work and at least MIN_OPS ops are done. After each block the clock
stops and every op's output is checked. With ``--trace`` untraced and traced
blocks alternate and the per-layer metrics are reported instead. The result
is one JSON line on stdout.

Timings are reported at reference machine speed. The machine's speed drifts
by up to a quarter over seconds and minutes, for every process alike, so
between chunks of about CHUNK_S of ops (never inside an op) the worker times
a fixed pure-Python loop, and scales each op's wall time by CAL_REF_S over the
mean of the loop times before and after its chunk. See README.md.
"""

import time

PROCESS_START = time.monotonic()

import gc  # noqa: E402
from time import perf_counter  # noqa: E402

CAL_ITERS = 1500
CAL_REF_S = 0.0025  # the loop's time at reference speed: about its median on the defining machine
CHUNK_S = 0.05


def calibrate() -> float:
    """Wall time of a fixed pure-Python loop: the machine's momentary speed.

    Half of it is integer arithmetic, which tracked the numpy-and-loop IRR
    scan best; half allocates and formats, which tracked the allocation-heavy
    appraisal_batch best. The collector is paused so that a collection of
    the workload's garbage does not land in the loop."""
    enabled = gc.isenabled()
    gc.disable()
    start = perf_counter()
    acc = 0
    for i in range(12 * CAL_ITERS):
        acc += i * i % 7
    table = {}
    for i in range(CAL_ITERS):
        table[i & 1023] = (i, i * 0.5, str(i), f"{i * 0.37:.2f}")
    elapsed = perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


START_CAL = calibrate()
START = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from collections import namedtuple  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402

MIN_OPS = 120  # >= 100 so that at least 10 samples lie beyond p90
MAX_REPORTED_FAILURES = 5
BENCH_DIR = Path(__file__).resolve().parent


# one timed call fn(*args); check(output) returns failure messages
Op = namedtuple("Op", "cls fn args check")


# ---------------------------------------------------------------------------
# irr_portfolio


class IrrPortfolio:
    def __init__(self, seed: int) -> None:
        from propval import projects

        self.projects = projects
        self.seed = seed
        self.blocks = [[self.op(*spec) for spec in block] for block in gen.irr_portfolio(seed)]

    # ops look library functions up at call time, so the tracer's wrappers apply
    def analyze(self, project):
        return self.projects.irr_all(project)

    def compare(self, a, b):
        p = self.projects
        report = p.compare_pairwise(a, b)
        return report, p.comparison_table(report), p.comparison_to_dict(report)

    def op(self, cls, payload, expected) -> Op:
        Project = self.projects.Project
        if cls == "comparison":
            a, b = (Project(name, flows) for name, flows in payload)
            return Op(cls, self.compare, (a, b), lambda out: checks.comparison(payload, expected, *out))
        ((name, flows),) = payload
        return Op(
            cls,
            self.analyze,
            (Project(name, flows),),
            lambda res: checks.roots(name, res.roots, flows, expected, tangent=cls == "tangent"),
        )

    def probe(self) -> int:
        """Run the known-defect hard cases (close and tangent roots) untimed;
        return how many disagree with their constructed roots."""
        mismatches = 0
        for spec in gen.irr_probe(self.seed):
            op = self.op(*spec)
            if op.check(op.fn(*op.args)):
                mismatches += 1
        return mismatches


# ---------------------------------------------------------------------------
# appraisal_batch


class AppraisalBatch:
    def __init__(self, seed: int) -> None:
        from propval import amortization, capitalization, recurrence, render

        self.am, self.cap, self.rec, self.render = amortization, capitalization, recurrence, render
        self.stats: dict = {}
        self.blocks = [[self.op(*spec) for spec in block] for block in gen.appraisal_batch(seed)]

    def op(self, cls, spec) -> Op:
        if cls == "sweep":
            terms = self.cap.MortgageTerms(spec["ltv"], spec["note_rate"], spec["months"], spec["hold"])
            return Op(cls, self.sweep, (spec, terms), lambda out: checks.sweep(spec, out))
        return Op(cls, self.schedule, (spec,), lambda out: checks.schedule(spec, *out, self.stats))

    def sweep(self, prop, terms):
        """Cap-rate sensitivity of one property over equity yield x value change."""
        cap, rec = self.cap, self.rec
        income, hold, safe = prop["income"], prop["hold"], prop["safe_rate"]
        growth = rec.RecurrenceSpec(1.0 + prop["growth"], 0.0, income)
        points = []
        for y in prop["yields"]:
            for change in prop["asset_changes"]:
                spec = cap.AppreciationSpec(change, prop["income_change"])
                e = cap.ellwood_cap_rate(terms, y, spec)
                points.append((
                    y,
                    change,
                    e,
                    cap.ellwood_j_cap_rate(terms, y, spec),
                    cap.band_of_investment(prop["ltv"], prop["note_rate"], y),
                    cap.band_with_mortgage_constant(prop["ltv"], e.mortgage_constant, y),
                    cap.recovery_cap_rate("ring", y, hold),
                    cap.recovery_cap_rate("hoskold", y, hold, safe),
                    cap.capitalize(income, e.rate),
                    rec.value_recurrence_stream(growth, y, hold),
                    rec.straight_line_annuity_value(income, income * prop["decline"], y, hold),
                    rec.hoskold_stream_value(income, y, safe, hold),
                    rec.constant_ratio_annuity_value(prop["growth"], y, hold),
                ))
        return points

    def schedule(self, spec):
        """Build a loan schedule, verify it, export it in the spec's format."""
        am = self.am
        if spec["kind"] == "level":
            sched = am.level_schedule(spec["principal"], spec["rate"], spec["rows"])
        elif spec["kind"] == "sinking":
            sched = am.sinking_fund_schedule(spec["principal"], spec["rate"], spec["recovery_rate"], spec["rows"])
        else:
            sched = am.generalized_schedule(spec["reductions"], spec["rate"])
        residual = am.verify_main_theorem(sched)
        if spec["format"] == "csv":
            text = am.schedule_to_csv(sched)
        elif spec["format"] == "json":
            text = am.schedule_to_json(sched)
        else:
            fmt = self.render.format_fixed
            rows = [checks.SCHEDULE_HEADER] + [
                [str(r.period)] + [fmt(x, 2) for x in (r.payment, r.interest, r.principal_reduction, r.ending_balance)]
                for r in sched.rows
            ]
            text = self.render.align_table(rows)
        return sched, residual, text


# ---------------------------------------------------------------------------
# cli_cold


class CliCold:
    """One ``python -m propval.cli`` process per op, inputs in a scratch
    directory inside the checkout."""

    def __init__(self, seed: int) -> None:
        import propval

        self.pv = propval
        self.dir = Path.cwd() / ".bench_run" / str(os.getpid())
        self.dir.mkdir(parents=True, exist_ok=True)
        ops, self.files = gen.cli_cold(seed)
        for name, data in self.files.items():
            (self.dir / name).write_text(json.dumps(data), encoding="utf-8")
        self.plain = [sys.executable, "-m", "propval.cli"]
        self.traced = [sys.executable, "-X", "importtime", str(BENCH_DIR / "cli_child.py")]
        self.stats: dict = {}
        self.children: list = []  # child reports of traced ops, parsed after each block
        self.blocks = [[Op("cli", self.call, (argv, False), self.checker(cmd, argv)) for cmd, argv in ops]]
        self.traced_blocks = [[Op("cli", self.call, (argv, True), self.checker(cmd, argv)) for cmd, argv in ops]]

    def call(self, argv, traced):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        spawned = time.monotonic()
        proc = subprocess.run((self.traced if traced else self.plain) + argv, cwd=self.dir, capture_output=True)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.decode(errors='replace')[-300:]}")
        return proc.stdout.decode(), proc.stderr.decode(), spawned, cpu

    def checker(self, cmd, argv):
        fmt = argv[argv.index("--format") + 1]

        def check(out):
            stdout, stderr, spawned, cpu = out
            if "BENCH_CHILD " in stderr:
                self.children.append((stdout, stderr, spawned, cpu))
            return checks.cli(cmd, fmt, stdout, self.expected(cmd, argv), self.stats)

        return check

    def expected(self, cmd, argv):
        """The in-process value the CLI call must print."""
        pv = self.pv
        opt = {argv[i]: argv[i + 1] for i in range(len(argv) - 1) if argv[i].startswith("--")}
        num = lambda key: float(opt[key])  # noqa: E731
        if cmd == "tvm":
            fns = {"annuity": pv.annuity_pv, "amortize": pv.installment_to_amortize, "sff": pv.sinking_fund_factor}
            fn = fns[argv[1]]
            return "factor", fn(num("--rate"), int(opt["--n"])), 4, False
        if cmd == "caprate":
            if argv[1] == "band":
                return "rate", pv.band_of_investment(num("--m"), num("--i"), num("--y")), 4, False
            terms = pv.MortgageTerms(num("--m"), num("--i"), int(opt["--months"]), int(opt["--hold"]))
            spec = pv.AppreciationSpec(num("--delta0"), num("--delta") if "--delta" in opt else 0.0)
            fn = pv.ellwood_cap_rate if argv[1] == "ellwood" else pv.ellwood_j_cap_rate
            result = fn(terms, num("--y"), spec)
            return "rate", result.rate, 4, True
        if cmd == "value":
            i, n = num("--i"), int(opt["--n"])
            if argv[1] == "recurrence":
                value = pv.value_recurrence_stream(pv.RecurrenceSpec(num("--m"), num("--b"), num("--c")), i, n)
            elif argv[1] == "straight-line":
                value = pv.straight_line_annuity_value(num("--d"), num("--h"), i, n)
            else:
                value = pv.hoskold_stream_value(num("--income"), i, num("--is"), n)
            return "value", value, 2, False
        if cmd == "amort":
            fmt = opt["--format"]
            if argv[1] == "level":
                sched = pv.level_schedule(num("--pv"), num("--i"), int(opt["--n"]))
            elif argv[1] == "general":
                sched = pv.generalized_schedule(self.files[opt["--file"]]["principal_reductions"], num("--i"))
            else:
                sched = pv.sinking_fund_schedule(num("--v"), num("--i"), num("--r"), int(opt["--n"]))
            spec = {"kind": argv[1], "rows": len(sched.rows), "format": fmt, "rate": sched.rate}
            return spec, sched
        found = [pv.Project(self.files[n]["name"], tuple(self.files[n]["cashflows"])) for n in argv[1:3]]
        return pv.compare_pairwise(*found), [pv.irr_all(p) for p in found]

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            self.dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it


# ---------------------------------------------------------------------------
# the timed phase


def run_block(block, outs, lat, speed) -> tuple[float, float]:
    """Run the ops back to back. Appends each op's latency, scaled to
    reference speed, to lat and each chunk's scale factor to speed; returns
    the block's raw and scaled op time."""
    raw = scaled = chunk = 0.0
    pending = []
    before = calibrate()
    for k, op in enumerate(block, 1):
        t0 = perf_counter()
        try:
            out = op.fn(*op.args)
        except Exception as exc:  # counted as a failed op, never raised past
            out = exc
        dt = perf_counter() - t0
        outs.append(out)
        pending.append(dt)
        chunk += dt
        if chunk >= CHUNK_S or k == len(block):
            after = calibrate()
            factor = 2.0 * CAL_REF_S / (before + after)
            lat.extend(x * factor for x in pending)
            speed.append(factor)
            raw += chunk
            scaled += chunk * factor
            pending.clear()
            chunk = 0.0
            before = after
    return raw, scaled


def check_block(block, outs, failures: list) -> int:
    failed = 0
    for op, out in zip(block, outs):
        if isinstance(out, Exception):
            errors = [f"{op.cls}: {type(out).__name__}: {out}"]
        else:
            try:
                errors = op.check(out)
            except Exception as exc:  # a malformed output fails its check
                errors = [f"{op.cls}: check raised {type(exc).__name__}: {exc}"]
        if errors:
            failed += 1
            failures.extend(errors[: MAX_REPORTED_FAILURES - len(failures)])
    return failed


def percentile(sorted_values, q: float) -> float:
    return statistics.quantiles(sorted_values, n=100, method="inclusive")[q - 1]


def timed_phase(work, seconds: float) -> dict:
    lat, speed, failures = [], [], []
    wall = scaled = 0.0
    failed = i = 0
    while wall < seconds or len(lat) < MIN_OPS:
        block = work.blocks[i % len(work.blocks)]
        i += 1
        outs = []
        raw, ref = run_block(block, outs, lat, speed)
        wall += raw
        scaled += ref
        failed += check_block(block, outs, failures)
    lat.sort()
    for line in failures:
        print("check failed:", line, file=sys.stderr)
    print(f"machine speed factor: median {statistics.median(speed):.3f} over {len(speed)} chunks", file=sys.stderr)
    metrics = {
        "ops_per_s": len(lat) / scaled,
        "latency_p50_ms": percentile(lat, 50) * 1e3,
        "latency_p90_ms": percentile(lat, 90) * 1e3,
    }
    return {"attempted": len(lat), "failed": failed, "metrics": metrics}


def traced_phase(work, seconds: float, tracer) -> dict:
    """Alternate untraced and traced blocks; per-layer metrics per traced op."""
    failures, speed = [], []
    # check-side counters (schedule rows, residuals) of traced blocks only
    layer_stats: dict = {}
    wall = {False: 0.0, True: 0.0}
    scaled = {False: 0.0, True: 0.0}
    ops = {False: 0, True: 0}
    failed, warned, i = 0, 0, 0
    traced_blocks = getattr(work, "traced_blocks", work.blocks)
    while wall[False] + wall[True] < seconds or ops[True] < MIN_OPS // 2:
        traced = i % 2 == 1
        block = (traced_blocks if traced else work.blocks)[(i // 2) % len(work.blocks)]
        i += 1
        outs, lat = [], []
        if traced:
            work.stats = layer_stats
            tracer.install()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                raw, ref = run_block(block, outs, lat, speed)
            tracer.uninstall()
            warned += sum(issubclass(w.category, RuntimeWarning) for w in caught)
        else:
            work.stats = {}
            raw, ref = run_block(block, outs, lat, speed)
        wall[traced] += raw
        scaled[traced] += ref
        ops[traced] += len(lat)
        failed += check_block(block, outs, failures)
    for line in failures:
        print("check failed:", line, file=sys.stderr)
    n = ops[True]
    metrics = {"projects.runtime_warnings": warned / n}
    metrics["amortization.rows"] = layer_stats.get("rows", 0) / n
    metrics["amortization.max_residual_rel"] = layer_stats.get("max_residual_rel", 0.0)
    metrics["trace.op_ms"] = wall[True] * 1e3 / n
    metrics["trace.overhead_pct"] = (scaled[True] / n) / (scaled[False] / ops[False]) * 100.0 - 100.0
    metrics["trace.speed_factor"] = statistics.median(speed)
    return {"attempted": ops[False] + n, "failed": failed, "metrics": metrics, "traced_ops": n}


def child_layers(children: list, tracer) -> dict:
    """cli_cold per-layer split from the traced CLI children's reports."""
    total = {k: 0.0 for k in ("interpreter", "numpy", "propval", "cpu", "build", "parse", "handler", "bytes")}
    for stdout, stderr, spawned, cpu in children:
        report, numpy_us = None, 0
        for line in stderr.splitlines():
            if line.startswith("BENCH_CHILD "):
                report = json.loads(line[len("BENCH_CHILD "):])
            elif line.startswith("import time:") and line.rsplit("|", 1)[-1].strip() == "numpy":
                numpy_us = int(line.split("|")[1])
        tracer.merge(report["stats"])
        total["interpreter"] += report["start"] - spawned
        total["numpy"] += numpy_us / 1e6
        total["propval"] += report["import_s"] - numpy_us / 1e6
        total["cpu"] += cpu
        total["build"] += report["build_parser_s"]
        total["parse"] += report["parse_args_s"]
        total["handler"] += report["handler_s"]
        total["bytes"] += len(stdout.encode())
    n = max(len(children), 1)
    ms = 1000.0 / n
    return {
        "import.interpreter_ms": total["interpreter"] * ms,
        "import.numpy_ms": total["numpy"] * ms,
        "import.propval_ms": total["propval"] * ms,
        "import.child_cpu_ms": total["cpu"] * ms,
        "cli.build_parser_ms": total["build"] * ms,
        "cli.parse_args_ms": total["parse"] * ms,
        "cli.handler_ms": total["handler"] * ms,
        "cli.stdout_bytes": total["bytes"] / n,
    }


def comparison_irr_calls(work, tracer_cls) -> float:
    """irr_all calls made by one comparison op (compare, table and JSON)."""
    ops = [op for op in work.blocks[0] if op.cls == "comparison"]
    if not ops:
        return 0.0
    tracer = tracer_cls()
    tracer.install()
    try:
        for op in ops:
            op.fn(*op.args)
    finally:
        tracer.uninstall()
    return tracer.calls("projects.irr_all") / len(ops)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=("irr_portfolio", "appraisal_batch", "cli_cold"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spawned-at", type=float, required=True, help="monotonic time run.py started this process")
    args = ap.parse_args()

    imports = {}
    if args.trace:  # split the import layer; a plain run imports propval as a user does
        t = time.monotonic()
        import numpy  # noqa: F401

        imports["numpy"] = time.monotonic() - t
    t = time.monotonic()
    import propval  # noqa: F401

    imports["propval"] = time.monotonic() - t
    usage = resource.getrusage(resource.RUSAGE_SELF)
    imports["cpu"] = usage.ru_utime + usage.ru_stime

    if args.workload == "irr_portfolio":
        work = IrrPortfolio(args.seed)
    elif args.workload == "appraisal_batch":
        work = AppraisalBatch(args.seed)
    else:
        work = CliCold(args.seed)
    try:
        seen = set()
        for op in work.blocks[0]:  # warm-up: one op of each class
            if op.cls not in seen:
                seen.add(op.cls)
                op.fn(*op.args)
        setup_s = (time.monotonic() - START) * 2.0 * CAL_REF_S / (START_CAL + calibrate())
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        if not args.trace:
            result = timed_phase(work, args.seconds)
            rss_kib = resource.getrusage(
                resource.RUSAGE_CHILDREN if args.workload == "cli_cold" else resource.RUSAGE_SELF
            ).ru_maxrss
            result["metrics"].update(setup_s=setup_s, peak_rss_mb=rss_kib * 1024 / 1e6)
        else:
            from tracer import Tracer

            tracer = Tracer()
            result = traced_phase(work, args.seconds, tracer)
            m = result["metrics"]
            if args.workload == "cli_cold":
                m.update(child_layers(work.children, tracer))  # also merges the children's spans
            else:
                m.update({
                    "import.interpreter_ms": (PROCESS_START - args.spawned_at) * 1e3,
                    "import.numpy_ms": imports["numpy"] * 1e3,
                    "import.propval_ms": imports["propval"] * 1e3,
                    "import.child_cpu_ms": imports["cpu"] * 1e3,
                    "cli.build_parser_ms": 0.0,
                    "cli.parse_args_ms": 0.0,
                    "cli.handler_ms": 0.0,
                    "cli.stdout_bytes": 0.0,
                })
            m.update(tracer.layer_metrics(result.pop("traced_ops")))
            m["projects.irr_calls_per_comparison"] = comparison_irr_calls(work, Tracer)
        if isinstance(work, IrrPortfolio):
            mismatches = work.probe()
            total = sum(gen.IRR_PROBE.values())
            print(f"known-defect probe: {mismatches} of {total} hard cases mismatch", file=sys.stderr)
            if args.trace:
                result["metrics"]["projects.root_mismatches"] = float(mismatches)
        elif args.trace:
            result["metrics"]["projects.root_mismatches"] = 0.0
    finally:
        if isinstance(work, CliCold):
            work.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
