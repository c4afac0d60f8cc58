"""pointedcat benchmark: drive the CLI on one workload and check every output.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src. Each job is one CLI invocation in a fresh interpreter, started
from this single process with at most one child running, because CLI users
pay interpreter start-up and cold caches on every call. Children are reaped
with os.wait4, so CPU time and max-RSS come from each job's own rusage.

Set-up writes the seeded input files (bench/gen.py in a fresh interpreter)
and times one fresh ``import pointedcat.cli``; it is repeated and the median
reported as setup_s. A run then makes a fixed number of passes over the job
list, sized from --seconds and the seed commit's pass time, so that sample
counts (and hence percentile definitions) are the same on every commit.

The host's speed drifts by up to 2x over seconds to minutes (other tenants
share the cores), and CPU time drifts with it. So the harness and its
children are pinned to one CPU, and a fixed pure-Python reference loop,
independent of pointedcat, runs in this process before the first job of a
pass and after every job. Every reported time is the measured time
multiplied by REF_NOMINAL_S / (mean of the reference samples around the
job): seconds at the reference host speed. The raw times and the host
slowdown are printed too.

A job is killed after JOB_TIMEOUT_S, and no job starts after RUN_DEADLINE_S,
so a run ends within 180 s even if the program hangs; such jobs fail.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced passes (bench/traced.py) and reports per-layer metrics (the median
over traced passes), the untraced per-command totals, and the tracing
overhead. The last stdout line is the
JSON result; the lines before it name every metric with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import select
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 5
# Per-job cap, and the time after which no job starts, from the run's start.
JOB_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 150.0
# One untraced pass at the seed commit on a 2-core Xeon host, in seconds.
NOMINAL_PASS_S = {"pointed_verify": 14.0, "generic_verify": 13.0, "classify": 5.0}
# Mean time of reference() on the reference host (the fast phase of a 2-core
# Xeon VM, Python 3.11); reported times are scaled to this speed.
REF_NOMINAL_S = 0.0085
COMMANDS = ("construct", "verify", "show", "link", "fusion", "enumerate")

END_TO_END = {"setup_s": "s", "wall_s": "s", "job_p50_s": "s", "job_tail_s": "s",
              "peak_rss_mb": "MB"}


class Job:
    """One finished CLI invocation."""

    def __init__(self, spec, wall, cpu, rss_kb, code, stdout, stderr, overrun, trace=None):
        self.spec, self.wall, self.cpu, self.rss_kb = spec, wall, cpu, rss_kb
        self.code, self.stdout, self.stderr, self.overrun = code, stdout, stderr, overrun
        self.trace = trace
        self.error = None
        self.scale = 1.0  # REF_NOMINAL_S / mean reference time around the job

    @property
    def time(self) -> float:
        """Wall time at the reference host speed."""
        return self.wall * self.scale


def reference() -> float:
    """Time a fixed exact-arithmetic loop (Fractions, ints, tuples, a dict),
    the kind of work pointedcat does, to sample the host's current speed."""
    start = time.perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, 4000):
        acc += Fraction(i % 17, i % 13 + 1)
        key = (i % 31, i % 7)
        table[key] = table.get(key, 0) + i * i
    return time.perf_counter() - start


def run_pass(specs, ctx, traced: bool) -> list[Job]:
    """One pass over the job list, sampling the host speed between jobs.

    refs[j] is taken just before job j and refs[j + 1] just after it; a job is
    scaled by the mean of the two samples around it and one more on each side.
    """
    refs = [reference()]
    done = []
    for spec in specs:
        done.append(run_job(spec, ctx, traced))
        refs.append(reference())
    for j, job in enumerate(done):
        job.scale = REF_NOMINAL_S / statistics.fmean(refs[max(0, j - 1):j + 3])
    return done


def run_child(argv, cwd: Path, env, timeout: float, tag: str):
    """Run argv to completion; return (wall_s, rusage, exit_code, stdout, stderr, overrun)."""
    out_path, err_path = cwd / f".{tag}.out", cwd / f".{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], timeout)
            overrun = not ready
            if overrun:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text(encoding="utf-8", errors="replace")
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    return wall, usage, proc.returncode, stdout, stderr, overrun


def run_job(spec, ctx, traced: bool) -> Job:
    remaining = ctx["deadline"] - time.perf_counter()
    if remaining <= 0:
        job = Job(spec, 0.0, 0.0, 0, None, "", "", True)
        job.error = "not started: the run passed its deadline"
        return job
    if traced:
        spans = ctx["work"] / ".spans.json"
        argv = [sys.executable, str(BENCH_DIR / "traced.py"), str(spans), "--", *spec["argv"]]
    else:
        argv = [sys.executable, "-m", "pointedcat.cli", *spec["argv"]]
    wall, usage, code, stdout, stderr, overrun = run_child(
        argv, ctx["work"], ctx["env"], min(JOB_TIMEOUT_S, remaining), "job")
    trace = None
    if traced and not overrun and spans.exists():
        trace = json.loads(spans.read_text(encoding="utf-8"))
        spans.unlink()
    job = Job(spec, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, code,
              stdout, stderr, overrun, trace)
    try:
        job.error = check(job, ctx)
    except (OSError, ValueError, IndexError, AttributeError) as exc:
        job.error = f"malformed output: {exc!r}"
    return job


# -- output checks ---------------------------------------------------------------

def _doc_field(text: str, key: str) -> str | None:
    for line in text.splitlines():
        if line.startswith(key + ":"):
            return line[len(key) + 1:].strip()
    return None


def check(job: Job, ctx) -> str | None:
    """None when the job's exit code and output are as expected, else why not."""
    if job.overrun:
        return f"killed after {job.wall:.0f} s"
    c = job.spec["check"]
    want_code = c.get("exit", 0)
    if job.code != want_code:
        return f"exit {job.code}, expected {want_code}; stderr: {job.stderr.strip()[:200]}"
    kind, work, expected = c["kind"], ctx["work"], ctx["expected"]
    if kind == "stdout":
        if job.stdout != expected[c["expect"]]:
            return "stdout differs from the recorded output"
    elif kind == "stderr":
        if c["contains"] not in job.stderr:
            return f"stderr lacks {c['contains']!r}"
    elif kind == "construct":
        doc = (work / c["data"]).read_text(encoding="utf-8")
        gram = workloads.parse_matrix((work / c["mat"]).read_text(encoding="utf-8"))
        rank = str(abs(workloads.determinant(gram)))
        provenance = "; ".join(" ".join(str(x) for x in row) for row in gram)
        if job.stdout or _doc_field(doc, "rank") != rank or \
                _doc_field(doc, "provenance") != provenance:
            return "constructed document has the wrong rank or provenance"
    elif kind == "show":
        want = expected[c["expect"]]
        got = {key: _doc_field(job.stdout, key) for key in want}
        if got != want:
            return f"show printed {got}, expected {want}"
    elif kind == "link":
        s_tilde = _doc_field((work / c["data"]).read_text(encoding="utf-8"), "s_tilde")
        entry = s_tilde.split(";")[1].split(",")[2].strip()
        if job.stdout != entry + "\n":
            return f"link printed {job.stdout!r}, expected s_tilde[1][2] = {entry!r}"
    elif kind == "fusion_pointed":
        lines = job.stdout.splitlines()
        if len(lines) != 1 or lines[0].split()[1:] != ["1"]:
            return f"expected a single outcome with probability 1, got {job.stdout!r}"
    elif kind == "fusion_generic":
        sigma = c["sigma"]
        got = {str(sigma.index(int(label))): p
               for label, p in (line.split() for line in job.stdout.splitlines())}
        if got != c["outcomes"]:
            return f"fusion outcomes {got} (original labels), expected {c['outcomes']}"
    else:
        raise ValueError(f"unknown check {kind!r}")
    return None


# -- statistics ------------------------------------------------------------------

def tail(values):
    """(value, percentile): the highest percentile with at least ten samples
    beyond it, by nearest rank; the maximum when there are ten or fewer."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def per_command(jobs, cmd, reduce=sum) -> float:
    values = [j.time for j in jobs if j.spec["cmd"] == cmd]
    return reduce(values) if values else 0.0


def end_to_end(passes, setup_s):
    times = [j.time for p in passes for j in p]
    tail_value, tail_pct = tail(times)
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(sum(j.time for j in p) for p in passes),
        "job_p50_s": statistics.median(statistics.median(j.time for j in p) for p in passes),
        "job_tail_s": tail_value,
        "peak_rss_mb": max(j.rss_kb for p in passes for j in p) / 1024,
    }
    note = f"job_tail_s is p{tail_pct:.1f} of {len(times)} job samples"
    return metrics, note


def command_totals(passes):
    """Per-pass CPU time and command totals (median over passes), the slowest
    job and the slowest verify, and the failed fraction."""
    out = {"cpu_s": statistics.median(sum(j.cpu * j.scale for j in p) for p in passes)}
    out.update({f"{cmd}_s": statistics.median(per_command(p, cmd) for p in passes)
                for cmd in COMMANDS})
    out["verify_max_s"] = statistics.median(
        per_command(p, "verify", max) for p in passes)
    out["job_max_s"] = statistics.median(max(j.time for j in p) for p in passes)
    jobs = [j for p in passes for j in p]
    out["failed_frac"] = sum(j.error is not None for j in jobs) / len(jobs)
    return out


# -- computed work counts ------------------------------------------------------------

_ROOT = re.compile(r"e\(-?\d+/(\d+)\)")


def document_work(text: str) -> tuple[int, int]:
    """(rank, largest conductor of any stored value) of a data document."""
    rank = int(_doc_field(text, "rank"))
    conductor = 1
    for key in ("s_tilde", "twists"):
        for value in re.split("[;,]", _doc_field(text, key)):
            n = 1
            for den in _ROOT.findall(value):
                n = math.lcm(n, int(den))
            conductor = max(conductor, n)
    return rank, conductor


def job_work(spec, ctx) -> dict:
    """Work counts computed from the job's own inputs, independent of timing."""
    argv = spec["argv"]
    for flag in ("--data", "--out"):  # construct's output is read after the pass
        if flag in argv:
            path = ctx["work"] / argv[argv.index(flag) + 1]
            try:
                rank, conductor = document_work(path.read_text(encoding="utf-8"))
            except (OSError, ValueError, TypeError):  # a failed job's output
                return {}
            return {"rank": rank, "conductor": conductor}
    if spec["cmd"] == "enumerate":
        return workloads.enumerate_work(**spec["bounds"])
    return {}


# -- per-layer metrics from the traced passes ---------------------------------------

SPAN_METRICS = (
    "cli.verify_all.self_s",
    "serialization.parse.calls", "serialization.parse.self_s",
    "serialization.serialize.calls", "serialization.serialize.self_s",
    "serialization.parse_gram_text.self_s",
    "moddata.gauss_data.calls", "moddata.gauss_data.self_s",
    "moddata.check_unitarity.self_s", "moddata.verlinde_fusion.self_s",
    "moddata.check_modular_relations.self_s",
    "moddata.from_lattice.calls", "moddata.from_lattice.self_s",
    "moddata.canonical_form.calls", "moddata.canonical_form.self_s",
    "moddata.colored_link_invariant.self_s", "moddata.fusion_probabilities.self_s",
    "lattice.check_gram.calls", "lattice.check_gram.self_s",
    "lattice.smith_normal_form.self_s",
    "lattice.discriminant_group.calls", "lattice.discriminant_group.self_s",
    "lattice.quadratic_mod2.calls",
    "enumeration.generate_gram_matrices.self_s", "enumeration.classify.self_s",
    "cyclo.dot.calls", "cyclo.dot.self_s", "cyclo.mul.calls", "cyclo.mul.self_s",
    "cyclo.inverse.calls", "cyclo.inverse.self_s", "cyclo.minimal.calls",
    "cyclo.minimal.self_s", "cyclo.format_value.calls", "cyclo.format_value.self_s",
    "cyclo.parse_value.calls", "cyclo.parse_value.self_s", "cyclo.sum_values.calls",
    "cyclo.root_of_unity.calls",
)
COUNTERS = ("cyclo.dot.terms", "cyclo.max_conductor",
            "serialization.parse.bytes", "serialization.serialize.bytes")


def _span(job: Job, name: str, field: str) -> float:
    value = job.trace["spans"].get(name, {}).get(field, 0) if job.trace else 0
    return value * job.scale if field.endswith("_s") else value


def _share(jobs, names) -> float:
    whole = sum(_span(j, "cli.main", "total_s") for j in jobs)
    part = sum(_span(j, n, "total_s") for j in jobs for n in names)
    return part / whole if whole else 0.0


def layer_metrics(traced_pass, ctx) -> dict:
    jobs = [j for j in traced_pass if j.trace is not None]
    out = {}
    for metric in SPAN_METRICS:
        name, field = metric.rsplit(".", 1)
        out[metric] = sum(_span(j, name, "self_s" if field == "self_s" else field)
                          for j in jobs)
    for counter in COUNTERS:
        values = [j.trace["counters"][counter] for j in jobs]
        out[counter] = max(values, default=0) if counter == "cyclo.max_conductor" else sum(values)
    out["cli.import_s"] = statistics.median(j.trace["import_s"] * j.scale for j in jobs)
    for cmd in COMMANDS:
        out[f"cli.main.{cmd}_s"] = sum(_span(j, "cli.main", "total_s")
                                       for j in jobs if j.spec["cmd"] == cmd)
    verifies = [j for j in jobs if j.spec["cmd"] == "verify"]
    out["moddata.gauss_data.calls_per_verify"] = (
        sum(_span(j, "moddata.gauss_data", "calls") for j in verifies) / len(verifies)
        if verifies else 0.0)
    out["moddata.verlinde_relations.verify_share"] = _share(
        verifies, ("moddata.verlinde_fusion", "moddata.check_modular_relations"))
    by_id = {j.spec["id"]: j for j in jobs}
    deep, wide = by_id.get("enumerate.deep"), by_id.get("enumerate.wide")
    out["moddata.canonical_form.deep_share"] = _share(
        [deep] if deep else [], ("moddata.canonical_form",))
    out["moddata.from_lattice_lattice.wide_share"] = _share(
        [wide] if wide else [], ("moddata.from_lattice", "lattice.check_gram"))

    works = [ctx["work_counts"][j.spec["id"]] for j in traced_pass]
    out["job.max_rank"] = max((w.get("rank", 0) for w in works), default=0)
    out["job.max_conductor"] = max((w.get("conductor", 0) for w in works), default=0)
    enum = [w for w in works if "candidates" in w]
    out["moddata.canonical_form.perms"] = sum(w["perms"] for w in enum)
    out["enumeration.candidates"] = sum(w["candidates"] for w in enum)
    out["enumeration.matrices"] = sum(w["matrices"] for w in enum)
    out["enumeration.kept_ratio"] = (out["enumeration.matrices"] / out["enumeration.candidates"]
                                     if enum else 0.0)
    out["enumeration.classes"] = sum(j.stdout.count("    class ") for j in traced_pass
                                     if j.spec["cmd"] == "enumerate")
    calls = out["moddata.canonical_form.calls"]
    out["enumeration.class_ratio"] = out["enumeration.classes"] / calls if calls else 0.0
    return out


LAYER_UNITS = {"_s": "s", "calls": "count", "terms": "count", "bytes": "bytes",
               "share": "fraction", "ratio": "fraction", "frac": "fraction",
               "slowdown": "ratio"}


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


# -- running a workload ---------------------------------------------------------------

def setup(ctx, workload: str, seed: int) -> tuple[float, float]:
    """Write the inputs and import the CLI once, SETUP_REPEATS times, from
    fresh interpreters. Returns the median repetition time at the reference
    host speed, and the raw median."""
    gen = [sys.executable, str(BENCH_DIR / "gen.py"), workload, str(seed), str(ctx["work"])]
    probe = [sys.executable, "-c", "import pointedcat.cli as c; print(c.__file__)"]
    raw, scaled = [], []
    before = reference()
    for _ in range(SETUP_REPEATS):
        total = 0.0
        for argv in (gen, probe):
            wall, _, code, stdout, stderr, overrun = run_child(
                argv, ctx["work"], ctx["env"], JOB_TIMEOUT_S, "setup")
            if code != 0 or overrun:
                raise SystemExit(f"set-up step {argv[1]} failed: {stderr.strip()[-500:]}")
            total += wall
        after = reference()
        raw.append(total)
        scaled.append(total * REF_NOMINAL_S / ((before + after) / 2))
        before = after
    imported = Path(stdout.strip()).resolve()
    if ctx["root"] / "src" not in imported.parents:
        raise SystemExit(f"pointedcat was imported from {imported}, not from ./src")
    return statistics.median(scaled), statistics.median(raw)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One CPU for this process and every child: the reference loop then
    # samples the speed of the core the jobs run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    root = Path.cwd().resolve()
    if not (root / "src" / "pointedcat" / "cli.py").is_file():
        sys.stderr.write("error: run from a pointedcat checkout (no src/pointedcat/cli.py)\n")
        return 2
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    ctx = {"root": root, "work": work, "env": env,
           "deadline": time.perf_counter() + RUN_DEADLINE_S,
           "expected": json.loads((BENCH_DIR / "expected.json").read_text(encoding="utf-8"))}
    try:
        return measure(args, ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it


def measure(args, ctx) -> int:
    setup_s, setup_raw = setup(ctx, args.workload, args.seed)
    specs = workloads.jobs(args.workload, args.seed)
    n_passes = max(2, round(args.seconds / NOMINAL_PASS_S[args.workload]))
    plain, traced = [], []
    for index in range(n_passes):
        trace_this = bool(args.trace) and index % 2 == 1
        (traced if trace_this else plain).append(run_pass(specs, ctx, trace_this))
    ctx["work_counts"] = {spec["id"]: job_work(spec, ctx) for spec in specs}

    everything = [j for p in plain + traced for j in p]
    failed = [j for j in everything if j.error is not None]
    for j in failed:
        sys.stderr.write(f"FAILED {j.spec['id']}: {j.error}\n")

    slowdown = [statistics.fmean(1 / j.scale for j in p) for p in plain + traced]
    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced passes of {len(specs)} jobs; host slowdown per pass "
          + ", ".join(f"{x:.3f}" for x in slowdown) + f"; raw set-up {setup_raw:.4f} s")
    for spec in specs:
        mine = [j for p in plain for j in p if j.spec is spec]
        work = " ".join(f"{k}={v}" for k, v in ctx["work_counts"][spec["id"]].items())
        print(f"  job {spec['id']:<22} "
              f"time {statistics.median(j.time for j in mine):8.3f} s  "
              f"raw wall {statistics.median(j.wall for j in mine):8.3f} s  "
              f"raw cpu {statistics.median(j.cpu for j in mine):8.3f} s  computed: {work}")
    e2e, note = end_to_end(plain, setup_s)
    per_cmd = command_totals(plain)
    units = {**END_TO_END, **{k: ("fraction" if k == "failed_frac" else "s") for k in per_cmd}}
    for name, value in {**e2e, **per_cmd}.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(note)

    if args.trace:
        per_pass = [layer_metrics(p, ctx) for p in traced]
        layers = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        layers.update(per_cmd)
        untraced = statistics.median(sum(j.time for j in p) for p in plain)
        layers["trace.overhead_frac"] = statistics.median(
            sum(j.time for j in p) for p in traced) / untraced - 1
        layers["bench.host_slowdown"] = statistics.median(slowdown)
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in layers.items()}
        for name, m in metrics.items():
            print(f"{name} {m['value']:.6g} {m['unit']}")
    else:
        metrics = {name: {"value": value, "unit": END_TO_END[name]} for name, value in e2e.items()}
    print(json.dumps({"correct": not failed, "attempted": len(everything),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
