"""noisy-control benchmark: one workload, timed end to end or traced by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from ``src/`` of the checkout; a directory without it
is refused with exit code 2 before anything runs.  ``NOISY_CONTROL_THREADS``
is cleared, so sampling runs single-threaded, and BLAS keeps its default
thread count.

Both modes first time the set-up (import plus ``build``) in
``SETUP_REPEATS`` fresh processes, then regenerate the committed configs at
seed 0 and count the files that differ from the committed ``out/``.  After
one untimed warm-up round, the timed phase runs whole rounds of the
workload's tasks for ``--seconds`` (and at least until ten tasks lie beyond
the tail percentile).

* ``--trace 0`` prints the end-to-end metrics of untraced rounds.
* ``--trace 1`` alternates untraced and traced rounds (``tracing.Tracer``)
  and prints the per-layer metrics of the traced ones; the tracing overhead
  is the difference of their median round times.  The traced run fails if a
  predicted-idle layer was called or a predicted heavy one was not.

Every task's verdict is checked, and a sha256 digest of each round's outputs
must be the same in every round, traced or not.  The last line of standard
output is the JSON result; the line before it holds the details (machine,
digests, tail level, layer table).  The exit code is 0 only when everything
was correct.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5

# ROADMAP baseline per call at 20k paths x 384 steps, for comparison
BASELINE_PATH_STEPS = 20000 * 384
ROADMAP_BASELINE_S = {"simulate_state": 0.75, "sample_ensemble": 0.7}

SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
workloads.WORKLOADS[{name!r}].build({seed})
print(time.perf_counter() - t0)
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def git_commit():
    """The checked-out commit, read from .git without running git (None if absent)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(np, threads_before):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "NOISY_CONTROL_THREADS": {"cleared": True, "was": threads_before},
        "commit": git_commit(),
        "platform": platform.platform(),
    }


def time_setup(name, seed):
    """Import plus build, each in a fresh interpreter; returns the seconds of each."""
    code = SETUP_CHILD.format(src=SRC, bench=BENCH, name=name, seed=seed)
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=os.environ.copy(),
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


def out_files_differing(workloads):
    """Regenerate each committed config at its seed and diff against out/.

    Outputs are written to a scratch directory, while the report keeps the
    committed output directory, so the bytes are what `noisy-control run`
    writes.  Returns (differing files, files compared), or (None, 0) when the
    checkout has no committed out/.
    """
    cli = workloads.cli
    differing, compared = [], 0
    for name in workloads.CONFIG_NAMES:
        cfg = cli.load_config(os.path.join("configs", name + ".ini"))
        committed = cfg["output"]["directory"]
        if not os.path.isdir(committed):
            return None, 0
        report, _, artifacts = cli.run_scenario(cfg)
        target = os.path.join(workloads.SCRATCH, "ref", name)
        cli.write_outputs(dict(cfg, output=dict(cfg["output"], directory=target)),
                          report, artifacts)
        for fname in workloads.OUTPUT_FILES:
            new, old = os.path.join(target, fname), os.path.join(committed, fname)
            if not (os.path.exists(new) or os.path.exists(old)):
                continue
            compared += 1
            if _read(new) != _read(old):
                differing.append("%s/%s" % (name, fname))
    return differing, compared


def _read(path):
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return fh.read()


def digest(records):
    """sha256 over (task name, record) in name order; floats as exact repr."""
    h = hashlib.sha256()
    for name, record in sorted(records, key=lambda r: r[0]):
        h.update(name.encode() + b"\0")
        for value in record:
            if isinstance(value, bytes):
                h.update(b"%d:" % len(value) + value)
            elif isinstance(value, str):
                h.update(value.encode())
            else:
                h.update(repr(float(value)).encode())
            h.update(b"\0")
    return h.hexdigest()


def run_round(tasks, tracer):
    ctx = {}
    latencies, records, failed = [], [], []
    start = time.perf_counter()
    for name, fn in tasks:
        t0 = time.perf_counter()
        try:
            passed, record = tracer.run_task(name, fn, ctx) if tracer else fn(ctx)
        except Exception:
            traceback.print_exc()
            passed, record = False, ("raised",)
        latencies.append(time.perf_counter() - t0)
        records.append((name, record))
        if not passed:
            failed.append(name)
    return {"wall_s": time.perf_counter() - start, "latencies": latencies,
            "failed": failed, "digest": digest(records)}


def min_rounds_for_tail(level, tasks_per_round):
    """Rounds needed so that at least ten tasks lie beyond the `level` percentile."""
    need = -(-10 * 100 // (100 - level))
    return -(-need // tasks_per_round)


def end_to_end(workload, rounds, setup_times):
    latencies = [x for r in rounds for x in r["latencies"]]
    tail = statistics.quantiles(latencies, n=100, method="inclusive")[workload.tail_level - 1]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in rounds), "s"),
        "task_p50_s": (statistics.median(latencies), "s"),
        "task_tail_s": (tail, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {"tasks": len(latencies), "tail_level": workload.tail_level,
              "tasks_beyond_tail": sum(1 for x in latencies if x > tail)}
    return metrics, detail


def per_layer(workload, table, setup_table, traced, untraced):
    """Per-layer metrics of the traced rounds; counts and seconds are per round."""
    import tracing

    n = len(traced)
    wall = sum(r["wall_s"] for r in traced)
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}

    def row(name):
        return table.get(name, empty)

    metrics = {}
    functions = [name for name in tracing.TARGETS if not name.startswith("scenarios.")]
    for name in functions:
        metrics[name + ".calls"] = (row(name)["calls"] / n, "count")
    for name in functions:
        metrics[name + ".busy_share"] = (row(name)["busy_s"] / wall, "share")
    for name in ("dynamics.simulate_state", "dynamics.evaluate_performance",
                 "maxprinciple.directional_derivative_K",
                 "maxprinciple.finite_difference_derivative", "adjoint.solve_absde_2d",
                 "malliavin.duality_check", "cli.run_scenario"):
        metrics[name + ".self_share"] = (row(name)["self_s"] / wall, "share")
    for name in ("paths.sample_ensemble", "dynamics.simulate_state",
                 "maxprinciple.derivative_process", "adjoint.solve_absde_2d"):
        metrics[name + ".path_steps"] = (row(name).get("path_steps", 0) / n, "count")
    metrics["paths.sample_ensemble.jump_marks"] = (
        row("paths.sample_ensemble").get("jump_marks", 0) / n, "count")

    # layers every workload calls, so their seconds and rates are never empty
    sample, simulate = row("paths.sample_ensemble"), row("dynamics.simulate_state")
    metrics["paths.sample_ensemble.busy_s"] = (sample["busy_s"] / n, "s")
    metrics["dynamics.simulate_state.busy_s"] = (simulate["busy_s"] / n, "s")
    metrics["dynamics.simulate_state.self_s"] = (simulate["self_s"] / n, "s")
    metrics["adjoint.solve_linear_closed_form.busy_s"] = (
        row("adjoint.solve_linear_closed_form")["busy_s"] / n, "s")
    metrics["paths.sample_ensemble.path_steps_per_s"] = (
        sample["path_steps"] / sample["self_s"], "1/s")
    metrics["dynamics.simulate_state.path_steps_per_s"] = (
        simulate["path_steps"] / simulate["self_s"], "1/s")
    metrics["baseline.sample_ensemble_s_20kx384"] = (
        sample["busy_s"] / sample["path_steps"] * BASELINE_PATH_STEPS, "s")
    metrics["baseline.simulate_state_s_20kx384"] = (
        simulate["busy_s"] / simulate["path_steps"] * BASELINE_PATH_STEPS, "s")

    module_self = {m: 0.0 for m in tracing.MODULES}
    for name, r in table.items():
        module = name.split(".")[0]
        if module in module_self:
            module_self[module] += r["self_s"]
    for module, seconds in module_self.items():
        metrics["module.%s.self_share" % module] = (seconds / wall, "share")
    metrics["module.bench.self_share"] = (row("task")["self_s"] / wall, "share")
    metrics["layer_map.heavy_self_share"] = (
        sum(module_self[m] for m in workload.heavy_modules) / wall, "share")

    build = setup_table["task"]["busy_s"]
    factories = sum(r["busy_s"] for k, r in setup_table.items() if k.startswith("scenarios."))
    metrics["setup.build_s"] = (build, "s")
    metrics["setup.scenarios_busy_share"] = (factories / build, "share")
    untraced_wall = statistics.median(r["wall_s"] for r in untraced)
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    metrics["trace.round_wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return metrics


def layer_map_violations(workload, table):
    out = ["idle layer %s was called %d times" % (name, table[name]["calls"])
           for name in workload.idle if table.get(name, {}).get("calls", 0)]
    out += ["heavy layer %s was never called" % name
            for name in workload.heavy if not table.get(name, {}).get("calls", 0)]
    return out


def layer_table(table, n_rounds):
    rows = {}
    for name, r in sorted(table.items()):
        rows[name] = {k: (v / n_rounds) for k, v in r.items()}
        if r.get("path_steps"):
            rows[name]["path_steps_per_self_s"] = r["path_steps"] / r["self_s"]
    return rows


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "noisy_control", "__init__.py")) \
            or not os.path.isdir(os.path.join(ROOT, "configs")):
        print("perfbench: %s holds no noisy_control sources (src/) and configs/" % ROOT,
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    threads_before = os.environ.pop("NOISY_CONTROL_THREADS", None)
    sys.path[:0] = [SRC, BENCH]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print("perfbench: unknown workload %r (known: %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    import noisy_control
    import numpy as np

    if not os.path.abspath(noisy_control.__file__).startswith(SRC + os.sep):
        print("perfbench: imported noisy_control from %s, not from %s"
              % (noisy_control.__file__, SRC), file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    problems = []
    try:
        setup_times = time_setup(workload.name, args.seed)
        fixture = workload.build(args.seed)
        differing, compared = out_files_differing(workloads)
        tasks = workload.tasks(fixture)
        min_rounds = min_rounds_for_tail(workload.tail_level, len(tasks))
        spec = load_spec()
        why = [w["why"] for w in spec["workloads"] if w["name"] == workload.name]
        detail = {"workload": workload.name, "why": why[0] if why else None, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "environment": environment(np, threads_before),
                  "setup_s_each": setup_times, "tasks_per_round": len(tasks),
                  "out_files_differing": differing, "out_files_compared": compared,
                  "wait_s": "not recorded: nothing in the package waits on another thread"}
        # one untimed round first, so that caches fill and lazy set-up finishes;
        # its verdicts and digest are checked like every other round's
        warmup = run_round(tasks, None)
        if args.trace == 0:
            # closed loop: whole rounds until the time is up and the tail has
            # ten tasks beyond it
            rounds = []
            start = time.perf_counter()
            while len(rounds) < min_rounds or time.perf_counter() - start < args.seconds:
                rounds.append(run_round(tasks, None))
            metrics, extra = end_to_end(workload, rounds, setup_times)
            detail.update(extra)
            all_rounds = [warmup] + rounds
        else:
            import tracing

            tracer = tracing.Tracer()
            with tracer.installed():
                fixture = tracer.run_task("setup", workload.build, args.seed)
            setup_table = tracer.summary()
            tracer.spans = []
            traced_tasks = workload.tasks(fixture)
            # alternate untraced and traced rounds, so both see the same machine
            untraced, traced = [], []
            start = time.perf_counter()
            while len(traced) < 2 or time.perf_counter() - start < args.seconds:
                untraced.append(run_round(tasks, None))
                with tracer.installed():
                    traced.append(run_round(traced_tasks, tracer))
            table = tracer.summary()
            problems += layer_map_violations(workload, table)
            metrics = per_layer(workload, table, setup_table, traced, untraced)
            detail.update({
                "untraced_rounds": len(untraced), "traced_rounds": len(traced),
                "roadmap_baseline_s_20kx384": ROADMAP_BASELINE_S,
                "heavy": workload.heavy, "idle": workload.idle,
                "heavy_modules": workload.heavy_modules,
                "layers_per_round": layer_table(table, len(traced)),
            })
            all_rounds = [warmup] + untraced + traced
    finally:
        shutil.rmtree(workloads.SCRATCH, ignore_errors=True)

    digests = sorted({r["digest"] for r in all_rounds})
    if len(digests) != 1:
        problems.append("round outputs differ between repeats: %s" % digests)
    failed = [name for r in all_rounds for name in r["failed"]]
    if failed:
        problems.append("failed tasks: %s" % sorted(set(failed)))
    names = [m["name"] for m in spec["end_to_end" if args.trace == 0 else "per_layer"]]
    if sorted(names) != sorted(metrics):
        problems.append("metrics printed differ from BENCHMARK.json: %s"
                        % sorted(set(names) ^ set(metrics)))
    detail.update({"rounds": len(all_rounds), "round_wall_s": [r["wall_s"] for r in all_rounds],
                   "digest": digests[0] if len(digests) == 1 else digests,
                   "problems": problems})
    if differing is not None:
        print("perfbench: %d of %d out/ files differ from a seed-0 regeneration: %s"
              % (len(differing), compared, ", ".join(differing)), file=sys.stderr)
    for problem in problems:
        print("perfbench: " + problem, file=sys.stderr)
    attempted = sum(len(r["latencies"]) for r in all_rounds)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
