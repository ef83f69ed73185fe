"""Benchmark of jtcqed's three pipeline shapes.

    python3 perfbench/run.py --workload spectrum --seed 1 --seconds 15 --trace 0

Runs one workload (spectrum, transient or eigenscan) through the public CLI
path, ``jtcqed.cli.execute`` on configs generated from ``--seed``, in whole
rounds until ``--seconds`` have passed, then checks every output against the
benchmark's own computations. The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``. Outputs, configs and the span record go to
``.perfbench_out/<workload>/`` under the repository root.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "slowest_run_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


def _since_process_start() -> float:
    """Seconds since this process started (Linux process start time)."""
    with open("/proc/self/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def run_round(cli, runs, out_dir, tracer=None) -> dict:
    """Execute every run of the workload once, serially."""
    durations, failed = [], set()
    cpu0 = _cpu_seconds()
    start = time.perf_counter()
    for name, cfg in runs:
        t0 = time.perf_counter()
        try:
            cli.execute(cfg, out_dir=out_dir)
        except Exception:  # a failing run is counted and reported, the round goes on
            traceback.print_exc(file=sys.stderr)
            failed.add(name)
        durations.append(time.perf_counter() - t0)
    wall = time.perf_counter() - start
    cpu = _cpu_seconds() - cpu0
    layers = tracer.layer_metrics() if tracer is not None else None
    digests = {
        name: _digest(os.path.join(out_dir, f"{name}.csv")) for name, _ in runs if name not in failed
    }
    return {
        "wall_s": wall,
        "slowest_run_s": max(durations),
        "cpu_s": cpu,
        "failed": failed,
        "digests": digests,
        "layers": layers,
    }


def run_window(cli, runs, out_dir, seconds, tracer=None) -> list[dict]:
    """Whole rounds until ``seconds`` have passed (at least one)."""
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.reset()
            with tracer.span("bench.round"):
                rounds.append(run_round(cli, runs, out_dir, tracer))
            rounds[-1]["spans"] = tracer.spans
        else:
            rounds.append(run_round(cli, runs, out_dir))
    return rounds


def verify(mappings, rounds, out_dir) -> list[str]:
    """Failures of the output checks; every round must give the same bytes."""
    import checks  # imported here so that its SciPy imports stay out of setup_s

    problems = []
    ok = {name for name, _ in mappings} - set().union(*(r["failed"] for r in rounds))
    for name, mapping in mappings:
        if name not in ok:
            continue
        digests = {r["digests"][name] for r in rounds}
        if len(digests) != 1:
            problems.append(f"{name}: CSV bytes differ between rounds")
        header, table = checks.read_csv(os.path.join(out_dir, f"{name}.csv"))
        for check, message in checks.check_run(mapping, header, table).items():
            status = "ok" if message is None else f"FAILED: {message}"
            print(f"check {name} {check}: {status}", file=sys.stderr)
            if message is not None:
                problems.append(f"{name} {check}: {message}")
        with open(os.path.join(out_dir, f"{name}.manifest.json")) as handle:
            if json.load(handle)["output"] != f"{name}.csv":
                problems.append(f"{name}: manifest names another output")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Set-up: import the package and resolve the workload's configs.
    from jtcqed import cli, config

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    out_dir = os.path.join(ROOT, ".perfbench_out", args.workload)
    config_dir = os.path.join(out_dir, "configs")
    os.makedirs(config_dir, exist_ok=True)
    mappings = workloads.generate(args.workload, args.seed)
    runs = []
    for name, mapping in mappings:
        path = os.path.join(config_dir, f"{name}.ini")
        with open(path, "w") as handle:
            handle.write(workloads.to_ini(mapping))
        runs.append((name, config.load_config(path)))
    setup_s = _since_process_start()

    for entry in os.listdir(out_dir):
        if entry != "configs":
            path = os.path.join(out_dir, entry)
            if os.path.isdir(path):
                shutil.rmtree(path)
            else:
                os.remove(path)
    with open(os.path.join(out_dir, "runs.json"), "w") as handle:
        json.dump({"seed": args.seed, "runs": mappings}, handle, indent=1)

    if tracer is not None:
        parse_s = tracer.total("config.load_config")
        traced = run_window(cli, runs, out_dir, args.seconds, tracer)
        tracer.uninstall()
        untraced = run_window(cli, runs, out_dir, args.seconds)
        rounds = traced + untraced
        layers = {
            name: statistics.median(r["layers"][name] for r in traced) for name in traced[0]["layers"]
        }
        layers["config.parse_s"] = parse_s
        layers["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced) - statistics.median(r["wall_s"] for r in untraced)
        )
        with open(os.path.join(out_dir, "trace.json"), "w") as handle:
            json.dump({"rounds": [r["spans"] for r in traced], "layers": layers}, handle)
        units = {name: "count" for name in layers}
        units.update({name: "s" for name in layers if name.endswith("_s")})
        units["cli.csv_bytes"] = "bytes"
        metrics = {name: {"value": value, "unit": units[name]} for name, value in sorted(layers.items())}
    else:
        rounds = run_window(cli, runs, out_dir, args.seconds)
        values = {
            name: statistics.median(r[name] for r in rounds) for name in ("wall_s", "slowest_run_s", "cpu_s")
        }
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}

    problems = verify(mappings, rounds, out_dir)
    for problem in problems:
        print(f"incorrect: {problem}", file=sys.stderr)
    for name, digest in sorted(rounds[0]["digests"].items()):
        print(f"sha256 {name}.csv {digest}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    attempted = len(rounds) * len(runs)
    failed = sum(len(r["failed"]) for r in rounds)
    print(f"rounds {len(rounds)}, runs attempted {attempted}, failed {failed}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
