"""factorrace benchmark: one workload, measured end to end or traced by layer.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root.  Every sample is a fresh interpreter running
`factorrace.cli.main(argv)` (see sample.py) into an empty output directory.

--trace 0  runs samples back to back (closed loop, one at a time) until
           another sample would end after S seconds, at least two, then
           three set-up-only samples, and reports the end-to-end metrics:
           wall_s, cpu_s and peak_rss_mb (medians over the samples) and
           setup_s (median over all samples, set-up-only ones included).
--trace 1  runs one untraced and one traced sample plus the isolated layer
           probes (probes.py), and reports the per-layer metrics.

Every output file is checked: the first sample that completed against the
independent oracles (oracle.py), every other sample byte for byte against
the first.  A sample fails on a non-zero exit or a failed check; the
timings of completed samples count either way.  The last
line of standard output is the JSON result; the lines before it give each
metric with its unit, the error rate and the environment stamp, which is
also written with the full sample records to benchmarks/.work/.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
sys.path.insert(0, SRC)

from workloads import WORKLOADS, instance  # noqa: E402

MIN_SAMPLES = 2
SETUP_SPAWNS = 3
SAMPLE_TIMEOUT_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER_UNITS = {
    "cli.sieve_s": "s",
    "cli.zeros_s": "s",
    "cli.compare_s": "s",
    "cli.density_s": "s",
    "cli.bytes_out": "bytes",
    "sieve.passes": "count",
    "sieve.pass_s": "s",
    "sieve.kernel_nps": "n/s",
    "sieve.density_fold_s": "s",
    "sieve.class_fold_s": "s",
    "sieve.twist_calls": "count",
    "sieve.twist_s": "s",
    "sieve.write_s": "s",
    "characters.root_number_calls": "count",
    "characters.root_number_s": "s",
    "lfunction.l_value_calls": "count",
    "lfunction.l_value_s": "s",
    "lfunction.l_value_us": "us",
    "lfunction.probe_us": "us",
    "zeros.scan_s": "s",
    "zeros.found": "count",
    "zeros.evals_per_zero": "evals/zero",
    "zero_residual_max": "1",
    "prediction.predict_calls": "count",
    "prediction.predict_s": "s",
    "density.mc_s": "s",
    "density.mc_trials": "count",
    "trace.overhead_s": "s",
}


class Sample:
    """One spawned sample: its timings, exit status and output directory."""

    def __init__(self, out: str, marks: dict, rusage, exit_code: int, t_spawn: float):
        self.out = out
        self.exit_code = exit_code
        began, ended = "t_cmd" in marks, "t_end" in marks and "t_cmd" in marks
        self.setup_s = marks["t_cmd"] - t_spawn if began else None
        self.wall_s = marks["t_end"] - marks["t_cmd"] if ended else None
        self.cpu_s = marks["cpu_end"] - marks["cpu_cmd"] if ended else None
        # wait4's ru_maxrss already covers the descendants the sample waited for
        self.peak_rss_mb = rusage.ru_maxrss / 1024.0
        self.failures: list[str] = []

    @property
    def ran(self) -> bool:
        """The command completed, so its timings exist (its outputs may still be wrong)."""
        return self.exit_code == 0 and self.wall_s is not None

    @property
    def ok(self) -> bool:
        return self.ran and not self.failures

    def record(self) -> dict:
        fields = ("out", "exit_code", "setup_s", "wall_s", "cpu_s", "peak_rss_mb", "failures")
        return {k: getattr(self, k) for k in fields}


def spawn(inst, out: str, *opts: str) -> Sample:
    """Run sample.py once in a fresh interpreter and wait for it to end."""
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    marks_path = out + ".marks.json"
    if os.path.exists(marks_path):
        os.unlink(marks_path)
    cmd = [sys.executable, os.path.join(HERE, "sample.py"), marks_path, *opts, "--", *inst.argv(out)]
    with open(out + ".log", "w", encoding="utf-8") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(SAMPLE_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, rusage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    marks = {}
    if os.path.exists(marks_path):
        with open(marks_path, encoding="utf-8") as fh:
            marks = json.load(fh)
    return Sample(out, marks, rusage, proc.returncode, t_spawn)


def same_outputs(a: str, b: str) -> list[str]:
    names_a, names_b = sorted(os.listdir(a)), sorted(os.listdir(b))
    if names_a != names_b:
        return [f"output files {names_b} differ from {names_a}"]
    _, mismatch, errors = filecmp.cmpfiles(a, b, names_a, shallow=False)
    return [f"{name} differs from the checked sample" for name in mismatch + errors]


def check_samples(inst, samples: list[Sample]) -> None:
    """Oracle-check the first sample that ran; byte-compare the others to it."""
    import oracle

    ran = [s for s in samples if s.ran]
    for s in samples:
        if s.exit_code != 0:
            s.failures.append(f"exit code {s.exit_code}")
        elif not s.ran:
            s.failures.append("the command never began: configuration resolution was not reached")
    if not ran:
        return
    first = ran[0]
    first.failures += oracle.check(inst, first.out)
    for s in ran[1:]:
        s.failures += first.failures or same_outputs(first.out, s.out)


def percentile_tail(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile that has at least ten samples beyond it, if any."""
    n = len(values)
    if n < 11:
        return None
    p = 100.0 * (n - 10) / n
    return p, sorted(values)[n - 11]


def zero_residual_max(out: str) -> float:
    worst = 0.0
    for name in os.listdir(out):
        if name.startswith("zeros_") and name.endswith(".csv"):
            with open(os.path.join(out, name), encoding="utf-8") as fh:
                for line in fh.read().splitlines()[2:]:
                    worst = max(worst, float(line.rsplit(",", 1)[1]))
    return worst


def bytes_out(out: str) -> int:
    return sum(os.path.getsize(os.path.join(out, n)) for n in os.listdir(out) if n.endswith(".csv"))


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(inst) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "git_commit": git_commit(),
        "workload": inst.name,
        "seed": inst.seed,
        "argv": inst.argv("<out>"),
    }


def measure(inst, seconds: float) -> tuple[list[Sample], dict, dict]:
    base = os.path.join(WORK, inst.name)
    samples: list[Sample] = []
    t_begin = time.monotonic()
    while True:
        samples.append(spawn(inst, os.path.join(base, f"sample{len(samples)}")))
        elapsed = time.monotonic() - t_begin
        if len(samples) >= MIN_SAMPLES and elapsed * (len(samples) + 1) / len(samples) > seconds:
            break
    setups = [spawn(inst, os.path.join(base, f"setup{k}"), "--setup-only") for k in range(SETUP_SPAWNS)]
    check_samples(inst, samples)
    ran = [s for s in samples if s.ran]
    setup_values = [s.setup_s for s in samples + setups if s.setup_s is not None]
    metrics = {}
    if ran:
        metrics = {
            "wall_s": statistics.median(s.wall_s for s in ran),
            "cpu_s": statistics.median(s.cpu_s for s in ran),
            "peak_rss_mb": statistics.median(s.peak_rss_mb for s in ran),
            "setup_s": statistics.median(setup_values),
        }
    extra = {
        "samples": len(ran),
        "wall_tail": percentile_tail([s.wall_s for s in ran]),
        "setup_samples": len(setup_values),
        "setup_only": [s.record() for s in setups],
    }
    return samples, metrics, extra


def run_probes(inst, smoke: bool) -> tuple[dict, str | None]:
    """Run probes.py in its own process; return its metrics, or an error message."""
    cmd = [sys.executable, os.path.join(HERE, "probes.py"), inst.name, str(inst.seed)]
    if smoke:
        cmd.append("--smoke")
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {}, f"probes timed out after {SAMPLE_TIMEOUT_S:.0f} s"
    if done.returncode != 0:
        return {}, f"probes exited with code {done.returncode}: {done.stderr.strip()[-2000:]}"
    return json.loads(done.stdout.strip().splitlines()[-1]), None


def measure_layers(inst, smoke: bool) -> tuple[list[Sample], dict, dict]:
    from tracer import layer_metrics, span_cost_s

    base = os.path.join(WORK, inst.name)
    spans_path = os.path.join(WORK, f"spans_{inst.name}_{inst.seed}.json")
    plain = spawn(inst, os.path.join(base, "plain"))
    traced = spawn(inst, os.path.join(base, "traced"), "--trace", spans_path)
    samples = [plain, traced]
    check_samples(inst, samples)
    probes, probe_error = run_probes(inst, smoke)
    metrics = {}
    extra = {"spans_file": os.path.relpath(spans_path, ROOT), "probe_error": probe_error}
    if plain.ran and traced.ran:
        with open(spans_path, encoding="utf-8") as fh:
            spans = json.load(fh)["spans"]
        metrics = layer_metrics(spans)
        metrics.update(probes)
        metrics["cli.bytes_out"] = bytes_out(plain.out)
        metrics["zero_residual_max"] = zero_residual_max(plain.out)
        per_span = span_cost_s()
        metrics["trace.overhead_s"] = len(spans) * per_span
        extra.update(spans=len(spans), span_cost_us=1e6 * per_span, wall_diff_s=traced.wall_s - plain.wall_s)
    return samples, metrics, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for testing the benchmark itself")
    args = ap.parse_args(argv)

    if not os.path.exists(os.path.join(SRC, "factorrace", "cli.py")):
        print(f"error: no factorrace sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    inst = instance(args.workload, args.seed, smoke=args.smoke)
    os.makedirs(WORK, exist_ok=True)
    shutil.rmtree(os.path.join(WORK, inst.name), ignore_errors=True)
    os.makedirs(os.path.join(WORK, inst.name))

    if args.trace:
        samples, metrics, extra = measure_layers(inst, args.smoke)
        units = PER_LAYER_UNITS
    else:
        samples, metrics, extra = measure(inst, args.seconds)
        units = END_TO_END_UNITS
    attempted = len(samples)
    failed = sum(not s.ok for s in samples)
    if args.trace:
        attempted += 1  # the probe process
        failed += extra["probe_error"] is not None
    env = environment(inst)
    record = {"env": env, "metrics": metrics, "extra": extra, "samples": [s.record() for s in samples]}
    record_path = os.path.join(WORK, f"result_{inst.name}_{inst.seed}_trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for s in samples:
        for msg in s.failures:
            print(f"FAIL {os.path.basename(s.out)}: {msg}")
    if not metrics:
        print("error: no sample completed; see benchmarks/.work/", file=sys.stderr)
        return 1
    print(f"env {json.dumps(env)}")
    units = {name: unit for name, unit in units.items() if name in metrics}  # probes may have failed
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    if not args.trace:
        tail = extra["wall_tail"]
        tail_text = f"p{tail[0]:.1f} = {tail[1]:.6g} s" if tail else "no percentile has ten samples beyond it"
        print(f"wall_s samples = {extra['samples']}; tail: {tail_text}")
        print(f"setup_s samples = {extra['setup_samples']}")
    else:
        if extra["probe_error"] is not None:
            print(f"FAIL probes: {extra['probe_error']}")
        print(
            f"trace.overhead_s is {extra['spans']} spans x {extra['span_cost_us']:.3g} us per span; "
            f"traced minus untraced wall_s of this run = {extra['wall_diff_s']:+.3g} s "
            "(one pair, below the per-sample noise)"
        )
        print(f"spans in {extra['spans_file']}")
    print(f"error_rate = {failed / attempted:.6g} ({failed} of {attempted} attempted failed)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
