"""Layered benchmark of the evholo pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the workload's inputs from the seed,
runs it as a closed loop (one client, one operation at a time), checks every
output, and prints the metrics by name and unit. The last line of standard
output is one JSON object: correct, attempted, failed and metrics.

--trace 0 measures the end-to-end metrics: operations and whole-process CLI
runs interleaved, no spans. --trace 1 alternates traced and untraced
operations and reports per-layer span medians plus the tracing overhead.
See perfbench/README.md for the workloads and metrics.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import datetime  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import NULL, Tracer  # noqa: E402

# One compute thread per library call; the 2-worker encode is the only
# place that uses both cores.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# Wall times on a shared host are bimodal (neighbours contending for the
# cores slow an operation by up to ~1.8x), and the share of contended time
# changes from run to run. A percentile jumps between the modes when that
# share crosses it; a mean moves in proportion to it. So the gated timings
# are means (events_per_s, cli_ms_mean); see README.md.
MIN_OPS = 20
MIN_CLI = 10
CLI_SHARE = 0.3  # share of the measured time given to whole-process CLI runs
SIDE_REPS = 7  # set-ups (trace 0) or import samples (trace 1), spread over the run
CLI_TIMEOUT_S = 60.0
LOOP_CAP_S = 120.0

END_TO_END = {  # name -> unit
    "events_per_s": "events/s",
    "cli_ms_mean": "ms",
    "cli_rss_mb": "MB",
    "peak_alloc_mb": "MB",
    "setup_s": "s",
}
SPAN_LAYERS = (
    "events.parse_binary", "events.parse_csv", "events.validate", "events.write_binary",
    "encode.encode_chsr", "encode.encode_chsr_2w",
    "spectral.rate_series", "spectral.dominant_frequency",
    "gsg.forward", "gsg.grad_spectral_weight",
    "gsg.depthwise_conv", "gsg.spectral_filter", "gsg.gated_reconstruction",
    "tensorio.write_tensor",
)
COUNT_LAYERS = ("events.events_in", "events.bytes_in", "events.bytes_out", "tensorio.bytes_out")
PER_LAYER = {
    **{f"{name}_ms": "ms" for name in SPAN_LAYERS},
    **{name: "count" for name in COUNT_LAYERS},
    "cli.import_ms": "ms",
    "bench.op_self_ms": "ms",
    "bench.trace_overhead_pct": "%",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="shrunken inputs and minimum counts, for the self-tests only")
    return ap.parse_args(argv)


def run_child(argv, cwd) -> tuple[int, float, float, str, str]:
    """Run one process to its end; return (exit code, wall s, peak RSS MB, stdout, stderr).

    The wall time runs from spawn to exit. The peak RSS comes from the
    child's own rusage, collected with wait4.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out_path, err_path = Path(cwd) / "child.out", Path(cwd) / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=cwd, env=env)
        timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_maxrss * 1024 / 1e6,
            out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))


def import_seconds(cwd) -> float:
    """Whole-process time of ``python -c "import evholo.cli"``."""
    code, wall, _, _, err = run_child([sys.executable, "-c", "import evholo.cli"], cwd)
    if code != 0:
        raise RuntimeError(f"import evholo.cli failed: {err.strip()}")
    return wall


def environment(seed: int, workload: str, started: str) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    rev, dirty = "unknown", None
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=git_env,
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            rev = r.stdout.strip()
            s = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                               cwd=ROOT, env=git_env, capture_output=True, text=True,
                               timeout=10)
            dirty = bool(s.stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu, "git_rev": rev, "git_dirty": dirty,
        "workload": workload, "seed": seed, "start_time": started,
    }


def percentile(sorted_vals, pct):
    """Nearest-rank percentile of a non-empty ascending list."""
    return sorted_vals[max(1, -(-len(sorted_vals) * pct // 100)) - 1]


def tail(sorted_vals):
    """(pct, value, values beyond it) for the highest whole percentile that
    still has at least 10 values beyond it; the maximum when there are too few."""
    n = len(sorted_vals)
    if n <= 10:
        return 100, sorted_vals[-1], 0
    pct = 100 * (n - 10) // n
    k = -(-n * pct // 100)
    return pct, sorted_vals[k - 1], n - k


class Loop:
    """The closed loop: one operation, CLI run or side task at a time."""

    def __init__(self, wl, workdir, min_ops, min_cli):
        self.wl, self.workdir = wl, workdir
        self.min_ops, self.min_cli = min_ops, min_cli
        self.op_attempts = self.cli_attempts = self.failed = 0
        self.ops: list[tuple[float, int, bool]] = []  # (wall s, events, traced)
        self.cli_runs: list[tuple[float, float]] = []  # (wall s, peak RSS MB)

    @property
    def attempted(self) -> int:
        return self.op_attempts + self.cli_attempts

    def _fail(self, what: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"FAILED {what}", file=sys.stderr)

    def op(self, i, tracer=None) -> None:
        """Run, time and check one operation; with a tracer, record its spans
        and the workload's traced-only extra calls under operation id i."""
        self.op_attempts += 1
        tr = tracer or NULL
        if tracer:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            result = self.wl.op(i, tr)
            wall = time.perf_counter() - t0
            self.wl.check(i, result)
            if tracer:
                self.wl.extras(i, result, tracer)
        except Exception:  # any failure is counted and the run goes on
            self._fail(f"op {i}: {traceback.format_exc(limit=3)}")
            return
        self.ops.append((wall, self.wl.events_in(i), tracer is not None))

    def cli(self) -> None:
        """Run, time and check one CLI process."""
        self.cli_attempts += 1
        argv = [sys.executable, "-m", "evholo.cli", *self.wl.cli_argv()]
        try:
            code, wall, rss, out, err = run_child(argv, self.workdir)
            if code != 0:
                raise RuntimeError(f"exit {code}: {err.strip()}")
            self.wl.check_cli(out)
        except Exception:  # any failure is counted and the run goes on
            self._fail(f"cli {argv[3]}: {traceback.format_exc(limit=3)}")
            return
        self.cli_runs.append((wall, rss))

    def run(self, seconds, side_task, n_side, tracer=None) -> None:
        """Measure for `seconds` and until the minimum counts are met.

        Without a tracer, operations and CLI runs alternate so that CLI runs
        take CLI_SHARE of the time. With one, traced and untraced operations
        alternate and no CLI runs. The n_side side tasks run at even intervals.
        """
        op_time = cli_time = 0.0
        i = side_done = 0
        begin = time.perf_counter()
        deadline, cap = begin + seconds, begin + max(seconds, LOOP_CAP_S)
        while True:
            now = time.perf_counter()
            if side_done < n_side and now - begin >= (side_done + 1) * seconds / (n_side + 1):
                side_task()
                side_done += 1
                continue
            need_ops = now < deadline or self.op_attempts < self.min_ops
            need_cli = not tracer and (now < deadline or self.cli_attempts < self.min_cli)
            if not (need_ops or need_cli) or now >= cap:
                break
            if need_cli and (not need_ops or cli_time < CLI_SHARE * (op_time + cli_time)):
                self.cli()
                cli_time += time.perf_counter() - now
            else:
                self.op(i, tracer if tracer and i % 2 == 0 else None)
                op_time += time.perf_counter() - now
                i += 1
        for _ in range(side_done, n_side):
            side_task()


def main(argv=None) -> int:
    args = parse_args(argv)
    started = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    if not (SRC / "evholo" / "__init__.py").is_file():
        print(f"error: evholo sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import evholo

    if Path(evholo.__file__).resolve().parent != (SRC / "evholo").resolve():
        print(f"error: imported evholo from {evholo.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    min_ops, min_cli, n_side = (10, 2, 1) if args.tiny else (MIN_OPS, MIN_CLI, SIDE_REPS - 1)
    in_process_import_s = time.perf_counter() - T_START
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        setups, imports, digests = [], [], []

        def set_up():
            """Inputs from the seed, their files, one warm-up operation; the
            bytes must be the same every time."""
            imports.append(import_seconds(workdir))
            t0 = time.perf_counter()
            wl = WORKLOADS[args.workload](args.seed, args.tiny, workdir)
            wl.op(0, NULL)
            setups.append(time.perf_counter() - t0)
            digests.append(wl.digests)
            if digests[-1] != digests[0]:
                raise RuntimeError("input generation is not deterministic")
            return wl

        wl = set_up()
        loop = Loop(wl, workdir, min_ops, min_cli)
        print(json.dumps({"env": environment(args.seed, args.workload, started)}))
        for fname, digest in sorted(wl.digests.items()):
            print(f"input {fname} sha256={digest}")
        values, notes = {}, {}
        if args.trace == 0:
            loop.cli()  # untimed warm-up of the CLI path, checked and counted
            loop.cli_runs.clear()
            loop.run(args.seconds, set_up, n_side)
            tracemalloc.start()
            wl.op(0, NULL)
            values["peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
            tracemalloc.stop()
            ms = sorted(o[0] * 1e3 for o in loop.ops)
            cli_ms = sorted(c[0] * 1e3 for c in loop.cli_runs)
            nan = float("nan")
            values["events_per_s"] = (sum(o[1] for o in loop.ops) / sum(o[0] for o in loop.ops)
                                      if ms else nan)
            values["cli_ms_mean"] = statistics.fmean(cli_ms) if cli_ms else nan
            values["cli_rss_mb"] = statistics.median(c[1] for c in loop.cli_runs) if cli_ms else nan
            setup_totals = [i + s for i, s in zip(imports, setups)]
            values["setup_s"] = statistics.median(setup_totals)
            notes["events_per_s"] = f"over {len(ms)} operations"
            notes["cli_ms_mean"] = f"over {len(cli_ms)} runs of evholo {wl.cli_argv()[0]}"
            notes["setup_s"] = (f"median of {len(setup_totals)}: import evholo.cli "
                                f"{statistics.median(imports) * 1e3:.1f} ms + inputs and "
                                f"warm-up {statistics.median(setups) * 1e3:.1f} ms (medians); "
                                f"in-process import took {in_process_import_s:.3f} s")
            print(f"metric failed_ops = {loop.failed / max(loop.attempted, 1):.6g} ratio "
                  f"({loop.failed} of {loop.attempted} operations and CLI runs)")
            if ms:
                pct, tail_ms, beyond = tail(ms)
                print(f"metric op_ms_p10 = {percentile(ms, 10):.6g} ms  (not gated)")
                print(f"metric op_ms_p50 = {statistics.median(ms):.6g} ms  (not gated)")
                print(f"metric op_ms_tail = {tail_ms:.6g} ms  (p{pct} over {len(ms)} "
                      f"operations, {beyond} beyond it; not gated)")
            if cli_ms:
                print(f"metric cli_ms_p50 = {statistics.median(cli_ms):.6g} ms  (not gated)")
            units = END_TO_END
        else:
            tracer = Tracer()
            loop.run(args.seconds, lambda: imports.append(import_seconds(workdir)),
                     n_side, tracer)
            layer = tracer.layer_medians(SPAN_LAYERS, COUNT_LAYERS)
            values.update({f"{name}_ms": layer[name] for name in SPAN_LAYERS})
            values.update({name: layer[name] for name in COUNT_LAYERS})
            values["cli.import_ms"] = statistics.median(imports) * 1e3
            values["bench.op_self_ms"] = layer["op_self"]
            traced = [o[0] for o in loop.ops if o[2]]
            untraced = [o[0] for o in loop.ops if not o[2]]
            if traced and untraced:
                t, u = statistics.median(traced), statistics.median(untraced)
                values["bench.trace_overhead_pct"] = (t / u - 1.0) * 100.0
                notes["bench.trace_overhead_pct"] = (
                    f"traced {t * 1e3:.6g} ms over {len(traced)} ops, untraced "
                    f"{u * 1e3:.6g} ms over {len(untraced)} ops")
            else:
                values["bench.trace_overhead_pct"] = float("nan")
                notes["bench.trace_overhead_pct"] = ("not measured: no successful traced "
                                                     "and untraced operations")
            notes["gsg.forward_ms"] = "stage sum {:.6g} ms".format(sum(
                values[f"gsg.{s}_ms"] for s in
                ("depthwise_conv", "spectral_filter", "gated_reconstruction")))
            trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.dump(trace_path)
            print(f"spans written to {trace_path.relative_to(ROOT)}")
            units = PER_LAYER
        metrics = {}
        for name, unit in units.items():
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"metric {name} = {values[name]:.6g} {unit}"
                  + (f"  ({notes[name]})" if name in notes else ""))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": loop.failed == 0, "attempted": max(loop.attempted, 1),
                      "failed": loop.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
