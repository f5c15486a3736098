#!/usr/bin/env python3
"""Build and run the two-clock benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload unix_table1 --seed 1 --seconds 20 --trace 0

Builds the `perfbench` package (its own Cargo workspace, depending on the
repository's crates by path) in release mode, offline, into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs it with the same
arguments. The benchmark prints its result as the last line of standard
output; build output and diagnostics go to standard error. Exits with the
benchmark's exit code, or non-zero without a result if the build fails or
the run overruns its time limit.
"""

import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def run(cmd, env, timeout, capture):
    """Run `cmd` in its own process group; kill the group on timeout."""
    p = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE if capture else sys.stderr,
        start_new_session=True,
    )
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        return None, None
    return p.returncode, out


def main():
    args = sys.argv[1:]
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    manifest = os.path.join(HERE, "Cargo.toml")
    code, _ = run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env,
        BUILD_TIMEOUT_S,
        capture=False,
    )
    if code != 0:
        print("run.py: build failed" if code is not None else "run.py: build timed out", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "perfbench")
    code, out = run([binary] + args, env, RUN_TIMEOUT_S, capture=True)
    if code is None:
        print(f"run.py: benchmark overran {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if code != 0:
        return code
    lines = out.decode().splitlines()
    try:
        result = complete(json.loads(lines[-1]), ["--trace", "1"] in pairs(args))
    except (ValueError, KeyError, IndexError) as e:
        print(f"run.py: bad result line: {e}", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


def pairs(args):
    """The arguments as consecutive pairs; the benchmark checks them."""
    return [args[i : i + 2] for i in range(0, len(args), 2)]


def complete(result, trace):
    """Check the result's metrics against BENCHMARK.json.

    Every metric the result names must be declared there with the same
    unit. A per-layer metric of a layer boundary the workload never
    crosses (a `unix_table1` job kind in `sched_mix`, say) is reported
    as 0, so each workload's result names every declared metric. An
    end-to-end metric must be measured by every workload: a result of
    `--trace 0` names every end-to-end metric of BENCHMARK.json.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    units = {m["name"]: m["unit"] for m in declared}
    for name, m in metrics.items():
        if units.get(name) != m["unit"]:
            raise ValueError(f"metric {name} ({m['unit']}) is not declared with that unit")
    for name, unit in units.items():
        if name not in metrics:
            if not trace:
                raise ValueError(f"end-to-end metric {name} is missing")
            metrics[name] = {"value": 0.0, "unit": unit}
    result["metrics"] = {m["name"]: metrics[m["name"]] for m in declared}
    return result


if __name__ == "__main__":
    sys.exit(main())
