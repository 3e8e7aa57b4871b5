#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Builds the benchmark (as run.py does), then for each workload it implements,
at tiny sizes:
  * a run with --trace 0 must print every end-to-end metric of BENCHMARK.json
    with its unit, and a run with --trace 1 every per-layer metric, each as
    the last stdout line {correct, attempted, failed, metrics};
  * both must pass every oracle (failed == 0, pass_frac == 1);
  * the traced run must write a Chrome trace-event file whose spans carry
    name, start, duration, parent and op id;
  * a run with --corrupt, which falsifies one answer before its oracle
    check, must count that op as failed instead of passing or aborting.
Exits non-zero on the first failed assertion.
"""
import json
import os
import subprocess
import sys

import run

BENCH = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json")))
# Every workload the benchmark implements, including those BENCHMARK.json
# leaves out.
WORKLOADS = ("mincut_cycle", "mst_gnm", "pa_apex")


def invoke(binary, out_dir, workload, trace, *extra):
    cmd = [binary, "--workload", workload, "--seed", "7", "--seconds", "0.5",
           "--trace", str(trace), "--tiny", "--out-dir", out_dir, *extra]
    proc = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=170)
    assert proc.returncode == 0, (cmd, proc.returncode, proc.stderr[-2000:])
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


def check_metrics(result, wanted, label):
    got = result["metrics"]
    for m in wanted:
        assert m["name"] in got, "%s: metric %s missing" % (label, m["name"])
        entry = got[m["name"]]
        assert entry["unit"] == m["unit"], (label, m["name"], entry)
        assert isinstance(entry["value"], (int, float)), (label, m["name"], entry)
    extra = set(got) - {m["name"] for m in wanted}
    assert not extra, "%s: metrics not in BENCHMARK.json: %s" % (label, extra)


def check_trace(path):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    assert events, path
    names = {e["name"] for e in events}
    for e in events:
        assert e["ph"] == "X" and e["dur"] >= 0 and "ts" in e, e
        assert {"parent", "op"} <= set(e["args"]), e
    for layer in ("graph.", "sim.", "core."):
        assert any(n.startswith(layer) for n in names), (path, layer, names)


def main():
    binary = run.build()
    assert binary, "build failed"
    out_dir = os.path.join(run.build_dir(), "selftest")
    os.makedirs(out_dir, exist_ok=True)
    for w in WORKLOADS:
        for trace, wanted in ((0, BENCH["end_to_end"]), (1, BENCH["per_layer"])):
            label = "%s trace %d" % (w, trace)
            result = invoke(binary, out_dir, w, trace)
            check_metrics(result, wanted, label)
            assert result["failed"] == 0 and result["correct"], (label, result)
            if trace == 0:
                assert result["metrics"]["pass_frac"]["value"] == 1, (label, result)
            else:
                check_trace(os.path.join(out_dir, "trace-%s-7.json" % w))
            print("ok   %s: %d ops, every metric present" % (label, result["attempted"]))
        result = invoke(binary, out_dir, w, 0, "--corrupt")
        assert result["failed"] >= 1 and not result["correct"], (w, result)
        assert result["metrics"]["pass_frac"]["value"] < 1, (w, result)
        print("ok   %s --corrupt: %d of %d ops counted as failed"
              % (w, result["failed"], result["attempted"]))
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
