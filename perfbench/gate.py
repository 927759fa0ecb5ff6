#!/usr/bin/env python3
"""Run the benchmark over many seeds and gate one set of runs against another.

Run from the repository root:

    # every workload of BENCHMARK.json, seeds 1..10, end-to-end metrics
    python3 perfbench/gate.py run --seeds 1-10 --out perfbench/.work/base.json

    # spread of each set, and NEW against BASE by the bounds of BENCHMARK.json
    python3 perfbench/gate.py compare perfbench/.work/base.json perfbench/.work/new.json

    # a copy of a set with one workload's metric scaled, to prove a bound bites
    python3 perfbench/gate.py doctor perfbench/.work/new.json perfbench/.work/slow.json \
        --workload census --metric wall_s --factor 1.5

A set is a JSON object: workload -> list of the benchmark's result objects,
one per seed. `compare` fails (exit 1) when a run was incorrect, when a
metric's spread (quartile distance over median, setup_s exempt) exceeds its
bound, or when NEW's median is worse than BASE's by more than the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys

SPEC = "BENCHMARK.json"


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def seeds_of(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(args):
    spec = load_spec()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    result = {}
    for name in names:
        result[name] = []
        for seed in seeds_of(args.seeds):
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if not lines:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{name} seed {seed}: no result (exit {proc.returncode})")
            report = json.loads(lines[-1])
            report["seed"] = seed
            result[name].append(report)
            shown = " ".join(f"{k}={v['value']:.6g}" for k, v in report["metrics"].items())
            print(f"{name} seed={seed} exit={proc.returncode} correct={report['correct']} {shown}",
                  flush=True)
    with open(args.out, "w") as f:
        json.dump(result, f, indent=1)


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def compare(args):
    spec = load_spec()
    sets = []
    for path in (args.base, args.new):
        with open(path) as f:
            sets.append(json.load(f))
    base, new = sets
    ok = True
    for name in new:
        for label, runs in (("base", base.get(name, [])), ("new", new[name])):
            bad = [r["seed"] for r in runs if not r["correct"]]
            if bad:
                print(f"FAIL {name} {label}: incorrect runs at seeds {bad}")
                ok = False
        for metric in spec["end_to_end"]:
            m, bound = metric["name"], metric["bound"]
            b = [r["metrics"][m]["value"] for r in base.get(name, [])]
            n = [r["metrics"][m]["value"] for r in new[name]]
            if len(b) < 2 or len(n) < 2:
                print(f"FAIL {name} {m}: fewer than two runs")
                ok = False
                continue
            mb, mn = statistics.median(b), statistics.median(n)
            worse = (mn - mb) / mb if metric["better"] == "lower" else (mb - mn) / mb
            sb, sn = spread(b), spread(n)
            verdicts = []
            if worse > bound:
                verdicts.append(f"worse by {worse:.3f} > bound {bound}")
            if m != "setup_s" and max(sb, sn) > bound:
                verdicts.append(f"spread {max(sb, sn):.3f} > bound {bound}")
            status = "FAIL" if verdicts else "ok  "
            ok = ok and not verdicts
            print(f"{status} {name:9s} {m:16s} base {mb:<12.6g} new {mn:<12.6g} worse {worse:+.3f} "
                  f"spread {sb:.3f}/{sn:.3f} (bound {bound}) {'; '.join(verdicts)}")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def doctor(args):
    with open(args.input) as f:
        data = json.load(f)
    for report in data[args.workload]:
        report["metrics"][args.metric]["value"] *= args.factor
    with open(args.output, "w") as f:
        json.dump(data, f, indent=1)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--workload", action="append")
    r.add_argument("--trace", type=int, default=0)
    r.add_argument("--out", required=True)
    c = sub.add_parser("compare")
    c.add_argument("base")
    c.add_argument("new")
    d = sub.add_parser("doctor")
    d.add_argument("input")
    d.add_argument("output")
    d.add_argument("--workload", required=True)
    d.add_argument("--metric", default="wall_s")
    d.add_argument("--factor", type=float, default=1.5)
    args = ap.parse_args()
    if args.cmd == "run":
        run(args)
    elif args.cmd == "compare":
        sys.exit(compare(args))
    else:
        doctor(args)


if __name__ == "__main__":
    main()
