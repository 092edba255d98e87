#!/usr/bin/env python3
"""Record a parent-vs-change benchmark comparison as BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent <ref> --number <n>
        --change "<one-line description>"
        --seeds char_cold=11-20 enforce_large=21-30 serve_mix=31-40
        [--traced char_cold=41 enforce_large=42 serve_mix=43]
        [--claim WORKLOAD:METRIC]

Run from anywhere inside the checkout that holds the change (the working
tree, committed or not).  The parent ref is extracted with `git archive`
into .bench_parent/ at the repository root, so a run registers no extra
git worktree.  Both checkouts run the same `python3 perfbench/run.py
--workload <w> --seed <s> --seconds <S> --trace <0|1>`, with S the
benchmark's own `run_seconds` from BENCHMARK.json; each builds its own
sources on first use.

Every seed gives one pair of untraced runs, and the pairs alternate which
side runs first.  Each --traced seed gives one pair of --trace 1 runs.
Finished runs are cached in .bench_parent/runs.json, so an interrupted
recording resumes where it stopped.  A cached run is keyed by the parent's
git sha or by the change's source digest (the digest perfbench/run.py
stamps on every run), so an edit to the change, or another parent, never
reuses a stale run; every run a side uses must carry that side's digest,
or the recording fails.

The output (BENCH_<n>.json at the repository root) holds host stamps,
and per workload and end-to-end metric: the per-run values of both
sides, their medians and inclusive-method quartiles, the number of pairs
the change wins (ties count for neither), the median relative change,
and that change against the metric's bound in BENCHMARK.json.  A metric
whose parent spread (IQR / median) exceeds its bound is marked
unresolved: such runs cannot show a difference of the bound's size.
"""

import argparse
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = subprocess.run(
    ["git", "rev-parse", "--show-toplevel"], check=True, capture_output=True,
    text=True, cwd=os.path.dirname(os.path.abspath(__file__))).stdout.strip()
WORKLOADS = ("char_cold", "enforce_large", "serve_mix")
HOST_KEYS = ("nproc", "cpu", "compiler", "build_type", "kernel")
WORKDIR = os.path.join(ROOT, ".bench_parent")


def log(*args):
    print("bench_pairs:", *args, file=sys.stderr, flush=True)


def parse_seed_list(text):
    """'11-20' or '41,44,45' (or a mix) -> list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def parse_workload_seeds(items):
    out = {}
    for item in items or []:
        name, _, seeds = item.partition("=")
        if name not in WORKLOADS or not seeds:
            raise SystemExit(f"bad workload seeds '{item}' "
                             f"(want <{'|'.join(WORKLOADS)}>=<seeds>)")
        out[name] = parse_seed_list(seeds)
    return out


def source_digest(checkout):
    """The digest perfbench/run.py of `checkout` stamps on its runs."""
    path = os.path.join(checkout, "perfbench", "run.py")
    sys.dont_write_bytecode = True  # no __pycache__ inside the digest
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.source_digest()


def extract_parent(ref):
    sha = subprocess.run(["git", "rev-parse", ref], check=True,
                         capture_output=True, text=True,
                         cwd=ROOT).stdout.strip()
    path = os.path.join(WORKDIR, "parent-" + sha[:12])
    if not os.path.isdir(path):
        tmp = path + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT,
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", tmp], check=True,
                       stdin=archive.stdout)
        archive.stdout.close()
        if archive.wait() != 0:
            raise SystemExit(f"git archive {sha} failed")
        os.rename(tmp, path)
    return sha, path


class RunCache:
    """Finished runs keyed by <side>-<sha or digest>/workload/seed/trace/
    seconds, on disk."""

    def __init__(self, path):
        self.path = path
        self.runs = {}
        if os.path.isfile(path):
            with open(path) as fh:
                self.runs = json.load(fh)

    def get(self, key):
        return self.runs.get(key)

    def put(self, key, value):
        self.runs[key] = value
        tmp = self.path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self.runs, fh)
        os.replace(tmp, self.path)


def run_once(checkout, workload, seed, seconds, trace):
    """One perfbench run -> (info, result) parsed from its stdout."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"run failed in {checkout}: {' '.join(cmd)}")
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    info = json.loads(lines[-2])["info"]
    result = json.loads(lines[-1])
    return {"info": info, "result": result}


def run_pair(cache, sides, workload, seed, seconds, trace, parent_first):
    """sides: side -> (checkout, cache-key tag, expected source digest)."""
    order = ("parent", "change") if parent_first else ("change", "parent")
    out = {}
    for side in order:
        checkout, tag, digest = sides[side]
        key = f"{side}-{tag}/{workload}/{seed}/{trace}/{seconds:g}"
        run = cache.get(key)
        if run is None:
            log(f"{workload} seed {seed} trace {trace}: {side}")
            run = run_once(checkout, workload, seed, seconds, trace)
            cache.put(key, run)
        got = run["info"]["host"]["source_digest"]
        if got != digest:
            raise SystemExit(f"{key}: run has source digest {got}, "
                             f"expected {digest} for the {side}; the "
                             "checkout changed during the recording")
        out[side] = run
    return out


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "n": len(values), "runs": sorted(values)}


def metric_values(pairs, side, name):
    return [p[side]["result"]["metrics"][name]["value"] for p in pairs]


def end_to_end(pairs, seeds, specs):
    block = {"seeds": seeds,
             "operations_failed": {}, "operations_attempted": {},
             "metrics": {}}
    for side in ("parent", "change"):
        block["operations_failed"][side] = sum(
            p[side]["result"]["failed"] for p in pairs)
        block["operations_attempted"][side] = sum(
            p[side]["result"]["attempted"] for p in pairs)
    for spec in specs:
        name, lower = spec["name"], spec["better"] == "lower"
        parent = metric_values(pairs, "parent", name)
        change = metric_values(pairs, "change", name)
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(parent, change))
        ps, cs = summary(parent), summary(change)
        rel = cs["median"] / ps["median"] - 1.0 if ps["median"] else 0.0
        worse = rel if lower else -rel
        spread = ps["iqr"] / ps["median"] if ps["median"] else 0.0
        block["metrics"][name] = {
            "better": spec["better"], "pairs": len(pairs),
            "change_wins": wins, "parent": ps, "change": cs,
            "median_rel_change": rel, "bound": spec["bound"],
            "within_bound": worse <= spec["bound"],
            "parent_spread_rel": spread,
            "resolved": spread <= spec["bound"]}
    return block


def traced(pairs, seeds):
    names = list(pairs[0]["parent"]["result"]["metrics"])
    runs = {n: {side: metric_values(pairs, side, n)
                for side in ("parent", "change")} for n in names}
    median = {n: {side: statistics.median(v) for side, v in r.items()}
              for n, r in runs.items()}
    return {"seeds": seeds, "median": median, "runs": runs}


def claim_block(text, e2e):
    workload, _, metric = text.partition(":")
    m = e2e[workload]["metrics"][metric]
    diff = abs(m["change"]["median"] - m["parent"]["median"])
    met = (m["change_wins"] >= 9 * m["pairs"] / 10
           and diff > m["parent"]["iqr"])
    return {"workload": workload, "metric": metric, "met": met,
            "rule": "change wins >= 9/10 pairs and |median difference| "
                    "> parent IQR"}


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--parent", required=True, help="git ref")
    parser.add_argument("--number", required=True, type=int)
    parser.add_argument("--change", required=True)
    parser.add_argument("--seeds", nargs="+", required=True)
    parser.add_argument("--traced", nargs="*", default=[])
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change "
                        "claims to improve")
    args = parser.parse_args()

    seeds = parse_workload_seeds(args.seeds)
    traced_seeds = parse_workload_seeds(args.traced)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    specs, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
    os.makedirs(WORKDIR, exist_ok=True)
    parent_sha, parent_dir = extract_parent(args.parent)
    digests = {"parent": source_digest(parent_dir),
               "change": source_digest(ROOT)}
    sides = {"parent": (parent_dir, parent_sha[:12], digests["parent"]),
             "change": (ROOT, digests["change"], digests["change"])}
    cache = RunCache(os.path.join(WORKDIR, "runs.json"))

    e2e, tr, host = {}, {}, None
    for workload in WORKLOADS:
        if workload in seeds:
            pairs = [run_pair(cache, sides, workload, s, seconds, 0,
                              parent_first=i % 2 == 0)
                     for i, s in enumerate(seeds[workload])]
            e2e[workload] = end_to_end(pairs, seeds[workload], specs)
            host = host or pairs[0]["change"]["info"]["host"]
        if workload in traced_seeds:
            pairs = [run_pair(cache, sides, workload, s, seconds, 1,
                              parent_first=i % 2 == 0)
                     for i, s in enumerate(traced_seeds[workload])]
            tr[workload] = traced(pairs, traced_seeds[workload])

    bench = {
        "bench": f"BENCH_{args.number}",
        "change": args.change,
        "host": {k: host[k] for k in HOST_KEYS},
        "parent": {"git_sha": parent_sha,
                   "source_digest": digests["parent"]},
        "change_source_digest": digests["change"],
        "driver": "python3 perfbench/run.py --workload <w> --seed <s> "
                  f"--seconds {seconds:g} --trace <0|1> in a git "
                  "archive of the parent and in the change's checkout, "
                  "recorded by tools/bench_pairs.py on one host",
        "protocol": "Untraced pairs alternate which side runs first "
                    "(parent first on even pair indices). Quartiles are "
                    "inclusive-method quartiles of the per-run values; "
                    "change_wins counts pairs where the change is better "
                    "(ties count for neither). within_bound compares the "
                    "median relative change with the BENCHMARK.json "
                    "bound; resolved is false when the parent's IQR / "
                    "median exceeds that bound.",
        "claim": claim_block(args.claim, e2e) if args.claim else None,
        "end_to_end": e2e,
        "traced_per_layer": tr,
        "notes": [],
    }
    out = os.path.join(ROOT, f"BENCH_{args.number}.json")
    with open(out, "w") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    log("wrote", out)


if __name__ == "__main__":
    main()
