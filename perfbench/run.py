#!/usr/bin/env python3
"""Host-cost benchmark of the StorM simulator (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py            # every workload, untraced then traced

Builds perfbench/ (which compiles ../src) into .bench_build/perfbench, runs
the stormbench binary in its own process, checks its outputs and prints the
metrics, one per line with unit and sample count. With --workload the last
line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}, with the end-to-end metrics when untraced and the
per-layer metrics when traced. Exits non-zero when any check fails.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["cipher-64k-write", "fleet-4k-read", "postmark-monitor"]
FIRST_BUILD_TIMEOUT_S = 840
RUN_SLACK_S = 150


class BenchError(Exception):
    pass


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    """Configure and build stormbench; returns the binary's path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "--target", "stormbench", "-j", jobs]]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=FIRST_BUILD_TIMEOUT_S)
        if done.returncode != 0:
            raise BenchError("build step failed: " + " ".join(step))
    return os.path.join(out, "stormbench")


def run_binary(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        cmd += ["--spans", os.path.join(build_dir(),
                                        "spans-%s-%d.json" % (workload, seed))]
    # subprocess.run kills and reaps the child if it overruns.
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          timeout=seconds + RUN_SLACK_S, text=True)
    if done.returncode != 0:
        raise BenchError("stormbench exited with %d" % done.returncode)
    return json.loads(done.stdout)


def measured(d):
    """Counters and gauges of the measured phase: end minus start."""
    end, start = d["telemetry"], d["telemetry_start"]
    return {kind: {k: v - start[kind].get(k, 0) for k, v in end[kind].items()}
            for kind in ("counters", "gauges")}


def counters(telemetry, suffix):
    """Sum of every counter named `suffix` or ending in `.suffix`."""
    return sum(v for k, v in telemetry["counters"].items()
               if k == suffix or k.endswith("." + suffix))


def histograms(telemetry, suffix):
    return [h for k, h in telemetry["histograms"].items()
            if k == suffix or k.endswith("." + suffix)]


def failures(r):
    return r["errors"] + r["mismatches"] + r["workload_errors"]


def check_rounds(rounds):
    """Rounds of one seed variant must repeat the simulated results exactly,
    traced or not."""
    problems = []
    for variant in sorted({r["variant"] for r in rounds}):
        kinds = sorted({("traced" if r["traced"] else "untraced", r["fingerprint"])
                        for r in rounds if r["variant"] == variant})
        if len({fp for _, fp in kinds}) != 1:
            problems.append("simulated results of variant %d differ between "
                            "rounds: %s" % (variant, kinds))
    for r in rounds:
        if not r["consistent"]:
            problems.append("workload and oracle disagree on completed ops")
        if r["ops"] < 1:
            problems.append("a round completed no operation")
    return problems


def harrell_davis(sorted_values, p):
    """Harrell-Davis estimate of the p-quantile: the order statistics
    weighted by the Beta((n+1)p, (n+1)(1-p)) density over their ranks.
    Simulated service times have no jitter, so latencies fall on atoms;
    nearest rank jumps from one atom to the next as a seed moves a few
    samples across the quantile, while this estimate moves smoothly."""
    n = len(sorted_values)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    logs = [(a - 1) * math.log((i + 0.5) / n) + (b - 1) * math.log(1 - (i + 0.5) / n)
            for i in range(n)]
    top = max(logs)
    weights = [math.exp(x - top) for x in logs]
    return sum(w * v for w, v in zip(weights, sorted_values)) / sum(weights)


def end_to_end(d):
    rounds = d["rounds"]
    n = len(rounds)
    ops = sum(r["ops"] for r in rounds) / n
    # The simulated metrics pool one round of every seed variant.
    pooled = [r for r in rounds if "latencies_ns" in r]
    lat = sorted(x for r in pooled for x in r["latencies_ns"])
    sim_ops = sum(r["ops"] for r in pooled)
    sim_s = sum(r["sim_ns"] for r in pooled) / 1e9
    k = len(lat)
    return {
        "host_ops_per_s": (median([r["ops"] / (r["wall_ns"] / 1e9) for r in rounds]),
                           "1/s", "median of %d rounds of ~%d ops" % (n, ops)),
        "host_cpu_us_per_op": (median([r["cpu_ns"] / 1e3 / r["ops"] for r in rounds]),
                               "us", "median of %d rounds of ~%d ops" % (n, ops)),
        "setup_s": (median([r["setup_ns"] / 1e9 for r in rounds]), "s",
                    "median of %d set-ups" % n),
        # After the pooled rounds, a fixed amount of work: rounds leak a
        # little, so the peak at exit would grow with the run's length.
        "peak_rss_mb": (pooled[-1]["max_rss_kb"] / 1024.0, "MB",
                        "after %d rounds" % len(pooled)),
        "sim_ops_per_s": (sim_ops / sim_s, "1/sim_s",
                          "%d ops in %.3f simulated s" % (sim_ops, sim_s)),
        "sim_p50_ms": (harrell_davis(lat, 0.5) / 1e6, "sim_ms", "%d ops" % k),
        "sim_p99_ms": (harrell_davis(lat, 0.99) / 1e6, "sim_ms",
                       "%d ops, %d beyond" % (k, k - -(-99 * k // 100))),
        "fail_ratio": (sum(failures(r) for r in rounds) /
                       sum(r["attempted"] for r in rounds), "ratio",
                       "%d ops attempted" % sum(r["attempted"] for r in rounds)),
    }


def per_layer(d, workload):
    rounds = d["rounds"]
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    t = measured(d)
    hist = d["telemetry"]  # histograms cover the whole traced round
    p = d["probes"]
    r = traced[0]
    ops = r["ops"]
    fleet = workload == "fleet-4k-read"
    postmark = workload == "postmark-monitor"

    def med(f, rs=traced):
        return median([f(x) for x in rs])

    journal_groups = histograms(hist, "journal.group_records")
    commit = histograms(hist, "journal.commit_latency_ns")
    queue_wait = histograms(hist, "net.link.queue_wait_ns")
    flow_total = r["flow_cache_hits"] + r["flow_cache_misses"]
    windows = r["sim_ns"] // d["lookahead_ns"] if fleet else 0
    crc_kib = 2 * r["leg_bytes"] / 1024.0  # TCP checksum at both ends
    cipher_kib = counters(t, "stream_cipher.bytes_processed") / 1024.0
    journal_appends = counters(t, "journal.appends")

    m = {}
    m["sim.events"] = (r["events"], "count")
    m["sim.events_per_op"] = (r["events"] / ops, "count")
    m["sim.host_ns_per_event"] = (med(lambda x: x["slice_ns"] / x["events"]), "ns")
    m["sim.mailbox_posts"] = (t["gauges"].get("sim.mailbox.posts", 0), "count")
    m["sim.mailbox_batches"] = (t["gauges"].get("sim.mailbox.batches", 0), "count")

    # Probes: ns per call, the round's deterministic call count, and the
    # estimate (product) that unattributed_ms subtracts.
    estimates = {}

    def probe(name, ns, calls):
        m[name] = (ns, "ns")
        m[name + ".calls"] = (calls, "count")
        est = ns * calls / 1e6
        m[name + ".est_ms"] = (est, "ms")
        estimates[name] = est

    probe("sim.noop_event_ns", p["sim_noop_event_ns"], r["events"])
    probe("sim.empty_window_ns", p["sim_empty_window_ns"], windows)
    m["sim.empty_window_ns_threaded"] = (p["sim_empty_window_ns_threaded"], "ns")
    probe("common.crc32_ns_per_kib", p["crc32_ns_per_kib"], crc_kib)
    probe("iscsi.pdu_codec_ns", p["pdu_serialize_ns"] + p["pdu_parse_ns"],
          r["leg_data_pdus"])
    probe("journal.append_ns", p["journal_append_ns"], journal_appends)
    probe("crypto.chacha20_ns_per_kib", p["chacha20_ns_per_kib"], cipher_kib)
    m["iscsi.pdu_serialize_ns"] = (p["pdu_serialize_ns"], "ns")
    m["iscsi.pdu_parse_ns"] = (p["pdu_parse_ns"], "ns")

    m["net.tcp_segments_per_op"] = (t["counters"].get("tcp.segments_tx", 0) / ops, "count")
    m["net.tcp_retransmits"] = (t["counters"].get("tcp.retransmits", 0), "count")
    m["net.bytes_copied_per_byte"] = (
        t["counters"].get("net.bytes_copied", 0) / max(1, r["block_bytes"]), "ratio")
    m["net.flow_cache_hit_rate"] = (
        r["flow_cache_hits"] / flow_total if flow_total else 1.0, "ratio")
    m["net.link_queue_wait_p99_us"] = (
        max([h["p99"] for h in queue_wait], default=0) / 1e3, "us")

    m["iscsi.commands"] = (t["counters"].get("iscsi.target.commands", 0), "count")
    m["iscsi.recoveries"] = (counters(t, "iscsi.initiator.recoveries"), "count")

    m["journal.appends"] = (journal_appends, "count")
    m["journal.group_records_mean"] = (
        sum(h["sum"] for h in journal_groups) /
        max(1, sum(h["count"] for h in journal_groups)), "count")
    m["journal.commit_p99_us"] = (max([h["p99"] for h in commit], default=0) / 1e3, "us")

    m["services.on_pdu_calls"] = (r["on_pdu_calls"], "count")
    m["services.on_pdu_ns_p50"] = (med(lambda x: x["on_pdu_p50_ns"]), "ns")
    m["services.on_pdu_ns_p99"] = (med(lambda x: x["on_pdu_p99_ns"]), "ns")
    m["services.cipher_bytes"] = (counters(t, "stream_cipher.bytes_processed"), "bytes")

    m["core.pdus_relayed"] = (counters(t, "pdus_relayed") + counters(t, "pdus_processed"),
                              "count")
    m["core.bp_pauses"] = (counters(t, "bp_pauses"), "count")
    m["core.attach_ms_per_chain"] = (
        med(lambda x: x["attach_ns"] / 1e6 / max(1, x["chains"])), "ms")

    m["block.submit_us_p50"] = (med(lambda x: x["submit_p50_ns"]) / 1e3, "us")
    m["block.submit_us_p99"] = (med(lambda x: x["submit_p99_ns"]) / 1e3, "us")
    m["block.reads_verified"] = (r["verified"], "count")
    m["block.read_mismatches"] = (r["mismatches"], "count")

    m["fs.block_ios_per_txn"] = (r["block_ios"] / ops if postmark else 0, "count")
    m["fs.mount_ms"] = (med(lambda x: x["mount_ns"] / 1e6), "ms")
    m["monitor.log_entries"] = (r["monitor_log_entries"], "count")
    m["monitor.tracked_files"] = (r["monitor_tracked_files"], "count")

    m["cloud.build_ms"] = (med(lambda x: x["cloud_build_ns"] / 1e6), "ms")
    m["obs.export_ms"] = (med(lambda x: x["export_ns"] / 1e6, rounds), "ms")
    m["obs.telemetry_bytes"] = (r["telemetry_bytes"], "bytes")

    pairs = list(zip(plain, traced))
    m["trace_overhead"] = (
        median([b["wall_ns"] / a["wall_ns"] for a, b in pairs]) - 1, "ratio")
    # The cipher runs inside on_pdu, which is timed directly, and the
    # block.* spans hold the initiator's PDU serialization and TCP sends,
    # which the codec and CRC estimates already count.
    outside = sum(v for k, v in estimates.items() if k != "crypto.chacha20_ns_per_kib")
    m["unattributed_ms"] = (med(lambda x: (x["wall_ns"] - x["on_pdu_sum_ns"]) / 1e6)
                            - outside, "ms")
    return m


def run_one(binary, workload, seed, seconds, trace):
    """Run one workload; returns (correct, attempted, failed, metrics)."""
    d = run_binary(binary, workload, seed, seconds, trace)
    rounds = d["rounds"]
    problems = check_rounds(rounds)
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(failures(r) for r in rounds)
    if failed:
        problems.append("%d of %d ops failed (errors %d, read-back mismatches %d, "
                        "PostMark errors %d)" % (
                            failed, attempted, sum(r["errors"] for r in rounds),
                            sum(r["mismatches"] for r in rounds),
                            sum(r["workload_errors"] for r in rounds)))
    print("workload %s seed %d trace %d: %d rounds, %d threads" % (
        workload, seed, int(trace), len(rounds), d["threads"]))
    if trace:
        metrics = {k: (v, u, "") for k, (v, u) in per_layer(d, workload).items()}
    else:
        metrics = end_to_end(d)
    for name, (value, unit, samples) in metrics.items():
        print("  %-32s %14.6g %-6s %s" % (name, value, unit, samples))
    for problem in problems:
        print("CHECK FAILED: " + problem, file=sys.stderr)
    return not problems, attempted, failed, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    try:
        binary = build()
        if args.workload is None:
            ok = True
            for workload in WORKLOADS:
                for trace in (False, True):
                    ok &= run_one(binary, workload, args.seed, args.seconds, trace)[0]
            return 0 if ok else 1
        correct, attempted, failed, metrics = run_one(
            binary, args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError,
            KeyError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    # fail_ratio is printed above; the gated metrics list carries only
    # metrics that are never zero, and failures gate through `failed`.
    gated = {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()
             if k != "fail_ratio"}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": gated}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
