"""Arithmetic of perfbench: percentiles, span self time, and the metrics
computed from one raw runner document (schema perfbench-raw-v1).

Every function here is pure; test_stats.py covers them.
"""

# Standard percentiles a tail can be reported at, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# A tail percentile is reported only with at least this many samples
# strictly beyond it.
MIN_BEYOND = 10


def percentile(values, p):
    """Linear-interpolated percentile (the 'inclusive' method of
    statistics.quantiles and numpy's default) of a non-empty sequence."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n):
    """The highest ladder percentile with at least MIN_BEYOND of \\p n
    samples beyond it, or None when even the median has too few."""
    for p in TAIL_LADDER:
        # Rounded so that 100 - 99.9 counts as exactly 0.1.
        if round(n * (100.0 - p), 6) >= MIN_BEYOND * 100:
            return p
    return None


def covered_length(intervals, lo, hi):
    """Length of the union of \\p intervals clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Self time of each span: its duration minus the part of it that its
    children (spans whose parent is its index) cover."""
    children = [[] for _ in spans]
    for s in spans:
        if s["parent"] >= 0:
            children[s["parent"]].append((s["start"], s["end"]))
    return [
        (s["end"] - s["start"]) - covered_length(children[i], s["start"], s["end"])
        for i, s in enumerate(spans)
    ]


def span_self_totals(spans):
    """Total self time per span name."""
    totals = {}
    for s, t in zip(spans, self_times(spans)):
        totals[s["name"]] = totals.get(s["name"], 0.0) + t
    return totals


def job_attributed_share(spans):
    """Share of the root job spans' time that their child layer spans
    cover: 1 - sum(job self time) / sum(job duration)."""
    selfs = self_times(spans)
    dur = sum(s["end"] - s["start"] for s in spans if s["name"] == "job")
    own = sum(t for s, t in zip(spans, selfs) if s["name"] == "job")
    return 1.0 - own / dur if dur > 0 else 0.0


PHASE_FIELDS = ("window_s", "qbf_s", "sat_path_s", "structural_s", "assemble_s", "verify_s")


def engine_attributed_share(jobs):
    """Share of the engine's reported run time that its phase breakdown
    explains, over jobs that ran the ECO engine (0 when none did)."""
    engine = sum(j.get("engine_s", 0.0) for j in jobs)
    phases = sum(j.get(f, 0.0) for j in jobs for f in PHASE_FIELDS)
    return phases / engine if engine > 0 else 0.0


def median(values):
    return percentile(values, 50.0)


def end_to_end(raw):
    """End-to-end metrics of an untraced run, plus the tail's percentile
    and sample count (returned separately: they are not metrics).

    The tail percentile is chosen for the workload's minimum job count
    (raw["min_jobs"]), which every run reaches, so it is the same on every
    run and every host."""
    jobs = raw["jobs"]
    lat_ms = [j["latency_s"] * 1e3 for j in jobs]
    n = len(lat_ms)
    tail_p = tail_percentile(min(n, raw["min_jobs"]))
    ok = sum(1 for j in jobs if j["ok"])
    metrics = {
        "setup_s": (median(raw["setup_s"]), "s"),
        "throughput_per_s": (raw["window_jobs"] / raw["wall_s"], "1/s"),
        "latency_p50_ms": (percentile(lat_ms, 50.0), "ms"),
        "latency_tail_ms": (percentile(lat_ms, tail_p) if tail_p else max(lat_ms), "ms"),
        "cpu_s_per_op": (raw["cpu_s"] / raw["window_jobs"], "s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        "ok_share": (ok / n, "share"),
        "patch_cost_total": (float(raw["pass_cost"]), "cost"),
        "patch_gates_total": (float(raw["pass_gates"]), "gates"),
    }
    return metrics, {"tail_percentile": tail_p, "samples": n}


def _mean(jobs, field, scale=1.0):
    return sum(j.get(field, 0.0) for j in jobs) * scale / len(jobs) if jobs else 0.0


def per_layer(raw):
    """Per-layer metrics of a traced run: per-job means over the traced
    jobs, span self times, and the trace's own honesty shares."""
    jobs = [j for j in raw["jobs"] if j["traced"]]
    spans = raw["spans"]
    n = len(jobs)
    selfs = span_self_totals(spans)
    service = raw["workload"].startswith("service_")
    cec_only = raw["workload"] == "cec_verify"

    def span_ms(name):
        return selfs.get(name, 0.0) * 1e3 / n if n else 0.0

    refuted = sum(j.get("sim_refuted_support", 0.0) for j in jobs)
    support_checks = refuted + sum(j.get("support_sat_calls", 0.0) for j in jobs)
    untraced_tp = raw["window_jobs"] / raw["wall_s"]
    traced_tp = raw["traced_jobs"] / raw["traced_wall_s"] if raw["traced_wall_s"] > 0 else 0.0
    m = {
        "net.parse_ms": (span_ms("net.parse"), "ms"),
        "eco.make_problem_ms": (span_ms("eco.make_problem"), "ms"),
        "eco.run_ms": (_mean(jobs, "engine_s", 1e3), "ms"),
        "eco.window_ms": (_mean(jobs, "window_s", 1e3), "ms"),
        "eco.qbf_ms": (_mean(jobs, "qbf_s", 1e3), "ms"),
        "eco.sat_path_ms": (_mean(jobs, "sat_path_s", 1e3), "ms"),
        "eco.structural_ms": (_mean(jobs, "structural_s", 1e3), "ms"),
        "eco.assemble_ms": (_mean(jobs, "assemble_s", 1e3), "ms"),
        "eco.verify_ms": (_mean(jobs, "verify_s", 1e3), "ms"),
        "eco.qbf_iterations": (_mean(jobs, "qbf_iterations"), "count"),
        "eco.support_sat_calls": (_mean(jobs, "support_sat_calls"), "count"),
        "eco.satprune_iterations": (_mean(jobs, "satprune_iterations"), "count"),
        "eco.ladder_escalations": (_mean(jobs, "ladder_escalations"), "count"),
        "sat.solves": (_mean(jobs, "sat_solves"), "count"),
        "sat.decisions": (_mean(jobs, "sat_decisions"), "count"),
        "sat.propagations": (_mean(jobs, "sat_propagations"), "count"),
        "sat.conflicts": (_mean(jobs, "sat_conflicts"), "count"),
        "sat.propagations_saved": (_mean(jobs, "sat_propagations_saved"), "count"),
        "sim.refuted_support": (_mean(jobs, "sim_refuted_support"), "count"),
        "sim.refuted_share": (refuted / support_checks if support_checks else 0.0, "share"),
        # The engine's verification is its CEC call; cec_verify times the
        # call itself.
        "cec.check_ms": (span_ms("cec.check") if cec_only else _mean(jobs, "verify_s", 1e3), "ms"),
        "cec.sat_conflicts": (_mean(jobs, "sat_conflicts") if cec_only else 0.0, "count"),
        "cec.sat_propagations": (_mean(jobs, "sat_propagations") if cec_only else 0.0, "count"),
        "cec.sweep_merges": (_mean(jobs, "sweep_merges"), "count"),
        "service.queue_ms": (_mean(jobs, "queue_s", 1e3), "ms"),
        "service.exec_ms": (_mean(jobs, "exec_s", 1e3), "ms"),
        "service.engine_ms": (_mean(jobs, "engine_s", 1e3) if service else 0.0, "ms"),
        "service.frontend_ms": (
            (_mean(jobs, "exec_s") - _mean(jobs, "engine_s")) * 1e3 if service else 0.0, "ms"),
        "service.problem_hit_share": (_mean(jobs, "problem_hit"), "share"),
        "service.netlist_hit_share": (_mean(jobs, "netlist_hit"), "share"),
        "service.warm_patterns_in": (_mean(jobs, "warm_patterns_in"), "count"),
        "service.rejected": (float(sum(j.get("rejected", 0.0) for j in raw["jobs"])), "count"),
        "worker.overhead_ms": (
            sum(j["latency_s"] - j.get("queue_s", 0.0) - j.get("exec_s", 0.0) for j in jobs)
            * 1e3 / n if service and n else 0.0, "ms"),
        "worker.respawns": (float(max((j.get("worker_respawns", 0.0) for j in raw["jobs"]),
                                      default=0.0)), "count"),
        "worker.retries": (float(sum(j.get("worker_retries", 0.0) for j in raw["jobs"])), "count"),
        "trace.overhead_share": (1.0 - traced_tp / untraced_tp if untraced_tp else 0.0, "share"),
        "trace.job_attributed_share": (job_attributed_share(spans), "share"),
        "trace.engine_attributed_share": (engine_attributed_share(jobs), "share"),
    }
    return m
