// perfbench_runner: runs one perfbench workload against the ecopatch library
// and writes the raw measurements as one JSON document. run.py turns that
// document into the reported metrics; README.md describes the workloads.
//
// Usage: perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
//                         --dir WORKDIR --out RAW.json
//
// Exit status: 0 when every job returned its checked, expected result;
// 1 when any check failed (the raw document is still written); 2 on bad
// arguments or unusable inputs.

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "aig/aig.hpp"
#include "aig/ops.hpp"
#include "aig/sim.hpp"
#include "benchgen/suite.hpp"
#include "cec/cec.hpp"
#include "eco/engine.hpp"
#include "eco/problem.hpp"
#include "net/elaborate.hpp"
#include "net/verilog.hpp"
#include "net/weights.hpp"
#include "probes.hpp"
#include "service/artifacts.hpp"
#include "service/daemon.hpp"
#include "util/executor.hpp"
#include "util/jsonr.hpp"
#include "util/jsonw.hpp"
#include "util/telemetry.hpp"

namespace {

using perfbench::now_seconds;
using perfbench::ScopedSpan;
using perfbench::Tracer;

/// The Table-1 suite seed (benchgen/suite.hpp). Unit contents are fixed so
/// that every benchmark seed does the same work; the benchmark seed picks
/// where in the job cycle a run starts (timed_window).
constexpr uint64_t kSuiteSeed = 20170912;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;
  std::string out;
};

/// SplitMix64: a fixed, platform-independent stream for job orders.
struct Rng {
  uint64_t state;
  uint64_t next() {
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Fisher-Yates permutation of 0..n-1.
  std::vector<size_t> permutation(size_t n) {
    std::vector<size_t> p(n);
    for (size_t i = 0; i < n; ++i) p[i] = i;
    for (size_t i = n; i > 1; --i) std::swap(p[i - 1], p[next() % i]);
    return p;
  }
};

/// One timed job as the raw document records it: the client-visible
/// latency, whether every check passed, and named numeric fields (layer
/// timings and counters) that run.py averages into per-layer metrics.
struct JobRecord {
  double latency_s = 0;
  bool ok = false;
  bool traced = false;
  std::string label;
  std::map<std::string, double> fields;
};

/// Failures found by the output checks, printed and written to the raw
/// document; any entry makes the run exit non-zero.
class Failures {
 public:
  void add(const std::string& message) {
    std::lock_guard<std::mutex> lock(mu_);
    if (messages_.size() < 50) std::fprintf(stderr, "CHECK FAILED: %s\n", message.c_str());
    messages_.push_back(message);
  }
  std::vector<std::string> messages() const {
    std::lock_guard<std::mutex> lock(mu_);
    return messages_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::string> messages_;
};

/// The three files of one ECO instance, written from a benchgen unit.
struct InstanceFiles {
  std::string name;
  std::string impl, spec, weights;
};

InstanceFiles write_unit(const std::string& dir, int index, uint64_t suite_seed, int scale) {
  const eco::benchgen::EcoUnit unit = eco::benchgen::make_unit(index, suite_seed, scale);
  InstanceFiles f;
  f.name = unit.name + (suite_seed == kSuiteSeed ? "" : "_s" + std::to_string(suite_seed));
  const std::string base = dir + "/" + f.name;
  f.impl = base + "_impl.v";
  f.spec = base + "_spec.v";
  f.weights = base + "_weights.txt";
  eco::net::write_verilog_file(f.impl, unit.impl);
  eco::net::write_verilog_file(f.spec, unit.spec);
  eco::net::write_weights_file(f.weights, unit.weights);
  return f;
}

const char* algo_name(eco::core::Algorithm a) {
  switch (a) {
    case eco::core::Algorithm::kBaseline: return "baseline";
    case eco::core::Algorithm::kMinimize: return "minimize";
    case eco::core::Algorithm::kSatPruneCegarMin: return "satprune_cegarmin";
  }
  return "?";
}

const char* status_name(eco::core::EcoOutcome::Status s) {
  switch (s) {
    case eco::core::EcoOutcome::Status::kPatched: return "patched";
    case eco::core::EcoOutcome::Status::kInfeasible: return "infeasible";
    case eco::core::EcoOutcome::Status::kUnknown: return "unknown";
    case eco::core::EcoOutcome::Status::kError: return "error";
  }
  return "?";
}

const char* verification_name(eco::core::EcoOutcome::Verification v) {
  switch (v) {
    case eco::core::EcoOutcome::Verification::kVerified: return "verified";
    case eco::core::EcoOutcome::Verification::kInconclusive: return "inconclusive";
    case eco::core::EcoOutcome::Verification::kRefuted: return "refuted";
  }
  return "?";
}

/// The answer fields every repeat of a job must reproduce exactly.
struct Answer {
  std::string status, verification, method, fail_reason;
  size_t ladder_attempts = 0;
  int64_t cost = 0;
  int64_t gates = 0;

  bool same_as(const Answer& o) const {
    return status == o.status && verification == o.verification && method == o.method &&
           cost == o.cost && gates == o.gates;
  }
  std::string describe() const {
    return status + "/" + verification + "/" + method + " cost " + std::to_string(cost) +
           " gates " + std::to_string(gates) + " fail_reason " + fail_reason + " attempts " +
           std::to_string(ladder_attempts);
  }
  /// Empty when the job measured the program; otherwise why it measured a
  /// budget or failed instead (ROADMAP item 1: budget-bound jobs count as
  /// failed so they cannot read as a speed-up).
  std::string defect() const {
    if (status != "patched") return "status " + status;
    if (fail_reason == "budget") return "fail_reason budget";
    if (ladder_attempts != 1) return std::to_string(ladder_attempts) + " ladder attempts";
    if (verification != "verified") return "verification " + verification;
    return {};
  }
};

Answer answer_of(const eco::core::EcoOutcome& o) {
  Answer a;
  a.status = status_name(o.status);
  a.verification = verification_name(o.verification);
  a.method = o.method;
  a.fail_reason = eco::core::fail_reason_name(o.fail_reason);
  a.ladder_attempts = o.stats.ladder.size();
  a.cost = o.total_cost;
  a.gates = o.patch_gates;
  return a;
}

/// Engine-layer fields of one outcome, shared by the library and service
/// workloads (the service reads the same numbers from the outcome JSON).
void engine_fields(const eco::core::EcoOutcome& o, std::map<std::string, double>& f) {
  const eco::core::EngineStats& s = o.stats;
  f["engine_s"] = o.seconds;
  f["window_s"] = s.window_seconds;
  f["qbf_s"] = s.qbf_seconds;
  f["sat_path_s"] = s.sat_path_seconds;
  f["structural_s"] = s.structural_seconds;
  f["assemble_s"] = s.assemble_seconds;
  f["verify_s"] = s.verify_seconds;
  f["qbf_iterations"] = s.qbf_iterations;
  f["support_sat_calls"] = s.support_sat_calls;
  f["satprune_iterations"] = s.satprune_iterations;
  f["ladder_escalations"] = s.ladder.empty() ? 0.0 : static_cast<double>(s.ladder.size() - 1);
  f["sat_solves"] = static_cast<double>(s.sat_solves);
  f["sat_decisions"] = static_cast<double>(s.sat_decisions);
  f["sat_propagations"] = static_cast<double>(s.sat_propagations);
  f["sat_conflicts"] = static_cast<double>(s.sat_conflicts);
  f["sat_propagations_saved"] = static_cast<double>(s.sat_propagations_saved);
  f["sim_refuted_support"] = static_cast<double>(s.sim_refuted_support);
  f["sweep_merges"] = static_cast<double>(s.sweep_merges);
}

/// The same fields from a service response's outcome object.
void engine_fields(const eco::JsonValue& o, std::map<std::string, double>& f) {
  const eco::JsonValue& ph = o["phases"];
  const eco::JsonValue& c = o["counts"];
  const eco::JsonValue& sat = o["sat"];
  f["engine_s"] = o["seconds"].as_number();
  f["window_s"] = ph["window"].as_number();
  f["qbf_s"] = ph["qbf_feasibility"].as_number();
  f["sat_path_s"] = ph["sat_path"].as_number();
  f["structural_s"] = ph["structural"].as_number();
  f["assemble_s"] = ph["assemble"].as_number();
  f["verify_s"] = ph["verify"].as_number();
  f["qbf_iterations"] = c["qbf_iterations"].as_number();
  f["support_sat_calls"] = c["support_sat_calls"].as_number();
  f["satprune_iterations"] = c["satprune_iterations"].as_number();
  const size_t attempts = o["ladder"].as_array().size();
  f["ladder_escalations"] = attempts == 0 ? 0.0 : static_cast<double>(attempts - 1);
  f["sat_solves"] = sat["solves"].as_number();
  f["sat_decisions"] = sat["decisions"].as_number();
  f["sat_propagations"] = sat["propagations"].as_number();
  f["sat_conflicts"] = sat["conflicts"].as_number();
  f["sat_propagations_saved"] = sat["propagations_saved"].as_number();
  f["sim_refuted_support"] = o["sim"]["refuted_support"].as_number();
  f["sweep_merges"] = o["sweep"]["merges"].as_number();
}

Answer answer_of(const eco::JsonValue& o) {
  Answer a;
  a.status = o["status"].as_string();
  a.verification = o["verification"].as_string();
  a.method = o["method"].as_string();
  a.fail_reason = o["fail_reason"].as_string();
  a.ladder_attempts = o["ladder"].as_array().size();
  a.cost = static_cast<int64_t>(o["total_cost"].as_number(-1));
  a.gates = static_cast<int64_t>(o["patch_gates"].as_number(-1));
  return a;
}

/// What one workload run measured, in the form written to the raw document.
struct RunResult {
  std::map<std::string, std::string> params;
  std::vector<double> setup_s;
  double wall_s = 0;        ///< timed window (untraced parts in a traced run)
  double cpu_s = 0;         ///< process-tree CPU over the same window
  size_t window_jobs = 0;   ///< jobs completed in that window
  size_t min_jobs = 0;      ///< jobs the window runs at the least
  double traced_wall_s = 0;
  size_t traced_jobs = 0;
  double peak_rss_mb = 0;
  int64_t pass_cost = 0;
  int64_t pass_gates = 0;
  std::vector<JobRecord> jobs;
  std::vector<perfbench::Span> spans;
};

/// Runs whole passes of a job mix, one job at a time (a single closed-loop
/// client), until at least \p seconds have elapsed and at least
/// \p min_passes passes are done. Every pass submits the mix in the cyclic
/// \p order, continuing where the previous pass (or \p offset) left off.
/// \p run_job(index, job_id, record) executes mix entry \p index and fills
/// \p record. Returns the wall time; appends the records in completion
/// order.
double run_passes(double seconds, size_t min_passes, const std::vector<size_t>& order,
                  size_t& offset,
                  const std::function<void(size_t, int64_t, JobRecord&)>& run_job,
                  std::vector<JobRecord>& records, int64_t& next_job_id) {
  const size_t pass_size = order.size();
  const double start = now_seconds();
  for (size_t pass = 0; pass < min_passes || now_seconds() - start < seconds; ++pass) {
    for (size_t i = 0; i < pass_size; ++i) {
      JobRecord r;
      run_job(order[offset++ % pass_size], next_job_id++, r);
      records.push_back(std::move(r));
    }
  }
  return now_seconds() - start;
}

/// Measures the timed window: at least args.seconds and \p min_passes
/// whole passes. The pass minimum fixes the sample count the tail
/// percentile is chosen for (run.py), so it never depends on host speed.
///
/// The mix runs in one fixed pseudo-random cyclic order, and the seed picks
/// where in the cycle the window starts. A job's latency depends on what
/// ran before it (allocator and cache state), so a fixed cycle keeps each
/// job's predecessor the same on every run and seed.
///
/// A traced run alternates untraced and traced quarters (U T U T), so the
/// throughput gap between the two modes is the trace overhead without
/// either mode getting the start of the window; per-layer means use the
/// traced jobs.
void timed_window(const Args& args, size_t min_passes, size_t pass_size, Tracer& tracer,
                  const std::function<void(size_t, int64_t, JobRecord&)>& run_job,
                  RunResult& out) {
  const std::vector<size_t> order = Rng{kSuiteSeed}.permutation(pass_size);
  size_t offset = Rng{args.seed}.next() % pass_size;
  int64_t next_id = 0;
  if (!args.trace) {
    tracer.set_enabled(false);
    out.min_jobs = min_passes * pass_size;
    const double cpu0 = perfbench::process_tree_cpu_seconds();
    out.wall_s = run_passes(args.seconds, min_passes, order, offset, run_job, out.jobs, next_id);
    out.cpu_s = perfbench::process_tree_cpu_seconds() - cpu0;
    out.window_jobs = out.jobs.size();
  } else {
    out.min_jobs = 2 * pass_size;
    for (const bool traced : {false, true, false, true}) {
      tracer.set_enabled(traced);
      const size_t before = out.jobs.size();
      const double cpu0 = perfbench::process_tree_cpu_seconds();
      const double wall =
          run_passes(args.seconds / 4, 1, order, offset, run_job, out.jobs, next_id);
      const size_t jobs = out.jobs.size() - before;
      if (traced) {
        out.traced_wall_s += wall;
        out.traced_jobs += jobs;
        for (size_t i = before; i < out.jobs.size(); ++i) out.jobs[i].traced = true;
      } else {
        out.wall_s += wall;
        out.cpu_s += perfbench::process_tree_cpu_seconds() - cpu0;
        out.window_jobs += jobs;
      }
    }
    tracer.set_enabled(false);
    out.spans = tracer.spans();
  }
  out.peak_rss_mb = perfbench::process_tree_peak_rss_mb();
}

/// Called once the benchmark's own input generation is done: the system
/// under test's peak memory counts from here.
void start_system_under_test() {
  if (!perfbench::reset_peak_rss())
    std::fprintf(stderr, "perfbench_runner: cannot reset the peak RSS counter\n");
}

// ---------------------------------------------------------------------------
// eco_batch: the Table-1 user running `ecopatch solve` job after job.

struct BatchJob {
  int unit = 0;  ///< 1-based unit number
  eco::core::Algorithm algo = eco::core::Algorithm::kMinimize;
};

std::string label_of(const BatchJob& j) {
  return "unit" + std::to_string(j.unit) + "/" + algo_name(j.algo);
}

/// The scale-1 suite over all three algorithms minus the pairs whose wall
/// time is set by the budget in BENCH_table1.json: structural fallbacks
/// after budget expiry, and SAT_prune rows that spend their half of the
/// budget (engine.cpp gives SAT_prune half of what remains).
std::vector<BatchJob> batch_mix() {
  using A = eco::core::Algorithm;
  const std::set<int> skip_baseline = {9, 11, 12, 14, 20};
  const std::set<int> skip_minimize = {12, 20};
  const std::set<int> skip_satprune = {5, 6, 8, 9, 10, 11, 12, 14, 18, 19, 20};
  std::vector<BatchJob> mix;
  for (int u = 1; u <= eco::benchgen::kNumUnits; ++u) {
    if (!skip_baseline.count(u)) mix.push_back({u, A::kBaseline});
    if (!skip_minimize.count(u)) mix.push_back({u, A::kMinimize});
    if (!skip_satprune.count(u)) mix.push_back({u, A::kSatPruneCegarMin});
  }
  return mix;
}

/// The CLI's `solve` defaults (tools/ecopatch_cli.cpp) on a serial executor.
eco::core::EngineOptions cli_options(eco::core::Algorithm algo, eco::util::Executor& ex) {
  eco::core::EngineOptions o;
  o.time_budget = 60;
  o.algorithm = algo;
  o.executor = &ex;
  return o;
}

/// The patched implementation restricted to the shared inputs (target
/// inputs tied to 0, as they are unused after substitution), so it has
/// the specification's interface: what the engine's own final check
/// builds (verify_patched in eco/engine.cpp, which is not exported).
eco::aig::Aig restrict_to_shared(const eco::aig::Aig& patched, uint32_t shared) {
  eco::aig::Aig out;
  std::vector<eco::aig::Lit> map(patched.num_nodes(), eco::aig::kLitInvalid);
  map[0] = eco::aig::kLitFalse;
  for (uint32_t i = 0; i < patched.num_pis(); ++i)
    map[patched.pi_node(i)] = i < shared ? out.add_pi(patched.pi_name(i)) : eco::aig::kLitFalse;
  std::vector<eco::aig::Lit> roots;
  for (uint32_t i = 0; i < patched.num_pos(); ++i) roots.push_back(patched.po_lit(i));
  for (const eco::aig::Lit l : eco::aig::transfer(patched, out, roots, map)) out.add_po(l);
  return out;
}

uint64_t aig_fingerprint(const eco::aig::Aig& g) {
  uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](uint64_t v) { h = (h ^ v) * 1099511628211ULL; };
  mix(g.num_pis());
  for (eco::aig::Node n = g.num_pis() + 1; n < g.num_nodes(); ++n) {
    mix(g.fanin0(n));
    mix(g.fanin1(n));
  }
  for (uint32_t i = 0; i < g.num_pos(); ++i) mix(g.po_lit(i));
  return h;
}

void run_eco_batch(const Args& args, Tracer& tracer, Failures& failures, RunResult& out) {
  const std::vector<BatchJob> mix = batch_mix();
  std::map<int, InstanceFiles> files;
  for (const BatchJob& j : mix)
    if (!files.count(j.unit)) files[j.unit] = write_unit(args.dir, j.unit - 1, kSuiteSeed, 1);
  out.params["mix_jobs"] = std::to_string(mix.size());
  out.params["scale"] = "1";
  out.params["suite_seed"] = std::to_string(kSuiteSeed);
  out.params["clients"] = "1";
  out.params["engine"] = "cli defaults: budget 60, serial executor, ladder on, sim bank on, mono cec";

  std::unique_ptr<eco::util::Executor> executor;
  struct Kept {
    Answer answer;
    std::vector<std::string> support;
    std::string spec_path, weights_path;
  };
  std::mutex kept_mu;
  std::map<size_t, Kept> first;        // reference answer per mix entry
  std::map<uint64_t, std::pair<size_t, eco::aig::Aig>> distinct;  // by fingerprint

  const auto run_job = [&](size_t index, int64_t id, JobRecord& r) {
    const BatchJob& j = mix[index];
    const InstanceFiles& f = files.at(j.unit);
    r.label = label_of(j);
    const double t0 = now_seconds();
    eco::core::EcoOutcome outcome;
    {
      ScopedSpan job(tracer, "job", id);
      eco::service::LoadedInputs in;
      {
        ScopedSpan s(tracer, "net.parse", id, job.index());
        eco::service::SessionCache cache(0);
        in = eco::service::load_inputs(cache, f.impl, f.spec, f.weights);
      }
      eco::core::EcoProblem problem;
      {
        ScopedSpan s(tracer, "eco.make_problem", id, job.index());
        problem = eco::core::make_problem(in.impl->network, in.spec->network,
                                          in.weights->weights);
      }
      {
        ScopedSpan s(tracer, "eco.run", id, job.index());
        outcome = eco::core::run_eco(problem, cli_options(j.algo, *executor));
      }
      r.latency_s = now_seconds() - t0;
      const Answer a = answer_of(outcome);
      engine_fields(outcome, r.fields);
      r.fields["cost"] = static_cast<double>(a.cost);
      r.fields["gates"] = static_cast<double>(a.gates);
      r.ok = true;
      if (const std::string d = a.defect(); !d.empty()) {
        failures.add(r.label + ": " + d + " (" + a.describe() + ")");
        r.ok = false;
      }
      std::vector<std::string> support;
      for (const auto& t : outcome.targets)
        support.insert(support.end(), t.support.begin(), t.support.end());
      const uint64_t fp = aig_fingerprint(outcome.patched_impl);
      std::lock_guard<std::mutex> lock(kept_mu);
      auto it = first.find(index);
      if (it == first.end()) {
        first[index] = Kept{a, support, f.spec, f.weights};
      } else if (!it->second.answer.same_as(a) || it->second.support != support) {
        failures.add(r.label + ": repeat differs: " + a.describe() + " vs first " +
                     it->second.answer.describe());
        r.ok = false;
      }
      if (!distinct.count(fp)) distinct[fp] = {index, std::move(outcome.patched_impl)};
    }
  };

  // Set-up: a fresh serial executor plus a warm-up of the mix's jobs on
  // units 1-6 (about 0.5 s, so millisecond jitter of the tiny units does
  // not dominate it), repeated.
  std::vector<size_t> warm;
  for (size_t i = 0; i < mix.size(); ++i)
    if (mix[i].unit <= 6) warm.push_back(i);
  out.params["warmup_jobs"] = std::to_string(warm.size());
  start_system_under_test();
  constexpr int kSetups = 5;
  for (int s = 0; s < kSetups; ++s) {
    const double t0 = now_seconds();
    executor = std::make_unique<eco::util::Executor>(1);
    for (const size_t i : warm) {
      JobRecord scratch;
      run_job(i, -1, scratch);
    }
    out.setup_s.push_back(now_seconds() - t0);
  }

  timed_window(args, 3, mix.size(), tracer, run_job, out);

  // Outside the window: every distinct patched implementation is re-checked
  // against its specification, and every reported cost is recomputed from
  // the weight file and the reported supports.
  std::set<std::string> bad;
  for (const auto& [fp, entry] : distinct) {
    const auto& [index, patched] = entry;
    const Kept& k = first.at(index);
    const eco::net::Network spec_net = eco::net::parse_verilog_file(k.spec_path);
    const eco::aig::Aig spec = eco::net::elaborate(spec_net).aig;
    const eco::aig::Aig restricted = restrict_to_shared(patched, spec.num_pis());
    bool names_match = restricted.num_pis() == spec.num_pis();
    for (uint32_t i = 0; names_match && i < spec.num_pis(); ++i)
      names_match = restricted.pi_name(i) == spec.pi_name(i);
    const std::string label = label_of(mix[index]);
    if (!names_match || restricted.num_pos() != spec.num_pos()) {
      failures.add(label + ": patched implementation interface differs from the spec");
      bad.insert(label);
    } else if (eco::cec::check_equivalence(restricted, spec).status !=
               eco::cec::Status::kEquivalent) {
      failures.add(label + ": patched implementation is not equivalent to the spec");
      bad.insert(label);
    }
  }
  for (const auto& [index, k] : first) {
    const eco::net::WeightMap w = eco::net::parse_weights_file(k.weights_path);
    std::set<std::string> unique(k.support.begin(), k.support.end());
    int64_t cost = 0;
    for (const std::string& s : unique) cost += w.weight_of(s);
    const std::string label = label_of(mix[index]);
    if (cost != k.answer.cost) {
      failures.add(label + ": reported cost " + std::to_string(k.answer.cost) +
                   " but the weight file gives " + std::to_string(cost));
      bad.insert(label);
    }
    out.pass_cost += k.answer.cost;
    out.pass_gates += k.answer.gates;
  }
  for (JobRecord& r : out.jobs)
    if (bad.count(r.label)) r.ok = false;
  if (first.size() != mix.size()) failures.add("not every mix entry ran in the window");
}

// ---------------------------------------------------------------------------
// service_warm / service_cold: one closed-loop client of an in-process Daemon.

struct Session {
  InstanceFiles files;
  Answer reference;  ///< the in-process engine's answer on the same files
};

/// The in-process answer for a session: the daemon's engine defaults on
/// the library path (load_inputs, make_problem, run_eco).
Answer reference_answer(const InstanceFiles& f, const eco::service::ServiceOptions& so) {
  eco::service::SessionCache cache(0);
  const eco::service::LoadedInputs in = eco::service::load_inputs(cache, f.impl, f.spec, f.weights);
  const eco::core::EcoProblem problem =
      eco::core::make_problem(in.impl->network, in.spec->network, in.weights->weights);
  eco::core::EngineOptions o = so.engine;
  o.time_budget = so.default_budget_seconds;
  return answer_of(eco::core::run_eco(problem, o));
}

/// One synchronous request through the daemon's asynchronous interface.
std::string submit_and_wait(eco::service::Daemon& daemon, const std::string& line) {
  std::mutex mu;
  std::condition_variable cv;
  std::string response;
  bool done = false;
  daemon.submit_line(line, [&](std::string r) {
    std::lock_guard<std::mutex> lock(mu);
    response = std::move(r);
    done = true;
    cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done; });
  return response;
}

std::string solve_request(int64_t id, const InstanceFiles& f) {
  eco::JsonWriter w;
  w.begin_object();
  w.kv("op", "solve");
  w.kv("id", std::to_string(id));
  w.kv("impl", f.impl);
  w.kv("spec", f.spec);
  w.kv("weights", f.weights);
  w.end_object();
  return w.take();
}

void run_service(const Args& args, bool warm, Tracer& tracer, Failures& failures,
                RunResult& out) {
  // bench_service's session units (unit2, unit15, unit4) at scale 16. The
  // warm pool is one instance of each, which fits the default cache; the
  // cold pool takes the same families over four generator seeds.
  constexpr int kUnits[] = {1, 14, 3};
  constexpr int kScale = 16;
  const int suite_seeds = warm ? 1 : 4;
  std::vector<Session> sessions;
  for (int s = 0; s < suite_seeds; ++s)
    for (const int u : kUnits)
      sessions.push_back(Session{write_unit(args.dir, u, kSuiteSeed + s, kScale), {}});

  // The daemon keeps its documented configuration (two job slots, two
  // workers under isolation); a single client keeps one job running at a
  // time, so a run does not measure how a shared host schedules two.
  eco::service::ServiceOptions so;
  so.jobs = 2;
  if (!warm) {
    so.cache_budget_bytes = 0;
    so.worker.workers = 2;
  }
  out.params["sessions"] = std::to_string(sessions.size());
  out.params["scale"] = std::to_string(kScale);
  out.params["units"] = "unit2,unit15,unit4";
  out.params["suite_seeds"] = std::to_string(suite_seeds);
  out.params["clients"] = "1";
  out.params["daemon_jobs"] = std::to_string(so.jobs);
  out.params["isolate"] = std::to_string(so.worker.workers);
  out.params["cache_bytes"] = std::to_string(so.cache_budget_bytes);
  out.params["budget_s"] = std::to_string(so.default_budget_seconds);

  for (Session& s : sessions) {
    s.reference = reference_answer(s.files, so);
    if (const std::string d = s.reference.defect(); !d.empty())
      failures.add(s.files.name + ": in-process reference " + d);
  }

  std::unique_ptr<eco::service::Daemon> daemon;
  int64_t warm_ids = 1000000000;  // ids of set-up jobs, apart from timed ones
  const auto run_job = [&](size_t index, int64_t id, JobRecord& r) {
    const Session& s = sessions[index];
    r.label = s.files.name;
    const std::string line = solve_request(id, s.files);
    const double t0 = now_seconds();
    std::string response;
    {
      ScopedSpan job(tracer, "job", id);
      response = submit_and_wait(*daemon, line);
      r.latency_s = now_seconds() - t0;
      const auto doc = eco::json_parse(response);
      if (!doc || !(*doc)["ok"].as_bool()) {
        const std::string code = doc ? (*doc)["error"]["code"].as_string() : "unparsable";
        if (code == "queue_full" || code == "draining") r.fields["rejected"] = 1;
        failures.add(s.files.name + ": service error " + code + ": " + response.substr(0, 300));
        return;
      }
      const eco::JsonValue& svc = (*doc)["service"];
      const eco::JsonValue& outcome = (*doc)["outcome"];
      engine_fields(outcome, r.fields);
      const double queue = svc["queue_seconds"].as_number();
      const double exec = svc["exec_seconds"].as_number();
      r.fields["queue_s"] = queue;
      r.fields["exec_s"] = exec;
      const eco::JsonValue& cache = svc["cache"];
      r.fields["problem_hit"] = cache["problem_hit"].as_bool() ? 1 : 0;
      r.fields["netlist_hit"] =
          (cache["impl_hit"].as_bool() ? 0.5 : 0) + (cache["spec_hit"].as_bool() ? 0.5 : 0);
      r.fields["warm_patterns_in"] = svc["warm_patterns_in"].as_number();
      r.fields["worker_retries"] = svc["worker"]["retries"].as_number();
      r.fields["worker_respawns"] = svc["worker"]["respawns"].as_number();
      // The daemon's own queue and execution intervals, placed inside the
      // client span from its submit time; the rest is dispatch overhead.
      tracer.add("service.queue", id, job.index(), t0, t0 + queue);
      tracer.add("service.exec", id, job.index(), t0 + queue, t0 + queue + exec);
      const Answer a = answer_of(outcome);
      r.fields["cost"] = static_cast<double>(a.cost);
      r.fields["gates"] = static_cast<double>(a.gates);
      r.ok = true;
      if (const std::string d = a.defect(); !d.empty()) {
        failures.add(s.files.name + ": " + d + " (" + a.describe() + ")");
        r.ok = false;
      } else if (!a.same_as(s.reference)) {
        failures.add(s.files.name + ": service answer " + a.describe() +
                     " differs from the in-process engine's " + s.reference.describe());
        r.ok = false;
      }
    }
  };

  // Set-up: daemon construction (worker fork under isolation) plus a
  // warm-up pass over the first seed's sessions (all of the warm pool),
  // submitted one at a time so the pass does the same work on every run.
  // Repeated on fresh daemons; the last one serves the timed window.
  start_system_under_test();
  constexpr int kSetups = 5;
  for (int s = 0; s < kSetups; ++s) {
    daemon.reset();
    const double t0 = now_seconds();
    daemon = std::make_unique<eco::service::Daemon>(so);
    for (size_t i = 0; i < std::size(kUnits); ++i) {
      JobRecord scratch;
      run_job(i, warm_ids++, scratch);
    }
    out.setup_s.push_back(now_seconds() - t0);
  }

  timed_window(args, warm ? 67 : 9, sessions.size(), tracer, run_job, out);
  daemon->drain();
  const eco::service::DaemonCounters c = daemon->counters();
  if (c.rejected != 0) failures.add(std::to_string(c.rejected) + " job(s) rejected");
  for (const Session& s : sessions) {
    out.pass_cost += s.reference.cost;
    out.pass_gates += s.reference.gates;
  }
}

// ---------------------------------------------------------------------------
// cec_verify: verification on its own.

/// A copy of \p src with every AND re-expressed as (a|b)&(a XNOR b), which
/// computes the same function but shares no structure with \p src. With
/// \p mutate set, that node's first fanin is complemented: one buried
/// polarity bug. The construction of bench/bench_cec.cpp, repeated here
/// because that file is an executable, not a library.
eco::aig::Aig redecomposed(const eco::aig::Aig& src, eco::aig::Node mutate) {
  using namespace eco::aig;
  Aig dst;
  std::vector<Lit> map(src.num_nodes(), kLitInvalid);
  map[0] = kLitFalse;
  for (uint32_t i = 0; i < src.num_pis(); ++i) map[src.pi_node(i)] = dst.add_pi(src.pi_name(i));
  const auto xlate = [&map](Lit l) { return lit_notif(map[lit_node(l)], lit_compl(l)); };
  for (Node n = src.num_pis() + 1; n < src.num_nodes(); ++n) {
    Lit a = xlate(src.fanin0(n));
    const Lit b = xlate(src.fanin1(n));
    if (n == mutate) a = lit_notif(a, true);
    map[n] = dst.add_and(dst.add_or(a, b), dst.add_xnor(a, b));
  }
  for (uint32_t i = 0; i < src.num_pos(); ++i) dst.add_po(xlate(src.po_lit(i)));
  return dst;
}

struct CecCase {
  std::string name;
  eco::aig::Aig a, b;
  bool equivalent = true;
};

void run_cec_verify(const Args& args, Tracer& tracer, Failures& failures, RunResult& out) {
  // bench_cec's scale-4 classes: equivalent pairs, and buried-bug pairs
  // where bench_cec's bug is observable; each check takes 0.1-1 s.
  struct Cls {
    int unit, scale;
    bool with_bug;
  };
  constexpr Cls kClasses[] = {{1, 4, true}, {14, 4, true}, {3, 4, false}};
  std::vector<CecCase> cases;
  for (const Cls& c : kClasses) {
    const InstanceFiles f = write_unit(args.dir, c.unit, kSuiteSeed, c.scale);
    const eco::aig::Aig a = eco::net::elaborate(eco::net::parse_verilog_file(f.impl)).aig;
    cases.push_back(CecCase{f.name + "/equivalent", a, redecomposed(a, 0), true});
    if (!c.with_bug) continue;
    const eco::aig::Node first = a.num_pis() + 1;
    const eco::aig::Node bug = first + (a.num_nodes() - first) * 3 / 5;
    CecCase buggy{f.name + "/bug", a, redecomposed(a, bug), false};
    // Ground truth by construction: a simulated pattern that tells the
    // pair apart proves the bug observable.
    const std::vector<uint64_t> words = eco::aig::random_pi_words(a, kSuiteSeed, 64);
    const eco::aig::SimWords sa = eco::aig::simulate_words(buggy.a, words, 64);
    const eco::aig::SimWords sb = eco::aig::simulate_words(buggy.b, words, 64);
    const auto po_word = [](const eco::aig::Aig& g, const eco::aig::SimWords& sim, uint32_t o,
                            size_t w) {
      const eco::aig::Lit l = g.po_lit(o);
      const uint64_t v = sim.row(eco::aig::lit_node(l))[w];
      return eco::aig::lit_compl(l) ? ~v : v;
    };
    bool observable = false;
    for (uint32_t o = 0; o < a.num_pos(); ++o)
      for (size_t w = 0; w < 64; ++w)
        observable = observable || po_word(buggy.a, sa, o, w) != po_word(buggy.b, sb, o, w);
    if (!observable) throw std::runtime_error(buggy.name + ": bug not observable");
    cases.push_back(std::move(buggy));
  }
  out.params["cases"] = std::to_string(cases.size());
  out.params["classes"] = "unit2@x4 and unit15@x4 equivalent + buried bug, unit4@x4 equivalent";
  out.params["clients"] = "1";
  out.params["backend"] = "process default (mono)";
  std::vector<uint32_t> out_gates;
  for (const CecCase& c : cases) {
    out_gates.push_back(eco::cec::build_miter(c.a, c.b).num_ands());
    out.pass_cost += c.a.num_pis();
    out.pass_gates += out_gates.back();
  }

  const auto run_job = [&](size_t index, int64_t id, JobRecord& r) {
    const CecCase& c = cases[index];
    r.label = c.name;
    eco::telemetry::SolverTotalsAccumulator acc;
    eco::cec::CecResult res;
    const double t0 = now_seconds();
    {
      ScopedSpan job(tracer, "job", id);
      {
        ScopedSpan s(tracer, "cec.check", id, job.index());
        const eco::telemetry::ScopedSolverCapture capture(acc);
        // No random-simulation rounds: the engine's own final check goes
        // straight to the solver too (check_const0 with directed seeds
        // only), and random patterns would find the buried bug for free.
        res = eco::cec::check_equivalence(c.a, c.b, /*conflict_budget=*/-1, /*sim_rounds=*/0);
      }
      r.latency_s = now_seconds() - t0;
    }
    const eco::telemetry::SolverTotals t = acc.totals();
    r.fields["sat_solves"] = static_cast<double>(t.solves);
    r.fields["sat_decisions"] = static_cast<double>(t.decisions);
    r.fields["sat_propagations"] = static_cast<double>(t.propagations);
    r.fields["sat_conflicts"] = static_cast<double>(t.conflicts);
    r.fields["sat_propagations_saved"] = static_cast<double>(t.propagations_saved);
    const eco::cec::Status want =
        c.equivalent ? eco::cec::Status::kEquivalent : eco::cec::Status::kNotEquivalent;
    r.ok = res.status == want;
    if (!r.ok) failures.add(c.name + ": verdict differs from the constructed ground truth");
    if (res.status == eco::cec::Status::kNotEquivalent) {
      // The counterexample must really distinguish the pair.
      if (eco::aig::eval(c.a, res.counterexample) == eco::aig::eval(c.b, res.counterexample)) {
        failures.add(c.name + ": counterexample does not excite the miter");
        r.ok = false;
      }
    }
  };

  // Set-up: a warm-up check of the smallest case, repeated.
  start_system_under_test();
  size_t smallest = 0;
  for (size_t i = 1; i < cases.size(); ++i)
    if (out_gates[i] < out_gates[smallest]) smallest = i;
  constexpr int kSetups = 5;
  for (int s = 0; s < kSetups; ++s) {
    const double t0 = now_seconds();
    JobRecord scratch;
    run_job(smallest, -1, scratch);
    out.setup_s.push_back(now_seconds() - t0);
  }

  timed_window(args, 10, cases.size(), tracer, run_job, out);
}

// ---------------------------------------------------------------------------

bool write_raw(const std::string& path, const Args& args, const RunResult& r,
               const std::vector<std::string>& failures) {
  eco::JsonWriter w;
  w.begin_object();
  w.kv("schema", "perfbench-raw-v1");
  w.kv("workload", args.workload);
  w.kv("seed", args.seed);
  w.kv("seconds", args.seconds);
  w.kv("trace", args.trace);
  w.key("params");
  w.begin_object();
  for (const auto& [k, v] : r.params) w.kv(k, v);
  w.end_object();
  w.key("setup_s");
  w.begin_array();
  for (const double s : r.setup_s) w.value(s);
  w.end_array();
  w.kv("wall_s", r.wall_s);
  w.kv("cpu_s", r.cpu_s);
  w.kv("window_jobs", static_cast<uint64_t>(r.window_jobs));
  w.kv("min_jobs", static_cast<uint64_t>(r.min_jobs));
  w.kv("traced_wall_s", r.traced_wall_s);
  w.kv("traced_jobs", static_cast<uint64_t>(r.traced_jobs));
  w.kv("peak_rss_mb", r.peak_rss_mb);
  w.kv("pass_cost", r.pass_cost);
  w.kv("pass_gates", r.pass_gates);
  w.key("jobs");
  w.begin_array();
  for (const JobRecord& j : r.jobs) {
    w.begin_object();
    w.kv("label", j.label);
    w.kv("latency_s", j.latency_s);
    w.kv("ok", j.ok);
    w.kv("traced", j.traced);
    for (const auto& [k, v] : j.fields) w.kv(k, v);
    w.end_object();
  }
  w.end_array();
  w.key("spans");
  w.begin_array();
  for (const perfbench::Span& s : r.spans) {
    w.begin_object();
    w.kv("name", s.name);
    w.kv("job", s.job);
    w.kv("parent", s.parent);
    w.kv("start", s.start);
    w.kv("end", s.end);
    w.end_object();
  }
  w.end_array();
  w.key("failures");
  w.begin_array();
  for (const std::string& f : failures) w.value(f);
  w.end_array();
  w.end_object();
  std::ofstream f(path);
  f << w.str() << '\n';
  return static_cast<bool>(f.flush());
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_runner --workload eco_batch|service_warm|service_cold|"
               "cec_verify\n"
               "                        --seed N --seconds S --trace 0|1 --dir WORKDIR "
               "--out RAW.json\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    char* end = nullptr;
    errno = 0;
    if (k == "--workload") {
      args.workload = v;
    } else if (k == "--seed") {
      args.seed = std::strtoull(v.c_str(), &end, 10);
      if (errno != 0 || *end != '\0' || v.empty() || v[0] == '-') return usage();
    } else if (k == "--seconds") {
      args.seconds = std::strtod(v.c_str(), &end);
      if (errno != 0 || *end != '\0' || !(args.seconds > 0)) return usage();
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return usage();
      args.trace = v == "1";
    } else if (k == "--dir") {
      args.dir = v;
    } else if (k == "--out") {
      args.out = v;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || args.dir.empty() || args.out.empty()) return usage();
  std::error_code ec;
  std::filesystem::create_directories(args.dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench_runner: cannot create %s\n", args.dir.c_str());
    return 2;
  }

  Tracer tracer(false);
  Failures failures;
  RunResult result;
  try {
    if (args.workload == "eco_batch") {
      run_eco_batch(args, tracer, failures, result);
    } else if (args.workload == "service_warm" || args.workload == "service_cold") {
      run_service(args, args.workload == "service_warm", tracer, failures, result);
    } else if (args.workload == "cec_verify") {
      run_cec_verify(args, tracer, failures, result);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    failures.add(std::string("exception: ") + e.what());
  }
  const std::vector<std::string> f = failures.messages();
  if (!write_raw(args.out, args, result, f)) {
    std::fprintf(stderr, "perfbench_runner: cannot write %s\n", args.out.c_str());
    return 2;
  }
  return f.empty() ? 0 : 1;
}
