/// \file runner.cpp
/// Workload runner of the repository benchmark. perfbench/run.py builds
/// and drives it; one invocation runs one workload at one seed:
///
///   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
///                    --workdir DIR
///
/// and prints, as the last line of stdout, one JSON object of raw
/// measurements: set-up times, per-step wall times, checkpoint round
/// trips, output observations and check verdicts, and (with --trace 1)
/// per-layer figures. run.py turns them into the named metrics and checks
/// the observations against the references in perfbench/spec.json.
///
/// Only public entry points are called: the AprSimulation life cycle,
/// Lattice::step(), the step profiler, check_health(), the checkpoint
/// calls, and run_forked + DistributedField::exchange(Transport&). Layer
/// timings are taken around those calls or read from the profiler; the
/// library itself carries no benchmark instrumentation.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/apr/simulation.hpp"
#include "src/common/log.hpp"
#include "src/common/rng.hpp"
#include "src/exec/exec.hpp"
#include "src/geometry/vasculature.hpp"
#include "src/geometry/voxelizer.hpp"
#include "src/io/checkpoint.hpp"
#include "src/lbm/boundary.hpp"
#include "src/lbm/d3q19.hpp"
#include "src/mesh/shapes.hpp"
#include "src/obs/json.hpp"
#include "src/obs/proc_stats.hpp"
#include "src/obs/trace.hpp"
#include "src/parallel/decomposition.hpp"
#include "src/parallel/fork_transport.hpp"
#include "src/parallel/halo.hpp"
#include "src/perf/step_profiler.hpp"
#include "src/rheology/blood.hpp"

using namespace apr;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double peak_rss_mb() {
  return static_cast<double>(obs::sample_process_memory().peak_rss_bytes) /
         1e6;
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// ---------------------------------------------------------------------------
// Fixed benchmark settings. Geometry (and its seed) is part of a workload's
// identity; only AprParams::seed / the halo fill follow --seed.

constexpr int kWorkers = 2;          ///< exec workers of every APR run
constexpr int kSetupRepeats = 3;     ///< set-ups per untraced run (median)
constexpr int kHaloSetupRepeats = 7; ///< halo set-ups are cheap: take more
constexpr int kCheckpointRepeats = 5;
constexpr int kMinTimedSteps = 100;  ///< p90 needs >= 100 samples
constexpr int kCheckStep = 100;      ///< timed step the outputs are checked at
constexpr std::uint64_t kTreeGeometrySeed = 424242;
constexpr double kTreeScale = 0.10;          ///< cerebral_like() scale
constexpr int kTreeLevels = 2;               ///< branching generations
constexpr double kTreeWindowProper = 6e-6;   ///< window proper side [m]
constexpr int kTreeWarmup = 400;

struct Span {
  /// Benchmark-side span: wall time of one call into a layer, recorded in
  /// the process tracer when it is enabled.
  explicit Span(const char* name) : name_(name), t0_(Clock::now()) {}
  double stop() {
    const double s = since(t0_);
    auto& tr = obs::Tracer::instance();
    if (tr.enabled()) {
      const auto start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                                t0_.time_since_epoch())
                                .count() -
                            tr.epoch_ns();
      tr.record_complete("perfbench", name_, start_ns,
                         static_cast<std::int64_t>(s * 1e9));
    }
    return s;
  }

 private:
  const char* name_;
  Clock::time_point t0_;
};

/// Minimal JSON object writer for the result line.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    return raw(key, obs::json_number(v));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, "\"" + obs::json_escape(v) + "\"");
  }
  JsonObject& flag(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonObject& nums(const std::string& key, const std::vector<double>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i) s += ",";
      s += obs::json_number(v[i]);
    }
    return raw(key, s + "]");
  }
  JsonObject& raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + obs::json_escape(key) + "\":" + json;
    return *this;
  }
  std::string render() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// Output checks and operation accounting. Every step, checkpoint round
/// trip and check is one attempted operation; a throw or a failed check
/// is a failed one.
class Checks {
 public:
  void op(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  void check(const std::string& name, bool ok, const std::string& detail = {}) {
    op(ok);
    JsonObject o;
    o.flag("ok", ok).str("detail", detail);
    list_.raw(name, o.render());
  }
  long attempted() const { return attempted_; }
  long failed() const { return failed_; }
  std::string render() const { return list_.render(); }

 private:
  long attempted_ = 0;
  long failed_ = 0;
  JsonObject list_;
};

// ---------------------------------------------------------------------------
// APR workloads.

std::shared_ptr<fem::MembraneModel> make_rbc() {
  fem::MembraneParams p;
  p.shear_modulus = rheology::kRbcShearModulus;
  p.bending_modulus = rheology::kRbcBendingModulus;
  p.ka_global = 1e-6;
  p.kv_global = 1e-6;
  return std::make_shared<fem::MembraneModel>(mesh::rbc_biconcave(1, 1.0e-6),
                                              p);
}

std::shared_ptr<fem::MembraneModel> make_ctc() {
  fem::MembraneParams p;
  p.shear_modulus = rheology::kCtcShearModulus;
  p.bending_modulus = 10.0 * rheology::kRbcBendingModulus;
  p.ka_global = 1e-5;
  p.kv_global = 1e-5;
  return std::make_shared<fem::MembraneModel>(mesh::ctc_sphere(1, 1.6e-6), p);
}

core::FsiParams fsi_params() {
  core::FsiParams f;
  f.contact_cutoff = 0.4e-6;
  f.contact_strength = 2e-12;
  f.wall_cutoff = 0.5e-6;
  f.wall_strength = 5e-12;
  return f;
}

/// An APR workload on the tree. The timed phase replays one fixed episode
/// of coarse steps from the post-set-up state until the time budget is
/// spent, so a run's work depends on the seed only, never on how fast the
/// machine is.
struct AprSpec {
  double hematocrit = 0.0;   ///< window target hematocrit
  int episode_steps = 0;     ///< coarse steps per timed episode
};

AprSpec apr_spec(const std::string& workload) {
  if (workload == "bulk_tree") return {0.0, 500};
  if (workload == "dense_tree") return {0.30, 100};
  throw std::invalid_argument("unknown workload " + workload);
}

/// Fig. 9's cerebral-like tree generator settings (Vasculature::
/// cerebral_like) with fewer generations, so one set-up stays around a
/// second.
geometry::Vasculature cerebral_tree() {
  geometry::VasculatureParams p;
  p.root_direction = {0.15, 0.1, 1.0};
  p.root_radius = 150e-6 * kTreeScale;
  p.root_length = 1.5e-3 * kTreeScale;
  p.levels = kTreeLevels;
  p.radius_ratio = 0.794;
  p.length_ratio = 0.75;
  p.branch_angle = 0.6;
  p.angle_jitter = 0.25;
  p.taper = 0.88;
  Rng rng(kTreeGeometrySeed);
  return geometry::Vasculature::branching_tree(p, rng);
}

/// Fig. 9's synthetic cerebral-like tree, clipped so the root crosses the
/// z-min face (plug inlet) and distal branches cross the other faces
/// (zero-gradient outflow).
core::AprParams tree_params(std::uint64_t seed, double hematocrit) {
  core::AprParams p;
  p.dx_coarse = 3.0e-6;
  p.n = 3;
  p.tau_coarse = 1.0;
  p.nu_bulk = rheology::kWholeBloodKinematicViscosity;
  p.lambda = rheology::kPlasmaViscosity / rheology::kWholeBloodViscosity;
  p.window.proper_side = kTreeWindowProper;
  p.window.onramp_width = 0.0;
  p.window.insertion_width = 3e-6;  // outer = 12 um = 4 insertion tiles
  p.window.target_hematocrit = hematocrit;
  p.move.trigger_distance = 1.5e-6;
  p.fsi = fsi_params();
  p.maintain_interval = 4;
  p.rbc_capacity = 4000;
  p.seed = seed;
  return p;
}

/// One assembled APR workload instance.
struct AprCase {
  std::unique_ptr<core::AprSimulation> sim;
  std::vector<lbm::OutflowBoundary> outlets;
  Vec3 start;

  void coarse_step() {
    for (const auto& o : outlets) o.update(sim->coarse());
    sim->coarse().step();
  }
  void step() {
    for (const auto& o : outlets) o.update(sim->coarse());
    sim->step();
  }
};

/// Set-up phase timings and the layer figures read while setting up.
struct SetupReport {
  double total_s = 0.0;
  double build_s = 0.0;
  double build_peak_rss_mb = 0.0;
  double warmup_s = 0.0;
  double place_s = 0.0;
  double fill_s = 0.0;
  std::size_t coarse_fluid = 0;
  core::PopulationReport population;
  std::size_t rbc_count = 0;  ///< RBCs after the fill
};

std::unique_ptr<AprCase> setup_apr(const AprSpec& spec, std::uint64_t seed,
                                   SetupReport& rep) {
  const auto t0 = Clock::now();
  auto c = std::make_unique<AprCase>();
  Span build("geometry.build");
  auto vasc = std::make_shared<geometry::Vasculature>(cerebral_tree());
  const auto& root = vasc->segments().front();
  Aabb clip = vasc->bounds();
  clip.lo.z = root.a.z + 0.35 * (root.b.z - root.a.z);
  vasc->clip_bounds(clip);
  c->sim = std::make_unique<core::AprSimulation>(
      vasc, make_rbc(), make_ctc(), tree_params(seed, spec.hematocrit));
  auto& coarse = c->sim->coarse();
  const Vec3 u_in = normalized(root.b - root.a) * 0.03;
  geometry::mark_inlet(coarse, *vasc, lbm::Face::ZMin,
                       [&](const Vec3&) { return u_in; });
  for (const lbm::Face face : {lbm::Face::ZMax, lbm::Face::XMin,
                               lbm::Face::XMax, lbm::Face::YMin,
                               lbm::Face::YMax}) {
    c->outlets.push_back(lbm::OutflowBoundary::mark(coarse, face));
  }
  const double margin = c->sim->params().window.outer_side();
  for (const Vec3& p : vasc->main_path(2e-6)) {
    if (p.z > clip.lo.z + margin) {
      c->start = p;
      break;
    }
  }
  rep.build_s = build.stop();
  rep.build_peak_rss_mb = peak_rss_mb();

  rep.coarse_fluid = 0;
  for (std::size_t i = 0; i < coarse.num_nodes(); ++i) {
    if (coarse.type(i) == lbm::NodeType::Fluid) ++rep.coarse_fluid;
  }

  Span warm("lbm.warmup");
  c->sim->initialize_flow(Vec3{});
  for (int s = 0; s < kTreeWarmup; ++s) c->coarse_step();
  rep.warmup_s = warm.stop();

  Span place("apr.place");
  c->sim->place_window(c->start);
  c->sim->place_ctc(c->start);
  rep.place_s = place.stop();

  Span fill("apr.fill");
  rep.population = c->sim->fill_window();
  rep.fill_s = fill.stop();
  rep.rbc_count = c->sim->rbcs().size();
  rep.total_s = since(t0);
  return c;
}

/// Outputs checked against the recorded references (run.py compares).
struct Observation {
  bool taken = false;
  Vec3 ctc_displacement_um;
  double rbc_count = 0.0;
  double hematocrit = 0.0;
  double window_moves = 0.0;
  std::string digest;

  std::string render() const {
    JsonObject o;
    o.flag("taken", taken)
        .nums("ctc_displacement_um",
              {ctc_displacement_um.x, ctc_displacement_um.y,
               ctc_displacement_um.z})
        .num("rbc_count", rbc_count)
        .num("hematocrit", hematocrit)
        .num("window_moves", window_moves)
        .str("digest", digest);
    return o.render();
  }
};

Observation observe(const AprCase& c) {
  Observation ob;
  ob.taken = true;
  ob.ctc_displacement_um = (c.sim->ctc_position() - c.start) * 1e6;
  ob.rbc_count = static_cast<double>(c.sim->rbcs().size());
  ob.hematocrit = c.sim->window_hematocrit();
  ob.window_moves = c.sim->window_move_count();
  ob.digest = hex64(c.sim->state_digest());
  return ob;
}

/// Run `steps` timed coarse steps. Returns false when a step threw.
/// `per_step(s)` runs after step s (1-based), outside the step timing.
template <typename PerStep>
bool timed_steps(AprCase& c, int steps, std::vector<double>& step_ms,
                 Checks& checks, std::string& error, PerStep&& per_step) {
  for (int s = 1; s <= steps; ++s) {
    const auto ts = Clock::now();
    try {
      c.step();
    } catch (const std::exception& e) {
      checks.op(false);
      error = e.what();
      return false;
    }
    step_ms.push_back(since(ts) * 1e3);
    checks.op(true);
    per_step(s);
  }
  return true;
}

struct CheckpointRoundTrips {
  std::vector<double> round_trip_s;
  std::vector<double> save_s;
  std::vector<double> load_s;
  double bytes = 0.0;
};

CheckpointRoundTrips checkpoint_round_trips(AprCase& c, const std::string& path,
                                            Checks& checks) {
  CheckpointRoundTrips rt;
  bool same = true;
  std::string detail;
  for (int r = 0; r < kCheckpointRepeats; ++r) {
    const std::uint64_t before = c.sim->state_digest();
    Span save("io.checkpoint_save");
    c.sim->save_checkpoint(path);
    const double ss = save.stop();
    rt.bytes = static_cast<double>(std::filesystem::file_size(path));
    Span load("io.checkpoint_load");
    c.sim->load_checkpoint(path);
    const double ls = load.stop();
    const std::uint64_t after = c.sim->state_digest();
    rt.save_s.push_back(ss);
    rt.load_s.push_back(ls);
    rt.round_trip_s.push_back(ss + ls);
    checks.op(before == after);
    if (before != after) {
      same = false;
      detail = hex64(before) + " != " + hex64(after);
    }
  }
  std::filesystem::remove(path);
  checks.check("checkpoint_digest", same, detail);
  return rt;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v, std::size_t count) {
  count = std::min(count, v.size());
  if (count == 0) return 0.0;
  double s = 0.0;
  for (std::size_t i = 0; i < count; ++i) s += v[i];
  return s / static_cast<double>(count);
}

void health_check(const AprCase& c, Checks& checks) {
  const core::HealthReport h = c.sim->check_health();
  checks.check("health", h.ok(),
               h.ok() ? std::string{}
                      : std::string(core::to_string(h.check)) + " on " +
                            h.subject + ": " + h.message);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".";
};

/// Untraced run: end-to-end figures.
std::string run_apr(const Args& a) {
  const AprSpec spec = apr_spec(a.workload);
  exec::set_num_workers(kWorkers);
  Checks checks;
  std::vector<double> setup_s;
  std::unique_ptr<AprCase> c;
  SetupReport rep;
  for (int r = 0; r < kSetupRepeats; ++r) {
    c.reset();
    c = setup_apr(spec, a.seed, rep);
    setup_s.push_back(rep.total_s);
  }

  // Episodes replay from the same state: every one must end on the same
  // digest.
  const io::Checkpoint start_state = c->sim->make_checkpoint();
  std::vector<double> step_ms;
  Observation at_check;
  std::string error;
  std::vector<std::uint64_t> episode_digests;
  bool stepped = true;
  const auto t0 = Clock::now();
  while (stepped && (episode_digests.empty() || since(t0) < a.seconds)) {
    if (!episode_digests.empty()) c->sim->load_checkpoint(start_state);
    const bool first = episode_digests.empty();
    stepped = timed_steps(*c, spec.episode_steps, step_ms, checks, error,
                          [&](int s) {
                            if (first && s == kCheckStep) at_check = observe(*c);
                          });
    if (stepped) episode_digests.push_back(c->sim->state_digest());
  }
  checks.check("steps", stepped, error);
  const bool replays_agree =
      std::all_of(episode_digests.begin(), episode_digests.end(),
                  [&](std::uint64_t d) { return d == episode_digests.front(); });
  checks.check("episode_digest", stepped && replays_agree,
               std::to_string(episode_digests.size()) + " episodes");

  CheckpointRoundTrips rt;
  if (stepped) {
    health_check(*c, checks);
    rt = checkpoint_round_trips(*c, a.workdir + "/" + a.workload + ".chk",
                                checks);
  }

  JsonObject o;
  o.num("workers", kWorkers)
      .nums("setup_s", setup_s)
      .nums("step_ms", step_ms)
      .num("episode_steps", spec.episode_steps)
      .nums("checkpoint_s", rt.round_trip_s)
      .num("checkpoint_bytes", rt.bytes)
      .num("peak_rss_mb", peak_rss_mb())
      .raw("observation", at_check.render())
      .raw("checks", checks.render())
      .num("attempted", static_cast<double>(checks.attempted()))
      .num("failed", static_cast<double>(checks.failed()));
  return o.render();
}

/// Profiler figures accumulated over a traced segment.
struct PhaseTotals {
  double seconds[perf::kNumStepPhases] = {};
  double calls[perf::kNumStepPhases] = {};
  double site_updates[perf::kNumStepPhases] = {};

  static PhaseTotals read(const perf::StepProfiler& p) {
    PhaseTotals t;
    for (int i = 0; i < perf::kNumStepPhases; ++i) {
      const auto& s = p.stats(static_cast<perf::StepPhase>(i));
      t.seconds[i] = s.seconds;
      t.calls[i] = static_cast<double>(s.calls);
      t.site_updates[i] = static_cast<double>(s.site_updates);
    }
    return t;
  }
  double sec(perf::StepPhase ph) const { return seconds[static_cast<int>(ph)]; }
  double n(perf::StepPhase ph) const { return calls[static_cast<int>(ph)]; }
  double total() const {
    double s = 0.0;
    for (double v : seconds) s += v;
    return s;
  }
};

/// Traced run: per-layer figures. Steps a reference segment with tracing
/// off, restores the post-set-up state, and replays the same number of
/// steps with the tracer on and benchmark spans around every call; the
/// two final digests must agree. A last segment at one worker gives the
/// single-threaded baseline.
std::string run_apr_traced(const Args& a) {
  const AprSpec spec = apr_spec(a.workload);
  exec::set_num_workers(kWorkers);
  Checks checks;
  auto& tracer = obs::Tracer::instance();
  tracer.set_enabled(true);
  SetupReport rep;
  auto c = setup_apr(spec, a.seed, rep);
  tracer.set_enabled(false);
  const io::Checkpoint start_state = c->sim->make_checkpoint();
  const lbm::Lattice& coarse = c->sim->coarse();
  const double coarse_fill =
      static_cast<double>(rep.coarse_fluid) /
      static_cast<double>(std::max<std::size_t>(
          1, coarse.num_tiles() * lbm::Lattice::kTileNodes));
  const double bytes_per_fluid =
      static_cast<double>(coarse.tiled_bytes()) /
      static_cast<double>(std::max<std::size_t>(1, rep.coarse_fluid));

  // Segment A: one untraced episode.
  const int steps = spec.episode_steps;
  std::vector<double> untraced_ms;
  std::string error;
  Observation at_check;
  bool ok = timed_steps(*c, steps, untraced_ms, checks, error, [&](int s) {
    if (s == kCheckStep) at_check = observe(*c);
  });
  const std::uint64_t untraced_digest = c->sim->state_digest();

  // Segment B: traced replay of the same steps.
  std::vector<double> traced_ms;
  PhaseTotals phases;
  double vertex_calls[perf::kNumStepPhases] = {};
  int moves = 0;
  std::uint64_t plan_rebuilds = 0;
  std::uint64_t traced_digest = 0;
  if (ok) {
    c->sim->load_checkpoint(start_state);
    c->sim->profiler().reset();
    const int moves0 = c->sim->window_move_count();
    tracer.set_enabled(true);
    PhaseTotals prev = PhaseTotals::read(c->sim->profiler());
    double verts = 0.0;
    const auto count_vertices = [&] {
      verts = static_cast<double>(c->sim->rbcs().size() *
                                      c->sim->rbcs().vertices_per_cell() +
                                  c->sim->ctcs().size() *
                                      c->sim->ctcs().vertices_per_cell());
    };
    count_vertices();
    ok = timed_steps(*c, steps, traced_ms, checks, error, [&](int) {
      const PhaseTotals now = PhaseTotals::read(c->sim->profiler());
      for (int i = 0; i < perf::kNumStepPhases; ++i) {
        vertex_calls[i] += verts * (now.calls[i] - prev.calls[i]);
      }
      prev = now;
      count_vertices();
    });
    tracer.set_enabled(false);
    phases = PhaseTotals::read(c->sim->profiler());
    moves = c->sim->window_move_count() - moves0;
    plan_rebuilds = c->sim->coarse().plan_rebuilds() +
                    (c->sim->has_window() ? c->sim->fine().plan_rebuilds() : 0);
    traced_digest = c->sim->state_digest();
    checks.check("traced_digest", ok && traced_digest == untraced_digest,
                 hex64(untraced_digest) + " vs " + hex64(traced_digest));
  }
  checks.check("steps", ok, error);
  if (ok) health_check(*c, checks);

  // Checkpoint write / read rates of the final state.
  CheckpointRoundTrips rt;
  if (ok) {
    rt = checkpoint_round_trips(*c, a.workdir + "/" + a.workload + ".chk",
                                checks);
  }

  // Segment C: the same steps from the same state at one worker.
  std::vector<double> serial_ms;
  if (ok) {
    c->sim->load_checkpoint(start_state);
    exec::set_num_workers(1);
    const int serial_steps = std::max(
        20, std::min(steps, static_cast<int>(a.seconds * 0.2 * 1e3 /
                                             std::max(1e-9, median(untraced_ms)) /
                                             2.0)));
    ok = timed_steps(*c, serial_steps, serial_ms, checks, error, [](int) {});
    exec::set_num_workers(kWorkers);
    checks.check("serial_steps", ok, error);
  }

  const double n_steps = std::max<double>(1.0, static_cast<double>(steps));
  const auto ms_per_step = [&](perf::StepPhase ph) {
    return phases.sec(ph) * 1e3 / n_steps;
  };
  const auto per_second = [&](perf::StepPhase ph) {
    const double s = phases.sec(ph);
    return s > 0.0 ? vertex_calls[static_cast<int>(ph)] / s : 0.0;
  };
  const double p50_untraced = median(untraced_ms);
  const double p50_traced = median(traced_ms);
  double traced_total_ms = 0.0;
  for (double v : traced_ms) traced_total_ms += v;
  const double serial_mean = mean(serial_ms, serial_ms.size());
  const double parallel_mean = mean(untraced_ms, serial_ms.size());
  using P = perf::StepPhase;

  JsonObject layers;
  layers.num("geometry.build_s", rep.build_s)
      .num("geometry.build_peak_rss_mb", rep.build_peak_rss_mb)
      .num("lbm.coarse_mlups",
           rep.warmup_s > 0.0 ? static_cast<double>(rep.coarse_fluid) *
                                    kTreeWarmup / rep.warmup_s / 1e6
                              : 0.0)
      .num("lbm.fine_mlups",
           phases.sec(P::FineCollideStream) > 0.0
               ? phases.site_updates[static_cast<int>(P::FineCollideStream)] /
                     phases.sec(P::FineCollideStream) / 1e6
               : 0.0)
      .num("lbm.plan_rebuilds", static_cast<double>(plan_rebuilds))
      .num("lbm.coarse_fill_fraction", coarse_fill)
      .num("lbm.bytes_per_fluid_pt", bytes_per_fluid)
      .num("lbm.coarse_ms", ms_per_step(P::CoarseCollideStream))
      .num("lbm.fine_ms", ms_per_step(P::FineCollideStream))
      .num("apr.coupling_ms", ms_per_step(P::Coupling))
      .num("apr.window_moves", moves)
      .num("apr.window_move_ms",
           moves > 0 ? phases.sec(P::WindowMove) * 1e3 / moves : 0.0)
      .num("apr.maintain_ms",
           phases.n(P::Maintenance) > 0.0
               ? phases.sec(P::Maintenance) * 1e3 / phases.n(P::Maintenance)
               : 0.0)
      .num("apr.fill_s", rep.fill_s)
      .num("cells.rbc_count", static_cast<double>(rep.rbc_count))
      .num("cells.fill_accept_ratio",
           [&] {
             const double tried = rep.population.added +
                                  rep.population.rejected_overlap +
                                  rep.population.rejected_wall;
             return tried > 0.0 ? rep.population.added / tried : 0.0;
           }())
      .num("fem.forces_ms", ms_per_step(P::Forces))
      .num("fem.vertices_per_s", per_second(P::Forces))
      .num("ibm.spread_ms", ms_per_step(P::Spread))
      .num("ibm.spread_vertices_per_s", per_second(P::Spread))
      .num("ibm.interpolate_ms", ms_per_step(P::Advect))
      .num("ibm.interpolate_vertices_per_s", per_second(P::Advect))
      .num("io.checkpoint_write_mb_per_s",
           rt.save_s.empty() ? 0.0 : rt.bytes / 1e6 / median(rt.save_s))
      .num("io.checkpoint_read_mb_per_s",
           rt.load_s.empty() ? 0.0 : rt.bytes / 1e6 / median(rt.load_s))
      .num("exec.parallel_efficiency",
           parallel_mean > 0.0 ? serial_mean / (kWorkers * parallel_mean)
                               : 0.0)
      .num("obs.trace_overhead_frac",
           p50_untraced > 0.0 ? p50_traced / p50_untraced - 1.0 : 0.0)
      .num("obs.phase_coverage_frac",
           traced_total_ms > 0.0 ? phases.total() * 1e3 / traced_total_ms
                                 : 0.0);
  for (const char* name :
       {"parallel.exchange_ms", "parallel.pack_ms", "parallel.wire_ms",
        "parallel.unpack_ms", "parallel.update_ms", "parallel.bytes_per_step",
        "parallel.messages_per_step", "parallel.retries",
        "parallel.wait_fraction"}) {
    layers.num(name, 0.0);  // the APR step runs in a single process
  }

  const std::string trace_path = a.workdir + "/" + a.workload + ".trace.json";
  tracer.write_chrome_json(trace_path);
  tracer.clear();

  JsonObject setup;
  setup.num("build_s", rep.build_s)
      .num("warmup_s", rep.warmup_s)
      .num("place_s", rep.place_s)
      .num("fill_s", rep.fill_s)
      .num("coarse_nodes", static_cast<double>(coarse.num_nodes()))
      .num("coarse_tiles", static_cast<double>(coarse.num_tiles()))
      .num("coarse_fluid", static_cast<double>(rep.coarse_fluid))
      .num("checkpoint_bytes", rt.bytes)
      .nums("checkpoint_s", rt.round_trip_s);

  JsonObject o;
  o.num("workers", kWorkers)
      .raw("setup", setup.render())
      .nums("step_ms", untraced_ms)
      .nums("traced_step_ms", traced_ms)
      .nums("serial_step_ms", serial_ms)
      .num("steps", steps)
      .raw("observation", at_check.render())
      .raw("layers", layers.render())
      .str("trace_file", trace_path)
      .raw("checks", checks.render())
      .num("attempted", static_cast<double>(checks.attempted()))
      .num("failed", static_cast<double>(checks.failed()));
  return o.render();
}

// ---------------------------------------------------------------------------
// Halo-exchange workload: two forked ranks, one DistributedField per D3Q19
// direction. Every step each rank relaxes its owned nodes towards their
// upstream neighbour along that direction (so the halo is read) and then
// exchanges the field over the fork transport.

constexpr int kHaloRanks = 2;
constexpr int kHaloWidth = 2;
const Int3 kHaloDims{32, 32, 32};
constexpr int kControlTag = 0x5042434C;  // "PBCL"
constexpr int kCalibrationSteps = 20;
/// Consecutive exchange steps summarized together (each step does the
/// same work, so blocks play the role of the APR workloads' episodes).
constexpr int kHaloBlockSteps = 100;
constexpr std::uint32_t kHaloCheckpointTag = io::fourcc('P', 'B', 'H', 'F');

double initial_value(std::uint64_t seed, int q, const Int3& n) {
  std::uint64_t h = seed * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(q);
  for (int c : {n.x, n.y, n.z}) {
    h ^= static_cast<std::uint64_t>(c) + 0x9E3779B97F4A7C15ull + (h << 6) +
         (h >> 2);
    h *= 0xBF58476D1CE4E5B9ull;
    h ^= h >> 31;
  }
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// One process's copy of the 19 fields. Every process holds every rank's
/// store; a rank updates and exchanges only its own.
class HaloState {
 public:
  explicit HaloState(std::uint64_t seed) : decomp_(kHaloDims, kHaloRanks) {
    for (int q = 0; q < lbm::kQ; ++q) {
      fields_.push_back(
          std::make_unique<parallel::DistributedField>(decomp_, kHaloWidth));
      fields_.back()->fill_owned(
          [&](const Int3& n) { return initial_value(seed, q, n); });
    }
  }
  HaloState(const HaloState&) = delete;
  HaloState& operator=(const HaloState&) = delete;

  /// Relax rank's owned nodes of field q towards the upstream neighbour.
  void update(int q, int rank) {
    parallel::DistributedField& f = *fields_[static_cast<std::size_t>(q)];
    const parallel::TaskBox box = decomp_.task_box(rank);
    const auto& c = lbm::kC[static_cast<std::size_t>(q)];
    scratch_.clear();
    for (int z = box.lo.z; z < box.hi.z; ++z) {
      for (int y = box.lo.y; y < box.hi.y; ++y) {
        for (int x = box.lo.x; x < box.hi.x; ++x) {
          // |c| <= 1 < halo width: every in-domain upstream node is stored.
          const Int3 up{x - c[0], y - c[1], z - c[2]};
          const bool in_domain = up.x >= 0 && up.x < kHaloDims.x &&
                                 up.y >= 0 && up.y < kHaloDims.y &&
                                 up.z >= 0 && up.z < kHaloDims.z;
          const double v = f.at(rank, {x, y, z});
          const double u = in_domain ? f.at(rank, up) : v;
          scratch_.push_back(0.5 * v + 0.5 * u);
        }
      }
    }
    std::size_t i = 0;
    for (int z = box.lo.z; z < box.hi.z; ++z) {
      for (int y = box.lo.y; y < box.hi.y; ++y) {
        for (int x = box.lo.x; x < box.hi.x; ++x) {
          f.at(rank, {x, y, z}) = scratch_[i++];
        }
      }
    }
  }

  /// One exchange step of this rank over the transport.
  void step(parallel::Transport& t) {
    for (int q = 0; q < lbm::kQ; ++q) {
      Span upd("halo.update");
      update(q, t.rank());
      update_s += upd.stop();
      parallel::DistributedField& f = *fields_[static_cast<std::size_t>(q)];
      f.exchange(t);
      exchange_s += f.last_exchange_seconds();
      const parallel::ExchangePhases& ph = f.last_exchange_phases();
      phases.pack_seconds += ph.pack_seconds;
      phases.wire_seconds += ph.wire_seconds;
      phases.unpack_seconds += ph.unpack_seconds;
    }
  }

  /// The same step for every rank in this process, over the loopback hub.
  void step_all_loopback() {
    for (int q = 0; q < lbm::kQ; ++q) {
      for (int r = 0; r < kHaloRanks; ++r) update(q, r);
      fields_[static_cast<std::size_t>(q)]->exchange();
    }
  }

  void exchange_all(parallel::Transport& t) {
    for (auto& f : fields_) f->exchange(t);
  }
  void exchange_all_loopback() {
    for (auto& f : fields_) f->exchange();
  }

  std::uint64_t digest(int rank) const {
    io::Fnv1a h;
    for (const auto& f : fields_) h.update_pod(f->store_digest(rank));
    return h.value();
  }

  /// Owned values of `rank`, one checkpoint section per field.
  io::Checkpoint checkpoint(int rank) const {
    io::Checkpoint ck;
    const parallel::TaskBox box = decomp_.task_box(rank);
    for (int q = 0; q < lbm::kQ; ++q) {
      const parallel::DistributedField& f = *fields_[static_cast<std::size_t>(q)];
      std::vector<double> v;
      v.reserve(static_cast<std::size_t>(box.num_nodes()));
      for (int z = box.lo.z; z < box.hi.z; ++z) {
        for (int y = box.lo.y; y < box.hi.y; ++y) {
          for (int x = box.lo.x; x < box.hi.x; ++x) {
            v.push_back(f.at(rank, {x, y, z}));
          }
        }
      }
      io::BufWriter w;
      w.vec(v);
      ck.add(kHaloCheckpointTag + static_cast<std::uint32_t>(q), w.take());
    }
    return ck;
  }

  /// Restore what checkpoint(rank) saved.
  void restore(int rank, const io::Checkpoint& ck) {
    const parallel::TaskBox box = decomp_.task_box(rank);
    for (int q = 0; q < lbm::kQ; ++q) {
      parallel::DistributedField& f = *fields_[static_cast<std::size_t>(q)];
      io::BufReader r(
          ck.section(kHaloCheckpointTag + static_cast<std::uint32_t>(q)),
          "halo field");
      std::vector<double> v;
      r.vec(v, static_cast<std::uint64_t>(box.num_nodes()));
      if (v.size() != static_cast<std::size_t>(box.num_nodes())) {
        throw io::CheckpointError("halo field: wrong node count");
      }
      std::size_t i = 0;
      for (int z = box.lo.z; z < box.hi.z; ++z) {
        for (int y = box.lo.y; y < box.hi.y; ++y) {
          for (int x = box.lo.x; x < box.hi.x; ++x) {
            f.at(rank, {x, y, z}) = v[i++];
          }
        }
      }
    }
  }

  double update_s = 0.0;
  double exchange_s = 0.0;
  parallel::ExchangePhases phases;

 private:
  parallel::BoxDecomposition decomp_;
  std::vector<std::unique_ptr<parallel::DistributedField>> fields_;
  std::vector<double> scratch_;
};

std::vector<char> encode_u64s(const std::vector<std::uint64_t>& v) {
  io::BufWriter w;
  w.vec(v);
  return w.take();
}

std::vector<std::uint64_t> decode_u64s(const std::vector<char>& bytes) {
  io::BufReader r(bytes, "control message");
  std::vector<std::uint64_t> v;
  r.vec(v, 64);
  return v;
}

std::uint64_t bits_of(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

double double_of(std::uint64_t u) {
  double d = 0.0;
  std::memcpy(&d, &u, sizeof(d));
  return d;
}

/// Exchange steps on this rank: exactly `fixed_steps` when > 0, otherwise
/// rank 0 sizes the run after kCalibrationSteps so it lasts about
/// `seconds` (and at least kMinTimedSteps) and tells the other ranks.
/// Records this rank's digest after kCheckStep steps.
int halo_steps(HaloState& st, parallel::Transport& t, double seconds,
               int fixed_steps, std::vector<double>& step_ms,
               std::uint64_t& digest_at_check) {
  int total = fixed_steps;
  for (int s = 1;; ++s) {
    if (total <= 0 && s == kCalibrationSteps + 1) {
      if (t.rank() == 0) {
        const double per_step = mean(step_ms, step_ms.size());
        total = std::max(kMinTimedSteps,
                         static_cast<int>(std::ceil(seconds * 1e3 / per_step)));
        for (int p = 1; p < t.size(); ++p) {
          t.send(p, kControlTag,
                 encode_u64s({static_cast<std::uint64_t>(total)}));
        }
      } else {
        total = static_cast<int>(decode_u64s(t.recv(0, kControlTag)).at(0));
      }
    }
    if (total > 0 && s > total) break;
    const auto ts = Clock::now();
    st.step(t);
    step_ms.push_back(since(ts) * 1e3);
    if (s == kCheckStep) digest_at_check = st.digest(t.rank());
  }
  return total;
}

/// Saves rank's owned state to `path`, reads it back into the fields and
/// checks the store digest survived.
CheckpointRoundTrips halo_checkpoint_round_trips(HaloState& st, int rank,
                                                 const std::string& path,
                                                 Checks& checks) {
  CheckpointRoundTrips rt;
  bool same = true;
  for (int r = 0; r < kCheckpointRepeats; ++r) {
    const std::uint64_t before = st.digest(rank);
    Span save("io.checkpoint_save");
    st.checkpoint(rank).write(path);
    const double ss = save.stop();
    rt.bytes = static_cast<double>(std::filesystem::file_size(path));
    Span load("io.checkpoint_load");
    st.restore(rank, io::Checkpoint::read(path));
    const double ls = load.stop();
    rt.save_s.push_back(ss);
    rt.load_s.push_back(ls);
    rt.round_trip_s.push_back(ss + ls);
    const bool ok = st.digest(rank) == before;
    checks.op(ok);
    same = same && ok;
  }
  std::filesystem::remove(path);
  checks.check("checkpoint_digest", same);
  return rt;
}

/// Loopback oracle: every rank's digest after kCheckStep steps, and the
/// mean single-process wall time of one step over all ranks.
std::vector<std::uint64_t> loopback_reference(std::uint64_t seed,
                                              double* ms_per_step) {
  exec::set_num_workers(1);
  HaloState ref(seed);
  ref.exchange_all_loopback();
  const auto t0 = Clock::now();
  for (int s = 0; s < kCheckStep; ++s) ref.step_all_loopback();
  if (ms_per_step) *ms_per_step = since(t0) * 1e3 / kCheckStep;
  std::vector<std::uint64_t> d;
  for (int r = 0; r < kHaloRanks; ++r) d.push_back(ref.digest(r));
  return d;
}

void check_against_loopback(const Args& a,
                            const std::vector<std::uint64_t>& rank_digests,
                            Checks& checks, double* ms_per_step = nullptr) {
  const std::vector<std::uint64_t> ref = loopback_reference(a.seed, ms_per_step);
  std::string detail;
  bool same = rank_digests.size() == ref.size();
  for (std::size_t r = 0; same && r < ref.size(); ++r) {
    if (rank_digests[r] != ref[r]) {
      same = false;
      detail = "rank " + std::to_string(r) + ": " + hex64(rank_digests[r]) +
               " != loopback " + hex64(ref[r]);
    }
  }
  checks.check("loopback_digest", same, detail);
}

/// Sends rank's {digest, peak RSS, retries, ...} to rank 0 and returns
/// what rank 0 collected, rank-ordered (rank 0 only).
std::vector<std::vector<std::uint64_t>> gather_u64s(
    parallel::Transport& t, const std::vector<std::uint64_t>& mine) {
  std::vector<std::vector<std::uint64_t>> all;
  if (t.rank() != 0) {
    t.send(0, kControlTag, encode_u64s(mine));
    return all;
  }
  all.push_back(mine);
  for (int p = 1; p < t.size(); ++p) {
    all.push_back(decode_u64s(t.recv(p, kControlTag)));
  }
  return all;
}

std::string run_halo(const Args& a) {
  Checks checks;
  std::vector<double> setup_s;
  std::vector<double> step_ms;
  std::vector<std::uint64_t> rank_digests;
  double rss_mb = 0.0;
  CheckpointRoundTrips rt;
  parallel::ForkOptions opts;
  opts.ranks = kHaloRanks;
  std::string fork_error;
  for (int r = 0; r < kHaloSetupRepeats; ++r) {
    const bool timed = r + 1 == kHaloSetupRepeats;
    const auto t0 = Clock::now();
    int rc = 1;
    try {
      rc = parallel::run_forked(opts, [&](parallel::Transport& t) {
        exec::set_num_workers(1);
        HaloState st(a.seed);
        st.exchange_all(t);  // build plans and warm the sockets
        if (t.rank() == 0) setup_s.push_back(since(t0));
        if (!timed) return 0;
        std::vector<double> ms;
        std::uint64_t digest = 0;
        halo_steps(st, t, a.seconds, 0, ms, digest);
        const auto all =
            gather_u64s(t, {digest, bits_of(peak_rss_mb())});
        if (t.rank() != 0) return 0;
        step_ms = ms;
        for (const auto& v : all) {
          rank_digests.push_back(v.at(0));
          rss_mb = std::max(rss_mb, double_of(v.at(1)));
        }
        rt = halo_checkpoint_round_trips(
            st, 0, a.workdir + "/" + a.workload + ".chk", checks);
        return 0;
      });
    } catch (const std::exception& e) {
      fork_error = e.what();
    }
    checks.op(rc == 0);
    if (rc != 0 && fork_error.empty()) {
      fork_error = "run_forked returned " + std::to_string(rc);
    }
  }
  checks.check("fork_runs", fork_error.empty(), fork_error);
  for (std::size_t i = 0; i < step_ms.size(); ++i) checks.op(true);
  check_against_loopback(a, rank_digests, checks);

  JsonObject o;
  o.num("workers", 1)
      .num("ranks", kHaloRanks)
      .nums("setup_s", setup_s)
      .nums("step_ms", step_ms)
      .num("episode_steps", kHaloBlockSteps)
      .num("steps", static_cast<double>(step_ms.size()))
      .nums("checkpoint_s", rt.round_trip_s)
      .num("checkpoint_bytes", rt.bytes)
      .num("peak_rss_mb", std::max(rss_mb, peak_rss_mb()))
      .raw("checks", checks.render())
      .num("attempted", static_cast<double>(checks.attempted()))
      .num("failed", static_cast<double>(checks.failed()));
  return o.render();
}

/// Traced halo run: an untraced segment, then a traced replay of the same
/// number of steps from a fresh state; both must end on the same digest.
std::string run_halo_traced(const Args& a) {
  Checks checks;
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  std::vector<std::uint64_t> rank_digests;
  bool replay_same = true;
  std::vector<double> tr_vals;  // rank 0's per-layer figures
  std::uint64_t retries = 0;
  CheckpointRoundTrips rt;
  const std::string trace_path = a.workdir + "/" + a.workload + ".trace.json";
  parallel::ForkOptions opts;
  opts.ranks = kHaloRanks;
  int rc = 1;
  try {
    rc = parallel::run_forked(opts, [&](parallel::Transport& t) {
      exec::set_num_workers(1);
      auto st = std::make_unique<HaloState>(a.seed);
      st->exchange_all(t);
      std::vector<double> ms_a;
      std::uint64_t digest = 0;
      const int steps = halo_steps(*st, t, a.seconds * 0.4, 0, ms_a, digest);
      const std::uint64_t final_a = st->digest(t.rank());

      st = std::make_unique<HaloState>(a.seed);
      st->exchange_all(t);
      auto& tracer = obs::Tracer::instance();
      tracer.set_enabled(true);
      t.reset_stats();
      std::vector<double> ms_b;
      std::uint64_t digest_b = 0;
      halo_steps(*st, t, 0.0, steps, ms_b, digest_b);
      tracer.set_enabled(false);
      const parallel::TransportStats stats = t.stats();
      const std::uint64_t final_b = st->digest(t.rank());
      const auto all = gather_u64s(
          t, {digest, final_a == final_b ? 1u : 0u, stats.retries});
      if (t.rank() != 0) return 0;
      untraced_ms = ms_a;
      traced_ms = ms_b;
      for (const auto& v : all) {
        rank_digests.push_back(v.at(0));
        replay_same = replay_same && v.at(1) == 1;
        retries += v.at(2);
      }
      double total_ms = 0.0;
      for (double v : ms_b) total_ms += v;
      const double n = std::max(1, steps);
      tr_vals = {st->exchange_s * 1e3 / n,
                 st->phases.pack_seconds * 1e3 / n,
                 st->phases.wire_seconds * 1e3 / n,
                 st->phases.unpack_seconds * 1e3 / n,
                 st->update_s * 1e3 / n,
                 static_cast<double>(stats.bytes_sent) / n,
                 static_cast<double>(stats.messages_sent) / n,
                 total_ms > 0.0 ? (stats.send_seconds + stats.recv_seconds) *
                                      1e3 / total_ms
                                : 0.0,
                 total_ms > 0.0 ? (st->update_s + st->exchange_s) * 1e3 / total_ms
                                : 0.0};
      rt = halo_checkpoint_round_trips(
          *st, 0, a.workdir + "/" + a.workload + ".chk", checks);
      tracer.write_chrome_json(trace_path);
      tracer.clear();
      return 0;
    });
  } catch (const std::exception& e) {
    checks.check("fork_run", false, e.what());
  }
  checks.check("fork_rc", rc == 0, "run_forked returned " + std::to_string(rc));
  checks.check("traced_digest", replay_same);
  for (std::size_t i = 0; i < untraced_ms.size() + traced_ms.size(); ++i) {
    checks.op(true);
  }
  double loopback_ms = 0.0;
  check_against_loopback(a, rank_digests, checks, &loopback_ms);
  tr_vals.resize(9, 0.0);
  const double fork_mean = mean(untraced_ms, untraced_ms.size());
  const double p50_a = median(untraced_ms);

  JsonObject layers;
  for (const char* name :
       {"geometry.build_s", "geometry.build_peak_rss_mb", "lbm.coarse_mlups",
        "lbm.fine_mlups", "lbm.plan_rebuilds", "lbm.coarse_fill_fraction",
        "lbm.bytes_per_fluid_pt", "lbm.coarse_ms", "lbm.fine_ms",
        "apr.coupling_ms", "apr.window_moves", "apr.window_move_ms",
        "apr.maintain_ms", "apr.fill_s", "cells.rbc_count",
        "cells.fill_accept_ratio", "fem.forces_ms", "fem.vertices_per_s",
        "ibm.spread_ms", "ibm.spread_vertices_per_s", "ibm.interpolate_ms",
        "ibm.interpolate_vertices_per_s"}) {
    layers.num(name, 0.0);  // no APR layer runs in this workload
  }
  layers
      .num("io.checkpoint_write_mb_per_s",
           rt.save_s.empty() ? 0.0 : rt.bytes / 1e6 / median(rt.save_s))
      .num("io.checkpoint_read_mb_per_s",
           rt.load_s.empty() ? 0.0 : rt.bytes / 1e6 / median(rt.load_s))
      .num("exec.parallel_efficiency",
           fork_mean > 0.0 ? loopback_ms / (kHaloRanks * fork_mean) : 0.0)
      .num("obs.trace_overhead_frac",
           p50_a > 0.0 ? median(traced_ms) / p50_a - 1.0 : 0.0)
      .num("obs.phase_coverage_frac", tr_vals[8])
      .num("parallel.exchange_ms", tr_vals[0])
      .num("parallel.pack_ms", tr_vals[1])
      .num("parallel.wire_ms", tr_vals[2])
      .num("parallel.unpack_ms", tr_vals[3])
      .num("parallel.update_ms", tr_vals[4])
      .num("parallel.bytes_per_step", tr_vals[5])
      .num("parallel.messages_per_step", tr_vals[6])
      .num("parallel.retries", static_cast<double>(retries))
      .num("parallel.wait_fraction", tr_vals[7]);

  JsonObject o;
  o.num("workers", 1)
      .num("ranks", kHaloRanks)
      .nums("step_ms", untraced_ms)
      .nums("traced_step_ms", traced_ms)
      .num("steps", static_cast<double>(untraced_ms.size()))
      .raw("layers", layers.render())
      .str("trace_file", trace_path)
      .raw("checks", checks.render())
      .num("attempted", static_cast<double>(checks.attempted()))
      .num("failed", static_cast<double>(checks.failed()));
  return o.render();
}

}  // namespace

int main(int argc, char** argv) try {
  set_log_level(LogLevel::Warn);
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--workdir") {
      a.workdir = v;
    } else {
      throw std::invalid_argument("unknown argument " + k);
    }
  }
  if (argc % 2 == 0 || a.workload.empty()) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S "
                 "--trace 0|1 --workdir DIR\n",
                 argv[0]);
    return 2;
  }
  std::string result;
  if (a.workload == "halo_exchange") {
    result = a.trace ? run_halo_traced(a) : run_halo(a);
  } else {
    result = a.trace ? run_apr_traced(a) : run_apr(a);
  }
  std::printf("%s\n", result.c_str());
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
  return 1;
}
