// evaluate_cycle: the paper's evaluation lifecycle, single-threaded.
//
// Set-up stores two resident 60k-node trees with species data, so the
// database stays larger than the 32 MiB buffer pool. Each cycle then
// runs, against a fresh seeded 60k-node Yule tree:
//   LoadNewick -> AppendSpeciesData (30k sequences) -> reopen the
//   session and OpenTree cold -> RunExperiment (nj + upgma, uniform
//   k in {32, 128, 256}, 2 replicates) -> Checkpoint -> DropTree.
// Checks: the experiment replays to identical RF scores, and the
// dropped tree fails OpenTree with NotFound.

#include <unistd.h>

#include <cstdio>
#include <map>
#include <memory>

#include "inputs.h"
#include "obs/trace.h"
#include "oracle.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {

using crimson::Crimson;
using crimson::ExperimentReport;
using crimson::Status;

namespace {

struct Scale {
  uint32_t leaves = 30000;  // 59,999 nodes per tree
  size_t seq_length = 128;
  size_t residents = 2;
};

Scale ScaleFor(const RunConfig& config) {
  Scale s;
  if (config.smoke) {
    s.leaves = 1000;
    s.seq_length = 32;
  }
  return s;
}

crimson::ExperimentSpec CycleSpec() {
  crimson::ExperimentSpec spec;
  spec.algorithms = {"nj", "upgma"};
  for (size_t k : {32, 128, 256}) {
    crimson::SelectionSpec selection;
    selection.kind = crimson::SelectionSpec::Kind::kUniform;
    selection.k = k;
    spec.selections.push_back(selection);
  }
  spec.replicates = 2;
  return spec;
}

struct TreeInput {
  std::string name;
  std::string newick;
  std::map<std::string, std::string> sequences;
  uint64_t nodes = 0;
  uint64_t user_bytes = 0;  // Newick + species names + sequences
};

TreeInput MakeTreeInput(const std::string& name, uint64_t seed,
                        const Scale& scale) {
  TreeInput in;
  in.name = name;
  in.newick = YuleNewick(MixSeed(seed, 1), scale.leaves);
  in.sequences = LeafSequences(MixSeed(seed, 2), in.newick, scale.seq_length);
  in.nodes = 2ull * scale.leaves - 1;
  in.user_bytes = in.newick.size();
  for (const auto& [species, seq] : in.sequences) {
    in.user_bytes += species.size() + seq.size();
  }
  return in;
}

/// Everything one cycle measured.
struct CycleOut {
  double store_ms = 0, append_ms = 0, reopen_ms = 0, open_ms = 0,
         experiment_ms = 0, checkpoint_ms = 0, drop_ms = 0;
  double total_ms() const {
    return store_ms + append_ms + reopen_ms + open_ms + experiment_ms +
           checkpoint_ms + drop_ms;
  }
  // Program stage time (traced cycles).
  double storage_read_us = 0, label_decode_us = 0, eval_build_us = 0;
  // Experiment internals.
  double sample_s = 0, project_s = 0, reconstruct_s = 0, compare_s = 0;
  double crack_loaded_frac = 0;
  uint64_t crack_fetches = 0;
};

class Evaluator {
 public:
  explicit Evaluator(const RunConfig& config) : config_(config) {}

  /// Stores the resident trees in a fresh database; returns seconds.
  double SetUp(int rep, const std::vector<TreeInput>& residents) {
    session_.reset();
    db_dir_ = JoinPath(config_.work_dir, "db" + std::to_string(rep));
    ResetDir(db_dir_);
    db_ = JoinPath(db_dir_, "crimson.db");
    const double t0 = NowSeconds();
    Open();
    for (const TreeInput& in : residents) {
      Ok(session_->LoadNewick(in.name, in.newick).status(), "LoadNewick");
      Ok(session_->AppendSpeciesData(in.name, in.sequences).status(),
         "AppendSpeciesData");
    }
    Ok(session_->Checkpoint(), "Checkpoint");
    return NowSeconds() - t0;
  }

  /// One lifecycle over `in`. Spans go to `lane` when tracing.
  CycleOut Cycle(const TreeInput& in, uint64_t cycle, SpanRecorder* rec,
                 SpanLane* lane) {
    CycleOut out;
    uint64_t root = 0;
    auto span = [&](const char* name) -> uint64_t {
      return lane ? lane->Open(rec->Intern(name), cycle, root) : 0;
    };
    auto close = [&](uint64_t id, double* ms, double t0) {
      *ms = (NowSeconds() - t0) * 1e3;
      if (lane) lane->Close(id);
    };
    // A program stage reported by the session's own trace context,
    // recorded as a child span starting with its parent.
    auto stage_span = [&](const char* name, uint64_t parent, double us) {
      if (lane == nullptr || us <= 0) return;
      const int64_t start = lane->StartNs(parent);
      lane->Add(rec->Intern(name), cycle, parent, start,
                start + static_cast<int64_t>(us * 1e3));
    };
    if (lane) root = lane->Open(rec->Intern("cycle"), cycle);

    double t0 = NowSeconds();
    uint64_t s = span("crimson.load_newick");
    Ok(session_->LoadNewick(in.name, in.newick).status(), "LoadNewick");
    close(s, &out.store_ms, t0);

    t0 = NowSeconds();
    s = span("crimson.append_species");
    Ok(session_->AppendSpeciesData(in.name, in.sequences).status(),
       "AppendSpeciesData");
    close(s, &out.append_ms, t0);

    t0 = NowSeconds();
    s = span("crimson.reopen");
    Close();
    Open();
    close(s, &out.reopen_ms, t0);

    crimson::TreeRef ref;
    {
      std::unique_ptr<crimson::obs::ScopedTrace> trace;
      if (lane) trace = std::make_unique<crimson::obs::ScopedTrace>();
      t0 = NowSeconds();
      s = span("crimson.open_tree");
      auto opened = session_->OpenTree(in.name);
      close(s, &out.open_ms, t0);
      Ok(opened.status(), "OpenTree");
      ref = *opened;
      if (trace) {
        using crimson::obs::Stage;
        out.storage_read_us = trace->context()->span_us(Stage::kStorageRead);
        out.label_decode_us = trace->context()->span_us(Stage::kLabelDecode);
        stage_span("storage.read", s, out.storage_read_us);
        stage_span("labeling.decode", s, out.label_decode_us);
      }
    }

    crimson::obs::MetricsSnapshot before;
    if (lane) before = session_->SnapshotMetrics();
    ExperimentReport report;
    {
      std::unique_ptr<crimson::obs::ScopedTrace> trace;
      if (lane) trace = std::make_unique<crimson::obs::ScopedTrace>();
      t0 = NowSeconds();
      s = span("crimson.run_experiment");
      auto ran = session_->RunExperiment(ref, CycleSpec());
      close(s, &out.experiment_ms, t0);
      Ok(ran.status(), "RunExperiment");
      report = std::move(*ran);
      if (trace) {
        out.eval_build_us =
            trace->context()->span_us(crimson::obs::Stage::kEvalBuild);
        stage_span("crack.eval_build", s, out.eval_build_us);
      }
    }
    if (lane) {
      const crimson::obs::MetricsSnapshot after = session_->SnapshotMetrics();
      RegistryDelta delta;
      delta.Add(before, after);
      const double total = after.counter("crack.sequences_total");
      out.crack_loaded_frac =
          total > 0 ? delta.Counter("crack.sequences_loaded") / total : 0;
      out.crack_fetches = delta.Counter("crack.fetches");
      for (const crimson::BenchmarkRun& run : report.runs) {
        out.sample_s += run.sample_seconds;
        out.project_s += run.project_seconds;
        out.reconstruct_s += run.reconstruct_seconds;
        out.compare_s += run.compare_seconds;
      }
    }
    {
      // The answer check is the benchmark's own work inside the cycle;
      // its span keeps it out of the cycle's self time.
      const uint64_t check = span("check.experiment_replay");
      CheckReplay(report);
      if (lane) lane->Close(check);
    }

    t0 = NowSeconds();
    s = span("crimson.checkpoint");
    Ok(session_->Checkpoint(), "Checkpoint");
    close(s, &out.checkpoint_ms, t0);

    t0 = NowSeconds();
    s = span("crimson.drop_tree");
    Ok(session_->DropTree(in.name), "DropTree");
    close(s, &out.drop_ms, t0);
    if (lane) lane->Close(root);

    ++attempted_;
    auto reopened = session_->OpenTree(in.name);
    if (reopened.ok() || !reopened.status().IsNotFound()) {
      ++failed_;
      fprintf(stderr, "dropped tree %s: OpenTree gave %s, want NotFound\n",
              in.name.c_str(), reopened.status().ToString().c_str());
    }
    return out;
  }

  /// Database + WAL bytes after a checkpoint.
  uint64_t CheckpointedBytes() {
    Ok(session_->Checkpoint(), "Checkpoint");
    return DirBytes(db_dir_);
  }

  /// Starts folding registry deltas of every session into `delta`.
  void TrackRegistry(RegistryDelta* delta) {
    delta_ = delta;
    since_ = session_->SnapshotMetrics();
  }
  void StopTracking() {
    if (delta_) delta_->Add(since_, session_->SnapshotMetrics());
    delta_ = nullptr;
  }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  void Open() {
    ++attempted_;
    auto opened = Crimson::Open(SessionOptions(db_, config_.seed));
    if (!opened.ok()) Fatal("open: " + opened.status().ToString());
    session_ = std::move(*opened);
    if (delta_) since_ = session_->SnapshotMetrics();
  }

  void Close() {
    if (delta_) delta_->Add(since_, session_->SnapshotMetrics());
    session_.reset();
  }

  void Ok(const Status& s, const char* what) {
    ++attempted_;
    if (!s.ok()) Fatal(std::string(what) + ": " + s.ToString());
  }

  /// The experiment must replay to the same scores: RF distances and
  /// normalized RF of every run repeat exactly for the same seed.
  void CheckReplay(const ExperimentReport& report) {
    ++attempted_;
    auto replay = session_->RerunExperiment(report.experiment_id);
    bool same = replay.ok() && replay->runs.size() == report.runs.size();
    for (size_t i = 0; same && i < report.runs.size(); ++i) {
      const crimson::RfResult& a = report.runs[i].rf;
      const crimson::RfResult& b = replay->runs[i].rf;
      same = a.distance == b.distance && a.normalized == b.normalized &&
             a.normalized >= 0 && a.normalized <= 1;
    }
    if (!same) {
      ++failed_;
      fprintf(stderr, "experiment %lld did not replay to identical RF scores\n",
              static_cast<long long>(report.experiment_id));
    }
  }

  const RunConfig& config_;
  std::string db_dir_;
  std::string db_;
  std::unique_ptr<Crimson> session_;
  RegistryDelta* delta_ = nullptr;
  crimson::obs::MetricsSnapshot since_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

struct PhaseOut {
  std::vector<CycleOut> cycles;
  std::vector<std::string> newicks;
  uint64_t nodes = 0;
  uint64_t user_bytes = 0;
  double cycle_s = 0;
  double nodes_per_s() const { return cycle_s > 0 ? nodes / cycle_s : 0; }
};

template <typename Get>
double MedianOf(const std::vector<CycleOut>& cycles, Get get) {
  std::vector<double> v;
  for (const CycleOut& c : cycles) v.push_back(get(c));
  return Median(v);
}

template <typename Get>
double MeanOf(const std::vector<CycleOut>& cycles, Get get) {
  std::vector<double> v;
  for (const CycleOut& c : cycles) v.push_back(get(c));
  return Mean(v);
}

/// Cost of recording one span as the cycle does it (name lookup, open,
/// close), measured on a scratch recorder.
double SpanCostUs() {
  SpanRecorder scratch;
  SpanLane* lane = scratch.NewLane();
  constexpr int kSpans = 20000;
  const double t0 = NowSeconds();
  for (int i = 0; i < kSpans; ++i) {
    lane->Close(lane->Open(scratch.Intern("crimson.drop_tree"), i));
  }
  return (NowSeconds() - t0) * 1e6 / kSpans;
}

}  // namespace

RunResult RunEvaluateCycle(const RunConfig& config) {
  const Scale scale = ScaleFor(config);
  printf("workload evaluate_cycle: %zu resident trees, cycles of %llu-node "
         "Yule trees with %u sequences of %zu sites, experiment "
         "nj+upgma x uniform k{32,128,256} x 2 reps, single-threaded\n",
         scale.residents,
         static_cast<unsigned long long>(2ull * scale.leaves - 1),
         scale.leaves, scale.seq_length);
  printf("flush policy: %s\n", FlushPolicy().c_str());

  std::vector<TreeInput> residents;
  for (size_t r = 0; r < scale.residents; ++r) {
    residents.push_back(MakeTreeInput("resident_" + std::to_string(r),
                                      MixSeed(config.seed, 100, r), scale));
  }
  Evaluator ev(config);
  std::vector<double> setups;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setups.push_back(ev.SetUp(rep, residents));
  }
  uint64_t resident_nodes = 0;
  for (const TreeInput& in : residents) resident_nodes += in.nodes;
  residents.clear();

  uint64_t next_cycle = 0;
  double bytes_per_node = 0;
  // Cycles run until `seconds` of wall time have passed (inputs are
  // generated between cycles, outside the timed calls).
  auto run_phase = [&](double seconds, SpanRecorder* rec) {
    PhaseOut out;
    SpanLane* lane = rec ? rec->NewLane() : nullptr;
    const double deadline = NowSeconds() + seconds;
    while (out.cycles.empty() || NowSeconds() < deadline) {
      const uint64_t cycle = next_cycle++;
      TreeInput in = MakeTreeInput("cycle_" + std::to_string(cycle),
                                   MixSeed(config.seed, 200, cycle), scale);
      out.cycles.push_back(ev.Cycle(in, cycle, rec, lane));
      out.cycle_s += out.cycles.back().total_ms() / 1e3;
      out.nodes += in.nodes;
      out.user_bytes += in.user_bytes;
      if (rec) out.newicks.push_back(std::move(in.newick));
      if (cycle == 0) {
        // Read after the first cycle, so the figure repeats exactly for
        // a seed whatever the machine's speed.
        bytes_per_node =
            static_cast<double>(ev.CheckpointedBytes()) / resident_nodes;
      }
    }
    return out;
  };

  // One cycle takes longer than half of a run's time budget, so a traced
  // run does not repeat its cycles untraced: it traces the same cycles an
  // untraced run measures and prices the recorder's own work directly.
  SpanRecorder recorder;
  RegistryDelta reg;
  if (config.trace) ev.TrackRegistry(&reg);
  PhaseOut measured =
      run_phase(config.seconds, config.trace ? &recorder : nullptr);
  if (config.trace) ev.StopTracking();
  std::vector<double> cycle_ms;
  for (const CycleOut& c : measured.cycles) cycle_ms.push_back(c.total_ms());

  RunResult result;
  Metrics e2e = EndToEndTemplate();
  e2e.Set("setup_s", Median(setups), "s");
  e2e.Set("ops_per_s", measured.nodes_per_s(), "1/s");
  e2e.Set("op_p50_ms", Median(cycle_ms), "ms");
  e2e.Set("op_p99_ms", Percentile(cycle_ms, 99), "ms");
  e2e.Set("peak_rss_mb", PeakRssMb(getpid()), "MB");
  e2e.Set("bytes_per_node", bytes_per_node, "B/node");

  Metrics breakdown;
  breakdown.Set("nodes_per_s", measured.nodes_per_s(), "1/s");
  breakdown.Set(
      "store_p50_ms",
      MedianOf(measured.cycles, [](const CycleOut& c) { return c.store_ms; }),
      "ms");
  breakdown.Set(
      "append_p50_ms",
      MedianOf(measured.cycles, [](const CycleOut& c) { return c.append_ms; }),
      "ms");
  breakdown.Set(
      "open_p50_ms",
      MedianOf(measured.cycles, [](const CycleOut& c) { return c.open_ms; }),
      "ms");
  breakdown.Set("experiment_p50_ms",
                MedianOf(measured.cycles,
                         [](const CycleOut& c) { return c.experiment_ms; }),
                "ms");
  breakdown.Set(
      "drop_p50_ms",
      MedianOf(measured.cycles, [](const CycleOut& c) { return c.drop_ms; }),
      "ms");
  breakdown.Set("reopen_p50_ms",
                MedianOf(measured.cycles,
                         [](const CycleOut& c) { return c.reopen_ms; }),
                "ms");
  breakdown.Set("checkpoint_p50_ms",
                MedianOf(measured.cycles,
                         [](const CycleOut& c) { return c.checkpoint_ms; }),
                "ms");
  breakdown.Set("cycle_samples", static_cast<double>(measured.cycles.size()),
                "count");

  if (!config.trace) {
    result.metrics = e2e;
  } else {
    const PhaseOut& traced = measured;
    Metrics m = PerLayerTemplate();
    m.Set("nodes_per_s", breakdown.Get("nodes_per_s"), "1/s");
    for (const char* name : {"store_p50_ms", "append_p50_ms", "open_p50_ms",
                             "experiment_p50_ms", "drop_p50_ms"}) {
      m.Set(name, breakdown.Get(name), "ms");
    }
    m.Set("obs.trace_overhead_frac",
          SpanCostUs() * recorder.span_count() / (traced.cycle_s * 1e6),
          "frac");
    const auto& cs = traced.cycles;
    m.Set("crack.sequences_loaded_frac",
          MeanOf(cs, [](const CycleOut& c) { return c.crack_loaded_frac; }),
          "frac");
    m.Set("crack.fetches",
          MeanOf(cs, [](const CycleOut& c) {
            return static_cast<double>(c.crack_fetches);
          }),
          "count");
    m.Set("crack.eval_build_us",
          MeanOf(cs, [](const CycleOut& c) { return c.eval_build_us; }), "us");
    m.Set("recon.sample_s",
          MeanOf(cs, [](const CycleOut& c) { return c.sample_s; }), "s");
    m.Set("recon.project_s",
          MeanOf(cs, [](const CycleOut& c) { return c.project_s; }), "s");
    m.Set("recon.reconstruct_s",
          MeanOf(cs, [](const CycleOut& c) { return c.reconstruct_s; }), "s");
    m.Set("recon.compare_s",
          MeanOf(cs, [](const CycleOut& c) { return c.compare_s; }), "s");
    ReplayTreeLayers(traced.newicks, &m);

    const double pool_hits = reg.Counter("storage.pool.hits");
    const double pool_misses = reg.Counter("storage.pool.misses");
    m.Set("storage.pool.hit_ratio",
          pool_hits + pool_misses > 0 ? pool_hits / (pool_hits + pool_misses)
                                      : 0,
          "frac");
    m.Set("storage.pool.misses", pool_misses, "count");
    m.Set("storage.pool.dirty_writebacks",
          reg.Counter("storage.pool.dirty_writebacks"), "count");
    m.Set("storage.wal.bytes_per_user_byte",
          static_cast<double>(reg.Counter("storage.wal.bytes")) /
              traced.user_bytes,
          "B/B");
    m.Set("storage.wal.fsyncs", reg.Counter("storage.wal.fsyncs"), "count");
    m.Set("storage.wal.group_batch", reg.HistMean("storage.wal.group_batch"),
          "count");
    m.Set("storage.read_us",
          MeanOf(cs, [](const CycleOut& c) { return c.storage_read_us; }),
          "us");
    result.metrics = m;

    recorder.PrintSelfTimeReport();
    const std::string spans = JoinPath(config.work_dir, "spans.jsonl");
    if (!recorder.WriteJsonLines(spans)) Fatal("cannot write " + spans);
    printf("spans written to %s\n", spans.c_str());
    printf("registry cross-check: label decode %.0f us per cold open "
           "(session stage) vs %.0f us replayed; %llu WAL bytes for %llu "
           "user bytes\n",
           MeanOf(cs, [](const CycleOut& c) { return c.label_decode_us; }),
           m.Get("labeling.decode_ms") * 1e3,
           static_cast<unsigned long long>(reg.Counter("storage.wal.bytes")),
           static_cast<unsigned long long>(traced.user_bytes));
  }
  result.attempted = ev.attempted();
  result.failed = ev.failed();
  breakdown.Set("failed_frac",
                result.attempted ? static_cast<double>(result.failed) /
                                       result.attempted
                                 : 0,
                "frac");
  breakdown.Set("peak_rss_mb", e2e.Get("peak_rss_mb"), "MB");
  breakdown.PrintTable(std::string("evaluate_cycle end-to-end (") +
                       (config.trace ? "traced" : "untraced") + " run)");
  return result;
}

}  // namespace perfbench
