// E10 -- storage access paths (paper "database challenges" #1):
// gold-standard trees are huge while queries touch small portions, so
// indexed random access by species name / evolutionary time must beat
// scans, and the buffer pool must keep hot paths cheap.
//
// Shape expectation: B+Tree point lookups are microseconds and scale
// ~log n; full scans grow linearly and lose by orders of magnitude;
// shrinking the buffer pool turns hits into misses and inflates
// latency.

#include <benchmark/benchmark.h>

#include <memory>

#include "common/random.h"
#include "common/string_util.h"
#include "storage/database.h"

namespace crimson {
namespace {

struct Db {
  std::unique_ptr<Database> db;
  std::unique_ptr<Table> table;
};

/// Table of n rows: (id int64 unique-indexed, name string indexed,
/// weight double indexed, payload).
std::unique_ptr<Db> BuildDb(int64_t rows, size_t pool_pages) {
  auto out = std::make_unique<Db>();
  DatabaseOptions opts;
  opts.buffer_pool_pages = pool_pages;
  out->db = std::move(Database::OpenInMemory(opts)).value();
  Schema schema({{"id", ColumnType::kInt64},
                 {"name", ColumnType::kString},
                 {"weight", ColumnType::kDouble},
                 {"payload", ColumnType::kBytes}});
  auto table = out->db->CreateTable(
      "nodes", schema,
      {{"by_id", "id", true}, {"by_name", "name", false},
       {"by_weight", "weight", false}});
  if (!table.ok()) abort();
  out->table = std::make_unique<Table>(std::move(table).value());
  Rng rng(11);
  for (int64_t i = 0; i < rows; ++i) {
    Row row = {i, StrFormat("S%lld", static_cast<long long>(i)),
               rng.NextDouble() * 1000.0, std::string(32, 'x')};
    if (!out->table->Insert(row).ok()) abort();
  }
  return out;
}

void BM_IndexPointLookup(benchmark::State& state) {
  auto db = BuildDb(state.range(0), 4096);
  Rng rng(12);
  for (auto _ : state) {
    int64_t id = static_cast<int64_t>(
        rng.Uniform(static_cast<uint64_t>(state.range(0))));
    auto hits = db->table->IndexLookup(
        "by_name", StrFormat("S%lld", static_cast<long long>(id)));
    if (!hits.ok() || hits->empty()) state.SkipWithError("lookup failed");
    benchmark::DoNotOptimize(hits);
  }
  state.counters["rows"] = static_cast<double>(state.range(0));
}

void BM_FullScanLookup(benchmark::State& state) {
  auto db = BuildDb(state.range(0), 4096);
  Rng rng(13);
  for (auto _ : state) {
    std::string target =
        StrFormat("S%llu", static_cast<unsigned long long>(
                               rng.Uniform(static_cast<uint64_t>(
                                   state.range(0)))));
    bool found = false;
    Status s = db->table->Scan([&](const RecordId&, const Row& row) {
      if (std::get<std::string>(row[1]) == target) {
        found = true;
        return false;
      }
      return true;
    });
    if (!s.ok() || !found) state.SkipWithError("scan failed");
  }
  state.counters["rows"] = static_cast<double>(state.range(0));
}

void BM_IndexRangeScan(benchmark::State& state) {
  auto db = BuildDb(state.range(0), 4096);
  for (auto _ : state) {
    std::string lo, hi;
    db->table->EncodeKeyFor("by_weight", 400.0, &lo).ToString();
    db->table->EncodeKeyFor("by_weight", 500.0, &hi).ToString();
    int64_t count = 0;
    Status s = db->table->IndexRangeScan("by_weight", lo, hi,
                                         [&](const Slice&, RecordId) {
                                           ++count;
                                           return true;
                                         });
    if (!s.ok()) state.SkipWithError("range scan failed");
    benchmark::DoNotOptimize(count);
  }
}

void BM_PointLookupVsPoolSize(benchmark::State& state) {
  // Fixed 200k-row table; buffer pool from ample to starved.
  auto db = BuildDb(200000, static_cast<size_t>(state.range(0)));
  // The pool counters are cumulative registry cells: measure the
  // lookup loop as a before/after delta.
  const obs::MetricsRegistry* reg = db->db->metrics();
  const obs::MetricsSnapshot before = reg->Snapshot();
  Rng rng(14);
  for (auto _ : state) {
    int64_t id = static_cast<int64_t>(rng.Uniform(200000));
    auto hits = db->table->IndexLookup("by_id", id);
    if (!hits.ok()) state.SkipWithError("lookup failed");
    benchmark::DoNotOptimize(hits);
  }
  const obs::MetricsSnapshot after = reg->Snapshot();
  auto delta = [&](const char* name) {
    return static_cast<double>(after.counter(name) - before.counter(name));
  };
  const double hits = delta("storage.pool.hits");
  const double total = hits + delta("storage.pool.misses");
  state.counters["pool_pages"] = static_cast<double>(state.range(0));
  state.counters["hit_rate"] = total > 0 ? hits / total : 0;
}

BENCHMARK(BM_IndexPointLookup)->Arg(10000)->Arg(100000)->Arg(400000);
BENCHMARK(BM_FullScanLookup)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_IndexRangeScan)->Arg(100000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PointLookupVsPoolSize)->Arg(64)->Arg(256)->Arg(1024)->Arg(8192);

}  // namespace
}  // namespace crimson
