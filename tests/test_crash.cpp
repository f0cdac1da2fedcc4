// Crash harness: real SIGKILLs against checkpointed, store-backed
// campaigns and pipelines on the tiny presets.
//
// Every case spawns this binary (/proc/self/exe, through posix_spawn, never
// fork: the gtest parent may hold threads) in child mode,
//
//   test_crash --crash-child <scenario> <dir>
//
// which runs one of the named configurations below in <dir> on
// kChildThreads threads. The parent kills it with SIGKILL, either at a
// seeded delay within a measured uninterrupted child's run time or as soon
// as load_checkpoint shows a chosen kind of file, or it tears the files a
// kill left behind. It then resumes in-process on another thread count and
// requires:
//   - the uninterrupted run's output, bit for bit;
//   - that the resume adopted exactly the checkpoint on disk (its log
//     line, and no scan-1 span when the file was past scan 1);
//   - no checkpoint, `.tmp` or derived `.store` directory afterwards, and
//     the same files in a user store directory as an uninterrupted run.
// Children run strictly one after another, 30 to 32 in all across the
// cases here; ctest gives these cases one RESOURCE_LOCK so that they never
// overlap either. Every child and every resume works in its own mkdtemp
// directory.
//
// Suite and test names are those of the tests these cases replaced, which
// stopped a campaign in-process at a checkpoint boundary instead.
#include <gtest/gtest.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/obs.hpp"
#include "result_equal.hpp"
#include "scan/campaign.hpp"
#include "scan/checkpoint.hpp"
#include "topo/generator.hpp"
#include "topo/procedural.hpp"
#include "unique_dir.hpp"
#include "util/rng.hpp"

extern char** environ;

namespace snmpv3fp {
namespace {

namespace fs = std::filesystem;
using result_equal::expect_same_pipeline_result;
using result_equal::expect_same_scan;
using testing_util::UniqueDir;

constexpr std::string_view kChildFlag = "--crash-child";
constexpr std::size_t kChildThreads = 2;
// Resumes cycle through these; none equals kChildThreads.
constexpr std::size_t kResumeThreads[] = {1, 4, 8};
// Checkpoint interval of every scenario but list_boundary_only. Each write
// re-serialises all shard states, so a much smaller interval makes the
// harness slow without adding kill instants of a new kind.
constexpr std::size_t kEvery = 256;

// ---- named configurations ---------------------------------------------------

enum class Kind { kList, kSpec, kPipeline };

struct CheckpointFile {
  std::string path;
  std::string scan1_span;  // the owning campaign's scan-1 span (name suffix)
};

struct Config {
  Kind kind = Kind::kList;
  scan::CampaignOptions campaign;
  core::PipelineOptions pipeline;

  std::vector<CheckpointFile> checkpoints() const {
    if (kind == Kind::kPipeline) {
      if (pipeline.checkpoint_dir.empty()) return {};
      return {{pipeline.checkpoint_dir + "/campaign_v6.json", "v6.scan1"},
              {pipeline.checkpoint_dir + "/campaign_v4.json", "v4.scan1"}};
    }
    if (campaign.checkpoint_path.empty()) return {};
    return {{campaign.checkpoint_path, "scan1"}};
  }
  const std::string& user_store_dir() const {
    return kind == Kind::kPipeline ? pipeline.store.dir : campaign.store.dir;
  }
};

// The configurations a child and its parent share, by name:
//   list                tiny World, list mode, 2% loss; derived store dir
//   list_boundary_only  list with no mid-scan checkpoints
//   list_store          list spilling to a user store dir, 8-record blocks
//   list_seed78         list under another seed
//   adaptive_w32/_w8    list, rate-limited fabric, adaptive pacer windows
//   spec                ProceduralWorld sweep (spec mode); user store dir
//   pipeline            full tiny pipeline, checkpoint dir + user store dir
//   pipeline_spill      pipeline under a 4 KiB resident cap, 8-record blocks
// An empty `dir` gives the same experiment uninterrupted and in RAM: no
// checkpoint and RAM-only stores, which change no output bit.
constexpr std::string_view kScenarios[] = {
    "list",        "list_boundary_only", "list_store", "list_seed78",
    "adaptive_w32", "adaptive_w8",       "spec",       "pipeline",
    "pipeline_spill"};

bool known_scenario(std::string_view name) {
  for (const std::string_view known : kScenarios)
    if (known == name) return true;
  return false;
}

Config configure(std::string_view name, const std::string& dir) {
  EXPECT_TRUE(known_scenario(name)) << "unknown crash scenario " << name;
  Config s;
  if (name == "pipeline" || name == "pipeline_spill") {
    s.kind = Kind::kPipeline;
    core::PipelineOptions& options = s.pipeline;
    options.world = topo::WorldConfig::tiny();
    options.seed = 20210413;
    options.scan_shards = 4;
    if (dir.empty()) return s;
    options.checkpoint_dir = dir;
    options.checkpoint_every_n_targets = kEvery;
    options.store.dir = dir + "/store";
    if (name == "pipeline_spill") {
      options.store.records_per_block = 8;
      options.store.max_resident_bytes = 4096;
    }
    return s;
  }

  scan::CampaignOptions& options = s.campaign;
  options.seed = 77;
  options.shards = 4;
  options.fabric.probe_loss = 0.02;
  options.fabric.response_loss = 0.02;
  if (name == "spec") {
    s.kind = Kind::kSpec;
    options.seed = 777;
    options.rate_pps = 20000.0;
    options.fabric.probe_loss = 0.0;
    options.fabric.response_loss = 0.0;
    scan::TargetSpec spec;
    for (const auto& region : topo::ProceduralConfig::tiny().regions)
      if (region.kind != topo::ScenarioKind::kAliasedPrefix)
        spec.ranges.push_back(region.v4);
    options.target_spec = spec;
  } else if (name == "list_seed78") {
    options.seed = 78;
  } else if (name == "adaptive_w32" || name == "adaptive_w8") {
    options.rate_pps = 20000.0;
    options.fabric.device_rate_limit_pps = 1;
    options.pacer.adaptive = true;
    options.pacer.window_probes = name == "adaptive_w32" ? 32 : 8;
  }
  if (dir.empty()) return s;
  options.checkpoint_path = dir + "/campaign.json";
  options.checkpoint_every_n_targets =
      name == "list_boundary_only" ? 0 : kEvery;
  if (name == "list_store" || name == "spec") {
    options.store.dir = dir + "/store";
    options.store.records_per_block = 8;
  }
  return s;
}

struct Outcome {
  scan::CampaignPair pair;                       // campaign kinds
  std::optional<core::PipelineResult> pipeline;  // Kind::kPipeline
};

Outcome run(Config s, std::size_t threads, const obs::ObsOptions& obs = {}) {
  Outcome out;
  s.campaign.parallel.threads = threads;
  s.campaign.obs = obs;
  s.pipeline.parallel.threads = threads;
  s.pipeline.obs = obs;
  switch (s.kind) {
    case Kind::kPipeline:
      out.pipeline = core::run_full_pipeline(s.pipeline);
      break;
    case Kind::kSpec: {
      topo::ProceduralWorld world(topo::ProceduralConfig::tiny());
      out.pair = scan::run_two_scan_campaign(world, s.campaign);
      break;
    }
    case Kind::kList: {
      topo::World world = topo::generate_world(topo::WorldConfig::tiny());
      out.pair = scan::run_two_scan_campaign(world, s.campaign);
      break;
    }
  }
  return out;
}

void expect_same_outcome(const Outcome& a, const Outcome& b) {
  if (!a.pipeline.has_value()) {
    expect_same_scan(a.pair.scan1, b.pair.scan1);
    expect_same_scan(a.pair.scan2, b.pair.scan2);
    return;
  }
  ASSERT_TRUE(b.pipeline.has_value());
  expect_same_scan(a.pipeline->v6_campaign.scan1, b.pipeline->v6_campaign.scan1);
  expect_same_scan(a.pipeline->v6_campaign.scan2, b.pipeline->v6_campaign.scan2);
  expect_same_scan(a.pipeline->v4_campaign.scan1, b.pipeline->v4_campaign.scan1);
  expect_same_scan(a.pipeline->v4_campaign.scan2, b.pipeline->v4_campaign.scan2);
  expect_same_pipeline_result(*a.pipeline, *b.pipeline);
}

// ---- the child and its kills --------------------------------------------

int run_child(std::string_view scenario, const std::string& dir) {
  if (!known_scenario(scenario)) return 2;
  run(configure(scenario, dir), kChildThreads);
  return 0;
}

using Trigger = bool (*)(const scan::CampaignCheckpoint&);

bool mid_scan1(const scan::CampaignCheckpoint& c) { return c.scan_index == 1; }
bool scan_boundary(const scan::CampaignCheckpoint& c) {
  return c.scan_index == 2 && c.shard_states.empty();
}
// The scan-boundary file or, when the poll came too late for it, the
// first file after it.
bool past_scan1(const scan::CampaignCheckpoint& c) { return c.scan_index == 2; }
bool mid_scan2(const scan::CampaignCheckpoint& c) {
  return c.scan_index == 2 && !c.shard_states.empty();
}

// One child process running `scenario` in `dir`. It is SIGKILLed and
// reaped on destruction if still running.
class Child {
 public:
  Child(std::string_view scenario, const std::string& dir) {
    std::string exe = "/proc/self/exe";
    std::string flag(kChildFlag);
    std::string name(scenario);
    std::string where = dir;
    char* argv[] = {exe.data(), flag.data(), name.data(), where.data(),
                    nullptr};
    const int rc =
        ::posix_spawn(&pid_, exe.c_str(), nullptr, nullptr, argv, environ);
    if (rc != 0) {
      ADD_FAILURE() << "posix_spawn: " << std::strerror(rc);
      pid_ = -1;
    }
  }
  ~Child() { kill(); }
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  // Waits for the child to finish by itself; true when it exited 0.
  bool wait_exit() {
    if (pid_ <= 0) return false;
    const int status = reap();
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

  // SIGKILLs the child unless it already finished (then it must have
  // finished cleanly).
  void kill() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    const int status = reap();
    const bool killed = WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL;
    const bool clean_exit = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    EXPECT_TRUE(killed || clean_exit) << "child ended with status " << status;
  }

  // Polls load_checkpoint(path) until the file on disk satisfies `fired`,
  // then SIGKILLs the child. False when the child finished first.
  bool kill_when(const std::string& path, Trigger fired) {
    fs::file_time_type seen{};
    while (pid_ > 0) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
            << "child ended with status " << status;
        return false;
      }
      std::error_code ec;
      const auto stamp = fs::last_write_time(path, ec);
      if (!ec && stamp != seen) {
        seen = stamp;
        if (const auto loaded = scan::load_checkpoint(path);
            loaded.has_value() && fired(*loaded)) {
          kill();
          return true;
        }
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return false;
  }

 private:
  int reap() {
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    return status;
  }

  pid_t pid_ = -1;
};

// ---- resume and its checks ------------------------------------------------

enum class FileKind { kNone, kMidScan1, kBoundary, kMidScan2 };

const char* to_string(FileKind kind) {
  switch (kind) {
    case FileKind::kNone: return "none";
    case FileKind::kMidScan1: return "mid-scan-1";
    case FileKind::kBoundary: return "scan boundary";
    case FileKind::kMidScan2: return "mid-scan-2";
  }
  return "?";
}

// What a kill left at `path`. A file that exists must load: every write is
// an atomic rename, so no SIGKILL instant leaves a torn checkpoint.
FileKind left_on_disk(const std::string& path) {
  if (!fs::exists(path)) return FileKind::kNone;
  const auto loaded = scan::load_checkpoint(path);
  EXPECT_TRUE(loaded.has_value()) << path << " exists but does not load";
  if (!loaded.has_value()) return FileKind::kNone;
  if (mid_scan1(*loaded)) return FileKind::kMidScan1;
  return scan_boundary(*loaded) ? FileKind::kBoundary : FileKind::kMidScan2;
}

std::vector<FileKind> left_on_disk(const Config& s) {
  std::vector<FileKind> kinds;
  for (const auto& file : s.checkpoints()) kinds.push_back(left_on_disk(file.path));
  return kinds;
}

std::vector<std::string> files_under(const std::string& dir) {
  std::vector<std::string> names;
  if (dir.empty() || !fs::exists(dir)) return names;
  for (const auto& entry : fs::recursive_directory_iterator(dir))
    if (entry.is_regular_file())
      names.push_back(fs::relative(entry.path(), dir).string());
  std::sort(names.begin(), names.end());
  return names;
}

struct Resumed {
  Outcome outcome;
  std::vector<std::string> adoptions;  // "campaign resuming" log lines
  std::vector<std::string> spans;      // span names of the run's trace
};

// Runs `s` in-process on `threads` threads, recording its trace and the
// campaigns' resume log lines.
Resumed resume(const Config& s, std::size_t threads) {
  Resumed r;
  obs::RunObserver observer;
  obs::ObsOptions obs;
  obs.observer = &observer;
  // The sink writes into `r`: put the logger back even if the run throws.
  struct RestoreLogger {
    obs::Logger& logger;
    obs::LogLevel level;
    ~RestoreLogger() {
      logger.set_level(level);
      logger.set_sink(nullptr);
    }
  } restore{obs::Logger::global(), obs::Logger::global().level()};
  restore.logger.set_sink([&r](std::string_view line) {
    if (line.find("campaign resuming from checkpoint") != std::string_view::npos)
      r.adoptions.emplace_back(line);
  });
  restore.logger.set_level(obs::LogLevel::kInfo);
  r.outcome = run(s, threads, obs);
  for (const auto& span : observer.trace().snapshot())
    r.spans.push_back(span.name);
  return r;
}

// The run left nothing of its checkpoints behind, and a user store dir
// holds `store_files`, as after an uninterrupted run.
void expect_clean(const Config& s, const std::vector<std::string>& store_files) {
  for (const auto& file : s.checkpoints()) {
    EXPECT_FALSE(fs::exists(file.path)) << file.path;
    EXPECT_FALSE(fs::exists(file.path + ".tmp")) << file.path;
    EXPECT_FALSE(fs::exists(file.path + ".store")) << file.path;
  }
  EXPECT_EQ(files_under(s.user_store_dir()), store_files);
}

// Resumes what a kill left in `s`'s directory and checks the run against
// the uninterrupted one.
Resumed resume_and_check(const Config& s, std::size_t threads,
                         const Outcome& reference,
                         const std::vector<std::string>& store_files) {
  SCOPED_TRACE("resume on " + std::to_string(threads) + " threads");
  Resumed r = resume(s, threads);
  expect_same_outcome(r.outcome, reference);
  expect_clean(s, store_files);
  return r;
}

// The resume adopted exactly what each checkpoint file held: no resume
// line for no file; `scan=1` for a mid-scan-1 file; `scan=2` with no shard
// states for the scan-boundary file and with some for a mid-scan-2 file,
// and then no scan-1 span, since scan 1 came from the file.
void expect_adopted(const Resumed& r, const Config& s,
                    const std::vector<FileKind>& kinds) {
  const auto files = s.checkpoints();
  ASSERT_EQ(files.size(), kinds.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    SCOPED_TRACE(files[i].path + " held " + to_string(kinds[i]));
    std::string line;
    for (const auto& adoption : r.adoptions)
      if (adoption.find("path=" + files[i].path + " ") != std::string::npos)
        line = adoption;
    const bool ran_scan1 =
        std::any_of(r.spans.begin(), r.spans.end(), [&](const auto& name) {
          return name == files[i].scan1_span ||
                 name.ends_with("." + files[i].scan1_span);
        });
    const bool boundary_line = line.ends_with(" shard_states=0");
    switch (kinds[i]) {
      case FileKind::kNone:
        EXPECT_TRUE(line.empty()) << line;
        EXPECT_TRUE(ran_scan1);
        break;
      case FileKind::kMidScan1:
        EXPECT_NE(line.find(" scan=1 "), std::string::npos) << line;
        EXPECT_TRUE(ran_scan1);
        break;
      case FileKind::kBoundary:
      case FileKind::kMidScan2:
        EXPECT_NE(line.find(" scan=2 "), std::string::npos) << line;
        EXPECT_EQ(boundary_line, kinds[i] == FileKind::kBoundary) << line;
        EXPECT_FALSE(ran_scan1);
        break;
    }
  }
}

// One uninterrupted child of `scenario`, timed; returns its run time and
// checks it left what an in-process run leaves. `store_files` receives
// its user store dir's listing, which every resume must reproduce.
std::chrono::duration<double> measure_child(std::string_view scenario,
                                            std::vector<std::string>& store_files) {
  const UniqueDir dir("crash_measure");
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(Child(scenario, dir.path()).wait_exit());
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  const Config s = configure(scenario, dir.path());
  store_files = files_under(s.user_store_dir());
  expect_clean(s, store_files);
  if (!s.user_store_dir().empty()) {
    EXPECT_FALSE(store_files.empty());
  }
  return elapsed;
}

// What every resume of a scenario must reproduce.
struct Baseline {
  Outcome reference;                     // the uninterrupted run's output
  std::vector<std::string> store_files;  // its user store dir's listing
};

// `kills` children of `scenario`; child k is killed at a seeded instant in
// the k-th of `kills` equal slices of a measured uninterrupted child's run
// time, then resumed and checked.
Baseline kill_at_seeded_delays(std::string_view scenario, std::size_t kills,
                               std::uint64_t seed) {
  Baseline baseline{run(configure(scenario, ""), 4), {}};
  const auto run_time = measure_child(scenario, baseline.store_files);
  util::Rng rng(seed);
  for (std::size_t k = 0; k < kills; ++k) {
    const auto delay =
        run_time * ((static_cast<double>(k) + rng.uniform01()) /
                    static_cast<double>(kills));
    SCOPED_TRACE("kill " + std::to_string(k) + " after " +
                 std::to_string(delay.count() * 1e3) + " ms");
    const UniqueDir dir("crash_kill");
    const Config s = configure(scenario, dir.path());
    {
      Child child(scenario, dir.path());
      std::this_thread::sleep_for(delay);
      child.kill();
    }
    const auto kinds = left_on_disk(s);
    const Resumed r = resume_and_check(
        s, kResumeThreads[k % std::size(kResumeThreads)], baseline.reference,
        baseline.store_files);
    expect_adopted(r, s, kinds);
  }
  return baseline;
}

// A child of `scenario` in `dir`, killed once its checkpoint file
// satisfies `fired`; returns what it left there.
FileKind kill_on(std::string_view scenario, const UniqueDir& dir,
                 Trigger fired) {
  const Config s = configure(scenario, dir.path());
  const std::string path = s.checkpoints().back().path;
  Child child(scenario, dir.path());
  EXPECT_TRUE(child.kill_when(path, fired))
      << "the child finished before the trigger fired";
  return left_on_disk(path);
}

// ---- list-mode campaign ---------------------------------------------------

TEST(CheckpointCampaignTest, KillAtBoundaryThenResumeBitIdentical) {
  kill_at_seeded_delays("list", 3, 0xc0ffee);
}

TEST(CheckpointCampaignTest, KillInsideScanTwoResumesBitIdentical) {
  // File-triggered kills: the first mid-scan-1 file, the scan-boundary
  // file and the first mid-scan-2 file. The boundary file lives only
  // until a shard's first 256 probes of scan 2, so that kill may land a
  // file later; ScanBoundaryOnlyCheckpointStillResumes adopts a boundary
  // file for sure.
  const Outcome reference = run(configure("list", ""), 4);
  std::vector<FileKind> adopted;
  std::size_t threads_index = 0;
  for (const Trigger trigger : {&mid_scan1, &past_scan1, &mid_scan2}) {
    const UniqueDir dir("crash_trigger");
    const Config s = configure("list", dir.path());
    const FileKind kind = kill_on("list", dir, trigger);
    const Resumed r = resume_and_check(
        s, kResumeThreads[threads_index++ % std::size(kResumeThreads)],
        reference, {});
    expect_adopted(r, s, {kind});
    adopted.push_back(kind);
  }
  EXPECT_EQ(adopted.front(), FileKind::kMidScan1);
  EXPECT_EQ(adopted.back(), FileKind::kMidScan2);
}

TEST(CheckpointCampaignTest, ScanBoundaryOnlyCheckpointStillResumes) {
  // checkpoint_every = 0: the scan-1/scan-2 boundary is the only
  // checkpoint until the first shard of scan 2 completes its slice. Kill
  // the child once that file is on disk; the resume must take scan 1 from
  // it. Scan 2 takes only milliseconds here, so a poll that comes too late
  // for the bare boundary file still resumes (checked) or finds the child
  // done, and the next child tries again, up to three.
  const Outcome reference = run(configure("list_boundary_only", ""), 4);
  bool boundary_adopted = false;
  for (std::size_t attempt = 0; attempt < 3 && !boundary_adopted; ++attempt) {
    const UniqueDir dir("crash_boundary");
    const Config s = configure("list_boundary_only", dir.path());
    const std::string path = s.checkpoints().front().path;
    if (!Child("list_boundary_only", dir.path()).kill_when(path, &past_scan1))
      continue;
    const FileKind kind = left_on_disk(path);
    const Resumed r = resume_and_check(s, kResumeThreads[attempt], reference, {});
    expect_adopted(r, s, {kind});
    boundary_adopted = kind == FileKind::kBoundary;
  }
  EXPECT_TRUE(boundary_adopted);
}

TEST(CheckpointCampaignTest, MismatchedConfigCheckpointIsIgnored) {
  // A checkpoint of seed 77; a different experiment (seed 78) in the same
  // directory must ignore it and run fresh.
  const UniqueDir dir("crash_mismatch");
  ASSERT_NE(kill_on("list", dir, &mid_scan1), FileKind::kNone);
  const Config other = configure("list_seed78", dir.path());
  const Resumed r =
      resume_and_check(other, 4, run(configure("list_seed78", ""), 4), {});
  expect_adopted(r, other, {FileKind::kNone});
}

TEST(CheckpointCampaignTest, AdaptiveShapeChangeStartsFresh) {
  // A rate-limiting fabric makes the adaptive pacer back off, so its
  // window length moves send times.
  const Outcome old_shape = run(configure("adaptive_w32", ""), 4);
  const Outcome reference = run(configure("adaptive_w8", ""), 4);
  ASSERT_GT(reference.pair.scan1.pacer_backoffs, 0u);
  ASSERT_NE(reference.pair.scan1.end_time, old_shape.pair.scan1.end_time)
      << "the window change must move the schedule for this test to bite";

  // Resuming under the new window must not adopt the old-shape snapshot.
  const UniqueDir dir("crash_adaptive");
  ASSERT_NE(kill_on("adaptive_w32", dir, &mid_scan1), FileKind::kNone);
  const Config s = configure("adaptive_w8", dir.path());
  const Resumed r = resume_and_check(s, 4, reference, {});
  expect_adopted(r, s, {FileKind::kNone});
}

TEST(CheckpointCampaignTest, CorruptedSendWindowStartsFresh) {
  const UniqueDir dir("crash_window");
  const Config s = configure("list", dir.path());
  const std::string path = s.checkpoints().front().path;
  ASSERT_NE(kill_on("list", dir, &mid_scan1), FileKind::kNone);
  auto checkpoint = scan::load_checkpoint(path);
  ASSERT_TRUE(checkpoint.has_value());
  ASSERT_FALSE(checkpoint->shard_states.empty());

  // One repeated window entry in one shard poisons the whole file.
  auto& window = checkpoint->shard_states.front().send_window;
  ASSERT_FALSE(window.empty());
  window.push_back(window.back());
  ASSERT_TRUE(scan::save_checkpoint(*checkpoint, path));
  EXPECT_FALSE(scan::load_checkpoint(path).has_value());

  const Resumed r = resume_and_check(s, 4, run(configure("list", ""), 4), {});
  EXPECT_TRUE(r.adoptions.empty());
}

TEST(CheckpointCampaignTest, OldEmbeddedRecordsFormatStartsFresh) {
  const UniqueDir dir("crash_old_format");
  const Config s = configure("list", dir.path());
  const std::string path = s.checkpoints().front().path;
  ASSERT_NE(kill_on("list", dir, &mid_scan1), FileKind::kNone);
  const auto current = scan::load_checkpoint(path);
  ASSERT_TRUE(current.has_value());

  // The retired schema-1 format, same digest, claiming a finished scan 1
  // whose one embedded record exists nowhere in the reference: adopting
  // it would change scan 1.
  const std::string old_format =
      R"({"schema":1,"config_digest":")" +
      obs::u64_hex(current->config_digest) +
      R"(","scan_index":2,"scan1":{"label":"scan1","start_time":0,)"
      R"("end_time":1,"targets_probed":1,"probe_bytes":60,"records":[)"
      R"({"target":"203.0.113.9","engine_id":"80001f8804","boots":1,)"
      R"("engine_time":5,"send_time":0,"receive_time":1,)"
      R"("response_count":1,"response_bytes":100}]},)"
      R"("shard_states":[],"scan_boundary_fabrics":[]})";
  std::ofstream(path, std::ios::binary | std::ios::trunc) << old_format;
  EXPECT_FALSE(scan::load_checkpoint(path).has_value());

  const Resumed r = resume_and_check(s, 4, run(configure("list", ""), 4), {});
  EXPECT_TRUE(r.adoptions.empty());
}

TEST(CheckpointCampaignTest, TornCheckpointJsonResumesBitIdentical) {
  // Seeded tears of what a mid-scan-2 kill left: the checkpoint cut at
  // any offset fails to parse and the campaign starts fresh; a torn
  // `.tmp` beside the intact file (a write killed before its rename) is
  // ignored, the file adopted, and the resume's own writes replace the
  // `.tmp`.
  const Outcome reference = run(configure("list", ""), 4);
  const UniqueDir killed("crash_torn_json");
  const std::string name = "campaign.json";
  ASSERT_EQ(kill_on("list", killed, &mid_scan2), FileKind::kMidScan2);
  const auto size = fs::file_size(killed / name);
  util::Rng rng(0x7ea5);
  for (int tear = 0; tear < 3; ++tear) {
    const UniqueDir dir("crash_torn_json");
    fs::copy(killed.path(), dir.path(), fs::copy_options::recursive);
    const Config s = configure("list", dir.path());
    const auto offset = rng.next_below(size);
    SCOPED_TRACE("tear " + std::to_string(tear) + " at byte " +
                 std::to_string(offset));
    if (tear == 0) {
      // (The kill may itself have left a `.tmp`; this one replaces it.)
      fs::copy_file(dir / name, dir / (name + ".tmp"),
                    fs::copy_options::overwrite_existing);
      fs::resize_file(dir / (name + ".tmp"), offset);
      const Resumed r = resume_and_check(s, 4, reference, {});
      expect_adopted(r, s, {FileKind::kMidScan2});
    } else {
      fs::resize_file(dir / name, offset);
      const Resumed r = resume_and_check(s, 1, reference, {});
      expect_adopted(r, s, {FileKind::kNone});
    }
  }
}

// ---- store-backed list-mode campaign -------------------------------------

TEST(StoreCampaignTest, KillResumeThroughStoreCheckpointsBitIdentical) {
  kill_at_seeded_delays("list_store", 3, 0x5707e);
}

TEST(StoreCampaignTest, DamagedStoreFilesStillResumeBitIdentically) {
  // Seeded tail tears of the .seg/.idx files a mid-scan-2 kill left, then
  // every store file overwritten. A shard whose store no longer restores
  // re-runs, and an unrecoverable scan-1 store restarts the campaign:
  // slower, never different. The uninterrupted run is in-process here.
  const UniqueDir uninterrupted("crash_damage_ref");
  const Config reference_config = configure("list_store", uninterrupted.path());
  const Outcome reference = run(reference_config, 4);
  const auto store_files = files_under(reference_config.user_store_dir());
  expect_clean(reference_config, store_files);

  const UniqueDir killed("crash_damage");
  ASSERT_EQ(kill_on("list_store", killed, &mid_scan2), FileKind::kMidScan2);
  const std::vector<std::string> torn_candidates =
      files_under(configure("list_store", killed.path()).user_store_dir());
  ASSERT_FALSE(torn_candidates.empty());
  util::Rng rng(0xda3a6e);
  for (int tear = 0; tear < 5; ++tear) {
    const UniqueDir dir("crash_damage");
    fs::copy(killed.path(), dir.path(), fs::copy_options::recursive);
    const Config s = configure("list_store", dir.path());
    if (tear < 4) {
      const std::string file =
          s.user_store_dir() + "/" +
          torn_candidates[rng.next_below(torn_candidates.size())];
      const auto offset = rng.next_below(fs::file_size(file) + 1);
      SCOPED_TRACE(file + " cut at byte " + std::to_string(offset));
      fs::resize_file(file, offset);
      resume_and_check(s, kResumeThreads[tear % std::size(kResumeThreads)],
                       reference, store_files);
    } else {
      for (const auto& entry : fs::directory_iterator(s.user_store_dir()))
        std::ofstream(entry.path(), std::ios::binary | std::ios::trunc)
            << "garbage";
      resume_and_check(s, 4, reference, store_files);
    }
  }
}

// ---- spec-mode campaign ---------------------------------------------------

TEST(SpecModeCampaign, KillResumeBitIdenticalAtThreadCounts) {
  // The checkpoint carries each shard's sweep cursor and responder-cache
  // snapshot; the generator itself is rebuilt from (spec, seed).
  kill_at_seeded_delays("spec", 3, 0x5bec);
}

// ---- full pipeline --------------------------------------------------------

TEST(CheckpointPipeline, InterruptedPipelineResumesToIdenticalResult) {
  const Baseline baseline = kill_at_seeded_delays("pipeline", 3, 0x919e);

  // And once inside the IPv4 campaign's second scan: the IPv6 campaign
  // completed, so its file is gone and it re-runs.
  const UniqueDir dir("crash_pipeline");
  const Config s = configure("pipeline", dir.path());
  ASSERT_EQ(kill_on("pipeline", dir, &mid_scan2), FileKind::kMidScan2);
  const auto kinds = left_on_disk(s);
  EXPECT_EQ(kinds.front(), FileKind::kNone);
  const Resumed r =
      resume_and_check(s, 1, baseline.reference, baseline.store_files);
  expect_adopted(r, s, kinds);
}

TEST(ColumnarPipelineTest, StoreBackedKillResumeBitIdenticalAnyThreads) {
  // Spilled and evicting stores: the resumed campaigns reach the
  // overlapped join+filter with the records the uninterrupted run joined.
  kill_at_seeded_delays("pipeline_spill", 2, 0xc01);
}

}  // namespace
}  // namespace snmpv3fp

int main(int argc, char** argv) {
  if (argc == 4 && std::string_view(argv[1]) == snmpv3fp::kChildFlag)
    return snmpv3fp::run_child(argv[2], argv[3]);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
