#include "scan/campaign.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <filesystem>
#include <iterator>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>


namespace snmpv3fp::scan {

namespace {

// A RAM-only copy of whatever `sources` still read back, in (send_time,
// target) order: the fail-soft path when a damaged spilled store stops a
// sort or merge (materialize stops at the first damaged block, logged).
std::shared_ptr<store::RecordStore> resident_schedule_copy(
    const std::vector<const store::RecordStore*>& sources,
    const std::string& name) {
  std::vector<ScanRecord> records;
  for (const auto* source : sources) {
    auto readable = source->materialize();
    std::move(readable.begin(), readable.end(), std::back_inserter(records));
  }
  std::sort(records.begin(), records.end(),
            [](const ScanRecord& a, const ScanRecord& b) {
              return store::record_less(store::SortKey::kSendTimeTarget, a, b);
            });
  auto copy = std::make_shared<store::RecordStore>(store::StoreOptions{}, name);
  for (auto& record : records) copy->append(std::move(record));
  copy->seal();
  return copy;
}

// Merges per-shard scan results back into one ScanResult ordered by probe
// time (the global pacing schedule), so the merged record order never
// depends on shard boundaries or scheduling. Each shard store arrives
// sorted from its worker, so the serial tail is one k-way merge pass. The
// shard stores stay intact; the caller removes their files once no
// checkpoint names them.
ScanResult merge_shard_results(const std::vector<ScanResult>& shards,
                               const store::StoreOptions& store_options,
                               const std::string& label) {
  ScanResult merged;
  bool first = true;
  std::vector<const store::RecordStore*> sources;
  sources.reserve(shards.size());
  for (const auto& shard : shards) {
    if (first) {
      merged.label = shard.label;
      merged.start_time = shard.start_time;
      merged.end_time = shard.end_time;
      first = false;
    } else {
      merged.start_time = std::min(merged.start_time, shard.start_time);
      merged.end_time = std::max(merged.end_time, shard.end_time);
    }
    merged.targets_probed += shard.targets_probed;
    merged.probe_bytes = std::max(merged.probe_bytes, shard.probe_bytes);
    merged.undecodable_responses += shard.undecodable_responses;
    merged.pacer_backoffs += shard.pacer_backoffs;
    merged.unverified_responses += shard.unverified_responses;
    merged.off_target_responses += shard.off_target_responses;
    merged.send_ring_overruns += shard.send_ring_overruns;
    sources.push_back(shard.store.get());
  }
  const std::string name = label + "_merged";
  merged.store = store::merge_sorted_stores(
      sources, store::SortKey::kSendTimeTarget, store_options, name);
  if (merged.store == nullptr)  // damaged spilled shard store, logged
    merged.store = resident_schedule_copy(sources, name);
  return merged;
}

// Shared mutable checkpoint state for one campaign run. Shard workers
// update their own slot under the mutex and persist the whole file with
// an atomic rename, so a process killed at any instant leaves the last
// complete file on disk: every shard at its latest boundary (or complete)
// as of that write.
class CheckpointStore {
 public:
  CheckpointStore(std::string path, std::uint64_t config_digest,
                  std::size_t shard_count)
      : path_(std::move(path)) {
    data_.config_digest = config_digest;
    slots_.resize(shard_count);
  }

  bool enabled() const { return !path_.empty(); }

  // Begins a scan: clears per-shard slots, keeps boundary fabrics/scan1.
  void begin_scan(std::size_t scan_index) {
    std::lock_guard<std::mutex> lock(mutex_);
    data_.scan_index = scan_index;
    std::fill(slots_.begin(), slots_.end(), std::nullopt);
  }

  void adopt_resume(const CampaignCheckpoint& resume) {
    std::lock_guard<std::mutex> lock(mutex_);
    data_.scan_index = resume.scan_index;
    data_.scan1 = resume.scan1;
    data_.scan1_manifest = resume.scan1_manifest;
    data_.scan_boundary_fabrics = resume.scan_boundary_fabrics;
    for (const auto& state : resume.shard_states)
      if (state.shard < slots_.size()) slots_[state.shard] = state;
  }

  // A shard crossed a checkpoint boundary: record its snapshot and persist.
  void record_boundary(std::size_t shard, ShardScanState state) {
    std::lock_guard<std::mutex> lock(mutex_);
    slots_[shard] = std::move(state);
    persist_locked();
  }

  // A shard finished its slice and sorted its store: persist the sorted
  // store's manifest, after which the unsorted store's files may go.
  void mark_complete(std::size_t shard, const ScanResult& result,
                     sim::FabricState fabric) {
    std::lock_guard<std::mutex> lock(mutex_);
    ShardScanState state;
    state.shard = shard;
    state.cursor = result.targets_probed;
    state.complete = true;
    state.partial = result;
    state.fabric = std::move(fabric);
    state.store_manifest = result.store->manifest();
    slots_[shard] = std::move(state);
    persist_locked();
  }

  // Scan 1 finished: persist its merged result and store manifest plus
  // every shard's fabric at the scan boundary (shards without a
  // mid-scan-2 snapshot resume their fabric from here).
  void finish_scan1(const ScanResult& merged,
                    std::vector<sim::FabricState> boundary_fabrics) {
    std::lock_guard<std::mutex> lock(mutex_);
    data_.scan1_manifest = merged.store->manifest();
    data_.scan1 = merged;
    data_.scan_index = 2;
    data_.scan_boundary_fabrics = std::move(boundary_fabrics);
    std::fill(slots_.begin(), slots_.end(), std::nullopt);
    persist_locked();
  }

  const sim::FabricState* boundary_fabric(std::size_t shard) const {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shard >= data_.scan_boundary_fabrics.size()) return nullptr;
    return &data_.scan_boundary_fabrics[shard];
  }

 private:
  void persist_locked() {
    if (path_.empty()) return;
    data_.shard_states.clear();
    for (const auto& slot : slots_)
      if (slot.has_value()) data_.shard_states.push_back(*slot);
    save_checkpoint(data_, path_);
  }

  const std::string path_;
  mutable std::mutex mutex_;
  CampaignCheckpoint data_;
  std::vector<std::optional<ShardScanState>> slots_;
};

// Names of a shard's record store while it probes, and once sorted.
std::string shard_store_name(const std::string& label, std::size_t shard) {
  return label + "_shard" + std::to_string(shard);
}
std::string sorted_store_name(const std::string& label, std::size_t shard) {
  return shard_store_name(label, shard) + "_sorted";
}

std::uint64_t digest_config(const CampaignOptions& options,
                            const std::vector<net::IpAddress>& targets,
                            std::size_t shard_count) {
  std::uint64_t digest = util::hash_combine(options.seed, shard_count);
  digest = util::hash_combine(
      digest, static_cast<std::uint64_t>(options.family));
  digest = util::hash_combine(
      digest, static_cast<std::uint64_t>(options.first_scan_start));
  digest = util::hash_combine(
      digest, static_cast<std::uint64_t>(options.scan_gap));
  digest = util::hash_combine(digest,
                              std::bit_cast<std::uint64_t>(options.rate_pps));
  digest = util::hash_combine(digest, options.fabric.seed);
  digest = util::hash_combine(
      digest, static_cast<std::uint64_t>(options.pacer.adaptive));
  if (options.pacer.adaptive) {
    // Only an adaptive pacer's shape moves send times; fixed-rate digests
    // stay independent of these fields.
    const PacerConfig& pacer = options.pacer;
    for (const double value :
         {pacer.min_rate_pps, pacer.backoff_factor, pacer.recover_factor,
          pacer.collapse_threshold})
      digest = util::hash_combine(digest, std::bit_cast<std::uint64_t>(value));
    for (const std::uint64_t value :
         {static_cast<std::uint64_t>(pacer.window_probes),
          static_cast<std::uint64_t>(pacer.max_backoff_jitter),
          static_cast<std::uint64_t>(pacer.use_rate_limit_signals),
          static_cast<std::uint64_t>(pacer.rate_limit_signal_threshold)})
      digest = util::hash_combine(digest, value);
  }
  digest = util::hash_combine(
      digest,
      static_cast<std::uint64_t>(options.checkpoint_every_n_targets));
  digest = util::hash_combine(
      digest, static_cast<std::uint64_t>(options.response_timeout));
  // Never resume a fabric checkpoint into a net-engine campaign (or the
  // reverse): the transports carry incompatible state. The
  // execution-only wire_fast_path knob stays out of the digest.
  if (options.net_engine.has_value()) {
    digest = util::hash_combine(digest, 0x7e7e7e7e7e7e7e7eull);
    digest = util::hash_combine(
        digest, static_cast<std::uint64_t>(options.net_engine->clock));
  }
  if (options.target_spec.has_value()) {
    // Spec mode never materializes its targets; the sweep is identified by
    // its ranges and permutation parameters (a marker keeps a spec-mode
    // digest from ever colliding with a list-mode one).
    digest = util::hash_combine(digest, 0x5bec5bec5bec5becull);
    digest = util::hash_combine(digest, options.target_spec->ranges.size());
    for (const auto& range : options.target_spec->ranges) {
      digest = util::hash_combine(
          digest, static_cast<std::uint64_t>(range.base().value()));
      digest = util::hash_combine(
          digest, static_cast<std::uint64_t>(range.length()));
    }
    digest = util::hash_combine(
        digest, static_cast<std::uint64_t>(options.target_spec->feistel_rounds));
    return digest;
  }
  digest = util::hash_combine(digest, targets.size());
  const std::hash<net::IpAddress> address_hash;  // raw address bytes
  for (const auto& address : targets)
    digest = util::hash_combine(digest, address_hash(address));
  return digest;
}

}  // namespace

CampaignPair run_two_scan_campaign(topo::WorldModel& model,
                                   const CampaignOptions& options) {
  const std::uint64_t churn_seed = options.seed ^ 0xc0ffee;
  const bool spec_mode = options.target_spec.has_value();
  if (spec_mode && options.family != net::Family::kIpv4)
    throw std::invalid_argument("target_spec sweeps are IPv4-only");
  if (spec_mode && options.target_spec->ranges.empty())
    throw std::invalid_argument("target_spec needs at least one range");

  // Target list (list mode only; spec mode generates targets on demand):
  // explicit, or every address of the family assigned in either epoch (the
  // paper probes all routable space; probing known-dead space only burns
  // simulated time, so we probe the live superset). The second epoch's
  // addresses come from a model query instead of churning a full copy of
  // the world; its span accounts for that serial set-up.
  std::vector<net::IpAddress> targets;
  if (!spec_mode && options.targets.has_value()) {
    targets = *options.targets;
  } else if (!spec_mode) {
    obs::Span union_span(options.obs.trace(),
                         options.obs.scoped("target_union"));
    targets = model.campaign_targets(options.family, churn_seed);
  }

  const net::Endpoint prober_source{
      options.family == net::Family::kIpv4
          ? net::IpAddress(net::Ipv4(198, 51, 100, 7))
          : net::IpAddress(
                net::Ipv6::from_groups({0x2001, 0xdb8, 0, 0, 0, 0, 0, 7})),
      54321};

  // One transport per shard, persistent across both scans (clock and stats
  // continuity, like the former single fabric). Fabric mode: shards only
  // ever read the model while probing (each holds its own device view, so
  // lazy worlds derive into per-shard caches with no locking); churn is
  // applied between the scans. Net mode: each shard opens its own
  // BatchedUdpEngine socket and the wire's far side owns all delivery
  // semantics; the engines likewise live across both scans.
  const std::size_t shard_count = std::max<std::size_t>(options.shards, 1);
  const bool net_mode = options.net_engine.has_value();
  const bool wall_mode =
      net_mode && options.net_engine->clock == net::EngineClock::kWall;
  std::vector<std::unique_ptr<sim::Fabric>> fabrics;
  std::vector<std::unique_ptr<net::BatchedUdpEngine>> engines;
  std::vector<net::Transport*> transports(shard_count, nullptr);
  if (net_mode) {
    engines.reserve(shard_count);
    for (std::size_t shard = 0; shard < shard_count; ++shard) {
      auto engine = net::BatchedUdpEngine::open(*options.net_engine);
      if (!engine.ok()) {
        CampaignPair failed;
        failed.net_error = engine.error();
        return failed;
      }
      engines.push_back(std::move(engine).value());
      transports[shard] = engines.back().get();
    }
  } else {
    fabrics.reserve(shard_count);
    for (std::size_t shard = 0; shard < shard_count; ++shard) {
      sim::FabricConfig config = options.fabric;
      config.seed = util::hash_combine(options.fabric.seed, shard);
      fabrics.push_back(std::make_unique<sim::Fabric>(model, config));
      transports[shard] = fabrics.back().get();
    }
  }

  // Every shard's records go to a store. A checkpointed campaign needs its
  // stores on disk (the checkpoint holds only their manifests): without a
  // spill directory of its own it spills, unbounded and so never evicting,
  // under one derived from the checkpoint path, and hands back RAM-only
  // copies once it completes.
  store::StoreOptions store_options = options.store;
  const bool derived_store_dir =
      !options.checkpoint_path.empty() && store_options.dir.empty();
  if (derived_store_dir) {
    store_options.dir = options.checkpoint_path + ".store";
    store_options.max_resident_bytes = 0;
  }

  const std::uint64_t digest =
      options.checkpoint_path.empty()
          ? 0
          : digest_config(options, targets, shard_count);
  CheckpointStore store(options.checkpoint_path, digest, shard_count);

  // Resume: a checkpoint from the same configuration continues where the
  // previous process stopped; anything else is ignored with a warning. The
  // loaded checkpoint must outlive the scan that consumes its slots.
  bool resuming = false;
  std::size_t resume_scan_index = 1;
  std::optional<CampaignCheckpoint> resumed;
  // Resuming past scan 1: scan 1's records live in its merged store's
  // files; re-adopt them before committing to the resume (a checkpoint
  // whose store files are gone is as useless as no checkpoint).
  std::shared_ptr<store::RecordStore> scan1_store;
  if (store.enabled()) {
    if (auto loaded = load_checkpoint(options.checkpoint_path)) {
      bool adoptable = loaded->config_digest == digest;
      if (!adoptable) {
        obs::log_warn("checkpoint config mismatch, starting fresh",
                      {{"path", options.checkpoint_path}});
      } else if (loaded->scan_index == 2) {
        if (loaded->scan1.has_value())
          scan1_store = store::RecordStore::restore(store_options,
                                                    loaded->scan1_manifest);
        if (scan1_store == nullptr) {
          adoptable = false;
          obs::log_warn("checkpoint scan1 store unrecoverable, starting fresh",
                        {{"path", options.checkpoint_path}});
        }
      }
      if (adoptable) {
        resuming = true;
        resume_scan_index = loaded->scan_index;
        store.adopt_resume(*loaded);
        obs::log_info("campaign resuming from checkpoint",
                      {{"path", options.checkpoint_path},
                       {"scan", loaded->scan_index},
                       {"shard_states", loaded->shard_states.size()}});
        resumed = std::move(loaded);
      }
    }
  }

  // Shard stores a merged scan no longer reads. Their files go only once
  // the checkpoint on disk stops naming them, so a crash in between still
  // leaves a resumable checkpoint.
  std::vector<std::shared_ptr<store::RecordStore>> retired_stores;
  const auto remove_retired_stores = [&retired_stores] {
    for (auto& retired : retired_stores) retired->remove_files();
    retired_stores.clear();
  };

  const auto gap =
      static_cast<util::VTime>(static_cast<double>(util::kSecond) /
                               std::max(options.rate_pps, 1.0));

  // Runs one sharded scan; `resume_slots[shard]` (when non-null) continues
  // that shard from its snapshot.
  const auto run_sharded_scan =
      [&](const std::string& label, std::uint64_t scan_seed, util::VTime start,
          std::size_t scan_index,
          const std::vector<const ShardScanState*>& resume_slots) {
    obs::Span scan_span(options.obs.trace(), options.obs.scoped(label));
    if (store.enabled() && !resuming) store.begin_scan(scan_index);

    // Global randomization first, then contiguous slices: shard k's slice
    // starts at global probe index b_k and is paced with send_offset =
    // b_k * gap, so the union of shard schedules equals one sequential
    // scan's. List mode shuffles a materialized copy (the historical
    // path); spec mode seeds a Feistel permutation and computes each
    // shard's window positionally — nothing is materialized.
    std::vector<net::IpAddress> order;
    std::optional<TargetGenerator> generator;
    if (spec_mode) {
      generator.emplace(*options.target_spec, scan_seed);
    } else {
      order = targets;
      util::Rng rng(scan_seed);
      rng.shuffle(order);
    }

    const std::size_t n = spec_mode
                              ? static_cast<std::size_t>(generator->size())
                              : order.size();
    const std::size_t base = shard_count == 0 ? 0 : n / shard_count;
    const std::size_t extra = shard_count == 0 ? 0 : n % shard_count;
    std::vector<ScanResult> shard_results(shard_count);
    // Per-shard wall times land in worker-owned slots and are reported
    // from this thread in shard order — the observer sequence (like the
    // scan output) never depends on worker scheduling.
    std::vector<double> shard_wall_ms(shard_count, 0.0);
    // Wire-path counters are registered here, on the orchestrating thread,
    // before the workers start (obs counter creation is not thread-safe;
    // Counter::add is). Shards share them — add() uses relaxed atomics.
    obs::Counter wire_fast_parses =
        options.obs.counter(label + ".wire.fast_parses");
    obs::Counter wire_parse_fallbacks =
        options.obs.counter(label + ".wire.parse_fallbacks");
    obs::Counter wire_stamped_probes =
        options.obs.counter(label + ".wire.stamped_probes");
    obs::Counter wire_full_encodes =
        options.obs.counter(label + ".wire.full_encodes");
    // Live telemetry: every handle (timeline tracks, flight rings, status
    // slots, the RTT histogram, store metrics) is registered here on the
    // orchestrating thread; workers only write through the pre-bound
    // handles. The RTT histogram observes virtual-clock round-trips, so
    // its buckets are deterministic at any thread count.
    const std::string stage = options.obs.scoped(label);
    obs::Histogram rtt_hist = options.obs.histogram(
        label + ".rtt_ms",
        {1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0});
    std::vector<obs::ShardTelemetry> shard_telemetry(shard_count);
    std::vector<obs::SpanRecord> shard_spans(shard_count);
    store::StoreOptions shard_store_options = store_options;
    obs::FlightHandle scan_flight;  // scan-level boundary events
    if (options.obs.enabled()) {
      obs::Timeline* timeline = options.obs.timeline();
      obs::FlightRecorder* flight = options.obs.flight();
      obs::StatusBoard* board = options.obs.status_board();
      auto& st = shard_store_options.telemetry;
      st.resident_bytes = options.obs.gauge("store.resident_bytes");
      st.sealed_blocks = options.obs.counter("store.sealed_blocks");
      st.spilled_blocks = options.obs.counter("store.spilled_blocks");
      st.evicted_blocks = options.obs.counter("store.evicted_blocks");
      st.patched_records = options.obs.counter("store.patched_records");
      if (flight->enabled()) {
        scan_flight = flight->handle(stage, shard_count);
        scan_flight.record(obs::FlightEventKind::kScanBoundary, start,
                           static_cast<std::int64_t>(n), "scan_start");
      }
      for (std::size_t shard = 0; shard < shard_count; ++shard) {
        auto& telemetry = shard_telemetry[shard];
        telemetry.rtt_ms = rtt_hist;
        if (timeline->enabled())
          telemetry.timeline = timeline->recorder(stage, shard);
        if (flight->enabled()) telemetry.flight = flight->handle(stage, shard);
        if (board->enabled()) {
          const std::size_t begin = shard * base + std::min(shard, extra);
          const std::size_t end = begin + base + (shard < extra ? 1 : 0);
          telemetry.status = board->add_shard(stage, shard, end - begin);
        }
      }
    }
    util::parallel_for(0, shard_count, options.parallel, [&](std::size_t shard) {
      const auto t0 = std::chrono::steady_clock::now();
      // The worker's span finishes detached into its slot; the orchestrator
      // records the slots in shard order after the join (deterministic
      // sequence, true per-thread timing for the Chrome trace).
      obs::Span shard_span(options.obs.trace(),
                           stage + ".shard" + std::to_string(shard));
      shard_span.set_shard(static_cast<std::int64_t>(shard));
      // Per-shard store options: shared aggregate metrics, own flight ring.
      store::StoreOptions my_store_options = shard_store_options;
      my_store_options.telemetry.flight = shard_telemetry[shard].flight;
      const ShardScanState* resume_state = resume_slots[shard];
      std::shared_ptr<store::RecordStore> shard_store;
      if (resume_state != nullptr) {
        // Re-adopt the shard's record store before anything else: a shard
        // whose store files are unrecoverable simply re-runs fresh, which
        // reproduces the uninterrupted output (just without the head
        // start), so damage degrades resume speed, never correctness.
        shard_store = store::RecordStore::restore(
            my_store_options, resume_state->store_manifest);
        if (shard_store == nullptr) {
          obs::log_warn("shard store unrecoverable, re-running shard",
                        {{"shard", shard}});
          resume_state = nullptr;
        }
      }
      if (resume_state != nullptr) {
        // Fabric state rides in the snapshot; a completed shard needs no
        // re-probing at all, only its result and fabric back. Net engines
        // carry no resumable transport state (the kernel socket is fresh),
        // so their snapshots hold an empty FabricState.
        if (!net_mode) fabrics[shard]->restore(resume_state->fabric);
        if (resume_state->complete) {
          // Its store was sorted before it was marked complete.
          shard_results[shard] = resume_state->partial;
          shard_results[shard].store = shard_store;
          store.mark_complete(shard, shard_results[shard],
                              resume_state->fabric);
          // A kill between marking the shard complete and deleting its
          // unsorted store leaves those files; nothing names them now.
          store::RecordStore::remove_files(my_store_options,
                                           shard_store_name(label, shard));
          shard_spans[shard] = shard_span.finish_record();
          return;
        }
      } else if (!net_mode && scan_index == 2 && resuming &&
                 resume_scan_index == 2) {
        // Shard with no mid-scan-2 snapshot: its fabric continues from the
        // scan-1/scan-2 boundary.
        if (const auto* boundary = store.boundary_fabric(shard))
          fabrics[shard]->restore(*boundary);
      }
      if (shard_store == nullptr)
        shard_store = std::make_shared<store::RecordStore>(
            my_store_options, shard_store_name(label, shard));

      const std::size_t begin = shard * base + std::min(shard, extra);
      const std::size_t end = begin + base + (shard < extra ? 1 : 0);
      // The shard's window of the global probe order: a borrowed span of
      // the shuffled list, or a positional slice of the permuted sweep.
      std::optional<SpanTargets> span_slice;
      std::optional<GeneratorSlice> generator_slice;
      const TargetSequence* slice = nullptr;
      if (spec_mode) {
        generator_slice.emplace(*generator, begin, end);
        slice = &*generator_slice;
      } else {
        span_slice.emplace(
            std::span<const net::IpAddress>(order.data() + begin, end - begin));
        slice = &*span_slice;
      }
      ProbeConfig probe;
      probe.label = label;
      probe.rate_pps = options.rate_pps;
      probe.seed = util::hash_combine(scan_seed, shard);
      probe.randomize_order = false;  // already shuffled globally
      probe.send_offset = static_cast<util::VTime>(begin) * gap;
      probe.response_timeout = options.response_timeout;
      if (wall_mode) {
        // Real clocks tick for every shard at once: the target rate splits
        // across shards and the virtual interleaving offsets collapse —
        // wall schedules are wall schedules, not reconstructions of one
        // sequential scan.
        probe.rate_pps =
            options.rate_pps / static_cast<double>(shard_count);
        probe.send_offset = 0;
      }
      // Generated sweeps cover orders of magnitude more dead space than
      // they have responders; a horizon just past the worst-case round
      // trip keeps the send ring small. List mode keeps the default
      // horizon, response_timeout.
      if (spec_mode)
        probe.sent_horizon = options.fabric.max_rtt + util::kSecond;
      probe.pacer = options.pacer;
      // A burst only batches sends on a real clock; virtual schedules
      // keep the fixed gap.
      if (!wall_mode) probe.pacer.burst_probes = 1;
      probe.resume = resume_state;
      probe.sink = shard_store;
      probe.wire_fast_path = options.wire_fast_path;
      probe.wire_fast_parses = wire_fast_parses;
      probe.wire_parse_fallbacks = wire_parse_fallbacks;
      probe.wire_stamped_probes = wire_stamped_probes;
      probe.wire_full_encodes = wire_full_encodes;
      probe.telemetry = shard_telemetry[shard];
      if (store.enabled() && options.checkpoint_every_n_targets != 0) {
        probe.checkpoint_every_n_targets = options.checkpoint_every_n_targets;
        probe.on_checkpoint = [&, shard](ShardScanState& state) {
          state.shard = shard;
          if (!net_mode) state.fabric = fabrics[shard]->snapshot();
          store.record_boundary(shard, std::move(state));
          // The flight trail lands on disk beside every checkpoint, so a
          // crash right after the boundary still leaves a diagnosable dump.
          if (obs::FlightRecorder* flight = options.obs.flight();
              flight != nullptr && flight->enabled())
            flight->dump("checkpoint");
        };
      }
      Prober prober(*transports[shard], prober_source);
      ScanResult result = prober.run(*slice, probe, start);
      // Each shard sorts its own store here, inside the parallel region, so
      // the post-barrier merge is one k-way pass. The sorted store is what
      // a resume re-adopts for a completed shard; mid-scan snapshots name
      // the unsorted one, whose files go once the sorted manifest is
      // persisted.
      const std::string name = sorted_store_name(label, shard);
      result.store = store::sort_stores(
          {shard_store.get()}, store::SortKey::kSendTimeTarget,
          my_store_options, name, store::sort_chunk_records(my_store_options));
      if (result.store == nullptr)  // damaged spilled store, logged
        result.store = resident_schedule_copy({shard_store.get()}, name);
      if (store.enabled())
        store.mark_complete(shard, result,
                            net_mode ? sim::FabricState{}
                                     : fabrics[shard]->snapshot());
      shard_store->remove_files();
      shard_span.set_virtual_duration(result.end_time - result.start_time);
      shard_results[shard] = std::move(result);
      shard_spans[shard] = shard_span.finish_record();
      shard_wall_ms[shard] = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count();
    });

    if (options.obs.enabled()) {
      // Record the detached worker spans in shard order — the observer
      // sequence never depends on worker scheduling.
      const std::uint32_t shard_depth = scan_span.depth() + 1;
      for (std::size_t shard = 0; shard < shard_count; ++shard) {
        obs::SpanRecord record = std::move(shard_spans[shard]);
        if (record.name.empty()) continue;
        record.depth = shard_depth;
        options.obs.trace()->record(std::move(record));
      }
      for (std::size_t shard = 0; shard < shard_count; ++shard)
        options.obs.observer->add_shard_progress(
            {stage, shard, shard_results[shard].targets_probed,
             shard_results[shard].responsive(), shard_wall_ms[shard]});
    }

    ScanResult merged = merge_shard_results(shard_results, store_options, label);
    for (auto& shard : shard_results)
      retired_stores.push_back(std::move(shard.store));
    scan_span.set_virtual_duration(merged.end_time - merged.start_time);
    if (options.obs.enabled()) {
      options.obs.counter(label + ".targets").add(merged.targets_probed);
      options.obs.counter(label + ".responsive").add(merged.responsive());
      options.obs.counter(label + ".undecodable")
          .add(merged.undecodable_responses);
      options.obs.counter(label + ".backoffs").add(merged.pacer_backoffs);
      if (scan_flight.enabled())
        scan_flight.record(obs::FlightEventKind::kScanBoundary,
                           merged.end_time,
                           static_cast<std::int64_t>(merged.targets_probed),
                           "scan_end");
      if (obs::StatusBoard* board = options.obs.status_board();
          board->enabled())
        board->mark_stage_complete(stage);
    }
    obs::log_info("scan finished",
                  {{"scan", options.obs.scoped(label)},
                   {"targets", merged.targets_probed},
                   {"responsive", merged.responsive()},
                   {"undecodable", merged.undecodable_responses},
                   {"backoffs", merged.pacer_backoffs},
                   {"shards", shard_count}});
    return merged;
  };

  // Per-shard resume slots for the scan the checkpoint interrupted.
  std::vector<const ShardScanState*> no_resume(shard_count, nullptr);
  const auto slots_for_scan =
      [&](const CampaignCheckpoint& data) {
        std::vector<const ShardScanState*> slots(shard_count, nullptr);
        for (const auto& state : data.shard_states)
          if (state.shard < shard_count) slots[state.shard] = &state;
        return slots;
      };

  CampaignPair out;
  if (resuming && resume_scan_index == 2) {
    // Scan 1 finished in a previous process: take its merged result (the
    // records come back through the re-adopted store).
    out.scan1 = resumed->scan1.value_or(ScanResult{});
    out.scan1.store = scan1_store;
    // Its shard stores were retired once the scan-boundary file was
    // written; a kill before their deletion leaves their files behind.
    for (std::size_t shard = 0; shard < shard_count; ++shard)
      store::RecordStore::remove_files(store_options,
                                       sorted_store_name("scan1", shard));
  } else {
    const auto slots = (resuming && resume_scan_index == 1)
                           ? slots_for_scan(*resumed)
                           : no_resume;
    out.scan1 = run_sharded_scan("scan1", options.seed * 2 + 1,
                                 options.first_scan_start, 1, slots);
    resuming = false;  // past the resume point either way
    if (store.enabled()) {
      std::vector<sim::FabricState> boundary;
      boundary.reserve(shard_count);
      for (const auto& fabric : fabrics) boundary.push_back(fabric->snapshot());
      store.finish_scan1(out.scan1, std::move(boundary));
    }
    remove_retired_stores();
  }

  {
    obs::Span churn_span(options.obs.trace(), options.obs.scoped("churn"));
    model.apply_churn(churn_seed);
  }

  {
    const auto slots = (resuming && resume_scan_index == 2)
                           ? slots_for_scan(*resumed)
                           : no_resume;
    out.scan2 =
        run_sharded_scan("scan2", options.seed * 2 + 2,
                         options.first_scan_start + options.scan_gap, 2, slots);
    resuming = false;
  }

  for (const auto& fabric : fabrics) {
    out.fabric_stats += fabric->stats();
    out.responder_cache += fabric->cache_stats();
  }
  for (const auto& engine : engines) out.net_io += engine->stats();
  if (store.enabled()) remove_checkpoint(options.checkpoint_path);
  remove_retired_stores();
  if (derived_store_dir) {
    // The spill directory existed only for the checkpoint, which is gone:
    // hand back RAM-only copies and leave no files behind. The stores are
    // already in schedule order, so a one-source merge copies them.
    for (ScanResult* scan : {&out.scan1, &out.scan2}) {
      const std::vector<const store::RecordStore*> source{scan->store.get()};
      std::shared_ptr<store::RecordStore> resident = store::merge_sorted_stores(
          source, store::SortKey::kSendTimeTarget, store::StoreOptions{},
          scan->store->name());
      if (resident == nullptr)  // damaged spilled store, logged
        resident = resident_schedule_copy(source, scan->store->name());
      scan->store->remove_files();
      scan->store = std::move(resident);
    }
    std::error_code ec;
    std::filesystem::remove_all(store_options.dir, ec);
  }
  // Final telemetry flush: the flight trail and status surface land on
  // disk once more at campaign exit.
  if (obs::FlightRecorder* flight = options.obs.flight();
      flight != nullptr && flight->enabled())
    flight->dump("exit");
  if (obs::StatusBoard* board = options.obs.status_board();
      board != nullptr && board->enabled())
    board->write_now();
  return out;
}

CampaignPair run_two_scan_campaign(topo::World& world,
                                   const CampaignOptions& options) {
  topo::MaterializedWorldModel model(world);
  return run_two_scan_campaign(model, options);
}

}  // namespace snmpv3fp::scan
