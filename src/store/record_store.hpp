// Append-only, spill-to-disk ScanRecord store with bounded resident RAM:
// the one container every scan's records live in (scan::ScanResult).
//
// A RecordStore packs appended records into codec blocks (store/codec.hpp)
// that stay encoded, several times smaller than decoded ScanRecords. With
// no spill directory a store is RAM-only: its sealed blocks stay resident
// and are never evicted. With a directory, sealed blocks are also written
// to an append-only segment file plus a fixed-size block index file, and
// stay resident only up to `StoreOptions::max_resident_bytes` — beyond
// that the oldest spilled blocks are evicted and re-read on demand.
//
// Layout on disk, per store `name`:
//   <dir>/<name>.seg   concatenated codec blocks (append-only)
//   <dir>/<name>.idx   one fixed 24-byte entry per sealed block:
//                      offset u64le | bytes u32le | records u32le |
//                      payload crc u32le | entry crc u32le
//
// Incremental checkpointing: both files only ever grow, so a campaign
// boundary persists just the committed counters, the open tail (encoded as
// one block) and the duplicate-response patch overlay — O(records since
// the last boundary), never O(records collected) (StoreManifest,
// scan/checkpoint.hpp). restore() reopens the files, truncates anything
// past the manifest (a crash can leave blocks the checkpoint never
// committed) and continues appending bit-identically.
//
// Concurrency: one writer thread per store (the owning shard); any number
// of Cursors may read a store after writing has finished. Cursors hold an
// independent file handle and decode one block at a time, so a full-store
// scan needs O(block) memory.
#pragma once

#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "scan/record.hpp"
#include "store/codec.hpp"
#include "util/result.hpp"

namespace snmpv3fp::obs {
class JsonValue;
}

namespace snmpv3fp::store {

struct ColumnarBlock;

// Execution-only store instrumentation (values the store already tracks
// internally, exported to the metrics registry and the shard's flight ring
// when a run is observed). Default-constructed handles are no-ops; the
// campaign registers the metrics on the orchestrating thread and copies
// the bundle into each shard's StoreOptions, so the gauge/counters
// aggregate across shards while flight events land on the shard's track.
struct StoreTelemetry {
  obs::Gauge resident_bytes;     // encoded sealed blocks held in RAM
  obs::Counter sealed_blocks;    // blocks sealed (spilled or resident)
  obs::Counter spilled_blocks;   // blocks safely written to disk
  obs::Counter evicted_blocks;   // resident copies dropped under budget
  obs::Counter patched_records;  // post-seal duplicate patches
  obs::TrackHandle track;        // spill/evict events for the shard ring
};

struct StoreOptions {
  // Spill directory. Empty = RAM-only: blocks are never written to disk
  // and never evicted (max_resident_bytes is ignored).
  std::string dir;
  // Resident budget for encoded sealed blocks. 0 = unbounded. Only blocks
  // that are safely on disk are ever evicted.
  std::size_t max_resident_bytes = 0;
  // Records per sealed block: the codec batch size and the granularity of
  // spill, eviction and cursor reads.
  std::size_t records_per_block = 512;
  // Observability hooks; all no-ops by default. Never affects behaviour.
  StoreTelemetry telemetry;
};

// Per-record updates that arrived after the record's block was sealed
// (duplicate/amplified responses): applied as an overlay at read time, so
// sealed blocks stay immutable and their CRCs stay valid.
struct RecordPatch {
  std::uint64_t extra_responses = 0;
  std::vector<snmp::EngineId> extra_engines;  // sorted unique
};

// Everything a checkpoint needs to re-adopt a store: committed counters
// (the block index and segment live in the store's own files), the open
// tail encoded as one codec block, and the patch overlay.
struct StoreManifest {
  std::string name;
  std::uint64_t committed_records = 0;
  std::uint64_t committed_bytes = 0;
  std::uint64_t block_count = 0;
  std::string tail_hex;  // encode_block(tail) as hex; "" = empty tail
  std::vector<std::pair<std::uint64_t, RecordPatch>> patches;  // by index
};

class RecordStore {
 public:
  // Creates a fresh, empty store; truncates any files a previous run left
  // under the same name. `name` must be a plain filename stem.
  RecordStore(StoreOptions options, std::string name);
  ~RecordStore();
  RecordStore(const RecordStore&) = delete;
  RecordStore& operator=(const RecordStore&) = delete;

  // Reopens a store from a checkpoint manifest; the segment and index
  // files must exist under `options.dir`. Returns nullptr (after logging)
  // when the files do not match the manifest.
  static std::unique_ptr<RecordStore> restore(StoreOptions options,
                                              const StoreManifest& manifest);

  // Sticky I/O error state; a store that failed to spill keeps accepting
  // appends resident (degraded, but a scan never dies on a full disk).
  const util::Status& status() const { return status_; }

  std::size_t size() const { return committed_records_ + tail_.size(); }
  std::size_t block_count() const { return blocks_.size(); }
  std::size_t committed_records() const { return committed_records_; }
  std::uint64_t committed_bytes() const { return committed_bytes_; }
  // Encoded bytes of sealed blocks currently held in RAM.
  std::size_t resident_bytes() const { return resident_bytes_; }
  std::uint64_t spilled_bytes() const { return spilled_bytes_; }
  std::size_t patch_count() const { return patches_.size(); }
  const StoreOptions& options() const { return options_; }
  const std::string& name() const { return name_; }
  // True when the store writes its blocks to a spill directory; the join
  // picks its execution shape from this (core/join.hpp).
  bool spills() const { return !options_.dir.empty(); }

  // Appends one record; returns its index. Seals a block automatically
  // every `records_per_block` appends.
  std::size_t append(scan::ScanRecord record);

  // Accounts a duplicate response for record `index` — mirrors the
  // historical in-place mutation: response_count increments, and `engine`
  // (pass nullptr when it matches the record's primary engine ID) joins
  // the record's extra-engine set.
  void note_duplicate(std::size_t index, const snmp::EngineId* engine);

  // Seals the open tail into a (possibly short) block. Call once when a
  // scan finishes; append() may not be called afterwards.
  void seal();

  // Streaming reader; see class comment for the concurrency contract.
  class Cursor {
   public:
    // Yields the next record (patches applied) in append order; false at
    // end of store or on a read/decode error (check error()).
    bool next(scan::ScanRecord& out);
    // Index of the next record next() would yield.
    std::size_t index() const { return next_index_; }
    const std::string& error() const { return error_; }

   private:
    friend class RecordStore;
    explicit Cursor(const RecordStore& owner);
    bool load_block(std::size_t block);

    const RecordStore* owner_;
    std::size_t next_index_ = 0;
    std::size_t block_ = 0;            // next block to load
    std::size_t buffer_base_ = 0;      // global index of buffer_[0]
    std::vector<scan::ScanRecord> buffer_;
    std::size_t buffer_pos_ = 0;
    std::unique_ptr<std::FILE, int (*)(std::FILE*)> file_;
    std::string error_;
  };
  Cursor cursor() const { return Cursor(*this); }

  // Streaming columnar reader (store/columnar.hpp): yields one pivoted
  // block at a time in append order, decoding each sealed block straight
  // into columns (decoded exactly once, no per-record materialization)
  // with the patch overlay applied. Same concurrency contract as Cursor.
  class ColumnarCursor {
   public:
    // Replaces `out` with the next block; false at end of store or on a
    // read/decode error (check error()).
    bool next_block(ColumnarBlock& out);
    // Global record index of row 0 of the block last returned.
    std::size_t base() const { return base_; }
    const std::string& error() const { return error_; }

   private:
    friend class RecordStore;
    explicit ColumnarCursor(const RecordStore& owner);

    const RecordStore* owner_;
    std::size_t block_ = 0;  // next block to load; blocks_.size() = tail
    std::size_t base_ = 0;
    std::size_t next_base_ = 0;
    std::unique_ptr<std::FILE, int (*)(std::FILE*)> file_;
    std::string error_;
  };
  ColumnarCursor columnar_cursor() const { return ColumnarCursor(*this); }

  // Applies `fn(record, index)` to every record in append order; fails
  // closed on a damaged block.
  util::Status for_each(
      const std::function<void(const scan::ScanRecord&, std::size_t)>& fn)
      const;

  // Reads the whole store back into a vector (the resident merge join,
  // tests, small-scale callers).
  std::vector<scan::ScanRecord> materialize() const;

  // Checkpoint manifest: O(tail + patches), not O(records). The segment
  // and index files are already flushed through the last sealed block.
  StoreManifest manifest() const;

  // Closes and deletes the store's files (campaign cleanup).
  void remove_files();
  // Deletes the files of the store `name` under `options.dir`, for a store
  // no live object holds (one a killed process left behind).
  static void remove_files(const StoreOptions& options, const std::string& name);

 private:
  struct Block {
    std::uint64_t offset = 0;
    std::uint32_t bytes = 0;
    std::uint32_t records = 0;
    std::uint32_t crc = 0;
    bool spilled = false;
    // Encoded block kept resident; null once evicted (re-read from disk).
    std::shared_ptr<const util::Bytes> resident;
  };

  RecordStore(StoreOptions options, std::string name, bool fresh);
  std::string seg_path() const;
  std::string idx_path() const;
  void seal_block();
  void evict_over_budget();
  // Fetches (from RAM or disk) and decodes block `index` into `out`.
  util::Status read_block(std::size_t index, std::FILE* file,
                          std::vector<scan::ScanRecord>& out) const;
  void apply_patches(std::vector<scan::ScanRecord>& records,
                     std::size_t base_index) const;
  void apply_patches_columnar(ColumnarBlock& block,
                              std::size_t base_index) const;

  StoreOptions options_;
  std::string name_;
  std::vector<Block> blocks_;
  std::vector<scan::ScanRecord> tail_;
  std::map<std::size_t, RecordPatch> patches_;
  std::size_t committed_records_ = 0;
  std::uint64_t committed_bytes_ = 0;
  std::size_t resident_bytes_ = 0;
  std::uint64_t spilled_bytes_ = 0;
  std::size_t evict_cursor_ = 0;
  std::FILE* seg_ = nullptr;
  std::FILE* idx_ = nullptr;
  util::Status status_;
};

// Sort key for external store sorts.
enum class SortKey : std::uint8_t {
  kSendTimeTarget,  // (send_time, target): the merged probe-order sort
  kAddress,         // target address: the join's merge key
};

// Strict order of `key`. (send_time, target) and target are both total
// orders over one scan's records (one probe per target), so every sorted
// sequence of the same records is the same sequence.
bool record_less(SortKey key, const scan::ScanRecord& a,
                 const scan::ScanRecord& b);

// K-way merge of `sources`, each already sorted by `key`, into a fresh
// store `name` built with `options`. Patch overlays are folded into the
// output records. Returns nullptr (after logging) when a source block is
// damaged: the merge fails closed.
std::unique_ptr<RecordStore> merge_sorted_stores(
    const std::vector<const RecordStore*>& sources, SortKey key,
    StoreOptions options, const std::string& name);

// External merge sort with bounded RAM: streams `sources` in order, cuts
// sorted runs of at most `chunk_records` records and merges them with
// merge_sorted_stores. When everything fits one run it is sorted and
// appended straight into the output. Returns nullptr (after logging) when
// a source block is damaged.
std::unique_ptr<RecordStore> sort_stores(
    const std::vector<const RecordStore*>& sources, SortKey key,
    StoreOptions options, const std::string& name, std::size_t chunk_records);

// Chunk size that keeps a sort's working set around `max_resident_bytes`
// (RAM-only or unbounded budget = one in-RAM run).
std::size_t sort_chunk_records(const StoreOptions& options);

// Manifest JSON codec (used by scan/checkpoint.cpp). The writer appends
// one JSON object to `out`; the reader tolerates missing fields (zeros).
void write_manifest_json(std::string& out, const StoreManifest& manifest);
StoreManifest read_manifest_json(const obs::JsonValue& value);

}  // namespace snmpv3fp::store
