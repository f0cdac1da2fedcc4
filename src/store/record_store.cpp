#include "store/record_store.hpp"

#include <algorithm>
#include <filesystem>
#include <limits>
#include <utility>

#include "obs/json.hpp"
#include "obs/log.hpp"
#include "store/columnar.hpp"

namespace snmpv3fp::store {

namespace fs = std::filesystem;

namespace {

constexpr std::size_t kIndexEntryBytes = 24;

void put_u32le(std::uint8_t* out, std::uint32_t value) {
  out[0] = static_cast<std::uint8_t>(value);
  out[1] = static_cast<std::uint8_t>(value >> 8);
  out[2] = static_cast<std::uint8_t>(value >> 16);
  out[3] = static_cast<std::uint8_t>(value >> 24);
}

std::uint32_t get_u32le(const std::uint8_t* data) {
  return static_cast<std::uint32_t>(data[0]) |
         (static_cast<std::uint32_t>(data[1]) << 8) |
         (static_cast<std::uint32_t>(data[2]) << 16) |
         (static_cast<std::uint32_t>(data[3]) << 24);
}

void put_u64le(std::uint8_t* out, std::uint64_t value) {
  put_u32le(out, static_cast<std::uint32_t>(value));
  put_u32le(out + 4, static_cast<std::uint32_t>(value >> 32));
}

std::uint64_t get_u64le(const std::uint8_t* data) {
  return static_cast<std::uint64_t>(get_u32le(data)) |
         (static_cast<std::uint64_t>(get_u32le(data + 4)) << 32);
}

// extra_engines stays sorted and unique, so membership is a binary search
// (amplifiers answer thousands of times) and the patch overlay folds in
// exactly like an in-place tail update.
void insert_sorted_unique(std::vector<snmp::EngineId>& engines,
                          const snmp::EngineId& engine) {
  const auto pos =
      std::lower_bound(engines.begin(), engines.end(), engine);
  if (pos == engines.end() || *pos != engine) engines.insert(pos, engine);
}

}  // namespace

// ---- RecordStore ----

RecordStore::RecordStore(StoreOptions options, std::string name)
    : RecordStore(std::move(options), std::move(name), /*fresh=*/true) {}

RecordStore::RecordStore(StoreOptions options, std::string name, bool fresh)
    : options_(std::move(options)), name_(std::move(name)) {
  if (options_.records_per_block == 0) options_.records_per_block = 1;
  if (options_.dir.empty() || !fresh) return;
  std::error_code ec;
  fs::create_directories(options_.dir, ec);
  seg_ = std::fopen(seg_path().c_str(), "wb");
  idx_ = std::fopen(idx_path().c_str(), "wb");
  if (seg_ == nullptr || idx_ == nullptr) {
    // Degraded mode: keep collecting resident (a full disk must not kill
    // a week-long scan), but record the failure so checkpoints know the
    // manifest is not restorable.
    status_ = util::Status::failure("store: cannot create files under " +
                                    options_.dir);
    obs::log_warn("record store spill disabled",
                  {{"store", name_}, {"dir", options_.dir}});
    if (seg_ != nullptr) std::fclose(seg_);
    if (idx_ != nullptr) std::fclose(idx_);
    seg_ = nullptr;
    idx_ = nullptr;
  }
}

RecordStore::~RecordStore() {
  if (seg_ != nullptr) std::fclose(seg_);
  if (idx_ != nullptr) std::fclose(idx_);
  // Hand the resident budget back so the shared gauge tracks live stores.
  options_.telemetry.resident_bytes.add(
      -static_cast<std::int64_t>(resident_bytes_));
}

std::string RecordStore::seg_path() const {
  return options_.dir + "/" + name_ + ".seg";
}

std::string RecordStore::idx_path() const {
  return options_.dir + "/" + name_ + ".idx";
}

std::size_t RecordStore::append(scan::ScanRecord record) {
  const std::size_t index = committed_records_ + tail_.size();
  tail_.push_back(std::move(record));
  if (tail_.size() >= options_.records_per_block) seal_block();
  return index;
}

void RecordStore::note_duplicate(std::size_t index,
                                 const snmp::EngineId* engine) {
  if (index >= size()) return;
  if (index >= committed_records_) {
    auto& record = tail_[index - committed_records_];
    ++record.response_count;
    if (engine != nullptr) insert_sorted_unique(record.extra_engines, *engine);
    return;
  }
  auto& patch = patches_[index];
  ++patch.extra_responses;
  if (engine != nullptr) insert_sorted_unique(patch.extra_engines, *engine);
  options_.telemetry.patched_records.add();
}

void RecordStore::seal() { seal_block(); }

void RecordStore::seal_block() {
  if (tail_.empty()) return;
  auto encoded = std::make_shared<const util::Bytes>(encode_block(tail_));

  Block block;
  block.offset = committed_bytes_;
  block.bytes = static_cast<std::uint32_t>(encoded->size());
  block.records = static_cast<std::uint32_t>(tail_.size());
  block.crc = get_u32le(encoded->data() + 16);  // payload CRC from header

  if (seg_ != nullptr && status_.ok()) {
    std::uint8_t entry[kIndexEntryBytes];
    put_u64le(entry, block.offset);
    put_u32le(entry + 8, block.bytes);
    put_u32le(entry + 12, block.records);
    put_u32le(entry + 16, block.crc);
    put_u32le(entry + 20, crc32(util::ByteView(entry, 20)));
    const bool wrote =
        std::fwrite(encoded->data(), 1, encoded->size(), seg_) ==
            encoded->size() &&
        std::fflush(seg_) == 0 &&
        std::fwrite(entry, 1, kIndexEntryBytes, idx_) == kIndexEntryBytes &&
        std::fflush(idx_) == 0;
    if (wrote) {
      block.spilled = true;
      spilled_bytes_ += encoded->size();
      options_.telemetry.spilled_blocks.add();
      options_.telemetry.track.record(
          obs::FlightEventKind::kStoreSpill, 0,
          static_cast<std::int64_t>(encoded->size()), name_);
    } else {
      status_ = util::Status::failure("store: short write to " + seg_path());
      obs::log_warn("record store spill failed, staying resident",
                    {{"store", name_}});
    }
  }

  block.resident = encoded;
  resident_bytes_ += encoded->size();
  committed_records_ += tail_.size();
  committed_bytes_ += encoded->size();
  options_.telemetry.sealed_blocks.add();
  options_.telemetry.resident_bytes.add(
      static_cast<std::int64_t>(encoded->size()));
  blocks_.push_back(std::move(block));
  tail_.clear();
  evict_over_budget();
}

void RecordStore::evict_over_budget() {
  if (options_.max_resident_bytes == 0) return;
  while (resident_bytes_ > options_.max_resident_bytes &&
         evict_cursor_ < blocks_.size()) {
    Block& block = blocks_[evict_cursor_++];
    if (block.resident != nullptr && block.spilled) {
      const std::size_t freed = block.resident->size();
      resident_bytes_ -= freed;
      block.resident.reset();
      options_.telemetry.evicted_blocks.add();
      options_.telemetry.resident_bytes.add(
          -static_cast<std::int64_t>(freed));
      options_.telemetry.track.record(obs::FlightEventKind::kStoreEvict, 0,
                                      static_cast<std::int64_t>(freed), name_);
    }
  }
}

util::Status RecordStore::read_block(std::size_t index, std::FILE* file,
                                     std::vector<scan::ScanRecord>& out) const {
  const Block& block = blocks_[index];
  util::Bytes from_disk;
  util::ByteView view;
  // Hold a reference so concurrent readers of a still-resident block stay
  // safe even if the writer has since evicted it.
  const std::shared_ptr<const util::Bytes> resident = block.resident;
  if (resident != nullptr) {
    view = *resident;
  } else {
    if (file == nullptr)
      return util::Status::failure("store: evicted block without segment");
    from_disk.resize(block.bytes);
    if (std::fseek(file, static_cast<long>(block.offset), SEEK_SET) != 0 ||
        std::fread(from_disk.data(), 1, from_disk.size(), file) !=
            from_disk.size())
      return util::Status::failure("store: short read from " + seg_path());
    view = from_disk;
  }
  auto decoded = decode_block(view);
  if (!decoded)
    return util::Status::failure("store: block " + std::to_string(index) +
                                 ": " + decoded.error());
  if (decoded.value().size() != block.records)
    return util::Status::failure("store: block " + std::to_string(index) +
                                 ": record count disagrees with index");
  out = std::move(decoded).value();
  return {};
}

void RecordStore::apply_patches(std::vector<scan::ScanRecord>& records,
                                std::size_t base_index) const {
  if (patches_.empty()) return;
  const auto end = patches_.lower_bound(base_index + records.size());
  for (auto it = patches_.lower_bound(base_index); it != end; ++it) {
    auto& record = records[it->first - base_index];
    record.response_count += it->second.extra_responses;
    for (const auto& engine : it->second.extra_engines)
      insert_sorted_unique(record.extra_engines, engine);
  }
}

void RecordStore::apply_patches_columnar(ColumnarBlock& block,
                                         std::size_t base_index) const {
  if (patches_.empty()) return;
  const auto end = patches_.lower_bound(base_index + block.size());
  for (auto it = patches_.lower_bound(base_index); it != end; ++it) {
    const auto row = static_cast<std::uint32_t>(it->first - base_index);
    block.response_count[row] += it->second.extra_responses;
    if (it->second.extra_engines.empty()) continue;
    // The overlay stays sorted by row: patches iterate in ascending index
    // order, but a decoded block may already carry an entry for this row.
    auto pos = std::lower_bound(
        block.extra_engines.begin(), block.extra_engines.end(), row,
        [](const auto& entry, std::uint32_t r) { return entry.first < r; });
    if (pos == block.extra_engines.end() || pos->first != row)
      pos = block.extra_engines.insert(
          pos, {row, std::vector<snmp::EngineId>()});
    for (const auto& engine : it->second.extra_engines)
      insert_sorted_unique(pos->second, engine);
  }
}

// ---- Cursor ----

RecordStore::Cursor::Cursor(const RecordStore& owner)
    : owner_(&owner), file_(nullptr, std::fclose) {}

bool RecordStore::Cursor::load_block(std::size_t block) {
  const Block& meta = owner_->blocks_[block];
  if (meta.resident == nullptr && file_ == nullptr) {
    file_.reset(std::fopen(owner_->seg_path().c_str(), "rb"));
    if (file_ == nullptr) {
      error_ = "store: cannot open " + owner_->seg_path();
      return false;
    }
  }
  const auto status = owner_->read_block(block, file_.get(), buffer_);
  if (!status.ok()) {
    error_ = status.error();
    return false;
  }
  return true;
}

bool RecordStore::Cursor::next(scan::ScanRecord& out) {
  if (!error_.empty()) return false;
  while (buffer_pos_ >= buffer_.size()) {
    if (block_ < owner_->blocks_.size()) {
      buffer_base_ = next_index_;
      if (!load_block(block_)) return false;
      owner_->apply_patches(buffer_, buffer_base_);
      ++block_;
      buffer_pos_ = 0;
    } else if (block_ == owner_->blocks_.size()) {
      // Open tail: copy, never patched (patches cover sealed blocks only).
      buffer_ = owner_->tail_;
      buffer_base_ = owner_->committed_records_;
      buffer_pos_ = 0;
      ++block_;
    } else {
      return false;
    }
  }
  // Each buffered record is yielded once, so it can move out.
  out = std::move(buffer_[buffer_pos_++]);
  ++next_index_;
  return true;
}

// ---- ColumnarCursor ----

RecordStore::ColumnarCursor::ColumnarCursor(const RecordStore& owner)
    : owner_(&owner), file_(nullptr, std::fclose) {}

bool RecordStore::ColumnarCursor::next_block(ColumnarBlock& out) {
  if (!error_.empty()) return false;
  if (block_ < owner_->blocks_.size()) {
    const Block& meta = owner_->blocks_[block_];
    // Hold a reference so concurrent readers of a still-resident block
    // stay safe even if the writer has since evicted it.
    const std::shared_ptr<const util::Bytes> resident = meta.resident;
    util::Bytes from_disk;
    util::ByteView view;
    if (resident != nullptr) {
      view = *resident;
    } else {
      if (file_ == nullptr) {
        file_.reset(std::fopen(owner_->seg_path().c_str(), "rb"));
        if (file_ == nullptr) {
          error_ = "store: cannot open " + owner_->seg_path();
          return false;
        }
      }
      from_disk.resize(meta.bytes);
      if (std::fseek(file_.get(), static_cast<long>(meta.offset), SEEK_SET) !=
              0 ||
          std::fread(from_disk.data(), 1, from_disk.size(), file_.get()) !=
              from_disk.size()) {
        error_ = "store: short read from " + owner_->seg_path();
        return false;
      }
      view = from_disk;
    }
    auto decoded = decode_block_columnar(view);
    if (!decoded) {
      error_ = "store: block " + std::to_string(block_) + ": " +
               decoded.error();
      return false;
    }
    if (decoded.value().size() != meta.records) {
      error_ = "store: block " + std::to_string(block_) +
               ": record count disagrees with index";
      return false;
    }
    out = std::move(decoded).value();
    base_ = next_base_;
    next_base_ = base_ + out.size();
    owner_->apply_patches_columnar(out, base_);
    ++block_;
    return true;
  }
  if (block_ == owner_->blocks_.size()) {
    // Open tail: pivoted in place, never patched (patches cover sealed
    // blocks only).
    ++block_;
    if (!owner_->tail_.empty()) {
      out = ColumnarBlock::from_records(owner_->tail_);
      base_ = next_base_;
      next_base_ = base_ + out.size();
      return true;
    }
  }
  return false;
}

util::Status RecordStore::for_each(
    const std::function<void(const scan::ScanRecord&, std::size_t)>& fn)
    const {
  auto cur = cursor();
  scan::ScanRecord record;
  std::size_t index = 0;
  while (cur.next(record)) fn(record, index++);
  if (!cur.error().empty()) return util::Status::failure(cur.error());
  return {};
}

std::vector<scan::ScanRecord> RecordStore::materialize() const {
  std::vector<scan::ScanRecord> records;
  records.reserve(size());
  const auto status = for_each(
      [&records](const scan::ScanRecord& record, std::size_t) {
        records.push_back(record);
      });
  if (!status.ok())
    obs::log_warn("record store materialize stopped early",
                  {{"store", name_}, {"error", status.error()}});
  return records;
}

StoreManifest RecordStore::manifest() const {
  StoreManifest m;
  m.name = name_;
  m.committed_records = committed_records_;
  m.committed_bytes = committed_bytes_;
  m.block_count = blocks_.size();
  if (!tail_.empty()) m.tail_hex = util::to_hex(encode_block(tail_));
  m.patches.reserve(patches_.size());
  for (const auto& [index, patch] : patches_) m.patches.emplace_back(index, patch);
  return m;
}

std::unique_ptr<RecordStore> RecordStore::restore(
    StoreOptions options, const StoreManifest& manifest) {
  const auto fail = [&manifest](const std::string& reason)
      -> std::unique_ptr<RecordStore> {
    obs::log_warn("record store restore failed",
                  {{"store", manifest.name}, {"reason", reason}});
    return nullptr;
  };
  if (options.dir.empty()) return fail("no spill directory");

  auto store = std::unique_ptr<RecordStore>(
      new RecordStore(std::move(options), manifest.name, /*fresh=*/false));

  // Rebuild the block table from the index file, validating each entry's
  // own CRC and that offsets tile the segment exactly.
  if (manifest.block_count != 0) {
    std::FILE* idx = std::fopen(store->idx_path().c_str(), "rb");
    if (idx == nullptr) return fail("missing index file");
    std::uint64_t offset = 0;
    for (std::uint64_t i = 0; i < manifest.block_count; ++i) {
      std::uint8_t entry[kIndexEntryBytes];
      if (std::fread(entry, 1, kIndexEntryBytes, idx) != kIndexEntryBytes) {
        std::fclose(idx);
        return fail("short index file");
      }
      if (get_u32le(entry + 20) != crc32(util::ByteView(entry, 20))) {
        std::fclose(idx);
        return fail("index entry crc mismatch");
      }
      Block block;
      block.offset = get_u64le(entry);
      block.bytes = get_u32le(entry + 8);
      block.records = get_u32le(entry + 12);
      block.crc = get_u32le(entry + 16);
      block.spilled = true;
      if (block.offset != offset || block.records == 0) {
        std::fclose(idx);
        return fail("index does not tile the segment");
      }
      offset += block.bytes;
      store->committed_records_ += block.records;
      store->blocks_.push_back(std::move(block));
    }
    std::fclose(idx);
    if (offset != manifest.committed_bytes)
      return fail("segment length disagrees with manifest");
  }
  if (store->committed_records_ != manifest.committed_records)
    return fail("record count disagrees with manifest");
  store->committed_bytes_ = manifest.committed_bytes;
  store->spilled_bytes_ = manifest.committed_bytes;

  // A crash after the checkpoint boundary can leave blocks the manifest
  // never committed; truncate both files back to the boundary so appends
  // continue from exactly the checkpointed state.
  std::error_code ec;
  const auto seg_size = fs::file_size(store->seg_path(), ec);
  if (ec || seg_size < manifest.committed_bytes)
    return fail("segment file shorter than manifest");
  fs::resize_file(store->seg_path(), manifest.committed_bytes, ec);
  if (ec) return fail("cannot truncate segment");
  fs::resize_file(store->idx_path(), manifest.block_count * kIndexEntryBytes,
                  ec);
  if (ec) return fail("cannot truncate index");
  store->seg_ = std::fopen(store->seg_path().c_str(), "ab");
  store->idx_ = std::fopen(store->idx_path().c_str(), "ab");
  if (store->seg_ == nullptr || store->idx_ == nullptr)
    return fail("cannot reopen for append");

  if (!manifest.tail_hex.empty()) {
    const auto bytes = util::from_hex(manifest.tail_hex);
    if (!bytes) return fail("bad tail hex");
    auto decoded = decode_block(bytes.value());
    if (!decoded) return fail("bad tail block: " + decoded.error());
    store->tail_ = std::move(decoded).value();
  }
  for (const auto& [index, patch] : manifest.patches) {
    if (index >= store->committed_records_)
      return fail("patch index out of range");
    store->patches_[index] = patch;
  }
  return store;
}

void RecordStore::remove_files() {
  if (seg_ != nullptr) {
    std::fclose(seg_);
    seg_ = nullptr;
  }
  if (idx_ != nullptr) {
    std::fclose(idx_);
    idx_ = nullptr;
  }
  remove_files(options_, name_);
}

void RecordStore::remove_files(const StoreOptions& options,
                               const std::string& name) {
  if (options.dir.empty()) return;
  std::error_code ec;
  fs::remove(options.dir + "/" + name + ".seg", ec);
  fs::remove(options.dir + "/" + name + ".idx", ec);
}

// ---- external merge sort ----

bool record_less(SortKey key, const scan::ScanRecord& a,
                 const scan::ScanRecord& b) {
  if (key == SortKey::kSendTimeTarget) {
    if (a.send_time != b.send_time) return a.send_time < b.send_time;
    return a.target < b.target;
  }
  return a.target < b.target;
}

std::size_t sort_chunk_records(const StoreOptions& options) {
  if (options.dir.empty() || options.max_resident_bytes == 0)
    return std::numeric_limits<std::size_t>::max();  // one in-RAM run
  // A run chunk holds decoded ScanRecords (heap engine IDs included, a few
  // hundred bytes each); budget/256 keeps the sort's working set near the
  // resident budget without degenerating into thousands of tiny runs.
  return std::max<std::size_t>(options.max_resident_bytes / 256, 1024);
}

std::unique_ptr<RecordStore> merge_sorted_stores(
    const std::vector<const RecordStore*>& sources, SortKey key,
    StoreOptions options, const std::string& name) {
  auto out = std::make_unique<RecordStore>(std::move(options), name);
  std::vector<RecordStore::Cursor> cursors;
  std::vector<scan::ScanRecord> heads(sources.size());
  cursors.reserve(sources.size());
  // Min-heap of source indices keyed by each source's head record. Keys
  // are unique within a scan; the index tie-break keeps the comparator a
  // strict weak order regardless.
  const auto after = [&heads, key](std::size_t a, std::size_t b) {
    if (record_less(key, heads[b], heads[a])) return true;
    if (record_less(key, heads[a], heads[b])) return false;
    return a > b;
  };
  std::vector<std::size_t> heap;
  heap.reserve(sources.size());
  const auto fail = [&](std::size_t source) {
    obs::log_warn("store merge: damaged source",
                  {{"store", sources[source]->name()},
                   {"error", cursors[source].error()}});
    out->remove_files();
    return nullptr;
  };
  for (std::size_t i = 0; i < sources.size(); ++i) {
    cursors.push_back(sources[i]->cursor());
    if (cursors[i].next(heads[i])) {
      heap.push_back(i);
    } else if (!cursors[i].error().empty()) {
      return fail(i);
    }
  }
  std::make_heap(heap.begin(), heap.end(), after);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), after);
    const std::size_t source = heap.back();
    out->append(std::move(heads[source]));
    if (cursors[source].next(heads[source])) {
      std::push_heap(heap.begin(), heap.end(), after);
    } else {
      if (!cursors[source].error().empty()) return fail(source);
      heap.pop_back();
    }
  }
  out->seal();
  return out;
}

std::unique_ptr<RecordStore> sort_stores(
    const std::vector<const RecordStore*>& sources, SortKey key,
    StoreOptions options, const std::string& name,
    std::size_t chunk_records) {
  if (chunk_records == 0) chunk_records = 1;
  std::vector<std::unique_ptr<RecordStore>> runs;
  const auto cleanup = [&runs] {
    for (auto& run : runs) run->remove_files();
  };

  // Pass 1: cut the concatenated sources into sorted runs of at most
  // `chunk_records` records. Keys are unique within a scan, so plain
  // std::sort is deterministic.
  std::vector<scan::ScanRecord> chunk;
  const auto sort_chunk = [&chunk, key] {
    std::sort(chunk.begin(), chunk.end(),
              [key](const scan::ScanRecord& a, const scan::ScanRecord& b) {
                return record_less(key, a, b);
              });
  };
  const auto flush = [&] {
    if (chunk.empty()) return;
    sort_chunk();
    auto run = std::make_unique<RecordStore>(
        options, name + ".run" + std::to_string(runs.size()));
    for (auto& record : chunk) run->append(std::move(record));
    run->seal();
    runs.push_back(std::move(run));
    chunk.clear();
  };
  for (const auto* source : sources) {
    auto cur = source->cursor();
    scan::ScanRecord record;
    while (cur.next(record)) {
      if (chunk.size() >= chunk_records) flush();
      chunk.push_back(std::move(record));
    }
    if (!cur.error().empty()) {
      obs::log_warn("store sort: damaged source",
                    {{"store", source->name()}, {"error", cur.error()}});
      cleanup();
      return nullptr;
    }
  }

  // Everything fit one run: sort it and append straight into the output.
  if (runs.empty()) {
    sort_chunk();
    auto out = std::make_unique<RecordStore>(std::move(options), name);
    for (auto& record : chunk) out->append(std::move(record));
    out->seal();
    return out;
  }
  flush();

  // Pass 2: k-way merge of the runs.
  std::vector<const RecordStore*> run_sources;
  run_sources.reserve(runs.size());
  for (const auto& run : runs) run_sources.push_back(run.get());
  auto out = merge_sorted_stores(run_sources, key, std::move(options), name);
  cleanup();
  return out;
}

// ---- manifest JSON codec ----

using obs::parse_u64_hex;
using obs::u64_hex;

void write_manifest_json(std::string& out, const StoreManifest& manifest) {
  obs::JsonWriter json;
  json.begin_object();
  json.kv("name", manifest.name);
  json.kv("records", u64_hex(manifest.committed_records));
  json.kv("bytes", u64_hex(manifest.committed_bytes));
  json.kv("blocks", u64_hex(manifest.block_count));
  json.kv("tail", manifest.tail_hex);
  json.key("patches").begin_array();
  for (const auto& [index, patch] : manifest.patches) {
    json.begin_object();
    json.kv("index", u64_hex(index));
    json.kv("responses", u64_hex(patch.extra_responses));
    json.key("engines").begin_array();
    for (const auto& engine : patch.extra_engines)
      json.value(engine.to_hex());
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  out += json.str();
}

StoreManifest read_manifest_json(const obs::JsonValue& value) {
  StoreManifest manifest;
  if (const auto* name = value.find("name")) manifest.name = name->as_string();
  manifest.committed_records = parse_u64_hex(value.find("records"));
  manifest.committed_bytes = parse_u64_hex(value.find("bytes"));
  manifest.block_count = parse_u64_hex(value.find("blocks"));
  if (const auto* tail = value.find("tail"))
    manifest.tail_hex = tail->as_string();
  if (const auto* patches = value.find("patches"); patches != nullptr &&
      patches->is_array()) {
    for (const auto& entry : patches->items()) {
      RecordPatch patch;
      patch.extra_responses = parse_u64_hex(entry.find("responses"));
      if (const auto* engines = entry.find("engines");
          engines != nullptr && engines->is_array()) {
        for (const auto& engine : engines->items()) {
          const auto bytes = util::from_hex(engine.as_string());
          if (bytes)
            patch.extra_engines.push_back(snmp::EngineId(bytes.value()));
        }
      }
      manifest.patches.emplace_back(parse_u64_hex(entry.find("index")),
                                    std::move(patch));
    }
  }
  return manifest;
}

}  // namespace snmpv3fp::store
