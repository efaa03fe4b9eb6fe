// Corruption-tolerant cone cache store (DESIGN.md §13): round-trip
// fidelity, byte-exact lookup, and the full recovery ladder — every
// damage class in the corpus (stray tmp, garbled header, version skew,
// truncation, CRC mismatch, malformed payload, duplicate key) must be
// typed under its own counter and degrade to a colder cache, never a
// throw or a wrong record.
#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "cache/cone_cache.h"
#include "netlist/cone_signature.h"
#include "util/crc32.h"

namespace rd {
namespace {

// On-disk layout constants, mirrored from cone_cache.cpp so the tests
// can surgically damage specific fields.  Header: magic[8], version
// u32 @8, record count u32 @12, CRC over the first 16 bytes @16.
constexpr std::size_t kHeaderBytes = 20;
constexpr std::size_t kFrameBytes = 12;
constexpr std::size_t kVersionOffset = 8;
constexpr std::size_t kCountOffset = 12;
constexpr std::size_t kHeaderCrcOffset = 16;

/// A per-test scratch directory, emptied of any leftovers.
std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/rd_cone_cache_" + name;
  ::mkdir(dir.c_str(), 0755);
  if (DIR* scan = ::opendir(dir.c_str())) {
    std::vector<std::string> stale;
    while (const dirent* entry = ::readdir(scan)) {
      const std::string leaf = entry->d_name;
      if (leaf != "." && leaf != "..") stale.push_back(dir + "/" + leaf);
    }
    ::closedir(scan);
    for (const std::string& path : stale) ::unlink(path.c_str());
  }
  return dir;
}

bool file_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::vector<std::uint8_t> out;
  std::FILE* file = std::fopen(path.c_str(), "rb");
  EXPECT_NE(file, nullptr) << path;
  if (file == nullptr) return out;
  std::uint8_t buffer[4096];
  std::size_t n;
  while ((n = std::fread(buffer, 1, sizeof buffer, file)) > 0)
    out.insert(out.end(), buffer, buffer + n);
  std::fclose(file);
  return out;
}

void write_bytes(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  ASSERT_NE(file, nullptr) << path;
  // An empty vector's data() may be null, which fwrite must not see.
  if (!bytes.empty()) {
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), file), bytes.size());
  }
  std::fclose(file);
}

std::uint32_t get_u32(const std::vector<std::uint8_t>& bytes, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(bytes[at + i]) << (8 * i);
  return v;
}

void put_u32(std::vector<std::uint8_t>& bytes, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    bytes[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/// Re-seals the header CRC after a deliberate header edit, so the edit
/// itself (not a CRC side effect) is what the ladder has to judge.
void reseal_header(std::vector<std::uint8_t>& image) {
  put_u32(image, kHeaderCrcOffset, crc32(image.data(), kHeaderCrcOffset));
}

std::vector<std::uint8_t> sample_canonical(std::uint64_t i) {
  return {1, static_cast<std::uint8_t>(i), 2,
          static_cast<std::uint8_t>(i * 7 + 3), 4};
}

ConeRecordData sample_data(std::uint64_t i) {
  ConeRecordData data;
  data.kept_paths = 2 + i;
  data.total_logical = std::to_string(10 + 3 * i);
  data.work = 100 + i;
  data.implication.assignments = 7 * i + 1;
  data.implication.propagations = 3 * i + 2;
  data.implication.conflicts = i;
  data.implication.backward = i + 5;
  data.keys_complete = true;
  for (std::uint64_t k = 0; k < data.kept_paths; ++k) {
    const std::vector<LeadId> segment = {static_cast<LeadId>(i),
                                         static_cast<LeadId>(k)};
    data.keys.append(segment, (k & 1) != 0);
  }
  return data;
}

void expect_same_data(const ConeRecordData& got, const ConeRecordData& want) {
  EXPECT_EQ(got.kept_paths, want.kept_paths);
  EXPECT_EQ(got.total_logical, want.total_logical);
  EXPECT_EQ(got.work, want.work);
  EXPECT_EQ(got.implication.assignments, want.implication.assignments);
  EXPECT_EQ(got.implication.propagations, want.implication.propagations);
  EXPECT_EQ(got.implication.conflicts, want.implication.conflicts);
  EXPECT_EQ(got.implication.backward, want.implication.backward);
  EXPECT_EQ(got.keys_complete, want.keys_complete);
  ASSERT_EQ(got.keys.size(), want.keys.size());
  for (std::size_t k = 0; k < got.keys.size(); ++k)
    EXPECT_EQ(got.keys.key(k), want.keys.key(k));
}

/// Fills `store` with `n` sample records and returns their canonicals.
std::vector<std::vector<std::uint8_t>> seed_store(ConeCacheStore& store,
                                                  std::uint64_t n) {
  std::vector<std::vector<std::uint8_t>> canonicals;
  for (std::uint64_t i = 0; i < n; ++i) {
    canonicals.push_back(sample_canonical(i));
    store.put(cone_signature(canonicals.back()), canonicals.back(),
              sample_data(i));
  }
  return canonicals;
}

TEST(ConeCacheStore, RoundTripPreservesEveryField) {
  const std::string dir = fresh_dir("roundtrip");
  ConeCacheStore writer;
  const auto canonicals = seed_store(writer, 3);
  writer.save(dir);

  ConeCacheStore reader;
  const ConeCacheRecovery recovery = reader.load(dir);
  EXPECT_EQ(recovery.total(), 0u);
  EXPECT_EQ(reader.stats().loaded, 3u);
  for (std::uint64_t i = 0; i < 3; ++i) {
    const auto record =
        reader.find(cone_signature(canonicals[i]), canonicals[i]);
    ASSERT_NE(record, nullptr) << "record " << i;
    EXPECT_TRUE(record->from_disk);
    expect_same_data(record->data, sample_data(i));
  }
}

TEST(ConeCacheStore, FindIsByteExactNotHashTrust) {
  ConeCacheStore store;
  const std::vector<std::uint8_t> canonical = sample_canonical(0);
  const std::uint64_t signature = cone_signature(canonical);
  store.put(signature, canonical, sample_data(0));

  // Same signature, different bytes: a (simulated) hash collision must
  // be a miss, never a wrong verdict.
  std::vector<std::uint8_t> other = canonical;
  other.back() ^= 0xFF;
  EXPECT_EQ(store.find(signature, other), nullptr);
  EXPECT_NE(store.find(signature, canonical), nullptr);
  EXPECT_EQ(store.stats().misses, 1u);
  EXPECT_EQ(store.stats().hits, 1u);
}

TEST(ConeCacheStore, MissingCacheFileIsAColdStartNotDamage) {
  const std::string dir = fresh_dir("cold");
  ConeCacheStore store;
  EXPECT_EQ(store.load(dir).total(), 0u);
  EXPECT_EQ(store.stats().records, 0u);
}

TEST(ConeCacheRecovery, TruncationKeepsWholeLeadingRecords) {
  const std::string dir = fresh_dir("truncate");
  const std::string path = ConeCacheStore::cache_file(dir);
  ConeCacheStore writer;
  const auto canonicals = seed_store(writer, 3);
  writer.save(dir);
  const std::vector<std::uint8_t> image = read_bytes(path);
  ASSERT_GT(image.size(), kHeaderBytes + kFrameBytes);

  // Record boundaries from the frame length fields.
  std::vector<std::size_t> ends;
  std::size_t pos = kHeaderBytes;
  while (pos < image.size()) {
    pos += kFrameBytes + get_u32(image, pos + 4);
    ends.push_back(pos);
  }
  ASSERT_EQ(ends.size(), 3u);

  const std::size_t cuts[] = {kHeaderBytes + 3,  // mid-first-frame
                              ends[0] + 5,       // mid-second-payload
                              ends[1],           // clean after record 2
                              image.size() - 1}; // one byte short
  const std::size_t survivors[] = {0, 1, 2, 2};
  for (std::size_t c = 0; c < 4; ++c) {
    write_bytes(path, std::vector<std::uint8_t>(
                          image.begin(), image.begin() + cuts[c]));
    ConeCacheStore reader;
    ConeCacheRecovery recovery;
    ASSERT_NO_THROW(recovery = reader.load(dir)) << "cut " << cuts[c];
    EXPECT_EQ(recovery.truncated, 1u) << "cut " << cuts[c];
    EXPECT_EQ(recovery.total(), 1u) << "cut " << cuts[c];
    EXPECT_EQ(reader.stats().loaded, survivors[c]) << "cut " << cuts[c];
    for (std::uint64_t i = 0; i < survivors[c]; ++i)
      EXPECT_NE(reader.find(cone_signature(canonicals[i]), canonicals[i]),
                nullptr);
  }
}

TEST(ConeCacheRecovery, ShortOrGarbledHeaderQuarantines) {
  const std::string dir = fresh_dir("badheader");
  const std::string path = ConeCacheStore::cache_file(dir);
  ConeCacheStore writer;
  seed_store(writer, 2);
  writer.save(dir);
  const std::vector<std::uint8_t> image = read_bytes(path);

  // A file shorter than the header, a flipped magic byte, and a flipped
  // record-count byte (breaking the header CRC) are all bad_header.
  const auto damage = [&](std::vector<std::uint8_t> bytes) {
    write_bytes(path, bytes);
    ConeCacheStore reader;
    const ConeCacheRecovery recovery = reader.load(dir);
    EXPECT_EQ(recovery.bad_header, 1u);
    EXPECT_EQ(recovery.quarantined_files, 1u);
    EXPECT_EQ(reader.stats().loaded, 0u);
    EXPECT_FALSE(file_exists(path));
    EXPECT_TRUE(file_exists(path + ".quarantined"));
    ::unlink((path + ".quarantined").c_str());
  };
  damage(std::vector<std::uint8_t>(image.begin(),
                                   image.begin() + kHeaderBytes - 1));
  {
    std::vector<std::uint8_t> bytes = image;
    bytes[0] ^= 0x01;
    damage(bytes);
  }
  {
    std::vector<std::uint8_t> bytes = image;
    bytes[kCountOffset] ^= 0x10;  // CRC no longer matches
    damage(bytes);
  }
}

TEST(ConeCacheRecovery, VersionSkewQuarantines) {
  const std::string dir = fresh_dir("version");
  const std::string path = ConeCacheStore::cache_file(dir);
  ConeCacheStore writer;
  seed_store(writer, 2);
  writer.save(dir);

  std::vector<std::uint8_t> image = read_bytes(path);
  put_u32(image, kVersionOffset, 99);
  reseal_header(image);  // a well-formed file from a future format
  write_bytes(path, image);

  ConeCacheStore reader;
  const ConeCacheRecovery recovery = reader.load(dir);
  EXPECT_EQ(recovery.version_skew, 1u);
  EXPECT_EQ(recovery.bad_header, 0u);
  EXPECT_EQ(recovery.quarantined_files, 1u);
  EXPECT_EQ(reader.stats().loaded, 0u);
  EXPECT_TRUE(file_exists(path + ".quarantined"));
}

TEST(ConeCacheRecovery, FlippedPayloadByteSkipsJustThatRecord) {
  const std::string dir = fresh_dir("crc");
  const std::string path = ConeCacheStore::cache_file(dir);
  ConeCacheStore writer;
  const auto canonicals = seed_store(writer, 3);
  writer.save(dir);

  std::vector<std::uint8_t> image = read_bytes(path);
  // First byte of the second record's payload.
  const std::size_t second =
      kHeaderBytes + kFrameBytes + get_u32(image, kHeaderBytes + 4);
  image[second + kFrameBytes] ^= 0x40;
  write_bytes(path, image);

  ConeCacheStore reader;
  const ConeCacheRecovery recovery = reader.load(dir);
  EXPECT_EQ(recovery.crc_mismatch, 1u);
  EXPECT_EQ(recovery.total(), 1u);
  EXPECT_EQ(reader.stats().loaded, 2u);
  EXPECT_NE(reader.find(cone_signature(canonicals[0]), canonicals[0]), nullptr);
  EXPECT_EQ(reader.find(cone_signature(canonicals[1]), canonicals[1]), nullptr);
  EXPECT_NE(reader.find(cone_signature(canonicals[2]), canonicals[2]), nullptr);
}

TEST(ConeCacheRecovery, StrayTmpFilesAreTornSavesAndRemoved) {
  const std::string dir = fresh_dir("torn");
  ConeCacheStore writer;
  const auto canonicals = seed_store(writer, 1);
  writer.save(dir);
  const std::string stray_a = dir + "/cone_cache.rdc.tmp.999";
  const std::string stray_b = dir + "/cone_cache.rdc.tmp.1000";
  write_bytes(stray_a, {0xDE, 0xAD});
  write_bytes(stray_b, {});

  ConeCacheStore reader;
  const ConeCacheRecovery recovery = reader.load(dir);
  EXPECT_EQ(recovery.torn_tmp, 2u);
  EXPECT_EQ(recovery.total(), 2u);
  EXPECT_FALSE(file_exists(stray_a));
  EXPECT_FALSE(file_exists(stray_b));
  // The committed cache itself is intact.
  EXPECT_NE(reader.find(cone_signature(canonicals[0]), canonicals[0]), nullptr);
}

TEST(ConeCacheRecovery, DuplicateKeyWithinOneFileKeepsTheFirst) {
  const std::string dir = fresh_dir("dup");
  const std::string path = ConeCacheStore::cache_file(dir);
  ConeCacheStore writer;
  const auto canonicals = seed_store(writer, 2);
  writer.save(dir);

  std::vector<std::uint8_t> image = read_bytes(path);
  // Append a byte-for-byte copy of the first record's frame+payload and
  // claim one more record (the writer never emits a key twice, so this
  // is the forged-or-damaged case).
  const std::size_t first_end =
      kHeaderBytes + kFrameBytes + get_u32(image, kHeaderBytes + 4);
  image.insert(image.end(), image.begin() + kHeaderBytes,
               image.begin() + first_end);
  put_u32(image, kCountOffset, 3);
  reseal_header(image);
  write_bytes(path, image);

  ConeCacheStore reader;
  const ConeCacheRecovery recovery = reader.load(dir);
  EXPECT_EQ(recovery.duplicate_key, 1u);
  EXPECT_EQ(recovery.total(), 1u);
  EXPECT_EQ(reader.stats().loaded, 2u);
  const auto record =
      reader.find(cone_signature(canonicals[0]), canonicals[0]);
  ASSERT_NE(record, nullptr);
  expect_same_data(record->data, sample_data(0));
}

TEST(ConeCacheRecovery, LostFramingStopsTheScanTyped) {
  const std::string dir = fresh_dir("framing");
  const std::string path = ConeCacheStore::cache_file(dir);
  ConeCacheStore writer;
  const auto canonicals = seed_store(writer, 3);
  writer.save(dir);

  std::vector<std::uint8_t> image = read_bytes(path);
  const std::size_t second =
      kHeaderBytes + kFrameBytes + get_u32(image, kHeaderBytes + 4);
  put_u32(image, second, 0xDEADBEEF);  // second frame's magic
  write_bytes(path, image);

  ConeCacheStore reader;
  const ConeCacheRecovery recovery = reader.load(dir);
  EXPECT_EQ(recovery.malformed_record, 1u);
  // Framing lost, not truncation — nothing downstream is trusted.
  EXPECT_EQ(recovery.truncated, 0u);
  EXPECT_EQ(recovery.total(), 1u);
  EXPECT_EQ(reader.stats().loaded, 1u);
  EXPECT_NE(reader.find(cone_signature(canonicals[0]), canonicals[0]), nullptr);
}

TEST(ConeCacheRecovery, WellFramedGarbagePayloadIsMalformed) {
  const std::string dir = fresh_dir("malformed");
  const std::string path = ConeCacheStore::cache_file(dir);

  // Hand-built file: valid header claiming one record, valid frame with
  // a correct CRC — over a payload no deserializer can accept.
  const std::vector<std::uint8_t> payload = {0x00};
  std::vector<std::uint8_t> image = {'R', 'D', 'C', 'C', 'A', 'C', 'H', 'E'};
  image.resize(kHeaderBytes, 0);
  put_u32(image, kVersionOffset, 1);
  put_u32(image, kCountOffset, 1);
  reseal_header(image);
  image.resize(kHeaderBytes + kFrameBytes, 0);
  put_u32(image, kHeaderBytes, 0x52434452u);  // record magic
  put_u32(image, kHeaderBytes + 4, static_cast<std::uint32_t>(payload.size()));
  put_u32(image, kHeaderBytes + 8, crc32(payload.data(), payload.size()));
  image.insert(image.end(), payload.begin(), payload.end());
  write_bytes(path, image);

  ConeCacheStore reader;
  const ConeCacheRecovery recovery = reader.load(dir);
  EXPECT_EQ(recovery.malformed_record, 1u);
  EXPECT_EQ(recovery.crc_mismatch, 0u);
  EXPECT_EQ(reader.stats().loaded, 0u);
}

TEST(ConeCacheRecovery, GarbageFileIsBadHeader) {
  const std::string dir = fresh_dir("garbage");
  const std::string path = ConeCacheStore::cache_file(dir);
  const std::string text = "this is not a cone cache at all";
  write_bytes(path, std::vector<std::uint8_t>(text.begin(), text.end()));

  ConeCacheStore reader;
  const ConeCacheRecovery recovery = reader.load(dir);
  EXPECT_EQ(recovery.bad_header, 1u);
  EXPECT_EQ(recovery.quarantined_files, 1u);
  EXPECT_TRUE(file_exists(path + ".quarantined"));
}

TEST(ConeCacheStore, InjectedTruncationRecoversOnLoad) {
  const std::string dir = fresh_dir("inject_trunc");
  ConeCacheStore writer;
  seed_store(writer, 2);
  CacheFaultInjection inject;
  inject.truncate_after_bytes = kHeaderBytes + 5;  // mid-first-frame
  writer.save(dir, inject);

  ConeCacheStore reader;
  const ConeCacheRecovery recovery = reader.load(dir);
  EXPECT_EQ(recovery.truncated, 1u);
  EXPECT_EQ(reader.stats().loaded, 0u);
}

TEST(ConeCacheStore, InjectedBitFlipRecoversOnLoad) {
  const std::string dir = fresh_dir("inject_flip");
  ConeCacheStore writer;
  seed_store(writer, 1);
  CacheFaultInjection inject;
  // First bit of the sole record's payload: a medium error inside data,
  // caught by the record CRC, not the header ladder.
  inject.flip_bit = (kHeaderBytes + kFrameBytes) * 8 + 1;
  writer.save(dir, inject);

  ConeCacheStore reader;
  const ConeCacheRecovery recovery = reader.load(dir);
  EXPECT_EQ(recovery.crc_mismatch, 1u);
  EXPECT_EQ(recovery.total(), 1u);
  EXPECT_EQ(reader.stats().loaded, 0u);
}

TEST(ConeCacheStore, StaleLoadedCountsNeverMatchedDiskRecords) {
  const std::string dir = fresh_dir("stale");
  ConeCacheStore writer;
  const auto canonicals = seed_store(writer, 2);
  writer.save(dir);

  ConeCacheStore reader;
  reader.load(dir);
  EXPECT_EQ(reader.stats().stale_loaded, 2u);
  reader.find(cone_signature(canonicals[0]), canonicals[0]);
  // The record whose cone was "edited away" never matches again.
  EXPECT_EQ(reader.stats().stale_loaded, 1u);
}

TEST(ConeCacheStore, EvictionPrefersNeverUsedLoadedRecords) {
  const std::string dir = fresh_dir("evict");
  ConeCacheStore writer;
  const auto canonicals = seed_store(writer, 2);
  writer.save(dir);

  ConeCacheStore reader(/*max_records=*/2);
  reader.load(dir);
  // Touch record 0; record 1 stays never-used and is the victim when a
  // fresh record pushes past the cap.
  ASSERT_NE(reader.find(cone_signature(canonicals[0]), canonicals[0]), nullptr);
  const std::vector<std::uint8_t> fresh = sample_canonical(7);
  reader.put(cone_signature(fresh), fresh, sample_data(7));

  EXPECT_EQ(reader.stats().records, 2u);
  EXPECT_EQ(reader.stats().evictions, 1u);
  EXPECT_NE(reader.find(cone_signature(canonicals[0]), canonicals[0]), nullptr);
  EXPECT_EQ(reader.find(cone_signature(canonicals[1]), canonicals[1]), nullptr);
  EXPECT_NE(reader.find(cone_signature(fresh), fresh), nullptr);
}

TEST(ConeCacheStore, PutReplacesInPlaceWithoutGrowth) {
  ConeCacheStore store(/*max_records=*/4);
  const std::vector<std::uint8_t> canonical = sample_canonical(0);
  const std::uint64_t signature = cone_signature(canonical);
  store.put(signature, canonical, sample_data(0));
  store.put(signature, canonical, sample_data(5));  // richer re-run
  EXPECT_EQ(store.stats().records, 1u);
  const auto record = store.find(signature, canonical);
  ASSERT_NE(record, nullptr);
  expect_same_data(record->data, sample_data(5));
}

TEST(ConeCacheStore, ConcurrentPutsAndFindsAreSafe) {
  ConeCacheStore store;
  std::vector<std::vector<std::uint8_t>> canonicals;
  for (std::uint64_t i = 0; i < 8; ++i)
    canonicals.push_back(sample_canonical(i));

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&store, &canonicals, t] {
      for (int round = 0; round < 200; ++round) {
        const std::uint64_t i = (t + round) % canonicals.size();
        const std::uint64_t signature = cone_signature(canonicals[i]);
        if ((round & 1) != 0) {
          store.put(signature, canonicals[i], sample_data(i));
        } else if (auto record = store.find(signature, canonicals[i])) {
          EXPECT_EQ(record->data.kept_paths, sample_data(i).kept_paths);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_LE(store.stats().records, canonicals.size());
}

}  // namespace
}  // namespace rd
