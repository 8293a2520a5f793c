// Generation-numbered checkpoint storage: atomic rotation, newest-first
// loading, and the corrupt-generation fallback the resume path depends on
// (a damaged newest checkpoint must yield the previous generation, never
// garbage and never a crash).

#include "casvm/ckpt/store.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "casvm/support/error.hpp"

namespace fs = std::filesystem;

namespace casvm::ckpt {
namespace {

std::vector<std::byte> toBytes(const std::string& s) {
  std::vector<std::byte> out(s.size());
  std::memcpy(out.data(), s.data(), s.size());
  return out;
}

std::string freshDir(const std::string& leaf) {
  const std::string dir = ::testing::TempDir() + "/" + leaf;
  fs::remove_all(dir);
  return dir;
}

/// Path of the newest generation file of `name` in `dir`.
std::string newestGenerationPath(const std::string& dir,
                                 const std::string& name) {
  std::string best;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string f = entry.path().filename().string();
    if (f.rfind(name + ".g", 0) == 0 && f > best) best = f;
  }
  EXPECT_FALSE(best.empty());
  return dir + "/" + best;
}

void flipByteInFile(const std::string& path, std::size_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.get(c);
  f.seekp(static_cast<std::streamoff>(offset));
  f.put(static_cast<char>(c ^ 0x40));
}

TEST(CheckpointStoreTest, CreatesDirectoryAndRoundTrips) {
  const std::string dir = freshDir("store_roundtrip") + "/nested/deeper";
  CheckpointStore store(dir);
  EXPECT_TRUE(fs::is_directory(dir));
  store.save("solver.r0", Kind::SolverState, toBytes("state v1"));
  const auto back = store.load("solver.r0", Kind::SolverState);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, toBytes("state v1"));
}

TEST(CheckpointStoreTest, MissingNameLoadsNothing) {
  CheckpointStore store(freshDir("store_missing"));
  EXPECT_FALSE(store.load("no-such", Kind::Meta).has_value());
  EXPECT_FALSE(store.contains("no-such"));
  EXPECT_EQ(store.corruptSkipped(), 0u);
}

TEST(CheckpointStoreTest, NewestGenerationWinsAndOldOnesArePruned) {
  const std::string dir = freshDir("store_rotate");
  CheckpointStore store(dir);
  for (int v = 1; v <= 5; ++v) {
    store.save("part.r1", Kind::Partition,
               toBytes("version " + std::to_string(v)));
  }
  const auto back = store.load("part.r1", Kind::Partition);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, toBytes("version 5"));
  // Only the newest kKeepGenerations files survive the rotation.
  std::size_t files = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    (void)e;
    ++files;
  }
  EXPECT_EQ(files, CheckpointStore::kKeepGenerations);
}

TEST(CheckpointStoreTest, CorruptNewestFallsBackToPreviousGeneration) {
  const std::string dir = freshDir("store_corrupt");
  CheckpointStore store(dir);
  store.save("solver.r2", Kind::SolverState, toBytes("older good state"));
  store.save("solver.r2", Kind::SolverState, toBytes("newer state"));
  // Damage the payload of the newest generation on disk.
  flipByteInFile(newestGenerationPath(dir, "solver.r2"), 30);
  const auto back = store.load("solver.r2", Kind::SolverState);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, toBytes("older good state"));
  EXPECT_EQ(store.corruptSkipped(), 1u);
}

TEST(CheckpointStoreTest, TruncatedNewestFallsBackToPreviousGeneration) {
  const std::string dir = freshDir("store_truncated");
  CheckpointStore store(dir);
  store.save("model.r0", Kind::SubModel, toBytes("older model"));
  store.save("model.r0", Kind::SubModel, toBytes("newer model"));
  const std::string newest = newestGenerationPath(dir, "model.r0");
  fs::resize_file(newest, fs::file_size(newest) / 2);
  const auto back = store.load("model.r0", Kind::SubModel);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, toBytes("older model"));
  EXPECT_GE(store.corruptSkipped(), 1u);
}

TEST(CheckpointStoreTest, EveryGenerationCorruptYieldsNullopt) {
  const std::string dir = freshDir("store_allbad");
  CheckpointStore store(dir);
  store.save("meta", Kind::Meta, toBytes("a"));
  store.save("meta", Kind::Meta, toBytes("b"));
  for (const auto& e : fs::directory_iterator(dir)) {
    fs::resize_file(e.path(), 3);  // destroy even the header
  }
  EXPECT_FALSE(store.load("meta", Kind::Meta).has_value());
  EXPECT_EQ(store.corruptSkipped(), 2u);
}

TEST(CheckpointStoreTest, KindMismatchIsNeverTrusted) {
  CheckpointStore store(freshDir("store_kind"));
  store.save("thing", Kind::Partition, toBytes("partition bytes"));
  EXPECT_FALSE(store.load("thing", Kind::SolverState).has_value());
  EXPECT_TRUE(store.load("thing", Kind::Partition).has_value());
}

TEST(CheckpointStoreTest, SimilarNamesDoNotCollide) {
  CheckpointStore store(freshDir("store_names"));
  store.save("solver.r1", Kind::SolverState, toBytes("rank one"));
  store.save("solver.r10", Kind::SolverState, toBytes("rank ten"));
  EXPECT_EQ(*store.load("solver.r1", Kind::SolverState), toBytes("rank one"));
  EXPECT_EQ(*store.load("solver.r10", Kind::SolverState),
            toBytes("rank ten"));
}

TEST(CheckpointStoreTest, RemoveDeletesEveryGeneration) {
  CheckpointStore store(freshDir("store_remove"));
  store.save("solver.r0", Kind::SolverState, toBytes("a"));
  store.save("solver.r0", Kind::SolverState, toBytes("b"));
  EXPECT_TRUE(store.contains("solver.r0"));
  store.remove("solver.r0");
  EXPECT_FALSE(store.contains("solver.r0"));
  EXPECT_FALSE(store.load("solver.r0", Kind::SolverState).has_value());
}

TEST(CheckpointStoreTest, FreshRunSeesOnlyItsOwnGenerations) {
  CheckpointStore store(freshDir("store_fresh_run"));
  store.save("solver.r0", Kind::SolverState, toBytes("earlier run"));

  store.beginRun(/*resume=*/false);
  EXPECT_FALSE(store.load("solver.r0", Kind::SolverState).has_value());
  EXPECT_TRUE(store.loadGenerations("solver.r0", Kind::SolverState).empty());
  EXPECT_FALSE(store.contains("solver.r0"));
  store.save("solver.r0", Kind::SolverState, toBytes("this run"));
  EXPECT_EQ(store.load("solver.r0", Kind::SolverState), toBytes("this run"));
  EXPECT_EQ(store.loadGenerations("solver.r0", Kind::SolverState).size(), 1u);

  // A name removed mid-run numbers its next save above the hidden ones.
  store.remove("solver.r0");
  store.save("solver.r0", Kind::SolverState, toBytes("after remove"));
  EXPECT_EQ(store.load("solver.r0", Kind::SolverState),
            toBytes("after remove"));

  // The next fresh run hides this run's state; a resumed run sees it.
  store.save("meta", Kind::Meta, toBytes("this run's meta"));
  store.beginRun(/*resume=*/false);
  EXPECT_FALSE(store.load("meta", Kind::Meta).has_value());
  store.beginRun(/*resume=*/true);
  EXPECT_EQ(store.load("meta", Kind::Meta), toBytes("this run's meta"));
}

TEST(CheckpointStoreTest, NamesWithSlashesAreRejected) {
  CheckpointStore store(freshDir("store_slash"));
  EXPECT_THROW(store.save("../escape", Kind::Meta, {}), Error);
}

}  // namespace
}  // namespace casvm::ckpt
