// Tests for the namespace: paths, tree operations, replay determinism,
// batch replay under mutation storms, image round trips, duplicate
// suppression, and the block map.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "fsns/blockmap.hpp"
#include "fsns/path.hpp"
#include "fsns/tree.hpp"
#include "test_util.hpp"

namespace mams::fsns {

/// The storage sizes Tree keeps private, for the churn test.
struct TreeStorageProbe {
  static constexpr std::size_t kSlotsPerChunk = Tree::kSlotsPerChunk;
  static std::size_t SlotsUsed(const Tree& tree) { return tree.slots_used_; }
  static std::size_t SlotCapacity(const Tree& tree) {
    return tree.chunks_.size() * Tree::kSlotsPerChunk;
  }
  static std::size_t IdIndexCapacity(const Tree& tree) {
    return tree.by_id_.capacity();
  }
};

namespace {

using journal::LogRecord;
using journal::OpCode;
using testutil::Rec;

// --- paths -----------------------------------------------------------------

TEST(PathTest, Validity) {
  EXPECT_TRUE(IsValidPath("/"));
  EXPECT_TRUE(IsValidPath("/a"));
  EXPECT_TRUE(IsValidPath("/a/b/c"));
  EXPECT_FALSE(IsValidPath(""));
  EXPECT_FALSE(IsValidPath("a/b"));
  EXPECT_FALSE(IsValidPath("/a/"));
  EXPECT_FALSE(IsValidPath("/a//b"));
  EXPECT_FALSE(IsValidPath("/a/./b"));
  EXPECT_FALSE(IsValidPath("/a/../b"));
}

using Parts = std::vector<std::string_view>;

/// The components PathComponents yields for `path`, in order.
Parts Components(std::string_view path) {
  Parts parts;
  for (std::string_view comp : PathComponents(path)) parts.push_back(comp);
  return parts;
}

TEST(PathTest, SplitAndJoin) {
  EXPECT_EQ(Components("/a/b/c"), (Parts{"a", "b", "c"}));
  EXPECT_TRUE(Components("/").empty());
  EXPECT_EQ(JoinPath("/a", "b"), "/a/b");
  EXPECT_EQ(JoinPath("/", "b"), "/b");
}

TEST(PathTest, ParentAndBase) {
  EXPECT_EQ(ParentPath("/a/b/c"), "/a/b");
  EXPECT_EQ(ParentPath("/a"), "/");
  EXPECT_EQ(ParentPath("/"), "");
  EXPECT_EQ(BaseName("/a/b/c"), "c");
  EXPECT_EQ(BaseName("/"), "");
}

TEST(PathTest, PrefixRelation) {
  EXPECT_TRUE(IsPrefixPath("/a", "/a"));
  EXPECT_TRUE(IsPrefixPath("/a", "/a/b"));
  EXPECT_FALSE(IsPrefixPath("/a", "/ab"));
  EXPECT_TRUE(IsPrefixPath("/", "/anything"));
}

TEST(PathTest, SplitEdgeCases) {
  EXPECT_TRUE(Components("/").empty());
  EXPECT_TRUE(Components("").empty());
  EXPECT_EQ(Components("/a"), (Parts{"a"}));
  // Inputs IsValidPath rejects still split sanely: empty components from
  // trailing or repeated '/' are skipped, never yielded.
  EXPECT_EQ(Components("/a/b/"), (Parts{"a", "b"}));
  EXPECT_EQ(Components("/a//b///c"), (Parts{"a", "b", "c"}));
  EXPECT_TRUE(Components("///").empty());
}

TEST(PathTest, ComponentsCursorMatchesSplit) {
  for (std::string_view path :
       {"/", "/a", "/a/b/c", "/deep/er/and/deep/er", "/a//b/", "///"}) {
    // Every component aliases the original buffer (zero-copy guarantee).
    for (std::string_view comp : Components(path)) {
      EXPECT_GE(comp.data(), path.data());
      EXPECT_LE(comp.data() + comp.size(), path.data() + path.size());
    }
  }
  EXPECT_EQ(Components("/deep/er/and/deep/er"),
            (Parts{"deep", "er", "and", "deep", "er"}));
  EXPECT_EQ(Components("/a//b/"), (Parts{"a", "b"}));
}

TEST(PathTest, ComponentsPrefixLength) {
  const std::string_view path = "/a/bb/ccc";
  std::vector<std::size_t> prefixes;
  for (auto it = PathComponents(path).begin();
       it != PathComponents(path).end(); ++it) {
    prefixes.push_back(it.prefix_length());
  }
  ASSERT_EQ(prefixes.size(), 3u);
  EXPECT_EQ(path.substr(0, prefixes[0]), "/a");
  EXPECT_EQ(path.substr(0, prefixes[1]), "/a/bb");
  EXPECT_EQ(path.substr(0, prefixes[2]), "/a/bb/ccc");
}

TEST(PathTest, ParentDirAliasesInput) {
  const std::string_view path = "/a/b/c";
  EXPECT_EQ(ParentDir(path), "/a/b");
  EXPECT_EQ(ParentDir(path).data(), path.data());  // no allocation
  EXPECT_EQ(ParentDir("/a"), "/");
  EXPECT_EQ(ParentDir("/"), "");
  EXPECT_EQ(ParentDir(""), "");
}

// --- tree basics -------------------------------------------------------------

class TreeTest : public ::testing::Test {
 protected:
  ClientOpId Op() { return {.client_id = 1, .op_seq = ++seq_}; }
  std::uint64_t seq_ = 0;
  Tree tree_;
};

TEST_F(TreeTest, CreateAndStatFile) {
  ASSERT_TRUE(tree_.Execute(Rec(OpCode::kMkdir, "/dir", 1, Op())).ok());
  ASSERT_TRUE(tree_.Create("/dir/f", 3, 2, Op()).ok());
  auto info = tree_.GetFileInfo("/dir/f");
  ASSERT_TRUE(info.ok());
  EXPECT_FALSE(info.value().is_dir);
  EXPECT_EQ(info.value().replication, 3u);
  EXPECT_EQ(info.value().mtime, 2);
  EXPECT_FALSE(info.value().complete);
  EXPECT_EQ(tree_.file_count(), 1u);
}

TEST_F(TreeTest, CreateMaterializesMissingParents) {
  // HDFS create() semantics: ancestors appear automatically (also required
  // for hash-partitioned groups that own a file but not its parent entry).
  auto r = tree_.Create("/missing/deep/f", 1, 1, Op());
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(tree_.Exists("/missing/deep"));
  EXPECT_TRUE(tree_.GetFileInfo("/missing/deep").value().is_dir);
}

TEST_F(TreeTest, CreateFailsOnDuplicate) {
  ASSERT_TRUE(tree_.Create("/f", 1, 1, Op()).ok());
  auto r = tree_.Create("/f", 1, 2, Op());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kAlreadyExists);
}

TEST_F(TreeTest, CreateUnderFileFails) {
  ASSERT_TRUE(tree_.Create("/f", 1, 1, Op()).ok());
  auto r = tree_.Create("/f/g", 1, 2, Op());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(TreeTest, MkdirCreatesAncestors) {
  ASSERT_TRUE(tree_.Execute(Rec(OpCode::kMkdir, "/a/b/c", 5, Op())).ok());
  EXPECT_TRUE(tree_.Exists("/a"));
  EXPECT_TRUE(tree_.Exists("/a/b"));
  EXPECT_TRUE(tree_.Exists("/a/b/c"));
  auto info = tree_.GetFileInfo("/a/b");
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info.value().is_dir);
}

TEST_F(TreeTest, MkdirOverFileFails) {
  ASSERT_TRUE(tree_.Create("/f", 1, 1, Op()).ok());
  EXPECT_FALSE(tree_.Execute(Rec(OpCode::kMkdir, "/f", 2, Op())).ok());
  EXPECT_FALSE(tree_.Execute(Rec(OpCode::kMkdir, "/f/sub", 2, Op())).ok());
}

TEST_F(TreeTest, DeleteRemovesSubtreeRecursively) {
  ASSERT_TRUE(tree_.Execute(Rec(OpCode::kMkdir, "/a/b", 1, Op())).ok());
  ASSERT_TRUE(tree_.Create("/a/b/f1", 1, 1, Op()).ok());
  ASSERT_TRUE(tree_.Create("/a/b/f2", 1, 1, Op()).ok());
  const auto before = tree_.inode_count();
  ASSERT_TRUE(tree_.Execute(Rec(OpCode::kDelete, "/a", 2, Op())).ok());
  EXPECT_FALSE(tree_.Exists("/a"));
  EXPECT_FALSE(tree_.Exists("/a/b/f1"));
  EXPECT_EQ(tree_.inode_count(), before - 4);
  EXPECT_EQ(tree_.file_count(), 0u);
}

TEST_F(TreeTest, DeleteRootRejected) {
  auto r = tree_.Execute(Rec(OpCode::kDelete, "/", 1, Op()));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(TreeTest, RenameMovesSubtree) {
  ASSERT_TRUE(tree_.Execute(Rec(OpCode::kMkdir, "/src/deep", 1, Op())).ok());
  ASSERT_TRUE(tree_.Create("/src/deep/f", 1, 1, Op()).ok());
  ASSERT_TRUE(tree_.Execute(Rec(OpCode::kMkdir, "/dst", 1, Op())).ok());
  ASSERT_TRUE(
      tree_.Execute(Rec(OpCode::kRename, "/src", 2, Op(), "/dst/moved")).ok());
  EXPECT_FALSE(tree_.Exists("/src"));
  EXPECT_TRUE(tree_.Exists("/dst/moved/deep/f"));
}

TEST_F(TreeTest, RenameUnderItselfRejected) {
  ASSERT_TRUE(tree_.Execute(Rec(OpCode::kMkdir, "/a/b", 1, Op())).ok());
  auto r = tree_.Execute(Rec(OpCode::kRename, "/a", 2, Op(), "/a/b/c"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(TreeTest, RenameOntoExistingRejected) {
  ASSERT_TRUE(tree_.Create("/a", 1, 1, Op()).ok());
  ASSERT_TRUE(tree_.Create("/b", 1, 1, Op()).ok());
  auto r = tree_.Execute(Rec(OpCode::kRename, "/a", 2, Op(), "/b"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kAlreadyExists);
}

TEST_F(TreeTest, ListDirSortedNames) {
  ASSERT_TRUE(tree_.Execute(Rec(OpCode::kMkdir, "/d", 1, Op())).ok());
  for (const char* n : {"zebra", "alpha", "mid"}) {
    ASSERT_TRUE(tree_.Create(std::string("/d/") + n, 1, 1, Op()).ok());
  }
  auto names = tree_.ListDir("/d");
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names.value(),
            (std::vector<std::string>{"alpha", "mid", "zebra"}));
}

TEST_F(TreeTest, AddBlockAllocatesMonotonicIds) {
  ASSERT_TRUE(tree_.Create("/f", 1, 1, Op()).ok());
  auto r1 = tree_.Execute(Rec(OpCode::kAddBlock, "/f", 2, Op()));
  auto r2 = tree_.Execute(Rec(OpCode::kAddBlock, "/f", 3, Op()));
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_LT(r1.value().block, r2.value().block);
  auto info = tree_.GetFileInfo("/f");
  EXPECT_EQ(info.value().block_count, 2u);
}

TEST_F(TreeTest, CompleteFileMarksClosed) {
  ASSERT_TRUE(tree_.Create("/f", 1, 1, Op()).ok());
  ASSERT_TRUE(tree_.Execute(Rec(OpCode::kCompleteFile, "/f", 2, Op())).ok());
  EXPECT_TRUE(tree_.GetFileInfo("/f").value().complete);
}

TEST_F(TreeTest, SetReplicationOnDirectoryFails) {
  ASSERT_TRUE(tree_.Execute(Rec(OpCode::kMkdir, "/d", 1, Op())).ok());
  EXPECT_FALSE(
      tree_.Execute(Rec(OpCode::kSetReplication, "/d", 2, Op(), {}, 5)).ok());
}

// --- duplicate suppression ----------------------------------------------------

TEST_F(TreeTest, ResentOperationIsSuppressed) {
  // Servers ask IsDuplicate before executing a request and answer a resend
  // of an applied op without running it again.
  ClientOpId id{.client_id = 7, .op_seq = 1};
  EXPECT_FALSE(tree_.IsDuplicate(id));
  auto rec = tree_.Create("/f", 1, 1, id);
  ASSERT_TRUE(rec.ok());
  EXPECT_TRUE(tree_.IsDuplicate(id));  // resend of the same op
  EXPECT_FALSE(tree_.IsDuplicate({.client_id = 7, .op_seq = 2}));
  EXPECT_FALSE(tree_.IsDuplicate({.client_id = 8, .op_seq = 1}));
  // A replica that replays the record answers the same resend.
  Tree replica;
  ASSERT_TRUE(replica.Apply(rec.value()).ok());
  EXPECT_TRUE(replica.IsDuplicate(id));
}

TEST_F(TreeTest, ExecuteRefusesNonClientOps) {
  // Shard and rename records are server bookkeeping: they enter a tree
  // only through Apply, never as an executed client op.
  ASSERT_TRUE(tree_.Create("/f", 1, 1, Op()).ok());
  const ClientOpId id = Op();
  auto r = tree_.Execute(Rec(OpCode::kShardErase, "/f", 2, id));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(tree_.Exists("/f"));
  EXPECT_FALSE(tree_.IsDuplicate(id));
}

TEST_F(TreeTest, AnonymousClientNeverDeduped) {
  ClientOpId anon{};  // client_id 0
  ASSERT_TRUE(tree_.Execute(Rec(OpCode::kMkdir, "/d", 1, anon)).ok());
  // mkdirs is naturally idempotent
  ASSERT_TRUE(tree_.Execute(Rec(OpCode::kMkdir, "/d", 2, anon)).ok());
  EXPECT_FALSE(tree_.IsDuplicate(anon));
}

TEST_F(TreeTest, FailedOpIsNotRemembered) {
  ClientOpId id{.client_id = 7, .op_seq = 1};
  ASSERT_FALSE(tree_.Execute(Rec(OpCode::kAddBlock, "/missing/f", 1, id)).ok());
  EXPECT_FALSE(tree_.IsDuplicate(id));  // retry may re-execute
}

// --- replay & fingerprints ----------------------------------------------------

TEST_F(TreeTest, ReplayReproducesFingerprint) {
  std::vector<LogRecord> log;
  auto run = [&](Result<LogRecord> r) {
    ASSERT_TRUE(r.ok());
    LogRecord rec = std::move(r).value();
    rec.txid = static_cast<TxId>(log.size() + 1);
    tree_.set_last_txid(rec.txid);
    log.push_back(rec);
  };
  run(tree_.Execute(Rec(OpCode::kMkdir, "/data/set1", 1, Op())));
  run(tree_.Create("/data/set1/a", 2, 2, Op()));
  run(tree_.Execute(Rec(OpCode::kAddBlock, "/data/set1/a", 3, Op())));
  run(tree_.Execute(Rec(OpCode::kCompleteFile, "/data/set1/a", 4, Op())));
  run(tree_.Execute(
      Rec(OpCode::kRename, "/data/set1/a", 5, Op(), "/data/set1/b")));
  run(tree_.Create("/data/set1/c", 1, 6, Op()));
  run(tree_.Execute(Rec(OpCode::kDelete, "/data/set1/c", 7, Op())));

  Tree replica;
  for (const auto& rec : log) ASSERT_TRUE(replica.Apply(rec).ok());
  EXPECT_EQ(replica.Fingerprint(), tree_.Fingerprint());
  EXPECT_EQ(replica.last_txid(), tree_.last_txid());
}

TEST_F(TreeTest, ReplayIsIdempotentPerTxid) {
  LogRecord rec;
  rec.txid = 1;
  rec.op = OpCode::kMkdir;
  rec.path = "/d";
  Tree replica;
  ASSERT_TRUE(replica.Apply(rec).ok());
  const auto fp = replica.Fingerprint();
  ASSERT_TRUE(replica.Apply(rec).ok());  // duplicate flush after failover
  EXPECT_EQ(replica.Fingerprint(), fp);
}

TEST_F(TreeTest, ReplayedLiveInodeIdIsNotLinkedTwice) {
  // A replica replaying a sabotaged history (the checker's sn_dedup
  // mutation re-applies old records) can be handed an inode id that is
  // already live. Reusing it here would make "/c" its own child, and every
  // later walk of the tree would loop.
  ASSERT_TRUE(tree_.Execute(Rec(OpCode::kMkdir, "/c", 1, Op())).ok());
  const InodeId c = tree_.FindInode("/c")->id;
  LogRecord rec;
  rec.op = OpCode::kMkdir;
  rec.path = "/c/d";
  rec.inode_ids = {c};
  ASSERT_TRUE(tree_.Apply(rec).ok());
  const Inode* d = tree_.FindInode("/c/d");
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->id, c);
  EXPECT_EQ(tree_.FindInode("/c/d/d"), nullptr);
}

TEST_F(TreeTest, ReplayDivergenceIsInternalError) {
  LogRecord rec;
  rec.txid = 1;
  rec.op = OpCode::kAddBlock;
  rec.path = "/missing/f";  // never succeeds on an empty tree
  rec.block = 1;
  Tree replica;
  auto s = replica.Apply(rec);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInternal);
}

TEST_F(TreeTest, ImageRoundTripPreservesEverything) {
  ASSERT_TRUE(tree_.Execute(Rec(OpCode::kMkdir, "/x/y", 1, Op())).ok());
  ASSERT_TRUE(tree_.Create("/x/y/f", 2, 2, Op()).ok());
  ASSERT_TRUE(tree_.Execute(Rec(OpCode::kAddBlock, "/x/y/f", 3, Op())).ok());
  tree_.set_last_txid(17);

  const auto bytes = tree_.SaveImage();
  Tree loaded;
  ASSERT_TRUE(loaded.LoadImage(bytes).ok());
  EXPECT_EQ(loaded.Fingerprint(), tree_.Fingerprint());
  EXPECT_EQ(loaded.last_txid(), 17u);
  EXPECT_EQ(loaded.file_count(), 1u);
  // Post-load mutations allocate fresh ids that do not collide.
  ClientOpId id{.client_id = 2, .op_seq = 1};
  ASSERT_TRUE(loaded.Create("/x/y/g", 1, 9, id).ok());
  EXPECT_NE(loaded.FindInode("/x/y/g")->id, loaded.FindInode("/x/y/f")->id);
}

TEST_F(TreeTest, ImageChecksumDetectsCorruption) {
  ASSERT_TRUE(tree_.Execute(Rec(OpCode::kMkdir, "/d", 1, Op())).ok());
  auto bytes = tree_.SaveImage();
  bytes[bytes.size() / 2] ^= 1;
  Tree loaded;
  EXPECT_EQ(loaded.LoadImage(bytes).code(), StatusCode::kCorruption);
}

TEST_F(TreeTest, ResetReturnsToEmptyRoot) {
  ASSERT_TRUE(tree_.Execute(Rec(OpCode::kMkdir, "/d", 1, Op())).ok());
  tree_.Reset();
  EXPECT_EQ(tree_.inode_count(), 1u);
  EXPECT_FALSE(tree_.Exists("/d"));
  EXPECT_EQ(tree_.last_txid(), 0u);
}

// --- one hashed child index per directory ------------------------------------

/// `count` sibling names in a seeded random order, so the child index's
/// hash order, the insertion order and the sorted order all differ.
std::vector<std::string> ShuffledNames(int count, std::uint64_t seed) {
  std::vector<std::string> names;
  for (int i = 0; i < count; ++i) names.push_back("n" + std::to_string(i));
  Rng rng(seed);
  for (std::size_t i = names.size(); i > 1; --i) {
    std::swap(names[i - 1], names[rng.Below(i)]);
  }
  return names;
}

std::vector<std::string> Sorted(std::vector<std::string> names) {
  std::sort(names.begin(), names.end());
  return names;
}

TEST_F(TreeTest, SiblingsListSortedThroughCreateRenameAndDelete) {
  std::vector<std::string> in_d = ShuffledNames(64, 5);
  for (const std::string& n : in_d) {
    ASSERT_TRUE(tree_.Create("/d/" + n, 1, 1, Op()).ok());
  }
  ASSERT_TRUE(tree_.Execute(Rec(OpCode::kMkdir, "/e", 1, Op())).ok());
  for (const std::string& n : ShuffledNames(16, 6)) {
    ASSERT_TRUE(tree_.Create("/e/m" + n, 1, 1, Op()).ok());
  }
  auto expect_listings = [&](const std::vector<std::string>& d) {
    const auto listed = tree_.ListDir("/d");
    ASSERT_TRUE(listed.ok());
    EXPECT_EQ(listed.value(), Sorted(d));
  };
  expect_listings(in_d);

  // Rename a third of the entries out, and the other directory's in.
  for (std::size_t i = 0; i < in_d.size(); i += 3) {
    ASSERT_TRUE(tree_
                    .Execute(Rec(OpCode::kRename, "/d/" + in_d[i], 2, Op(),
                                 "/e/" + in_d[i]))
                    .ok());
  }
  std::erase_if(in_d, [&](const std::string& n) {
    return tree_.Exists("/e/" + n);
  });
  const auto in_e = tree_.ListDir("/e");
  ASSERT_TRUE(in_e.ok());
  for (const std::string& n : in_e.value()) {
    if (n[0] != 'm') continue;
    ASSERT_TRUE(
        tree_.Execute(Rec(OpCode::kRename, "/e/" + n, 3, Op(), "/d/" + n))
            .ok());
    in_d.push_back(n);
  }
  expect_listings(in_d);

  // Delete every other entry, in shuffled order.
  for (std::size_t i = 0; i < in_d.size(); i += 2) {
    ASSERT_TRUE(
        tree_.Execute(Rec(OpCode::kDelete, "/d/" + in_d[i], 4, Op())).ok());
  }
  std::erase_if(in_d, [&](const std::string& n) {
    return !tree_.Exists("/d/" + n);
  });
  expect_listings(in_d);
}

TEST_F(TreeTest, ImagesAreByteIdenticalAcrossLoadAndReplay) {
  std::vector<LogRecord> log;
  auto run = [&](Result<LogRecord> r) {
    ASSERT_TRUE(r.ok());
    LogRecord rec = std::move(r).value();
    rec.txid = static_cast<TxId>(log.size() + 1);
    tree_.set_last_txid(rec.txid);
    log.push_back(std::move(rec));
  };
  const std::vector<std::string> names = ShuffledNames(48, 9);
  for (const std::string& n : names) {
    run(tree_.Create("/a/" + n, 1, 1, Op()));
    run(tree_.Execute(Rec(OpCode::kMkdir, "/b/" + n, 2, Op())));
  }
  for (std::size_t i = 0; i < 12; ++i) {
    run(tree_.Execute(Rec(OpCode::kRename, "/a/" + names[i], 3, Op(),
                          "/b/" + names[i] + "/f")));
  }
  for (std::size_t i = 6; i < 18; ++i) {
    run(tree_.Execute(Rec(OpCode::kDelete, "/b/" + names[i], 4, Op())));
  }
  const std::vector<char> image = tree_.SaveImage();

  Tree loaded;
  ASSERT_TRUE(loaded.LoadImage(image).ok());
  EXPECT_EQ(loaded.SaveImage(), image);

  Tree replayed;
  for (const LogRecord& rec : log) ASSERT_TRUE(replayed.Apply(rec).ok());
  EXPECT_EQ(replayed.SaveImage(), image);
  EXPECT_EQ(replayed.Fingerprint(), tree_.Fingerprint());
}

TEST_F(TreeTest, FileInodesOwnNoChildStorage) {
  auto no_index = [&](const Tree& tree, std::string_view path) {
    const Inode* node = tree.FindInode(path);
    ASSERT_NE(node, nullptr) << path;
    EXPECT_FALSE(node->is_dir) << path;
    EXPECT_EQ(node->children.capacity(), 0u) << path;
  };
  ASSERT_TRUE(tree_.Create("/d/f", 1, 1, Op()).ok());
  no_index(tree_, "/d/f");
  ASSERT_TRUE(tree_.Execute(Rec(OpCode::kMkdir, "/e", 1, Op())).ok());
  ASSERT_TRUE(
      tree_.Execute(Rec(OpCode::kRename, "/d/f", 2, Op(), "/e/g")).ok());
  no_index(tree_, "/e/g");

  LogRecord install;
  install.txid = 1;
  install.op = OpCode::kShardInstallFile;
  install.path = "/e/h";
  install.path2 = "alice:staff";
  install.replication = 2;
  install.block = (0640 << 2) | 0x2;
  install.mtime = 3;
  ASSERT_TRUE(tree_.Apply(install).ok());
  no_index(tree_, "/e/h");
  install.txid = 2;  // a retried chunk: the upsert rebuilds the file
  ASSERT_TRUE(tree_.Apply(install).ok());
  no_index(tree_, "/e/h");

  Tree loaded;
  ASSERT_TRUE(loaded.LoadImage(tree_.SaveImage()).ok());
  no_index(loaded, "/e/g");
  no_index(loaded, "/e/h");
  // A directory with entries owns one.
  EXPECT_NE(loaded.FindInode("/e")->children.capacity(), 0u);
  EXPECT_EQ(loaded.FindInode("/e")->children.size(), 2u);
}

TEST(InodeLayoutTest, FileInodeCarriesOnePointerOfChildStorage) {
  // One string (the name, stored nowhere else), a block vector, the child
  // index pointer, three 8-byte scalars and two words of narrow fields,
  // the interned owner among them. The node-per-inode layout, with a
  // second string for the owner, was 128 bytes.
  EXPECT_EQ(sizeof(SlotIndex), sizeof(void*));
  EXPECT_LE(sizeof(Inode), 104u);
}

// --- storage: slot table, copies, image validation -------------------------

TEST_F(TreeTest, CopyIsAnIndependentReplica) {
  ASSERT_TRUE(tree_.Create("/a/b/f", 3, 1, Op()).ok());
  ASSERT_TRUE(
      tree_.Execute(Rec(OpCode::kSetOwner, "/a/b", 2, Op(), "alice:staff"))
          .ok());
  Tree copy = tree_;
  EXPECT_EQ(copy.Fingerprint(), tree_.Fingerprint());
  EXPECT_EQ(copy.SaveImage(), tree_.SaveImage());
  EXPECT_EQ(copy.GetFileInfo("/a/b").value().owner, "alice:staff");

  // Mutating one side leaves the other as it was.
  const std::vector<char> before = tree_.SaveImage();
  ASSERT_TRUE(copy.Execute(Rec(OpCode::kDelete, "/a/b", 3, Op())).ok());
  ASSERT_TRUE(copy.Create("/a/c", 1, 4, Op()).ok());
  EXPECT_EQ(tree_.SaveImage(), before);
  EXPECT_TRUE(tree_.Exists("/a/b/f"));
  EXPECT_FALSE(tree_.Exists("/a/c"));
}

TEST(TreeStorageTest, ChurnStaysWithinOneChunkOfTheLivePeak) {
  // Every round creates the same names and deletes them again. Ids keep
  // growing, but freed slots are reused and the id index holds live ids
  // only, so neither table may grow past the first round's size.
  constexpr std::size_t kNames = 1000;
  constexpr std::size_t kPeak = kNames + 2;  // plus the root and /churn
  Tree tree;
  std::size_t index = 0;
  for (int round = 0; round < 50; ++round) {
    for (std::size_t i = 0; i < kNames; ++i) {
      ASSERT_TRUE(tree.Create("/churn/f" + std::to_string(i), 1, round,
                              ClientOpId{})
                      .ok());
    }
    ASSERT_EQ(tree.inode_count(), kPeak);
    for (std::size_t i = 0; i < kNames; ++i) {
      ASSERT_TRUE(tree.Execute(Rec(OpCode::kDelete,
                                   "/churn/f" + std::to_string(i), round,
                                   ClientOpId{}))
                      .ok());
    }
    ASSERT_EQ(tree.inode_count(), 2u);
    if (round == 0) index = TreeStorageProbe::IdIndexCapacity(tree);
  }
  EXPECT_EQ(TreeStorageProbe::SlotsUsed(tree), kPeak);
  EXPECT_LE(TreeStorageProbe::SlotCapacity(tree),
            kPeak + TreeStorageProbe::kSlotsPerChunk);
  EXPECT_EQ(TreeStorageProbe::IdIndexCapacity(tree), index);
  // At most 3/4 full before it doubles: under 8/3 entries per live inode.
  EXPECT_LT(index * 3, kPeak * 8);
  ASSERT_TRUE(tree.Create("/churn/again", 1, 99, ClientOpId{}).ok());
  EXPECT_TRUE(tree.Exists("/churn/again"));
  EXPECT_FALSE(tree.Exists("/churn/f0"));
}

/// One inode of a hand-built image.
struct ImageRow {
  InodeId id;
  InodeId parent;  ///< 0: none
  std::string name;
  bool is_dir;
};

/// A checksummed v6 image holding `rows` and nothing else: the layout
/// Tree::SaveImage writes, built by hand so it can be wrong on purpose.
std::vector<char> HandBuiltImage(const std::vector<ImageRow>& rows) {
  ByteWriter out;
  out.U32(0x4d414d53);  // "MAMS"
  out.U32(6);
  out.U64(100);  // next inode
  out.U64(1);    // next block
  out.U64(0);    // last txid
  out.U64(static_cast<std::uint64_t>(
      std::count_if(rows.begin(), rows.end(),
                    [](const ImageRow& r) { return !r.is_dir; })));
  out.U64(rows.size());
  for (const ImageRow& row : rows) {
    out.U64(row.id);
    out.U64(row.parent);
    out.Str(row.name);
    out.U8(row.is_dir ? 1 : 0);
    out.U8(1);  // complete
    out.U32(1);  // replication
    out.U32(0644);
    out.Str("hdfs");
    out.I64(0);  // mtime
    out.U32(0);  // blocks
  }
  out.U64(0);                          // dedup table
  for (int i = 0; i < 6; ++i) out.U32(0);  // shard state
  const std::uint64_t checksum = out.Checksum();
  out.U64(checksum);
  return std::move(out).Take();
}

TEST(ImageValidationTest, WellFormedHandBuiltImageLoads) {
  Tree tree;
  ASSERT_TRUE(tree.LoadImage(HandBuiltImage({{kRootInode, 0, "", true},
                                             {2, kRootInode, "d", true},
                                             {3, 2, "f", false},
                                             {4, kRootInode, "g", false}}))
                  .ok());
  EXPECT_EQ(tree.inode_count(), 4u);
  EXPECT_EQ(tree.ListDir("/d").value(), std::vector<std::string>{"f"});
  EXPECT_EQ(tree.FindInode("/d/f")->id, 3u);
}

TEST(ImageValidationTest, StructurallyBadImagesAreCorrupt) {
  const std::vector<std::pair<std::string, std::vector<ImageRow>>> bad = {
      {"duplicate id",
       {{kRootInode, 0, "", true}, {2, kRootInode, "a", false},
        {2, kRootInode, "b", false}}},
      {"parent is a file",
       {{kRootInode, 0, "", true}, {2, kRootInode, "f", false},
        {3, 2, "g", false}}},
      {"own parent",
       {{kRootInode, 0, "", true}, {2, 2, "loop", true}}},
      {"duplicate name",
       {{kRootInode, 0, "", true}, {2, kRootInode, "x", false},
        {3, kRootInode, "x", true}}},
  };
  for (const auto& [what, rows] : bad) {
    Tree tree;
    ASSERT_TRUE(tree.Create("/kept", 1, 1, ClientOpId{}).ok());
    const std::uint64_t before = tree.Fingerprint();
    const Status s = tree.LoadImage(HandBuiltImage(rows));
    EXPECT_EQ(s.code(), StatusCode::kCorruption)
        << what << ": " << s.ToString();
    // A refused image leaves the tree as it was.
    EXPECT_EQ(tree.Fingerprint(), before) << what;
  }
}

// The image format, byte for byte: one scripted tree, built through every
// kind of client op from two clients, pinned by the FNV-1a hash of its
// image and by its fingerprint. The storage behind the tree may change;
// these two numbers may not (they are what every replica, checkpoint and
// digest is made of).
TEST(ImageFormatTest, ScriptedTreeKeepsItsImageAndFingerprint) {
  constexpr std::size_t kGoldenImageBytes = 1108;
  constexpr std::uint64_t kGoldenImageHash = 15334218063399140441ull;
  constexpr std::uint64_t kGoldenFingerprint = 6053767988385006686ull;
  Tree tree;
  std::uint64_t seq[3] = {0, 0, 0};
  auto op = [&](std::uint64_t client) {
    return ClientOpId{.client_id = client, .op_seq = ++seq[client]};
  };
  SimTime now = 0;
  auto run = [&](OpCode code, const std::string& path, std::uint64_t client,
                 std::string path2 = {}, std::uint32_t replication = 1) {
    ASSERT_TRUE(tree.Execute(Rec(code, path, ++now, op(client),
                                 std::move(path2), replication))
                    .ok())
        << path;
  };
  run(OpCode::kMkdir, "/user/alice/logs", 1);
  run(OpCode::kMkdir, "/user/bob", 2);
  run(OpCode::kMkdir, "/tmp", 1);
  for (int i = 0; i < 6; ++i) {
    run(OpCode::kCreate, "/user/alice/logs/part-" + std::to_string(i),
        1 + i % 2, {}, 3);
  }
  run(OpCode::kCreate, "/user/bob/notes.txt", 2, {}, 2);
  run(OpCode::kCreate, "/tmp/scratch", 1);
  run(OpCode::kAddBlock, "/user/alice/logs/part-0", 1);
  run(OpCode::kAddBlock, "/user/alice/logs/part-0", 2);
  run(OpCode::kAddBlock, "/user/bob/notes.txt", 2);
  run(OpCode::kCompleteFile, "/user/alice/logs/part-0", 1);
  run(OpCode::kRename, "/user/alice/logs/part-1", 2,
      "/user/bob/part-1-moved");
  run(OpCode::kRename, "/tmp/scratch", 1, "/user/alice/scratch");
  run(OpCode::kDelete, "/user/alice/logs/part-5", 2);
  run(OpCode::kDelete, "/tmp", 1);
  run(OpCode::kSetOwner, "/user/alice", 1, "alice:staff");
  run(OpCode::kSetOwner, "/user/bob/notes.txt", 2, "bob:eng");
  run(OpCode::kSetOwner, "/user/alice/logs/part-2", 1, "alice:staff");
  run(OpCode::kSetPermission, "/user/bob", 2, {}, 0700);
  run(OpCode::kSetPermission, "/user/alice/logs/part-3", 1, {}, 0600);
  run(OpCode::kSetReplication, "/user/alice/logs/part-4", 2, {}, 5);
  run(OpCode::kSetTimes, "/user/alice/logs", 1);
  run(OpCode::kMkdir, "/user/bob/empty", 2);

  const std::vector<char> image = tree.SaveImage();
  EXPECT_EQ(image.size(), kGoldenImageBytes);
  EXPECT_EQ(Fnv1a(image.data(), image.size()), kGoldenImageHash);
  EXPECT_EQ(tree.Fingerprint(), kGoldenFingerprint);

  Tree loaded;
  ASSERT_TRUE(loaded.LoadImage(image).ok());
  EXPECT_EQ(loaded.SaveImage(), image);
  EXPECT_EQ(loaded.Fingerprint(), kGoldenFingerprint);
}

// Property: a random interleaving of operations replayed from the journal
// always converges to the primary's fingerprint.
class ReplayPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReplayPropertyTest, RandomWorkloadReplaysExactly) {
  Rng rng(GetParam());
  Tree primary;
  std::vector<LogRecord> log;
  std::uint64_t seq = 0;
  TxId txid = 0;
  std::vector<std::string> dirs{"/"};
  std::vector<std::string> files;

  auto journal_it = [&](Result<LogRecord> r) {
    if (!r.ok()) return;  // client-visible error; nothing journaled
    LogRecord rec = std::move(r).value();
    rec.txid = ++txid;
    primary.set_last_txid(txid);
    log.push_back(rec);
  };

  for (int i = 0; i < 400; ++i) {
    ClientOpId id{.client_id = 5, .op_seq = ++seq};
    const auto roll = rng.Below(100);
    if (roll < 30) {
      const auto& dir = dirs[rng.Below(dirs.size())];
      std::string path =
          (dir == "/" ? "" : dir) + "/f" + std::to_string(rng.Below(200));
      auto r = primary.Create(path, 1, i, id);
      if (r.ok()) files.push_back(path);
      journal_it(std::move(r));
    } else if (roll < 50) {
      std::string path = "/d" + std::to_string(rng.Below(20)) + "/s" +
                         std::to_string(rng.Below(5));
      auto r = primary.Execute(Rec(OpCode::kMkdir, path, i, id));
      if (r.ok()) dirs.push_back(path);
      journal_it(std::move(r));
    } else if (roll < 65 && !files.empty()) {
      const auto idx = rng.Below(files.size());
      auto r = primary.Execute(Rec(OpCode::kDelete, files[idx], i, id));
      if (r.ok()) files.erase(files.begin() + static_cast<long>(idx));
      journal_it(std::move(r));
    } else if (roll < 80 && !files.empty()) {
      const auto idx = rng.Below(files.size());
      std::string dst = files[idx] + "_r" + std::to_string(i);
      auto r = primary.Execute(Rec(OpCode::kRename, files[idx], i, id, dst));
      if (r.ok()) files[idx] = dst;
      journal_it(std::move(r));
    } else if (!files.empty()) {
      journal_it(primary.Execute(
          Rec(OpCode::kAddBlock, files[rng.Below(files.size())], i, id)));
    }
  }

  Tree replica;
  for (const auto& rec : log) {
    ASSERT_TRUE(replica.Apply(rec).ok()) << "txid " << rec.txid;
  }
  EXPECT_EQ(replica.Fingerprint(), primary.Fingerprint());

  // And the image of the replica loads back to the same fingerprint.
  Tree loaded;
  ASSERT_TRUE(loaded.LoadImage(replica.SaveImage()).ok());
  EXPECT_EQ(loaded.Fingerprint(), primary.Fingerprint());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplayPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// --- batch replay under mutation storms --------------------------------------

/// Drives identical random namespace mutations through several trees at
/// once, asserting op-by-op status parity and collecting the journal
/// records the "active" (first tree) would ship to replicas.
class MirroredFuzzer {
 public:
  explicit MirroredFuzzer(std::uint64_t seed) : rng_(seed) {
    dirs_.push_back("/");
  }

  void Attach(Tree* tree) { trees_.push_back(tree); }

  void Step() {
    const std::uint64_t dice = rng_.Below(100);
    if (dice < 25) {
      Mkdir();
    } else if (dice < 55) {
      Create();
    } else if (dice < 70) {
      Delete();
    } else if (dice < 85) {
      Rename();
    } else {
      AddBlock();
    }
    // Interleave reads, including misses under live directories.
    for (int i = 0; i < 3; ++i) Probe(RandomKnownPath());
    Probe(RandomKnownPath() + "/definitely-missing");
  }

  /// Asserts every attached tree answers FindInode identically for `path`.
  void Probe(const std::string& path) {
    const Inode* expect = trees_.front()->FindInode(path);
    for (std::size_t t = 1; t < trees_.size(); ++t) {
      const Inode* got = trees_[t]->FindInode(path);
      ASSERT_EQ(expect == nullptr, got == nullptr) << path;
      if (expect != nullptr && got != nullptr) {
        ASSERT_EQ(expect->id, got->id) << path;
        ASSERT_EQ(expect->is_dir, got->is_dir) << path;
      }
    }
  }

  void ProbeAllKnown() {
    for (const auto& d : dirs_) Probe(d);
    for (const auto& f : files_) Probe(f);
  }

  const std::vector<LogRecord>& records() const { return records_; }
  std::string RandomKnownPath() {
    if (!files_.empty() && rng_.Chance(0.5)) {
      return files_[rng_.Below(files_.size())];
    }
    return dirs_[rng_.Below(dirs_.size())];
  }

 private:
  ClientOpId NextOp() { return {.client_id = 7, .op_seq = ++seq_}; }

  template <typename Fn>
  Result<LogRecord> ApplyToAll(Fn&& op) {
    const ClientOpId client = NextOp();
    Result<LogRecord> first = op(*trees_.front(), client);
    for (std::size_t t = 1; t < trees_.size(); ++t) {
      Result<LogRecord> other = op(*trees_[t], client);
      EXPECT_EQ(first.ok(), other.ok());
      if (!first.ok()) {
        EXPECT_EQ(first.status().code(), other.status().code());
      }
    }
    if (first.ok()) {
      LogRecord rec = first.value();
      rec.txid = ++next_txid_;
      // Mirror the MDS: it stamps the txid and keeps the live tree's
      // replay cursor in step (Fingerprint covers last_txid).
      for (Tree* t : trees_) t->set_last_txid(rec.txid);
      records_.push_back(std::move(rec));
    }
    return first;
  }

  void Mkdir() {
    const std::string path =
        JoinPath(dirs_[rng_.Below(dirs_.size())], "d" + std::to_string(++uid_));
    auto r = ApplyToAll([&](Tree& t, ClientOpId c) {
      return t.Execute(
          Rec(OpCode::kMkdir, path, static_cast<SimTime>(seq_), c));
    });
    if (r.ok()) dirs_.push_back(path);
  }

  void Create() {
    const std::string path =
        JoinPath(dirs_[rng_.Below(dirs_.size())], "f" + std::to_string(++uid_));
    auto r = ApplyToAll([&](Tree& t, ClientOpId c) {
      return t.Create(path, 3, static_cast<SimTime>(seq_), c);
    });
    if (r.ok()) files_.push_back(path);
  }

  void Delete() {
    const std::string path = RandomKnownPath();
    if (path == "/") return;
    auto r = ApplyToAll([&](Tree& t, ClientOpId c) {
      return t.Execute(
          Rec(OpCode::kDelete, path, static_cast<SimTime>(seq_), c));
    });
    if (r.ok()) Forget(path);
  }

  void Rename() {
    const std::string src = RandomKnownPath();
    if (src == "/") return;
    const std::string dst =
        JoinPath(dirs_[rng_.Below(dirs_.size())], "r" + std::to_string(++uid_));
    if (IsPrefixPath(src, dst)) return;  // cannot move a dir under itself
    auto r = ApplyToAll([&](Tree& t, ClientOpId c) {
      return t.Execute(
          Rec(OpCode::kRename, src, static_cast<SimTime>(seq_), c, dst));
    });
    if (r.ok()) Redirect(src, dst);
  }

  void AddBlock() {
    if (files_.empty()) return;
    const std::string path = files_[rng_.Below(files_.size())];
    (void)ApplyToAll([&](Tree& t, ClientOpId c) {
      return t.Execute(
          Rec(OpCode::kAddBlock, path, static_cast<SimTime>(seq_), c));
    });
  }

  /// Drops `path` and everything beneath it from the tracked sets.
  void Forget(const std::string& path) {
    auto prune = [&](std::vector<std::string>& v) {
      std::erase_if(v, [&](const std::string& p) {
        return IsPrefixPath(path, p);
      });
    };
    prune(dirs_);
    prune(files_);
  }

  /// Rewrites tracked paths under `src` to live under `dst`.
  void Redirect(const std::string& src, const std::string& dst) {
    auto move = [&](std::vector<std::string>& v) {
      for (std::string& p : v) {
        if (IsPrefixPath(src, p)) p = dst + p.substr(src.size());
      }
    };
    move(dirs_);
    move(files_);
  }

  Rng rng_;
  std::vector<Tree*> trees_;
  std::vector<std::string> dirs_;
  std::vector<std::string> files_;
  std::vector<LogRecord> records_;
  std::uint64_t seq_ = 0;
  std::uint64_t uid_ = 0;
  TxId next_txid_ = 0;
};

/// Replays `records[first..last)` into `tree` the way a standby applies
/// journal batches: `batch_size` records at a time, each batch record by
/// record in record order.
void ReplayBatches(Tree& tree, const std::vector<LogRecord>& records,
                   std::size_t first, std::size_t last,
                   std::size_t batch_size = 16) {
  for (std::size_t lo = first; lo < last; lo += batch_size) {
    for (std::size_t i = lo; i < std::min(last, lo + batch_size); ++i) {
      ASSERT_TRUE(tree.Apply(records[i]).ok())
          << "replay diverged at txid " << records[i].txid
          << " in the batch starting at txid " << records[lo].txid;
    }
  }
}

TEST(NamespaceReplayTest, BatchReplayMatchesLiveExecution) {
  Tree active;
  MirroredFuzzer fuzz(0xbeef);
  fuzz.Attach(&active);
  for (int i = 0; i < 1500; ++i) fuzz.Step();

  // A standby replaying the journal batch by batch, and one replaying it
  // record by record, must both converge on the active's state.
  Tree standby;
  Tree serial;
  ReplayBatches(standby, fuzz.records(), 0, fuzz.records().size());
  for (const LogRecord& rec : fuzz.records()) {
    ASSERT_TRUE(serial.Apply(rec).ok()) << "txid " << rec.txid;
  }

  EXPECT_EQ(active.Fingerprint(), standby.Fingerprint());
  EXPECT_EQ(active.Fingerprint(), serial.Fingerprint());
  EXPECT_EQ(active.last_txid(), standby.last_txid());

  fuzz.Attach(&standby);
  fuzz.Attach(&serial);
  fuzz.ProbeAllKnown();
}

TEST(NamespaceReplayTest, FailoverImageLoadDropsStaleEntries) {
  Tree active;
  MirroredFuzzer fuzz(0xfa11);
  fuzz.Attach(&active);
  for (int i = 0; i < 1000; ++i) fuzz.Step();
  const std::size_t checkpoint = fuzz.records().size();
  const std::vector<char> image = active.SaveImage();

  for (int i = 0; i < 1000; ++i) fuzz.Step();  // active keeps going

  // The junior has unrelated state before it formats and catches up —
  // exactly the failover sequence. None of it may survive LoadImage.
  Tree junior;
  ClientOpId none{};
  ASSERT_TRUE(junior.Execute(Rec(OpCode::kMkdir, "/stale", 1, none)).ok());
  ASSERT_TRUE(junior.Create("/stale/old", 1, 1, none).ok());
  ASSERT_NE(junior.FindInode("/stale/old"), nullptr);

  ASSERT_TRUE(junior.LoadImage(image).ok());
  EXPECT_EQ(junior.FindInode("/stale/old"), nullptr);
  ReplayBatches(junior, fuzz.records(), checkpoint, fuzz.records().size());

  EXPECT_EQ(active.Fingerprint(), junior.Fingerprint());
  EXPECT_EQ(active.last_txid(), junior.last_txid());
  fuzz.Attach(&junior);
  fuzz.ProbeAllKnown();
}

TEST(NamespaceReplayTest, DenseStructuralReplayMatchesLiveExecution) {
  // Dense single-directory batches with deletes and renames sprinkled in:
  // every batch mixes creates with records that remove or move entries of
  // the directory the next records resolve through.
  Tree live;
  ClientOpId none{};
  ASSERT_TRUE(live.Execute(Rec(OpCode::kMkdir, "/hot", 1, none)).ok());
  std::vector<LogRecord> records;
  TxId txid = 0;
  // Failed ops (e.g. renaming an already-deleted file) are not journaled —
  // exactly like the real active.
  auto push = [&](Result<LogRecord> r) {
    if (!r.ok()) return;
    LogRecord rec = r.value();
    rec.txid = ++txid;
    live.set_last_txid(rec.txid);
    records.push_back(std::move(rec));
  };
  // An idempotent mkdir lands in the journal.
  push(live.Execute(Rec(OpCode::kMkdir, "/hot", 1, none)));
  for (int i = 0; i < 200; ++i) {
    const std::string f = "/hot/f" + std::to_string(i);
    push(live.Create(f, 3, i, none));
    if (i % 7 == 3) push(live.Execute(Rec(OpCode::kDelete, f, i, none)));
    if (i % 11 == 5) {
      push(live.Execute(Rec(OpCode::kRename, "/hot/f" + std::to_string(i - 1),
                            i, none, "/hot/g" + std::to_string(i))));
    }
  }
  ASSERT_GT(records.size(), 200u);

  Tree replayed;
  ReplayBatches(replayed, records, 0, records.size(), 64);
  EXPECT_EQ(live.Fingerprint(), replayed.Fingerprint());
}

// --- block map -----------------------------------------------------------

TEST(BlockMapTest, IngestAndQuery) {
  BlockMap map;
  map.IngestReport(10, {1, 2, 3});
  map.IngestReport(11, {2, 3, 4});
  EXPECT_TRUE(map.HasLocations(1));
  EXPECT_EQ(map.Locations(2).size(), 2u);
  EXPECT_EQ(map.tracked_blocks(), 4u);
  EXPECT_EQ(map.reporting_servers(), 2u);
}

TEST(BlockMapTest, ReportReplacesPreviousClaims) {
  BlockMap map;
  map.IngestReport(10, {1, 2});
  map.IngestReport(10, {2, 3});  // block 1 dropped by the server
  EXPECT_FALSE(map.HasLocations(1));
  EXPECT_TRUE(map.HasLocations(3));
}

TEST(BlockMapTest, ForgetServerRetractsLocations) {
  BlockMap map;
  map.IngestReport(10, {1});
  map.IngestReport(11, {1});
  map.ForgetServer(10);
  EXPECT_EQ(map.Locations(1), std::vector<NodeId>{11});
  map.ForgetServer(11);
  EXPECT_FALSE(map.HasLocations(1));
}

}  // namespace
}  // namespace mams::fsns
