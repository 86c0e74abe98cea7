// Tests for the cluster checker itself (src/check): the reference model is
// cross-validated against fsns::Tree on random op streams, the
// linearizability checker is exercised on hand-built histories covering
// the violation taxonomy, and the mutation self-tests prove the end-to-end
// fuzzer pipeline (sweep -> shrink -> .repro replay) actually catches
// deliberately-broken servers. Shrunk schedules of violations that were
// fixed replay clean.
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "check/checker.hpp"
#include "check/fuzzer.hpp"
#include "check/history.hpp"
#include "check/model.hpp"
#include "check/repro.hpp"
#include "check/shrink.hpp"
#include "common/rng.hpp"
#include "fsns/tree.hpp"
#include "test_util.hpp"
#include "workload/opstream.hpp"

namespace mams::check {
namespace {

using journal::OpCode;
using testutil::Rec;
using workload::OpKind;

// --- model vs tree cross-validation ----------------------------------------

ReadView TreeView(const fsns::Tree& tree, const workload::Op& op) {
  ReadView view;
  if (op.kind == OpKind::kGetFileInfo) {
    auto r = tree.GetFileInfo(op.path);
    if (r.ok()) {
      view.is_dir = r.value().is_dir;
      view.replication = r.value().replication;
      view.block_count = r.value().block_count;
      view.complete = r.value().complete;
    }
  } else {
    auto r = tree.ListDir(op.path);
    view.is_dir = true;
    if (r.ok()) view.listing = r.value();
  }
  return view;
}

StatusCode TreeApply(fsns::Tree& tree, const workload::Op& op,
                     std::uint64_t op_seq) {
  const ClientOpId id{.client_id = 1, .op_seq = op_seq};
  switch (op.kind) {
    case OpKind::kCreate:
      return tree.Create(op.path, 3, 0, id).status().code();
    case OpKind::kMkdir:
      return tree.Execute(Rec(OpCode::kMkdir, op.path, 0, id)).status().code();
    case OpKind::kDelete:
      return tree.Execute(Rec(OpCode::kDelete, op.path, 0, id)).status().code();
    case OpKind::kRename:
      return tree.Execute(Rec(OpCode::kRename, op.path, 0, id, op.path2))
          .status()
          .code();
    case OpKind::kAddBlock:
      return tree.Execute(Rec(OpCode::kAddBlock, op.path, 0, id))
          .status()
          .code();
    case OpKind::kGetFileInfo:
      return tree.GetFileInfo(op.path).status().code();
    case OpKind::kListDir:
      return tree.ListDir(op.path).status().code();
  }
  return StatusCode::kInternal;
}

StatusCode ModelApply(Model& model, const workload::Op& op, ReadView* view) {
  switch (op.kind) {
    case OpKind::kCreate:
      return model.Create(op.path, 3, nullptr);
    case OpKind::kMkdir:
      return model.Mkdir(op.path, nullptr);
    case OpKind::kDelete:
      return model.Delete(op.path, nullptr);
    case OpKind::kRename:
      return model.Rename(op.path, op.path2, nullptr);
    case OpKind::kAddBlock:
      return model.AddBlock(op.path, nullptr);
    case OpKind::kGetFileInfo:
      return model.GetFileInfo(op.path, view);
    case OpKind::kListDir:
      return model.ListDir(op.path, view);
  }
  return StatusCode::kInternal;
}

class ModelCrossValidationTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ModelCrossValidationTest, AgreesWithTreeOnRandomOpStreams) {
  const std::uint64_t seed = GetParam();
  workload::Mix mix;
  mix.create = 0.30;
  mix.mkdir = 0.12;
  mix.remove = 0.14;
  mix.rename = 0.12;
  mix.getfileinfo = 0.16;
  mix.listdir = 0.10;
  mix.add_block = 0.06;
  workload::OpStream stream(mix, seed, /*directories=*/8, "/x");

  fsns::Tree tree;
  Model model;
  Rng rng(seed ^ 0xfeedface);
  std::vector<std::string> created;
  std::uint64_t op_seq = 0;

  for (int i = 0; i < 500; ++i) {
    workload::Op op = stream.Next();
    // OpStream never emits CompleteFile; mix a few in by hand so the
    // complete-flag transition is covered too.
    const bool complete_file =
        !created.empty() && rng.Below(10) == 0;
    if (complete_file) {
      const std::string& path = created[rng.Below(created.size())];
      const ClientOpId id{.client_id = 1, .op_seq = ++op_seq};
      const StatusCode tree_code =
          tree.Execute(Rec(OpCode::kCompleteFile, path, 0, id)).status().code();
      const StatusCode model_code = model.CompleteFile(path, nullptr);
      ASSERT_EQ(tree_code, model_code)
          << "completefile " << path << " (op " << i << ", seed " << seed
          << ")";
      continue;
    }
    if (op.kind == OpKind::kCreate) created.push_back(op.path);

    ReadView model_view;
    const StatusCode model_code = ModelApply(model, op, &model_view);
    const StatusCode tree_code = TreeApply(tree, op, ++op_seq);
    ASSERT_EQ(tree_code, model_code)
        << OpKindName(op.kind) << " " << op.path
        << (op.path2.empty() ? "" : " -> " + op.path2) << " (op " << i
        << ", seed " << seed << ")";
    if (tree_code == StatusCode::kOk &&
        (op.kind == OpKind::kGetFileInfo || op.kind == OpKind::kListDir)) {
      ASSERT_EQ(TreeView(tree, op), model_view)
          << OpKindName(op.kind) << " " << op.path << " (op " << i
          << ", seed " << seed << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelCrossValidationTest,
                         ::testing::Values(11, 12, 13, 14));

// --- checker unit tests on hand-built histories -----------------------------

/// Builds histories with correct, index-matching event ids.
class HistoryBuilder {
 public:
  std::uint32_t Op(int client, OpKind kind, std::string path, SimTime invoke,
                   SimTime complete, Outcome outcome,
                   StatusCode code = StatusCode::kOk, ReadView view = {},
                   std::string path2 = {}) {
    Event e;
    e.id = static_cast<std::uint32_t>(history.events().size());
    e.client = client;
    e.kind = kind;
    e.path = std::move(path);
    e.path2 = std::move(path2);
    e.invoke = invoke;
    e.complete = complete;
    e.outcome = outcome;
    e.code = code;
    e.view = std::move(view);
    history.events().push_back(std::move(e));
    return history.events().back().id;
  }

  History history;
};

ReadView FreshFileView() {
  // What a stat of a just-created (not yet completed) file observes; the
  // model creates with FsClient's default replication 3.
  ReadView v;
  v.is_dir = false;
  v.replication = 3;
  v.block_count = 0;
  v.complete = false;
  return v;
}

TEST(CheckerTest, CleanSequentialHistoryIsLinearizable) {
  HistoryBuilder b;
  b.Op(0, OpKind::kCreate, "/a/f", 0, 10, Outcome::kOk);
  b.Op(0, OpKind::kGetFileInfo, "/a/f", 20, 30, Outcome::kOk,
       StatusCode::kOk, FreshFileView());
  b.Op(0, OpKind::kDelete, "/a/f", 40, 50, Outcome::kOk);
  b.Op(0, OpKind::kGetFileInfo, "/a/f", 60, 70, Outcome::kError,
       StatusCode::kNotFound);
  const CheckResult r = CheckHistory(b.history);
  EXPECT_TRUE(r.decided);
  EXPECT_TRUE(r.linearizable);
  EXPECT_TRUE(r.violations.empty());
}

TEST(CheckerTest, ConcurrentOpsMayLinearizeInEitherOrder) {
  HistoryBuilder b;
  // Create and stat overlap: the stat may order before (NotFound) or
  // after (sees the file) the create — here it saw NotFound.
  b.Op(0, OpKind::kCreate, "/a/f", 0, 100, Outcome::kOk);
  b.Op(1, OpKind::kGetFileInfo, "/a/f", 10, 90, Outcome::kError,
       StatusCode::kNotFound);
  const CheckResult r = CheckHistory(b.history);
  EXPECT_TRUE(r.linearizable);
}

TEST(CheckerTest, LostAckIsFlagged) {
  HistoryBuilder b;
  b.Op(0, OpKind::kCreate, "/a/f", 0, 10, Outcome::kOk);
  b.Op(0, OpKind::kGetFileInfo, "/a/f", 20, 30, Outcome::kError,
       StatusCode::kNotFound);
  const CheckResult r = CheckHistory(b.history);
  ASSERT_TRUE(r.decided);
  EXPECT_FALSE(r.linearizable);
  ASSERT_FALSE(r.violations.empty());
  EXPECT_EQ(r.violations[0].type, Violation::Type::kLostAck);
}

TEST(CheckerTest, StaleReadIsFlagged) {
  HistoryBuilder b;
  b.Op(0, OpKind::kCreate, "/a/f", 0, 10, Outcome::kOk);
  b.Op(0, OpKind::kDelete, "/a/f", 20, 30, Outcome::kOk);
  b.Op(1, OpKind::kGetFileInfo, "/a/f", 40, 50, Outcome::kOk,
       StatusCode::kOk, FreshFileView());
  const CheckResult r = CheckHistory(b.history);
  ASSERT_TRUE(r.decided);
  EXPECT_FALSE(r.linearizable);
  ASSERT_FALSE(r.violations.empty());
  EXPECT_EQ(r.violations[0].type, Violation::Type::kStaleRead);
}

TEST(CheckerTest, SplitBrainDoubleCreateIsFlagged) {
  HistoryBuilder b;
  b.Op(0, OpKind::kCreate, "/a/f", 0, 10, Outcome::kOk);
  b.Op(1, OpKind::kCreate, "/a/f", 20, 30, Outcome::kOk);
  const CheckResult r = CheckHistory(b.history);
  ASSERT_TRUE(r.decided);
  EXPECT_FALSE(r.linearizable);
  ASSERT_FALSE(r.violations.empty());
  EXPECT_EQ(r.violations[0].type, Violation::Type::kSplitBrainWrite);
}

TEST(CheckerTest, DuplicateApplyIsFlagged) {
  HistoryBuilder b;
  b.Op(0, OpKind::kCreate, "/a/f", 0, 10, Outcome::kOk);
  b.Op(0, OpKind::kAddBlock, "/a/f", 20, 30, Outcome::kOk);
  ReadView v = FreshFileView();
  v.block_count = 2;  // one addblock attempted, two observed
  b.Op(0, OpKind::kGetFileInfo, "/a/f", 40, 50, Outcome::kOk,
       StatusCode::kOk, v);
  const CheckResult r = CheckHistory(b.history);
  ASSERT_TRUE(r.decided);
  EXPECT_FALSE(r.linearizable);
  ASSERT_FALSE(r.violations.empty());
  EXPECT_EQ(r.violations[0].type, Violation::Type::kDuplicateApply);
}

TEST(CheckerTest, AmbiguousMutationMayOrMayNotHaveExecuted) {
  {
    // Timed-out create whose effect IS later observed: legal.
    HistoryBuilder b;
    b.Op(0, OpKind::kCreate, "/a/f", 0, 10, Outcome::kAmbiguous);
    b.Op(0, OpKind::kGetFileInfo, "/a/f", 20, 30, Outcome::kOk,
         StatusCode::kOk, FreshFileView());
    EXPECT_TRUE(CheckHistory(b.history).linearizable);
  }
  {
    // Timed-out create whose effect is NOT observed: also legal.
    HistoryBuilder b;
    b.Op(0, OpKind::kCreate, "/a/f", 0, 10, Outcome::kAmbiguous);
    b.Op(0, OpKind::kGetFileInfo, "/a/f", 20, 30, Outcome::kError,
         StatusCode::kNotFound);
    EXPECT_TRUE(CheckHistory(b.history).linearizable);
  }
}

TEST(CheckerTest, AmbiguousReadConstrainsNothing) {
  HistoryBuilder b;
  b.Op(0, OpKind::kCreate, "/a/f", 0, 10, Outcome::kOk);
  b.Op(1, OpKind::kGetFileInfo, "/a/f", 20, -1, Outcome::kAmbiguous);
  b.Op(0, OpKind::kGetFileInfo, "/a/f", 30, 40, Outcome::kOk,
       StatusCode::kOk, FreshFileView());
  const CheckResult r = CheckHistory(b.history);
  EXPECT_TRUE(r.linearizable);
}

// --- standby-read session-consistency checks --------------------------------

/// Marks an already-built event as a standby-served read with its session
/// token metadata.
void MarkStandby(HistoryBuilder& b, std::uint32_t id, SerialNumber min_sn,
                 SerialNumber observed_sn) {
  Event& e = b.history.events()[id];
  e.via_standby = true;
  e.min_sn = min_sn;
  e.observed_sn = observed_sn;
}

TEST(CheckerTest, StandbyReadBelowSessionFloorIsFlagged) {
  // The token check alone: a standby answered from an applied sn below
  // the floor the read carried — stale even if the value happens to
  // match (the min_sn-ignoring mutation produces exactly this).
  HistoryBuilder b;
  b.Op(0, OpKind::kCreate, "/a/f", 0, 10, Outcome::kOk);
  const std::uint32_t r1 =
      b.Op(0, OpKind::kGetFileInfo, "/a/f", 20, 30, Outcome::kOk,
           StatusCode::kOk, FreshFileView());
  MarkStandby(b, r1, /*min_sn=*/3, /*observed_sn=*/1);
  const CheckResult r = CheckHistory(b.history);
  ASSERT_TRUE(r.decided);
  EXPECT_FALSE(r.linearizable);
  ASSERT_FALSE(r.violations.empty());
  EXPECT_EQ(r.violations[0].type, Violation::Type::kStaleRead);
}

TEST(CheckerTest, StandbyReadMissingOwnWriteIsFlagged) {
  // Tokens look fine but the value breaks read-your-writes: the client
  // deleted the file, yet a standby still shows it.
  HistoryBuilder b;
  b.Op(0, OpKind::kCreate, "/a/f", 0, 10, Outcome::kOk);
  b.Op(0, OpKind::kDelete, "/a/f", 20, 30, Outcome::kOk);
  const std::uint32_t r1 =
      b.Op(0, OpKind::kGetFileInfo, "/a/f", 40, 50, Outcome::kOk,
           StatusCode::kOk, FreshFileView());
  MarkStandby(b, r1, /*min_sn=*/2, /*observed_sn=*/2);
  const CheckResult r = CheckHistory(b.history);
  ASSERT_TRUE(r.decided);
  EXPECT_FALSE(r.linearizable);
  ASSERT_FALSE(r.violations.empty());
  EXPECT_EQ(r.violations[0].type, Violation::Type::kStaleRead);
}

TEST(CheckerTest, StaleStandbyReadFromAnotherSessionIsLegal) {
  // A standby read that lags ANOTHER client's completed write is allowed
  // — session consistency only promises read-your-writes per session.
  // The same shape served by the active (via_standby unset) is a stale
  // read (see StaleReadIsFlagged above).
  HistoryBuilder b;
  b.Op(0, OpKind::kCreate, "/a/f", 0, 10, Outcome::kOk);
  b.Op(0, OpKind::kDelete, "/a/f", 20, 30, Outcome::kOk);
  const std::uint32_t r1 =
      b.Op(1, OpKind::kGetFileInfo, "/a/f", 40, 50, Outcome::kOk,
           StatusCode::kOk, FreshFileView());
  MarkStandby(b, r1, /*min_sn=*/0, /*observed_sn=*/1);
  const CheckResult r = CheckHistory(b.history);
  EXPECT_TRUE(r.decided);
  EXPECT_TRUE(r.linearizable) << FormatViolation(
      b.history, r.violations.empty() ? Violation{} : r.violations[0]);
}

TEST(CheckerTest, StandbyReadsGoingBackwardsAreFlagged) {
  // Monotonic reads within one session: once a read observed the block
  // append, a later read in the same session cannot observe the
  // pre-append state again. Block counts pin each read to a unique
  // prefix of the witness, so no session-consistent assignment exists.
  HistoryBuilder b;
  b.Op(0, OpKind::kCreate, "/a/f", 0, 10, Outcome::kOk);
  b.Op(0, OpKind::kAddBlock, "/a/f", 20, 30, Outcome::kOk);
  ReadView appended = FreshFileView();
  appended.block_count = 1;
  const std::uint32_t r1 =
      b.Op(1, OpKind::kGetFileInfo, "/a/f", 40, 50, Outcome::kOk,
           StatusCode::kOk, appended);
  MarkStandby(b, r1, /*min_sn=*/0, /*observed_sn=*/2);
  const std::uint32_t r2 =
      b.Op(1, OpKind::kGetFileInfo, "/a/f", 60, 70, Outcome::kOk,
           StatusCode::kOk, FreshFileView());
  MarkStandby(b, r2, /*min_sn=*/0, /*observed_sn=*/2);
  const CheckResult r = CheckHistory(b.history);
  ASSERT_TRUE(r.decided);
  EXPECT_FALSE(r.linearizable);
  ASSERT_FALSE(r.violations.empty());
  EXPECT_EQ(r.violations[0].type, Violation::Type::kStaleRead);
}

// --- cache-read session-consistency checks ---------------------------------

/// A listing of /d that shows exactly `names`.
ReadView Listing(std::vector<std::string> names) {
  ReadView v;
  v.is_dir = true;
  v.listing = std::move(names);
  return v;
}

TEST(CheckerTest, CacheReadMayShowTheLaterInvokedOfTwoConcurrentCreates) {
  // Creates of a and b overlap, and the server ran b first: a holder's
  // line, patched with b's entry, lists b without a. The core search's
  // witness orders a first (the earlier invoke), so no prefix of it
  // explains the listing; another linearization does, with the listing
  // between b and a.
  HistoryBuilder b;
  b.Op(2, OpKind::kCreate, "/d/f", 0, 10, Outcome::kOk);
  b.Op(0, OpKind::kCreate, "/d/a", 100, 500, Outcome::kOk);
  b.Op(2, OpKind::kCreate, "/d/b", 110, 520, Outcome::kOk);
  const std::uint32_t list = b.Op(1, OpKind::kListDir, "/d", 200, 201,
                                  Outcome::kOk, StatusCode::kOk,
                                  Listing({"b", "f"}));
  b.history.events()[list].via_cache = true;
  const CheckResult r = CheckHistory(b.history);
  EXPECT_TRUE(r.decided);
  EXPECT_TRUE(r.linearizable) << FormatViolation(
      b.history, r.violations.empty() ? Violation{} : r.violations[0]);
}

TEST(CheckerTest, CacheReadMissingAnAckedCreateIsFlagged) {
  // The lease barrier: once another client's create of b is acked, no
  // line may list /d without it, under any order of the concurrent a.
  HistoryBuilder b;
  b.Op(2, OpKind::kCreate, "/d/f", 0, 10, Outcome::kOk);
  b.Op(2, OpKind::kCreate, "/d/b", 20, 30, Outcome::kOk);
  b.Op(0, OpKind::kCreate, "/d/a", 100, 500, Outcome::kOk);
  const std::uint32_t list = b.Op(1, OpKind::kListDir, "/d", 200, 201,
                                  Outcome::kOk, StatusCode::kOk,
                                  Listing({"a", "f"}));
  b.history.events()[list].via_cache = true;
  const CheckResult r = CheckHistory(b.history);
  ASSERT_TRUE(r.decided);
  EXPECT_FALSE(r.linearizable);
  ASSERT_FALSE(r.violations.empty());
  EXPECT_EQ(r.violations[0].type, Violation::Type::kStaleRead);
}

// --- fuzzer determinism and .repro round-trips ------------------------------

TEST(FuzzerTest, ReplayIsDeterministic) {
  const RunSpec spec = MakeSpec(3);
  const RunResult a = RunSpecOnce(spec);
  const RunResult b = RunSpecOnce(spec);
  EXPECT_EQ(a.run_digest, b.run_digest);
  EXPECT_EQ(a.virtual_end, b.virtual_end);
  EXPECT_EQ(a.violated(), b.violated());
  EXPECT_EQ(a.history.size(), b.history.size());
}

TEST(ReproTest, SerializeParseRoundTrip) {
  FuzzProfile profile;
  profile.membership_changes = 2;
  RunSpec spec = MakeSpec(5, profile);
  spec.mutation = Mutation::kNoSnDedup;
  spec.standby_reads = true;
  const std::string text = SerializeSpec(spec);
  EXPECT_NE(text.find("\nfault add_standby "), std::string::npos);
  EXPECT_NE(text.find("\nfault retire_standby "), std::string::npos);
  const Result<RunSpec> parsed = ParseSpec(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(SerializeSpec(parsed.value()), text);
}

TEST(ReproTest, EveryMutationRoundTripsByName) {
  for (const NamedMutation& nm : kMutations) {
    Mutation parsed = Mutation::kNone;
    ASSERT_TRUE(ParseMutation(nm.name, &parsed)) << nm.name;
    EXPECT_EQ(parsed, nm.mutation) << nm.name;
    EXPECT_STREQ(MutationName(nm.mutation), nm.name);

    RunSpec spec = MakeSpec(2);
    spec.mutation = nm.mutation;
    const std::string text = SerializeSpec(spec);
    const Result<RunSpec> back = ParseSpec(text);
    ASSERT_TRUE(back.ok()) << nm.name << ": " << back.status().message();
    EXPECT_EQ(back.value().mutation, nm.mutation) << nm.name;
    EXPECT_EQ(SerializeSpec(back.value()), text) << nm.name;
  }
}

TEST(ReproTest, EveryFaultKindParsesBackFromItsName) {
  // Every kind up to the last one declared has a name of its own.
  const int last = static_cast<int>(FaultAction::Kind::kRetireStandby);
  for (int k = 0; k <= last; ++k) {
    const auto kind = static_cast<FaultAction::Kind>(k);
    const char* name = FaultKindName(kind);
    FaultAction::Kind parsed = FaultAction::Kind::kCutMember;
    ASSERT_TRUE(ParseFaultKind(name, &parsed)) << k << " " << name;
    EXPECT_EQ(parsed, kind) << name;
  }
}

int MembershipChanges(const RunSpec& spec) {
  int n = 0;
  for (const FaultAction& f : spec.faults) {
    n += f.kind == FaultAction::Kind::kAddStandby ||
                 f.kind == FaultAction::Kind::kRetireStandby
             ? 1
             : 0;
  }
  return n;
}

TEST(ShrinkTest, DropsMembershipChangesTheViolationDoesNotNeed) {
  // Membership changes are ordinary fault actions, so the shrinker can
  // drop them. A violation from the sn_dedup mutation does not need them.
  FuzzProfile profile;
  profile.membership_changes = 2;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    RunSpec spec = MakeSpec(seed, profile);
    spec.mutation = Mutation::kNoSnDedup;
    ASSERT_EQ(MembershipChanges(spec), 2);
    if (!RunSpecOnce(spec).violated()) continue;
    const ShrinkResult shrunk = Shrink(spec, /*max_runs=*/40);
    ASSERT_TRUE(shrunk.result.violated()) << "seed " << seed;
    EXPECT_LT(MembershipChanges(shrunk.spec), 2) << "seed " << seed;
    return;
  }
  FAIL() << "no sn_dedup violation in seeds 1..20";
}

TEST(ReproTest, MalformedInputIsRejected) {
  EXPECT_FALSE(ParseSpec("").ok());
  EXPECT_FALSE(ParseSpec("not a repro file\n").ok());
  EXPECT_FALSE(ParseSpec("mams-repro v1\nseed=notanumber\n").ok());
  EXPECT_FALSE(
      ParseSpec("mams-repro v1\nseed=1\nop 0 0 bogus-kind /p\n").ok());
  EXPECT_FALSE(
      ParseSpec("mams-repro v1\nseed=1\nfault bogus-kind 0 0 0 0\n").ok());
}

TEST(ReproTest, SpecFileRoundTrip) {
  const RunSpec spec = MakeSpec(7);
  const std::string path = ::testing::TempDir() + "/check_test.repro";
  ASSERT_TRUE(WriteSpecFile(spec, path).ok());
  const Result<RunSpec> read = ReadSpecFile(path);
  ASSERT_TRUE(read.ok()) << read.status().message();
  EXPECT_EQ(SerializeSpec(read.value()), SerializeSpec(spec));
}

// --- regressions: shrunk schedules that once violated ----------------------

struct Regression {
  const char* name;
  const char* spec;  ///< a shrunk .repro as mams_check wrote it
};

// Each schedule violated before the fix its comment names. The elastic
// schedules were shrunk when a load-driven controller changed membership;
// in each it acted once, retiring group 0's standby at 0.75 s, which the
// `retire_standby` fault now states explicitly.
const Regression kRegressions[] = {
    // elastic seed 445: the new active, cut off from every peer and the pool,
    // completed a batch on timeouts alone and acked a client's resend of it
    // as a duplicate; the batch died when the active was deposed. Replies
    // now wait until a standby or the pool holds the batch, and a resend
    // waits for its original's batch.
    {"Elastic445", R"(mams-repro v1
seed=445
clients=4
groups=1
standbys=2
mutation=none
standby_reads=1
warmup_us=2000000000
run_us=30000000000
quiesce_us=45000000000
op 3 3994000000 create /fuzz/c3/d0/f1
fault retire_standby 750000000 0 0 0
fault crash 2391269721 0 7058000000 0
fault crash 6539049921 2 2464000000 0
fault crash_pool 7719829003 0 7511000000 0
fault cut 13076586036 2 4214000000 0
)"},
    // elastic seed 1151: a stat reached the elected standby after step 2
    // made it active in the view but before its step-4 drain adopted the
    // committed tail, and was answered from the stale tree. Reads now wait
    // in the step-3 buffer like mutations.
    {"Elastic1151", R"(mams-repro v1
seed=1151
clients=4
groups=1
standbys=2
mutation=none
standby_reads=1
warmup_us=2000000000
run_us=30000000000
quiesce_us=45000000000
op 3 1745000000 stat /fuzz/c3
op 3 3688000000 stat /fuzz/c3
op 3 2809000000 create /fuzz/c3/d0/f0
op 3 1960000000 list /fuzz/c3/d2
op 3 3835000000 stat /fuzz/c3/d0/f0
op 3 2136000000 stat /fuzz/c3/d0/f0
op 3 3614000000 stat /fuzz/c3/d0/f0
fault retire_standby 750000000 0 0 0
fault crash_active 4095121193 0 3035000000 0
fault crash 8679301750 2 3437000000 0
fault cut 15866594171 0 4024000000 0
fault cut 19973645342 0 10809000000 0
fault crash_active 23314473493 0 1624000000 0
)"},
    // elastic seed 421: the same stale read during the switch, behind a
    // drain slowed by a crashed pool node.
    {"Elastic421", R"(mams-repro v1
seed=421
clients=4
groups=1
standbys=2
mutation=none
standby_reads=1
warmup_us=2000000000
run_us=30000000000
quiesce_us=45000000000
op 2 1950000 create /fuzz/c2/d1/f0
op 3 2468000000 create /fuzz/c3/d0/f0
op 2 1961000 stat /fuzz/c2/d1/f0
op 3 2620000000 stat /fuzz/c3/d0/f0
op 2 1708000 stat /fuzz/c2/d1/f0
op 3 1608000000 create /fuzz/c3/d0/f1
op 2 423000 stat /fuzz/c2/d1/f0
op 3 3455000000 list /fuzz/c3/d2
op 0 1833000 delete /fuzz/c0/d3/f0
op 1 1785000 list /fuzz/c1/d0
op 2 1941000 create /fuzz/c2/d0/f1
op 3 3012000000 stat /fuzz/c3/d0/f0
op 3 2118000000 stat /fuzz/c3/d0/f1
op 0 964000 list /fuzz/c0/d1
op 1 780000 stat /fuzz/c1/d1/f1
op 2 1236000 create /fuzz/c2/d1/f3
op 0 1160000 stat /fuzz/c0/d0/f1
op 1 1884000 stat /fuzz/c1/d0/f0
op 2 786000 stat /fuzz/c2/d1/f3
fault retire_standby 750000000 0 0 0
fault crash 3753465347 0 4954000000 0
fault cut 20702499591 0 6118000000 0
fault crash_active 20748288059 0 5598000000 0
fault crash_pool 21668111001 2 9165000000 0
)"},
    // migrations seed 187: the deposed active's pool re-append landed after
    // the new active had drained the pool without writing to it; a renewing
    // junior then adopted the stale batch. The drain now fences each
    // replica it reads.
    {"Migrations187", R"(mams-repro v1
seed=187
clients=2
groups=2
standbys=2
mutation=none
standby_reads=0
warmup_us=2000000000
run_us=30000000000
quiesce_us=45000000000
fault cut 13649278792 0 4667000000 0
fault migrate 13795120532 54 0 0
)"},
    // migrations seed 242: a standby whose coordination session had expired
    // accepted a batch from the deposed active through its stale view, and
    // forked from the new active's journal. Replicas now refuse journal
    // traffic until their session is confirmed again.
    {"Migrations242", R"(mams-repro v1
seed=242
clients=2
groups=2
standbys=2
mutation=none
standby_reads=0
warmup_us=2000000000
run_us=30000000000
quiesce_us=45000000000
fault cut 12478025925 5 6164000000 0
fault cut 12927289262 3 5487000000 0
fault migrate 15860041599 49 0 0
)"},
    // migrations seed 846: a slot migration shipped its final chunk while a
    // cross-group rename out of the slot was still waiting for its peer
    // group to fail over; the rename's finish then erased the source here,
    // after the copy had left, and the file lived on at the destination.
    // The cutover drain now also waits for the slot's two-group intents.
    {"Migrations846", R"(mams-repro v1
seed=846
clients=2
groups=2
standbys=2
mutation=none
standby_reads=0
warmup_us=2000000000
run_us=30000000000
quiesce_us=45000000000
op 0 90000000 create /fuzz/c0/d1/f0
op 1 2701000000 stat /fuzz/c1
op 0 172000000 stat /fuzz/c0/d1/f0
op 1 2855000000 create /fuzz/c1/d2/f0
op 0 307000000 create /fuzz/c0/d3/f2
op 0 316000000 stat /fuzz/c0/d1/f0
op 0 148000000 mkdir /fuzz/c0/d0/sub12
op 0 225000000 delete /fuzz/c0/d0/f1
op 0 160000000 create /fuzz/c0/d0/f5
op 0 115000000 create /fuzz/c0/d5/f6
op 0 52000000 create /fuzz/c0/d2/f7
op 0 96000000 create /fuzz/c0/d3/f8
op 0 111000000 rename /fuzz/c0/d1/f0 /fuzz/c0/d0/r9
op 0 360000000 rename /fuzz/c0/d0/r9 /fuzz/c0/d2/r10
op 0 317000000 delete /fuzz/c0/d2/r10
op 0 226000000 create /fuzz/c0/d0/f11
op 0 240000000 mkdir /fuzz/c0/d0/sub858
op 0 70000000 create /fuzz/c0/d0/f12
op 0 155000000 rename /fuzz/c0/d2/r4 /fuzz/c0/d0/r13
op 0 383000000 create /fuzz/c0/d0/f14
op 0 375000000 stat /fuzz/c0/d0/r13
op 0 228000000 rename /fuzz/c0/d3/f8 /fuzz/c0/d0/r15
op 0 343000000 create /fuzz/c0/d0/f16
op 0 377000000 rename /fuzz/c0/d0/f14 /fuzz/c0/d1/r17
fault cut 6116495375 4 4664000000 0
fault crash_active 9488600783 1 5639000000 0
fault migrate 12770059320 54 0 0
)"},
};

void PrintTo(const Regression& r, std::ostream* os) { *os << r.name; }

class RegressionTest : public ::testing::TestWithParam<Regression> {};

TEST_P(RegressionTest, ShrunkScheduleStaysClean) {
  const Result<RunSpec> spec = ParseSpec(GetParam().spec);
  ASSERT_TRUE(spec.ok()) << spec.status().message();
  const RunResult result = RunSpecOnce(spec.value());
  for (const Violation& v : result.violations) {
    ADD_FAILURE() << FormatViolation(result.history, v);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shrunk, RegressionTest, ::testing::ValuesIn(kRegressions),
    [](const ::testing::TestParamInfo<Regression>& info) {
      return std::string(info.param.name);
    });

// --- mutation self-tests: the checker must catch broken servers -------------

/// Sweeps seeds under `mutation` until a violation is found, shrinks it,
/// and proves the shrunk spec still violates and replays bit-for-bit.
void MutationSelfTest(Mutation mutation, std::uint64_t max_seed) {
  for (std::uint64_t seed = 1; seed <= max_seed; ++seed) {
    RunSpec spec = MakeSpec(seed);
    spec.mutation = mutation;
    RunResult result = RunSpecOnce(spec);
    if (!result.violated()) continue;

    // Shrink: the minimized schedule must still violate.
    const ShrinkResult shrunk = Shrink(spec, /*max_runs=*/80);
    ASSERT_TRUE(shrunk.result.violated())
        << MutationName(mutation) << " seed " << seed
        << ": shrunk spec no longer violates";
    EXPECT_LE(shrunk.spec.ops.size(), spec.ops.size());
    EXPECT_LE(shrunk.spec.faults.size(), spec.faults.size());

    // The .repro serialization of the shrunk spec replays to the exact
    // same schedule (run_digest) and the same verdict.
    const Result<RunSpec> reparsed = ParseSpec(SerializeSpec(shrunk.spec));
    ASSERT_TRUE(reparsed.ok());
    const RunResult replay = RunSpecOnce(reparsed.value());
    EXPECT_EQ(replay.run_digest, shrunk.result.run_digest)
        << MutationName(mutation) << " seed " << seed;
    EXPECT_TRUE(replay.violated());
    return;
  }
  FAIL() << "mutation " << MutationName(mutation) << " produced no violation"
         << " in seeds 1.." << max_seed
         << " — the checker would not catch this bug";
}

TEST(MutationSelfTest, MissingSnDedupIsCaught) {
  // ~75% of seeds violate under kNoSnDedup; 20 gives astronomical margin.
  MutationSelfTest(Mutation::kNoSnDedup, 20);
}

TEST(MutationSelfTest, MissingFencingIsCaught) {
  // Split-brain needs a partitioned-but-serving active plus a stale-cache
  // client; a few percent of seeds hit it, 60 covers the known hits.
  MutationSelfTest(Mutation::kNoFencing, 60);
}

TEST(MutationSelfTest, IgnoredMinSnIsCaught) {
  // A standby that answers below the session floor needs a read to land
  // on it while it lags the reader's own acked writes; ~10% of seeds hit
  // it (kIgnoreMinSn forces standby-read offload on in RunSpecOnce).
  MutationSelfTest(Mutation::kIgnoreMinSn, 40);
}

// --- standby read offload under faults ---------------------------------------

TEST(StandbyReadSweepTest, SessionConsistentOffloadYieldsNoViolations) {
  // Read-heavy traffic routed round-robin over the standbys, with faults:
  // every standby-served read must match a session-consistent prefix of
  // the witness linearization, and write acks through failover must keep
  // the session floor intact.
  FuzzProfile profile;
  profile.standby_reads = true;
  profile.ops_per_client = 30;
  profile.mix.create = 0.30;
  profile.mix.rename = 0.08;
  profile.mix.remove = 0.07;
  profile.mix.getfileinfo = 0.35;
  profile.mix.listdir = 0.15;
  profile.mix.add_block = 0.05;
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    const RunSpec spec = MakeSpec(seed, profile);
    ASSERT_TRUE(spec.standby_reads);
    const RunResult result = RunSpecOnce(spec);
    EXPECT_TRUE(result.check.decided) << "seed " << seed;
    ASSERT_FALSE(result.violated())
        << "seed " << seed << ": "
        << FormatViolation(result.history, result.violations[0]);
  }
}

// --- rename/delete storms across failover -----------------------------------

TEST(RenameDeleteStormSweepTest, StormsAcrossFailoverStayLinearizable) {
  // Rename/delete-heavy traffic moves and removes entries under every
  // replica's resolution walk: a path that still resolved after its rename
  // or delete would surface as a stale read or lost ack in the history.
  // Faults run concurrently, so the storms also cross failover replay.
  FuzzProfile profile;
  profile.ops_per_client = 30;
  ASSERT_TRUE(ApplyProfile("renames", &profile));
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    const RunSpec spec = MakeSpec(seed, profile);
    const RunResult result = RunSpecOnce(spec);
    EXPECT_TRUE(result.check.decided) << "seed " << seed;
    ASSERT_FALSE(result.violated())
        << "seed " << seed << ": "
        << FormatViolation(result.history, result.violations[0]);
  }
}

// --- elastic membership under faults -----------------------------------------

TEST(ElasticSweepTest, MembershipFaultsFifteenSeedsClean) {
  // The elastic profile: standbys are admitted and retired all through the
  // op/fault phase, interleaved with the random fault schedule, and every
  // seed must stay linearizable and divergence-free.
  FuzzProfile profile;
  profile.ops_per_client = 25;
  ASSERT_TRUE(ApplyProfile("elastic", &profile));
  int added = 0;
  int retired = 0;
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    const RunSpec spec = MakeSpec(seed, profile);
    const RunResult result = RunSpecOnce(spec);
    EXPECT_FALSE(result.violated())
        << "seed " << seed << ": "
        << FormatViolation(result.history, result.violations[0]);
    added += result.standbys_added;
    retired += result.standbys_retired;
  }
  // The sweep exercised both directions, not just refused retirements.
  EXPECT_GE(added, 1);
  EXPECT_GE(retired, 1);
}

}  // namespace
}  // namespace mams::check
