// Upgrade — one election and, if it wins, the failover protocol of Section
// III.C that makes this standby (or junior, when no standby is left) the
// active. It lives from the first lock bid until step 6, an abort or a lost
// election; callbacks arriving later find its weak_ptr expired and return.
//
//   bid Algorithm 1 · 1 re-read the view · 2 flip ourselves active ·
//   3 buffer mutations (switching()) · 4 drain the SSP tail and re-flush ·
//   5 gather registrations, adopt a committed tail, classify · 6 serve.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "core/failover_trace.hpp"
#include "core/messages.hpp"
#include "obs/trace.hpp"

namespace mams::core {

class MdsServer;

class Upgrade : public std::enable_shared_from_this<Upgrade> {
 public:
  /// Starts the failover trace and the election span; BidForLock bids.
  explicit Upgrade(MdsServer& server);
  Upgrade(const Upgrade&) = delete;
  Upgrade& operator=(const Upgrade&) = delete;

  void BidForLock();
  /// Step 3: true from the lock grant until step 6. Client requests, reads
  /// included, then wait in Buffer().
  bool switching() const noexcept { return switching_; }
  void Buffer(RequestPtr req, ReplyFn reply);
  /// Closes every span still open (a crash ends the upgrade with ok=false).
  void EndSpans(bool ok);

 private:
  void Step1CheckState();
  void Step2FlipStates();
  void Step4Reflush();
  void Step5Round(bool final_round);
  void Step5Classify(const std::map<NodeId, SerialNumber>& acks);
  void Step6BecomeActive();
  void Abort(const std::string& why);
  /// Ends the previous step's span and opens `step_name`'s.
  void StartStep(std::string step_name);

  MdsServer& s_;
  bool switching_ = false;
  FailoverTrace trace_;
  std::deque<std::pair<RequestPtr, ReplyFn>> buffered_;
  // The step span is one per sequential stage; buffer and switch overlap it.
  obs::TraceRecorder::Span election_span_;
  obs::TraceRecorder::Span switch_span_;
  obs::TraceRecorder::Span step_span_;
  obs::TraceRecorder::Span buffer_span_;
};

}  // namespace mams::core
