// The quorum judge — the one place the peer-comparison verdict rule
// lives (Sections 4.4 and 4.5, DESIGN.md §12).
//
// Every fingerpointer applies the same rule: take the median over the
// monitorable peers, then flag the nodes far from it. Whatever the
// topology, the judge sees that population as GroupSummary partials
// (analysis/partials.h): the flat [analysis_bb]/[analysis_wb] modules
// hand it one in-memory summary covering every node, the merge modules
// hand it one unpacked summary per aggregator, and the tiered live
// root hands it the summaries fetched from its regions. The judge
//
//   - copies each member's monitoring health out of the summaries and
//     counts the survivors (health != unmonitorable);
//   - suppresses every flag when fewer than max(quorum, 3) peers
//     survive — a median over fewer than 3 participants is guesswork;
//   - otherwise runs merge{BlackBox,WhiteBox}Summaries, which scores
//     every survivor bit-identically to the flat kernels in
//     analysis/peercompare.h over the concatenated survivor rows;
//   - reports a MonitoringEvent whenever the unmonitorable set or the
//     quorum state changed since the previous window.
//
// Steady-state windows allocate nothing: the unmonitorable set is
// tracked as node indices and only rendered as labels on a transition.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "analysis/partials.h"
#include "common/types.h"
#include "core/environment.h"

namespace asdf::modules {

/// Which fingerpointer a peer-comparison unit runs. The values match
/// rpc::SummaryChannel.
enum class PeerKind { kBlackBox = 0, kWhiteBox = 1 };

class PeerJudge {
 public:
  PeerJudge() = default;
  /// `threshold` is the black-box L1 threshold or the white-box k.
  /// `quorum` <= 0 selects the majority default, N/2 + 1 (at least 3),
  /// over the N = labels.size() nodes. `labels` names every node in
  /// concatenated group order.
  PeerJudge(PeerKind kind, double threshold, int quorum,
            std::vector<std::string> labels);

  std::size_t nodes() const { return labels_.size(); }
  int quorum() const { return quorum_; }

  /// Judges one window. The groups' members, concatenated, are the
  /// nodes() nodes in label order. flags/scores/health must each hold
  /// nodes() doubles and are overwritten (non-survivors read 0 with
  /// their health code). Returns the MonitoringEvent, stamped with
  /// `time` and `channel`, when the unmonitorable set or the quorum
  /// state changed since the previous window, nullptr otherwise; the
  /// event stays valid until the next call.
  const core::MonitoringEvent* judge(
      const analysis::GroupSummary* const* groups, std::size_t ngroups,
      SimTime time, const std::string& channel, double* flags,
      double* scores, double* health);

 private:
  PeerKind kind_ = PeerKind::kBlackBox;
  double threshold_ = 0.0;
  int quorum_ = 0;
  std::vector<std::string> labels_;
  // Reused per-window workspace: zero steady-state allocations.
  analysis::TieredScratch scratch_;
  std::vector<std::size_t> unmonitorable_;
  std::vector<std::size_t> lastUnmonitorable_;
  bool lastBelowQuorum_ = false;
  core::MonitoringEvent event_;
};

}  // namespace asdf::modules
